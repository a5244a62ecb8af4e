package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"ertree/internal/backend"
	"ertree/internal/obs"
	"ertree/internal/randtree"
	"ertree/internal/telemetry"
	"ertree/internal/tt"
)

// TestTelemetryRecordsSessions: an engine wired to a Telemetry exposes the
// session, latency, and core-search families with the engine's game label
// after a completed analysis.
func TestTelemetryRecordsSessions(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := NewTelemetry(reg)
	// Pinned to the er backend: the asserted families (serial tasks, heap
	// ops) only exist on the ER scheduler, so this test must not float with
	// ERTREE_BACKEND.
	e := New(Config{
		Name: "randtree", Workers: 2, SerialDepth: 2, TableBits: 12,
		Backend: "er", Telemetry: tel,
	})
	tr := &randtree.Tree{Seed: 7, Degree: 4, Depth: 6, ValueRange: 1000}
	if _, err := e.Analyze(context.Background(), tr.Root(), 5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`engine_sessions_total{game="randtree",outcome="completed"} 1`,
		`engine_session_duration_seconds_count{game="randtree",outcome="completed"} 1`,
		`engine_session_depth_count{game="randtree"} 1`,
		`core_tasks_total{game="randtree",kind="serial"}`,
		`core_tt_ops_total{game="randtree",op="probe"}`,
		`core_tt_fill_slots{game="randtree"}`,
		`core_tt_hit_rate{game="randtree"}`,
		`core_tt_generation{game="randtree"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	st := e.Stats()
	if st.SerialTasks == 0 || st.HeapOps == 0 {
		t.Fatalf("core aggregates not folded into Stats: %+v", st)
	}
	if st.TTProbes == 0 || st.TTStores == 0 {
		t.Fatalf("tt aggregates not folded into Stats: %+v", st)
	}
}

// TestTelemetryNilIsSafe: a nil *Telemetry disables recording without
// changing engine behavior.
func TestTelemetryNilIsSafe(t *testing.T) {
	e := New(Config{Workers: 1})
	tr := &randtree.Tree{Seed: 3, Degree: 3, Depth: 5, ValueRange: 100}
	if _, err := e.Analyze(context.Background(), tr.Root(), 4); err != nil {
		t.Fatal(err)
	}
	var tel *Telemetry
	tel.recordSession("x", outcomeCompleted, time.Second, 3, 0, 10)
	tel.recordRejection("x")
	tel.recordCore("x", &obs.Counters{Totals: backend.Totals{SerialTasks: 1}})
	tel.recordTable("x", obs.Counters{}, tt.NewDefault(8, 0))
}

// TestAnalyzeTraceCollectsWorkerSpans: a traced session returns merged
// per-worker telemetry that WriteWorkerTrace renders as a valid Chrome
// trace_event JSON array with one named track per worker.
func TestAnalyzeTraceCollectsWorkerSpans(t *testing.T) {
	// Worker spans come from core hooks, which only the er backend arms.
	e := New(Config{Name: "randtree", Workers: 3, SerialDepth: 2, Backend: "er"})
	tr := &randtree.Tree{Seed: 17, Degree: 4, Depth: 6, ValueRange: 1000}
	an, err := e.AnalyzeTrace(context.Background(), tr.Root(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Trace) == 0 {
		t.Fatal("traced analysis returned no worker telemetry")
	}
	if len(an.Trace) > 3 {
		t.Fatalf("%d worker tracks for 3 workers", len(an.Trace))
	}
	var spans int
	for i, wt := range an.Trace {
		if i > 0 && an.Trace[i-1].Worker >= wt.Worker {
			t.Fatalf("tracks not ordered by worker id: %d then %d", an.Trace[i-1].Worker, wt.Worker)
		}
		spans += len(wt.Spans)
		// Deepening iterations share the session epoch, so merged spans must
		// stay on one axis: all offsets non-negative and within the session.
		for _, sp := range wt.Spans {
			if sp.Start < 0 || sp.End < sp.Start {
				t.Fatalf("worker %d span off the session axis: %+v", wt.Worker, sp)
			}
		}
	}
	if spans == 0 {
		t.Fatal("no spans collected across the session")
	}

	var buf bytes.Buffer
	if err := WriteWorkerTrace(&buf, "engine test", an.Trace); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	names := 0
	for _, ev := range events {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			names++
		}
	}
	if names != len(an.Trace) {
		t.Fatalf("%d thread_name records for %d tracks", names, len(an.Trace))
	}

	// The untraced path must not populate Trace.
	an2, err := e.Analyze(context.Background(), tr.Root(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if an2.Trace != nil {
		t.Fatal("Analyze populated Trace without tracing enabled")
	}
}

// TestStatsConcurrentSessions races many sessions — including rejected
// admissions — against Stats readers and checks the final counters balance.
// Run under -race this also proves the counters are data-race free.
func TestStatsConcurrentSessions(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{
		Name: "randtree", Workers: 2, SerialDepth: 2, TableBits: 10,
		MaxConcurrent: 2, Telemetry: NewTelemetry(reg),
	})
	tr := &randtree.Tree{Seed: 23, Degree: 4, Depth: 6, ValueRange: 1000}
	root := tr.Root()

	const sessions = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	okCount, rejected := 0, 0
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent Stats reader, stopped once the sessions drain
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s := e.Stats()
				if s.Active < 0 || s.Active > s.Capacity || s.Waiting < 0 {
					t.Errorf("inconsistent live stats: %+v", s)
					return
				}
			}
		}
	}()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Analyze(context.Background(), root, 4)
			mu.Lock()
			defer mu.Unlock()
			switch err {
			case nil:
				okCount++
			case ErrBusy:
				rejected++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	st := e.Stats()
	if st.Started != int64(okCount) || st.Completed != int64(okCount) {
		t.Fatalf("started %d completed %d, want %d each", st.Started, st.Completed, okCount)
	}
	if st.Rejected != int64(rejected) {
		t.Fatalf("rejected counter %d, callers saw %d", st.Rejected, rejected)
	}
	if st.Active != 0 || st.Waiting != 0 {
		t.Fatalf("sessions drained but Active=%d Waiting=%d", st.Active, st.Waiting)
	}
	if okCount > 0 && (st.Nodes == 0 || st.SerialTasks+st.LeafTasks == 0) {
		t.Fatalf("work counters empty after %d sessions: %+v", okCount, st)
	}
	// Registry sessions by outcome must match the engine's own counters.
	var completedSamples, rejectedSamples float64
	for _, fam := range reg.Snapshot() {
		if fam.Name != "engine_sessions_total" {
			continue
		}
		for _, s := range fam.Samples {
			switch s.Labels["outcome"] {
			case "completed":
				completedSamples += s.Value
			case "rejected":
				rejectedSamples += s.Value
			}
		}
	}
	if int(completedSamples) != okCount || int(rejectedSamples) != rejected {
		t.Fatalf("registry saw %v completed / %v rejected, engine saw %d / %d",
			completedSamples, rejectedSamples, okCount, rejected)
	}
}

// TestSampledTableTicksDoNotWrap: the self-monitor's tick count is the
// engine's cumulative TableTicks, not the table's 8-bit aging generation, so
// it reads every admitted session even after the generation wraps (300
// sessions would read 300 mod 256 = 44 from the generation).
func TestSampledTableTicksDoNotWrap(t *testing.T) {
	mon := obs.New(obs.Config{CPUProfile: -1})
	defer mon.Close()
	e := New(Config{Workers: 1, TableBits: 8, Obs: mon})
	mon.SetSource(func(s *obs.Sample) { s.Add(e.Counters()) })
	tr := &randtree.Tree{Seed: 5, Degree: 3, Depth: 2, ValueRange: 100}
	const sessions = 300
	for i := 0; i < sessions; i++ {
		if _, err := e.Analyze(context.Background(), tr.Root(), 1); err != nil {
			t.Fatal(err)
		}
	}
	mon.Tick(time.Now())
	samples := mon.Report().Samples
	if got := samples[len(samples)-1].TableTicks; got != sessions {
		t.Fatalf("sampled table ticks = %d after %d sessions, want %d", got, sessions, sessions)
	}
}

// TestCountersAllocFree pins the sampler-facing accessor: one lock and a
// struct copy, no allocation, with a table attached.
func TestCountersAllocFree(t *testing.T) {
	e := New(Config{Workers: 1, TableBits: 10})
	tr := &randtree.Tree{Seed: 9, Degree: 3, Depth: 4, ValueRange: 100}
	if _, err := e.Analyze(context.Background(), tr.Root(), 3); err != nil {
		t.Fatal(err)
	}
	var c obs.Counters
	allocs := testing.AllocsPerRun(200, func() { c = e.Counters() })
	if allocs != 0 {
		t.Fatalf("Counters allocates %.1f/op, want 0", allocs)
	}
	if c.Started != 1 || c.TableLen == 0 || c.Nodes == 0 {
		t.Fatalf("counters not populated: %+v", c)
	}
}
