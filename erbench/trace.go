package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ertree/internal/backend"
	"ertree/internal/core"
	"ertree/internal/flight"
	"ertree/internal/game"
	"ertree/internal/tt"
)

// The traced run measures the layers from outside: it times the calls the
// benchmark makes into each layer, reads the counters the layers already
// expose, and interposes on the backend seam through backend.Register. The
// program under test gets no instrumentation of its own.

// tapName is the wrapper backend registered in the traced process only.
const tapName = "erbench-tap"

// eventRing is the per-worker flight-recorder capacity of each core search
// the traced run records. A ring that wraps keeps the newest events;
// core.event_drop_share reports how much was lost.
const eventRing = 1 << 12

// tapKeyLog bounds the transposition-table operations the tap records for
// the replay measurements.
const tapKeyLog = 1 << 20

// tap is the traced run's wrapper backend: it delegates every search to the
// backend the engine would have used (inner), times each call, records the
// table traffic of the inner backend, and arms the core hooks on requests
// that carry none so core telemetry is available behind the engine and the
// server too.
type tap struct {
	inner string
	keys  tableLog

	mu       sync.Mutex
	calls    int64
	searchMS []float64     // wall time of each Search call
	total    time.Duration // summed wall time of all Search calls
	core     coreTally
}

// activeTap is the tap the registered factory wraps backends with; the
// registry takes a plain function, so the factory reads it from here.
var activeTap *tap

// installTap registers the wrapper backend around inner. It may run once per
// process; only the traced run calls it.
func installTap(inner string) (*tap, error) {
	if !backend.Valid(inner) {
		return nil, fmt.Errorf("tap: unknown inner backend %q", inner)
	}
	activeTap = &tap{inner: inner, keys: tableLog{ops: make([]tableOp, tapKeyLog)}}
	backend.Register(tapName, func(cfg backend.Config) backend.Backend {
		t := activeTap
		if cfg.Table != nil {
			cfg.Table = &recordingTable{SharedTable: cfg.Table, log: &t.keys}
		}
		inner, err := backend.New(t.inner, cfg)
		if err != nil {
			panic(err) // unreachable: installTap validated the name
		}
		return &tapBackend{t: t, inner: inner}
	})
	return activeTap, nil
}

type tapBackend struct {
	t     *tap
	inner backend.Backend
}

func (b *tapBackend) Name() string { return tapName }

func (b *tapBackend) Search(req backend.Request) (backend.Response, error) {
	var col shardCollector
	if req.Hooks == nil {
		req.Hooks = &core.Hooks{Events: eventRing, OnWorkerDone: col.add}
	}
	start := time.Now()
	resp, err := b.inner.Search(req)
	d := time.Since(start)
	var tally coreTally
	tally.addShards(col.take())
	t := b.t
	t.mu.Lock()
	t.calls++
	t.searchMS = append(t.searchMS, ms(d))
	t.total += d
	t.core.merge(&tally)
	t.mu.Unlock()
	return resp, err
}

// reset drops everything recorded so far. Call it between phases, while no
// search runs.
func (t *tap) reset() {
	t.mu.Lock()
	t.calls, t.searchMS, t.total, t.core = 0, nil, 0, coreTally{}
	t.mu.Unlock()
	t.keys.n.Store(0)
}

// snapshot returns the tap's totals since the last reset.
func (t *tap) snapshot() (calls int64, searchMS []float64, total time.Duration, c coreTally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, append([]float64(nil), t.searchMS...), t.total, t.core
}

// shardCollector gathers the worker telemetry shards of the core searches
// run under one set of hooks. Workers deliver concurrently.
type shardCollector struct {
	mu     sync.Mutex
	shards []core.WorkerTelemetry
}

func (c *shardCollector) add(wt core.WorkerTelemetry) {
	c.mu.Lock()
	c.shards = append(c.shards, wt)
	c.mu.Unlock()
}

func (c *shardCollector) take() []core.WorkerTelemetry {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shards
	c.shards = nil
	return s
}

// coreTally accumulates core telemetry over many searches.
type coreTally struct {
	busy       time.Duration
	serialBusy time.Duration
	serialUS   []float64 // durations of recorded serial cut-over tasks
	primary    time.Duration
	useful     time.Duration // useful speculative work
	wasted     time.Duration // wasted speculative work
	events     int64
	drops      int64
}

// addShards folds shards delivered in order by consecutive core searches.
// The backends run one core search at a time per request, and a search
// delivers every worker's shard before the next one starts, so a repeated
// worker id marks the start of the next search. Node sequence numbers
// restart with every search, so each search gets its own flight report.
func (c *coreTally) addShards(shards []core.WorkerTelemetry) {
	var cur []core.WorkerTelemetry
	seen := make(map[int]bool)
	flush := func() {
		if len(cur) > 0 {
			c.addSearch(cur)
		}
		cur = nil
		clear(seen)
	}
	for _, wt := range shards {
		if seen[wt.Worker] {
			flush()
		}
		seen[wt.Worker] = true
		cur = append(cur, wt)
	}
	flush()
}

// addSearch folds the shards of one core search.
func (c *coreTally) addSearch(shards []core.WorkerTelemetry) {
	rep := flight.Build(shards, flight.Options{})
	c.busy += rep.Busy
	c.primary += rep.UsefulPrimary.Time
	c.useful += rep.UsefulSpec.Time
	c.wasted += rep.WastedSpec.Time
	c.events += int64(rep.Events)
	c.drops += rep.EventDrops
	for i := range shards {
		c.serialBusy += shards[i].TaskTime[core.TaskSerial]
		for _, e := range shards[i].Events {
			if e.Kind == core.EvTask && e.Task == core.TaskSerial {
				c.serialUS = append(c.serialUS, float64(e.Dur)/float64(time.Microsecond))
			}
		}
	}
}

func (c *coreTally) merge(o *coreTally) {
	c.busy += o.busy
	c.serialBusy += o.serialBusy
	c.serialUS = append(c.serialUS, o.serialUS...)
	c.primary += o.primary
	c.useful += o.useful
	c.wasted += o.wasted
	c.events += o.events
	c.drops += o.drops
}

// layers writes the core metrics the tally supports into m. nodes is the
// node count of the traced searches, solveWall their summed wall time and
// workers the core workers each ran with.
func (c *coreTally) layers(m map[string]float64, nodes float64, solveWall time.Duration, workers int) {
	recorded := float64(c.primary + c.useful + c.wasted)
	m["core.ns_per_node"] = ratio(float64(c.busy), nodes)
	m["core.busy_share"] = ratio(float64(c.busy), float64(workers)*float64(solveWall))
	m["core.spec_share"] = ratio(float64(c.useful+c.wasted), recorded)
	m["core.spec_waste_share"] = ratio(float64(c.wasted), recorded)
	m["core.serial_task_us_p50"] = p50Or0(c.serialUS)
	m["core.serial_busy_share"] = ratio(float64(c.serialBusy), float64(c.busy))
	m["core.event_drop_share"] = ratio(float64(c.drops), float64(c.events+c.drops))
}

// tableOp is one recorded transposition-table call.
type tableOp struct {
	key   uint64
	depth int32
	value game.Value
	kind  uint8 // one of the op* constants
	bound tt.Bound
}

const (
	opProbe uint8 = iota
	opProbeDeep
	opStore
	opStoreDeep
)

// tableLog records the first len(ops) table calls, lock-free: each call
// claims the next slot with one atomic add.
type tableLog struct {
	ops []tableOp
	n   atomic.Int64
}

func (l *tableLog) add(op tableOp) {
	if i := l.n.Add(1) - 1; i < int64(len(l.ops)) {
		l.ops[i] = op
	}
}

// recorded returns the calls recorded so far; call it only once the
// searches writing the log have finished.
func (l *tableLog) recorded() []tableOp {
	n := l.n.Load()
	if n > int64(len(l.ops)) {
		n = int64(len(l.ops))
	}
	return l.ops[:n]
}

// recordingTable logs every probe and store on the way to the real table.
type recordingTable struct {
	tt.SharedTable
	log *tableLog
}

func (r *recordingTable) Probe(key uint64, depth int) (tt.Entry, bool) {
	r.log.add(tableOp{key: key, depth: int32(depth), kind: opProbe})
	return r.SharedTable.Probe(key, depth)
}

func (r *recordingTable) ProbeDeep(key uint64, depth int) (tt.Entry, bool) {
	r.log.add(tableOp{key: key, depth: int32(depth), kind: opProbeDeep})
	return r.SharedTable.ProbeDeep(key, depth)
}

func (r *recordingTable) Store(key uint64, depth int, v game.Value, b tt.Bound) {
	r.log.add(tableOp{key: key, depth: int32(depth), value: v, kind: opStore, bound: b})
	r.SharedTable.Store(key, depth, v, b)
}

func (r *recordingTable) StoreDeep(key uint64, depth int, v game.Value, b tt.Bound) {
	r.log.add(tableOp{key: key, depth: int32(depth), value: v, kind: opStoreDeep, bound: b})
	r.SharedTable.StoreDeep(key, depth, v, b)
}

// replayReps is how many times each table replay runs; the median counts.
const replayReps = 5

// replayTable replays a recorded key stream into fresh tables of the given
// implementation and size and writes the tt.{probe,store}_ns_p{1,2}
// metrics: the stores first, then the probes against the filled table, on
// one goroutine and then on two, each replaying its own half of the stream
// as two workers search their own parts of a tree. A time per operation at
// two goroutines above the one-goroutine time is contention.
func replayTable(m map[string]float64, ops []tableOp, impl string, bits int) error {
	var probes, stores []tableOp
	for _, op := range ops {
		if op.kind == opProbe || op.kind == opProbeDeep {
			probes = append(probes, op)
		} else {
			stores = append(stores, op)
		}
	}
	for _, g := range []int{1, 2} {
		var pns, sns []float64
		for rep := 0; rep < replayReps; rep++ {
			table, err := tt.NewSharedTable(impl, bits, 0)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			sns = append(sns, replay(table, stores, g))
			pns = append(pns, replay(table, probes, g))
		}
		m[fmt.Sprintf("tt.probe_ns_p%d", g)] = median(pns)
		m[fmt.Sprintf("tt.store_ns_p%d", g)] = median(sns)
	}
	return nil
}

// replaySink keeps the replayed probes observable to the compiler.
var replaySink atomic.Int64

// replay runs ops against table on g goroutines, goroutine j taking the
// j-th of g contiguous parts, and returns the wall time per operation of
// one goroutine.
func replay(table tt.SharedTable, ops []tableOp, g int) float64 {
	per := len(ops) / g
	if per == 0 {
		return 0
	}
	var wg sync.WaitGroup
	start := time.Now()
	for j := 0; j < g; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hits int64
			for i := j * per; i < (j+1)*per; i++ {
				op := &ops[i]
				switch op.kind {
				case opProbe:
					if _, ok := table.Probe(op.key, int(op.depth)); ok {
						hits++
					}
				case opProbeDeep:
					if _, ok := table.ProbeDeep(op.key, int(op.depth)); ok {
						hits++
					}
				case opStore:
					table.Store(op.key, int(op.depth), op.value, op.bound)
				case opStoreDeep:
					table.StoreDeep(op.key, int(op.depth), op.value, op.bound)
				}
			}
			replaySink.Add(hits)
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(per)
}

// startMutexProfile switches mutex-contention profiling on for the traced
// phase; the returned function reads the delay recorded since, attributed
// to internal/core, and switches profiling off again.
func startMutexProfile() func() (time.Duration, error) {
	runtime.SetMutexProfileFraction(1)
	return func() (time.Duration, error) {
		defer runtime.SetMutexProfileFraction(0)
		var buf bytes.Buffer
		if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
			return 0, fmt.Errorf("mutex profile: %w", err)
		}
		return coreMutexDelay(buf.String())
	}
}

// corePrefix is the function-name prefix of the scheduler's frames.
const corePrefix = "ertree/internal/core."

// coreMutexDelay sums the contention delay of the records in a debug=1
// mutex profile whose innermost frame outside the runtime and sync
// packages belongs to internal/core — the locks the scheduler holds.
func coreMutexDelay(profile string) (time.Duration, error) {
	var perSecond, total float64
	var cycles float64
	attributed := true // the current record's frame has been classified
	sc := bufio.NewScanner(strings.NewReader(profile))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
			if err != nil {
				return 0, fmt.Errorf("mutex profile: %w", err)
			}
			perSecond = v
		case strings.Contains(line, " @ ") && !strings.HasPrefix(line, "#"):
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("mutex profile: %w", err)
			}
			cycles, attributed = v, false
		case strings.HasPrefix(line, "#\t") && !attributed:
			f := strings.Split(line, "\t")
			if len(f) < 3 {
				continue
			}
			fn := f[2]
			if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "sync.") || strings.HasPrefix(fn, "internal/") {
				continue
			}
			attributed = true
			if strings.HasPrefix(fn, corePrefix) {
				total += cycles
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("mutex profile: %w", err)
	}
	if perSecond <= 0 {
		return 0, nil
	}
	return time.Duration(total / perSecond * float64(time.Second)), nil
}

// gameSink keeps the measured evaluations observable to the compiler.
var gameSink int64

// gameCost times Value and Children over the positions ps and their
// children, and writes game.eval_ns and game.children_ns.
func gameCost(m map[string]float64, ps []game.Position) {
	sample := append([]game.Position(nil), ps...)
	for _, p := range ps {
		sample = append(sample, p.Children()...)
	}
	if len(sample) == 0 {
		return
	}
	var evalNs, kidsNs []float64
	for rep := 0; rep < replayReps; rep++ {
		start := time.Now()
		for _, p := range sample {
			gameSink += int64(p.Value())
		}
		evalNs = append(evalNs, float64(time.Since(start))/float64(len(sample)))
		start = time.Now()
		for _, p := range sample {
			gameSink += int64(len(p.Children()))
		}
		kidsNs = append(kidsNs, float64(time.Since(start))/float64(len(sample)))
	}
	m["game.eval_ns"] = median(evalNs)
	m["game.children_ns"] = median(kidsNs)
}

// zeroLayers sets every per-layer metric to 0; a workload then overwrites
// the ones its layers produce.
func zeroLayers(m map[string]float64) {
	for _, s := range perLayer {
		m[s.Name] = 0
	}
}
