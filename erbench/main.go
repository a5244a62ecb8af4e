// Command erbench is the repository benchmark. It runs one workload
// (othello, random or serve) against the public entry points of the search
// stack for a fixed time, checks every answer against the serial alpha-beta
// oracle, and prints its metrics. README.md explains the workloads, the
// metrics and the layer each one is meant to move.
//
//	erbench --workload othello --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (tracing off); with
// --trace 1 they are the per-layer set of the traced run. The lines before
// it are a human-readable table and one JSON "detail" line recording the
// host, the resolved configuration and the per-workload metric names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"ertree/internal/engine"
	"ertree/internal/tt"
)

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is the metric set of an untraced run, the same for every
// workload. README.md maps each name onto the per-workload names
// (solves_per_s, requests_per_s, miss_ms_p50, ...).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"search_ms_p50", "ms", "lower"},
	{"search_ms_p90", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer is the metric set of a traced run. Every traced run reports all
// of them; a layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"core.nodes_per_solve", "count", "lower"},
	{"core.node_overhead", "ratio", "lower"},
	{"core.ns_per_node", "ns", "lower"},
	{"core.busy_share", "ratio", "higher"},
	{"core.spec_share", "ratio", "lower"},
	{"core.spec_waste_share", "ratio", "lower"},
	{"core.heap_ops_per_node", "count", "lower"},
	{"core.lock_wait_share", "ratio", "lower"},
	{"core.serial_task_us_p50", "us", "lower"},
	{"core.serial_busy_share", "ratio", "higher"},
	{"core.fishburn_speedup", "ratio", "higher"},
	{"core.event_drop_share", "ratio", "lower"},
	{"tt.probes_per_node", "count", "lower"},
	{"tt.hit_ratio", "ratio", "higher"},
	{"tt.cutoff_ratio", "ratio", "higher"},
	{"tt.stores_per_solve", "count", "lower"},
	{"tt.fill_ratio", "ratio", "higher"},
	{"tt.probe_ns_p1", "ns", "lower"},
	{"tt.probe_ns_p2", "ns", "lower"},
	{"tt.store_ns_p1", "ns", "lower"},
	{"tt.store_ns_p2", "ns", "lower"},
	{"engine.iterations_per_solve", "count", "lower"},
	{"engine.self_ms_per_solve", "ms", "lower"},
	{"engine.admission_wait_ms_p50", "ms", "lower"},
	{"driver.calls_per_iteration", "count", "lower"},
	{"driver.researches_per_solve", "count", "lower"},
	{"backend.search_ms_p50", "ms", "lower"},
	{"game.eval_ns", "ns", "lower"},
	{"game.children_ns", "ns", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.coalesced_ratio", "ratio", "lower"},
	{"serve.handler_hit_us_p50", "us", "lower"},
	{"serve.http_us_p50", "us", "lower"},
	{"serve.handler_overhead_ms_per_miss", "ms", "lower"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// params are the command-line arguments a workload runs under.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
}

// named is one metric under its workload-specific name (solves_per_s,
// hit_ms_p50, fail_ratio, ...), for the table and the detail line.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run measured.
type report struct {
	attempted, failed int64
	failures          []string           // first few failure descriptions
	endToEnd          map[string]float64 // endToEnd names (untraced run)
	layers            map[string]float64 // perLayer names (traced run)
	named             []named            // workload-specific names
	config            map[string]any     // resolved configuration
}

func newReport() *report {
	return &report{
		endToEnd: make(map[string]float64),
		layers:   make(map[string]float64),
		config:   make(map[string]any),
	}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// add appends a metric under its workload-specific name.
func (r *report) add(name string, value float64, unit string) {
	r.named = append(r.named, named{name, value, unit})
}

// solveMetrics fills the end-to-end metrics of a one-client solve loop
// whose solves took durs milliseconds in wall time, and returns its
// throughput. Every solve is a search, so the latency and search
// percentiles coincide.
func (r *report) solveMetrics(series string, setupS float64, durs []float64, wall time.Duration) (float64, error) {
	p50, p90, err := quantiles(series, durs)
	if err != nil {
		return 0, err
	}
	rss, err := rssPeakMB()
	if err != nil {
		return 0, err
	}
	perSec := float64(len(durs)) / wall.Seconds()
	r.endToEnd["setup_s"] = setupS
	r.endToEnd["throughput_per_s"] = perSec
	r.endToEnd["latency_ms_p50"] = p50
	r.endToEnd["search_ms_p50"] = p50
	r.endToEnd["search_ms_p90"] = p90
	r.endToEnd["rss_peak_mb"] = rss
	r.add("setup_s", setupS, "s")
	r.add("solves_per_s", perSec, "1/s")
	r.add("solve_ms_p50", p50, "ms")
	r.add("solve_ms_p90", p90, "ms")
	r.add("solves", float64(len(durs)), "count")
	r.add("rss_peak_mb", rss, "MB")
	return perSec, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*report, error){
	"othello": runOthello,
	"random":  runRandom,
	"serve":   runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("erbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: othello, random or serve")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time of one run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "erbench: need --workload othello|random|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// A CI matrix may force the search stack onto another backend, driver or
	// table through these variables; the benchmark measures the defaults.
	for _, v := range []string{engine.EnvBackend, engine.EnvDriver, tt.EnvTable} {
		os.Unsetenv(v)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := runner(p)
	if err != nil {
		fmt.Fprintf(stderr, "erbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.add("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "erbench: %s: failure: %s\n", *workload, f)
	}

	specs, values := endToEnd, rep.endToEnd
	if p.trace {
		specs, values = perLayer, rep.layers
	}
	metrics := make(map[string]any, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "erbench: %s: metric %s was not measured\n", *workload, m.Name)
			return 1
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", *workload, p.seed, p.seconds, *trace)
	for _, n := range rep.named {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n.Name, n.Value, n.Unit)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "  %-36s %14.6g\n", k, values[k])
	}
	rep.config["workload"] = *workload
	rep.config["seed"] = p.seed
	rep.config["seconds"] = p.seconds
	rep.config["trace"] = *trace
	rep.config["num_cpu"] = runtime.NumCPU()
	rep.config["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.config["go_version"] = runtime.Version()
	detail, err := json.Marshal(map[string]any{"detail": map[string]any{
		"config": rep.config,
		"named":  rep.named,
	}})
	if err != nil {
		fmt.Fprintf(stderr, "erbench: encode detail: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", detail)
	last, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "erbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}
