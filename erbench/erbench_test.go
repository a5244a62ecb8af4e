package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/randtree"
	"ertree/internal/serial"
	"ertree/internal/tt"
)

func othelloHashes(ps []game.Position) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.(tt.Hashable).Hash()
	}
	return out
}

func requestKeys(qs []request) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.moves
		if q.repeat {
			out[i] += "+"
		}
	}
	return out
}

func TestInputsDependOnlyOnTheSeed(t *testing.T) {
	othelloA := othelloHashes(othelloPositions(7, streamTimed, 50, nil))
	othelloB := othelloHashes(othelloPositions(7, streamTimed, 50, nil))
	othelloC := othelloHashes(othelloPositions(8, streamTimed, 50, nil))
	if !reflect.DeepEqual(othelloA, othelloB) || reflect.DeepEqual(othelloA, othelloC) {
		t.Error("othello positions: want identical inputs for one seed and different inputs for another")
	}

	treesA := randomTrees(7, streamTimed, 50, nil)
	treesB := randomTrees(7, streamTimed, 50, nil)
	treesC := randomTrees(8, streamTimed, 50, nil)
	if !reflect.DeepEqual(treesA, treesB) || reflect.DeepEqual(treesA, treesC) {
		t.Error("random trees: want identical inputs for one seed and different inputs for another")
	}

	_, warm := serveWarmRequests(serveWarm)
	serveA := requestKeys(serveRequests(7, 500, warm))
	serveB := requestKeys(serveRequests(7, 500, warm))
	serveC := requestKeys(serveRequests(8, 500, warm))
	if !reflect.DeepEqual(serveA, serveB) || reflect.DeepEqual(serveA, serveC) {
		t.Error("serve requests: want identical inputs for one seed and different inputs for another")
	}
}

func TestWarmUpInputsAreDisjointFromTimedOnes(t *testing.T) {
	warm := othelloPositions(warmSeed, streamWarm, othelloWarm, nil)
	for _, h := range othelloHashes(othelloPositions(1, streamTimed, othelloPool, hashes(warm))) {
		if hashes(warm)[h] {
			t.Fatalf("othello: timed position %#x is also a warm-up position", h)
		}
	}
	trees := randomTrees(warmSeed, streamWarm, randomWarm, nil)
	for _, tr := range randomTrees(1, streamTimed, randomPool, treeSeeds(trees)) {
		if treeSeeds(trees)[tr.Seed] {
			t.Fatalf("random: timed tree %#x is also a warm-up tree", tr.Seed)
		}
	}
	_, keys := serveWarmRequests(serveWarm)
	for _, q := range serveRequests(1, 5000, keys) {
		if keys[q.moves] {
			t.Fatalf("serve: timed request %s is also a warm-up request", q.moves)
		}
	}
}

func TestStratifyInterleavesDifficulty(t *testing.T) {
	ps := othelloPositions(3, streamTimed, 1000, nil)
	out := stratify(ps, othelloStrata)
	if len(out) != 1000 || !reflect.DeepEqual(hashes(out), hashes(ps)) {
		t.Fatalf("stratify returned %d positions, want a reordering of all 1000", len(out))
	}
	// Block j holds the j-th position of every stratum, easiest first.
	for b := 0; b+othelloStrata <= len(out); b += othelloStrata {
		for s := 1; s < othelloStrata; s++ {
			if grandchildren(out[b+s-1]) > grandchildren(out[b+s]) {
				t.Fatalf("block %d: stratum %d is harder than stratum %d", b/othelloStrata, s-1, s)
			}
		}
	}
}

func TestServeRequestMix(t *testing.T) {
	_, keys := serveWarmRequests(serveWarm)
	qs := serveRequests(3, 20000, keys)
	distinct := make(map[string]int)
	repeats := 0
	for _, q := range qs {
		if q.repeat != (distinct[q.moves] > 0) {
			t.Fatalf("request %s: repeat=%v after %d earlier asks", q.moves, q.repeat, distinct[q.moves])
		}
		distinct[q.moves]++
		if q.repeat {
			repeats++
		}
	}
	share := float64(repeats) / float64(len(qs))
	if share < 0.73 || share > 0.77 {
		t.Errorf("repeat share %.3f, want about 0.75", share)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	for _, c := range []struct {
		q    float64
		n    int
		ok   bool
		want float64
	}{
		{0.9, 99, false, 0},
		{0.9, 100, true, 90},
		{0.9, 250, true, 225},
		{0.5, 19, false, 0},
		{0.5, 20, true, 10},
		{0.5, 0, false, 0},
	} {
		got, ok := percentile(xs(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range xs(c.n) {
				if x > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("percentile(%d samples, %v) has %d samples beyond it", c.n, c.q, beyond)
			}
		}
	}
	if minSamples(0.9) != 100 || minSamples(0.5) != 20 {
		t.Errorf("minSamples: p90 %d, p50 %d; want 100, 20", minSamples(0.9), minSamples(0.5))
	}
}

func TestOracleAcceptsOnlyTheTrueAnswer(t *testing.T) {
	positions := []game.Position{
		connect4.New().MustDrop(3, 3, 2),
		(&randtree.Tree{Seed: 42, Degree: 3, Depth: 6, ValueRange: 100}).Root(),
	}
	for _, pos := range positions {
		const depth = 5
		var s serial.Searcher
		v := s.Negmax(pos, depth)
		move := -1
		for i, k := range pos.Children() {
			if -s.Negmax(k, depth-1) == v {
				move = i
				break
			}
		}
		if err := checkAnswer(pos, depth, nil, v, move); err != nil {
			t.Errorf("true answer rejected: %v", err)
		}
		for _, wrong := range []game.Value{v - 1, v + 1} {
			if checkAnswer(pos, depth, nil, wrong, -1) == nil {
				t.Errorf("value %d accepted, true value %d", wrong, v)
			}
		}
		for i, k := range pos.Children() {
			if -s.Negmax(k, depth-1) != v && checkAnswer(pos, depth, nil, v, i) == nil {
				t.Errorf("move %d accepted though it does not prove %d", i, v)
			}
		}
	}
}

func TestServeClassesMatchAnswerCache(t *testing.T) {
	srv, err := startServer(serveConfig(""), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	_, keys := serveWarmRequests(serveWarm)
	inputs := serveRequests(5, 120, keys)
	before, err := srv.stats()
	if err != nil {
		t.Fatal(err)
	}
	replies, _, err := runRequests(srv, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := srv.stats()
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	checkReplies(r, "test", inputs, replies, make(map[string]answer))
	checkClasses(r, "test", inputs, len(replies), before, after)
	if r.failed != 0 {
		t.Fatalf("failures: %v", r.failures)
	}
	if after.AnswerCache.Hits == before.AnswerCache.Hits || after.AnswerCache.Misses == before.AnswerCache.Misses {
		t.Fatalf("want both hits and misses, got %+v then %+v", before.AnswerCache, after.AnswerCache)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	const exposition = `# HELP engine_admission_wait_seconds x
engine_admission_wait_seconds_bucket{game="connect4",le="0.001"} 10
engine_admission_wait_seconds_bucket{game="connect4",le="0.002"} 30
engine_admission_wait_seconds_bucket{game="connect4",le="+Inf"} 40
engine_admission_wait_seconds_bucket{game="othello",le="0.001"} 99
`
	after, err := parseBuckets(exposition, "engine_admission_wait_seconds_bucket", `game="connect4"`)
	if err != nil || len(after) != 3 {
		t.Fatalf("parseBuckets: %v, %v", after, err)
	}
	// 40 observations: the 20th lies halfway through the (0.001, 0.002] bucket.
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := histQuantile(nil, after, 0.5); !near(got, 0.0015) {
		t.Errorf("p50 = %v, want 0.0015", got)
	}
	before := []bucket{{0.001, 10}, {0.002, 10}, {math.Inf(1), 10}}
	// The 30 new observations: 20 in (0.001, 0.002], 10 above.
	if got := histQuantile(before, after, 0.5); !near(got, 0.00175) {
		t.Errorf("delta p50 = %v, want 0.00175", got)
	}
}

func TestCoreMutexDelayAttributesByInnermostFrame(t *testing.T) {
	const profile = `--- mutex:
cycles/second=1000000000
sampling period=1
2000 3 @ 0x1 0x2 0x3
#	0x1	sync.(*Mutex).Unlock+0x1	/src/sync/mutex.go:1
#	0x2	ertree/internal/core.(*state).worker+0x2	/src/core/worker.go:2
#	0x3	main.main+0x3	/src/main.go:3

5000 1 @ 0x4 0x5
#	0x4	sync.(*Mutex).Unlock+0x1	/src/sync/mutex.go:1
#	0x5	ertree/erbench.(*tap).reset+0x2	/src/erbench/trace.go:2
`
	got, err := coreMutexDelay(profile)
	if err != nil || got != 2000 {
		t.Fatalf("coreMutexDelay = %v, %v; want 2µs", got, err)
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the program's
// metric sets in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}
