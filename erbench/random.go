package main

import (
	"errors"
	"fmt"
	"time"

	"ertree"
	"ertree/internal/backend"
	"ertree/internal/game"
	"ertree/internal/randtree"
)

// The random workload: one closed-loop client searches distinct uniform
// random trees of the paper's R2 shape with ertree.Search.
const (
	randomWorkers     = 2
	randomSerialDepth = 3
	randomPool        = 3000 // timed trees generated per run
	randomWarm        = 3    // warm-up trees per set-up
	// randomEventRing is the per-worker flight-recorder capacity of the
	// traced searches: one search of an R2 tree runs tens of thousands of
	// tasks per worker.
	randomEventRing = 1 << 16
)

// treeSolve is one searched tree.
type treeSolve struct {
	dur     time.Duration
	value   game.Value
	nodes   int64
	heapOps int64
	err     error
}

// searchTree runs parallel ER on one tree with no table; hooks may be nil.
func searchTree(t *randtree.Tree, hooks *ertree.SearchHooks) treeSolve {
	start := time.Now()
	res, err := ertree.Search(t.Root(), t.Depth, ertree.Config{
		Workers:     randomWorkers,
		SerialDepth: randomSerialDepth,
		Hooks:       hooks,
	})
	s := treeSolve{dur: time.Since(start), value: res.Value, nodes: res.Stats.Generated, heapOps: res.HeapOps, err: err}
	if err == nil && !res.Exact {
		s.err = errors.New("search returned a bound, not the exact value")
	}
	return s
}

// serialTree searches one tree with the serial backend on one worker, the
// best serial searcher the repository has for a tree without a table.
func serialTree(be backend.Backend, t *randtree.Tree) (treeSolve, error) {
	start := time.Now()
	resp, err := be.Search(backend.Request{Pos: t.Root(), Depth: t.Depth, Window: game.FullWindow()})
	return treeSolve{dur: time.Since(start), value: resp.Value, nodes: resp.Totals.Nodes}, err
}

type randomSetup struct {
	inputs []*randtree.Tree
}

func buildRandom(seed uint64) (randomSetup, error) {
	warm := randomTrees(warmSeed, streamWarm, randomWarm, nil)
	inputs := randomTrees(seed, streamTimed, randomPool, treeSeeds(warm))
	for _, t := range warm {
		if s := searchTree(t, nil); s.err != nil {
			return randomSetup{}, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return randomSetup{inputs: inputs}, nil
}

// runTrees searches trees closed-loop (see closedLoop).
func runTrees(inputs []*randtree.Tree, seconds float64) ([]treeSolve, time.Duration, error) {
	res := make([]treeSolve, len(inputs))
	n, wall, err := closedLoop(1, seconds, minSolves, len(inputs), func(i int) {
		res[i] = searchTree(inputs[i], nil)
	})
	return res[:n], wall, err
}

func recordTrees(r *report, label string, inputs []*randtree.Tree, solves []treeSolve, answers *[]answer) {
	for i, s := range solves {
		r.attempted++
		if s.err != nil {
			r.fail("%s tree %d: %v", label, i, s.err)
			continue
		}
		*answers = append(*answers, answer{
			label: fmt.Sprintf("%s tree %d", label, i),
			pos:   inputs[i].Root(), value: s.value, move: -1,
		})
	}
}

func runRandom(p params) (*report, error) {
	r := newReport()
	set, setupS, err := repeatSetup(func() (randomSetup, error) {
		return buildRandom(p.seed)
	}, func(randomSetup) {})
	if err != nil {
		return nil, err
	}
	r.config["entry_point"] = "ertree.Search"
	r.config["workers"] = randomWorkers
	r.config["serial_depth"] = randomSerialDepth
	r.config["table_impl"] = "none"

	seconds := p.seconds
	if p.trace {
		seconds /= 2 // the other half is the traced phase
	}
	solves, wall, err := runTrees(set.inputs, seconds)
	if err != nil {
		return nil, err
	}
	var answers []answer
	recordTrees(r, "random", set.inputs, solves, &answers)
	durs := make([]float64, len(solves))
	for i, s := range solves {
		durs[i] = ms(s.dur)
	}
	perSec, err := r.solveMetrics("random solves", setupS, durs, wall)
	if err != nil {
		return nil, err
	}
	if p.trace {
		if err := traceRandom(r, set.inputs[:len(solves)], solves, perSec, &answers); err != nil {
			return nil, err
		}
	}
	checkAnswers(r, randtree.R2().Depth, nil, answers)
	return r, nil
}

// traceRandom is the traced run: the untraced trees are searched again with
// ertree.Config.Hooks recording each search, then once more by the serial
// backend on one worker.
func traceRandom(r *report, inputs []*randtree.Tree, untraced []treeSolve, untracedPerSec float64, answers *[]answer) error {
	m := r.layers
	zeroLayers(m)
	var tally coreTally
	solves := make([]treeSolve, len(inputs))
	stop := startMutexProfile()
	_, wall, err := closedLoop(1, 0, 0, len(inputs), func(i int) {
		var col shardCollector
		solves[i] = searchTree(inputs[i], &ertree.SearchHooks{Events: randomEventRing, OnWorkerDone: col.add})
		tally.addSearch(col.take())
	})
	if err != nil {
		return err
	}
	lockWait, err := stop()
	if err != nil {
		return err
	}
	recordTrees(r, "random traced", inputs, solves, answers)

	var nodes, heapOps float64
	var solveWall time.Duration
	for _, s := range solves {
		nodes += float64(s.nodes)
		heapOps += float64(s.heapOps)
		solveWall += s.dur
	}
	n := float64(len(solves))
	m["core.nodes_per_solve"] = nodes / n
	m["core.heap_ops_per_node"] = ratio(heapOps, nodes)
	m["core.lock_wait_share"] = ratio(float64(lockWait), float64(randomWorkers)*float64(wall))
	tally.layers(m, nodes, solveWall, randomWorkers)
	roots := make([]game.Position, len(inputs))
	for i, t := range inputs {
		roots[i] = t.Root()
	}
	gameCost(m, roots)
	m["trace.overhead_ratio"] = ratio(untracedPerSec, n/wall.Seconds())

	be, err := backend.New("serial", backend.Config{Workers: 1})
	if err != nil {
		return err
	}
	var erWall, serialWall time.Duration
	var erNodes, serialNodes float64
	for i, t := range inputs {
		s, err := serialTree(be, t)
		r.attempted++
		if err != nil {
			r.fail("random serial tree %d: %v", i, err)
			continue
		}
		*answers = append(*answers, answer{label: fmt.Sprintf("random serial tree %d", i), pos: t.Root(), value: s.value, move: -1})
		erWall += untraced[i].dur
		erNodes += float64(untraced[i].nodes)
		serialWall += s.dur
		serialNodes += float64(s.nodes)
	}
	m["core.fishburn_speedup"] = ratio(float64(serialWall), float64(erWall))
	m["core.node_overhead"] = ratio(erNodes, serialNodes)
	r.add("traced_solves_per_s", n/wall.Seconds(), "1/s")
	r.add("untraced_solves_per_s", untracedPerSec, "1/s")
	return nil
}
