package main

import (
	"context"
	"fmt"
	"time"

	"ertree/internal/engine"
	"ertree/internal/game"
)

// The othello workload: one closed-loop client analyzes distinct Othello
// midgame positions to a fixed depth with engine.(*Engine).Analyze.
const (
	othelloDepth   = 7
	othelloWorkers = 2
	othelloPool    = 1500 // timed positions generated per run
	othelloWarm    = 2    // warm-up positions per set-up
	minSolves      = 100  // enough solves for a p90 with ten beyond it
	tableBits      = 20   // transposition-table size of every engine, as erserve's default
)

var othelloOrder = game.StaticOrder{MaxPly: 5}

// othelloEngine builds an engine configured like the one erserve builds for
// Othello. Backend "" keeps the engine's default backend, driver and table.
func othelloEngine(backendName string, workers int) *engine.Engine {
	return engine.New(engine.Config{
		Backend:     backendName,
		Workers:     workers,
		SerialDepth: 3,
		Order:       othelloOrder,
		TableBits:   tableBits,
		Delta:       32,
	})
}

// solve is one analyzed input.
type solve struct {
	dur        time.Duration
	value      game.Value
	move       int
	nodes      int64
	iterations int
	researches int
	err        error
}

// analyze runs one full-depth analysis without a deadline.
func analyze(e *engine.Engine, pos game.Position) solve {
	start := time.Now()
	an, err := e.Analyze(context.Background(), pos, othelloDepth)
	s := solve{dur: time.Since(start), err: err}
	if err != nil {
		return s
	}
	s.value, s.move, s.nodes, s.iterations = an.Value, an.Move, an.Nodes, len(an.Iterations)
	for _, it := range an.Iterations {
		s.researches += it.Researches
	}
	if !an.Completed {
		s.err = fmt.Errorf("analysis stopped at depth %d of %d", an.Depth, othelloDepth)
	}
	return s
}

// othelloSetup is one set-up: the inputs, a fresh engine and its warm-up.
type othelloSetup struct {
	inputs []game.Position
	warm   []game.Position
	eng    *engine.Engine
}

func buildOthello(seed uint64) (othelloSetup, error) {
	warm := othelloPositions(warmSeed, streamWarm, othelloWarm, nil)
	inputs := stratify(othelloPositions(seed, streamTimed, othelloPool, hashes(warm)), othelloStrata)
	eng, err := warmEngine("", othelloWorkers, warm)
	return othelloSetup{inputs: inputs, warm: warm, eng: eng}, err
}

// warmEngine builds an engine and analyzes the warm-up positions on it.
func warmEngine(backendName string, workers int, warm []game.Position) (*engine.Engine, error) {
	eng := othelloEngine(backendName, workers)
	for _, p := range warm {
		if s := analyze(eng, p); s.err != nil {
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return eng, nil
}

// runSolves analyzes inputs closed-loop (see closedLoop) and returns the
// solves made, in input order, and the loop's wall time.
func runSolves(e *engine.Engine, inputs []game.Position, seconds float64) ([]solve, time.Duration, error) {
	res := make([]solve, len(inputs))
	n, wall, err := closedLoop(1, seconds, minSolves, len(inputs), func(i int) {
		res[i] = analyze(e, inputs[i])
	})
	return res[:n], wall, err
}

// recordSolves counts the solves as attempted, their errors as failures,
// and queues the answers for the oracle.
func recordSolves(r *report, label string, inputs []game.Position, solves []solve, answers *[]answer) {
	for i, s := range solves {
		r.attempted++
		if s.err != nil {
			r.fail("%s input %d: %v", label, i, s.err)
			continue
		}
		*answers = append(*answers, answer{
			label: fmt.Sprintf("%s input %d", label, i),
			pos:   inputs[i], value: s.value, move: s.move,
		})
	}
}

func runOthello(p params) (*report, error) {
	r := newReport()
	set, setupS, err := repeatSetup(func() (othelloSetup, error) {
		return buildOthello(p.seed)
	}, func(othelloSetup) {})
	if err != nil {
		return nil, err
	}
	r.config["backend"] = set.eng.Backend()
	r.config["driver"] = set.eng.Driver()
	r.config["table_impl"] = set.eng.Table().Impl()
	r.config["workers"] = othelloWorkers
	r.config["depth"] = othelloDepth

	seconds := p.seconds
	if p.trace {
		seconds /= 2 // the other half is the traced phase
	}
	solves, wall, err := runSolves(set.eng, set.inputs, seconds)
	if err != nil {
		return nil, err
	}
	var answers []answer
	recordSolves(r, "othello", set.inputs, solves, &answers)
	durs := make([]float64, len(solves))
	for i, s := range solves {
		durs[i] = ms(s.dur)
	}
	perSec, err := r.solveMetrics("othello solves", setupS, durs, wall)
	if err != nil {
		return nil, err
	}
	if p.trace {
		if err := traceOthello(r, set, solves, perSec, &answers); err != nil {
			return nil, err
		}
	}
	checkAnswers(r, othelloDepth, othelloOrder, answers)
	return r, nil
}

// traceOthello is the traced run: the untraced solves are repeated on a
// fresh engine whose backend is wrapped by the tap, then once more on the
// best serial searcher (the serial backend on one worker) for Fishburn's
// speedup and the search overhead.
func traceOthello(r *report, set othelloSetup, untraced []solve, untracedPerSec float64, answers *[]answer) error {
	m := r.layers
	zeroLayers(m)
	inputs := set.inputs[:len(untraced)]

	t, err := installTap(set.eng.Backend())
	if err != nil {
		return err
	}
	eng, err := warmEngine(tapName, othelloWorkers, set.warm)
	if err != nil {
		return err
	}
	t.reset()
	before := eng.Stats()
	stop := startMutexProfile()
	solves, wall, err := runSolves(eng, inputs, 0)
	if err != nil {
		return err
	}
	lockWait, err := stop()
	if err != nil {
		return err
	}
	after := eng.Stats()
	recordSolves(r, "othello traced", inputs, solves, answers)
	calls, searchMS, total, tally := t.snapshot()

	n := float64(len(solves))
	var analyzeWall time.Duration
	var iterations, researches float64
	for _, s := range solves {
		analyzeWall += s.dur
		iterations += float64(s.iterations)
		researches += float64(s.researches)
	}
	nodes := float64(after.Nodes - before.Nodes)
	m["core.nodes_per_solve"] = nodes / n
	m["core.heap_ops_per_node"] = ratio(float64(after.HeapOps-before.HeapOps), nodes)
	m["core.lock_wait_share"] = ratio(float64(lockWait), float64(othelloWorkers)*float64(wall))
	tally.layers(m, nodes, analyzeWall, othelloWorkers)

	probes := float64(after.TTProbes - before.TTProbes)
	m["tt.probes_per_node"] = ratio(probes, nodes)
	m["tt.hit_ratio"] = ratio(float64(after.TTHits-before.TTHits), probes)
	m["tt.cutoff_ratio"] = ratio(float64(after.TTCutoffs-before.TTCutoffs), probes)
	m["tt.stores_per_solve"] = float64(after.TTStores-before.TTStores) / n
	m["tt.fill_ratio"] = ratio(float64(after.TableFill), float64(after.TableLen))
	if err := replayTable(m, t.keys.recorded(), after.TableImpl, tableBits); err != nil {
		return err
	}

	m["engine.iterations_per_solve"] = iterations / n
	m["engine.self_ms_per_solve"] = ms(analyzeWall-total) / n
	m["driver.calls_per_iteration"] = ratio(float64(calls), iterations)
	m["driver.researches_per_solve"] = researches / n
	m["backend.search_ms_p50"] = p50Or0(searchMS)
	gameCost(m, inputs)
	m["trace.overhead_ratio"] = ratio(untracedPerSec, n/wall.Seconds())

	// The best serial searcher on the same inputs, warmed alike.
	serialEng, err := warmEngine("serial", 1, set.warm)
	if err != nil {
		return err
	}
	serialSolves, _, err := runSolves(serialEng, inputs, 0)
	if err != nil {
		return err
	}
	recordSolves(r, "othello serial", inputs, serialSolves, answers)
	var erWall, serialWall time.Duration
	var erNodes, serialNodes float64
	for i := range untraced {
		erWall += untraced[i].dur
		erNodes += float64(untraced[i].nodes)
		serialWall += serialSolves[i].dur
		serialNodes += float64(serialSolves[i].nodes)
	}
	m["core.fishburn_speedup"] = ratio(float64(serialWall), float64(erWall))
	m["core.node_overhead"] = ratio(erNodes, serialNodes)
	r.add("traced_solves_per_s", n/wall.Seconds(), "1/s")
	r.add("untraced_solves_per_s", untracedPerSec, "1/s")
	return nil
}
