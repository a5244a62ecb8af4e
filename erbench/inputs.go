package main

import (
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"ertree/internal/connect4"
	"ertree/internal/game"
	"ertree/internal/othello"
	"ertree/internal/randtree"
	"ertree/internal/tt"
)

// Every timed input comes from the workload seed, each purpose drawing from
// its own stream. The warm-up inputs come from a fixed seed instead, so
// set-up does the same work on every run, and the timed inputs avoid them,
// so set-up never pre-solves a measured input.
const (
	streamTimed = 1
	streamWarm  = 2
	streamHot   = 3
	warmSeed    = 0x5EED
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// othelloPositions returns n distinct Othello midgame positions, each the
// end of a random legal walk of 14 to 20 plies from the initial position.
// Finished games and positions whose hash is in exclude are skipped.
func othelloPositions(seed, stream uint64, n int, exclude map[uint64]bool) []game.Position {
	r := newRNG(seed, stream)
	seen := make(map[uint64]bool, n)
	out := make([]game.Position, 0, n)
	for len(out) < n {
		var p game.Position = othello.Start()
		for ply, plies := 0, 14+r.IntN(7); ply < plies; ply++ {
			kids := p.Children()
			if len(kids) == 0 {
				break
			}
			p = kids[r.IntN(len(kids))]
		}
		h := p.(tt.Hashable).Hash()
		if len(p.Children()) == 0 || seen[h] || exclude[h] {
			continue
		}
		seen[h] = true
		out = append(out, p)
	}
	return out
}

// othelloStrata is the number of difficulty strata the timed Othello
// positions are interleaved from.
const othelloStrata = 10

// grandchildren counts the positions two plies below p: a cheap measure of
// mobility that predicts how long a deep search of p takes (over sixty
// random midgame positions its logarithm correlates 0.9 with the logarithm
// of the depth-7 solve time).
func grandchildren(p game.Position) int {
	n := 0
	for _, k := range p.Children() {
		n += len(k.Children())
	}
	return n
}

// stratify reorders ps so that every strata consecutive positions hold one
// position from each of strata equal-sized difficulty strata, ranked by
// grandchildren; inside a stratum the generated order is kept. Solve times
// of Othello positions vary several-fold, so without this a run's mix of
// easy and hard positions, and with it every figure of the run, would
// depend on the seed. Positions beyond a whole number of strata are
// dropped.
func stratify(ps []game.Position, strata int) []game.Position {
	cost := make([]int, len(ps))
	rank := make([]int, len(ps))
	for i, p := range ps {
		cost[i] = grandchildren(p)
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return cost[rank[a]] < cost[rank[b]] })
	per := len(ps) / strata
	groups := make([][]int, strata)
	for s := range groups {
		groups[s] = append([]int(nil), rank[s*per:(s+1)*per]...)
		sort.Ints(groups[s])
	}
	out := make([]game.Position, 0, per*strata)
	for j := 0; j < per; j++ {
		for _, g := range groups {
			out = append(out, ps[g[j]])
		}
	}
	return out
}

// hashes returns the set of position hashes of ps.
func hashes(ps []game.Position) map[uint64]bool {
	m := make(map[uint64]bool, len(ps))
	for _, p := range ps {
		m[p.(tt.Hashable).Hash()] = true
	}
	return m
}

// randomTrees returns n uniform random trees of the paper's R2 shape
// (degree 4, depth 11), each with its own tree seed drawn from the stream.
func randomTrees(seed, stream uint64, n int, exclude map[uint64]bool) []*randtree.Tree {
	r := newRNG(seed, stream)
	out := make([]*randtree.Tree, 0, n)
	seen := make(map[uint64]bool, n)
	for len(out) < n {
		s := r.Uint64()
		if seen[s] || exclude[s] {
			continue
		}
		seen[s] = true
		out = append(out, &randtree.Tree{Seed: s, Degree: 4, Depth: 11, ValueRange: 10000})
	}
	return out
}

// treeSeeds returns the set of tree seeds of ts.
func treeSeeds(ts []*randtree.Tree) map[uint64]bool {
	m := make(map[uint64]bool, len(ts))
	for _, t := range ts {
		m[t.Seed] = true
	}
	return m
}

// request is one /bestmove query of the serve workload.
type request struct {
	moves  string        // child indices from the initial position, comma-separated
	pos    game.Position // the position they reach
	repeat bool          // an earlier request in the sequence asked the same
}

// The serve request mix.
const (
	serveHotSet    = 8     // positions in the hot set
	serveRepeatPct = 75    // share of requests drawn from the hot set, in percent
	serveWalkPlies = 6     // plies of every random walk
	serveDepth     = 7     // search depth of every request
	servePool      = 60000 // requests generated per run
	serveWarm      = 16    // warm-up requests per set-up
)

// connect4Walk plays plies random moves from the empty board and returns
// the child indices taken and the position reached.
func connect4Walk(r *rand.Rand, plies int) (string, game.Position) {
	var p game.Position = connect4.New()
	idx := make([]string, 0, plies)
	for i := 0; i < plies; i++ {
		kids := p.Children()
		k := r.IntN(len(kids))
		idx = append(idx, strconv.Itoa(k))
		p = kids[k]
	}
	return strings.Join(idx, ","), p
}

// serveRequests returns the timed request sequence: serveRepeatPct percent
// of the requests ask for one of serveHotSet hot positions, the rest for a
// fresh position no earlier request asked for. No request asks for moves in
// avoid. A request is a repeat when an earlier request in the sequence asked
// for the same moves.
func serveRequests(seed uint64, n int, avoid map[string]bool) []request {
	hr := newRNG(seed, streamHot)
	seen := make(map[string]bool, len(avoid))
	for m := range avoid {
		seen[m] = true
	}
	var hot []request
	for len(hot) < serveHotSet {
		m, p := connect4Walk(hr, serveWalkPlies)
		if !seen[m] {
			seen[m] = true
			hot = append(hot, request{moves: m, pos: p})
		}
	}
	r := newRNG(seed, streamTimed)
	asked := make(map[string]bool)
	out := make([]request, 0, n)
	for len(out) < n {
		var q request
		if r.IntN(100) < serveRepeatPct {
			q = hot[r.IntN(len(hot))]
		} else {
			m, p := connect4Walk(r, serveWalkPlies)
			if seen[m] {
				continue
			}
			seen[m] = true
			q = request{moves: m, pos: p}
		}
		q.repeat = asked[q.moves]
		asked[q.moves] = true
		out = append(out, q)
	}
	return out
}

// serveWarmRequests returns the n distinct warm-up requests and the set of
// their moves.
func serveWarmRequests(n int) ([]request, map[string]bool) {
	r := newRNG(warmSeed, streamWarm)
	keys := make(map[string]bool, n)
	var out []request
	for len(out) < n {
		m, p := connect4Walk(r, serveWalkPlies)
		if !keys[m] {
			keys[m] = true
			out = append(out, request{moves: m, pos: p})
		}
	}
	return out, keys
}
