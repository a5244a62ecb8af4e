package main

import (
	"fmt"

	"ertree/internal/game"
	"ertree/internal/serial"
)

// oracleWorkers bounds the goroutines checking answers after a run.
const oracleWorkers = 2

// checkAnswer verifies an answer against serial fail-soft alpha-beta
// (internal/serial) at the same depth: value must be pos's depth-limited
// negamax value and, when move >= 0, the child it names, searched to
// depth-1, must give -value.
//
// Both checks search a window of width two around the claimed value. With
// integer values, fail-soft alpha-beta returns v from the window (v-1, v+1)
// exactly when the true value is v, and a bound outside it otherwise, so
// the narrow window is as strict as a full-window search and much cheaper.
func checkAnswer(pos game.Position, depth int, order game.Orderer, value game.Value, move int) error {
	s := serial.Searcher{Order: order}
	if got := s.AlphaBeta(pos, depth, game.Window{Alpha: value - 1, Beta: value + 1}); got != value {
		return fmt.Errorf("value %d at depth %d disagrees with alpha-beta (bound %d)", value, depth, got)
	}
	if move < 0 {
		return nil
	}
	kids := pos.Children()
	if move >= len(kids) {
		return fmt.Errorf("move %d out of range (%d children)", move, len(kids))
	}
	if got := s.AlphaBeta(kids[move], depth-1, game.Window{Alpha: -value - 1, Beta: -value + 1}); got != -value {
		return fmt.Errorf("move %d does not prove value %d at depth %d (child bound %d)", move, value, depth, got)
	}
	return nil
}

// answer is one result to check against the oracle.
type answer struct {
	label string // what produced it, for failure messages
	pos   game.Position
	value game.Value
	move  int // -1 when the entry point returns no move
}

// checkAnswers runs checkAnswer over every answer on oracleWorkers
// goroutines and records each disagreement in r as a failure.
func checkAnswers(r *report, depth int, order game.Orderer, answers []answer) {
	jobs := make([]func() error, len(answers))
	for i, a := range answers {
		jobs[i] = func() error { return checkAnswer(a.pos, depth, order, a.value, a.move) }
	}
	for i, err := range parallel(oracleWorkers, jobs) {
		if err != nil {
			r.fail("%s: %v", answers[i].label, err)
		}
	}
}
