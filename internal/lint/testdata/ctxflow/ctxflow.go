// Package ctxflow is the golden fixture of the ctxflow analyzer: unbounded
// loops and rule-worklist loops must reach a cancellation check per
// iteration. The doubles mirror the engine's shapes: an interrupted()
// predicate over a context, an atomic abort flag, a worklist driver.
package ctxflow

import (
	"context"
	"sync/atomic"
)

type Rule struct{ Name string }

type Engine struct {
	rules []Rule
	ctx   context.Context
	fail  error
}

func (e *Engine) interrupted() bool {
	return e.fail != nil || e.ctx.Err() != nil
}

func applyTuples(ids []int, fn func(int)) {
	for _, i := range ids {
		fn(i)
	}
}

// The fixpoint shape: an unbounded loop with a check on a path passes.
func (e *Engine) goodFixpoint() {
	for {
		if e.interrupted() {
			return
		}
		break
	}
}

// An unbounded loop with no check on any path is a finding even when it
// terminates in practice: the analyzer cannot see the bound, and neither
// can a canceled caller.
func (e *Engine) badFixpoint() int {
	n := 0
	for n < 10 { // want "unbounded loop reaches no cancellation check"
		n++
	}
	return n
}

// ctx.Err on a context and Load on an atomic abort flag are checks.
func (e *Engine) goodClaim(aborted *atomic.Bool) {
	for {
		if aborted.Load() || e.ctx.Err() != nil {
			return
		}
	}
}

// A call to a same-package function that transitively checks counts: the
// check is reached through the callee each iteration.
func (e *Engine) goodViaCallee() {
	for {
		if e.step() {
			return
		}
	}
}

func (e *Engine) step() bool { return e.interrupted() }

// A rule worklist loop that drives worklist work must observe cancellation
// between rules.
func (e *Engine) goodRules() {
	for range e.rules {
		if e.interrupted() {
			return
		}
		applyTuples(nil, nil)
	}
}

func (e *Engine) badRules() {
	for _, r := range e.rules { // want "rule worklist loop drives worklist work"
		_ = r.Name
		applyTuples(nil, nil)
	}
}

// Work reached through a same-package helper still makes the loop a
// worklist loop.
func (e *Engine) badRulesIndirect() {
	for range e.rules { // want "rule worklist loop drives worklist work"
		e.applyOne()
	}
}

func (e *Engine) applyOne() { applyTuples(nil, nil) }

// Bounded setup over the rules — no worklist work — is out of scope.
func (e *Engine) setupRules() map[string]bool {
	seen := make(map[string]bool)
	for _, r := range e.rules {
		seen[r.Name] = true
	}
	return seen
}

// A true-but-intended unbounded loop is suppressible with a written reason.
func drain(queue []int) int {
	total := 0
	for len(queue) > 0 { //det:ok ctxflow bounded merge of precomputed lists, shrinks every pass
		total += queue[0]
		queue = queue[1:]
	}
	return total
}
