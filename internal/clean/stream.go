package clean

import (
	"context"
	"fmt"

	"repro/internal/relation"
	"repro/internal/rule"
)

// This file implements the streaming update layer: a certified-clean
// instance kept live under external single-tuple writes (ROADMAP (B),
// "Answering FO+MOD queries under updates" in PAPERS.md frames the goal).
//
// The semantics are rebase-and-rerun, not patch-the-cleaned-state. A
// streaming engine keeps the raw base instance — its original input plus
// every accepted update — and each Upsert/Delete stages the raw write into
// that base, runs a fresh sub-engine over a clone of it, and atomically
// adopts the sub-engine's entire state on success. The acceptance bar
// forces this: the repo's contract is that after any update sequence the
// engine's cell state, Fixes, counters and Report are byte-identical to a
// from-scratch Run on the final base, and a delta repair of the *cleaned*
// state cannot meet it. Counterexample: a group {t1, t2} where cRepair
// froze t2[A] as derived from t1[A]; an upsert overwriting t1[A] leaves
// the live state with a frozen t2[A] justified by evidence that no longer
// exists, while the from-scratch run re-derives t2[A] from the new value —
// same fixpoint algorithm, different result. Re-running from base makes
// divergence structurally impossible (every adopted state IS a from-scratch
// run's output), including for degraded runs: a MaxFixes-degraded update
// matches the from-scratch oracle because the oracle degrades identically.
//
// Every update therefore re-cleans and re-certifies in full: the sub-run's
// finish makes the same Checker pass a batch run makes. The one piece of
// work an update does not repeat is index construction: the MD blocking
// indexes (equality buckets, suffix tree) are built once over master at
// NewStream and forked per sub-run instead of rebuilt. Forks share the
// immutable index structures and the similarity memo and carry fresh
// statistics, so counters still come out identical to a cold build.
//
// Deletes are tombstones: every cell of the tuple becomes Null with zero
// confidence and no fix mark, and the id is recorded in deleted. A null
// value matches no CFD pattern and satisfies no MD premise clause, so a
// tombstone is inert for repair and certification alike — and since the
// oracle Run sees the same tombstoned base, the equivalence is symmetric.
// Tombstoning (rather than splicing the tuple out) keeps every positional
// id stable, which the scheduler's stamp arrays and group indexes assume.
//
// Failure contract (docs/robustness.md extended to updates): a failed
// update — invalid input, cancellation, injected fault, worker panic —
// returns a typed error with the engine bit-unchanged: base, tombstones,
// cleaned data, Result and Report all stay exactly as the last accepted
// update left them. Staging into base is undone before returning, and
// sub-engine state is adopted only after a fully successful run.

// stream is the shell state of a streaming engine, held in Engine.stream
// (nil on batch engines). base is the raw input plus every accepted update
// — the instance a from-scratch run would be handed; deleted tracks
// tombstoned tuple ids; protos holds the master blocking indexes built once
// at construction, which every update's sub-run forks instead of
// rebuilding. The field names base and deleted are what the errcontract
// analyzer keys its stage/undo pairing on.
type stream struct {
	base    *relation.Relation
	deleted map[int]bool
	protos  []*matcher
}

// NewStream builds a streaming engine: it runs the full pipeline over data
// once (exactly as Run would) and returns an engine whose Upsert and
// Delete keep the cleaned, certified state live under external writes.
// Result returns the latest certified state. The initial run's failure
// modes are RunContext's.
func NewStream(data, master *relation.Relation, rules []rule.Rule, opts Options) (*Engine, error) {
	return NewStreamContext(context.Background(), data, master, rules, opts)
}

// NewStreamContext is NewStream with a context attached to the initial
// run. Later updates do not reuse ctx; each UpsertContext/DeleteContext
// call carries its own.
func NewStreamContext(ctx context.Context, data, master *relation.Relation, rules []rule.Rule, opts Options) (*Engine, error) {
	e := NewContext(ctx, data, master, rules, opts)
	st := &stream{
		base:    data.Clone(),
		deleted: make(map[int]bool),
		// The matchers built by NewContext have done no work yet: they are
		// the prototype indexes every update's sub-run forks.
		protos: append([]*matcher(nil), e.matchers...),
	}
	if _, err := e.runAll(); err != nil {
		return nil, err
	}
	e.stream = st
	return e, nil
}

// Result returns the engine's current certified state: the result of the
// initial run or of the last accepted update — by construction identical
// to what RunContext would return for the current base instance.
func (e *Engine) Result() *Result { return e.res }

// Upsert applies one external write to the streaming engine: it overwrites
// tuple id (0 <= id < Len) or appends a new tuple (id == Len) with the
// given values and per-cell confidences (nil conf means zero confidence
// everywhere), re-cleans, re-certifies, and returns the new Result. An
// upsert to a tombstoned id resurrects it. On error — ErrNotStreaming,
// ErrBadUpdate, or any run failure — the engine is left bit-unchanged.
func (e *Engine) Upsert(id int, values []string, conf []float64) (*Result, error) {
	return e.UpsertContext(context.Background(), id, values, conf)
}

// UpsertContext is Upsert under a context governing this update's re-run.
func (e *Engine) UpsertContext(ctx context.Context, id int, values []string, conf []float64) (*Result, error) {
	undo, err := e.stageUpsert(id, values, conf)
	if err != nil {
		return nil, err
	}
	res, err := e.rebase(ctx)
	if err != nil {
		undo()
		return nil, err
	}
	return res, nil
}

// Delete tombstones tuple id: every cell becomes Null with zero confidence,
// making the tuple invisible to every rule, and the id is remembered so a
// second delete fails. Positional ids of other tuples are unaffected. The
// failure contract is Upsert's.
func (e *Engine) Delete(id int) (*Result, error) {
	return e.DeleteContext(context.Background(), id)
}

// DeleteContext is Delete under a context governing this update's re-run.
func (e *Engine) DeleteContext(ctx context.Context, id int) (*Result, error) {
	undo, err := e.stageDelete(id)
	if err != nil {
		return nil, err
	}
	res, err := e.rebase(ctx)
	if err != nil {
		undo()
		return nil, err
	}
	return res, nil
}

// stageUpsert validates the write and applies it to base, returning the
// closure that reverts it. Validation happens before any mutation, so a
// rejected update touches nothing.
func (e *Engine) stageUpsert(id int, values []string, conf []float64) (func(), error) {
	st := e.stream
	if st == nil {
		return nil, ErrNotStreaming
	}
	arity := st.base.Schema.Arity()
	if len(values) != arity {
		return nil, fmt.Errorf("upsert t%d: %d values for arity %d: %w", id, len(values), arity, ErrBadUpdate)
	}
	if conf != nil && len(conf) != arity {
		return nil, fmt.Errorf("upsert t%d: %d confidences for arity %d: %w", id, len(conf), arity, ErrBadUpdate)
	}
	for a, c := range conf {
		if !(c >= 0 && c <= 1) { // also rejects NaN
			return nil, fmt.Errorf("upsert t%d: confidence %v for %s outside [0,1]: %w",
				id, c, st.base.Schema.Attrs[a], ErrBadUpdate)
		}
	}
	if id < 0 || id > st.base.Len() {
		return nil, fmt.Errorf("upsert t%d: id outside [0, %d]: %w", id, st.base.Len(), ErrBadUpdate)
	}

	if id == st.base.Len() {
		t := st.base.Append(values...)
		for a := range conf {
			t.Conf[a] = conf[a]
		}
		return func() {
			st.base.Tuples = st.base.Tuples[:len(st.base.Tuples)-1]
		}, nil
	}

	t := st.base.Tuples[id]
	saved := t.Clone()
	wasDeleted := st.deleted[id]
	for a := 0; a < arity; a++ {
		c := 0.0
		if conf != nil {
			c = conf[a]
		}
		t.Set(a, values[a], c, relation.FixNone)
	}
	delete(st.deleted, id)
	return func() {
		st.base.Tuples[id] = saved
		if wasDeleted {
			st.deleted[id] = true
		}
	}, nil
}

// stageDelete validates the delete and tombstones tuple id in base,
// returning the closure that reverts it.
func (e *Engine) stageDelete(id int) (func(), error) {
	st := e.stream
	if st == nil {
		return nil, ErrNotStreaming
	}
	if id < 0 || id >= st.base.Len() {
		return nil, fmt.Errorf("delete t%d: id outside [0, %d): %w", id, st.base.Len(), ErrBadUpdate)
	}
	if st.deleted[id] {
		return nil, fmt.Errorf("delete t%d: already deleted: %w", id, ErrBadUpdate)
	}
	t := st.base.Tuples[id]
	saved := t.Clone()
	for a := 0; a < st.base.Schema.Arity(); a++ {
		t.Set(a, relation.Null, 0, relation.FixNone)
	}
	st.deleted[id] = true
	return func() {
		st.base.Tuples[id] = saved
		delete(st.deleted, id)
	}, nil
}

// rebase runs a fresh sub-engine over the staged base and, on success,
// adopts its entire state. The sub-engine inherits the shell's options and
// ordered rules and forks the prototype blocking indexes instead of
// rebuilding them.
func (e *Engine) rebase(ctx context.Context) (*Result, error) {
	s := newEngine(ctx, e.stream.base, e.master, e.rules, e.stream.protos, e.opts)
	res, err := s.runAll()
	if err != nil {
		return nil, err
	}
	e.adopt(s)
	return res, nil
}

// adopt makes the shell engine a full mirror of the sub-engine that just
// ran — data, result and every piece of scheduler and phase state — so any
// read on the shell observes exactly the state of the run that produced the
// current Result. Only the shell's stream state and its context stay its
// own: the sub-engine ran under the update's context.
func (e *Engine) adopt(s *Engine) {
	st, ctx := e.stream, e.ctx
	*e = *s
	e.stream, e.ctx = st, ctx
}

// Deleted reports whether tuple id is currently tombstoned; always false on
// a batch engine.
func (e *Engine) Deleted(id int) bool { return e.stream != nil && e.stream.deleted[id] }
