// The undo-pairing half of the errcontract fixture. This file is named
// stream.go on purpose: the check keys on the filename, mirroring the real
// streaming engine. A function that mutates staging state (the base
// instance, the tombstone set, mutator calls on base-derived aliases) must
// carry an undo-closure result, and every return after the first mutation
// must return a non-nil closure.
package errcontract

type Relation struct{ Tuples []*Tup }

type Tup struct{ vals []string }

func (r *Relation) Append(vals ...string) *Tup {
	t := &Tup{vals: vals}
	r.Tuples = append(r.Tuples, t)
	return t
}

func (t *Tup) Set(i int, v string) { t.vals[i] = v }

type SEngine struct {
	base    *Relation
	deleted map[int]bool
}

// The sanctioned shape: validate first (an early nil-closure return before
// any mutation is fine), then mutate, then return the closure that reverts
// every staged write. The closure's own writes are the revert — exempt.
func (e *SEngine) goodStage(id int, vals ...string) (func(), error) {
	if id < 0 {
		return nil, ErrStopped
	}
	e.base.Append(vals...)
	wasDeleted := e.deleted[id]
	delete(e.deleted, id)
	return func() {
		e.base.Tuples = e.base.Tuples[:len(e.base.Tuples)-1]
		if wasDeleted {
			e.deleted[id] = true
		}
	}, nil
}

// A mutator call on a base-derived alias is a staged mutation too: the
// taint survives the Tuples index load into the local.
func (e *SEngine) goodAliasStage(id int) (func(), error) {
	if id >= len(e.base.Tuples) {
		return nil, ErrStopped
	}
	t := e.base.Tuples[id]
	saved := t.vals[0]
	t.Set(0, "tombstone")
	return func() { t.Set(0, saved) }, nil
}

// Staged mutation in a function whose signature has no undo-closure result:
// nothing can revert the write.
func (e *SEngine) badStageNoUndo(id int) error {
	e.deleted[id] = true // want "no undo-closure result"
	return nil
}

// A post-mutation path that returns a nil closure: accepted staging that
// cannot be reverted.
func (e *SEngine) badStageNilUndo(id int) (func(), error) {
	e.deleted[id] = true
	return nil, nil // want "staged mutation is not paired with an undo registration"
}

// Rebinding the staging fields themselves is construction, not staging.
func (e *SEngine) rebase(next *Relation) {
	e.base = next
	e.deleted = make(map[int]bool)
}

// SHolder keeps the staging fields one level down, the way a streaming
// engine's shell holds them behind a single pointer field.
type SHolder struct {
	base    *Relation
	deleted map[int]bool
}

type SShell struct{ st *SHolder }

// Staging reached through the holder (e.st.base, e.st.deleted) is staging
// all the same; the sanctioned shape still passes.
func (e *SShell) goodHolderStage(id int, vals ...string) (func(), error) {
	if e.st == nil {
		return nil, ErrStopped
	}
	e.st.base.Append(vals...)
	e.st.deleted[id] = true
	return func() {
		e.st.base.Tuples = e.st.base.Tuples[:len(e.st.base.Tuples)-1]
		delete(e.st.deleted, id)
	}, nil
}

// A nil undo after a write through the holder is reported.
func (e *SShell) badHolderNilUndo(vals ...string) (func(), error) {
	e.st.base.Append(vals...)
	return nil, nil // want "staged mutation is not paired with an undo registration"
}

// The same through a local copy of the holder pointer.
func (e *SShell) badHolderAliasNilUndo(id int) (func(), error) {
	st := e.st
	st.deleted[id] = true
	return nil, nil // want "staged mutation is not paired with an undo registration"
}

// Rebinding the holder is construction, not staging.
func (e *SShell) reset(next *Relation) {
	e.st = &SHolder{base: next, deleted: make(map[int]bool)}
}
