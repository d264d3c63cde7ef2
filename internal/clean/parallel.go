package clean

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// This file holds the engine's only concurrency and the worklist drivers of
// the repair phases.
//
// cRepair and hRepair are sequential fixpoints over the ordered rules: each
// rule's worklist runs on the calling goroutine, in ascending tuple id /
// first group member order, through applyTuples and applyGroups. The
// read-only passes — the Checker's per-rule certification and eRepair's
// seeding — fan out through fanOut, whose tasks write only their own
// task-indexed result slot and whose caller merges the slots in task order
// afterwards, so the outcome is identical for any worker count.

// fanOut runs fn(task) for every task in [0, tasks) across up to workers
// goroutines pulling task indexes from an atomic cursor. Tasks must write
// only their own task-indexed result slot; the caller merges in task order
// afterwards. Each task runs under its own recover; on a panic or a
// context cancellation the remaining tasks are skipped and the error —
// the lowest-index *WorkerError, else the typed cancellation — is returned.
// The caller must discard the partially filled result slots on error.
func fanOut(ctx context.Context, phase string, workers, tasks int, fn func(task int)) error {
	if workers > tasks {
		workers = tasks
	}
	fails := make([]*WorkerError, tasks)
	var aborted atomic.Bool
	runTask := func(shard, task int) {
		defer func() {
			if r := recover(); r != nil {
				fails[task] = newWorkerError(r, phase, "", shard, task)
				aborted.Store(true)
			}
		}()
		fn(task)
	}
	if workers <= 1 {
		for task := 0; task < tasks && !aborted.Load() && ctx.Err() == nil; task++ {
			runTask(-1, task)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					if aborted.Load() || ctx.Err() != nil {
						return
					}
					task := int(cursor.Add(1)) - 1
					if task >= tasks {
						return
					}
					runTask(w, task)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, f := range fails {
		if f != nil {
			return f
		}
	}
	if err := ctx.Err(); err != nil {
		return ctxErr(err)
	}
	return nil
}

// applyTuples runs one per-tuple rule over the given tuple ids (ascending),
// bracketing each visit with the scheduler's in-flight-rule suppression. A
// panic in a visit is re-raised as a *WorkerError naming the phase, the
// rule and the worklist index, which runAll returns as is.
func (e *Engine) applyTuples(phase, ri int, ids []int, fn func(i int) int) int {
	ii := 0
	defer e.contain(phase, ri, &ii)
	progress := 0
	for ; ii < len(ids); ii++ {
		e.fj.At(fault.SiteApply, ri, ii)
		e.setActive(phase, ri, ids[ii])
		progress += fn(ids[ii])
	}
	e.clearActive()
	return progress
}

// applyGroups runs one variable-CFD rule over the given group snapshots
// (ordered by first member). Group appliers run without the scheduler's
// in-flight-tuple suppression. Panics are contained as in applyTuples.
func (e *Engine) applyGroups(phase, ri int, groups [][]int, fn func(members []int) int) int {
	gi := 0
	defer e.contain(phase, ri, &gi)
	progress := 0
	for ; gi < len(groups); gi++ {
		e.fj.At(fault.SiteApply, ri, gi)
		progress += fn(groups[gi])
	}
	return progress
}

// contain is the deferred recover of the worklist drivers: it re-panics a
// recovered value as a *WorkerError carrying the phase, the rule and the
// worklist index *item reached.
func (e *Engine) contain(phase, ri int, item *int) {
	if r := recover(); r != nil {
		panic(newWorkerError(r, phaseName(phase), e.rules[ri].Name(), -1, *item))
	}
}

// allTupleIDs returns the cached identity worklist 0..Len-1 that full-visit
// seeding rounds iterate.
func (e *Engine) allTupleIDs() []int {
	if e.allIDs == nil {
		e.allIDs = make([]int, e.data.Len())
		for i := range e.allIDs {
			e.allIDs[i] = i
		}
	}
	return e.allIDs
}
