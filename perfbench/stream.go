package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/clean"
	"repro/internal/gen"
)

// baseCleans is how many clean cycles (see cleanCycle) the traced stream
// run makes over the replayed base for the repair layers' times.
const baseCleans = 7

// applyUpdate issues one generated update through the streaming API.
func applyUpdate(e *clean.Engine, u gen.Update) (*clean.Result, error) {
	if u.Delete {
		return e.Delete(u.ID)
	}
	return e.Upsert(u.ID, u.Values, u.Conf)
}

// replayedBase is the base instance a stream reaches after the whole update
// epoch: the input with every update applied by gen.Update.Apply.
func replayedBase(in *instance) *instance {
	base := in.Data.Clone()
	for _, u := range in.updates {
		u.Apply(base)
	}
	out := *in
	inst := *in.Instance
	inst.Data = base
	out.Instance = &inst
	return &out
}

// newStream builds a streaming engine over the workload's input.
func newStream(in *instance) (*clean.Engine, error) {
	e, err := clean.NewStream(in.Data, in.Master, in.Rules, clean.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("stream setup: %w", err)
	}
	return e, nil
}

// epoch is what one pass of the update stream measured.
type epoch struct {
	setup   time.Duration // NewStream
	initial *clean.Result // the stream's state before the first update
	lat     []float64     // per update, ms
	visits  int           // applier visits over all updates
	patched int           // certifications served from the previous report
	workers []int64       // pool visits per worker over all updates
}

// runEpoch times NewStream over the workload's input, issues the update
// stream in a closed loop with one caller, and checks the final state
// against want. A failed update, or a final state that differs from want,
// counts as a failure; the final check is billed to the epoch's last
// update. With tr set, NewStream is a root span "stream.new" and each
// update a root span "stream.update". A forced GC before NewStream and
// before the first update keeps the garbage of the previous epoch out of
// both.
func runEpoch(in *instance, want *clean.Result, tr *tracer, op *int, rt *runtimeDelta, t *tally) (epoch, error) {
	var ep epoch
	runtime.GC()
	*op++
	id := tr.begin("stream.new", -1, *op)
	start := time.Now()
	e, err := newStream(in)
	ep.setup = time.Since(start)
	tr.end(id)
	if err != nil {
		return ep, err
	}
	ep.initial = e.Result()
	runtime.GC()
	for i, u := range in.updates {
		var res *clean.Result
		*op++
		rt.measure(func() {
			id := tr.begin("stream.update", -1, *op)
			start := time.Now()
			res, err = applyUpdate(e, u)
			ep.lat = append(ep.lat, ms(time.Since(start)))
			tr.end(id)
		})
		if err == nil {
			ep.visits += res.TotalVisits()
			ep.patched += res.Report.Patched
			if ep.workers == nil {
				ep.workers = make([]int64, len(res.WorkerVisits))
			}
			for w, v := range res.WorkerVisits {
				ep.workers[w] += v
			}
		}
		if err == nil && i == len(in.updates)-1 {
			err = sameResult(e.Result(), want)
		}
		t.record(err)
	}
	return ep, nil
}

// streamEndToEnd measures the stream workload with tracing off: epochs of
// NewStream and the update stream until the budget is spent.
func streamEndToEnd(in *instance, budget time.Duration, t *tally) (*report, error) {
	want, err := runClean(replayedBase(in), seqOptions())
	if err != nil {
		return nil, fmt.Errorf("from-scratch clean of the replayed base: %w", err)
	}
	live := liveHeapMB(func() any {
		e, _ := newStream(in)
		return e
	})

	var setup, lat []float64
	var initial *clean.Result
	var rt runtimeDelta
	op := 0
	deadline := time.Now().Add(budget)
	for len(setup) < minOps || time.Now().Before(deadline) {
		ep, err := runEpoch(in, want, nil, &op, &rt, t)
		if err != nil {
			return nil, err
		}
		setup = append(setup, ep.setup.Seconds())
		lat = append(lat, ep.lat...)
		initial = ep.initial
	}

	rep := newReport()
	rep.set("tuples_per_s", "1/s", ratio(1e3, median(lat)))
	rep.set("setup_s", "s", median(setup))
	rep.set("alloc_mb_per_op", "MB", rt.allocMBPerOp())
	rep.set("engine_live_mb", "MB", live)
	rep.set("repair_f1", "ratio", repairF1(in.Data, initial.Data, in.truth))
	rep.note = fmt.Sprintf("samples: %d updates, %d stream setups", len(lat), len(setup))
	return rep, nil
}

// streamTraced is the traced run of the stream workload. The stream layer
// is traced as one opaque span per NewStream, Upsert or Delete call; the
// batch layers are traced through the from-scratch cleans of the replayed
// base that the final states are checked against.
func streamTraced(in *instance, budget time.Duration, tr *tracer, t *tally) (*report, error) {
	final := replayedBase(in)
	op := 0
	next := func() int { op++; return op }

	li := layerInputs{mdNames: in.mdNames, tr: tr}
	li.tree = replayTree(tr, next(), in, clean.DefaultOptions().TopL)
	li.cloneMs, li.orderMs = replaySetupParts(tr, next(), in)

	want, err := runClean(final, seqOptions())
	if err != nil {
		return nil, fmt.Errorf("from-scratch clean of the replayed base: %w", err)
	}
	li.ref = want
	var untraced, seq []float64
	var baseRT runtimeDelta // the runtime metrics cover the updates only
	for i := 0; i < baseCleans; i++ {
		u, s, _ := cleanCycle(tr, next(), final, want, &baseRT, t)
		untraced, seq = append(untraced, u), append(seq, s)
	}

	var setup, lat []float64
	var visits, patched, updates int
	var workers []int64
	deadline := time.Now().Add(budget)
	for len(setup) < minOps || time.Now().Before(deadline) {
		ep, err := runEpoch(in, want, tr, &op, &li.rt, t)
		if err != nil {
			return nil, err
		}
		setup = append(setup, ms(ep.setup))
		lat = append(lat, ep.lat...)
		visits, patched, updates = visits+ep.visits, patched+ep.patched, updates+len(ep.lat)
		if workers == nil {
			workers = make([]int64, len(ep.workers))
		}
		for w, v := range ep.workers {
			workers[w] += v
		}
	}

	li.setupMs = median(setup)
	li.pooled, li.maxShare = poolShares(workers, visits)
	li.speedup = ratio(median(seq), median(untraced))
	li.overhead = ratio(median(tr.rootDurations("clean"))-median(untraced), median(untraced))
	sl := &li.stream
	sl.visitsPerUpdate = ratio(float64(visits), float64(updates))
	sl.rerunVisitRatio = ratio(sl.visitsPerUpdate, float64(want.TotalVisits()))
	sl.patchedPerUpdate = ratio(float64(patched), float64(updates))
	sl.p50 = median(lat)
	sl.rerunTimeRatio = ratio(sl.p50, median(untraced))
	sl.p90, _ = percentile(lat, 0.9)
	var total float64
	for _, l := range lat {
		total += l
	}
	sl.perSecond = ratio(float64(len(lat))*1e3, total)
	rep := layerReport(li)
	rep.note = fmt.Sprintf("samples: %d updates, %d stream setups, %d clean cycles of the replayed base",
		len(lat), len(setup), len(untraced))
	return rep, nil
}
