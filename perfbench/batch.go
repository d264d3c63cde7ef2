package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/clean"
)

// minOps is the fewest measured operations a run makes, however short its
// time budget.
const minOps = 3

func seqOptions() clean.Options {
	o := clean.DefaultOptions()
	o.Workers = 1
	return o
}

// runClean is one untraced operation of a batch workload.
func runClean(in *instance, opts clean.Options) (*clean.Result, error) {
	return clean.RunContext(context.Background(), in.Data, in.Master, in.Rules, opts)
}

// timedClean runs one untraced clean, checks it against ref, and returns
// its wall time. Callers force a collection before each measured clean, so
// every clean starts from the same heap instead of paying for the garbage
// of the one before it.
func timedClean(in *instance, opts clean.Options, ref *clean.Result, t *tally) (time.Duration, *clean.Result) {
	start := time.Now()
	res, err := runClean(in, opts)
	d := time.Since(start)
	if err == nil {
		err = sameResult(res, ref)
	}
	t.record(err)
	return d, res
}

// batchEndToEnd measures a batch workload with tracing off. The operation
// is one full RunContext (setup, repair, certification) with the default
// worker pool; every result must equal a Workers: 1 reference.
func batchEndToEnd(in *instance, budget time.Duration, t *tally) (*report, error) {
	opts := clean.DefaultOptions()
	ref, err := runClean(in, seqOptions())
	if err != nil {
		return nil, fmt.Errorf("reference clean: %w", err)
	}

	live := liveHeapMB(func() any {
		return clean.NewContext(context.Background(), in.Data, in.Master, in.Rules, opts)
	})

	// Each measured clean is preceded by one timed NewContext, so the
	// set-up samples spread over the whole run like the clean samples do.
	var setup, walls []float64
	var rt runtimeDelta
	deadline := time.Now().Add(budget)
	for len(walls) < minOps || time.Now().Before(deadline) {
		runtime.GC()
		start := time.Now()
		e := clean.NewContext(context.Background(), in.Data, in.Master, in.Rules, opts)
		setup = append(setup, time.Since(start).Seconds())
		runtime.KeepAlive(e)

		var d time.Duration
		runtime.GC()
		rt.measure(func() { d, _ = timedClean(in, opts, ref, t) })
		walls = append(walls, d.Seconds())
	}

	rep := newReport()
	rep.set("tuples_per_s", "1/s", ratio(float64(in.Data.Len()), median(walls)))
	rep.set("setup_s", "s", median(setup))
	rep.set("alloc_mb_per_op", "MB", rt.allocMBPerOp())
	rep.set("engine_live_mb", "MB", live)
	rep.set("repair_f1", "ratio", repairF1(in.Data, ref.Data, in.truth))
	rep.note = fmt.Sprintf("samples: %d cleans, %d setups", len(walls), len(setup))
	return rep, nil
}

// batchTraced is the traced run of a batch workload. It replays the
// suffix-tree and similarity layers, then runs clean cycles until the
// budget is spent, checking each clean against a Workers: 1 reference.
func batchTraced(in *instance, budget time.Duration, tr *tracer, t *tally) (*report, error) {
	op := 0
	next := func() int { op++; return op }

	ref, err := runClean(in, seqOptions())
	if err != nil {
		return nil, fmt.Errorf("reference clean: %w", err)
	}
	li := layerInputs{tr: tr, ref: ref, mdNames: in.mdNames}
	li.tree = replayTree(tr, next(), in, clean.DefaultOptions().TopL)
	li.cloneMs, li.orderMs = replaySetupParts(tr, next(), in)

	var untraced, seq, pooled, maxShare []float64
	deadline := time.Now().Add(budget)
	for len(untraced) < minOps || time.Now().Before(deadline) {
		u, s, res := cleanCycle(tr, next(), in, ref, &li.rt, t)
		untraced, seq = append(untraced, u), append(seq, s)
		if res != nil {
			p, m := poolShares(res.WorkerVisits, res.TotalVisits())
			pooled, maxShare = append(pooled, p), append(maxShare, m)
		}
	}

	li.setupMs = tr.medianSelf("clean", "setup")
	li.pooled, li.maxShare = median(pooled), median(maxShare)
	li.speedup = ratio(median(seq), median(untraced))
	li.overhead = ratio(median(tr.rootDurations("clean"))-median(untraced), median(untraced))
	rep := layerReport(li)
	rep.note = fmt.Sprintf("samples: %d clean cycles", len(untraced))
	return rep, nil
}

// cleanCycle runs three cleans of in, each after a forced GC and each
// checked against ref: a traced clean (operation op), an untraced clean
// with the default options, whose runtime counters go to rt, and a
// Workers: 1 clean. It returns the untraced and the Workers: 1 wall times
// in ms, and the untraced result (nil if it failed).
func cleanCycle(tr *tracer, op int, in *instance, ref *clean.Result, rt *runtimeDelta, t *tally) (untraced, seq float64, res *clean.Result) {
	opts := clean.DefaultOptions()
	runtime.GC()
	traced, err := tracedClean(tr, op, in, opts)
	if err == nil {
		err = sameResult(traced, ref)
	}
	t.record(err)

	var d time.Duration
	runtime.GC()
	rt.measure(func() { d, res = timedClean(in, opts, ref, t) })
	untraced = ms(d)

	runtime.GC()
	d, _ = timedClean(in, seqOptions(), ref, t)
	return untraced, ms(d), res
}

// poolShares returns the share of applier visits the pool workers made and
// the busiest worker's visits over the mean.
func poolShares(workerVisits []int64, total int) (pooled, maxShare float64) {
	var sum, max int64
	for _, v := range workerVisits {
		sum += v
		if v > max {
			max = v
		}
	}
	if len(workerVisits) == 0 {
		return 0, 0
	}
	return ratio(float64(sum), float64(total)), ratio(float64(max), float64(sum)/float64(len(workerVisits)))
}
