package main

import (
	"repro/internal/clean"
)

// layerInputs is everything a traced run measured, layer by layer.
type layerInputs struct {
	tr               *tracer
	setupMs          float64
	cloneMs, orderMs float64
	tree             treeReplay
	// ref is the checked result whose deterministic counters are reported.
	ref     *clean.Result
	mdNames []string
	// pool shares and the Workers: 1 over default wall-time ratio.
	pooled, maxShare, speedup float64
	stream                    streamLayer
	// rt covers the measured untraced operations (cleans or updates).
	rt       runtimeDelta
	overhead float64
}

// streamLayer is the stream layer's part of a traced run; zero on batch
// workloads, which do no stream work.
type streamLayer struct {
	visitsPerUpdate, rerunVisitRatio, patchedPerUpdate, rerunTimeRatio float64
	p50, p90, perSecond                                                float64
}

// layerReport turns a traced run's measurements into the per-layer metrics,
// in pipeline order. Every workload reports every name; a layer a workload
// does not exercise reports 0.
func layerReport(li layerInputs) *report {
	rep := newReport()
	rep.set("setup.ms", "ms", li.setupMs)
	rep.set("relation.clone.ms", "ms", li.cloneMs)
	rep.set("rule.order.ms", "ms", li.orderMs)

	tr := li.tree
	rep.set("suffixtree.build.ms", "ms", tr.buildMs)
	rep.set("suffixtree.topl.us_per_call", "us", tr.toplUs)
	rep.set("suffixtree.common.us_per_call", "us", tr.commonUs)
	rep.set("suffixtree.candidates_per_call", "count", tr.candidatesPerCall)
	rep.set("suffixtree.distinct_query_share", "ratio", tr.distinctShare)
	rep.set("similarity.within.ns_per_call", "ns", tr.withinNs)
	rep.set("similarity.useful_ratio", "ratio", tr.withinUsefulRatio)

	res := li.ref
	for _, name := range li.mdNames {
		var st clean.MatchStats
		if s := res.Match[name]; s != nil {
			st = *s
		}
		p := "match." + name + "."
		rep.set(p+"lookups", "count", float64(st.Lookups))
		rep.set(p+"candidates", "count", float64(st.Candidates))
		rep.set(p+"useful_ratio", "ratio", ratio(float64(st.Verified), float64(st.Candidates)))
		rep.set(p+"full_scans", "count", float64(st.FullScans))
	}

	var sum clean.ApplyStats
	for _, s := range res.Apply { // integer sums: map order does not matter
		sum.CTuples += s.CTuples
		sum.CGroups += s.CGroups
		sum.ETuples += s.ETuples
		sum.HTuples += s.HTuples
	}
	self := func(name string) float64 { return li.tr.medianSelf("clean", name) }
	rep.set("crepair.ms", "ms", self("crepair"))
	rep.set("crepair.rounds", "count", float64(res.Rounds))
	rep.set("crepair.tuple_visits", "count", float64(sum.CTuples))
	rep.set("crepair.group_visits", "count", float64(sum.CGroups))
	rep.set("erepair.ms", "ms", self("erepair"))
	rep.set("erepair.tuple_visits", "count", float64(sum.ETuples))
	rep.set("erepair.groups_resolved", "count", float64(res.GroupsResolved))
	rep.set("hrepair.ms", "ms", self("hrepair"))
	rep.set("hrepair.rounds", "count", float64(res.HRounds))
	rep.set("hrepair.tuple_visits", "count", float64(sum.HTuples))
	rep.set("certify.ms", "ms", self("certify"))
	rep.set("certify.pairs", "count", float64(res.Report.CertVisits))

	rep.set("pool.pooled_visit_share", "ratio", li.pooled)
	rep.set("pool.max_worker_share", "ratio", li.maxShare)
	rep.set("pool.speedup_vs_seq", "ratio", li.speedup)

	st := li.stream
	rep.set("stream.visits_per_update", "count", st.visitsPerUpdate)
	rep.set("stream.rerun_visit_ratio", "ratio", st.rerunVisitRatio)
	rep.set("stream.patched_per_update", "count", st.patchedPerUpdate)
	rep.set("stream.rerun_time_ratio", "ratio", st.rerunTimeRatio)
	rep.set("stream.update_ms_p50", "ms", st.p50)
	rep.set("stream.update_ms_p90", "ms", st.p90)
	rep.set("stream.updates_per_s", "1/s", st.perSecond)

	rep.set("gc.cpu_share", "ratio", li.rt.gcShare())
	rep.set("alloc.objects_per_op", "count", li.rt.objectsPerOp())

	rep.set("trace.overhead_share", "ratio", li.overhead)
	rep.set("trace.accounted_share", "ratio", accountedShare(li.tr))
	return rep
}

// accountedShare is the median, over traced cleans, of the share of the
// clean's wall time covered by the self times of its layers.
func accountedShare(tr *tracer) float64 {
	self := tr.selfTimes()
	var xs []float64
	for _, s := range tr.spans {
		if s.Name != "clean" || s.Parent >= 0 {
			continue
		}
		var covered float64
		for _, l := range cleanLayers {
			covered += float64(self[s.Op][l])
		}
		xs = append(xs, ratio(covered, float64(s.dur())))
	}
	return median(xs)
}
