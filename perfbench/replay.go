package main

import (
	"time"

	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
	"repro/internal/suffixtree"
)

// simClause returns the first blockable edit-distance clause of the rule
// set — the clause the engine's matcher builds its suffix tree for — and
// its threshold K.
func simClause(rules []rule.Rule) (md.Clause, int, bool) {
	for _, r := range rules {
		if r.Kind != rule.MatchMD {
			continue
		}
		for _, cl := range r.MD.LHS {
			if k, ok := cl.Pred.EditThreshold(); ok && !cl.Pred.Exact {
				return cl, k, true
			}
		}
	}
	return md.Clause{}, 0, false
}

// treeReplay holds what one replay of the suffix-tree and similarity layers
// measured. All fields stay zero when the rule set has no similarity
// clause, which is what a bypass workload should show.
type treeReplay struct {
	buildMs                     float64
	toplUs, commonUs            float64 // per call
	candidatesPerCall           float64
	distinctShare               float64
	withinNs, withinUsefulRatio float64 // per call, and matches/calls
}

// replayTree rebuilds the suffix tree over the master domain of the
// similarity clause, then issues the calls the engine's first repair round
// and its certification make: one TopL per data tuple with the matcher's
// LCS bound, one StringsWithCommonSubstring per data tuple, and one edit
// distance check per TopL candidate. Each loop is timed as one span.
func replayTree(tr *tracer, op int, in *instance, topL int) treeReplay {
	var out treeReplay
	cl, k, ok := simClause(in.Rules)
	if !ok {
		return out
	}
	out.distinctShare = distinctShare(in.Data, cl.DataAttr)

	var tree *suffixtree.Tree
	start := time.Now()
	tr.wrap("suffixtree.build", -1, op, func() {
		tree = suffixtree.New()
		seen := make(map[string]bool)
		for _, s := range in.Master.Tuples {
			if v := s.Values[cl.MasterAttr]; !relation.IsNull(v) && !seen[v] {
				seen[v] = true
				tree.Add(v)
			}
		}
	})
	out.buildMs = ms(time.Since(start))

	var queries []string
	for _, t := range in.Data.Tuples {
		if v := t.Values[cl.DataAttr]; !relation.IsNull(v) {
			queries = append(queries, v)
		}
	}

	cands := make([][]suffixtree.Match, len(queries))
	out.toplUs = timedLoop(tr, "suffixtree.topl", op, len(queries), func() {
		for i, v := range queries {
			cands[i] = tree.TopL(v, topL, len(v)/(k+1))
		}
	})
	total := 0
	for _, c := range cands {
		total += len(c)
	}
	out.candidatesPerCall = ratio(float64(total), float64(len(queries)))

	var common []string
	for _, v := range queries {
		if len(v)/(k+1) >= 1 {
			common = append(common, v)
		}
	}
	out.commonUs = timedLoop(tr, "suffixtree.common", op, len(common), func() {
		for _, v := range common {
			tree.StringsWithCommonSubstring(v, len(v)/(k+1))
		}
	})

	useful := 0
	out.withinNs = 1e3 * timedLoop(tr, "similarity.within", op, total, func() {
		for i, v := range queries {
			for _, m := range cands[i] {
				if similarity.Within(v, tree.String(m.ID), k) {
					useful++
				}
			}
		}
	})
	out.withinUsefulRatio = ratio(float64(useful), float64(total))
	return out
}

// timedLoop runs loop, which makes calls calls, inside one span and returns
// the time per call in µs.
func timedLoop(tr *tracer, name string, op, calls int, loop func()) float64 {
	id := tr.begin(name, -1, op)
	start := time.Now()
	loop()
	d := time.Since(start)
	tr.end(id)
	if tr != nil {
		tr.spans[id].Calls = calls
	}
	return ratio(float64(d)/float64(time.Microsecond), float64(calls))
}

// replaySetupParts times the two setup steps that are public functions of
// their own layers: cloning the data relation and ordering the rules. The
// medians of five calls each are returned in ms.
func replaySetupParts(tr *tracer, op int, in *instance) (cloneMs, orderMs float64) {
	var c, o []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		tr.wrap("relation.clone", -1, op, func() { in.Data.Clone() })
		c = append(c, ms(time.Since(start)))
		start = time.Now()
		tr.wrap("rule.order", -1, op, func() { rule.Order(in.Rules) })
		o = append(o, ms(time.Since(start)))
	}
	return median(c), median(o)
}
