package clean

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Violation is one certified rule violation in a cleaned relation.
type Violation struct {
	// Rule is the name of the violated dependency.
	Rule string
	// Kind classifies the underlying dependency.
	Kind rule.Kind
	// Attribute is the data-relation attribute the violation is about (the
	// CFD's RHS attribute, or the MD conclusion's data attribute).
	Attribute string
	// Tuples lists the involved data tuple indexes (one for constant CFDs
	// and MDs, two for variable CFDs).
	Tuples []int
	// Master is the master tuple index for MD violations, -1 otherwise.
	Master int
	// Detail is a human-readable description of the violation.
	Detail string
}

// String returns the violation's human-readable detail line.
func (v Violation) String() string { return v.Detail }

// maxStoredPerRule bounds how many violations of one rule a Report
// materializes. The per-rule and per-kind counts stay exact regardless —
// only the Violation structs beyond the cap are dropped (and tallied in
// Truncated) — so Clean, RuleClean and the summary are unaffected while a
// pathologically dirty instance (up to |D|·|Dm| violating MD pairs) cannot
// exhaust memory building its report.
const maxStoredPerRule = 100

// Report is the structured outcome of a Checker pass.
type Report struct {
	// Violations lists remaining violations, grouped by rule in rule order,
	// capped at maxStoredPerRule per rule; Truncated counts the rest.
	Violations []Violation
	// Truncated is the number of violations counted but not materialized
	// because their rule exceeded maxStoredPerRule.
	Truncated int
	// CertVisits counts the (tuple, master) premise verifications performed
	// while certifying MD rules: the deterministic work measure of the
	// blocked certification path, identical for any worker count. The naive
	// nested scan costs |D|·|Dm| per MD rule; the blocked enumeration
	// verifies only index candidates. Zero when no MD rule was checked.
	CertVisits int
	// Degraded marks a report produced by a run that stopped proposing
	// fixes early because a soft budget ran out (Options.Deadline or
	// Options.MaxFixes). The violation counts are still exact for the
	// relation as left: a degraded report is a truthful partial answer,
	// not an estimate. DegradeReason names the exhausted budget.
	Degraded      bool
	DegradeReason string
	// Patched is always 0: every certification re-checks every rule, and
	// no report is served from a cache. It is kept because perfbench still
	// reads it (its stream.patched_per_update metric reads 0).
	Patched int

	byRule    map[string]int // exact violations per checked rule name
	cfds, mds int            // exact counts by dependency kind
}

// Clean reports whether the relation satisfies every checked rule.
func (r *Report) Clean() bool { return r.cfds == 0 && r.mds == 0 }

// NumCFD and NumMD return the exact violation counts by dependency kind,
// including any violations dropped by the per-rule cap.
func (r *Report) NumCFD() int { return r.cfds }
func (r *Report) NumMD() int  { return r.mds }

// CFDViolations returns the materialized subset of violations of CFD rules.
func (r *Report) CFDViolations() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Kind != rule.MatchMD {
			out = append(out, v)
		}
	}
	return out
}

// MDViolations returns the materialized subset of violations of MD rules.
func (r *Report) MDViolations() []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Kind == rule.MatchMD {
			out = append(out, v)
		}
	}
	return out
}

// RuleClean reports whether the named rule was checked and has no
// violations. known is false when no checked rule bears that name — a
// mistyped or stale name must not read as "certified clean", which is what
// the old single-return form silently did.
func (r *Report) RuleClean(name string) (clean, known bool) {
	n, ok := r.byRule[name]
	return ok && n == 0, ok
}

// String renders the report, one violation per line, with a summary header.
func (r *Report) String() string {
	if r.Clean() {
		return "certified clean: no violations\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dirty: %d CFD violations, %d MD violations\n", r.cfds, r.mds)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v.Detail)
	}
	if r.Truncated > 0 {
		fmt.Fprintf(&b, "... and %d more violations not shown\n", r.Truncated)
	}
	return b.String()
}

// Checker certifies the output of the cleaning pipeline: it re-derives,
// from the repaired relation alone, which rules still have violations and
// returns them as a structured Report. The engine's Finish uses it as the
// termination proof behind Result.Resolved/Unresolved, cmd/uniclean's
// -certify flag prints it, and the test suite uses it as the oracle for
// randomized instances.
//
// Certification never scans |D|·|Dm| when an index exists: equality-clause
// MDs enumerate candidates from the matcher's equality buckets, and
// similarity-clause MDs from its generalized suffix tree — an exact,
// untruncated enumeration (unlike the repair path's TopL blocking) whose
// order-preserving candidate merge streams violations in the same (T, S)
// order the nested scan would produce, so the Report is byte-identical.
// Per-rule passes are independent and read-only; with workers > 1 they fan
// out through fanOut with forked matchers, and the rule-ordered
// report merge keeps the Report deterministic for any worker count.
type Checker struct {
	rules  []rule.Rule
	master *relation.Relation

	// matchers is parallel to rules: the blocking indexes MD certification
	// enumerates candidates from. NewChecker builds them; Engine.Finish
	// hands the checker the engine's own, so indexes are built once per run.
	matchers []*matcher
	// allMaster is the identity candidate list 0..|Dm|-1 the per-tuple
	// full-scan fallback uses (no usable index, or the LCS bound is vacuous
	// for a too-short value). Shared read-only across workers.
	allMaster []int
	// workers bounds the per-rule certification fan-out of CheckContext.
	workers int
	// noBlock forces the naive |D|·|Dm| scan for every MD — the reference
	// enumeration the blocked-vs-scan property tests compare against.
	noBlock bool
	// fj arms the certify fault hook; nil (the default) keeps it inert.
	// Engine.finish copies the engine's injector here.
	fj *fault.Injector
}

// NewChecker builds a checker over the given rules, including the MD
// blocking indexes over master. master may be nil, in which case MD rules
// are vacuously satisfied (there is nothing to match against), mirroring
// the engine's behavior. The checker is sequential; the engine's Finish
// fans certification out across its worker budget instead.
func NewChecker(rules []rule.Rule, master *relation.Relation) *Checker {
	matchers := make([]*matcher, len(rules))
	if master != nil {
		for i, r := range rules {
			if r.Kind == rule.MatchMD {
				matchers[i] = newMatcher(r.MD, master, 0) // certification never truncates
			}
		}
	}
	return newChecker(rules, master, matchers, 1)
}

// newChecker wires a checker from prebuilt matchers (parallel to rules) and
// a worker budget — the constructor Engine.Finish uses to reuse the engine's
// indexes and Options.Workers.
func newChecker(rules []rule.Rule, master *relation.Relation, matchers []*matcher, workers int) *Checker {
	c := &Checker{rules: rules, master: master, matchers: matchers, workers: workers}
	if master != nil {
		for _, r := range rules {
			if r.Kind == rule.MatchMD {
				c.allMaster = make([]int, master.Len())
				for j := range c.allMaster {
					c.allMaster[j] = j
				}
				break
			}
		}
	}
	return c
}

// ruleReport is one certification task's outcome — a whole rule, or one
// sub-range of an MD rule's scan — produced independently, possibly on a
// fan-out worker, and merged into the Report in (rule, range) order. Each task
// stores at most maxStoredPerRule violations; the merge re-applies the cap
// per rule after concatenation, which reproduces the sequential prefix
// exactly (every task keeps its earliest violations, and the global first
// maxStoredPerRule are the earliest of the in-order concatenation).
type ruleReport struct {
	violations []Violation
	count      int // exact violations, including beyond the cap
	visits     int // (t, s) premise verifications (MD rules only)
}

// certShardMin is the smallest data-tuple range worth its own certification
// task: below it the per-task matcher fork costs more than the scan.
const certShardMin = 256

// certTask is one unit of the certification fan-out: rule ri restricted to
// data tuples [lo, hi). CFD rules are always one whole-relation task — their
// group scan is cheap — while an MD rule's blocked scan, the dominant
// certify cost, is sub-sharded into tuple ranges so one huge similarity MD
// no longer serializes the round behind a single worker. fanOut hands tasks
// out in index order, so the expensive MD shards start spread across the
// workers rather than queued behind one another.
type certTask struct {
	ri     int
	lo, hi int
}

// certTasks builds the certification task list in (rule, lo) order — the
// merge order of CheckContext.
func (c *Checker) certTasks(d *relation.Relation) []certTask {
	tasks := make([]certTask, 0, len(c.rules))
	for ri, r := range c.rules {
		if c.workers > 1 && r.Kind == rule.MatchMD && c.master != nil {
			n := d.Len() / certShardMin
			if lim := c.workers * 4; n > lim {
				n = lim
			}
			if n > 1 {
				for k := 0; k < n; k++ {
					tasks = append(tasks, certTask{ri: ri, lo: k * d.Len() / n, hi: (k + 1) * d.Len() / n})
				}
				continue
			}
		}
		tasks = append(tasks, certTask{ri: ri, lo: 0, hi: d.Len()})
	}
	return tasks
}

// CheckContext certifies d against every rule and returns the violation
// report. It never mutates d, so there is nothing to roll back.
// Certification tasks run concurrently when the checker has a worker
// budget; the report is identical for any worker count. Certification
// stops between tasks on cancellation and returns ErrCanceled/ErrDeadline;
// a panicking task is contained and returned as a *WorkerError.
func (c *Checker) CheckContext(ctx context.Context, d *relation.Relation) (*Report, error) {
	tasks := c.certTasks(d)
	subs := make([]ruleReport, len(tasks))
	run := func(ti int) {
		t := tasks[ti]
		c.fj.At(fault.SiteCertify, t.ri, t.lo)
		// Certification is read-only, so tasks need nothing but disjoint
		// result slots. Matchers are forked per task (shared immutable
		// indexes, private scratch).
		x := c.matchers[t.ri]
		if x != nil && c.workers > 1 {
			x = x.fork()
		}
		subs[ti] = c.checkRule(d, t.ri, t.lo, t.hi, x)
	}
	if err := fanOut(ctx, "certify", c.workers, len(tasks), run); err != nil {
		return nil, err
	}

	// Ordered merge: rule order, ascending-lo concatenation within a rule
	// (which reconstructs the sequential (T, S) violation stream), the
	// per-rule cap re-applied over the concatenation, order-independent
	// sums — byte-identical to the sequential pass for any worker count.
	rep := &Report{byRule: make(map[string]int, len(c.rules))}
	ti := 0
	for ri, r := range c.rules {
		var rr ruleReport
		for ; ti < len(tasks) && tasks[ti].ri == ri; ti++ {
			s := &subs[ti]
			rr.count += s.count
			rr.visits += s.visits
			rr.violations = append(rr.violations, s.violations...)
		}
		if len(rr.violations) > maxStoredPerRule {
			rr.violations = rr.violations[:maxStoredPerRule]
		}

		rep.byRule[r.Name()] += rr.count // creates the entry even at zero: "checked"
		if r.Kind == rule.MatchMD {
			rep.mds += rr.count
		} else {
			rep.cfds += rr.count
		}
		rep.Violations = append(rep.Violations, rr.violations...)
		rep.Truncated += rr.count - len(rr.violations)
		rep.CertVisits += rr.visits
	}
	return rep, nil
}

// checkRule certifies d against rule ri over the data tuples in [lo, hi) —
// the full relation for CFD rules, possibly one sub-shard for MD rules —
// enumerating MD candidates through x (nil only when master data is absent,
// making the MD vacuous).
func (c *Checker) checkRule(d *relation.Relation, ri, lo, hi int, x *matcher) ruleReport {
	r := c.rules[ri]
	var rr ruleReport
	switch r.Kind {
	case rule.MatchMD:
		if c.master == nil {
			return rr // vacuously satisfied, still recorded as checked
		}
		name := r.Name()
		c.visitMDViolationsRange(d, r.MD, x, lo, hi, &rr.visits, func(v md.Violation) bool {
			rr.count++
			if len(rr.violations) >= maxStoredPerRule {
				return true // beyond the cap: counted, never formatted
			}
			// A violating (t, s) pair disagrees on at least one
			// conclusion pair; report the first one that does, so the
			// report stays right even for MDs that were not normalized
			// to a single-pair conclusion.
			p := r.MD.RHS[0]
			for _, q := range r.MD.RHS {
				if d.Tuples[v.T].Values[q.DataAttr] != c.master.Tuples[v.S].Values[q.MasterAttr] {
					p = q
					break
				}
			}
			attr := d.Schema.Attrs[p.DataAttr]
			rr.violations = append(rr.violations, Violation{
				Rule: name, Kind: r.Kind, Attribute: attr,
				Tuples: []int{v.T}, Master: v.S,
				Detail: fmt.Sprintf("%s: t%d[%s] = %q, matched master tuple %d says %q",
					name, v.T, attr, d.Tuples[v.T].Values[p.DataAttr],
					v.S, c.master.Tuples[v.S].Values[p.MasterAttr]),
			})
			return true
		})
	default:
		for _, v := range cfd.Violations(d, r.CFD) {
			rr.count++
			if len(rr.violations) >= maxStoredPerRule {
				continue
			}
			tuples := []int{v.T1}
			if v.T2 >= 0 {
				tuples = append(tuples, v.T2)
			}
			rr.violations = append(rr.violations, Violation{
				Rule: r.Name(), Kind: r.Kind,
				Attribute: d.Schema.Attrs[v.Attr],
				Tuples:    tuples, Master: -1,
				Detail: v.String(),
			})
		}
	}
	return rr
}

// visitMDViolationsRange streams the violating (t, s) pairs of m for the
// data tuples in [lo, hi) in (T, S) order, counting every pair of the
// candidate superset into visited. Candidates come from the matcher's exact
// certification enumeration (equality buckets, or the untruncated
// suffix-tree superset already filtered by the premise, both ascending)
// instead of the O(|D|·|Dm|) nested scan of md.VisitViolations. The
// enumeration is exact: a pair outside the superset, or filtered out of it,
// fails a premise clause, and candidates arrive ascending per tuple, so the
// same violations appear in the same order as the scan. Tuples no index
// covers exactly — a value shorter than the LCS bound allows, or an MD with
// no indexable clause at all — fall back to scanning Dm for that tuple only.
// Enumeration is per data tuple, so a range — the certify sub-shard — visits
// exactly the pairs the full pass [0, |D|) visits for those tuples, and
// ranges concatenated in ascending-lo order reproduce the full stream.
func (c *Checker) visitMDViolationsRange(d *relation.Relation, m *md.MD, x *matcher, lo, hi int, visited *int, fn func(md.Violation) bool) {
	md.VisitViolationsBlockedRange(d, c.master, m, lo, hi, func(i int, t *relation.Tuple) []int {
		if x != nil && !c.noBlock {
			if raw, ids, ok := x.certCandidates(t); ok {
				*visited += raw
				return ids
			}
		}
		*visited += len(c.allMaster)
		return c.allMaster
	}, fn)
}
