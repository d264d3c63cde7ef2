package clean

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
)

// mustCheck certifies d with c under a background context, failing the
// test on error.
func mustCheck(t testing.TB, c *Checker, d *relation.Relation) *Report {
	t.Helper()
	rep, err := c.CheckContext(context.Background(), d)
	if err != nil {
		t.Fatalf("CheckContext: %v", err)
	}
	return rep
}

// simInstance is one randomized dirty instance with master data and a
// similarity-only MD (no equality clause): the corpus leg that exercises the
// suffix-tree certify path. Names are short strings over a tiny alphabet, so
// edit-distance matches are frequent (many violating (t, s) pairs — enough
// to cross the per-rule report cap on dirtier seeds), and a few names are
// shorter than the edit threshold itself, defeating the LCS pigeonhole bound
// and forcing the checker's per-tuple full-scan fallback. Every fifth seed
// adds a second non-exact premise clause, a Jaro-Winkler test on C, and
// concludes on B instead: tuples that share a name but differ on C then
// match different master tuples, so a similarity memo keyed by the name
// alone would hand one tuple another's matches.
type simInstance struct {
	seed    int64
	editK   int
	twoSim  bool // premise name ≈ name ∧ C ≈ C, conclusion B = B
	dschema *relation.Schema
	rows    [][]string
	confs   [][]float64
	master  *relation.Relation
	rules   []rule.Rule
}

// genSimInstance derives a sim-MD instance deterministically from seed.
func genSimInstance(seed int64) *simInstance {
	rng := rand.New(rand.NewSource(seed ^ 0x51517e57))
	in := &simInstance{seed: seed, editK: 1 + rng.Intn(2), twoSim: seed%5 == 4}
	in.dschema = relation.NewSchema("R", "A", "B", "name", "C")
	mschema := relation.NewSchema("M", "name", "C", "B")

	// Name stems over a tiny alphabet; variants are a few random edits away,
	// so tuples block to several master candidates at once.
	alphabet := "abc"
	stem := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	stems := make([]string, 2+rng.Intn(3))
	for i := range stems {
		stems[i] = stem(4 + rng.Intn(6))
	}
	mutate := func(s string, ops int) string {
		b := []byte(s)
		for k := 0; k < ops && len(b) > 0; k++ {
			i := rng.Intn(len(b))
			switch rng.Intn(3) {
			case 0: // substitute
				b[i] = alphabet[rng.Intn(len(alphabet))]
			case 1: // insert
				b = append(b[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[i:]...)...)
			case 2: // delete
				b = append(b[:i], b[i+1:]...)
			}
		}
		return string(b)
	}
	name := func() string {
		switch rng.Intn(20) {
		case 0:
			return relation.Null // never matches a premise clause
		case 1, 2:
			// Shorter than editK: the LCS bound |v|/(K+1) is vacuous and
			// certification must fall back to scanning Dm for this tuple.
			return stem(1)[:1]
		default:
			return mutate(stems[rng.Intn(len(stems))], rng.Intn(4))
		}
	}
	domainC := []string{"c0", "c1", "c2"}

	// Dense seeds cluster every name around one stem with at most K edits,
	// so nearly every (tuple, master) pair matches: with well over 100
	// violating pairs for the single MD, they cross the per-rule report cap
	// and pin the truncation accounting of the blocked enumeration.
	dense := rng.Intn(8) == 0
	if dense {
		stems = stems[:1]
		name = func() string {
			return mutate(stems[0], rng.Intn(in.editK+1))
		}
	}

	in.master = relation.New(mschema)
	for j, n := 0, 2+rng.Intn(4); j < n; j++ {
		in.master.Append(name(), domainC[rng.Intn(len(domainC))], fmt.Sprintf("b%d", j%3))
	}
	in.master.SetAllConf(1)

	tuples := 4 + rng.Intn(57)
	if dense {
		tuples = 80 + rng.Intn(60)
	}
	for i := 0; i < tuples; i++ {
		row := []string{
			fmt.Sprintf("a%d", rng.Intn(3)),
			fmt.Sprintf("b%d", rng.Intn(3)),
			name(),
			domainC[rng.Intn(len(domainC))],
		}
		conf := make([]float64, len(row))
		for a := range conf {
			conf[a] = rng.Float64() * 0.75
		}
		in.rows = append(in.rows, row)
		in.confs = append(in.confs, conf)
	}

	var cfds []*cfd.CFD
	if rng.Intn(2) == 0 {
		cfds = append(cfds, cfd.FD("fdBC", in.dschema, []string{"B"}, "C"))
	}
	if rng.Intn(2) == 0 {
		cfds = append(cfds, cfd.New("constAC", in.dschema,
			[]string{"A"}, []string{"a0"}, "C", domainC[rng.Intn(len(domainC))]))
	}
	premise := []md.ClauseSpec{md.Sim("name", "name", similarity.EditWithin(in.editK))}
	conclusion := []md.PairSpec{{Data: "C", Master: "C"}}
	if in.twoSim {
		premise = append(premise, md.Sim("C", "C", similarity.JaroWinklerAtLeast(0.9)))
		conclusion = []md.PairSpec{{Data: "B", Master: "B"}}
	}
	m := md.New("simMD", in.dschema, mschema, premise, conclusion)
	in.rules = rule.Derive(cfds, []*md.MD{m})
	return in
}

// data builds a fresh copy of the instance's data relation.
func (in *simInstance) data() *relation.Relation {
	d := relation.New(in.dschema)
	for i, row := range in.rows {
		t := d.Append(row...)
		copy(t.Conf, in.confs[i])
	}
	return d
}

// hasShortName reports whether some data tuple's name is short enough to
// defeat the LCS blocking bound (len <= K), i.e. whether this instance
// exercises the per-tuple full-scan fallback.
func (in *simInstance) hasShortName() bool {
	a := in.dschema.MustIndex("name")
	for _, row := range in.rows {
		if !relation.IsNull(row[a]) && len(row[a]) <= in.editK {
			return true
		}
	}
	return false
}

// splitsPremise reports whether this instance has a two-clause premise and
// two data tuples that share a name but differ on C — the case a memo keyed
// by the edit clause's value alone gets wrong.
func (in *simInstance) splitsPremise() bool {
	if !in.twoSim {
		return false
	}
	n, c := in.dschema.MustIndex("name"), in.dschema.MustIndex("C")
	cOf := make(map[string]string)
	for _, row := range in.rows {
		if prev, ok := cOf[row[n]]; ok && prev != row[c] && !relation.IsNull(row[n]) {
			return true
		}
		cOf[row[n]] = row[c]
	}
	return false
}

// diffReports returns a description of the first observable difference
// between two certification reports, or "" when they are byte-identical —
// rendering, materialized violations in order, truncation accounting, and
// the per-rule/per-kind counts.
func diffReports(got, want *Report) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("rendering differs:\ngot:  %s\nwant: %s", g, w)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		return fmt.Sprintf("violations differ:\ngot:  %v\nwant: %v", got.Violations, want.Violations)
	}
	if got.Truncated != want.Truncated {
		return fmt.Sprintf("Truncated: %d vs %d", got.Truncated, want.Truncated)
	}
	if !reflect.DeepEqual(got.byRule, want.byRule) {
		return fmt.Sprintf("byRule: %v vs %v", got.byRule, want.byRule)
	}
	if got.cfds != want.cfds || got.mds != want.mds {
		return fmt.Sprintf("kind counts: %d/%d vs %d/%d", got.cfds, got.mds, want.cfds, want.mds)
	}
	return ""
}

// TestCheckerBlockedOrderIdentity is the blocked-vs-scan pin of the
// suffix-tree certify path: over the 400-seed sim-MD corpus, the blocked
// enumeration (tree candidates, order-preserving ascending merge, per-tuple
// scan fallback) must produce a Report byte-identical to the naive
// |D|·|Dm| nested scan — same violations in the same (T, S) order, same
// details, same Truncated — while verifying no more pairs than the scan.
// The corpus must cross the per-rule cap (truncation boundary) and include
// bound-defeating short names, or the pin is vacuous there.
func TestCheckerBlockedOrderIdentity(t *testing.T) {
	const seeds = 400
	sawTruncated, sawCapExact, sawShort, sawSplit := false, false, false, false
	for seed := int64(0); seed < seeds; seed++ {
		in := genSimInstance(seed)
		d := in.data()
		c := NewChecker(in.rules, in.master)
		blocked := mustCheck(t, c, d)
		c.noBlock = true
		naive := mustCheck(t, c, d)
		if diff := diffReports(blocked, naive); diff != "" {
			t.Fatalf("seed %d: blocked and scan certification disagree: %s", seed, diff)
		}
		if blocked.CertVisits > naive.CertVisits {
			t.Fatalf("seed %d: blocked certification visited %d pairs, scan only %d",
				seed, blocked.CertVisits, naive.CertVisits)
		}
		if blocked.Truncated > 0 {
			sawTruncated = true
		}
		if n := blocked.NumMD(); n == maxStoredPerRule {
			sawCapExact = true
		}
		if in.hasShortName() {
			sawShort = true
		}
		if in.splitsPremise() {
			sawSplit = true
		}
	}
	if !sawTruncated {
		t.Error("corpus never crossed the per-rule violation cap; the truncation boundary is untested")
	}
	_ = sawCapExact // exactly-at-cap is rare; crossing the cap is what matters
	if !sawShort {
		t.Error("corpus has no LCS-bound-defeating short names; the scan fallback is untested")
	}
	if !sawSplit {
		t.Error("corpus has no two-clause premise splitting a name on C; the memo key is untested")
	}
}

// TestCheckerParallelWorkerSweep pins the worker-count independence of the
// certification fan-out: for every worker count the parallel CheckContext
// must produce a Report deeply identical to the sequential one — violations
// in rule order, truncation, certify visit counter, and the internal per-rule
// accounting. Run under -race, this is also what proves the per-rule
// passes share nothing but forked matchers.
func TestCheckerParallelWorkerSweep(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		in := genSimInstance(seed)
		d := in.data()
		base := mustCheck(t, NewChecker(in.rules, in.master), d)
		for _, workers := range []int{2, 4, 8} {
			c := NewChecker(in.rules, in.master)
			c.workers = workers
			rep := mustCheck(t, c, d)
			if diff := diffReports(rep, base); diff != "" {
				t.Fatalf("seed %d, %d workers: %s", seed, workers, diff)
			}
			if rep.CertVisits != base.CertVisits {
				t.Fatalf("seed %d, %d workers: certify visits %d != sequential %d",
					seed, workers, rep.CertVisits, base.CertVisits)
			}
			if !reflect.DeepEqual(rep, base) {
				t.Fatalf("seed %d, %d workers: reports not deeply equal", seed, workers)
			}
		}
	}
	// The MD-heavy figure1 workload, repeated to let goroutine scheduling
	// vary: the ordered merge is the only place report order can come from.
	data, master, rules := figure1(t)
	base := mustCheck(t, NewChecker(rules, master), data)
	for rep := 0; rep < 20; rep++ {
		c := NewChecker(rules, master)
		c.workers = 4
		if diff := diffReports(mustCheck(t, c, data), base); diff != "" {
			t.Fatalf("figure1 repetition %d: %s", rep, diff)
		}
	}
}

// TestPropertyIncrementalEquivalenceSimMD runs the three-way engine
// equivalence (full-rescan reference, sequential incremental, 4-worker
// parallel) over the sim-MD corpus: the suffix-tree matching and blocked
// certification paths the nil-master corpus of
// TestPropertyIncrementalEquivalence cannot reach.
func TestPropertyIncrementalEquivalenceSimMD(t *testing.T) {
	const seeds = 400
	popts := DefaultOptions()
	popts.Workers = 4
	for seed := int64(0); seed < seeds; seed++ {
		in := genSimInstance(seed)
		inc, ref := runModes(in.data(), in.master, in.rules, DefaultOptions())
		if d := diffResults(inc, ref); d != "" {
			t.Fatalf("seed %d: incremental and rescan engines disagree: %s", seed, d)
		}
		par := Run(in.data(), in.master, in.rules, popts)
		if d := diffParallel(par, inc); d != "" {
			t.Fatalf("seed %d: parallel and sequential engines disagree: %s", seed, d)
		}
	}
}
