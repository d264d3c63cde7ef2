package clean

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
)

// hrepairInput parses a rule set over R(name, b, code) with master
// M(name, code) and builds two below-eta tuples whose code conflict only
// appears once hRepair applies the constant CFD.
func hrepairInput(t *testing.T, withMaster bool) (*relation.Relation, *relation.Relation, []rule.Rule) {
	t.Helper()
	dschema := relation.NewSchema("R", "name", "b", "code")
	mschema := relation.NewSchema("M", "name", "code")
	data := relation.New(dschema)
	data.Append("bob", "0", "k1")
	data.Append("bob", "5", "k1")
	data.SetAllConf(0.5)

	var master *relation.Relation
	text := `
cfd b=5 -> code=k2
cfd name -> code
`
	if withMaster {
		master = relation.New(mschema)
		master.Append("bob", "k2")
		master.SetAllConf(1)
		text += "md name=name -> code=code\n"
	}
	cfds, mds, err := rule.ParseRules(dschema, mschema, text)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	return data, master, rule.Derive(cfds, mds)
}

// TestHRepairMasterTieBreak: the constant CFD rewrites t1's code to k2,
// creating a variable-CFD tie between k1 and k2 (equal confidence, equal
// count) that plain lexicographic order would resolve to k1. The master
// value reachable through the MD blocking index must win the tie instead,
// settling the whole group on k2.
func TestHRepairMasterTieBreak(t *testing.T) {
	data, master, rules := hrepairInput(t, true)
	res := Run(data, master, rules, DefaultOptions())
	for i := 0; i < 2; i++ {
		if got := res.Data.Tuples[i].Values[2]; got != "k2" {
			t.Errorf("t%d code = %q, want master-supported %q", i, got, "k2")
		}
	}
	if got := res.Data.Tuples[0].Marks[2]; got != relation.FixPossible {
		t.Errorf("t0 code mark = %v, want possible", got)
	}
	if !res.Report.Clean() {
		t.Errorf("report not clean:\n%s", res.Report)
	}
	for _, f := range res.PossibleFixes() {
		if f.Conf >= DefaultOptions().Eta {
			t.Errorf("possible fix %v carries confidence >= eta", f)
		}
	}
}

// TestHRepairLexicographicWithoutMaster: the same tie with no master data
// falls back to the lexicographically smaller value; the pipeline must
// still terminate in a certified-consistent instance (the constant CFD's
// tuple is eventually retracted).
func TestHRepairLexicographicWithoutMaster(t *testing.T) {
	data, _, rules := hrepairInput(t, false)
	res := Run(data, nil, rules, DefaultOptions())
	if got := res.Data.Tuples[0].Values[2]; got != "k1" {
		t.Errorf("t0 code = %q, want lexicographic %q", got, "k1")
	}
	if !res.Report.Clean() {
		t.Errorf("report not clean:\n%s", res.Report)
	}
}

// TestHRepairBudgetPreventsOscillation: two constant CFDs fighting over the
// same cell at below-eta confidence would flip it forever; the per-cell
// budget must cut the oscillation and the retraction fallback must dissolve
// the loser, terminating in a certified-consistent instance.
func TestHRepairBudgetPreventsOscillation(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B")
	data := relation.New(schema)
	data.Append("1", "zzz")
	data.SetAllConf(0.5)
	cfds, _, err := rule.ParseRules(schema, nil, "cfd A=1 -> B=x\ncfd A=1 -> B=y")
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	opts := DefaultOptions()
	opts.HBudget = 2
	res := Run(data, nil, rule.Derive(cfds, nil), opts)
	if !res.Report.Clean() {
		t.Fatalf("report not clean:\n%s", res.Report)
	}
	if got := res.Data.Tuples[0].Values[0]; !relation.IsNull(got) {
		t.Errorf("A = %q, want null: retraction is the only consistent outcome", got)
	}
	writes := 0
	for _, f := range res.PossibleFixes() {
		if f.Attribute == "B" {
			writes++
		}
	}
	if writes > opts.HBudget {
		t.Errorf("%d writes to B exceed the budget %d", writes, opts.HBudget)
	}
}

// TestCheckerStructuredReport exercises the Checker directly on a dirty
// relation: violations must carry the rule name, kind, attribute and tuple
// indexes, RuleClean must partition the rules, and the rendering must list
// every violation.
func TestCheckerStructuredReport(t *testing.T) {
	data, master, rules := figure1(t)
	rep := mustCheck(t, NewChecker(rules, master), data)
	if rep.Clean() {
		t.Fatal("the dirty Figure 1 instance must not certify clean")
	}
	cv, mv := rep.CFDViolations(), rep.MDViolations()
	if len(cv) == 0 || len(mv) == 0 {
		t.Fatalf("want both CFD and MD violations, got %d/%d", len(cv), len(mv))
	}
	// t1 has AC=131 but city=Ldn: the cfd1 constant violation.
	found := false
	for _, v := range cv {
		if v.Rule == "cfd1" && v.Kind == rule.ConstantCFD && v.Attribute == "city" &&
			len(v.Tuples) == 1 && v.Tuples[0] == 1 && v.Master == -1 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing structured cfd1 violation on t1[city], got %+v", cv)
	}
	for _, v := range mv {
		if v.Kind != rule.MatchMD || v.Master < 0 {
			t.Errorf("MD violation %+v lacks a master tuple", v)
		}
	}
	if clean, known := rep.RuleClean("cfd1"); clean || !known {
		t.Errorf("RuleClean(cfd1) = (%v, %v) on a checked, violated rule", clean, known)
	}
	if clean, known := rep.RuleClean("no-such-rule"); clean || known {
		t.Errorf("RuleClean on an unchecked name = (%v, %v); a typo must not read as certified clean", clean, known)
	}
	s := rep.String()
	if !strings.Contains(s, "dirty:") || !strings.Contains(s, "cfd1:") {
		t.Errorf("report rendering incomplete:\n%s", s)
	}

	// After the pipeline the same checker must certify the output.
	res := Run(data, master, rules, DefaultOptions())
	if rep := mustCheck(t, NewChecker(rules, master), res.Data); !rep.Clean() {
		t.Errorf("pipeline output not certified:\n%s", rep)
	} else if got := rep.String(); !strings.Contains(got, "certified clean") {
		t.Errorf("clean rendering = %q", got)
	}
}

// TestHRepairFrozenDisagreementRetractsMinority: when deterministic fixes
// disagree within one variable-CFD group, only the members frozen at
// minority values are retracted from the rule's scope; the plurality frozen
// value's tuples keep their data and the group still certifies clean.
func TestHRepairFrozenDisagreementRetractsMinority(t *testing.T) {
	dschema := relation.NewSchema("R", "K", "B", "A")
	data := relation.New(dschema)
	add := func(k, b, a string, kconf float64) {
		tp := data.Append(k, b, a)
		tp.Conf[0], tp.Conf[1], tp.Conf[2] = kconf, 0.9, 0.5
	}
	add("k", "1", "x", 0.9)
	add("k", "1", "x", 0.9)
	add("k", "2", "y", 0.5) // untrusted K: the only eligible retraction site

	cfds, _, err := rule.ParseRules(dschema, nil, `
cfd B=1 -> A=x
cfd B=2 -> A=y
cfd K -> A
`)
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	res := Run(data, nil, rule.Derive(cfds, nil), DefaultOptions())

	for i := 0; i < 2; i++ {
		if got := res.Data.Tuples[i]; got.Values[0] != "k" || got.Values[2] != "x" {
			t.Errorf("t%d = %v, want majority tuple left intact", i, got.Values)
		}
	}
	t2 := res.Data.Tuples[2]
	if !relation.IsNull(t2.Values[0]) {
		t.Errorf("t2[K] = %q, want null (retracted from the group)", t2.Values[0])
	}
	if t2.Values[2] != "y" {
		t.Errorf("t2[A] = %q, want the frozen %q kept", t2.Values[2], "y")
	}
	if !res.Report.Clean() {
		t.Errorf("report not clean:\n%s", res.Report)
	}
}
