package main

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/clean"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/rule"
)

// workload is one named input the benchmark generates from its seed.
// README.md and BENCHMARK.json say why each was chosen.
type workload struct {
	name   string
	tuples int
	master int
	// drop names a generated rule the workload removes before cleaning;
	// empty keeps the whole rule set.
	drop string
	// stream selects the update workload: NewStream once per epoch, then a
	// closed loop of Upsert/Delete calls. Otherwise the operation is one
	// full RunContext.
	stream bool
}

// simRule is the similarity-only MD of the generator, the rule whose
// suffix-tree blocking dominates the full workload.
const simRule = "md_name_sim"

var workloads = []workload{
	{name: "hosp-50k", tuples: 50000, master: 5000},
	{name: "hosp-50k-eq", tuples: 50000, master: 5000, drop: simRule},
	{name: "stream-2k", tuples: 2000, master: 300, stream: true},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// updateEpoch is the length of one generated update stream. Every epoch of
// the stream workload replays the same stream on a fresh engine, so the
// latency samples are drawn from one distribution however many epochs fit
// in the run.
const updateEpoch = 200

// config is the generator configuration of w at seed.
func (w workload) config(seed int64) gen.Config {
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize, cfg.Seed = w.tuples, w.master, seed
	return cfg
}

// instance is a generated workload with everything the checks need.
type instance struct {
	*gen.Instance
	// truth is the generator's clean world for the same configuration.
	truth *relation.Relation
	// mdNames lists every MD rule the generator produced, including a
	// dropped one, so per-rule matcher metrics have the same names on
	// every workload.
	mdNames []string
	// updates is the stream workload's update stream; nil for batch.
	updates []gen.Update
}

func load(w workload, seed int64) (*instance, error) {
	cfg := w.config(seed)
	inst := &instance{Instance: gen.Generate(cfg), truth: groundTruth(cfg).Data}
	for _, r := range inst.Rules {
		if r.Kind == rule.MatchMD {
			inst.mdNames = append(inst.mdNames, r.Name())
		}
	}
	if w.drop != "" {
		rules, err := dropRule(inst.Rules, w.drop)
		if err != nil {
			return nil, err
		}
		inst.Rules = rules
	}
	if w.stream {
		inst.updates = gen.GenerateUpdates(inst.Instance, gen.UpdateConfig{
			Updates:      updateEpoch,
			DeleteRate:   0.15,
			AppendRate:   0.25,
			HotGroupRate: 0.2,
			Seed:         seed,
		})
	}
	return inst, nil
}

// dropRule returns rules without the rule called name, which must exist.
func dropRule(rules []rule.Rule, name string) ([]rule.Rule, error) {
	out := make([]rule.Rule, 0, len(rules))
	for _, r := range rules {
		if r.Name() != name {
			out = append(out, r)
		}
	}
	if len(out) == len(rules) {
		return nil, fmt.Errorf("no rule named %q to drop", name)
	}
	return out, nil
}

// groundTruth regenerates cfg without errors. Error injection draws its
// random numbers only after every row exists, so the result is the dirty
// instance's clean world tuple for tuple, with the same master and rules.
func groundTruth(cfg gen.Config) *gen.Instance {
	cfg.ErrorRate = 0
	return gen.Generate(cfg)
}

// repairF1 scores the repaired relation against the clean world: precision
// over the cells the engine changed, recall over the cells the generator
// damaged.
func repairF1(dirty, repaired, truth *relation.Relation) float64 {
	var changed, changedRight, damaged, damagedFixed int
	for i, t := range dirty.Tuples {
		r, w := repaired.Tuples[i].Values, truth.Tuples[i].Values
		for a, v := range t.Values {
			if r[a] != v {
				changed++
				if r[a] == w[a] {
					changedRight++
				}
			}
			if v != w[a] {
				damaged++
				if r[a] == w[a] {
					damagedFixed++
				}
			}
		}
	}
	p, r := ratioOr1(changedRight, changed), ratioOr1(damagedFixed, damaged)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func ratioOr1(n, d int) float64 {
	if d == 0 {
		return 1
	}
	return float64(n) / float64(d)
}

// describe is the human-readable line saying what the load was.
func (in *instance) describe(share float64) string {
	names := make([]string, len(in.Rules))
	for i, r := range in.Rules {
		names[i] = r.Name()
	}
	s := fmt.Sprintf("load: tuples=%d master=%d dirtied=%d rules=[%s] suffixtree.distinct_query_share=%.4f",
		in.Data.Len(), in.Master.Len(), in.Dirtied, strings.Join(names, " "), share)
	if in.updates != nil {
		s += fmt.Sprintf(" updates_per_epoch=%d", len(in.updates))
	}
	return s
}

// sameResult returns the first deterministic observable on which got
// differs from want: fixes, asserts, conflicts, rounds, the applier and
// matcher work counters, the certified report and its visit counter, the
// resolved split, and every cell.
func sameResult(got, want *clean.Result) error {
	type field struct {
		name      string
		got, want any
	}
	for _, f := range []field{
		{"fixes", got.Fixes, want.Fixes},
		{"asserts", got.Asserts, want.Asserts},
		{"conflicts", got.Conflicts, want.Conflicts},
		{"rounds", [3]int{got.Rounds, got.HRounds, got.GroupsResolved}, [3]int{want.Rounds, want.HRounds, want.GroupsResolved}},
		{"applier visits", got.Apply, want.Apply},
		{"matcher stats", got.Match, want.Match},
		{"report", got.Report.String(), want.Report.String()},
		{"certify visits", got.Report.CertVisits, want.Report.CertVisits},
		{"resolved", [2][]string{got.Resolved, got.Unresolved}, [2][]string{want.Resolved, want.Unresolved}},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("%s differ", f.name)
		}
	}
	if got.Data.Len() != want.Data.Len() {
		return fmt.Errorf("%d tuples, want %d", got.Data.Len(), want.Data.Len())
	}
	for i, t := range got.Data.Tuples {
		u := want.Data.Tuples[i]
		if !reflect.DeepEqual(t.Values, u.Values) || !reflect.DeepEqual(t.Conf, u.Conf) || !reflect.DeepEqual(t.Marks, u.Marks) {
			return fmt.Errorf("tuple %d differs", i)
		}
	}
	return nil
}

// distinctShare is the share of distinct values among the non-null values
// of attribute a: how often a per-value lookup repeats an earlier one.
func distinctShare(d *relation.Relation, a int) float64 {
	seen := make(map[string]struct{})
	n := 0
	for _, t := range d.Tuples {
		if v := t.Values[a]; !relation.IsNull(v) {
			seen[v] = struct{}{}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(len(seen)) / float64(n)
}
