package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/gen"
	"repro/internal/rule"
)

func smallInstance(t *testing.T, seed int64) *instance {
	t.Helper()
	w := workload{name: "small", tuples: 2000, master: 300}
	in, err := load(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The phase-by-phase traced clean must produce RunContext's Result. If
// RunContext's pass loop changes, or the public phase API goes away, this
// fails instead of letting the traced per-layer numbers drift.
func TestTracedCleanEqualsRunContext(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		in := smallInstance(t, seed)
		for _, workers := range []int{0, 1} {
			opts := clean.DefaultOptions()
			opts.Workers = workers
			want, err := runClean(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			got, err := tracedClean(tr, 1, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Errorf("seed %d workers %d: traced clean differs from RunContext: %v", seed, workers, err)
			}
			if got.TotalVisits() != want.TotalVisits() || got.Data.DiffCells(want.Data) != 0 {
				t.Errorf("seed %d workers %d: visits %d vs %d, %d differing cells",
					seed, workers, got.TotalVisits(), want.TotalVisits(), got.Data.DiffCells(want.Data))
			}
			if share := accountedShare(tr); share < 0.95 || share > 1 {
				t.Errorf("seed %d: layer self times cover %.3f of the clean, want [0.95, 1]", seed, share)
			}
		}
	}
}

func TestDropRuleRemovesExactlyTheSimilarityMD(t *testing.T) {
	in := smallInstance(t, 1)
	w, err := lookupWorkload("hosp-50k-eq")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dropRule(in.Rules, w.drop)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range in.Rules {
		if r.Name() != simRule {
			want = append(want, r.Name())
		}
	}
	if len(want) != len(in.Rules)-1 || !reflect.DeepEqual(ruleNames(got), want) {
		t.Errorf("dropRule kept %v, want %v", ruleNames(got), want)
	}
	if _, _, ok := simClause(got); ok {
		t.Error("a similarity clause survived the filter")
	}
	if _, err := dropRule(got, simRule); err == nil {
		t.Error("dropping a rule that is not there succeeded")
	}
}

func TestGroundTruthIsTheCleanWorld(t *testing.T) {
	cfg := workload{tuples: 2000, master: 300}.config(3)
	dirty, truth := gen.Generate(cfg), groundTruth(cfg)
	if n := truth.Data.DiffCells(dirty.Data); n == 0 || n > dirty.Dirtied {
		t.Errorf("truth differs from the dirty data in %d cells, want 1..%d", n, dirty.Dirtied)
	}
	if truth.Master.DiffCells(dirty.Master) != 0 {
		t.Error("truth and dirty instance have different masters")
	}
	if !reflect.DeepEqual(ruleStrings(truth.Rules), ruleStrings(dirty.Rules)) {
		t.Error("truth and dirty instance have different rules")
	}
	if f1 := repairF1(dirty.Data, truth.Data, truth.Data); f1 != 1 {
		t.Errorf("a perfect repair scores F1 %v, want 1", f1)
	}
	if f1 := repairF1(dirty.Data, dirty.Data, truth.Data); f1 != 0 {
		t.Errorf("an empty repair scores F1 %v, want 0", f1)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 100 samples has 5 beyond it and must not be reported")
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 90 {
		t.Errorf("p50 of 81..100 = %v, %v; want 90, true", v, ok)
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Error("median of an even count is not the mean of the middle pair")
	}
}

// The metrics a run prints must be exactly the ones BENCHMARK.json lists.
func TestRunPrintsTheListedMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	t.Chdir(t.TempDir()) // a traced run writes its spans under the working directory
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "stream-2k", "--seconds", "0.1", "--trace", string(rune('0' + trace))}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("trace %d: run prints\n%v\nBENCHMARK.json lists\n%v", trace, got, exp)
		}
	}
}

func TestSameResultSeesACellChange(t *testing.T) {
	in := smallInstance(t, 1)
	a, err := runClean(in, seqOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runClean(in, seqOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(a, b); err != nil {
		t.Fatalf("two runs of one instance differ: %v", err)
	}
	b.Data.Tuples[7].Conf[1] += 0.01
	if sameResult(a, b) == nil {
		t.Error("a changed confidence went unnoticed")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("clean", -1, 1)
	tr.wrap("setup", root, 1, func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	self := tr.selfTimes()[1]
	if self["setup"] < 2*time.Millisecond || self["clean"] < 0 ||
		self["clean"]+self["setup"] != tr.spans[root].dur() {
		t.Errorf("self times %v do not split the root's %v", self, tr.spans[root].dur())
	}
}

func ruleNames(rules []rule.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name()
	}
	return out
}

func ruleStrings(rules []rule.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		if r.MD != nil {
			out[i] = r.Kind.String() + " " + r.MD.String()
		} else {
			out[i] = r.Kind.String() + " " + r.CFD.String()
		}
	}
	return out
}
