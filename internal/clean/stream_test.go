package clean

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/rule"
)

// genOps derives a deterministic streaming-op sequence for an instance of
// n0 tuples over the propInstance schema (4 attributes A–D with small
// lowercase domains): a mix of overwrites, appends, resurrections and
// deletes, every op valid at its position. Confidences are mostly below
// eta, with an occasional trusted row so updates also exercise freezing.
func genOps(n0 int, seed int64) []gen.Update {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	attrs := []string{"a", "b", "c", "d"}
	live := make([]bool, n0)
	for i := range live {
		live[i] = true
	}
	nLive := n0

	row := func() ([]string, []float64) {
		vals := make([]string, len(attrs))
		conf := make([]float64, len(attrs))
		trusted := rng.Intn(5) == 0
		for a := range attrs {
			if rng.Intn(10) == 0 {
				vals[a] = relation.Null
			} else {
				vals[a] = fmt.Sprintf("%s%d", attrs[a], rng.Intn(4))
			}
			if trusted {
				conf[a] = 0.8 + 0.2*rng.Float64()
			} else {
				conf[a] = rng.Float64() * 0.75
			}
		}
		return vals, conf
	}

	nOps := 3 + rng.Intn(4)
	out := make([]gen.Update, 0, nOps)
	for len(out) < nOps {
		if nLive > 0 && rng.Intn(5) == 0 {
			id := rng.Intn(len(live))
			for !live[id] {
				id = rng.Intn(len(live))
			}
			live[id] = false
			nLive--
			out = append(out, gen.Update{Delete: true, ID: id})
			continue
		}
		vals, conf := row()
		var id int
		if rng.Intn(3) == 0 || len(live) == 0 {
			id = len(live)
			live = append(live, true)
			nLive++
		} else {
			id = rng.Intn(len(live))
			if !live[id] {
				live[id] = true
				nLive++
			}
		}
		out = append(out, gen.Update{ID: id, Values: vals, Conf: conf})
	}
	return out
}

// validOps reports whether ops replays cleanly against an instance of n0
// tuples: deletes hit live ids, appends use the exact next id. The
// shrinker uses it to discard candidate subsequences that would merely
// trip input validation instead of reproducing a failure.
func validOps(n0 int, ops []gen.Update) bool {
	live := make([]bool, n0)
	for i := range live {
		live[i] = true
	}
	for _, u := range ops {
		switch {
		case u.Delete:
			if u.ID < 0 || u.ID >= len(live) || !live[u.ID] {
				return false
			}
			live[u.ID] = false
		case u.ID == len(live):
			live = append(live, true)
		case u.ID < 0 || u.ID > len(live):
			return false
		default:
			live[u.ID] = true
		}
	}
	return true
}

// checkStream replays ops through a streaming engine and, after every
// accepted update, compares the engine's adopted state against a
// from-scratch run on the same accumulated base — the differential oracle.
// The bar is diffParallel's: cell state, Fixes, counters, matcher and
// applier statistics, the certified Report and its CertVisits must all be
// byte-identical. Returns a description of the first divergence, or "".
func checkStream(in streamCase, ops []gen.Update, opts Options) string {
	e, err := NewStream(in.data(), in.master, in.rules, opts)
	if err != nil {
		return fmt.Sprintf("NewStream: %v", err)
	}
	if d := diffParallel(e.Result(), Run(in.data(), in.master, in.rules, opts)); d != "" {
		return "initial run: " + d
	}
	acc := in.data()
	for oi, u := range ops {
		var res *Result
		if u.Delete {
			res, err = e.Delete(u.ID)
		} else {
			res, err = e.Upsert(u.ID, u.Values, u.Conf)
		}
		if err != nil {
			return fmt.Sprintf("op %d (%+v) rejected: %v", oi, u, err)
		}
		if res != e.Result() {
			return fmt.Sprintf("op %d: returned Result is not the engine's current Result", oi)
		}
		u.Apply(acc)
		oracle := Run(acc, in.master, in.rules, opts)
		if d := diffParallel(res, oracle); d != "" {
			return fmt.Sprintf("op %d (%+v): %s", oi, u, d)
		}
	}
	return ""
}

// streamCase is the instance a stream replay starts from: a fresh copy of
// its data relation per call, its master relation (nil when it has none),
// and its rules.
type streamCase struct {
	data   func() *relation.Relation
	master *relation.Relation
	rules  []rule.Rule
}

func (in *propInstance) streamCase() streamCase {
	return streamCase{data: func() *relation.Relation { return in.relation(nil) }, rules: in.rules}
}

func (in *simInstance) streamCase() streamCase {
	return streamCase{data: in.data, master: in.master, rules: in.rules}
}

// shrinkOps greedily minimizes a failing op sequence: it keeps dropping
// single ops (and re-validating the remainder) while the failure persists.
func shrinkOps(in streamCase, ops []gen.Update, opts Options) []gen.Update {
	n0 := in.data().Len()
	for i := 0; i < len(ops); {
		cand := append(append([]gen.Update(nil), ops[:i]...), ops[i+1:]...)
		if validOps(n0, cand) && checkStream(in, cand, opts) != "" {
			ops = cand
			continue
		}
		i++
	}
	return ops
}

// TestPropertyStreamEquivalence is the streaming layer's acceptance bar:
// over the seeded dirty corpus, random interleaved Upsert/Delete sequences
// must keep the engine fix-for-fix and byte-for-byte identical to a
// from-scratch RunContext on the accumulated base instance — cell state,
// Fixes, conflicts, rounds, work counters, and the certified Report
// included — under both the sequential and the 4-worker engine. CI runs it
// under -race (the stream-sweep job).
func TestPropertyStreamEquivalence(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	for _, mode := range faultModes() {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				in := genInstance(seed)
				ops := genOps(len(in.rows), seed)
				if msg := checkStream(in.streamCase(), ops, mode.opts); msg != "" {
					ops = shrinkOps(in.streamCase(), ops, mode.opts)
					t.Fatalf("seed %d: %s\nshrunk ops: %+v", seed, msg, ops)
				}
			}
		})
	}
}

// genSimOps derives a deterministic streaming-op sequence for a sim-MD
// instance, in the shape genOps gives the nil-master corpus: overwrites,
// appends, resurrections and deletes, every op valid at its position. New
// names are a few edits away from names already in the instance, so
// updates keep hitting the similarity MD's memoized lookups, with a share
// of never-seen values, nulls and names too short for the LCS bound.
func genSimOps(in *simInstance, seed int64) []gen.Update {
	rng := rand.New(rand.NewSource(seed ^ 0x51a0))
	nameAttr := in.dschema.MustIndex("name")
	const alphabet = "abc"
	name := func() string {
		switch rng.Intn(10) {
		case 0:
			return relation.Null
		case 1:
			i := rng.Intn(3)
			return alphabet[i : i+1]
		}
		b := []byte(in.rows[rng.Intn(len(in.rows))][nameAttr])
		if relation.IsNull(string(b)) {
			b = []byte("abcab")
		}
		for k := rng.Intn(3); k > 0 && len(b) > 1; k-- {
			b[rng.Intn(len(b))] = alphabet[rng.Intn(3)]
		}
		return string(b)
	}
	live := len(in.rows)
	deleted := make(map[int]bool)
	var out []gen.Update
	for n := 3 + rng.Intn(4); len(out) < n; {
		if rng.Intn(5) == 0 {
			id := rng.Intn(live)
			if !deleted[id] {
				deleted[id] = true
				out = append(out, gen.Update{Delete: true, ID: id})
			}
			continue
		}
		id := rng.Intn(live + 1)
		if id == live {
			live++
		}
		delete(deleted, id)
		conf := make([]float64, 4)
		for a := range conf {
			conf[a] = rng.Float64() * 0.75
		}
		out = append(out, gen.Update{ID: id, Conf: conf, Values: []string{
			fmt.Sprintf("a%d", rng.Intn(3)), fmt.Sprintf("b%d", rng.Intn(3)),
			name(), fmt.Sprintf("c%d", rng.Intn(3)),
		}})
	}
	return out
}

// TestPropertyStreamEquivalenceSimMD replays update streams over the sim-MD
// corpus, where stream sub-runs share the similarity matcher's per-value
// memo through the prototype matchers: every accepted update must stay on
// the from-scratch oracle, sequentially and with 4 workers.
func TestPropertyStreamEquivalenceSimMD(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	seq := DefaultOptions()
	seq.Workers = 1
	pool := DefaultOptions()
	pool.Workers = 4
	for _, mode := range []faultMode{{"seq", seq}, {"pool", pool}} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				in := genSimInstance(seed)
				ops := genSimOps(in, seed)
				if msg := checkStream(in.streamCase(), ops, mode.opts); msg != "" {
					ops = shrinkOps(in.streamCase(), ops, mode.opts)
					t.Fatalf("seed %d: %s\nshrunk ops: %+v", seed, msg, ops)
				}
			}
		})
	}
}

// TestPropertyStreamFaultInjection composes the streaming layer with the
// fault injector: with panics, cancellations and delays armed at the
// apply/seed/certify hooks, every update must either fail with a
// typed error and leave the engine bit-unchanged — base, cleaned state and
// Report exactly as the last accepted update left them — or complete and
// stay on the oracle. After the whole sequence, the engine must be
// byte-identical to a fault-free from-scratch run on the accepted base:
// degraded or left as it was, never divergent.
func TestPropertyStreamFaultInjection(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	configs := faultConfigs()
	for _, mode := range faultModes() {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				in := genInstance(seed)
				ops := genOps(len(in.rows), seed)
				for _, cfg := range configs {
					opts := mode.opts
					inj := fault.New(seed, cfg.rules...)
					opts.Fault = inj

					ctx0, cancel0 := context.WithCancel(context.Background())
					inj.OnCancel(cancel0)
					e, err := NewStreamContext(ctx0, in.relation(nil), nil, in.rules, opts)
					cancel0()
					if err != nil {
						if !typedFailure(err) {
							t.Fatalf("seed %d %s: NewStream failed untyped: %v", seed, cfg.name, err)
						}
						continue
					}

					acc := in.relation(nil)
					for oi, u := range ops {
						ctx, cancel := context.WithCancel(context.Background())
						inj.OnCancel(cancel)
						before := snapshot(e.Result().Data)
						beforeRep := e.Result().Report.String()
						var err error
						if u.Delete {
							_, err = e.DeleteContext(ctx, u.ID)
						} else {
							_, err = e.UpsertContext(ctx, u.ID, u.Values, u.Conf)
						}
						cancel()
						if err != nil {
							// A faulted update may abort (typed), and an
							// earlier aborted append can invalidate a later
							// op's id (ErrBadUpdate); both must leave the
							// engine exactly as it was.
							if !typedFailure(err) && !errors.Is(err, ErrBadUpdate) {
								t.Fatalf("seed %d %s op %d: untyped error: %v", seed, cfg.name, oi, err)
							}
							if !reflect.DeepEqual(snapshot(e.Result().Data), before) {
								t.Fatalf("seed %d %s op %d: failed update mutated the cleaned state", seed, cfg.name, oi)
							}
							if e.Result().Report.String() != beforeRep {
								t.Fatalf("seed %d %s op %d: failed update mutated the Report", seed, cfg.name, oi)
							}
							continue
						}
						u.Apply(acc)
					}

					clean := mode.opts // fault-free oracle options
					if d := diffParallel(e.Result(), Run(acc, nil, in.rules, clean)); d != "" {
						t.Fatalf("seed %d %s: final state diverged from the fault-free oracle on the accepted base: %s",
							seed, cfg.name, d)
					}
				}
			}
		})
	}
}

// TestDeleteEvictsFrozenEntropyGroup pins the satellite fix: deleting a
// tuple whose trusted cells dictated a frozen eRepair group resolution
// must evict its entropy contribution and re-key the group, so the
// surviving members resolve from the remaining evidence — exactly as a
// from-scratch run on the post-delete base does. Before the rebase-and-
// rerun semantics, the live AVL had no removal path keyed by external
// deletes and the stale frozen value would have stuck.
func TestDeleteEvictsFrozenEntropyGroup(t *testing.T) {
	schema := relation.NewSchema("R", "A", "B")
	rules := rule.Derive([]*cfd.CFD{cfd.FD("fd", schema, []string{"A"}, "B")}, nil)

	data := relation.New(schema)
	t0 := data.Append("g", "x")
	t0.Conf[0], t0.Conf[1] = 0.5, 0.9 // trusted B: freezes "x"
	t1 := data.Append("g", "x")
	t1.Conf[0], t1.Conf[1] = 0.5, 0.9
	t2 := data.Append("g", "y")
	t2.Conf[0], t2.Conf[1] = 0.5, 0.3 // untrusted dissent

	for _, mode := range faultModes() {
		t.Run(mode.name, func(t *testing.T) {
			e, err := NewStream(data.Clone(), nil, rules, mode.opts)
			if err != nil {
				t.Fatalf("NewStream: %v", err)
			}
			if got := e.Result().Data.Tuples[2].Values[1]; got != "x" {
				t.Fatalf("initial resolution: t2[B] = %q, want %q (frozen plurality)", got, "x")
			}

			// Deleting both trusted members removes the frozen evidence.
			acc := data.Clone()
			for _, id := range []int{0, 1} {
				if _, err := e.Delete(id); err != nil {
					t.Fatalf("Delete(%d): %v", id, err)
				}
				gen.Update{Delete: true, ID: id}.Apply(acc)
				if d := diffParallel(e.Result(), Run(acc, nil, rules, mode.opts)); d != "" {
					t.Fatalf("after Delete(%d): %s", id, d)
				}
			}
			if got := e.Result().Data.Tuples[2].Values[1]; got != "y" {
				t.Errorf("post-delete resolution: t2[B] = %q, want %q (its own value, evidence evicted)", got, "y")
			}
			if !e.Deleted(0) || !e.Deleted(1) || e.Deleted(2) {
				t.Errorf("tombstone set wrong: %v %v %v", e.Deleted(0), e.Deleted(1), e.Deleted(2))
			}
			for _, id := range []int{0, 1} {
				for a := 0; a < 2; a++ {
					if v := e.Result().Data.Tuples[id].Values[a]; !relation.IsNull(v) {
						t.Errorf("tombstoned t%d[%d] = %q, want null", id, a, v)
					}
				}
			}
		})
	}
}

// streamEdgeFixture builds the Report edge workload: two
// contradictory constant CFDs over trusted cells — the engine enforces one
// (phi2's value wins) and the other's violations persist, since the
// trusted LHS may not be retracted — plus an independent clean FD over
// attributes the conflict never reads. conflicts of the tuples match the
// constant pattern; the rest are neutral.
func streamEdgeFixture(tuples, conflicts int) (*relation.Relation, []rule.Rule) {
	schema := relation.NewSchema("R", "A", "B", "C", "D")
	rules := rule.Derive([]*cfd.CFD{
		cfd.New("phi1", schema, []string{"A"}, []string{"1"}, "B", "x"),
		cfd.New("phi2", schema, []string{"A"}, []string{"1"}, "B", "y"),
		cfd.FD("fdCD", schema, []string{"C"}, "D"),
	}, nil)
	data := relation.New(schema)
	for i := 0; i < tuples; i++ {
		a := fmt.Sprintf("a%d", i)
		if i < conflicts {
			a = "1"
		}
		data.Append(a, "zzz", fmt.Sprintf("c%d", i), fmt.Sprintf("d%d", i))
	}
	data.SetAllConf(0.9)
	return data, rules
}

// TestStreamReportRuleFlips exercises the re-certified Report's edge cases
// across updates: a rule going dirty→clean→dirty, and a rule untouched by
// any update keeping RuleClean's (clean, known) contract. Every step is
// also held to the from-scratch oracle.
func TestStreamReportRuleFlips(t *testing.T) {
	data, rules := streamEdgeFixture(3, 1)
	opts := DefaultOptions()
	e, err := NewStream(data.Clone(), nil, rules, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	acc := data.Clone()
	if clean, known := e.Result().Report.RuleClean("phi1"); clean || !known {
		t.Fatalf("phi1 initially (clean=%v, known=%v), want the persistent conflict (false, true)", clean, known)
	}

	step := func(label string, u gen.Update, wantPhi1Clean bool) {
		t.Helper()
		res, err := e.Upsert(u.ID, u.Values, u.Conf)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		u.Apply(acc)
		if d := diffParallel(res, Run(acc, nil, rules, opts)); d != "" {
			t.Fatalf("%s: diverged from oracle: %s", label, d)
		}
		if clean, known := res.Report.RuleClean("phi1"); !known || clean != wantPhi1Clean {
			t.Errorf("%s: phi1 (clean=%v, known=%v), want (%v, true)", label, clean, known, wantPhi1Clean)
		}
		// fdCD's attributes are never written: its (clean, known) contract
		// must survive every re-certification.
		if clean, known := res.Report.RuleClean("fdCD"); !clean || !known {
			t.Errorf("%s: untouched fdCD (clean=%v, known=%v), want (true, true)", label, clean, known)
		}
	}

	trusted := []float64{0.9, 0.9, 0.9, 0.9}
	// Clean: t0 leaves the constant pattern, making phi1 vacuous.
	step("phi1 goes clean", gen.Update{ID: 0, Values: []string{"a9", "zzz", "c0", "d0"}, Conf: trusted}, true)
	// Dirty again: the same rule re-dirties on a later update.
	step("phi1 dirty again", gen.Update{ID: 0, Values: []string{"1", "zzz", "c0", "d0"}, Conf: trusted}, false)
}

// TestStreamCapAcrossUpdates drives the per-rule violation cap through
// updates: a rule with far more violations than maxStoredPerRule must keep
// its exact count, its capped listing and its Truncated tally when an
// update leaves its columns alone, and re-truncate correctly when a later
// update changes its count. The oracle comparison makes the cap
// byte-identical to a from-scratch certification either way.
func TestStreamCapAcrossUpdates(t *testing.T) {
	n := maxStoredPerRule + 20
	data, rules := streamEdgeFixture(n, n)
	opts := DefaultOptions()
	e, err := NewStream(data.Clone(), nil, rules, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	acc := data.Clone()
	if e.Result().Report.Truncated == 0 {
		t.Fatalf("fixture must overflow the per-rule cap; report: truncated=0, cfd=%d", e.Result().Report.NumCFD())
	}

	apply := func(label string, u gen.Update) *Report {
		t.Helper()
		res, err := e.Upsert(u.ID, u.Values, u.Conf)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		u.Apply(acc)
		if d := diffParallel(res, Run(acc, nil, rules, opts)); d != "" {
			t.Fatalf("%s: diverged from oracle: %s", label, d)
		}
		return res.Report
	}

	trusted := []float64{0.9, 0.9, 0.9, 0.9}
	losing := "phi1" // phi2's value wins the conflict; phi1's violations persist
	if rep := e.Result().Report; rep.byRule[losing] != n {
		t.Fatalf("fixture: byRule[%s] = %d, want %d", losing, rep.byRule[losing], n)
	}
	// Touch only C/D: the overflowing conflict rules keep their count,
	// cap and truncation tally.
	rep := apply("untouched", gen.Update{ID: 0, Values: []string{"1", "zzz", "cQ", "dQ"}, Conf: trusted})
	if rep.byRule[losing] != n || rep.Truncated == 0 {
		t.Errorf("untouched report: byRule[%s] = %d (want %d), truncated = %d (want > 0)",
			losing, rep.byRule[losing], n, rep.Truncated)
	}
	// Pull t0 out of the constant pattern: the count drops by one, and the
	// cap re-truncates over the remainder.
	rep = apply("re-checked", gen.Update{ID: 0, Values: []string{"a0", "zzz", "cQ", "dQ"}, Conf: trusted})
	if rep.byRule[losing] != n-1 || rep.Truncated == 0 {
		t.Errorf("re-checked report: byRule[%s] = %d (want %d), truncated = %d (want > 0)",
			losing, rep.byRule[losing], n-1, rep.Truncated)
	}
}

// TestStreamWithMaster runs the streaming layer over the paper's Figure 1
// workload — MD rules, blocking indexes, master data — with 4 workers:
// upserts and a delete must stay on the from-scratch oracle, with
// the forked prototype indexes reproducing a cold build's match counters.
func TestStreamWithMaster(t *testing.T) {
	data, master, rules := figure1(t)
	opts := DefaultOptions()
	opts.Workers = 4
	e, err := NewStream(data.Clone(), master, rules, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	acc := data.Clone()
	if d := diffParallel(e.Result(), Run(acc, master, rules, opts)); d != "" {
		t.Fatalf("initial run: %s", d)
	}

	ops := []gen.Update{
		// A new dirty transaction for Mary Smith: wrong city, missing street.
		{ID: 5, Values: []string{"Mary", "Smith", "", "Edi", "020", "NW1 6XE", "7654321"},
			Conf: []float64{0.9, 0.9, 0, 0.3, 0.9, 0.9, 0.9}},
		// Overwrite t2 with a fresh dirty Brady row.
		{ID: 2, Values: []string{"Bob", "Brady", "501 Elm St", "Edi", "131", "EH7 4AH", "3887644"},
			Conf: []float64{0.4, 0.9, 0.4, 0.9, 0.9, 0.9, 0.9}},
		{Delete: true, ID: 1},
	}
	for oi, u := range ops {
		var res *Result
		if u.Delete {
			res, err = e.Delete(u.ID)
		} else {
			res, err = e.Upsert(u.ID, u.Values, u.Conf)
		}
		if err != nil {
			t.Fatalf("op %d: %v", oi, err)
		}
		u.Apply(acc)
		if d := diffParallel(res, Run(acc, master, rules, opts)); d != "" {
			t.Fatalf("op %d: %s", oi, d)
		}
	}
}

// TestStreamRejectsBadUpdates pins the validation surface and the
// bit-unchanged failure contract for rejected inputs, plus ErrNotStreaming
// and an empty tombstone set on batch engines.
func TestStreamRejectsBadUpdates(t *testing.T) {
	in := genInstance(3)
	opts := DefaultOptions()
	e, err := NewStream(in.relation(nil), nil, in.rules, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	n := e.Result().Data.Len()
	before := snapshot(e.Result().Data)
	beforeRep := e.Result().Report.String()

	vals4 := []string{"a0", "b0", "c0", "d0"}
	bad := []struct {
		name string
		call func() error
	}{
		{"upsert id beyond append", func() error { _, err := e.Upsert(n+1, vals4, nil); return err }},
		{"upsert negative id", func() error { _, err := e.Upsert(-1, vals4, nil); return err }},
		{"upsert arity", func() error { _, err := e.Upsert(0, []string{"a0"}, nil); return err }},
		{"upsert conf arity", func() error { _, err := e.Upsert(0, vals4, []float64{0.5}); return err }},
		{"upsert conf range", func() error { _, err := e.Upsert(0, vals4, []float64{0.5, 2, 0.5, 0.5}); return err }},
		{"delete out of range", func() error { _, err := e.Delete(n); return err }},
		{"delete negative", func() error { _, err := e.Delete(-1); return err }},
	}
	for _, tc := range bad {
		if err := tc.call(); !errors.Is(err, ErrBadUpdate) {
			t.Errorf("%s: err = %v, want ErrBadUpdate", tc.name, err)
		}
	}
	if _, err := e.Delete(0); err != nil {
		t.Fatalf("Delete(0): %v", err)
	}
	if _, err := e.Delete(0); !errors.Is(err, ErrBadUpdate) {
		t.Errorf("double delete: err = %v, want ErrBadUpdate", err)
	}
	if _, err := e.Upsert(0, vals4, nil); err != nil {
		t.Errorf("resurrecting upsert: %v", err)
	}

	// A fresh engine whose every update is rejected stays bit-unchanged.
	e2, err := NewStream(in.relation(nil), nil, in.rules, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	if _, err := e2.Upsert(-5, vals4, nil); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("err = %v, want ErrBadUpdate", err)
	}
	if !reflect.DeepEqual(snapshot(e2.Result().Data), before) || e2.Result().Report.String() != beforeRep {
		t.Error("rejected update mutated engine state")
	}

	batch := NewContext(context.Background(), in.relation(nil), nil, in.rules, opts)
	if _, err := batch.Upsert(0, vals4, nil); !errors.Is(err, ErrNotStreaming) {
		t.Errorf("batch Upsert: err = %v, want ErrNotStreaming", err)
	}
	if _, err := batch.Delete(0); !errors.Is(err, ErrNotStreaming) {
		t.Errorf("batch Delete: err = %v, want ErrNotStreaming", err)
	}
	if batch.Deleted(0) {
		t.Error("batch Deleted(0) = true, want false")
	}
}

// FuzzUpdateSequence feeds arbitrary encoded upsert/delete streams to a
// streaming engine: one op per line, "u,<id>,<v1>,...,<v4>" or "d,<id>".
// Hostile ids, wrong arities, empty and Unicode values must be rejected
// with ErrBadUpdate — never a panic — and accepted prefixes must hold the
// from-scratch differential oracle.
func FuzzUpdateSequence(f *testing.F) {
	f.Add("u,0,a0,b1,c0,d1\nd,2\nu,99,x,y,z,w")
	f.Add("d,0\nd,0\nd,-1")
	f.Add("u,24,à0,ñ1,, d1")
	f.Add("u,4,a0,b0,c0,d0\nu,5,a1,b1,c1,d1\nd,4")
	f.Add("u,0\nu,0,a0\nu,0,a0,b0,c0,d0,e0")
	f.Fuzz(func(t *testing.T, s string) {
		in := genInstance(7)
		opts := DefaultOptions()
		e, err := NewStream(in.relation(nil), nil, in.rules, opts)
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		acc := in.relation(nil)

		lines := strings.Split(s, "\n")
		if len(lines) > 32 {
			lines = lines[:32]
		}
		dirty := false
		for _, line := range lines {
			fields := strings.Split(line, ",")
			if len(fields) < 2 {
				continue
			}
			id, aerr := strconv.Atoi(fields[1])
			if aerr != nil {
				continue
			}
			switch fields[0] {
			case "d":
				if _, err := e.Delete(id); err != nil {
					if !errors.Is(err, ErrBadUpdate) {
						t.Fatalf("Delete(%d): untyped error %v", id, err)
					}
					continue
				}
				gen.Update{Delete: true, ID: id}.Apply(acc)
				dirty = true
			case "u":
				vals := fields[2:]
				conf := make([]float64, len(vals))
				for i := range conf {
					conf[i] = 0.5
				}
				if _, err := e.Upsert(id, vals, conf); err != nil {
					if !errors.Is(err, ErrBadUpdate) {
						t.Fatalf("Upsert(%d, %q): untyped error %v", id, vals, err)
					}
					continue
				}
				gen.Update{ID: id, Values: vals, Conf: conf}.Apply(acc)
				dirty = true
			}
		}
		if dirty {
			if d := diffParallel(e.Result(), Run(acc, nil, in.rules, opts)); d != "" {
				t.Fatalf("accepted stream diverged from oracle: %s", d)
			}
		}
	})
}
