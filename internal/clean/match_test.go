package clean

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
)

// TestMatcherMemoSharedAcrossForks probes the sim-MD corpus through forks of
// one similarity matcher running concurrently under fanOut, each task in a
// different tuple order, so the shared memo is filled and read
// from several goroutines at once. Every lookup and certCandidates result
// must equal the one computed directly from a fresh tree that has no memo.
// CI runs it under -race with -count=10.
func TestMatcherMemoSharedAcrossForks(t *testing.T) {
	const tasks, workers = 8, 4
	topL := DefaultOptions().TopL
	for seed := int64(0); seed < 100; seed++ {
		in := genSimInstance(seed)
		var r rule.Rule
		for _, r = range in.rules {
			if r.Kind == rule.MatchMD {
				break
			}
		}
		data := in.data()
		want := make([]string, data.Len())
		fresh := newMatcher(r.MD, in.master, topL)
		for i, tp := range data.Tuples {
			want[i] = directLists(fresh, tp, topL)
		}

		proto := newMatcher(r.MD, in.master, topL)
		got := make([][]string, tasks)
		err := fanOut(context.Background(), "memo", workers, tasks, func(task int) {
			x := proto.fork()
			got[task] = make([]string, data.Len())
			for k := range data.Tuples {
				// A different order per task: rotated, and reversed for
				// odd tasks.
				i := (k + task*data.Len()/tasks) % data.Len()
				if task%2 == 1 {
					i = data.Len() - 1 - i
				}
				raw, ids, _ := x.lookup(data.Tuples[i])
				craw, cert, ok := x.certCandidates(data.Tuples[i])
				got[task][i] = fmt.Sprint(raw, ids, craw, cert, ok)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for task := range got {
			for i := range want {
				if got[task][i] != want[i] {
					t.Fatalf("seed %d task %d tuple %d: memoized %s, fresh tree %s",
						seed, task, i, got[task][i], want[i])
				}
			}
		}
	}
}

// directLists renders what lookup and certCandidates must return for tp:
// the raw lengths of the lists computed straight from x's tree and id
// lists, without touching its memo, and those lists passed through verify.
func directLists(x *matcher, tp *relation.Tuple, topL int) string {
	v := tp.Values[x.simData]
	if relation.IsNull(v) {
		return fmt.Sprint(0, []int(nil), 0, []int(nil), true)
	}
	var block []int
	for _, m := range x.tree.TopL(v, topL, len(v)/(x.simK+1)) {
		block = append(block, x.treeIDs[m.ID]...)
	}
	minLen := len(v) / (x.simK + 1)
	if minLen < 1 {
		return fmt.Sprint(len(block), x.verify(tp, block), 0, []int(nil), false)
	}
	var cert []int
	for _, sid := range x.tree.StringsWithCommonSubstring(v, minLen) {
		cert = append(cert, x.treeIDs[sid]...)
	}
	slices.Sort(cert)
	return fmt.Sprint(len(block), x.verify(tp, block), len(cert), x.verify(tp, cert), true)
}

func TestBuildEqIndexBucketsAscending(t *testing.T) {
	m := relation.New(relation.NewSchema("m", "K", "V"))
	for _, row := range [][2]string{{"a", "1"}, {"b", "1"}, {"a", "2"}, {"c", "1"}, {"a", "1"}} {
		m.Append(row[0], row[1])
	}
	got := buildEqIndex(m, []int{0})
	want := map[string][]int{"a": {0, 2, 4}, "b": {1}, "c": {3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buildEqIndex = %v, want %v", got, want)
	}
}
