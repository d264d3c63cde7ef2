package clean

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
)

// TestMatcherMemoSharedAcrossForks probes the sim-MD corpus through forks of
// one similarity matcher running concurrently under fanOut, each task in a
// different tuple order, so the shared per-value memo is filled and read
// from several goroutines at once. Every block and certCandidates list must
// equal the one computed directly from a fresh tree that has no memo.
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
				block, _ := x.block(data.Tuples[i])
				cert, ok := x.certCandidates(data.Tuples[i])
				got[task][i] = fmt.Sprint(block, cert, ok)
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

// directLists renders what block and certCandidates must return for tp,
// computed straight from x's tree and id lists without touching its memo.
func directLists(x *matcher, tp *relation.Tuple, topL int) string {
	v := tp.Values[x.simData]
	if relation.IsNull(v) {
		return fmt.Sprint([]int(nil), []int(nil), true)
	}
	var block []int
	for _, m := range x.tree.TopL(v, topL, len(v)/(x.simK+1)) {
		block = append(block, x.treeIDs[m.ID]...)
	}
	minLen := len(v) / (x.simK + 1)
	if minLen < 1 {
		return fmt.Sprint(block, []int(nil), false)
	}
	var cert []int
	for _, sid := range x.tree.StringsWithCommonSubstring(v, minLen) {
		cert = append(cert, x.treeIDs[sid]...)
	}
	slices.Sort(cert)
	return fmt.Sprint(block, cert, true)
}
