package suffixtree

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/similarity"
)

func TestContains(t *testing.T) {
	tr := New()
	tr.Add("banana")
	tr.Add("bandana")
	for _, sub := range []string{"banana", "anana", "nan", "a", "bandana", "ndan", ""} {
		if !contains(tr, sub) {
			t.Errorf("Contains(%q) = false", sub)
		}
	}
	for _, sub := range []string{"bananas", "xyz", "bb", "aaa"} {
		if contains(tr, sub) {
			t.Errorf("Contains(%q) = true", sub)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if contains(tr, "") {
		t.Error("empty tree contains empty string")
	}
	if got := tr.StringsWithCommonSubstring("x", 1); got != nil {
		t.Errorf("StringsWithCommonSubstring = %v", got)
	}
	if got := tr.TopL("abc", 3, 1); got != nil {
		t.Errorf("TopL = %v", got)
	}
}

func TestStringsContaining(t *testing.T) {
	tr := New()
	tr.Add("banana")  // 0
	tr.Add("bandana") // 1
	tr.Add("cabana")  // 2
	cases := []struct {
		sub  string
		want []int
	}{
		{"ana", []int{0, 1, 2}},
		{"band", []int{1}},
		{"nan", []int{0}},
		{"cab", []int{2}},
		{"zzz", nil},
	}
	for _, c := range cases {
		got := containing(tr, c.sub)
		if !equalInts(got, c.want) {
			t.Errorf("strings containing %q = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestStringAccessor(t *testing.T) {
	tr := New()
	id := tr.Add("hello")
	if tr.String(id) != "hello" || tr.Len() != 1 {
		t.Error("String/Len broken")
	}
}

func TestTopLRanksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := "abcd"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return b.String()
	}
	for trial := 0; trial < 30; trial++ {
		tr := New()
		n := 5 + rng.Intn(15)
		seen := make(map[string]bool)
		for i := 0; i < n; i++ {
			s := randStr(3 + rng.Intn(10))
			if seen[s] {
				continue
			}
			seen[s] = true
			tr.Add(s)
		}
		v := randStr(3 + rng.Intn(10))
		got := tr.TopL(v, tr.Len(), 1)
		// Brute force: exact LCS per string.
		for _, m := range got {
			want := similarity.LCSubstring(v, tr.String(m.ID))
			if m.LCS != want {
				t.Fatalf("TopL LCS for %q vs %q = %d, want %d", v, tr.String(m.ID), m.LCS, want)
			}
		}
		// Every string with LCS >= 1 must be reported.
		for id := 0; id < tr.Len(); id++ {
			want := similarity.LCSubstring(v, tr.String(id))
			found := false
			for _, m := range got {
				if m.ID == id {
					found = true
					break
				}
			}
			if want >= 1 && !found {
				t.Fatalf("string %q with LCS %d missing from TopL(%q)", tr.String(id), want, v)
			}
		}
		// Ranking must be by LCS descending.
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].LCS != got[j].LCS {
				return got[i].LCS > got[j].LCS
			}
			return got[i].ID < got[j].ID
		}) {
			t.Fatal("TopL not sorted")
		}
	}
}

func TestTopLMinLenFilters(t *testing.T) {
	tr := New()
	tr.Add("abcdef") // LCS with query = 6
	tr.Add("xbzqzz") // LCS with query = 1 ("b")
	got := tr.TopL("abcdef", 10, 3)
	if len(got) != 1 || got[0].ID != 0 || got[0].LCS != 6 {
		t.Errorf("TopL = %v", got)
	}
}

func TestTopLLimit(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Add("common" + strings.Repeat("x", i+1))
	}
	got := tr.TopL("common", 3, 2)
	if len(got) != 3 {
		t.Errorf("TopL limit = %d results", len(got))
	}
	if got := tr.TopL("common", 0, 2); got != nil {
		t.Errorf("TopL(l=0) = %v", got)
	}
}

func TestTopLBlockingFindsEditNeighbors(t *testing.T) {
	// Strings within edit distance K of the query must appear among the
	// candidates when minLen is set from the blocking bound.
	tr := New()
	master := []string{"3256778", "3887644", "9284773", "EH8 9LE", "WC1H 9SE"}
	for _, s := range master {
		tr.Add(s)
	}
	query := "3887834" // edit distance 2 from 3887644
	k := 2
	minLen := len(query) / (k + 1)
	got := tr.TopL(query, 3, minLen)
	found := false
	for _, m := range got {
		if tr.String(m.ID) == "3887644" {
			found = true
		}
	}
	if !found {
		t.Errorf("edit-neighbor not in candidates: %v", got)
	}
}

func TestRepeatedCharacters(t *testing.T) {
	tr := New()
	tr.Add("aaaa")
	tr.Add("aa")
	if !contains(tr, "aaa") || contains(tr, "aaaaa") {
		t.Error("repeated-char containment wrong")
	}
	ids := containing(tr, "aa")
	if !equalInts(ids, []int{0, 1}) {
		t.Errorf("strings containing aa = %v", ids)
	}
}

// contains reports whether sub is a substring of some indexed string: the
// empty string is one of any non-empty tree, and a non-empty sub is one of
// the strings it shares a common substring of length |sub| with.
func contains(tr *Tree, sub string) bool {
	if sub == "" {
		return tr.Len() > 0
	}
	return tr.StringsWithCommonSubstring(sub, len(sub)) != nil
}

// containing returns the ids of the indexed strings that contain a
// non-empty sub: those sharing with it a common substring of length |sub|.
func containing(tr *Tree, sub string) []int {
	var out []int
	for _, id := range tr.StringsWithCommonSubstring(sub, len(sub)) {
		out = append(out, int(id))
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStringsWithCommonSubstringAgainstBruteForce pins the exact enumeration
// the Checker's blocked certification relies on: for random trees and
// queries, the result must be precisely the ids whose string shares a
// substring of length >= minLen with the query — no ranking, no truncation —
// in ascending id order.
func TestStringsWithCommonSubstringAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alpha := "abc"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return b.String()
	}
	for trial := 0; trial < 50; trial++ {
		tr := New()
		seen := make(map[string]bool)
		for i, n := 0, 4+rng.Intn(12); i < n; i++ {
			s := randStr(2 + rng.Intn(9))
			if seen[s] {
				continue
			}
			seen[s] = true
			tr.Add(s)
		}
		v := randStr(2 + rng.Intn(9))
		for minLen := 1; minLen <= 4; minLen++ {
			got := tr.StringsWithCommonSubstring(v, minLen)
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("ids not ascending: %v", got)
			}
			gotSet := make(map[int32]bool, len(got))
			for _, id := range got {
				gotSet[id] = true
			}
			for id := 0; id < tr.Len(); id++ {
				want := similarity.LCSubstring(v, tr.String(id)) >= minLen
				if want != gotSet[int32(id)] {
					t.Fatalf("query %q minLen %d: string %q (id %d) in result = %v, want %v",
						v, minLen, tr.String(id), id, gotSet[int32(id)], want)
				}
			}
		}
	}
}

// TestStringsWithCommonSubstringRejectsVacuousBound: a minLen below 1 would
// silently drop strings within edit distance of the query that share no
// substring at all — the enumeration must refuse instead of being wrong.
func TestStringsWithCommonSubstringRejectsVacuousBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("minLen 0 did not panic")
		}
	}()
	tr := New()
	tr.Add("abc")
	tr.StringsWithCommonSubstring("ab", 0)
}
