package suffixtree

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/similarity"
)

// FuzzTreeAgainstBruteForce compares both lookups with a brute-force LCS
// over arbitrary bytes: non-UTF-8 input, repeated bytes, duplicate and empty
// indexed strings, and bounds longer than the query. The indexed strings are
// corpus split at 0x00 bytes. TopL must return exactly the strings whose LCS
// with the query reaches max(minLen, 1), with their LCS, ranked by LCS
// descending then id ascending, truncated to l; StringsWithCommonSubstring
// must return exactly the ids reaching minLen, ascending.
func FuzzTreeAgainstBruteForce(f *testing.F) {
	f.Add([]byte("banana\x00bandana\x00cabana"), "ana", uint8(2), uint8(1))
	f.Add([]byte("aaaa\x00aa\x00aaaa\x00\x00a"), "aaa", uint8(8), uint8(2))
	f.Add([]byte("\xce\xb1\xce\xb2\x00\xff\xfe\x00\xce"), "\xce\xb2\xff", uint8(3), uint8(1))
	f.Add([]byte("abc\x00abd"), "ab", uint8(1), uint8(5))
	f.Add([]byte(""), "x", uint8(4), uint8(0))
	f.Add(blockCrossingCorpus(), "qhzkemvrla", uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, corpus []byte, q string, l, minLen uint8) {
		if len(corpus) > 1<<12 || len(q) > 1<<8 {
			return // the brute force is quadratic; size adds no new shapes
		}
		tr := New()
		var strs []string
		for _, s := range bytes.Split(corpus, []byte{0}) {
			strs = append(strs, string(s))
			tr.Add(string(s))
		}
		lcs := make([]int, len(strs))
		for id, s := range strs {
			lcs[id] = similarity.LCSubstring(q, s)
		}

		var want []Match
		if l > 0 {
			floor := max(int(minLen), 1)
			for id, n := range lcs {
				if n >= floor {
					want = append(want, Match{ID: id, LCS: n})
				}
			}
			slices.SortStableFunc(want, func(a, b Match) int { return b.LCS - a.LCS })
			if len(want) > int(l) {
				want = want[:l]
			}
		}
		if got := tr.TopL(q, int(l), int(minLen)); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopL(%q, %d, %d) over %q = %v, want %v", q, l, minLen, strs, got, want)
		}

		if minLen == 0 {
			return // the vacuous bound panics, pinned elsewhere
		}
		var wantIDs []int32
		for id, n := range lcs {
			if n >= int(minLen) {
				wantIDs = append(wantIDs, int32(id))
			}
		}
		if got := tr.StringsWithCommonSubstring(q, int(minLen)); !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("StringsWithCommonSubstring(%q, %d) over %q = %v, want %v", q, minLen, strs, got, wantIDs)
		}
	})
}

// blockCrossingCorpus is a fuzz seed whose tree spills over several node
// pages, id blocks and child blocks: 600 pseudo-random words over 16
// letters, 0x00-separated, about 3.5 KB.
func blockCrossingCorpus() []byte {
	var out []byte
	x := uint32(1)
	for w := 0; w < 600; w++ {
		if w > 0 {
			out = append(out, 0)
		}
		for range 5 {
			x = x*1664525 + 1013904223
			out = append(out, "abcdefghklmqrvxz"[x>>28])
		}
	}
	return out
}

func TestBlockCrossingCorpusSpansBlocks(t *testing.T) {
	tr := New()
	for _, s := range bytes.Split(blockCrossingCorpus(), []byte{0}) {
		tr.Add(string(s))
	}
	ids := 0
	for n := int32(0); n < tr.nodes; n++ {
		ids += len(tr.at(n).ids)
	}
	// More live ids than one block holds means the id arena spans blocks.
	if len(tr.pages) < 2 || len(tr.kids) < 2 || ids <= arenaBlock {
		t.Errorf("seed spans %d node pages, %d child blocks and %d ids; want >= 2 pages, >= 2 child blocks and > %d ids",
			len(tr.pages), len(tr.kids), ids, arenaBlock)
	}
}
