package clean

import (
	"slices"
	"sync"

	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/suffixtree"
)

// matcher finds, for a data tuple, the master tuples on which an MD premise
// holds, without scanning all of Dm (Section 5.2). Two blocking indexes are
// built over the master relation:
//
//   - a hash index keyed on the projection of the master attributes of the
//     equality clauses, when the MD has any;
//   - otherwise, a generalized suffix tree over the active domain of the
//     master attribute of the first edit-distance clause, queried with the
//     LCS bound LCSubstring >= max(|a|,|b|)/(K+1).
//
// Candidates from either index are then verified against the full premise.
// MDs with neither index (e.g. a single Jaro-Winkler clause) fall back to a
// full scan, which the stats expose so callers can notice.
type matcher struct {
	m      *md.MD
	master *relation.Relation
	topL   int // the repair path's TopL cap (Options.TopL)

	eqDataAttrs   []int // data attrs of equality clauses
	eqMasterAttrs []int // master attrs of equality clauses
	eqIndex       map[string][]int

	simData   int // data attr of the blockable edit clause, -1 if none
	simMaster int
	simK      int
	tree      *suffixtree.Tree
	treeIDs   [][]int // suffix-tree string id -> master tuple indexes
	memo      *simMemo
	premData  []int // data attrs of every premise clause: the memo key

	// allIDs is the identity list the index-less fallback scans, built once
	// and shared read-only with every fork.
	allIDs []int

	// keyBuf backs the equality-index key, probed as string(keyBuf), which
	// allocates nothing, and builds a multi-clause premise's memo key. It is
	// private per matcher; certification tasks probe through forks.
	keyBuf []byte

	stats MatchStats
}

// simMemo holds a similarity matcher's two suffix-tree enumerations per
// distinct premise projection of a data tuple, verified: block from the
// TopL-blocked strings in rank order (repair), cert from the ascending exact
// superset (certification). MatchLHS reads only the premise cells of the
// data tuple, and the tree and master are immutable, so an entry is a pure
// function of its key, and every fork of the matcher — certification
// tasks, stream sub-runs — shares the memo and reads equal entries
// whichever fork filled them. Returned lists must not be modified.
type simMemo struct {
	mu          sync.Mutex
	block, cert map[string]simEntry
}

type simEntry struct {
	raw int   // blocked candidates the premise was verified on
	ids []int // those on which it holds
}

// memoized returns tab's entry for t, keyed by t's projection on the premise
// data attributes — for a one-clause premise the value itself, sharing the
// tuple's bytes. A miss verifies blocked() outside the lock; a lost race
// only recomputes and stores an equal entry.
func (x *matcher) memoized(tab map[string]simEntry, t *relation.Tuple, blocked func() []int) simEntry {
	key := t.Values[x.simData]
	if len(x.premData) > 1 {
		x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.premData)
		key = string(x.keyBuf)
	}
	x.memo.mu.Lock()
	e, ok := tab[key]
	x.memo.mu.Unlock()
	if !ok {
		ids := blocked()
		e = simEntry{len(ids), x.verify(t, ids)}
		x.memo.mu.Lock()
		tab[key] = e
		x.memo.mu.Unlock()
	}
	return e
}

// fork returns a matcher sharing x's immutable blocking indexes — the
// equality buckets, the suffix tree, its id lists and its memo, the
// fallback identity list — with private lookup scratch and statistics, so
// certification tasks can probe concurrently and a stream sub-run starts
// from zeroed counters.
func (x *matcher) fork() *matcher {
	f := *x
	f.keyBuf = nil
	f.stats = MatchStats{MasterSize: x.stats.MasterSize}
	return &f
}

// buildEqIndex indexes the master relation by its projection on attrs. The
// buckets hold ascending tuple indexes, which blocked enumerations rely on
// to preserve the (T, S) order of a nested scan. Keys are built in one
// buffer and probed as string(key), which allocates nothing; only a new key
// is copied, and a bucket's later appends reuse that copy.
func buildEqIndex(master *relation.Relation, attrs []int) map[string][]int {
	idx := make(map[string][]int, master.Len())
	keys := make([]string, master.Len()) // the key of each bucket's first tuple
	var key []byte
	for j, s := range master.Tuples {
		key = relation.AppendKey(key[:0], s, attrs)
		if bucket, ok := idx[string(key)]; ok {
			idx[keys[bucket[0]]] = append(bucket, j)
		} else {
			keys[j] = string(key)
			idx[keys[j]] = []int{j}
		}
	}
	return idx
}

func newMatcher(m *md.MD, master *relation.Relation, topL int) *matcher {
	x := &matcher{m: m, master: master, topL: topL, simData: -1}
	x.stats.MasterSize = master.Len()
	for _, cl := range m.LHS {
		if cl.Pred.Exact { // the premise part an exact-match index can key on
			x.eqDataAttrs = append(x.eqDataAttrs, cl.DataAttr)
			x.eqMasterAttrs = append(x.eqMasterAttrs, cl.MasterAttr)
		}
		if k, ok := cl.Pred.EditThreshold(); ok && !cl.Pred.Exact && x.simData < 0 {
			x.simData, x.simMaster, x.simK = cl.DataAttr, cl.MasterAttr, k
		}
		x.premData = append(x.premData, cl.DataAttr)
	}
	switch {
	case len(x.eqDataAttrs) > 0:
		x.eqIndex = buildEqIndex(master, x.eqMasterAttrs)
	case x.simData >= 0:
		x.tree = suffixtree.New()
		x.memo = &simMemo{block: make(map[string]simEntry), cert: make(map[string]simEntry)}
		byValue := make(map[string]int)
		for j, s := range master.Tuples {
			v := s.Values[x.simMaster]
			if relation.IsNull(v) {
				continue
			}
			id, ok := byValue[v]
			if !ok {
				id = x.tree.Add(v)
				byValue[v] = id
				x.treeIDs = append(x.treeIDs, nil)
			}
			x.treeIDs[id] = append(x.treeIDs[id], j)
		}
	default:
		// No usable index: every lookup scans Dm. The identity list is
		// built here, not lazily in lookup, so forks can share it.
		x.allIDs = make([]int, master.Len())
		for j := range x.allIDs {
			x.allIDs[j] = j
		}
	}
	return x
}

// candidates returns the master tuple indexes on which the full MD premise
// holds for t, going through the blocking indexes when available, and counts
// the query in the matcher's statistics. The slice may be shared: read only.
func (x *matcher) candidates(t *relation.Tuple) []int {
	raw, ids, scanned := x.lookup(t)
	x.stats.Lookups++
	if scanned {
		x.stats.FullScans++
	}
	x.stats.Candidates += raw
	x.stats.Verified += len(ids)
	return ids
}

// lookup returns how many raw candidates the blocking indexes yield for t,
// those on which the full premise holds, and whether blocking fell back to
// a full scan of the master relation, without counting the query. A
// suffix-tree matcher verifies each distinct premise projection once.
func (x *matcher) lookup(t *relation.Tuple) (raw int, ids []int, fullScan bool) {
	switch {
	case x.eqIndex != nil:
		x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.eqDataAttrs)
		bucket := x.eqIndex[string(x.keyBuf)]
		return len(bucket), x.verify(t, bucket), false
	case x.tree != nil:
		v := t.Values[x.simData]
		if relation.IsNull(v) {
			return 0, nil, false
		}
		e := x.memoized(x.memo.block, t, func() []int {
			// Partition v into K+1 contiguous pieces: at most K edits touch
			// at most K pieces, so edit(u, v) <= K implies u contains one
			// piece unchanged — a common substring of length >=
			// floor(|v|/(K+1)). Each string's tuple list is disjoint from
			// every other's (one value per tuple), so no tuple repeats.
			var ids []int
			for _, mt := range x.tree.TopL(v, x.topL, len(v)/(x.simK+1)) {
				ids = append(ids, x.treeIDs[mt.ID]...)
			}
			return ids
		})
		return e.raw, e.ids, false
	default:
		return len(x.allIDs), x.verify(t, x.allIDs), true
	}
}

// certCandidates enumerates an exact blocking superset of the master tuples
// on which x's MD premise can hold for t — every (t, s) pair with s outside
// it fails at least one premise clause — and returns its size raw and, in
// ascending order, its members: an equality bucket whole, a suffix-tree
// superset already filtered by the full premise. ok is false when no index
// yields an exact superset for this tuple — the MD has no equality clause
// and either no suffix tree was built (no edit-distance clause) or t's value
// is too short for the LCS pigeonhole bound to hold (len(v) <= K, where v
// can be edited into anything without leaving a piece intact) — and the
// caller must fall back to scanning Dm for this tuple.
//
// Unlike lookup it never truncates: lookup serves repair, where TopL
// capping a candidate list only costs recall, while certCandidates serves
// the Checker, where a dropped candidate would falsify the certified Report.
// The slice is shared like lookup's; the matcher's statistics are untouched.
func (x *matcher) certCandidates(t *relation.Tuple) (raw int, ids []int, ok bool) {
	switch {
	case x.eqIndex != nil:
		// Exact: a master tuple outside the bucket differs on an equality
		// clause's projection. Buckets hold ascending indexes.
		x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.eqDataAttrs)
		bucket := x.eqIndex[string(x.keyBuf)]
		return len(bucket), bucket, true
	case x.tree != nil:
		v := t.Values[x.simData]
		if relation.IsNull(v) {
			return 0, nil, true // the edit clause never matches null
		}
		minLen := len(v) / (x.simK + 1)
		if minLen < 1 {
			return 0, nil, false // bound vacuous: K edits can consume all of v
		}
		// Every master value within edit distance K of v contains one of
		// v's K+1 pieces unchanged, i.e. shares a substring of length >=
		// minLen — so the tree enumeration is an exact superset. Sorting
		// the union of the matched strings' tuple lists restores the
		// ascending order a nested scan would visit.
		e := x.memoized(x.memo.cert, t, func() []int {
			var ids []int
			for _, sid := range x.tree.StringsWithCommonSubstring(v, minLen) {
				ids = append(ids, x.treeIDs[sid]...)
			}
			slices.Sort(ids)
			return ids
		})
		return e.raw, e.ids, true
	default:
		return 0, nil, false // no usable index (e.g. a lone Jaro clause)
	}
}

// verify filters candidate ids down to those on which the full premise
// holds, keeping their order.
func (x *matcher) verify(t *relation.Tuple, ids []int) []int {
	var out []int
	for _, j := range ids {
		if x.m.MatchLHS(t, x.master.Tuples[j]) {
			out = append(out, j)
		}
	}
	return out
}
