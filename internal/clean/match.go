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

	// allIDs is the identity list the index-less fallback scans, built once
	// and shared read-only with every fork.
	allIDs []int

	// keyBuf backs the equality-index key, probed as string(keyBuf), which
	// allocates nothing. It is private per matcher; pool workers probe
	// through forks.
	keyBuf []byte

	stats MatchStats
}

// simMemo holds, per distinct query value, the two suffix-tree
// enumerations of a similarity matcher: block, the master tuples of the
// TopL-blocked strings in rank order (repair), and cert, the ascending
// exact superset (certification). Both are pure functions of the value over
// the immutable tree, so the memo is shared by every fork of the matcher —
// pool workers, certification tasks, stream sub-runs — and whichever fork
// fills an entry first, every reader sees the same list. Walks run outside
// the lock; a lost race only recomputes an identical list. Returned lists
// are shared and must not be modified.
type simMemo struct {
	mu          sync.Mutex
	block, cert map[string][]int
}

// get returns tab[v], computing and storing it with walk on a miss.
func (c *simMemo) get(tab map[string][]int, v string, walk func() []int) []int {
	c.mu.Lock()
	ids, ok := tab[v]
	c.mu.Unlock()
	if ok {
		return ids
	}
	ids = walk()
	c.mu.Lock()
	if prev, ok := tab[v]; ok {
		ids = prev
	} else {
		tab[v] = ids
	}
	c.mu.Unlock()
	return ids
}

// fork returns a matcher sharing x's immutable blocking indexes — the
// equality buckets, the suffix tree, its id lists and its memo, the
// fallback identity list — with private lookup scratch and statistics, so
// pool workers can probe concurrently. Fork statistics are merged back into
// x.stats by order-independent sums after each parallel phase.
func (x *matcher) fork() *matcher {
	f := *x
	f.keyBuf = nil
	f.stats = MatchStats{MasterSize: x.stats.MasterSize}
	return &f
}

// eqClauses returns the data- and master-side attributes of an MD's
// equality clauses — the premise part an exact-match blocking index can key
// on.
func eqClauses(m *md.MD) (data, master []int) {
	for _, cl := range m.LHS {
		if cl.Pred.Exact {
			data = append(data, cl.DataAttr)
			master = append(master, cl.MasterAttr)
		}
	}
	return data, master
}

// buildEqIndex indexes the master relation by its projection on attrs. The
// buckets hold ascending tuple indexes, which blocked enumerations rely on
// to preserve the (T, S) order of a nested scan.
func buildEqIndex(master *relation.Relation, attrs []int) map[string][]int {
	idx := make(map[string][]int, master.Len())
	for j, s := range master.Tuples {
		key := s.Key(attrs)
		idx[key] = append(idx[key], j)
	}
	return idx
}

func newMatcher(m *md.MD, master *relation.Relation, topL int) *matcher {
	x := &matcher{m: m, master: master, topL: topL, simData: -1}
	x.stats.MasterSize = master.Len()
	x.eqDataAttrs, x.eqMasterAttrs = eqClauses(m)
	for _, cl := range m.LHS {
		if k, ok := cl.Pred.EditThreshold(); ok && !cl.Pred.Exact && x.simData < 0 {
			x.simData, x.simMaster, x.simK = cl.DataAttr, cl.MasterAttr, k
		}
	}
	switch {
	case len(x.eqDataAttrs) > 0:
		x.eqIndex = buildEqIndex(master, x.eqMasterAttrs)
	case x.simData >= 0:
		x.tree = suffixtree.New()
		x.memo = &simMemo{block: make(map[string][]int), cert: make(map[string][]int)}
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
		// built here, not lazily in block, so forks can share it.
		x.allIDs = make([]int, master.Len())
		for j := range x.allIDs {
			x.allIDs[j] = j
		}
	}
	return x
}

// candidates returns the master tuple indexes on which the full MD premise
// holds for t, going through the blocking indexes when available, and counts
// the query in the matcher's statistics.
func (x *matcher) candidates(t *relation.Tuple) []int {
	x.stats.Lookups++
	ids, scanned := x.block(t)
	if scanned {
		x.stats.FullScans++
	}
	x.stats.Candidates += len(ids)
	out := x.verify(t, ids)
	x.stats.Verified += len(out)
	return out
}

// probe is candidates without the statistics. hRepair's master-data
// tie-breaking uses it so the per-MD stats keep measuring matching work
// only, one lookup per tuple per round.
func (x *matcher) probe(t *relation.Tuple) []int {
	ids, _ := x.block(t)
	return x.verify(t, ids)
}

// block returns the raw candidate ids for t from the blocking indexes, and
// whether it had to fall back to a full scan of the master relation. The
// returned slice is shared — an index bucket, a memo entry or the fallback
// identity list — and must not be modified.
func (x *matcher) block(t *relation.Tuple) (ids []int, fullScan bool) {
	switch {
	case x.eqIndex != nil:
		x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.eqDataAttrs)
		return x.eqIndex[string(x.keyBuf)], false
	case x.tree != nil:
		v := t.Values[x.simData]
		if relation.IsNull(v) {
			return nil, false
		}
		return x.memo.get(x.memo.block, v, func() []int {
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
		}), false
	default:
		return x.allIDs, true
	}
}

// certCandidates returns, in ascending master-tuple order, an exact blocking
// superset of the master tuples on which x's MD premise can hold for t:
// every (t, s) pair with s outside the returned set fails at least one
// premise clause. ok is false when no index yields an exact superset for
// this tuple — the MD has no equality clause and either no suffix tree was
// built (no edit-distance clause) or t's value is too short for the LCS
// pigeonhole bound to hold (len(v) <= K, where v can be edited into anything
// without leaving a piece intact) — and the caller must fall back to
// scanning Dm for this tuple.
//
// Unlike block it never truncates: block serves repair, where TopL capping a
// candidate list only costs recall, while certCandidates serves the Checker,
// where a dropped candidate would falsify the certified Report. The returned
// slice is shared like block's; the matcher's statistics are untouched
// (certification must not count as matching work).
func (x *matcher) certCandidates(t *relation.Tuple) (ids []int, ok bool) {
	switch {
	case x.eqIndex != nil:
		// Exact: a master tuple outside the bucket differs on an equality
		// clause's projection. Buckets hold ascending indexes.
		x.keyBuf = relation.AppendKey(x.keyBuf[:0], t, x.eqDataAttrs)
		return x.eqIndex[string(x.keyBuf)], true
	case x.tree != nil:
		v := t.Values[x.simData]
		if relation.IsNull(v) {
			return nil, true // the edit clause never matches null
		}
		minLen := len(v) / (x.simK + 1)
		if minLen < 1 {
			return nil, false // bound vacuous: K edits can consume all of v
		}
		// Every master value within edit distance K of v contains one of
		// v's K+1 pieces unchanged, i.e. shares a substring of length >=
		// minLen — so the tree enumeration is an exact superset. Sorting
		// the union of the matched strings' tuple lists restores the
		// ascending order a nested scan would visit.
		return x.memo.get(x.memo.cert, v, func() []int {
			var ids []int
			for _, sid := range x.tree.StringsWithCommonSubstring(v, minLen) {
				ids = append(ids, x.treeIDs[sid]...)
			}
			slices.Sort(ids)
			return ids
		}), true
	default:
		return nil, false // no usable index (e.g. a lone Jaro clause)
	}
}

// verify filters candidate ids down to those on which the full premise
// holds.
func (x *matcher) verify(t *relation.Tuple, ids []int) []int {
	var out []int
	for _, j := range ids {
		if x.m.MatchLHS(t, x.master.Tuples[j]) {
			out = append(out, j)
		}
	}
	return out
}
