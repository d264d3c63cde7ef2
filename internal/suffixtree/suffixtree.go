// Package suffixtree implements the generalized suffix tree used for
// longest-common-substring (LCS) blocking in Section 5.2 of the paper.
//
// The tree indexes the distinct strings of a master-data attribute's active
// domain. Each node corresponds to a common substring and maintains the set
// of indexed strings containing it, exactly as described in the paper. A
// lookup for a query string v extracts the subtree related to v (at most
// |v|^2 node visits) and returns the top-l indexed strings ranked by the
// length of their longest common substring with v, reducing the MD-matching
// search space from |Dm| to a constant l.
//
// Storage is a few hundred large blocks, and growing the tree never copies
// a node:
//
//   - Nodes live in fixed-size pages appended on demand and are addressed
//     by int32 index.
//   - The root, whose fan-out is the whole alphabet, finds its children in
//     a byte table. Every other node keeps its (first byte, node) edges
//     contiguous in a window of a shared child arena, so a walk scans them
//     as one short array.
//   - Each node's id list is a capacity-capped window of a shared id arena.
//   - A full edge or id window moves to a window twice its size; the old
//     window stays behind as slack in its block.
//
// Which strings a lookup has reached is kept in a pooled generation-stamped
// array, so lookups allocate only their result and may run concurrently
// once the tree is no longer added to.
package suffixtree

import (
	"cmp"
	"slices"
	"sync"
)

const (
	pageBits = 8 // 256 nodes per page
	pageSize = 1 << pageBits
	// arenaBlock is the length of one block of the id and child arenas; an
	// id list that outgrows it gets a block of its own.
	arenaBlock = 4096
)

// Tree is a generalized suffix tree over a set of strings.
type Tree struct {
	strings []string
	pages   []*[pageSize]node    // node n is pages[n>>pageBits][n&(pageSize-1)]; node 0 is the root
	nodes   int32                // nodes allocated so far
	root    [256]int32           // the root's child per first byte; 0 = none
	ids     []int32              // the unused tail of the current id block
	kids    []*[arenaBlock]child // child slot k is kids[k/arenaBlock][k%arenaBlock]
	kidFree int32                // unused slots at the end of the last child block
	scratch sync.Pool            // *walkState, reused across lookups
}

type node struct {
	label string // the edge label leading into this node; "" at the root
	// The outgoing edges, at most one per first byte, are the first nkids
	// slots of a child-arena window starting at slot kids, whose size is
	// the smallest power of two >= max(2, nkids). Unused at the root.
	kids, nkids int32
	// ids lists, in increasing order, the indexed strings whose suffixes
	// pass through this node, i.e. the strings containing the substring
	// this node spells.
	ids []int32
}

// child is one outgoing edge: the first byte of its label and the node it
// leads to.
type child struct {
	b byte
	n int32
}

// locus is a point a walk reached: the node below it and the matched depth,
// which may end inside the node's edge label.
type locus struct {
	n, depth int32
}

// walkState is the per-lookup scratch: stamp[id] == gen marks string id as
// already reached by the current lookup.
type walkState struct {
	gen   uint32
	stamp []uint32
	loci  []locus
	hits  []Match
}

// New returns an empty tree.
func New() *Tree {
	t := &Tree{}
	t.newNode("")
	return t
}

// Len returns the number of indexed strings.
func (t *Tree) Len() int { return len(t.strings) }

// String returns the indexed string with the given id.
func (t *Tree) String(id int) string { return t.strings[id] }

// Add indexes s and returns its id. Duplicate strings receive distinct ids;
// callers indexing an active domain should deduplicate first.
func (t *Tree) Add(s string) int {
	id := int32(len(t.strings))
	t.strings = append(t.strings, s)
	for j := 0; j < len(s); j++ {
		t.insertSuffix(s[j:], id)
	}
	return int(id)
}

// at returns node n; pages never move, so the pointer stays valid while
// the tree grows.
func (t *Tree) at(n int32) *node {
	return &t.pages[n>>pageBits][n&(pageSize-1)]
}

// newNode allocates a node, starting a new page when the last one is full.
func (t *Tree) newNode(label string) int32 {
	n := t.nodes
	if n&(pageSize-1) == 0 {
		t.pages = append(t.pages, new([pageSize]node))
	}
	t.nodes++
	t.at(n).label = label
	return n
}

// idList returns an empty id list with room for c ids, cut from the tail
// of the id arena; the capacity cap makes an append past c fail over to a
// copy instead of writing into the neighbouring list.
func (t *Tree) idList(c int) []int32 {
	if c > arenaBlock {
		return make([]int32, 0, c)
	}
	if c > len(t.ids) {
		t.ids = make([]int32, arenaBlock)
	}
	l := t.ids[:0:c]
	t.ids = t.ids[c:]
	return l
}

// addID appends id to n's list unless it is already the last entry,
// moving a full list to a window twice its size.
func (t *Tree) addID(n *node, id int32) {
	k := len(n.ids)
	if k > 0 && n.ids[k-1] == id {
		return
	}
	if k == cap(n.ids) {
		n.ids = append(t.idList(2*k), n.ids...)
	}
	n.ids = append(n.ids, id)
}

// child returns the node reached from n over the edge starting with b, or
// 0 when there is none.
func (t *Tree) child(n int32, b byte) int32 {
	if n == 0 {
		return t.root[b]
	}
	for _, c := range t.kidsOf(t.at(n)) {
		if c.b == b {
			return c.n
		}
	}
	return 0
}

// link makes a new node with the given label and first id a child of
// parent.
func (t *Tree) link(parent int32, label string, id int32) {
	c := t.newNode(label)
	t.at(c).ids = append(t.idList(1), id)
	if parent == 0 {
		t.root[label[0]] = c
		return
	}
	t.addKid(t.at(parent), child{b: label[0], n: c})
}

// kidsOf returns n's outgoing edges.
func (t *Tree) kidsOf(n *node) []child {
	if n.nkids == 0 {
		return nil
	}
	lo := n.kids % arenaBlock
	return t.kids[n.kids/arenaBlock][lo : lo+n.nkids]
}

// addKid appends c to n's edges, first moving them to a window twice as
// large when their window is full. A window never straddles two blocks:
// fan-out is at most 256.
func (t *Tree) addKid(n *node, c child) {
	if n.nkids == 0 || n.nkids >= 2 && n.nkids&(n.nkids-1) == 0 {
		size := max(2, 2*n.nkids)
		if size > t.kidFree {
			t.kids = append(t.kids, new([arenaBlock]child))
			t.kidFree = arenaBlock
		}
		lo := arenaBlock - t.kidFree
		copy(t.kids[len(t.kids)-1][lo:], t.kidsOf(n))
		n.kids = int32(len(t.kids)-1)*arenaBlock + lo
		t.kidFree -= size
	}
	n.nkids++
	t.kidsOf(n)[n.nkids-1] = c
}

func (t *Tree) insertSuffix(suf string, id int32) {
	cur := int32(0)
	for i := 0; i < len(suf); {
		c := t.child(cur, suf[i])
		if c == 0 {
			t.link(cur, suf[i:], id)
			return
		}
		cn := t.at(c)
		label := cn.label
		j := 1
		for j < len(label) && i+j < len(suf) && label[j] == suf[i+j] {
			j++
		}
		if j < len(label) {
			// Split the edge at offset j: node c keeps its slot, so its
			// parent's link stays valid, and becomes the middle node over
			// the matched part; a new node below it takes the rest of the
			// label, c's children and c's id list. The middle node starts
			// from a copy of that list; ids arrive in increasing order, so
			// appending id keeps it sorted.
			low := t.newNode(label[j:])
			ln := t.at(low)
			ln.ids, ln.kids, ln.nkids = cn.ids, cn.kids, cn.nkids
			cn.label, cn.nkids = label[:j], 0
			t.addKid(cn, child{b: label[j], n: low})
			cn.ids = append(t.idList(len(ln.ids)+1), ln.ids...)
		}
		t.addID(cn, id)
		cur = c
		i += j
	}
}

// walk matches every suffix of v of length >= minLen greedily from the root
// and appends, for each, the loci it reaches at depth >= minLen: every such
// locus when first is false, only the shallowest one when first is true.
// The strings under a locus share with v a substring as long as its depth.
// Along one suffix's path each node's strings are a subset of its parent's,
// so the shallowest qualifying locus already covers every string the
// deeper ones would add.
func (t *Tree) walk(v string, minLen int, first bool, loci []locus) []locus {
	for i := 0; i+minLen <= len(v); i++ {
		suf := v[i:]
		cur, depth := int32(0), 0
		for depth < len(suf) {
			c := t.child(cur, suf[depth])
			if c == 0 {
				break
			}
			label := t.at(c).label
			j := 1
			for j < len(label) && depth+j < len(suf) && label[j] == suf[depth+j] {
				j++
			}
			depth += j
			if depth >= minLen {
				loci = append(loci, locus{n: c, depth: int32(depth)})
				if first {
					break
				}
			}
			if j < len(label) {
				break // stopped mid-edge
			}
			cur = c
		}
	}
	return loci
}

// state takes a walk scratch from the pool, sized for the current tree,
// advanced to a fresh generation and with no hits.
func (t *Tree) state() *walkState {
	s, _ := t.scratch.Get().(*walkState)
	if s == nil {
		s = &walkState{}
	}
	if len(s.stamp) < len(t.strings) {
		s.stamp, s.gen = make([]uint32, len(t.strings)), 0
	}
	if s.gen++; s.gen == 0 { // wrapped: old stamps could collide
		clear(s.stamp)
		s.gen = 1
	}
	s.hits = s.hits[:0]
	return s
}

// collect appends to s.hits, credited with lc's depth, every string under
// lc that this lookup has not reached yet.
func (t *Tree) collect(s *walkState, lc locus) {
	for _, id := range t.at(lc.n).ids {
		if s.stamp[id] != s.gen {
			s.stamp[id] = s.gen
			s.hits = append(s.hits, Match{ID: int(id), LCS: int(lc.depth)})
		}
	}
}

// StringsWithCommonSubstring returns the ids of every indexed string sharing
// with v a common substring of length at least minLen, in ascending id order.
// Unlike TopL it neither ranks nor truncates: with minLen chosen as the LCS
// blocking bound max(1, |v|/(K+1)), the result is the *exact* superset of the
// indexed strings within edit distance K of v — every string closer than K
// shares an unedited piece of v at least that long — which is what lets the
// Checker certify an edit-clause MD from the tree instead of scanning the
// whole master relation. A minLen < 1 would make the bound vacuous (strings
// sharing no substring with v can still be within distance K); callers must
// handle that case themselves, so it panics here.
func (t *Tree) StringsWithCommonSubstring(v string, minLen int) []int32 {
	if minLen < 1 {
		panic("suffixtree: StringsWithCommonSubstring needs minLen >= 1")
	}
	if len(v) < minLen {
		return nil
	}
	s := t.state()
	defer t.scratch.Put(s)
	s.loci = t.walk(v, minLen, true, s.loci[:0])
	for _, lc := range s.loci {
		t.collect(s, lc)
	}
	if len(s.hits) == 0 {
		return nil
	}
	out := make([]int32, len(s.hits))
	for k, h := range s.hits {
		out[k] = int32(h.ID)
	}
	slices.Sort(out)
	return out
}

// Match is a blocking candidate: an indexed string and the length of its
// longest common substring with the query.
type Match struct {
	ID  int
	LCS int
}

// TopL returns up to l indexed strings ranked by LCS length with v
// (descending, ties broken by id), considering only common substrings of
// length at least minLen. minLen implements the blocking bound of Section
// 5.2: strings within edit distance K of v share a common substring of
// length at least max(|u|,|v|)/(K+1), so candidates below that bound can be
// skipped. A minLen < 1 is treated as 1.
//
// The loci are visited deepest first, so a string is first reached at its
// exact LCS; once a whole depth has been visited and l strings are known,
// every string of the top l is among them and the shallower loci — the
// largest id sets, near the root — are never scanned.
func (t *Tree) TopL(v string, l, minLen int) []Match {
	if l <= 0 || len(v) == 0 {
		return nil
	}
	if minLen < 1 {
		minLen = 1
	}
	s := t.state()
	defer t.scratch.Put(s)
	loci := t.walk(v, minLen, false, s.loci[:0])
	s.loci = loci
	slices.SortFunc(loci, func(a, b locus) int { return cmp.Compare(b.depth, a.depth) })
	for k, lc := range loci {
		if len(s.hits) >= l && lc.depth < loci[k-1].depth {
			break
		}
		t.collect(s, lc)
	}
	slices.SortFunc(s.hits, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.LCS, a.LCS), cmp.Compare(a.ID, b.ID))
	})
	return append([]Match(nil), s.hits[:min(l, len(s.hits))]...)
}
