package rtree

import (
	"math"
	"sort"
	"sync"

	"repro/internal/geo"
)

func sortSlice[T any](s []T, less func(a, b T) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// Neighbor is a kNN search result.
type Neighbor struct {
	Entry Entry
	Dist  float64
}

// queryScratch bundles every per-query buffer of the best-first
// traversals: the distance heap plus one gather block (four coordinate
// planes and an out-slice sized to the node stride). Pooled so repeated
// queries allocate only their result slice.
type queryScratch struct {
	h                        distHeap
	xlo, ylo, xhi, yhi, dist [BlockSlots]float64
	nh                       nodeHeap  // KthDistinctDist2: nodes only
	stack                    []NodeID  // DescendPlane
	bestID                   []int32   // KthDistinctDist2: nearest distinct IDs so far
	bestD                    []float64 // parallel to bestID
}

var scratchPool = sync.Pool{New: func() interface{} { return new(queryScratch) }}

func getScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

func (s *queryScratch) release() {
	if cap(s.h) <= 1<<16 { // don't pin pathological heaps in the pool
		scratchPool.Put(s)
	}
}

// pushChildren scores every child of n against q with one kernel call
// over the gathered planar block and pushes all of them onto the heap.
// The kernel result is bit-identical to per-child Rect.MinDist2, so the
// pop order (and thus the traversal) matches the scalar path exactly.
func (t *Tree) pushChildren(s *queryScratch, n NodeID, q geo.Point) {
	cnt := t.GatherChildRects(n, s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:])
	geo.MinDist2Block(s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:], q, s.dist[:cnt])
	kids := t.Children(n)
	for i := 0; i < cnt; i++ {
		s.h.push(distItem{node: kids[i], dist: s.dist[i]})
	}
}

// pushChildrenRoute is pushChildren under the route-MINDIST bound
// (min over query points, Equation 3).
func (t *Tree) pushChildrenRoute(s *queryScratch, n NodeID, query []geo.Point) {
	cnt := t.GatherChildRects(n, s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:])
	geo.MinDist2RouteBlock(s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:], query, s.dist[:cnt])
	kids := t.Children(n)
	for i := 0; i < cnt; i++ {
		s.h.push(distItem{node: kids[i], dist: s.dist[i]})
	}
}

// NearestK returns the k entries nearest to p in ascending distance order,
// using best-first traversal with the MINDIST lower bound. Fewer than k are
// returned if the tree is smaller than k. Ties are broken arbitrarily.
// Internal-node children are scored blockwise with geo.MinDist2Block over
// the planar arena; all per-query scratch comes from a pool.
func (t *Tree) NearestK(p geo.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	s := getScratch()
	defer s.release()
	s.h = append(s.h[:0], distItem{node: t.root, dist: t.rect(t.root).MinDist2(p)})
	out := make([]Neighbor, 0, k)
	for s.h.Len() > 0 {
		it := s.h.popItem()
		if it.node == NilNode {
			out = append(out, Neighbor{Entry: it.entry, Dist: math.Sqrt(it.dist)})
			if len(out) == k {
				return out
			}
			continue
		}
		n := it.node
		if t.leaf[n] {
			for _, e := range t.Entries(n) {
				s.h.push(distItem{node: NilNode, entry: e, dist: e.Pt.Dist2(p)})
			}
		} else {
			t.pushChildren(s, n, p)
		}
	}
	return out
}

// routeMinDist2 is the route-MINDIST bound of Equation 3 for one
// rectangle: the smallest MinDist2 over the query points.
func routeMinDist2(r geo.Rect, query []geo.Point) float64 {
	best := math.Inf(1)
	for _, q := range query {
		if d := r.MinDist2(q); d < best {
			best = d
		}
	}
	return best
}

// NearestRouteK is NearestK for a multi-point query: distances are
// min over query points (Equation 3 of the paper).
func (t *Tree) NearestRouteK(query []geo.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 || len(query) == 0 {
		return nil
	}
	s := getScratch()
	defer s.release()
	s.h = append(s.h[:0], distItem{node: t.root, dist: routeMinDist2(t.rect(t.root), query)})
	out := make([]Neighbor, 0, k)
	for s.h.Len() > 0 {
		it := s.h.popItem()
		if it.node == NilNode {
			out = append(out, Neighbor{Entry: it.entry, Dist: math.Sqrt(it.dist)})
			if len(out) == k {
				return out
			}
			continue
		}
		n := it.node
		if t.leaf[n] {
			for _, e := range t.Entries(n) {
				s.h.push(distItem{node: NilNode, entry: e, dist: geo.PointRouteDist2(e.Pt, query)})
			}
		} else {
			t.pushChildrenRoute(s, n, query)
		}
	}
	return out
}

// KthDistinctDist2 returns the k-th smallest value of
//
//	d(id) = min over entries e with e.ID == id of e.Pt.Dist2(p)
//
// over the distinct IDs in the tree — for the RR-tree, the squared
// distance from p to its k-th nearest route — or +Inf when the tree holds
// fewer than k distinct IDs. Every number compared or returned is a
// Point.Dist2, so the result is bit-identical to sorting all d(id).
//
// The traversal is best-first over nodes and bounded: leaf entries are
// scanned in place, the k nearest distinct IDs seen so far are kept with
// their distances, and τ — the largest of those once k are known — is an
// upper bound on the answer that only falls. No child with MinDist2 > τ
// is pushed, no entry with Dist2 >= τ is looked at twice, and the search
// stops when the nearest unexpanded node is beyond τ.
func (t *Tree) KthDistinctDist2(p geo.Point, k int) float64 {
	if k <= 0 || t.size < k {
		return math.Inf(1)
	}
	s := getScratch()
	defer s.release()
	ids, ds := s.bestID[:0], s.bestD[:0]
	tau := math.Inf(1)
	worst := -1 // index of the entry holding τ, once k are known
	h := append(s.nh[:0], nodeDist{node: t.root, dist: t.rect(t.root).MinDist2(p)})
	for len(h) > 0 {
		var it nodeDist
		it, h = h.pop()
		if it.dist > tau {
			break
		}
		n := it.node
		if !t.leaf[n] {
			cnt := t.GatherChildRects(n, s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:])
			geo.MinDist2Block(s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:], p, s.dist[:cnt])
			kids := t.Children(n)
			for i := 0; i < cnt; i++ {
				if s.dist[i] <= tau {
					h = h.push(nodeDist{node: kids[i], dist: s.dist[i]})
				}
			}
			continue
		}
		for _, e := range t.Entries(n) {
			d := e.Pt.Dist2(p)
			if d >= tau {
				continue
			}
			at := -1
			for i, id := range ids {
				if id == e.ID {
					at = i
					break
				}
			}
			switch {
			case at >= 0:
				if d >= ds[at] {
					continue
				}
				ds[at] = d
				if at != worst {
					continue // τ is held by another ID
				}
			case len(ids) < k:
				ids, ds = append(ids, e.ID), append(ds, d)
				if len(ids) < k {
					continue
				}
			default:
				ids[worst], ds[worst] = e.ID, d
			}
			worst = 0
			for i, v := range ds {
				if v > ds[worst] {
					worst = i
				}
			}
			tau = ds[worst]
		}
	}
	s.nh, s.bestID, s.bestD = h[:0], ids, ds
	return tau
}

// nodeDist is a node with its MINDIST; nodeHeap a binary min-heap of
// them. KthDistinctDist2 never materialises entries on its heap, so it
// uses these 16-byte items instead of distItem's 40.
type nodeDist struct {
	dist float64
	node NodeID
}

type nodeHeap []nodeDist

func (h nodeHeap) push(it nodeDist) nodeHeap {
	h = append(h, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func (h nodeHeap) pop() (nodeDist, nodeHeap) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].dist < h[j].dist {
			j++
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return top, h
}

// distItem is either a node (node != NilNode) or a materialised entry.
type distItem struct {
	node  NodeID
	entry Entry
	dist  float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// push and popItem are the concrete-typed hot-path ops: container/heap
// boxes every element through interface{}, which costs one allocation
// per push. The sift loops below replicate the stdlib's up/down
// algorithms comparison-for-comparison, so the pop order — equal-dist
// ties included — is identical to heap.Push/heap.Pop over distHeap.
func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *distHeap) popItem() distItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift down over s[:n], mirroring stdlib down(0, n).
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].dist < s[j1].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// BulkLoad builds a tree from entries using Sort-Tile-Recursive packing.
// It is much faster than repeated Insert for large static datasets and
// produces well-shaped nodes. The input slice is reordered in place.
func BulkLoad(entries []Entry, opts ...Option) *Tree {
	t := New(opts...)
	if len(entries) == 0 {
		return t
	}
	t.freeNode(t.root) // New's empty leaf root; STR packing replaces it
	t.size = len(entries)
	nodes := t.strPack(entries)
	for len(nodes) > 1 {
		nodes = t.packNodes(nodes)
	}
	t.root = nodes[0]
	t.parent[t.root] = NilNode
	if t.trackIDs {
		t.rebuildAggDeep(t.root)
	}
	return t
}

// strPack tiles entries into arena leaves of up to maxEntries each.
func (t *Tree) strPack(entries []Entry) []NodeID {
	n := len(entries)
	leafCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	sortEntriesBy(entries, true)
	perSlice := (n + sliceCount - 1) / sliceCount
	var leaves []NodeID
	for i := 0; i < n; i += perSlice {
		hi := i + perSlice
		if hi > n {
			hi = n
		}
		slice := entries[i:hi]
		sortEntriesBy(slice, false)
		for j := 0; j < len(slice); j += maxEntries {
			k := j + maxEntries
			if k > len(slice) {
				k = len(slice)
			}
			leaf := t.alloc(true)
			base := int(leaf) * slotsPerNode
			copy(t.ents[base:], slice[j:k])
			t.counts[leaf] = int32(k - j)
			t.recomputeRect(leaf)
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packNodes groups nodes into parents of up to maxEntries children using
// the same tiling on node centers.
func (t *Tree) packNodes(nodes []NodeID) []NodeID {
	n := len(nodes)
	parentCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	t.sortNodesBy(nodes, true)
	perSlice := (n + sliceCount - 1) / sliceCount
	var parents []NodeID
	for i := 0; i < n; i += perSlice {
		hi := i + perSlice
		if hi > n {
			hi = n
		}
		slice := nodes[i:hi]
		t.sortNodesBy(slice, false)
		for j := 0; j < len(slice); j += maxEntries {
			k := j + maxEntries
			if k > len(slice) {
				k = len(slice)
			}
			par := t.alloc(false)
			base := int(par) * slotsPerNode
			copy(t.kids[base:], slice[j:k])
			t.counts[par] = int32(k - j)
			for _, c := range slice[j:k] {
				t.parent[c] = par
			}
			t.recomputeRect(par)
			parents = append(parents, par)
		}
	}
	return parents
}

func sortEntriesBy(entries []Entry, byX bool) {
	if byX {
		sortSlice(entries, func(a, b Entry) bool { return a.Pt.X < b.Pt.X })
	} else {
		sortSlice(entries, func(a, b Entry) bool { return a.Pt.Y < b.Pt.Y })
	}
}

func (t *Tree) sortNodesBy(nodes []NodeID, byX bool) {
	if byX {
		sortSlice(nodes, func(a, b NodeID) bool { return t.rect(a).Center().X < t.rect(b).Center().X })
	} else {
		sortSlice(nodes, func(a, b NodeID) bool { return t.rect(a).Center().Y < t.rect(b).Center().Y })
	}
}
