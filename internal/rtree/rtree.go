package rtree

import (
	"fmt"

	"repro/internal/geo"
)

// Entry is a leaf-level record: a point with its payload.
type Entry struct {
	Pt  geo.Point
	ID  int32 // owning object (route ID or transition ID)
	Aux int32 // secondary payload (stop ID, or endpoint role)
}

// Default fanout bounds. M=32 keeps nodes cache-friendly; m is the usual
// 40% fill guarantee.
const (
	maxEntries = 32
	minEntries = 13
	// slotsPerNode is the per-node block stride in the kids/ents arenas:
	// one slot beyond maxEntries so a node can hold the overflowing
	// element while it is being split.
	slotsPerNode = maxEntries + 1
)

// NodeID addresses a node in the tree's arena. IDs are recycled after
// deletes; a NodeID is only meaningful against the tree that issued it
// and is invalidated by any structural change (watch Generation).
type NodeID int32

// NilNode is the invalid NodeID (no parent, not found).
const NilNode NodeID = -1

// Tree is a dynamic R-tree backed by a flat arena. The zero value is not
// usable; call New or BulkLoad. Tree is not safe for concurrent mutation;
// concurrent read-only use is safe.
type Tree struct {
	// Per-node arrays, indexed by NodeID. Node MBRs are stored planar —
	// four contiguous coordinate planes instead of a []geo.Rect — so
	// traversals can gather a node's child rects into contiguous blocks
	// and score them with one geo.MinDist2Block kernel call (see
	// GatherChildRects and query.go).
	xlo, ylo, xhi, yhi []float64
	leaf               []bool
	counts             []int32  // live children (internal) or entries (leaf)
	parent             []NodeID // NilNode for the root
	// Fixed-stride blocks: node n owns kids[n*slotsPerNode : ...] and
	// ents[n*slotsPerNode : ...]. Only one of the two blocks is live per
	// node (kids for internal nodes, ents for leaves).
	kids []NodeID
	ents []Entry

	free []NodeID // recycled node IDs

	root NodeID
	size int
	// generation increments on every structural change so that caches
	// keyed by node IDs can detect staleness.
	generation uint64

	// Optional distinct-ID aggregate (see WithIDAggregate): per node, the
	// sorted distinct Entry.ID values beneath it plus parallel refcounts.
	trackIDs bool
	aggIDs   [][]int32
	aggCnt   [][]int32

	// plane is the optional value plane (plane.go): one float64 per entry
	// slot and one maximum per node. nil when none is attached.
	plane *Plane

	// viewBacked marks a tree whose planes/kids/ents still alias the
	// buffer it was loaded from (TreeFromArenaView). Cleared by
	// ensureMutable before the first mutation. See arena_view.go.
	viewBacked bool

	// Reusable scratch buffers (single-writer only).
	pathBuf   []NodeID
	splitEnts [slotsPerNode]Entry
	splitKids [slotsPerNode]NodeID
}

// Option configures a Tree at construction time.
type Option func(*Tree)

// WithIDAggregate enables per-node distinct-ID tracking: IDList reports
// the sorted set of Entry.ID values under any node, maintained
// incrementally (merge/unmerge along the ancestor chain) on every insert,
// delete and split.
func WithIDAggregate() Option {
	return func(t *Tree) { t.trackIDs = true }
}

// New returns an empty tree.
func New(opts ...Option) *Tree {
	t := &Tree{root: NilNode}
	for _, o := range opts {
		o(t)
	}
	t.root = t.alloc(true)
	return t
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// NumNodes returns the number of live nodes in the arena (capacity minus
// the free list); exposed for occupancy stats.
func (t *Tree) NumNodes() int { return len(t.xlo) - len(t.free) }

// Root returns the root node ID for manual traversal. The returned ID
// (and everything below it) is invalidated by any subsequent Insert or
// Delete.
func (t *Tree) Root() NodeID { return t.root }

// Generation returns a counter that changes whenever the tree structure
// changes. Caches built against a Root() snapshot should be discarded when
// the generation moves.
func (t *Tree) Generation() uint64 { return t.generation }

// Bounds returns the MBR of all entries (empty rect if the tree is empty).
func (t *Tree) Bounds() geo.Rect { return t.rect(t.root) }

// IsLeaf reports whether the node is a leaf.
func (t *Tree) IsLeaf(n NodeID) bool { return t.leaf[n] }

// Rect returns the node's minimum bounding rectangle.
func (t *Tree) Rect(n NodeID) geo.Rect { return t.rect(n) }

// Children returns the child IDs of an internal node (empty for leaves).
// The slice aliases the arena: read-only, invalidated by mutations.
func (t *Tree) Children(n NodeID) []NodeID {
	base := int(n) * slotsPerNode
	return t.kids[base : base+int(t.counts[n])]
}

// Entries returns the entries of a leaf node (empty for internal nodes).
// The slice aliases the arena: read-only, invalidated by mutations.
func (t *Tree) Entries(n NodeID) []Entry {
	base := int(n) * slotsPerNode
	return t.ents[base : base+int(t.counts[n])]
}

// IDList returns the sorted distinct Entry.ID values stored beneath the
// node. It requires WithIDAggregate (nil otherwise). The slice aliases
// internal state: read-only, invalidated by mutations.
func (t *Tree) IDList(n NodeID) []int32 {
	if !t.trackIDs {
		return nil
	}
	return t.aggIDs[n]
}

// TracksIDs reports whether the tree maintains the distinct-ID aggregate.
func (t *Tree) TracksIDs() bool { return t.trackIDs }

// BlockSlots is the maximum number of rectangles GatherChildRects can
// write: the per-node slot stride of the kids/ents arenas. Callers size
// their gather scratch to this.
const BlockSlots = slotsPerNode

// rect materialises node n's MBR from the planar coordinate arrays.
func (t *Tree) rect(n NodeID) geo.Rect {
	return geo.Rect{
		Min: geo.Point{X: t.xlo[n], Y: t.ylo[n]},
		Max: geo.Point{X: t.xhi[n], Y: t.yhi[n]},
	}
}

// setRect scatters r into node n's planar coordinate slots. All MBR
// mutations go through geo.Rect operations and this helper, so the
// planar layout carries the exact float semantics (empty-rect sentinels,
// NaN propagation) of the previous []geo.Rect storage.
func (t *Tree) setRect(n NodeID, r geo.Rect) {
	t.xlo[n], t.ylo[n] = r.Min.X, r.Min.Y
	t.xhi[n], t.yhi[n] = r.Max.X, r.Max.Y
}

// GatherChildRects copies the MBR coordinates of n's children into the
// four destination slices (each must have capacity for at least
// BlockSlots values) and returns the child count. The result is a
// contiguous planar block ready for geo.MinDist2Block; the copy touches
// four cache-resident planes and is far cheaper than the per-child
// virtual scoring it replaces.
func (t *Tree) GatherChildRects(n NodeID, xlo, ylo, xhi, yhi []float64) int {
	kids := t.Children(n)
	for i, c := range kids {
		xlo[i], ylo[i] = t.xlo[c], t.ylo[c]
		xhi[i], yhi[i] = t.xhi[c], t.yhi[c]
	}
	return len(kids)
}

// GatherEntryPoints copies the point coordinates of a leaf node's
// entries into xs/ys (each must have capacity for at least BlockSlots
// values) and returns the entry count — the leaf-level companion of
// GatherChildRects, producing a planar block ready for geo.Dist2Block.
func (t *Tree) GatherEntryPoints(n NodeID, xs, ys []float64) int {
	ents := t.Entries(n)
	for i, e := range ents {
		xs[i], ys[i] = e.Pt.X, e.Pt.Y
	}
	return len(ents)
}

// alloc returns a fresh node, recycling the free list when possible. The
// node starts empty with an empty rect and no parent.
func (t *Tree) alloc(leaf bool) NodeID {
	if k := len(t.free); k > 0 {
		n := t.free[k-1]
		t.free = t.free[:k-1]
		t.setRect(n, geo.EmptyRect())
		t.leaf[n] = leaf
		t.counts[n] = 0
		t.parent[n] = NilNode
		if t.plane != nil {
			t.plane.max[n] = emptyMax
		}
		return n
	}
	n := NodeID(len(t.xlo))
	empty := geo.EmptyRect()
	t.xlo = append(t.xlo, empty.Min.X)
	t.ylo = append(t.ylo, empty.Min.Y)
	t.xhi = append(t.xhi, empty.Max.X)
	t.yhi = append(t.yhi, empty.Max.Y)
	t.leaf = append(t.leaf, leaf)
	t.counts = append(t.counts, 0)
	t.parent = append(t.parent, NilNode)
	t.kids = append(t.kids, make([]NodeID, slotsPerNode)...)
	t.ents = append(t.ents, make([]Entry, slotsPerNode)...)
	if t.trackIDs {
		t.aggIDs = append(t.aggIDs, nil)
		t.aggCnt = append(t.aggCnt, nil)
	}
	if p := t.plane; p != nil {
		p.max = append(p.max, emptyMax)
		p.ent = append(p.ent, make([]float64, slotsPerNode)...)
	}
	return n
}

// freeNode recycles a node ID. The caller must already have detached it.
func (t *Tree) freeNode(n NodeID) {
	t.counts[n] = 0
	t.parent[n] = NilNode
	if t.trackIDs {
		t.aggIDs[n] = t.aggIDs[n][:0]
		t.aggCnt[n] = t.aggCnt[n][:0]
	}
	t.free = append(t.free, n)
}

// Insert adds an entry to a tree that has no value plane.
func (t *Tree) Insert(e Entry) {
	if t.plane != nil {
		panic("rtree: Insert into a tree with a value plane; use InsertValued")
	}
	t.insert(e, 0)
}

// InsertValued adds an entry together with its value on the attached
// plane.
func (t *Tree) InsertValued(e Entry, v float64) {
	if t.plane == nil {
		panic("rtree: InsertValued into a tree without a value plane")
	}
	t.insert(e, v)
}

// insert adds e; v is its plane value, ignored when no plane is attached.
func (t *Tree) insert(e Entry, v float64) {
	p := t.plane
	t.ensureMutable()
	t.generation++
	t.size++
	path := t.chooseLeafPath(e.Pt)
	leaf := path[len(path)-1]
	slot := int(leaf)*slotsPerNode + int(t.counts[leaf])
	t.ents[slot] = e
	if p != nil {
		p.ent[slot] = v
	}
	t.counts[leaf]++
	for _, n := range path {
		t.setRect(n, t.rect(n).ExpandPoint(e.Pt))
		if t.trackIDs {
			t.aggAdd(n, e.ID)
		}
		if p != nil && v > p.max[n] {
			p.max[n] = v
		}
	}
	// Split overflowing nodes bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		cur := path[i]
		if int(t.counts[cur]) <= maxEntries {
			break
		}
		sib := t.splitNode(cur)
		if i == 0 { // root split: grow the tree
			r := t.alloc(false)
			rb := int(r) * slotsPerNode
			t.kids[rb] = cur
			t.kids[rb+1] = sib
			t.counts[r] = 2
			t.parent[cur] = r
			t.parent[sib] = r
			t.setRect(r, t.rect(cur).Union(t.rect(sib)))
			if t.trackIDs {
				t.rebuildAgg(r)
			}
			if p != nil {
				t.recomputeMax(r)
			}
			t.root = r
		} else {
			par := path[i-1]
			pb := int(par) * slotsPerNode
			t.kids[pb+int(t.counts[par])] = sib
			t.counts[par]++
			t.parent[sib] = par
		}
	}
}

// chooseLeafPath descends to the leaf whose MBR needs the least enlargement
// to cover p, breaking ties by smaller area (Guttman's ChooseLeaf), and
// returns the root..leaf path in a reused scratch buffer.
func (t *Tree) chooseLeafPath(p geo.Point) []NodeID {
	n := t.root
	path := append(t.pathBuf[:0], n)
	for !t.leaf[n] {
		best := NilNode
		bestEnl, bestArea := 0.0, 0.0
		for _, c := range t.Children(n) {
			cr := t.rect(c)
			enl := cr.Enlargement(geo.RectOf(p))
			area := cr.Area()
			if best == NilNode || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = c, enl, area
			}
		}
		n = best
		path = append(path, n)
	}
	t.pathBuf = path
	return path
}

func (t *Tree) recomputeRect(n NodeID) {
	r := geo.EmptyRect()
	if t.leaf[n] {
		for _, e := range t.Entries(n) {
			r = r.ExpandPoint(e.Pt)
		}
	} else {
		for _, c := range t.Children(n) {
			r = r.Union(t.rect(c))
		}
	}
	t.setRect(n, r)
}

// Delete removes one entry equal to e (same point and payload). It reports
// whether an entry was removed. Underfull nodes are condensed: their
// remaining entries are reinserted, as in Guttman's CondenseTree.
func (t *Tree) Delete(e Entry) bool {
	leaf := t.findLeaf(t.root, e)
	if leaf == NilNode {
		return false
	}
	t.ensureMutable()
	t.generation++
	t.size--
	base := int(leaf) * slotsPerNode
	cnt := int(t.counts[leaf])
	for i := 0; i < cnt; i++ {
		if t.ents[base+i] == e {
			t.ents[base+i] = t.ents[base+cnt-1]
			if p := t.plane; p != nil {
				p.ent[base+i] = p.ent[base+cnt-1]
			}
			t.counts[leaf]--
			break
		}
	}
	if t.trackIDs {
		for n := leaf; n != NilNode; n = t.parent[n] {
			t.aggSub(n, e.ID)
		}
	}
	// Reconstruct the root..leaf path from the parent links.
	path := t.pathBuf[:0]
	for n := leaf; n != NilNode; n = t.parent[n] {
		path = append(path, n)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	t.pathBuf = path
	t.condense(path)
	return true
}

// findLeaf locates the leaf containing e, or NilNode.
func (t *Tree) findLeaf(n NodeID, e Entry) NodeID {
	if t.leaf[n] {
		for _, le := range t.Entries(n) {
			if le == e {
				return n
			}
		}
		return NilNode
	}
	for _, c := range t.Children(n) {
		if t.rect(c).Contains(e.Pt) {
			if l := t.findLeaf(c, e); l != NilNode {
				return l
			}
		}
	}
	return NilNode
}

// condense removes underfull nodes along the path and reinserts orphans
// with the plane values they carried.
func (t *Tree) condense(path []NodeID) {
	var orphans []Entry
	var vals []float64 // parallel to orphans when a plane is attached
	for i := len(path) - 1; i >= 1; i-- {
		n, par := path[i], path[i-1]
		if int(t.counts[n]) < minEntries {
			t.removeChild(par, n)
			if t.trackIDs {
				for a := par; a != NilNode; a = t.parent[a] {
					t.aggSubNode(a, n)
				}
			}
			t.collectSubtree(n, &orphans, &vals)
		} else {
			t.recomputeRect(n)
			if t.plane != nil {
				t.recomputeMax(n)
			}
		}
	}
	t.recomputeRect(t.root)
	if t.plane != nil {
		t.recomputeMax(t.root)
	}
	// Shrink the root while it has a single child.
	for !t.leaf[t.root] && t.counts[t.root] == 1 {
		old := t.root
		t.root = t.kids[int(old)*slotsPerNode]
		t.parent[t.root] = NilNode
		t.freeNode(old)
	}
	if !t.leaf[t.root] && t.counts[t.root] == 0 {
		t.leaf[t.root] = true
		t.setRect(t.root, geo.EmptyRect())
	}
	// Reinsert orphaned entries one by one. Subtree reinsertion at the
	// right level is an optimisation; entry reinsertion is simpler and the
	// delete path is not performance critical for the RkNNT workloads.
	for i, e := range orphans {
		t.size-- // insert will re-count it
		v := 0.0
		if t.plane != nil {
			v = vals[i]
		}
		t.insert(e, v)
	}
}

// collectSubtree appends every entry beneath n to out, its plane value
// (if a plane is attached) to vals, and frees every node of the subtree,
// n included.
func (t *Tree) collectSubtree(n NodeID, out *[]Entry, vals *[]float64) {
	if t.leaf[n] {
		*out = append(*out, t.Entries(n)...)
		if t.plane != nil {
			*vals = append(*vals, t.planeVals(t.plane, n)...)
		}
	} else {
		for _, c := range t.Children(n) {
			t.collectSubtree(c, out, vals)
		}
	}
	t.freeNode(n)
}

func (t *Tree) removeChild(par, child NodeID) {
	base := int(par) * slotsPerNode
	cnt := int(t.counts[par])
	for i := 0; i < cnt; i++ {
		if t.kids[base+i] == child {
			t.kids[base+i] = t.kids[base+cnt-1]
			t.counts[par]--
			return
		}
	}
	panic("rtree: removeChild: not a child")
}

// Search calls fn for every entry whose point lies inside rect. Returning
// false from fn stops the search.
func (t *Tree) Search(rect geo.Rect, fn func(Entry) bool) {
	if t.size == 0 {
		return
	}
	var walk func(n NodeID) bool
	walk = func(n NodeID) bool {
		if t.leaf[n] {
			for _, e := range t.Entries(n) {
				if rect.Contains(e.Pt) {
					if !fn(e) {
						return false
					}
				}
			}
			return true
		}
		for _, c := range t.Children(n) {
			if t.rect(c).Intersects(rect) {
				if !walk(c) {
					return false
				}
			}
		}
		return true
	}
	if t.rect(t.root).Intersects(rect) {
		walk(t.root)
	}
}

// All returns every entry in the tree in unspecified order.
func (t *Tree) All() []Entry {
	out := make([]Entry, 0, t.size)
	var walk func(n NodeID)
	walk = func(n NodeID) {
		if t.leaf[n] {
			out = append(out, t.Entries(n)...)
			return
		}
		for _, c := range t.Children(n) {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// checkInvariants validates structural invariants; used by tests. With
// strictFill it also validates the Guttman fill bounds, which hold for
// incrementally built trees but not necessarily for STR bulk loads (the
// final tile of a level may be small).
func (t *Tree) checkInvariants(strictFill bool) error {
	count := 0
	var walk func(n NodeID, depth int, isRoot bool) (int, error)
	walk = func(n NodeID, depth int, isRoot bool) (int, error) {
		if !isRoot {
			if t.parent[n] == NilNode {
				return 0, fmt.Errorf("node %d has no parent link", n)
			}
		} else if t.parent[n] != NilNode {
			return 0, fmt.Errorf("root %d has parent %d", n, t.parent[n])
		}
		if t.leaf[n] {
			cnt := int(t.counts[n])
			if strictFill && !isRoot && (cnt < minEntries || cnt > maxEntries) {
				return 0, fmt.Errorf("leaf fill %d out of [%d,%d]", cnt, minEntries, maxEntries)
			}
			for _, e := range t.Entries(n) {
				if !t.rect(n).Contains(e.Pt) {
					return 0, fmt.Errorf("entry %v outside leaf rect %v", e.Pt, t.rect(n))
				}
				count++
			}
			return depth, nil
		}
		lo := minEntries
		if isRoot {
			lo = 2
		}
		cnt := int(t.counts[n])
		if strictFill && (cnt < lo || cnt > maxEntries) {
			return 0, fmt.Errorf("internal fill %d out of [%d,%d]", cnt, lo, maxEntries)
		}
		want := -1
		for _, c := range t.Children(n) {
			if t.parent[c] != n {
				return 0, fmt.Errorf("child %d of %d has parent %d", c, n, t.parent[c])
			}
			if !t.rect(n).ContainsRect(t.rect(c)) {
				return 0, fmt.Errorf("child rect %v outside parent %v", t.rect(c), t.rect(n))
			}
			d, err := walk(c, depth+1, false)
			if err != nil {
				return 0, err
			}
			if want == -1 {
				want = d
			} else if d != want {
				return 0, fmt.Errorf("unbalanced tree: leaf depths %d and %d", want, d)
			}
		}
		return want, nil
	}
	if _, err := walk(t.root, 0, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("size %d but %d entries found", t.size, count)
	}
	if t.trackIDs {
		if err := t.checkAgg(t.root); err != nil {
			return err
		}
	}
	if t.plane != nil {
		if err := t.CheckPlane(nil); err != nil {
			return fmt.Errorf("plane: %w", err)
		}
	}
	return nil
}
