package rtree

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// Value plane. A Plane attaches one float64 to every entry of a tree and
// keeps, per node, the largest value stored beneath it — the RdNN-tree
// construction, with the value left to the caller (the index stores
// squared rank radii). A tree carries at most one. Like the ID aggregate
// in agg.go it is maintained by the mutating entry points themselves: a
// value travels with its entry through leaf splits, condense-reinsertion
// and node recycling, and every node maximum on a touched path is brought
// back in line before InsertValued or Delete returns.
//
// The plane lives on the heap beside the arena, never in it: the
// serialized form, arena views and copy-on-write (arena_view.go) neither
// see nor move it, because a value is addressed by the same slot index as
// its entry whichever buffer the entry block currently aliases.
//
// Concurrency follows the tree's. Readers (DescendPlane) are handed the
// *Plane by its owner and may use it while no mutation runs — also after
// SetPlane or DropPlane has detached it, since a detached plane is never
// written again. SetPlane, DropPlane, SetPlaneValue, InsertValued and
// Delete need the caller's exclusion against each other, not against
// readers of the tree.

// Plane is one value per entry plus the per-node maxima. A handle is
// only meaningful against the tree that issued it.
type Plane struct {
	ent []float64 // per entry slot, parallel to Tree.ents
	max []float64 // per node; -Inf under an empty node
}

var emptyMax = math.Inf(-1)

// SetPlane attaches a new plane holding valueOf(slot, e) for every entry
// e, replacing the one attached before, and returns its handle. slot is
// the entry's position in SlotPoints order, so a caller that computed
// values over an earlier SlotPoints snapshot can hand them back for the
// entries that have not moved since.
func (t *Tree) SetPlane(valueOf func(slot int, e Entry) float64) *Plane {
	p := &Plane{ent: make([]float64, len(t.ents)), max: make([]float64, len(t.xlo))}
	for n := range p.max {
		p.max[n] = emptyMax
	}
	t.plane = p
	if t.size > 0 {
		t.fillPlane(t.root, valueOf)
	}
	return p
}

func (t *Tree) fillPlane(n NodeID, valueOf func(int, Entry) float64) {
	if t.leaf[n] {
		base := int(n) * slotsPerNode
		for i, e := range t.Entries(n) {
			t.plane.ent[base+i] = valueOf(base+i, e)
		}
	} else {
		for _, c := range t.Children(n) {
			t.fillPlane(c, valueOf)
		}
	}
	t.recomputeMax(n)
}

// DropPlane detaches the plane; the tree takes plain Inserts again.
func (t *Tree) DropPlane() { t.plane = nil }

// SlotPoints returns the point of every entry indexed by its slot, with
// NaN coordinates in the slots that hold no entry (NaN equals nothing, so
// comparing a later entry against its slot's snapshot point fails safe).
func (t *Tree) SlotPoints() []geo.Point {
	nan := geo.Pt(math.NaN(), math.NaN())
	pts := make([]geo.Point, len(t.ents))
	for i := range pts {
		pts[i] = nan
	}
	if t.size > 0 {
		t.slotPoints(t.root, pts)
	}
	return pts
}

func (t *Tree) slotPoints(n NodeID, pts []geo.Point) {
	if t.leaf[n] {
		base := int(n) * slotsPerNode
		for i, e := range t.Entries(n) {
			pts[base+i] = e.Pt
		}
		return
	}
	for _, c := range t.Children(n) {
		t.slotPoints(c, pts)
	}
}

// planeVals returns p's values of leaf n's entries, parallel to
// Entries(n). The slice aliases the plane.
func (t *Tree) planeVals(p *Plane, n NodeID) []float64 {
	base := int(n) * slotsPerNode
	return p.ent[base : base+int(t.counts[n])]
}

// SetPlaneValue replaces the value of entry i of leaf n on the attached
// plane and repairs the node maxima above it. The tree structure does not
// change, so node IDs and entry positions a traversal collected stay
// valid across calls.
func (t *Tree) SetPlaneValue(n NodeID, i int, v float64) {
	p := t.plane
	p.ent[int(n)*slotsPerNode+i] = v
	for ; n != NilNode; n = t.parent[n] {
		old := p.max[n]
		t.recomputeMax(n)
		if p.max[n] == old {
			return
		}
	}
}

// recomputeMax rebuilds node n's maximum on the attached plane from its
// entries (leaf) or its children's maxima (internal), which must already
// be correct.
func (t *Tree) recomputeMax(n NodeID) {
	p := t.plane
	m := emptyMax
	if t.leaf[n] {
		for _, v := range t.planeVals(p, n) {
			if v > m {
				m = v
			}
		}
	} else {
		for _, c := range t.Children(n) {
			if p.max[c] > m {
				m = p.max[c]
			}
		}
	}
	p.max[n] = m
}

// DescendPlane visits every leaf that may hold an entry e with
// PointRouteDist2(e.Pt, query) <= value(e): it descends from the root
// and prunes a node when even its nearest corner is farther from the
// query than the largest value beneath it (MinDist2 > NodeMax). visit
// receives the leaf with its entries and their values (parallel slices
// aliasing the tree); the per-entry comparison is the caller's.
func (t *Tree) DescendPlane(p *Plane, query []geo.Point, visit func(leaf NodeID, ents []Entry, vals []float64)) {
	if t.size == 0 || len(query) == 0 || routeMinDist2(t.rect(t.root), query) > p.max[t.root] {
		return
	}
	s := getScratch()
	defer s.release()
	stack := append(s.stack[:0], t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.leaf[n] {
			visit(n, t.Entries(n), t.planeVals(p, n))
			continue
		}
		cnt := t.GatherChildRects(n, s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:])
		geo.MinDist2RouteBlock(s.xlo[:], s.ylo[:], s.xhi[:], s.yhi[:], query, s.dist[:cnt])
		for i, c := range t.Children(n) {
			if s.dist[i] <= p.max[c] {
				stack = append(stack, c)
			}
		}
	}
	s.stack = stack
}

// CheckPlane verifies the attached plane against a recount: every node
// maximum equals the maximum of the values stored beneath it, bit for bit,
// and — when want is non-nil — every entry's value equals want(e), bit for
// bit (two +Inf are equal). It is the plane's counterpart of checkAgg,
// exported because the owner of the values (the index) lives in another
// package; tests call it after every mutation, and checkInvariants runs
// it with a nil want.
func (t *Tree) CheckPlane(want func(Entry) float64) error {
	p := t.plane
	if p == nil {
		return fmt.Errorf("no plane attached")
	}
	if len(p.ent) != len(t.ents) || len(p.max) != len(t.xlo) {
		return fmt.Errorf("plane has %d values / %d maxima for %d slots / %d nodes", len(p.ent), len(p.max), len(t.ents), len(t.xlo))
	}
	var walk func(n NodeID) (float64, error)
	walk = func(n NodeID) (float64, error) {
		m := emptyMax
		if t.leaf[n] {
			vals := t.planeVals(p, n)
			for i, e := range t.Entries(n) {
				if want != nil {
					if w := want(e); vals[i] != w {
						return 0, fmt.Errorf("leaf %d entry %+v: stored %v, want %v", n, e, vals[i], w)
					}
				}
				m = math.Max(m, vals[i]) // NaN poisons m and fails below
			}
		} else {
			for _, c := range t.Children(n) {
				cm, err := walk(c)
				if err != nil {
					return 0, err
				}
				m = math.Max(m, cm)
			}
		}
		if p.max[n] != m {
			return 0, fmt.Errorf("node %d: max %v, recount gives %v", n, p.max[n], m)
		}
		return m, nil
	}
	_, err := walk(t.root)
	return err
}
