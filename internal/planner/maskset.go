package planner

import (
	"math/bits"
	"slices"

	"repro/internal/index"
	"repro/internal/model"
)

// maskSet is the endpoint-mask union of a (partial) route, stored as two
// bitmaps over a dense transition index: one plane for origins and one for
// destinations. All the operations the Algorithm 6 search needs per
// expansion — a new set holding the union with a vertex's set, its
// cardinalities, and the containment tests of the dominance rules —
// become word-wise, which is what keeps the search tractable: the map
// representation costs O(set size) per copy with poor constants, and the
// search copies on every expansion.
type maskSet struct {
	o, d []uint64
}

// maskIndex maps dense bit positions to transition IDs and holds the
// per-vertex bitmaps. It is built before the per-vertex queries run, from
// the transitions live in the index: every transition a vertex can
// attract has a position.
type maskIndex struct {
	ids []model.TransitionID // dense position -> ID (sorted)
	vb  []maskSet            // per-vertex bitmaps
}

// newMaskIndex indexes x's live transitions and allocates n empty
// per-vertex bitmaps, all carved from one backing array. It also returns
// the ID -> position map the per-vertex masks are written through.
func newMaskIndex(x *index.Index, n int) (maskIndex, map[model.TransitionID]int) {
	ids := make([]model.TransitionID, 0, x.NumTransitions())
	x.Transitions(func(t *model.Transition) bool {
		ids = append(ids, t.ID)
		return true
	})
	slices.Sort(ids)
	pos := make(map[model.TransitionID]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	ix := maskIndex{ids: ids, vb: make([]maskSet, n)}
	w := ix.words()
	backing := make([]uint64, 2*w*n)
	for v := range ix.vb {
		b := backing[2*w*v:]
		ix.vb[v] = maskSet{o: b[:w:w], d: b[w : 2*w : 2*w]}
	}
	return ix, pos
}

func (ix *maskIndex) words() int { return (len(ix.ids) + 63) / 64 }

func (ix *maskIndex) newSet() maskSet { return makeSet(ix.words()) }

// makeSet returns an empty set of w words per plane, both planes in one
// allocation.
func makeSet(w int) maskSet {
	b := make([]uint64, 2*w)
	return maskSet{o: b[:w:w], d: b[w:]}
}

// set ORs an endpoint mask (bit 0 = origin, bit 1 = destination) into
// position i.
func (m maskSet) set(i int, mask uint8) {
	bit := uint64(1) << uint(i%64)
	if mask&1 != 0 {
		m.o[i/64] |= bit
	}
	if mask&2 != 0 {
		m.d[i/64] |= bit
	}
}

// union returns m ∪ v as a new set together with its |∃RkNNT| and
// |∀RkNNT| counts: one pass and one allocation per search expansion.
func (m maskSet) union(v maskSet) (u maskSet, exists, forAll int) {
	u = makeSet(len(m.o))
	for i := range u.o {
		o, d := m.o[i]|v.o[i], m.d[i]|v.d[i]
		u.o[i], u.d[i] = o, d
		exists += bits.OnesCount64(o | d)
		forAll += bits.OnesCount64(o & d)
	}
	return u, exists, forAll
}

// orInPlace unions v into m.
func (m maskSet) orInPlace(v maskSet) {
	for i := range m.o {
		m.o[i] |= v.o[i]
		m.d[i] |= v.d[i]
	}
}

// countExists returns |∃RkNNT|: transitions with any endpoint bit set.
func (m maskSet) countExists() int {
	n := 0
	for i := range m.o {
		n += bits.OnesCount64(m.o[i] | m.d[i])
	}
	return n
}

// countForAll returns |∀RkNNT|: transitions with both endpoint bits set.
func (m maskSet) countForAll() int {
	n := 0
	for i := range m.o {
		n += bits.OnesCount64(m.o[i] & m.d[i])
	}
	return n
}

// covers reports whether m ⊇ v bitwise on both planes.
func (m maskSet) covers(v maskSet) bool {
	for i := range m.o {
		if v.o[i]&^m.o[i] != 0 || v.d[i]&^m.d[i] != 0 {
			return false
		}
	}
	return true
}

// transitions returns the sorted transition IDs with any bit set.
func (ix *maskIndex) transitions(m maskSet) []model.TransitionID {
	var out []model.TransitionID
	if n := m.countExists(); n > 0 {
		out = make([]model.TransitionID, 0, n)
	}
	for w := range m.o {
		bitsSet := m.o[w] | m.d[w]
		for bitsSet != 0 {
			b := bits.TrailingZeros64(bitsSet)
			out = append(out, ix.ids[w*64+b])
			bitsSet &= bitsSet - 1
		}
	}
	return out
}

// masks returns m as a map from transition ID to endpoint mask.
func (ix *maskIndex) masks(m maskSet) map[model.TransitionID]uint8 {
	out := make(map[model.TransitionID]uint8)
	for w := range m.o {
		for bitsSet := m.o[w] | m.d[w]; bitsSet != 0; bitsSet &= bitsSet - 1 {
			b := uint(bits.TrailingZeros64(bitsSet))
			origin := uint8(m.o[w] >> b & 1)
			dest := uint8(m.d[w] >> b & 1)
			out[ix.ids[w*64+int(b)]] = origin | dest<<1
		}
	}
	return out
}
