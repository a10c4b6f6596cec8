package rtree

// Arena serialization. The flat SoA layout makes persistence a verbatim
// dump: every backing slice — rect coordinate planes, leaf flags, counts,
// parent links, the fixed-stride child and entry blocks, the free list
// and the optional distinct-ID aggregate — is written out unchanged,
// including the dead slots beyond each node's count and the slots of
// freed nodes. Loading therefore reconstructs the exact arena (same
// NodeIDs, same generation, same free list), and save→load→save is
// byte-identical.
//
// Layout (all integers little-endian, floats IEEE-754 bits; every array
// zero-padded to an 8-byte boundary so an mmap view has aligned rows):
//
//	u32 version (2)   u32 flags (bit 0: ID aggregate)
//	u32 maxEntries    u32 slotsPerNode      (layout constants, validated)
//	i64 size          u64 generation
//	i32 root          u32 zero padding
//	u64 nodeCount     u64 freeCount         u64 aggTotal
//	xlo     nodeCount × f64   \
//	ylo     nodeCount × f64    | rect coordinate planes, stored planar
//	xhi     nodeCount × f64    | to mirror the in-memory arena
//	yhi     nodeCount × f64   /
//	leaf    nodeCount × u8 (0/1)                       [padded]
//	counts  nodeCount × i32                            [padded]
//	parent  nodeCount × i32                            [padded]
//	kids    nodeCount × slotsPerNode × i32             [padded]
//	ents    nodeCount × slotsPerNode × {x,y f64, id,aux i32}
//	free    freeCount × i32                            [padded]
//	(flag bit 0 only:)
//	aggLen  nodeCount × u32                            [padded]
//	aggIDs  aggTotal  × i32                            [padded]
//	aggCnt  aggTotal  × i32                            [padded]
//
// Version 1 payloads (rects as one interleaved row array) are rejected
// like any other foreign version.
//
// The layout constants are part of the on-disk contract: a build with a
// different fanout refuses to load the arena rather than misread it.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

const (
	arenaVersion      = 2
	arenaFlagIDAgg    = 1 << 0
	arenaFixedHeader  = 4*4 + 8 + 8 + 4 + 4 + 8 + 8 + 8
	arenaBytesPerNode = 32 + 1 + 4 + 4 + 4*slotsPerNode + 24*slotsPerNode
)

// AppendArena appends the tree's serialised arena to buf and returns the
// extended slice.
func (t *Tree) AppendArena(buf []byte) []byte {
	n := len(t.xlo)
	aggTotal := 0
	if t.trackIDs {
		for _, ids := range t.aggIDs {
			aggTotal += len(ids)
		}
	}
	need := arenaFixedHeader + n*arenaBytesPerNode + 4*len(t.free) + 4*n + 8*aggTotal + 8*8
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	le := binary.LittleEndian
	flags := uint32(0)
	if t.trackIDs {
		flags |= arenaFlagIDAgg
	}
	buf = le.AppendUint32(buf, arenaVersion)
	buf = le.AppendUint32(buf, flags)
	buf = le.AppendUint32(buf, maxEntries)
	buf = le.AppendUint32(buf, slotsPerNode)
	buf = le.AppendUint64(buf, uint64(t.size))
	buf = le.AppendUint64(buf, t.generation)
	buf = le.AppendUint32(buf, uint32(t.root))
	buf = le.AppendUint32(buf, 0)
	buf = le.AppendUint64(buf, uint64(n))
	buf = le.AppendUint64(buf, uint64(len(t.free)))
	buf = le.AppendUint64(buf, uint64(aggTotal))

	for _, plane := range [4][]float64{t.xlo, t.ylo, t.xhi, t.yhi} {
		for _, v := range plane {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, l := range t.leaf {
		if l {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = padArena(buf)
	for _, c := range t.counts {
		buf = le.AppendUint32(buf, uint32(c))
	}
	buf = padArena(buf)
	for _, p := range t.parent {
		buf = le.AppendUint32(buf, uint32(p))
	}
	buf = padArena(buf)
	for _, k := range t.kids {
		buf = le.AppendUint32(buf, uint32(k))
	}
	buf = padArena(buf)
	for _, e := range t.ents {
		buf = le.AppendUint64(buf, math.Float64bits(e.Pt.X))
		buf = le.AppendUint64(buf, math.Float64bits(e.Pt.Y))
		buf = le.AppendUint32(buf, uint32(e.ID))
		buf = le.AppendUint32(buf, uint32(e.Aux))
	}
	for _, f := range t.free {
		buf = le.AppendUint32(buf, uint32(f))
	}
	buf = padArena(buf)
	if t.trackIDs {
		for _, ids := range t.aggIDs {
			buf = le.AppendUint32(buf, uint32(len(ids)))
		}
		buf = padArena(buf)
		for _, ids := range t.aggIDs {
			for _, id := range ids {
				buf = le.AppendUint32(buf, uint32(id))
			}
		}
		buf = padArena(buf)
		for _, cnts := range t.aggCnt {
			for _, c := range cnts {
				buf = le.AppendUint32(buf, uint32(c))
			}
		}
		buf = padArena(buf)
	}
	return buf
}

func padArena(buf []byte) []byte {
	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// WriteArena serialises the arena to w (see AppendArena for the layout).
func (t *Tree) WriteArena(w io.Writer) error {
	_, err := w.Write(t.AppendArena(nil))
	return err
}

// TreeFromArena reconstructs a tree from an AppendArena payload. The
// buffer is copied; the returned tree does not alias data.
func TreeFromArena(data []byte) (*Tree, error) {
	return treeFromArena(data, false)
}

// treeFromArena decodes an arena payload. With view set (and the host
// and buffer eligible — see canViewArena) the four rect planes and the
// kids/ents blocks are zero-copy reinterpretations of data instead of
// heap copies; everything else is always materialized.
func treeFromArena(data []byte, view bool) (*Tree, error) {
	d := &arenaDecoder{b: data}
	version := d.u32()
	flags := d.u32()
	gotMax := d.u32()
	gotSlots := d.u32()
	size := int64(d.u64())
	generation := d.u64()
	root := NodeID(int32(d.u32()))
	headerPad := d.u32()
	nodeCount := d.u64()
	freeCount := d.u64()
	aggTotal := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if version != arenaVersion {
		return nil, fmt.Errorf("rtree: arena version %d, want %d", version, arenaVersion)
	}
	if gotMax != maxEntries || gotSlots != slotsPerNode {
		return nil, fmt.Errorf("rtree: arena fanout %d/%d, this build uses %d/%d",
			gotMax, gotSlots, maxEntries, slotsPerNode)
	}
	if headerPad != 0 {
		return nil, fmt.Errorf("rtree: arena header padding not zero")
	}
	remaining := uint64(len(data))
	if nodeCount > remaining/arenaBytesPerNode+1 || freeCount > remaining/4+1 || aggTotal > remaining/8+1 {
		return nil, fmt.Errorf("rtree: arena counts out of bounds (%d nodes, %d free, %d agg)",
			nodeCount, freeCount, aggTotal)
	}
	n := int(nodeCount)
	t := &Tree{
		root:       root,
		size:       int(size),
		generation: generation,
		trackIDs:   flags&arenaFlagIDAgg != 0,
		leaf:       make([]bool, n),
		counts:     make([]int32, n),
		parent:     make([]NodeID, n),
		free:       make([]NodeID, freeCount),
	}
	// View-backed loads alias the buffer only for the arrays that
	// dominate the payload (~99% of bytes: rect planes, kids, ents).
	// The small per-node arrays are cheap to copy and keeping them heap
	// means the mutation hot path (counts, leaf flags, free list) never
	// touches a read-only mapping.
	t.viewBacked = view && canViewArena(data)
	// Each array is pulled out of the buffer in one bounds check and
	// decoded with a fixed-stride loop: the load is memory-bandwidth
	// bound, not call-overhead bound.
	le := binary.LittleEndian
	if t.viewBacked {
		t.xlo = viewFloat64s(d.take(8*n), n)
		t.ylo = viewFloat64s(d.take(8*n), n)
		t.xhi = viewFloat64s(d.take(8*n), n)
		t.yhi = viewFloat64s(d.take(8*n), n)
	} else {
		t.xlo, t.ylo = make([]float64, n), make([]float64, n)
		t.xhi, t.yhi = make([]float64, n), make([]float64, n)
		for _, plane := range [4][]float64{t.xlo, t.ylo, t.xhi, t.yhi} {
			if b := d.take(8 * n); b != nil {
				for i := range plane {
					plane[i] = math.Float64frombits(le.Uint64(b[8*i:]))
				}
			}
		}
	}
	if b := d.take(n); b != nil {
		for i, v := range b {
			if v > 1 {
				return nil, fmt.Errorf("rtree: arena leaf flag %d at node %d", v, i)
			}
			t.leaf[i] = v != 0
		}
	}
	d.pad()
	decodeInt32s(d, t.counts)
	d.pad()
	if b := d.take(4 * n); b != nil {
		for i := range t.parent {
			t.parent[i] = NodeID(int32(le.Uint32(b[4*i:])))
		}
	}
	d.pad()
	if t.viewBacked {
		t.kids = viewNodeIDs(d.take(4*n*slotsPerNode), n*slotsPerNode)
	} else {
		t.kids = make([]NodeID, n*slotsPerNode)
		if b := d.take(4 * len(t.kids)); b != nil {
			for i := range t.kids {
				t.kids[i] = NodeID(int32(le.Uint32(b[4*i:])))
			}
		}
	}
	d.pad()
	if t.viewBacked {
		t.ents = viewEntries(d.take(24*n*slotsPerNode), n*slotsPerNode)
	} else {
		t.ents = make([]Entry, n*slotsPerNode)
		if b := d.take(24 * len(t.ents)); b != nil {
			for i := range t.ents {
				row := b[24*i:]
				t.ents[i].Pt.X = math.Float64frombits(le.Uint64(row))
				t.ents[i].Pt.Y = math.Float64frombits(le.Uint64(row[8:]))
				t.ents[i].ID = int32(le.Uint32(row[16:]))
				t.ents[i].Aux = int32(le.Uint32(row[20:]))
			}
		}
	}
	if b := d.take(4 * len(t.free)); b != nil {
		for i := range t.free {
			t.free[i] = NodeID(int32(le.Uint32(b[4*i:])))
		}
	}
	d.pad()
	if t.trackIDs {
		t.aggIDs = make([][]int32, n)
		t.aggCnt = make([][]int32, n)
		lens := make([]int, n)
		total := 0
		if b := d.take(4 * n); b != nil {
			for i := range lens {
				lens[i] = int(le.Uint32(b[4*i:]))
				total += lens[i]
			}
		}
		d.pad()
		if d.err == nil && uint64(total) != aggTotal {
			return nil, fmt.Errorf("rtree: arena aggregate lengths sum to %d, header says %d", total, aggTotal)
		}
		// One backing array per side, sliced per node: same locality the
		// incremental aggregate converges to, and two allocations.
		idsAll := make([]int32, total)
		decodeInt32s(d, idsAll)
		d.pad()
		cntAll := make([]int32, total)
		decodeInt32s(d, cntAll)
		d.pad()
		off := 0
		for i, l := range lens {
			if l > 0 {
				t.aggIDs[i] = idsAll[off : off+l : off+l]
				t.aggCnt[i] = cntAll[off : off+l : off+l]
			}
			off += l
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("rtree: %d trailing bytes in arena", len(data)-d.off)
	}
	if err := t.validateArena(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadArena deserialises an arena written by WriteArena.
func ReadArena(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rtree: reading arena: %w", err)
	}
	return TreeFromArena(data)
}

// validateArena bounds-checks the structural references of a freshly
// loaded arena — root, parent/child links, counts, free list — so that a
// corrupted (but checksum-passing) payload cannot cause out-of-range
// panics later. It is O(arena), much cheaper than a full invariant walk.
func (t *Tree) validateArena() error {
	n := NodeID(len(t.xlo))
	if t.root < 0 || t.root >= n {
		return fmt.Errorf("rtree: arena root %d out of range [0,%d)", t.root, n)
	}
	for i, c := range t.counts {
		if c < 0 || c > slotsPerNode {
			return fmt.Errorf("rtree: arena node %d count %d out of range", i, c)
		}
		base := i * slotsPerNode
		if !t.leaf[i] {
			for _, k := range t.kids[base : base+int(c)] {
				if k < 0 || k >= n {
					return fmt.Errorf("rtree: arena node %d child %d out of range", i, k)
				}
			}
		}
	}
	for i, p := range t.parent {
		if p != NilNode && (p < 0 || p >= n) {
			return fmt.Errorf("rtree: arena node %d parent %d out of range", i, p)
		}
	}
	for _, f := range t.free {
		if f < 0 || f >= n {
			return fmt.Errorf("rtree: arena free-list entry %d out of range", f)
		}
	}
	if t.trackIDs && (len(t.aggIDs) != int(n) || len(t.aggCnt) != int(n)) {
		return fmt.Errorf("rtree: arena aggregate arrays sized %d/%d, want %d",
			len(t.aggIDs), len(t.aggCnt), n)
	}
	return nil
}

// decodeInt32s fills out from the cursor in one bounds check.
func decodeInt32s(d *arenaDecoder, out []int32) {
	if b := d.take(4 * len(out)); b != nil {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
}

// arenaDecoder is a bounds-checked little-endian cursor.
type arenaDecoder struct {
	b   []byte
	off int
	err error
}

func (d *arenaDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("rtree: arena truncated at offset %d", d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *arenaDecoder) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *arenaDecoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *arenaDecoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *arenaDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// pad skips to the next 8-byte boundary, insisting the skipped bytes are
// zero: the encoding is canonical, so decode(b) implies encode == b.
func (d *arenaDecoder) pad() {
	if rem := d.off % 8; rem != 0 {
		for _, v := range d.take(8 - rem) {
			if v != 0 && d.err == nil {
				d.err = fmt.Errorf("rtree: nonzero arena padding at offset %d", d.off)
			}
		}
	}
}
