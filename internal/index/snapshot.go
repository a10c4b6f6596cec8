package index

// Index persistence: the per-shard sections of the arena snapshot
// container (internal/dataio) and their reassembly into a live Index.
//
// A saved index is the verbatim state of the spatial core: the RR-tree
// arena (including its NList aggregate), one arena section per TR-tree
// shard, the shard assignment table (a function of the IDs, stored so
// a reader can cross-check placement), the expiry heap, and the route
// and transition tables. Loading restores every arena byte-for-byte —
// same NodeIDs, same free lists, same aggregates — so a booted index
// answers queries identically to the index that was saved, and
// re-saving a loaded index reproduces the file exactly.
//
// Only the PList is not stored: it is a deterministic function of the
// route table (stop → sorted covering routes) and is rebuilt during
// load, which keeps the stop-keyed map out of the on-disk contract.

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/dataio"
	"repro/internal/model"
	"repro/internal/rtree"
)

// Section tags owned by the index. TR-tree shards use TRShardTag(i).
const (
	SecIndexMeta   = "idxmeta"
	SecShardAssign = "shardasn"
	SecExpiry      = "expiry"
	SecRRTree      = "rrtree"
)

const indexMetaVersion = 1

// TRShardTag returns the section tag of TR-tree shard i.
func TRShardTag(i int) string { return fmt.Sprintf("trsh%03d", i) }

// AppendSnapshotSections writes the index's sections to an open
// container. The caller owns the SectionWriter and may add further
// sections (network, serve metadata) before Close.
func AppendSnapshotSections(sw *dataio.SectionWriter, x *Index) error {
	return appendSections(sw, x, true, func(int) bool { return true })
}

// AppendDeltaSections writes the subset of index sections an
// incremental checkpoint needs: the small whole-index tables (idxmeta,
// transitions, shard assignment, expiry heap) always, the structural
// sections (routes, RR-tree arena) only when structural is set, and
// shard arenas only where shardChanged reports true. Overlaying the
// result onto the previous chain state (dataio.Overlay) reproduces
// exactly the sections a full AppendSnapshotSections would emit,
// because unwritten shards are by definition unmodified since the
// previous link.
func AppendDeltaSections(sw *dataio.SectionWriter, x *Index, structural bool, shardChanged func(int) bool) error {
	return appendSections(sw, x, structural, shardChanged)
}

func appendSections(sw *dataio.SectionWriter, x *Index, structural bool, shardChanged func(int) bool) error {
	// idxmeta: u32 version, u32 shard count, u32 zero (once a round-robin
	// shard cursor; ignored on read), u32 zero, u64 routes, u64
	// transitions.
	meta := make([]byte, 0, 32)
	meta = binary.LittleEndian.AppendUint32(meta, indexMetaVersion)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(x.trShards)))
	meta = binary.LittleEndian.AppendUint64(meta, 0)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(x.routes)))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(len(x.transitions)))
	sw.Section(SecIndexMeta, meta)

	if structural {
		routes := make([]model.Route, 0, len(x.routes))
		for _, r := range x.routes {
			routes = append(routes, *r)
		}
		sort.Slice(routes, func(i, j int) bool { return routes[i].ID < routes[j].ID })
		rb, err := dataio.MarshalRoutes(routes)
		if err != nil {
			return err
		}
		sw.Section(dataio.SecRoutes, rb)
	}

	ts := make([]model.Transition, 0, len(x.transitions))
	for _, t := range x.transitions {
		ts = append(ts, *t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	sw.Section(dataio.SecTransitions, dataio.MarshalTransitions(ts))

	// shardasn: u64 count, then one i32 shard per transition, parallel to
	// the (ID-sorted) transitions section.
	asn := make([]byte, 0, 8+4*len(ts))
	asn = binary.LittleEndian.AppendUint64(asn, uint64(len(ts)))
	for i := range ts {
		asn = binary.LittleEndian.AppendUint32(asn, uint32(x.HomeShard(ts[i].ID)))
	}
	sw.Section(SecShardAssign, asn)

	// expiry: the min-heap array verbatim (u64 count, then per entry
	// i64 time, i32 id, u32 zero), so a loaded index drains expiries in
	// the same order the saved one would have.
	exp := make([]byte, 0, 8+16*len(x.expiry))
	exp = binary.LittleEndian.AppendUint64(exp, uint64(len(x.expiry)))
	for _, e := range x.expiry {
		exp = binary.LittleEndian.AppendUint64(exp, uint64(e.time))
		exp = binary.LittleEndian.AppendUint32(exp, uint32(e.id))
		exp = binary.LittleEndian.AppendUint32(exp, 0)
	}
	sw.Section(SecExpiry, exp)

	if structural {
		sw.Section(SecRRTree, x.rr.AppendArena(nil))
	}
	for i, sh := range x.trShards {
		if shardChanged(i) {
			sw.Section(TRShardTag(i), sh.AppendArena(nil))
		}
	}
	return sw.Err()
}

// WriteSnapshot serialises the index as a self-contained arena snapshot.
func WriteSnapshot(w io.Writer, x *Index) error {
	sw := dataio.NewSectionWriter(w)
	if err := AppendSnapshotSections(sw, x); err != nil {
		return err
	}
	return sw.Close()
}

// LoadOptions tunes snapshot reassembly.
type LoadOptions struct {
	// View loads the RR-tree and shard arenas as zero-copy views of the
	// section payloads (rtree.TreeFromArenaView) instead of heap copies.
	// The sections — typically an mmap'd container — must then outlive
	// the Index; trees migrate themselves to the heap on first write.
	View bool
}

// SnapshotFromSections reassembles an Index from a parsed container.
func SnapshotFromSections(secs *dataio.Sections) (*Index, error) {
	return SnapshotFromSectionsOpts(secs, LoadOptions{})
}

// SnapshotFromSectionsOpts reassembles an Index with explicit load
// options.
func SnapshotFromSectionsOpts(secs *dataio.Sections, o LoadOptions) (*Index, error) {
	meta, ok := secs.Lookup(SecIndexMeta)
	if !ok {
		return nil, fmt.Errorf("index: snapshot has no %q section (dataset-only snapshot?)", SecIndexMeta)
	}
	if len(meta) != 32 {
		return nil, fmt.Errorf("index: %q section is %d bytes, want 32", SecIndexMeta, len(meta))
	}
	if v := binary.LittleEndian.Uint32(meta); v != indexMetaVersion {
		return nil, fmt.Errorf("index: snapshot meta version %d, want %d", v, indexMetaVersion)
	}
	shardCount := int(binary.LittleEndian.Uint32(meta[4:]))
	nRoutes := binary.LittleEndian.Uint64(meta[16:])
	nTrans := binary.LittleEndian.Uint64(meta[24:])
	if shardCount < 1 {
		return nil, fmt.Errorf("index: snapshot shard count %d", shardCount)
	}

	ds, _, err := dataio.DatasetFromSections(secs)
	if err != nil {
		return nil, err
	}
	if uint64(len(ds.Routes)) != nRoutes || uint64(len(ds.Transitions)) != nTrans {
		return nil, fmt.Errorf("index: snapshot meta claims %d routes / %d transitions, sections hold %d / %d",
			nRoutes, nTrans, len(ds.Routes), len(ds.Transitions))
	}

	x := &Index{
		routes:      make(map[model.RouteID]*model.Route, len(ds.Routes)),
		transitions: make(map[model.TransitionID]*model.Transition, len(ds.Transitions)),
		plist:       make(map[model.StopID][]model.RouteID),
	}
	routePoints := 0
	for i := range ds.Routes {
		r := &ds.Routes[i]
		if err := validateRoute(r); err != nil {
			return nil, err
		}
		if _, dup := x.routes[r.ID]; dup {
			return nil, fmt.Errorf("index: snapshot has duplicate route ID %d", r.ID)
		}
		x.routes[r.ID] = r
		routePoints += len(r.Pts)
		for j := range r.Stops {
			x.addToPList(r.Stops[j], r.ID)
		}
	}

	asn, ok := secs.Lookup(SecShardAssign)
	if !ok {
		return nil, fmt.Errorf("index: snapshot has no %q section", SecShardAssign)
	}
	if len(asn) != 8+4*len(ds.Transitions) ||
		binary.LittleEndian.Uint64(asn) != uint64(len(ds.Transitions)) {
		return nil, fmt.Errorf("index: %q section does not match the transition count", SecShardAssign)
	}
	for i := range ds.Transitions {
		t := &ds.Transitions[i]
		if _, dup := x.transitions[t.ID]; dup {
			return nil, fmt.Errorf("index: snapshot has duplicate transition ID %d", t.ID)
		}
		s := int32(binary.LittleEndian.Uint32(asn[8+4*i:]))
		if s < 0 || int(s) >= shardCount {
			return nil, fmt.Errorf("index: transition %d assigned to shard %d of %d", t.ID, s, shardCount)
		}
		// Writes find a transition by hashing its ID; one stored anywhere
		// else could never be removed.
		if h := homeShard(t.ID, shardCount); int(s) != h {
			return nil, fmt.Errorf("index: snapshot places transition %d on shard %d, its home shard is %d: the file predates home placement; rebuild it from the dataset with -save-index", t.ID, s, h)
		}
		x.transitions[t.ID] = t
	}

	exp, ok := secs.Lookup(SecExpiry)
	if !ok {
		return nil, fmt.Errorf("index: snapshot has no %q section", SecExpiry)
	}
	if len(exp) < 8 || len(exp) != 8+16*int(binary.LittleEndian.Uint64(exp)) {
		return nil, fmt.Errorf("index: %q section malformed", SecExpiry)
	}
	heapLen := int(binary.LittleEndian.Uint64(exp))
	x.expiry = make(timeHeap, heapLen)
	for i := 0; i < heapLen; i++ {
		off := 8 + 16*i
		x.expiry[i] = timedEntry{
			time: int64(binary.LittleEndian.Uint64(exp[off:])),
			id:   model.TransitionID(binary.LittleEndian.Uint32(exp[off+8:])),
		}
	}

	loadTree := rtree.TreeFromArena
	if o.View {
		loadTree = rtree.TreeFromArenaView
	}
	rrb, ok := secs.Lookup(SecRRTree)
	if !ok {
		return nil, fmt.Errorf("index: snapshot has no %q section", SecRRTree)
	}
	if x.rr, err = loadTree(rrb); err != nil {
		return nil, fmt.Errorf("index: RR-tree: %w", err)
	}
	if !x.rr.TracksIDs() {
		return nil, fmt.Errorf("index: snapshot RR-tree lacks the NList aggregate")
	}
	if x.rr.Len() != routePoints {
		return nil, fmt.Errorf("index: RR-tree holds %d points, route table has %d", x.rr.Len(), routePoints)
	}

	x.trShards = make([]*rtree.Tree, shardCount)
	endpoints := 0
	for i := range x.trShards {
		sb, ok := secs.Lookup(TRShardTag(i))
		if !ok {
			return nil, fmt.Errorf("index: snapshot has no %q section", TRShardTag(i))
		}
		if x.trShards[i], err = loadTree(sb); err != nil {
			return nil, fmt.Errorf("index: TR-tree shard %d: %w", i, err)
		}
		endpoints += x.trShards[i].Len()
	}
	if endpoints != 2*len(ds.Transitions) {
		return nil, fmt.Errorf("index: TR-tree shards hold %d endpoints, want %d", endpoints, 2*len(ds.Transitions))
	}
	return x, nil
}

// FileBackedArenas reports how many of the index's arenas (RR-tree plus
// shards) still alias the snapshot buffer they were view-loaded from.
// Zero for heap-loaded indexes and for view-loaded ones after every
// arena took a write. Callers must hold the same locks a read needs.
func (x *Index) FileBackedArenas() int {
	n := 0
	if x.rr.FileBacked() {
		n++
	}
	for _, sh := range x.trShards {
		if sh.FileBacked() {
			n++
		}
	}
	return n
}

// FileBackedBytes reports the arena bytes still served from the
// snapshot buffer (rtree.ViewBytes summed). Same locking rules as
// FileBackedArenas.
func (x *Index) FileBackedBytes() int64 {
	b := x.rr.ViewBytes()
	for _, sh := range x.trShards {
		b += sh.ViewBytes()
	}
	return b
}

// ReadSnapshot deserialises an index written by WriteSnapshot (or any
// container that includes index sections).
func ReadSnapshot(r io.Reader) (*Index, error) {
	secs, err := dataio.ReadSections(r)
	if err != nil {
		return nil, err
	}
	return SnapshotFromSections(secs)
}
