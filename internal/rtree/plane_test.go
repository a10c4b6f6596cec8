package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// planeValue is a deterministic function of the entry, so a test can tell
// whether a stored value still belongs to the entry it sits beside.
func planeValue(salt float64) func(Entry) float64 {
	return func(e Entry) float64 {
		if e.ID%17 == 0 {
			return math.Inf(1) // the index stores +Inf for k > #routes
		}
		return salt + float64(e.ID)*1e3 + float64(e.Aux)*7 + e.Pt.X*0.25 + e.Pt.Y*0.5
	}
}

// always adapts a per-entry value function to SetPlane's signature.
func always(fn func(Entry) float64) func(int, Entry) float64 {
	return func(_ int, e Entry) float64 { return fn(e) }
}

// checkPlaneValues asserts every entry's value on the attached plane is
// fn's, and that the tree (node maxima included) is structurally sound.
func checkPlaneValues(t *testing.T, tree *Tree, fn func(Entry) float64) bool {
	t.Helper()
	if err := tree.checkInvariants(true); err != nil {
		t.Log(err)
		return false
	}
	if err := tree.CheckPlane(fn); err != nil {
		t.Log(err)
		return false
	}
	return true
}

// TestQuickPlaneValuesFollowEntries drives random insert/delete scripts
// (the generator of TestQuickModelCheck: a small universe, so deletes hit,
// nodes underflow, condense reinserts orphans and freed nodes are
// recycled) over a tree whose plane is attached while it is empty,
// replaced by another mid-script and dropped near the end, and checks
// after every mutation that values moved with their entries and every
// node maximum is exact.
func TestQuickPlaneValuesFollowEntries(t *testing.T) {
	fns := []func(Entry) float64{planeValue(0.5), planeValue(-3)}
	check := func(seq opSequence) bool {
		tree := New()
		fn := fns[0]
		tree.SetPlane(always(fn))
		for i, o := range seq.ops {
			switch i {
			case len(seq.ops) / 3:
				fn = fns[1]
				tree.SetPlane(always(fn))
			case len(seq.ops) * 9 / 10:
				fn = nil
				tree.DropPlane()
			}
			switch o.kind {
			case 0:
				if fn != nil {
					tree.InsertValued(o.entry, fn(o.entry))
				} else {
					tree.Insert(o.entry)
				}
			case 1:
				tree.Delete(o.entry)
			default:
				continue
			}
			ok := true
			if fn != nil {
				ok = checkPlaneValues(t, tree, fn)
			} else if err := tree.checkInvariants(true); err != nil {
				t.Log(err)
				ok = false
			}
			if !ok {
				t.Logf("after op %d (kind %d, %+v)", i, o.kind, o.entry)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPlaneSplitCondenseRecycle makes the three structural events
// certain rather than likely: grow to several levels (leaf and internal
// splits, root growth), delete most entries (underflow, condense
// reinsertion, root shrink), then grow again so freed node IDs are
// reused — with the plane checked at every step, and with the plane set
// over the bulk-loaded tree as the index does.
func TestPlaneSplitCondenseRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fn := planeValue(1)
	var entries []Entry
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{Pt: geo.Pt(rng.Float64()*100, rng.Float64()*100), ID: int32(i), Aux: int32(i % 2)})
	}
	tree := BulkLoad(append([]Entry(nil), entries[:1500]...))
	tree.SetPlane(always(fn))
	step := func(label string) {
		t.Helper()
		if err := tree.checkInvariants(false); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := tree.CheckPlane(fn); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	step("after SetPlane over a bulk load")
	for _, e := range entries[1500:] {
		tree.InsertValued(e, fn(e))
	}
	step("after 1500 inserts")
	nodesAtPeak := tree.NumNodes()
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for i, e := range entries[:2900] {
		if !tree.Delete(e) {
			t.Fatalf("delete %d: entry missing", i)
		}
		if i%97 == 0 {
			step("mid-delete")
		}
	}
	step("after 2900 deletes")
	if len(tree.free) == 0 || tree.NumNodes() >= nodesAtPeak {
		t.Fatalf("deletes freed no nodes (%d live of %d at peak)", tree.NumNodes(), nodesAtPeak)
	}
	freed := len(tree.free)
	for _, e := range entries[:2900] {
		tree.InsertValued(e, fn(e))
	}
	step("after regrowth")
	if len(tree.free) >= freed {
		t.Fatalf("regrowth recycled no node IDs (%d free before, %d after)", freed, len(tree.free))
	}

	// SetPlaneValue repairs the maxima above the entry, up and down.
	leaf := tree.findLeaf(tree.root, entries[0])
	for _, v := range []float64{math.Inf(1), -5, 12345} {
		for i := range tree.Entries(leaf) {
			tree.SetPlaneValue(leaf, i, v)
		}
		if err := tree.CheckPlane(nil); err != nil {
			t.Fatalf("after SetPlaneValue(%v): %v", v, err)
		}
	}
}

// TestSetPlaneFromSlotSnapshot is the index's off-lock build in
// miniature: values are computed over a SlotPoints snapshot, the tree is
// churned meanwhile (entries move between slots, arrive, leave, nodes
// split and are recycled), and SetPlane hands each entry its precomputed
// value only where the slot still holds the point it held at the
// snapshot. A stale hand-back would leave a wrong value behind.
func TestSetPlaneFromSlotSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	byPoint := func(e Entry) float64 { return e.Pt.X*3 + e.Pt.Y } // what a rank radius depends on
	var entries []Entry
	for i := 0; i < 4000; i++ {
		entries = append(entries, Entry{Pt: geo.Pt(float64(rng.Intn(1000)), float64(rng.Intn(1000))), ID: int32(i)})
	}
	tree := BulkLoad(append([]Entry(nil), entries[:3000]...))
	pts := tree.SlotPoints()
	live := 0
	vals := make([]float64, len(pts))
	for slot, pt := range pts {
		if pt.X == pt.X {
			live++
			vals[slot] = byPoint(Entry{Pt: pt})
		}
	}
	if live != tree.Len() {
		t.Fatalf("SlotPoints has %d live slots for %d entries", live, tree.Len())
	}
	for _, e := range entries[3000:] { // arrivals: splits move old entries
		tree.Insert(e)
	}
	for _, e := range entries[:1200] { // departures: swaps, condense, reinsertion
		tree.Delete(e)
	}
	reused, fresh := 0, 0
	tree.SetPlane(func(slot int, e Entry) float64 {
		if slot < len(pts) && pts[slot] == e.Pt {
			reused++
			return vals[slot]
		}
		fresh++
		return byPoint(e)
	})
	if err := tree.CheckPlane(byPoint); err != nil {
		t.Fatal(err)
	}
	if reused == 0 || fresh < 1000 {
		t.Fatalf("%d values reused, %d computed fresh: the churn did not exercise both", reused, fresh)
	}
	if pts := New().SlotPoints(); len(pts) != slotsPerNode || pts[0].X == pts[0].X {
		t.Fatalf("empty tree: %d slots, first %v", len(pts), pts[0])
	}
}

func TestInsertPlaneMismatchPanics(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return
	}
	tree := New()
	if !panics(func() { tree.InsertValued(Entry{ID: 1}, 1) }) {
		t.Error("InsertValued into a tree without a plane did not panic")
	}
	tree.SetPlane(always(planeValue(0)))
	if !panics(func() { tree.Insert(Entry{ID: 1}) }) {
		t.Error("Insert without a value into a tree with a plane did not panic")
	}
}

// bruteKthDistinct is the definition KthDistinctDist2 must match bit for
// bit: per ID the smallest Dist2, then the k-th smallest of those.
func bruteKthDistinct(entries []Entry, p geo.Point, k int) float64 {
	best := map[int32]float64{}
	for _, e := range entries {
		d := e.Pt.Dist2(p)
		if old, ok := best[e.ID]; !ok || d < old {
			best[e.ID] = d
		}
	}
	if k > len(best) {
		return math.Inf(1)
	}
	ds := make([]float64, 0, len(best))
	for _, d := range best {
		ds = append(ds, d)
	}
	sort.Float64s(ds)
	return ds[k-1]
}

// TestKthDistinctDist2 checks the bounded probe against the definition on
// grid-aligned points (exact ties everywhere), IDs with many points each,
// bulk-loaded and churned trees, and k from 1 past the number of IDs.
func TestKthDistinctDist2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 6; round++ {
		nIDs := 1 + rng.Intn(60)
		var entries []Entry
		for i := 0; i < 40+rng.Intn(1500); i++ {
			entries = append(entries, Entry{
				Pt:  geo.Pt(float64(rng.Intn(30)), float64(rng.Intn(30))),
				ID:  int32(rng.Intn(nIDs)),
				Aux: int32(i),
			})
		}
		tree := BulkLoad(append([]Entry(nil), entries...), WithIDAggregate())
		if round%2 == 1 { // churn: same content, incrementally shaped tree
			for _, e := range entries[:len(entries)/2] {
				tree.Delete(e)
			}
			for _, e := range entries[:len(entries)/2] {
				tree.Insert(e)
			}
		}
		for probe := 0; probe < 200; probe++ {
			p := geo.Pt(float64(rng.Intn(34))-2, float64(rng.Intn(34))-2)
			if probe%3 == 0 {
				p = geo.Pt(rng.Float64()*30, rng.Float64()*30)
			}
			for _, k := range []int{1, 2, 3, 10, nIDs, nIDs + 1, 0} {
				want := math.Inf(1)
				if k > 0 {
					want = bruteKthDistinct(entries, p, k)
				}
				if got := tree.KthDistinctDist2(p, k); got != want {
					t.Fatalf("round %d: KthDistinctDist2(%v, %d) = %v, want %v", round, p, k, got, want)
				}
			}
		}
	}
	if got := New().KthDistinctDist2(geo.Pt(0, 0), 1); !math.IsInf(got, 1) {
		t.Fatalf("empty tree: %v", got)
	}
}

// TestDescendPlane checks that the descent reaches every entry with
// PointRouteDist2 <= value (none may be pruned), for values that are
// mostly small so pruning actually happens.
func TestDescendPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var entries []Entry
	for i := 0; i < 4000; i++ {
		entries = append(entries, Entry{Pt: geo.Pt(rng.Float64()*100, rng.Float64()*100), ID: int32(i)})
	}
	value := func(e Entry) float64 {
		switch e.ID % 50 {
		case 0:
			return 400 // a few wide radii
		case 1:
			return 0 // only an exact hit qualifies
		}
		return 1 + float64(e.ID%7)
	}
	tree := BulkLoad(append([]Entry(nil), entries...))
	p := tree.SetPlane(always(value))
	for trial := 0; trial < 50; trial++ {
		query := make([]geo.Point, 1+rng.Intn(5))
		for i := range query {
			query[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		if trial%5 == 0 {
			query[0] = entries[1+50*rng.Intn(80)].Pt // distance 0 to a zero-radius entry
		}
		got := map[int32]bool{}
		seen := 0
		tree.DescendPlane(p, query, func(leaf NodeID, ents []Entry, vals []float64) {
			seen += len(ents)
			for i, e := range ents {
				if vals[i] != value(e) {
					t.Fatalf("leaf %d: value %v beside entry %+v, want %v", leaf, vals[i], e, value(e))
				}
				if geo.PointRouteDist2(e.Pt, query) <= vals[i] {
					got[e.ID] = true
				}
			}
		})
		want := 0
		for _, e := range entries {
			if geo.PointRouteDist2(e.Pt, query) <= value(e) {
				want++
				if !got[e.ID] {
					t.Fatalf("trial %d: entry %+v qualifies but its leaf was pruned", trial, e)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: %d hits, want %d", trial, len(got), want)
		}
		if seen >= len(entries) {
			t.Fatalf("trial %d: descent compared %d of %d entries: nothing pruned", trial, seen, len(entries))
		}
	}
	// Ties at every level: with all values zero an entry qualifies only at
	// distance exactly 0, where MinDist2 of every node above it equals the
	// node maximum. Pruning on >= instead of > would lose it.
	zero := tree.SetPlane(func(int, Entry) float64 { return 0 })
	for _, e := range entries[:200] {
		hit := false
		tree.DescendPlane(zero, []geo.Point{e.Pt}, func(_ NodeID, ents []Entry, _ []float64) {
			for _, f := range ents {
				hit = hit || f == e
			}
		})
		if !hit {
			t.Fatalf("entry %+v at distance 0 with radius 0 was pruned", e)
		}
	}
	empty := New()
	empty.DescendPlane(empty.SetPlane(always(value)), []geo.Point{{}}, func(NodeID, []Entry, []float64) {
		t.Fatal("descent visited a leaf of an empty tree")
	})
}
