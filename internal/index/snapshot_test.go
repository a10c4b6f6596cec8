package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataio"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/rtree"
)

// churnedIndex builds an index and then mutates it dynamically, so the
// snapshot under test carries recycled node IDs, free lists and a
// populated expiry heap — not just a pristine bulk load.
func churnedIndex(t *testing.T, seed int64) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := &model.Dataset{}
	for r := 0; r < 30; r++ {
		route := model.Route{ID: model.RouteID(r)}
		stops := 2 + rng.Intn(6)
		for s := 0; s < stops; s++ {
			route.Stops = append(route.Stops, model.StopID(rng.Intn(40)))
			route.Pts = append(route.Pts, geo.Pt(rng.Float64()*50, rng.Float64()*50))
		}
		ds.Routes = append(ds.Routes, route)
	}
	for i := 0; i < 800; i++ {
		ds.Transitions = append(ds.Transitions, model.Transition{
			ID:   model.TransitionID(i),
			O:    geo.Pt(rng.Float64()*50, rng.Float64()*50),
			D:    geo.Pt(rng.Float64()*50, rng.Float64()*50),
			Time: int64(1 + rng.Intn(1000)),
		})
	}
	x, err := BuildOpts(ds, Options{TRShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		x.RemoveTransition(model.TransitionID(rng.Intn(800)))
	}
	var batch []model.Transition
	for i := 0; i < 250; i++ {
		batch = append(batch, model.Transition{
			ID:   model.TransitionID(1000 + i),
			O:    geo.Pt(rng.Float64()*50, rng.Float64()*50),
			D:    geo.Pt(rng.Float64()*50, rng.Float64()*50),
			Time: int64(1 + rng.Intn(1000)),
		})
	}
	x.AddTransitionsBatch(batch)
	x.ExpireTransitionsBefore(120)
	x.RemoveRoute(7)
	if err := x.AddRoute(model.Route{
		ID:    900,
		Stops: []model.StopID{3, 9, 14},
		Pts:   []geo.Point{geo.Pt(1, 1), geo.Pt(2, 5), geo.Pt(9, 4)},
	}); err != nil {
		t.Fatal(err)
	}
	return x
}

func TestSnapshotRoundTrip(t *testing.T) {
	x := churnedIndex(t, 42)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, x); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Save→load→save byte identity.
	var again bytes.Buffer
	if err := WriteSnapshot(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("save→load→save not byte-identical (%d vs %d bytes)", buf.Len(), again.Len())
	}

	if loaded.NumRoutes() != x.NumRoutes() || loaded.NumTransitions() != x.NumTransitions() {
		t.Fatalf("loaded cardinalities %d/%d, want %d/%d",
			loaded.NumRoutes(), loaded.NumTransitions(), x.NumRoutes(), x.NumTransitions())
	}
	if loaded.NumTransitionShards() != x.NumTransitionShards() {
		t.Fatalf("loaded shard count %d, want %d", loaded.NumTransitionShards(), x.NumTransitionShards())
	}

	// NList of every RR-tree node must match (same NodeIDs after load).
	var walk func(n rtree.NodeID)
	walk = func(n rtree.NodeID) {
		want, got := x.NList(n), loaded.NList(n)
		if len(want) != len(got) {
			t.Fatalf("node %d: NList %d ids, want %d", n, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("node %d: NList[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		if !x.rr.IsLeaf(n) {
			for _, c := range x.rr.Children(n) {
				walk(c)
			}
		}
	}
	walk(x.rr.Root())

	// Crossover sets and stored routes survive (PList is rebuilt on load).
	for stop := model.StopID(0); stop < 40; stop++ {
		want, got := x.Crossover(stop), loaded.Crossover(stop)
		if len(want) != len(got) {
			t.Fatalf("stop %d: crossover %v, want %v", stop, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("stop %d: crossover %v, want %v", stop, got, want)
			}
		}
	}

	// The expiry heap drains identically.
	a := x.DrainTimedBefore(600)
	b := loaded.DrainTimedBefore(600)
	if len(a) != len(b) {
		t.Fatalf("drained %d expiries from loaded index, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expiry order diverges at %d: %d vs %d", i, b[i], a[i])
		}
	}
}

// TestSnapshotLoadedIndexMutable checks a loaded index accepts further
// dynamic updates: the restored free lists, shard cursor and aggregates
// must leave it a fully live index, not a read-only replica.
func TestSnapshotLoadedIndexMutable(t *testing.T) {
	x := churnedIndex(t, 7)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, x); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := loaded.AddTransition(model.Transition{
			ID: model.TransitionID(5000 + i),
			O:  geo.Pt(float64(i%17), float64(i%23)),
			D:  geo.Pt(float64(i%13), float64(i%29)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !loaded.RemoveTransition(5000) {
		t.Fatal("loaded index lost a freshly added transition")
	}
	if err := loaded.AddRoute(model.Route{
		ID:    901,
		Stops: []model.StopID{1, 2},
		Pts:   []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	if !loaded.RemoveRoute(901) {
		t.Fatal("loaded index lost a freshly added route")
	}
}

func TestSnapshotRejectsDatasetOnly(t *testing.T) {
	var buf bytes.Buffer
	sw := dataio.NewSectionWriter(&buf)
	rb, err := dataio.MarshalRoutes(nil)
	if err != nil {
		t.Fatal(err)
	}
	sw.Section(dataio.SecRoutes, rb)
	sw.Section(dataio.SecTransitions, dataio.MarshalTransitions(nil))
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("dataset-only container accepted as an index snapshot")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	x := churnedIndex(t, 99)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, x); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, cut := range []int{1, len(blob) / 2, len(blob) - 3} {
		if _, err := ReadSnapshot(bytes.NewReader(blob[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 1
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); err == nil {
		t.Error("bit flip accepted")
	}
}

// TestSnapshotRejectsForeignPlacement rewrites one shard-assignment
// entry of a valid snapshot (as a file written before home placement
// would carry) and expects a clean error naming the remedy: writes find
// a transition by hashing its ID, so one stored elsewhere could never be
// removed.
func TestSnapshotRejectsForeignPlacement(t *testing.T) {
	x := churnedIndex(t, 7)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, x); err != nil {
		t.Fatal(err)
	}
	secs, err := dataio.ParseSections(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var forged bytes.Buffer
	sw := dataio.NewSectionWriter(&forged)
	for _, tag := range secs.Tags() {
		payload, _ := secs.Lookup(tag)
		if tag == SecShardAssign {
			payload = append([]byte(nil), payload...)
			entry := payload[8+4*5:] // the sixth transition's shard
			s := binary.LittleEndian.Uint32(entry)
			binary.LittleEndian.PutUint32(entry, (s+1)%uint32(x.NumTransitionShards()))
		}
		sw.Section(tag, payload)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, view := range []bool{false, true} {
		fsecs, err := dataio.ParseSections(forged.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		_, err = SnapshotFromSectionsOpts(fsecs, LoadOptions{View: view})
		if err == nil || !strings.Contains(err.Error(), "home shard") || !strings.Contains(err.Error(), "-save-index") {
			t.Errorf("view=%v: foreign placement: got %v, want an error naming the home shard and -save-index", view, err)
		}
	}
}
