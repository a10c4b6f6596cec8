package index

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/rtree"
)

// TestShardingRoundTrip checks that a multi-shard index holds exactly the
// same transition endpoints as a single-shard one, each transition's two
// endpoints share a shard, and occupancy stays balanced.
func TestShardingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ds := randomDataset(rng, 10, 500)
	for _, shards := range []int{1, 2, 4, 7} {
		x, err := BuildOpts(ds, Options{TRShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := x.NumTransitionShards(); got != shards {
			t.Fatalf("shards = %d, want %d", got, shards)
		}
		if got := x.TransitionPoints(); got != 2*len(ds.Transitions) {
			t.Fatalf("shards=%d: %d endpoints, want %d", shards, got, 2*len(ds.Transitions))
		}
		// Union of shard contents == transition set, endpoints colocated.
		type ep struct {
			id   model.TransitionID
			role int32
		}
		where := map[ep]int{}
		for s, tree := range x.TransitionShards() {
			for _, e := range tree.All() {
				where[ep{e.ID, e.Aux}] = s
			}
		}
		for _, tr := range ds.Transitions {
			so, okO := where[ep{tr.ID, Origin}]
			sd, okD := where[ep{tr.ID, Destination}]
			if !okO || !okD {
				t.Fatalf("shards=%d: transition %d endpoints missing", shards, tr.ID)
			}
			if so != sd {
				t.Fatalf("shards=%d: transition %d endpoints split across shards %d and %d", shards, tr.ID, so, sd)
			}
		}
		// Home placement is a hash of the ID: a shard's transition count is
		// binomial(n, 1/shards), so hold it to four standard deviations.
		n, p := float64(len(ds.Transitions)), 1/float64(shards)
		slack := 4 * math.Sqrt(n*p*(1-p))
		for s, size := range x.TransitionShardSizes() {
			if d := float64(size)/2 - n*p; d < -slack || d > slack {
				t.Fatalf("shards=%d: shard %d holds %d of %d transitions, want %.0f +/- %.0f",
					shards, s, size/2, len(ds.Transitions), n*p, slack)
			}
		}
	}
}

// TestBuildPlacesAtHome pins the one placement rule on the bulk-load
// path: every endpoint of every bulk-loaded transition sits in
// trShards[HomeShard(id)], where dynamic writes will look for it.
func TestBuildPlacesAtHome(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	ds := randomDataset(rng, 10, 400)
	for _, shards := range []int{1, 2, 3, 4, 8} {
		x, err := BuildOpts(ds, Options{TRShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for s, tree := range x.TransitionShards() {
			for _, e := range tree.All() {
				seen++
				if h := x.HomeShard(e.ID); h != s {
					t.Fatalf("shards=%d: endpoint %d/%d of a bulk-loaded transition sits in shard %d, home is %d", shards, e.ID, e.Aux, s, h)
				}
			}
		}
		if seen != 2*len(ds.Transitions) {
			t.Fatalf("shards=%d: %d endpoints indexed, want %d", shards, seen, 2*len(ds.Transitions))
		}
		// A bulk-loaded ID is removable through its home shard alone.
		id := ds.Transitions[0].ID
		if removed := x.RemoveBatchFromShard(x.HomeShard(id), []model.TransitionID{id}); !removed[0] {
			t.Fatalf("shards=%d: bulk-loaded transition %d not removable from its home shard", shards, id)
		}
	}
}

// TestShardedDynamicChurn adds and removes transitions dynamically on a
// multi-shard index and checks the shard contents stay exact.
func TestShardedDynamicChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	x, err := BuildOpts(&model.Dataset{}, Options{TRShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	live := map[model.TransitionID]bool{}
	nextID := model.TransitionID(1)
	for step := 0; step < 600; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			tr := model.Transition{
				ID: nextID,
				O:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
				D:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
			}
			nextID++
			if err := x.AddTransition(tr); err != nil {
				t.Fatal(err)
			}
			live[tr.ID] = true
		} else {
			var victim model.TransitionID
			k := rng.Intn(len(live))
			for id := range live {
				if k == 0 {
					victim = id
					break
				}
				k--
			}
			if !x.RemoveTransition(victim) {
				t.Fatalf("step %d: remove %d failed", step, victim)
			}
			delete(live, victim)
		}
		if x.NumTransitions() != len(live) {
			t.Fatalf("step %d: NumTransitions %d, want %d", step, x.NumTransitions(), len(live))
		}
		if x.TransitionPoints() != 2*len(live) {
			t.Fatalf("step %d: %d endpoints, want %d", step, x.TransitionPoints(), 2*len(live))
		}
	}
}

// TestBatchMatchesSingleOps cross-checks the batch add/remove paths
// against one-at-a-time application on a second index.
func TestBatchMatchesSingleOps(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	mkTrans := func(n int) []model.Transition {
		ts := make([]model.Transition, n)
		for i := range ts {
			ts[i] = model.Transition{
				ID: model.TransitionID(i + 1),
				O:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
				D:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
			}
		}
		return ts
	}
	ts := mkTrans(300)
	a, _ := BuildOpts(&model.Dataset{}, Options{TRShards: 4})
	b, _ := BuildOpts(&model.Dataset{}, Options{TRShards: 4})
	if errs := a.AddTransitionsBatch(ts); errs[0] != nil {
		t.Fatal(errs[0])
	}
	for _, tr := range ts {
		if err := b.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate add in a batch fails per-op, not the whole batch.
	errs := a.AddTransitionsBatch([]model.Transition{{ID: 1}, {ID: 10_000}})
	if errs[0] == nil || errs[1] != nil {
		t.Fatalf("dup batch errs = %v", errs)
	}
	a.RemoveTransition(10_000)
	if a.NumTransitions() != b.NumTransitions() {
		t.Fatalf("batch %d vs single %d transitions", a.NumTransitions(), b.NumTransitions())
	}
	ids := make([]model.TransitionID, 0, 150)
	for i := 0; i < 150; i++ {
		ids = append(ids, ts[i].ID)
	}
	existed := a.RemoveTransitionsBatch(ids)
	for i, ok := range existed {
		if !ok {
			t.Fatalf("batch remove %d reported absent", ids[i])
		}
	}
	for _, id := range ids {
		if !b.RemoveTransition(id) {
			t.Fatalf("single remove %d failed", id)
		}
	}
	if a.TransitionPoints() != b.TransitionPoints() {
		t.Fatalf("endpoints: batch %d vs single %d", a.TransitionPoints(), b.TransitionPoints())
	}
}

// TestNListDifferentialOracle fuzzes route add/remove interleavings and
// demands the incremental NList stay byte-identical to a wholesale
// rebuild (wholesaleNList) on every node.
func TestNListDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	x, err := Build(&model.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	live := map[model.RouteID]model.Route{}
	nextID := model.RouteID(1)
	steps := 300
	if testing.Short() {
		steps = 120
	}
	for step := 0; step < steps; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			n := 2 + rng.Intn(5)
			r := model.Route{ID: nextID}
			nextID++
			for i := 0; i < n; i++ {
				s := model.StopID(rng.Intn(30))
				r.Stops = append(r.Stops, s)
				r.Pts = append(r.Pts, geo.Pt(rng.Float64()*40, rng.Float64()*40))
			}
			if err := x.AddRoute(r); err != nil {
				t.Fatal(err)
			}
			live[r.ID] = r
		} else {
			var victim model.RouteID
			k := rng.Intn(len(live))
			for id := range live {
				if k == 0 {
					victim = id
					break
				}
				k--
			}
			if !x.RemoveRoute(victim) {
				t.Fatalf("step %d: remove %d failed", step, victim)
			}
			delete(live, victim)
		}
		if step%19 != 18 {
			continue
		}
		compareNListToOracle(t, x, step)
	}
	compareNListToOracle(t, x, steps)
}

func compareNListToOracle(t *testing.T, x *Index, step int) {
	t.Helper()
	for n, want := range wholesaleNList(x.RouteTree()) {
		got := x.NList(n)
		if len(got) != len(want) {
			t.Fatalf("step %d node %d: incremental has %d ids, oracle %d", step, n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d node %d: incremental[%d]=%d, oracle=%d", step, n, i, got[i], want[i])
			}
		}
	}
}

// wholesaleNList rebuilds every node's route list by walking the whole
// RR-tree bottom-up: the NList without the incremental aggregate, kept
// as the oracle the aggregate must match.
func wholesaleNList(tree *rtree.Tree) map[rtree.NodeID][]model.RouteID {
	out := make(map[rtree.NodeID][]model.RouteID)
	var walk func(n rtree.NodeID) []model.RouteID
	walk = func(n rtree.NodeID) []model.RouteID {
		set := make(map[model.RouteID]struct{})
		if tree.IsLeaf(n) {
			for _, e := range tree.Entries(n) {
				set[e.ID] = struct{}{}
			}
		} else {
			for _, c := range tree.Children(n) {
				for _, id := range walk(c) {
					set[id] = struct{}{}
				}
			}
		}
		ids := make([]model.RouteID, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out[n] = ids
		return ids
	}
	walk(tree.Root())
	return out
}

// TestReturnedSlicesAreCopies asserts the API-boundary contract: slices
// returned by Crossover and NList are private copies, so mutating them
// cannot corrupt the index. Run with -race: the concurrent readers below
// would flag a shared-slice write immediately.
func TestReturnedSlicesAreCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ds := randomDataset(rng, 30, 50)
	x, err := Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	root := x.RouteTree().Root()
	wantN := x.NList(root)
	wantC := x.Crossover(0)
	if len(wantN) == 0 || len(wantC) == 0 {
		t.Fatal("test needs non-empty lists")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := x.NList(root)
				for j := range got {
					got[j] = -1 // scribble over the returned slice
				}
				got2 := x.Crossover(0)
				for j := range got2 {
					got2[j] = -1
				}
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			}
		}(w)
	}
	wg.Wait()
	gotN := x.NList(root)
	for i := range gotN {
		if gotN[i] != wantN[i] {
			t.Fatalf("NList corrupted by caller mutation: %v vs %v", gotN, wantN)
		}
	}
	gotC := x.Crossover(0)
	for i := range gotC {
		if gotC[i] != wantC[i] {
			t.Fatalf("Crossover corrupted by caller mutation: %v vs %v", gotC, wantC)
		}
	}
}

// TestExpiryHeap exercises the min-heap expiry path: interleaved adds,
// removes and expiries with duplicate re-added IDs.
func TestExpiryHeap(t *testing.T) {
	x, err := Build(&model.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id model.TransitionID, tm int64) {
		t.Helper()
		if err := x.AddTransition(model.Transition{ID: id, O: geo.Pt(1, 1), D: geo.Pt(2, 2), Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 100)
	add(2, 200)
	add(3, 0) // untimed: never expires
	add(4, 300)
	x.RemoveTransition(2) // stale heap entry
	if n := x.ExpireTransitionsBefore(250); n != 1 {
		t.Fatalf("expired %d, want 1 (only id 1; id 2 already gone)", n)
	}
	// Re-add an expired ID with a later time: old heap entry must not
	// evict it early.
	add(1, 500)
	if n := x.ExpireTransitionsBefore(400); n != 1 {
		t.Fatalf("expired %d, want 1 (id 4)", n)
	}
	if x.Transition(1) == nil {
		t.Fatal("re-added transition 1 wrongly expired")
	}
	if n := x.ExpireTransitionsBefore(1000); n != 1 {
		t.Fatalf("expired %d, want 1 (id 1 at t=500)", n)
	}
	if x.Transition(3) == nil {
		t.Fatal("untimed transition expired")
	}
	if x.NumTransitions() != 1 {
		t.Fatalf("NumTransitions = %d, want 1", x.NumTransitions())
	}
}
