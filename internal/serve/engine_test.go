package serve

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/planner"
)

// twoRoutes is a deterministic micro-dataset: one route at y=10, one at
// y=100. A query along y=0 with k=1 attracts exactly the transitions
// near y=0.
func twoRoutes(t testing.TB, extra ...model.Transition) *index.Index {
	t.Helper()
	return twoRoutesSharded(t, 0, extra...)
}

// twoRoutesSharded is twoRoutes on a fixed TR-tree shard count (0: the
// default, GOMAXPROCS).
func twoRoutesSharded(t testing.TB, shards int, extra ...model.Transition) *index.Index {
	t.Helper()
	ds := &model.Dataset{
		Routes: []model.Route{
			{ID: 1, Stops: []model.StopID{0, 1}, Pts: []geo.Point{geo.Pt(0, 10), geo.Pt(10, 10)}},
			{ID: 2, Stops: []model.StopID{2, 3}, Pts: []geo.Point{geo.Pt(0, 100), geo.Pt(10, 100)}},
		},
		Transitions: extra,
	}
	x, err := index.BuildOpts(ds, index.Options{TRShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

var queryY0 = []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)}

func testCity(t testing.TB) (*gen.City, *index.Index) {
	t.Helper()
	city, err := gen.Generate(gen.LA(64))
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return city, x
}

// smallCity is compact enough that planner precomputation (one RkNNT
// query per network vertex) stays fast even under -race.
func smallCity(t testing.TB) (*gen.City, *index.Index) {
	t.Helper()
	city, err := gen.Generate(gen.Config{
		Seed:  5,
		Width: 8, Height: 8,
		GridStep:       1.6,
		Jitter:         0.2,
		NumRoutes:      12,
		RouteMinStops:  3,
		RouteMaxStops:  8,
		NumTransitions: 150,
		HotspotCount:   5,
		HotspotSigma:   1.0,
		BackgroundFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return city, x
}

func TestEngineMatchesCore(t *testing.T) {
	city, x := testCity(t)
	e := New(x, Options{})
	defer e.Close()

	// A second, independent index gives the ground truth.
	x2, err := index.Build(city.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		q := city.Query(rng, 4, 3)
		opts := core.Options{K: 8, Method: core.DivideConquer}
		got, err := e.RkNNT(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := core.RkNNT(x2, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Transitions, want) {
			t.Errorf("query %d: engine %v != core %v", i, got.Transitions, want)
		}
	}
}

func TestCacheAndInvalidation(t *testing.T) {
	x := twoRoutes(t, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})
	e := New(x, Options{})
	defer e.Close()

	opts := core.Options{K: 1}
	r1, err := e.RkNNT(queryY0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first query reported cached")
	}
	if len(r1.Transitions) != 1 || r1.Transitions[0] != 7 {
		t.Fatalf("unexpected result %v", r1.Transitions)
	}
	r2, err := e.RkNNT(queryY0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("repeat query not served from cache")
	}

	// A committed write bumps the epoch and repairs the cached entry in
	// place: the next identical query is still a cache hit, but serves
	// the post-write result.
	before := e.Epoch()
	if err := e.AddTransition(model.Transition{ID: 8, O: geo.Pt(2, 0), D: geo.Pt(8, 0)}); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() == before {
		t.Error("epoch did not advance on write")
	}
	r3, err := e.RkNNT(queryY0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached {
		t.Error("query after write not served from the repaired cache entry")
	}
	if r3.Epoch == before {
		t.Error("repaired entry kept the pre-write epoch")
	}
	if len(r3.Transitions) != 2 {
		t.Errorf("result not refreshed after write: %v", r3.Transitions)
	}
	if got := e.EngineStats().CacheRepairs; got == 0 {
		t.Error("CacheRepairs counter did not advance")
	}

	// Removing the transition repairs it back out.
	if _, err := e.RemoveTransition(8); err != nil {
		t.Fatal(err)
	}
	r4, err := e.RkNNT(queryY0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Cached {
		t.Error("query after removal not served from the repaired cache entry")
	}
	if len(r4.Transitions) != 1 || r4.Transitions[0] != 7 {
		t.Errorf("result not repaired after removal: %v", r4.Transitions)
	}
}

func TestWriteOps(t *testing.T) {
	x := twoRoutes(t)
	e := New(x, Options{})
	defer e.Close()

	if err := e.AddTransition(model.Transition{ID: 1, O: geo.Pt(1, 0), D: geo.Pt(2, 0), Time: 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTransition(model.Transition{ID: 1, O: geo.Pt(1, 0), D: geo.Pt(2, 0)}); err == nil {
		t.Error("duplicate transition accepted")
	}
	if ok, _ := e.RemoveTransition(99); ok {
		t.Error("removed nonexistent transition")
	}
	if err := e.AddTransition(model.Transition{ID: 2, O: geo.Pt(3, 0), D: geo.Pt(4, 0), Time: 200}); err != nil {
		t.Fatal(err)
	}
	n, err := e.ExpireTransitionsBefore(150)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || e.NumTransitions() != 1 {
		t.Errorf("expire removed %d (have %d), want 1 (have 1)", n, e.NumTransitions())
	}
	if ok, _ := e.RemoveTransition(2); !ok {
		t.Error("failed to remove existing transition")
	}

	if err := e.AddRoute(model.Route{ID: 3, Stops: []model.StopID{4, 5}, Pts: []geo.Point{geo.Pt(0, 50), geo.Pt(10, 50)}}); err != nil {
		t.Fatal(err)
	}
	if e.NumRoutes() != 3 {
		t.Errorf("NumRoutes = %d, want 3", e.NumRoutes())
	}
	if ok, _ := e.RemoveRoute(3); !ok {
		t.Error("failed to remove route")
	}

	st := e.EngineStats()
	if st.Batches == 0 || st.BatchedOps < 4 {
		t.Errorf("batch counters not advancing: %+v", st)
	}
}

func TestStandingQuery(t *testing.T) {
	x := twoRoutes(t)
	e := New(x, Options{})
	defer e.Close()

	st, err := e.RegisterStanding(queryY0, 1, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Initial) != 0 {
		t.Fatalf("initial results %v, want empty", st.Initial)
	}

	// A transition hugging the query route enters the result set...
	if err := e.AddTransition(model.Transition{ID: 10, O: geo.Pt(1, 0), D: geo.Pt(9, 0)}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-st.Events:
		if ev.Transition != 10 || !ev.Added || ev.Query != st.ID {
			t.Errorf("unexpected event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event for matching transition")
	}

	// ...one near the far route does not.
	if err := e.AddTransition(model.Transition{ID: 11, O: geo.Pt(1, 99), D: geo.Pt(9, 99)}); err != nil {
		t.Fatal(err)
	}
	// Its removal emits nothing either; removing #10 does.
	if _, err := e.RemoveTransition(11); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RemoveTransition(10); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-st.Events:
		if ev.Transition != 10 || ev.Added {
			t.Errorf("unexpected event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event for removed transition")
	}

	res, err := st.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results after removals: %v", res)
	}
}

func TestBatchAddRemoveAndDropResync(t *testing.T) {
	x := twoRoutes(t)
	e := New(x, Options{EventBuffer: 1})
	defer e.Close()

	st, err := e.RegisterStanding(queryY0, 1, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// One submitMany call: four matching transitions, one duplicate.
	ts := []model.Transition{
		{ID: 1, O: geo.Pt(1, 0), D: geo.Pt(2, 0)},
		{ID: 2, O: geo.Pt(3, 0), D: geo.Pt(4, 0)},
		{ID: 3, O: geo.Pt(5, 0), D: geo.Pt(6, 0)},
		{ID: 1, O: geo.Pt(7, 0), D: geo.Pt(8, 0)}, // duplicate ID
	}
	errs := e.AddTransitions(ts)
	if errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("batch add errors: %v", errs)
	}
	if errs[3] == nil {
		t.Error("duplicate ID accepted in batch")
	}
	if e.NumTransitions() != 3 {
		t.Fatalf("%d transitions, want 3", e.NumTransitions())
	}

	// Three deltas hit a buffer of one: the overflow must set the
	// dropped flag so the consumer knows to resync, and Results gives
	// the authoritative set.
	if !st.TakeDropped() {
		t.Error("overflowed subscriber not flagged for resync")
	}
	if st.TakeDropped() {
		t.Error("dropped flag did not clear")
	}
	res, err := st.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("results %v, want 3 transitions", res)
	}

	existed, err := e.RemoveTransitions([]model.TransitionID{1, 2, 3, 99})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false}
	if !reflect.DeepEqual(existed, want) {
		t.Errorf("existed = %v, want %v", existed, want)
	}

	st2 := e.EngineStats()
	if st2.BatchedOps < 8 {
		t.Errorf("BatchedOps = %d, want >= 8", st2.BatchedOps)
	}
}

func TestPlan(t *testing.T) {
	city, x := smallCity(t)
	vertexOf := make(map[model.StopID]graph.VertexID, city.Graph.NumVertices())
	for i := 0; i < city.Graph.NumVertices(); i++ {
		vertexOf[model.StopID(i)] = graph.VertexID(i)
	}
	e := New(x, Options{Network: city.Graph, VertexOf: vertexOf})
	defer e.Close()

	r := city.Dataset.Routes[0]
	src, dst := r.Stops[0], r.Stops[len(r.Stops)-1]
	res, ok, err := e.Plan(src, dst, 4*r.TravelDist(), 4, core.Voronoi, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(res.Path) < 2 {
		t.Fatalf("no feasible plan between stops %d and %d", src, dst)
	}

	if _, _, err := e.Plan(-5, dst, 10, 4, core.Voronoi, planner.Options{}); err == nil {
		t.Error("unknown source stop accepted")
	}

	// The precomputation must be reused while the epoch holds still.
	if _, _, err := e.Plan(src, dst, 4*r.TravelDist(), 4, core.Voronoi, planner.Options{}); err != nil {
		t.Fatal(err)
	}
	e.planMu.Lock()
	entries := len(e.plans)
	e.planMu.Unlock()
	if entries != 1 {
		t.Errorf("%d planner entries, want 1", entries)
	}
}

func TestClose(t *testing.T) {
	x := twoRoutes(t)
	e := New(x, Options{})
	e.Close()
	e.Close() // idempotent
	if err := e.AddTransition(model.Transition{ID: 1, O: geo.Pt(0, 0), D: geo.Pt(1, 1)}); err != ErrClosed {
		t.Errorf("write after close: err = %v, want ErrClosed", err)
	}
	// Reads still work after close.
	if _, err := e.RkNNT(queryY0, core.Options{K: 1}); err != nil {
		t.Errorf("read after close failed: %v", err)
	}
}

func TestKNNRoutesValidation(t *testing.T) {
	x := twoRoutes(t)
	e := New(x, Options{})
	defer e.Close()
	if _, err := e.KNNRoutes(geo.Pt(0, 0), 0); err == nil {
		t.Error("k=0 accepted")
	}
	ids, err := e.KNNRoutes(geo.Pt(0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 {
		t.Errorf("KNNRoutes = %v, want [1 2]", ids)
	}
}

// TestRaceStress is the engine half of the acceptance stress test:
// concurrent cached/uncached RkNNT queries, batched transition writes
// (including expiry) and a live standing query, under -race.
func TestRaceStress(t *testing.T) {
	city, x := testCity(t)
	e := New(x, Options{CacheSize: 64})
	defer e.Close()

	st, err := e.RegisterStanding(city.Query(rand.New(rand.NewSource(3)), 4, 3), 8, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stop := make(chan struct{})
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for {
			select {
			case <-st.Events:
			case <-stop:
				return
			}
		}
	}()

	const readers, writers, iters = 6, 3, 40
	queries := make([][]geo.Point, 8)
	rng := rand.New(rand.NewSource(4))
	for i := range queries {
		queries[i] = city.Query(rng, 3, 3)
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				q := queries[rng.Intn(len(queries))]
				if _, err := e.RkNNT(q, core.Options{K: 4, Method: core.DivideConquer}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + r))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base int32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(base)))
			for i := int32(0); i < iters; i++ {
				id := 1_000_000 + base*iters + i
				tr := model.Transition{
					ID:   id,
					O:    geo.Pt(rng.Float64()*50, rng.Float64()*40),
					D:    geo.Pt(rng.Float64()*50, rng.Float64()*40),
					Time: int64(i + 1),
				}
				if err := e.AddTransition(tr); err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 0:
					if _, err := e.RemoveTransition(id); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := e.ExpireTransitionsBefore(int64(i - 5)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int32(w))
	}
	wg.Wait()
	close(stop)
	drained.Wait()

	stats := e.EngineStats()
	if stats.Batches == 0 || stats.QueriesRun == 0 {
		t.Errorf("stress ran nothing: %+v", stats)
	}
}
