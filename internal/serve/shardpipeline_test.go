package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
)

// shardedTestIndex builds a deterministic multi-route index with the
// given TR-tree shard count, so per-shard pipeline behaviour is
// exercised even on single-processor hosts (where the default shard
// count is 1).
func shardedTestIndex(t testing.TB, shards int) *index.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	ds := &model.Dataset{}
	stopPts := make([]geo.Point, 40)
	for i := range stopPts {
		stopPts[i] = geo.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	for r := 0; r < 24; r++ {
		n := 2 + rng.Intn(4)
		route := model.Route{ID: int32(r + 1)}
		for i := 0; i < n; i++ {
			s := int32(rng.Intn(len(stopPts)))
			route.Stops = append(route.Stops, s)
			route.Pts = append(route.Pts, stopPts[s])
		}
		ds.Routes = append(ds.Routes, route)
	}
	x, err := index.BuildOpts(ds, index.Options{TRShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestVectorEpochPerShardAdvance pins the vector-epoch contract: a
// commit routed to shard s advances Shards[s] and nothing else, a route
// change advances only Structural, and the scalar Epoch is always the
// sum.
func TestVectorEpochPerShardAdvance(t *testing.T) {
	e := New(shardedTestIndex(t, 4), Options{})
	defer e.Close()

	base := e.EpochVector()
	id := model.TransitionID(50_001)
	home := e.idx.HomeShard(id)
	if err := e.AddTransition(model.Transition{ID: id, O: geo.Pt(1, 1), D: geo.Pt(2, 2)}); err != nil {
		t.Fatal(err)
	}
	v1 := e.EpochVector()
	if v1.Shards[home] != base.Shards[home]+1 {
		t.Errorf("shard %d epoch = %d, want %d", home, v1.Shards[home], base.Shards[home]+1)
	}
	if v1.Structural != base.Structural {
		t.Errorf("structural moved on a transition write: %d -> %d", base.Structural, v1.Structural)
	}
	for s := range v1.Shards {
		if s != home && v1.Shards[s] != base.Shards[s] {
			t.Errorf("shard %d epoch moved (%d -> %d) on a shard-%d commit", s, base.Shards[s], v1.Shards[s], home)
		}
	}
	if e.Epoch() != v1.Sum() {
		t.Errorf("Epoch() = %d, want vector sum %d", e.Epoch(), v1.Sum())
	}

	if err := e.AddRoute(model.Route{ID: 900, Stops: []model.StopID{0, 1}, Pts: []geo.Point{geo.Pt(0, 0), geo.Pt(5, 5)}}); err != nil {
		t.Fatal(err)
	}
	v2 := e.EpochVector()
	if v2.Structural != v1.Structural+1 {
		t.Errorf("structural = %d after route change, want %d", v2.Structural, v1.Structural+1)
	}
	for s := range v2.Shards {
		if v2.Shards[s] != v1.Shards[s] {
			t.Errorf("shard %d epoch moved on a route change", s)
		}
	}
}

// TestCacheSurvivesOtherShardCommit is the point of the vector epoch: a
// cached result whose touched shards are quiet stays a valid cache hit
// (no recompute, no repair) while OTHER shards absorb writes.
func TestCacheSurvivesOtherShardCommit(t *testing.T) {
	e := New(shardedTestIndex(t, 4), Options{})
	defer e.Close()

	q := []geo.Point{geo.Pt(5, 5), geo.Pt(25, 25)}
	first, err := e.RkNNT(q, core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	touched := first.Stats.ShardsTouched

	// Find an ID homed on a shard outside the result's touched mask.
	// Removing it is a commit on an untouched shard only.
	var id model.TransitionID
	var home int
	for cand := model.TransitionID(60_000); ; cand++ {
		home = e.idx.HomeShard(cand)
		if touched&(1<<uint(home)) == 0 {
			id = cand
			break
		}
	}
	if err := e.AddTransition(model.Transition{ID: id, O: geo.Pt(49, 49), D: geo.Pt(49.5, 49.5)}); err != nil {
		t.Fatal(err)
	}
	// The add may rank into the cached result, so the first re-query is
	// allowed to repair. Re-prime, then hit the untouched shard again
	// with a pure removal — which cannot affect the result.
	primed, err := e.RkNNT(q, core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RemoveTransition(id); err != nil {
		t.Fatal(err)
	}
	repairsBefore := e.EngineStats().CacheRepairs
	res, err := e.RkNNT(q, core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("query after untouched-shard commit was not a cache hit")
	}
	if !reflect.DeepEqual(res.Transitions, primed.Transitions) {
		t.Fatalf("result changed across an unrelated commit: %v != %v", res.Transitions, primed.Transitions)
	}
	if res.Repaired {
		// A pure removal on an untouched shard must be skipped by the
		// replay, making the repair a no-op splice; reaching here with
		// Repaired set means the sub-vector shortcut regressed to a full
		// replay of an irrelevant delta. That is a quality property, not
		// correctness, so only report it.
		if got := e.EngineStats().CacheRepairs; got != repairsBefore+1 {
			t.Errorf("CacheRepairs = %d, want %d", got, repairsBefore+1)
		}
	}
}

// TestRepairMatchesBruteForce is the differential acceptance test for
// lazy journal repair: an engine (journals + read-time replay from
// memoised rank radii) receives an interleaved per-shard write stream,
// and after every step its answer must equal the definition evaluated
// by brute force over its own current index — for every shard count,
// several k (one beyond the route count), both semantics and a time
// window, with queries and arrivals on route stops so distances tie
// exactly. "Move" steps remove a transition and re-add the same ID
// elsewhere in a later batch: the radii an earlier batch memoised for
// that ID describe geometry that no longer exists, and cached entries
// that have not yet replayed that batch must not trust them.
func TestRepairMatchesBruteForce(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			repairVsBruteForceChurn(t, shards)
		})
	}
}

func repairVsBruteForceChurn(t *testing.T, shards int) {
	e := New(shardedTestIndex(t, shards), Options{})
	defer e.Close()

	rng := rand.New(rand.NewSource(23))
	var stops []geo.Point
	for id := model.RouteID(1); id <= 24; id++ {
		stops = append(stops, e.Route(id).Pts...)
	}
	point := func() geo.Point {
		if rng.Intn(4) == 0 {
			return stops[rng.Intn(len(stops))]
		}
		return geo.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	queries := make([][]geo.Point, 6)
	for i := range queries {
		queries[i] = []geo.Point{point(), point()}
	}
	queries[0] = []geo.Point{stops[3], stops[17]}
	optsSet := []core.Options{
		{K: 1},
		{K: 3},
		{K: 2, Semantics: core.ForAll},
		{K: 5, Semantics: core.ForAll},
		{K: 4, TimeFrom: 50, TimeTo: 20_000},
		{K: 30}, // more than the 24 routes: infinite radii
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	live := []model.TransitionID{}
	nextID := model.TransitionID(1)
	now := int64(100)
	for step := 0; step < 200; step++ {
		switch op := rng.Intn(12); {
		case op < 6 || len(live) == 0:
			tr := model.Transition{ID: nextID, O: point(), D: point()}
			if rng.Intn(3) == 0 {
				tr.Time = now
				now += 7
			}
			nextID++
			must(e.AddTransition(tr))
			live = append(live, tr.ID)
		case op < 8:
			k := rng.Intn(len(live))
			victim := live[k]
			live = append(live[:k], live[k+1:]...)
			_, err := e.RemoveTransition(victim)
			must(err)
		case op < 10:
			moved := model.Transition{ID: live[rng.Intn(len(live))], O: point(), D: point()}
			_, err := e.RemoveTransition(moved.ID)
			must(err)
			must(e.AddTransition(moved))
		default:
			cutoff := now - int64(rng.Intn(300))
			_, err := e.ExpireTransitionsBefore(cutoff)
			must(err)
			kept := live[:0]
			for _, id := range live {
				if e.Transition(id) != nil {
					kept = append(kept, id)
				}
			}
			live = kept
		}
		q := queries[rng.Intn(len(queries))]
		opts := optsSet[rng.Intn(len(optsSet))]
		got, err := e.RkNNT(q, opts)
		must(err)
		if want := bruteForce(t, e, q, opts); !sameIDs(got.Transitions, want) {
			t.Fatalf("step %d %+v (repaired=%v): %v != brute force %v", step, opts, got.Repaired, got.Transitions, want)
		}
	}
	if st := e.EngineStats(); st.CacheRepairs == 0 {
		t.Fatal("interleaved churn never exercised journal repair")
	}
}

// TestTransitionWritesCommitOnHomeShard pins the one write path: adds
// and removes commit on their ID's home-shard pipeline and never on the
// barrier, which only expiry reaches, and the answers over the stream
// equal brute force.
func TestTransitionWritesCommitOnHomeShard(t *testing.T) {
	e := New(shardedTestIndex(t, 4), Options{})
	defer e.Close()

	rng := rand.New(rand.NewSource(31))
	q := []geo.Point{geo.Pt(10, 10), geo.Pt(35, 35)}
	commits := make([]uint64, 4)
	for step := 0; step < 80; step++ {
		tr := model.Transition{
			ID:   model.TransitionID(step + 1),
			O:    geo.Pt(rng.Float64()*50, rng.Float64()*50),
			D:    geo.Pt(rng.Float64()*50, rng.Float64()*50),
			Time: int64(step),
		}
		if err := e.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
		commits[e.idx.HomeShard(tr.ID)]++
		if step%3 == 0 {
			victim := model.TransitionID(rng.Intn(step+1) + 1)
			if _, err := e.RemoveTransition(victim); err != nil {
				t.Fatal(err)
			}
			commits[e.idx.HomeShard(victim)]++
		}
		got, err := e.RkNNT(q, core.Options{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(t, e, q, core.Options{K: 4}); !sameIDs(got.Transitions, want) {
			t.Fatalf("step %d (repaired=%v): %v != brute force %v", step, got.Repaired, got.Transitions, want)
		}
	}
	st := e.EngineStats()
	if st.BarrierCommit.Count != 0 {
		t.Fatalf("barrier committed %d batches of transition writes", st.BarrierCommit.Count)
	}
	// Each op is its own batch here (every submit waits for its commit),
	// so a shard's commit count is exactly the ops homed on it.
	for s, want := range commits {
		if got := st.ShardCommits[s].Count; got != want {
			t.Errorf("shard %d: %d commits, want %d", s, got, want)
		}
	}

	if _, err := e.ExpireTransitionsBefore(40); err != nil {
		t.Fatal(err)
	}
	if got := e.EngineStats().BarrierCommit.Count; got != 1 {
		t.Fatalf("expiry: %d barrier commits, want 1", got)
	}
	got, err := e.RkNNT(q, core.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(t, e, q, core.Options{K: 4}); !sameIDs(got.Transitions, want) {
		t.Fatalf("after expiry: %v != brute force %v", got.Transitions, want)
	}
}

// TestCloseDrainsConcurrentMultiShardWrites races Close against writers
// targeting every shard at once. The contract: Close returns (no
// deadlock between pipelines, forwards and the barrier), every
// submitted op gets exactly one deterministic answer — success or
// ErrClosed, nothing else — and the index stays readable afterwards.
func TestCloseDrainsConcurrentMultiShardWrites(t *testing.T) {
	e := New(shardedTestIndex(t, 4), Options{QueueDepth: 8, MaxBatch: 4})

	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	errCh := make(chan error, writers*perWriter)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				id := model.TransitionID(100_000 + w*perWriter + i)
				var err error
				switch i % 3 {
				case 0, 1:
					err = e.AddTransition(model.Transition{ID: id, O: geo.Pt(1, 2), D: geo.Pt(3, 4)})
				case 2:
					_, err = e.RemoveTransition(id - 1)
				}
				errCh <- err
			}
		}(w)
	}
	close(start)
	e.Close() // races the writers by design
	wg.Wait()
	close(errCh)

	for err := range errCh {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("op failed with %v; want nil or ErrClosed", err)
		}
	}
	// Submissions after Close fail fast and deterministically.
	for i := 0; i < 10; i++ {
		if err := e.AddTransition(model.Transition{ID: 1, O: geo.Pt(0, 0), D: geo.Pt(1, 1)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close add: err = %v, want ErrClosed", err)
		}
	}
	if _, err := e.RkNNT(queryY0, core.Options{K: 2}); err != nil {
		t.Fatalf("read after close failed: %v", err)
	}
	e.Close() // idempotent
}
