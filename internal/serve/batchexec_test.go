package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
)

// TestRkNNTBatchMatchesSingle is the serve-layer batch property: for
// random batches and option sets, every answer from RkNNTBatch must be
// identical to a fresh core computation over an independent copy of the
// dataset, and a repeated batch must serve entirely from the cache.
func TestRkNNTBatchMatchesSingle(t *testing.T) {
	city, x := testCity(t)
	e := New(x, Options{})
	defer e.Close()
	x2, err := index.Build(city.Dataset)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	methods := []core.Method{core.FilterRefine, core.Voronoi, core.DivideConquer, core.BruteForce}
	for trial := 0; trial < 6; trial++ {
		opts := core.Options{
			K:         1 + rng.Intn(8),
			Method:    methods[trial%len(methods)],
			Semantics: core.Semantics(rng.Intn(2)),
		}
		queries := make([][]geo.Point, 3+rng.Intn(10))
		for i := range queries {
			if i > 0 && rng.Intn(4) == 0 {
				queries[i] = queries[rng.Intn(i)] // intra-batch duplicate
			} else {
				queries[i] = city.Query(rng, 2+rng.Intn(3), 3)
			}
		}
		results, err := e.RkNNTBatch(queries, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, q := range queries {
			want, _, err := core.RkNNT(x2, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i].Transitions, want) && !(len(results[i].Transitions) == 0 && len(want) == 0) {
				t.Fatalf("trial %d query %d: batch %v, core %v", trial, i, results[i].Transitions, want)
			}
		}
		// The same batch again is answered entirely by the cache.
		again, err := e.RkNNTBatch(queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if !again[i].Cached {
				t.Fatalf("trial %d query %d: repeat batch not served from cache", trial, i)
			}
		}
	}
	if s := e.EngineStats(); s.BatchRequests == 0 || s.BatchQueries == 0 || s.BatchExecuted == 0 {
		t.Fatalf("batch counters did not advance: %+v", s)
	}
}

// TestRkNNTBatchEdges pins the trivial shapes.
func TestRkNNTBatchEdges(t *testing.T) {
	x := twoRoutes(t, model.Transition{ID: 7, O: geo.Pt(1, 1), D: geo.Pt(9, 1)})
	e := New(x, Options{})
	defer e.Close()
	if res, err := e.RkNNTBatch(nil, core.Options{K: 1}); res != nil || err != nil {
		t.Fatalf("empty batch: got %v, %v", res, err)
	}
	res, err := e.RkNNTBatch([][]geo.Point{queryY0, queryY0, queryY0}, core.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if len(r.Transitions) != 1 || r.Transitions[0] != 7 {
			t.Fatalf("query %d: %v", i, r.Transitions)
		}
	}
	if !res[1].Shared || !res[2].Shared {
		t.Fatalf("intra-batch duplicates not shared: %+v %+v", res[1], res[2])
	}
	if _, err := e.RkNNTBatch([][]geo.Point{queryY0}, core.Options{K: 0}); err == nil {
		t.Fatal("K=0: want error")
	}
}

// TestRkNNTBatchOneEpochUnderWrites runs batches while a writer adds
// transitions one call at a time — one commit each, so shard s's epoch
// counts the writer's arrivals homed on s and a vector names a live set
// exactly. Every member of one batch must report the same vector, and
// its answer must equal brute force over the transitions live at it.
func TestRkNNTBatchOneEpochUnderWrites(t *testing.T) {
	city, _ := testCity(t)
	const shards = 4
	x, err := index.BuildOpts(city.Dataset, index.Options{TRShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	e := New(x, Options{})
	defer e.Close()
	oracle, err := index.BuildOpts(city.Dataset, index.Options{TRShards: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(73))
	arrivals := make([][]model.Transition, shards) // by home shard, in commit order
	var order []model.Transition
	for i := 0; i < 16; i++ {
		q := city.Query(rng, 2, 3)
		a := model.Transition{ID: model.TransitionID(1_000_000 + i), O: q[0], D: q[1]}
		order = append(order, a)
		home := x.HomeShard(a.ID)
		arrivals[home] = append(arrivals[home], a)
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		for _, a := range order {
			if err := e.AddTransition(a); err != nil {
				t.Errorf("add %d: %v", a.ID, err)
			}
		}
	}()

	type answered struct {
		queries [][]geo.Point
		results []*QueryResult
	}
	var batches []answered
	opts := core.Options{K: 4}
	for writing := true; writing || len(batches) < 3; {
		select {
		case <-written:
			writing = false
		default:
		}
		queries := make([][]geo.Point, 4)
		for i := range queries[:3] {
			queries[i] = city.Query(rng, 2+rng.Intn(3), 3) // never repeats: executed
		}
		queries[3] = queries[1] // adopts member 1's result
		results, err := e.RkNNTBatch(queries, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Cached || r.Shared != (i == 3) {
				t.Fatalf("member %d: cached=%v shared=%v", i, r.Cached, r.Shared)
			}
			if !r.Epochs.Equal(results[0].Epochs) {
				t.Fatalf("one batch, two snapshots: member %d at %v, member 0 at %v", i, r.Epochs, results[0].Epochs)
			}
		}
		batches = append(batches, answered{queries, results})
	}

	// Batches ran one after another, so their vectors only grow: bring the
	// oracle forward to each in turn.
	t.Logf("%d batches, first at epoch %d, last at epoch %d of %d", len(batches),
		batches[0].results[0].Epoch, batches[len(batches)-1].results[0].Epoch, len(order))
	applied := make([]int, shards)
	for b, ans := range batches {
		vec := ans.results[0].Epochs
		for s := range applied {
			for ; applied[s] < int(vec.Shards[s]); applied[s]++ {
				if err := oracle.AddTransition(arrivals[s][applied[s]]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, q := range ans.queries {
			want, _, err := core.RkNNT(oracle, q, core.Options{K: opts.K, Method: core.BruteForce})
			if err != nil {
				t.Fatal(err)
			}
			if got := ans.results[i].Transitions; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("batch %d member %d at %v: %v, brute force %v", b, i, vec, got, want)
			}
		}
	}
}

// TestShardedCacheChurnMatchesOracle drives the sharded-cache engine
// through write churn and checks every answer against brute force over
// its current index, so cache sharding must preserve the journal-replay
// repair semantics exactly. Concurrent background queriers hammer the
// engine throughout to expose cross-shard races under -race.
func TestShardedCacheChurnMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	r2 := rand.New(rand.NewSource(55))
	ds := &model.Dataset{}
	stopPts := make([]geo.Point, 30)
	for i := range stopPts {
		stopPts[i] = geo.Pt(r2.Float64()*40, r2.Float64()*40)
	}
	for r := 0; r < 20; r++ {
		n := 2 + r2.Intn(4)
		route := model.Route{ID: int32(r + 1)}
		for i := 0; i < n; i++ {
			s := int32(r2.Intn(30))
			route.Stops = append(route.Stops, s)
			route.Pts = append(route.Pts, stopPts[s])
		}
		ds.Routes = append(ds.Routes, route)
	}
	x, err := index.BuildOpts(ds, index.Options{TRShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	main := New(x, Options{CacheSize: 64})
	defer main.Close()
	// repaired counts answers, foreground and background, that were
	// brought forward by journal replay.
	var repaired atomic.Int64
	query := func(q []geo.Point, opts core.Options) (*QueryResult, error) {
		res, err := main.RkNNT(q, opts)
		if err == nil && res.Repaired {
			repaired.Add(1)
		}
		return res, err
	}

	queries := make([][]geo.Point, 8)
	for i := range queries {
		queries[i] = []geo.Point{
			geo.Pt(rng.Float64()*40, rng.Float64()*40),
			geo.Pt(rng.Float64()*40, rng.Float64()*40),
		}
	}
	optsSet := []core.Options{
		{K: 3},
		{K: 5, Semantics: core.ForAll},
		{K: 2, Method: core.Voronoi},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := query(queries[r.Intn(len(queries))], optsSet[r.Intn(len(optsSet))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g) + 1000)
	}

	live := []model.TransitionID{}
	nextID := model.TransitionID(1)
	for step := 0; step < 200; step++ {
		if rng.Intn(10) < 7 || len(live) == 0 {
			tr := model.Transition{
				ID: nextID,
				O:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
				D:  geo.Pt(rng.Float64()*40, rng.Float64()*40),
			}
			nextID++
			if err := main.AddTransition(tr); err != nil {
				t.Fatal(err)
			}
			live = append(live, tr.ID)
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if _, err := main.RemoveTransition(id); err != nil {
				t.Fatal(err)
			}
		}
		q := queries[rng.Intn(len(queries))]
		opts := optsSet[rng.Intn(len(optsSet))]
		got, err := query(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(t, main, q, opts); !sameIDs(got.Transitions, want) {
			t.Fatalf("step %d %+v (repaired=%v): sharded %v, brute force %v", step, opts, got.Repaired, got.Transitions, want)
		}
	}
	close(stop)
	wg.Wait()
	if repaired.Load() == 0 {
		t.Fatal("no answer was repaired; the churn never exercised journal replay")
	}
	if s := main.EngineStats(); len(s.CacheShardEntries) != 8 {
		t.Fatalf("CacheShardEntries: got %d shards, want 8", len(s.CacheShardEntries))
	} else {
		sum := 0
		for _, n := range s.CacheShardEntries {
			sum += n
		}
		if sum != s.CacheEntries {
			t.Fatalf("shard entry counts sum to %d, CacheEntries %d", sum, s.CacheEntries)
		}
	}
}

// TestKeyBuilderAllocs pins the hot-path key builders to one allocation
// each (the returned string) — the regression the pooled builders fixed:
// flight keys used to cost four allocations and planner keys went
// through fmt.Sprintf.
func TestKeyBuilderAllocs(t *testing.T) {
	x := twoRoutes(t)
	e := New(x, Options{})
	defer e.Close()
	opts := core.Options{K: 3}
	key := queryKey(queryY0, opts)
	if n := testing.AllocsPerRun(100, func() { _ = queryKey(queryY0, opts) }); n > 1 {
		t.Errorf("queryKey: %v allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.flightKey(key) }); n > 1 {
		t.Errorf("flightKey: %v allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.planFlightKey(8, core.DivideConquer) }); n > 1 {
		t.Errorf("planFlightKey: %v allocs/op, want <= 1", n)
	}
	// The pooled builders must still agree with the wire format the old
	// builders produced.
	if want := string(e.epochVec().appendBytes(nil)) + key; e.flightKey(key) != want {
		t.Error("flightKey diverges from EpochVec.appendBytes format")
	}
	if want := fmt.Sprintf("plan/%d/%d/", 8, core.DivideConquer) + string(e.epochVec().appendBytes(nil)); e.planFlightKey(8, core.DivideConquer) != want {
		t.Error("planFlightKey diverges from the fmt.Sprintf format")
	}
}

func BenchmarkFlightKey(b *testing.B) {
	x := twoRoutes(b)
	e := New(x, Options{})
	defer e.Close()
	key := queryKey(queryY0, core.Options{K: 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.flightKey(key)
	}
}

func BenchmarkQueryKey(b *testing.B) {
	q := make([]geo.Point, 5)
	opts := core.Options{K: 8, TimeFrom: 1, TimeTo: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = queryKey(q, opts)
	}
}
