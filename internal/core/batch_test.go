package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/obs"
)

// buildRandomTimed is buildRandomSharded with timestamps on every
// transition so temporal windows actually select.
func buildRandomTimed(t testing.TB, rng *rand.Rand, nRoutes, nTrans, shards int) *index.Index {
	t.Helper()
	ds := &model.Dataset{}
	nStops := nRoutes*3 + 10
	stopPts := make([]geo.Point, nStops)
	for i := range stopPts {
		stopPts[i] = geo.Pt(rng.Float64()*60, rng.Float64()*60)
	}
	for r := 0; r < nRoutes; r++ {
		n := 2 + rng.Intn(6)
		route := model.Route{ID: int32(r + 1)}
		start := rng.Intn(nStops)
		for i := 0; i < n; i++ {
			s := (start + i*(1+rng.Intn(3))) % nStops
			route.Stops = append(route.Stops, int32(s))
			route.Pts = append(route.Pts, stopPts[s])
		}
		ds.Routes = append(ds.Routes, route)
	}
	for i := 0; i < nTrans; i++ {
		c := stopPts[rng.Intn(nStops)]
		ds.Transitions = append(ds.Transitions, model.Transition{
			ID:   int32(i + 1),
			O:    geo.Pt(c.X+rng.NormFloat64()*3, c.Y+rng.NormFloat64()*3),
			D:    geo.Pt(c.X+rng.NormFloat64()*8, c.Y+rng.NormFloat64()*8),
			Time: 1 + rng.Int63n(1000),
		})
	}
	x, err := index.BuildOpts(ds, index.Options{TRShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// volume strips the wall-clock fields from a query's Stats, leaving the
// counters that must be equal between a batch member and the same query
// asked alone.
func volume(s *Stats) Stats {
	v := *s
	v.Filter, v.Verify = 0, 0
	return v
}

// checkBatchEqualsSingles asserts BatchRkNNT(x, batch, opts) returns, per
// member and in input order, the IDs and volume counters of
// RkNNT(x, member, opts), and hands back what the batch returned.
func checkBatchEqualsSingles(t *testing.T, x *index.Index, batch [][]geo.Point, opts Options) ([][]model.TransitionID, []*Stats) {
	t.Helper()
	gotIDs, gotStats, err := BatchRkNNT(x, batch, opts)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if len(gotIDs) != len(batch) || len(gotStats) != len(batch) {
		t.Fatalf("batch of %d returned %d results, %d stats", len(batch), len(gotIDs), len(gotStats))
	}
	for i, q := range batch {
		wantIDs, wantStats, err := RkNNT(x, q, opts)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !idsEqual(gotIDs[i], wantIDs) {
			t.Fatalf("query %d: batch %v, single %v", i, gotIDs[i], wantIDs)
		}
		if volume(gotStats[i]) != volume(wantStats) {
			t.Fatalf("query %d: batch stats %+v, single %+v", i, volume(gotStats[i]), volume(wantStats))
		}
	}
	return gotIDs, gotStats
}

// TestBatchRkNNTMatchesSequential is the batch executor's central
// property: for every method x semantics x time window x ablation flag x
// sequential/parallel, each member's result and volume counters equal
// RkNNT on that member alone.
func TestBatchRkNNTMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(131))
	x := buildRandomTimed(t, rng, 50, 800, 4)
	members := 9
	if testing.Short() {
		members = 4
	}
	ablations := []struct {
		name string
		set  func(*Options)
	}{
		{"none", func(*Options) {}},
		{"nocrossover", func(o *Options) { o.NoCrossover = true }},
		{"nonlist", func(o *Options) { o.NoNList = true }},
		{"nokernel", func(o *Options) { o.NoKernel = true }},
	}
	for _, method := range []Method{FilterRefine, Voronoi, DivideConquer, BruteForce} {
		for _, sem := range []Semantics{Exists, ForAll} {
			for _, window := range []bool{false, true} {
				for _, abl := range ablations {
					for _, par := range []bool{false, true} {
						opts := Options{K: 1 + rng.Intn(10), Method: method, Semantics: sem, Parallel: par}
						abl.set(&opts)
						if window {
							opts.TimeFrom = 1 + rng.Int63n(500)
							opts.TimeTo = opts.TimeFrom + rng.Int63n(500)
						}
						batch := make([][]geo.Point, members)
						for i := range batch {
							batch[i] = randQuery(rng, 1+rng.Intn(5))
						}
						name := fmt.Sprintf("%s/%s/window=%v/%s/parallel=%v", method, sem, window, abl.name, par)
						t.Run(name, func(t *testing.T) {
							checkBatchEqualsSingles(t, x, batch, opts)
						})
					}
				}
			}
		}
	}
}

// TestBatchRkNNTPlaneAndPipeline runs one batch at the k that owns the
// index's radius plane and one at another k: the first's members are
// descents, the second's the pipeline, and both equal RkNNT and brute
// force member by member.
func TestBatchRkNNTPlaneAndPipeline(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	x, stops := tieCity(t, 5, 24, 160, 4)
	rng := rand.New(rand.NewSource(5))
	if !x.EnsureRadii(3) {
		t.Fatal("EnsureRadii refused")
	}
	batch := make([][]geo.Point, 7)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = stopQuery(rng, stops, 1+rng.Intn(3))
		} else {
			batch[i] = randQuery(rng, 1+rng.Intn(4))
		}
	}
	for _, k := range []int{3, 5} {
		for _, par := range []bool{false, true} {
			opts := Options{K: k, Method: Voronoi, Parallel: par}
			ids, stats := checkBatchEqualsSingles(t, x, batch, opts)
			for i, q := range batch {
				if stats[i].Plane != (k == 3) {
					t.Errorf("k=%d member %d: Plane = %v", k, i, stats[i].Plane)
				}
				want, _, _ := RkNNT(x, q, Options{K: k, Method: BruteForce})
				if !idsEqual(ids[i], want) {
					t.Errorf("k=%d member %d: %v, brute force %v", k, i, ids[i], want)
				}
			}
		}
	}
}

// TestBatchMemberOpts pins how a batch runs its members: untraced, fanned
// out only when that is requested, possible and there is more than one,
// and sequential inside exactly when they are fanned out.
func TestBatchMemberOpts(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	tr := obs.NewTrace()
	for _, c := range []struct {
		procs, members   int
		parallel         bool
		wantFan, wantPar bool
	}{
		{4, 1, true, false, true}, // a batch of one keeps Parallel as passed
		{4, 1, false, false, false},
		{4, 5, true, true, false},
		{4, 5, false, false, false},
		{1, 5, true, false, true}, // nothing to fan out onto
	} {
		runtime.GOMAXPROCS(c.procs)
		qopts, fan := batchMemberOpts(Options{K: 2, Parallel: c.parallel, Trace: tr}, c.members)
		if fan != c.wantFan || qopts.Parallel != c.wantPar || qopts.Trace != nil || qopts.K != 2 {
			t.Errorf("%+v: fan=%v Parallel=%v Trace=%v", c, fan, qopts.Parallel, qopts.Trace)
		}
	}
}

// TestBatchRkNNTEdgeCases pins the trivial shapes: empty batch,
// duplicate queries, and that one invalid member or option fails the
// whole batch with no partial result.
func TestBatchRkNNTEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := buildRandom(t, rng, 20, 200)
	ids, stats, err := BatchRkNNT(x, nil, Options{K: 2})
	if err != nil || ids != nil || stats != nil {
		t.Fatalf("empty batch: got %v %v %v", ids, stats, err)
	}
	q := randQuery(rng, 3)
	batch := [][]geo.Point{q, q, q}
	gotIDs, _, err := BatchRkNNT(x, batch, Options{K: 3, Method: Voronoi})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := RkNNT(x, q, Options{K: 3, Method: Voronoi})
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !idsEqual(gotIDs[i], want) {
			t.Fatalf("duplicate query %d: %v want %v", i, gotIDs[i], want)
		}
	}
	for name, bad := range map[string]struct {
		batch [][]geo.Point
		opts  Options
	}{
		"empty member":      {[][]geo.Point{q, nil, q}, Options{K: 2}},
		"non-finite member": {[][]geo.Point{q, {geo.Pt(0, 0), geo.Pt(math.NaN(), 1)}}, Options{K: 2}},
		"overflow member":   {[][]geo.Point{{geo.Pt(1e200, 0)}, q}, Options{K: 2, Parallel: true}},
		"K=0":               {batch, Options{K: 0}},
		"unknown method":    {batch, Options{K: 2, Method: Method(99)}},
		"inverted window":   {batch, Options{K: 2, TimeFrom: 9, TimeTo: 3}},
	} {
		ids, stats, err := BatchRkNNT(x, bad.batch, bad.opts)
		if err == nil || ids != nil || stats != nil {
			t.Errorf("%s: got %v %v %v, want an error and no partial result", name, ids, stats, err)
		}
	}
}
