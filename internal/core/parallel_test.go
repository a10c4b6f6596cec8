package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/rtree"
)

// buildRandomSharded is buildRandom with an explicit TR-tree shard count,
// so the shard fan-out paths are exercised regardless of host CPU count.
func buildRandomSharded(t testing.TB, rng *rand.Rand, nRoutes, nTrans, shards int) *index.Index {
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
			ID: int32(i + 1),
			O:  geo.Pt(c.X+rng.NormFloat64()*3, c.Y+rng.NormFloat64()*3),
			D:  geo.Pt(c.X+rng.NormFloat64()*8, c.Y+rng.NormFloat64()*8),
		})
	}
	x, err := index.BuildOpts(ds, index.Options{TRShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestParallelMatchesSequential asserts the fan-out paths (shard-parallel
// PruneTransition, worker-parallel RefineCandidates) return results
// identical to the sequential pass, for every method and both semantics.
// GOMAXPROCS is raised so the goroutine paths genuinely run — and, under
// -race, genuinely interleave — even on a single-CPU host.
func TestParallelMatchesSequential(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(91))
	x := buildRandomSharded(t, rng, 50, 800, 4)
	for trial := 0; trial < 12; trial++ {
		query := randQuery(rng, 1+rng.Intn(5))
		k := 1 + rng.Intn(12)
		for _, m := range []Method{FilterRefine, Voronoi, DivideConquer} {
			for _, sem := range []Semantics{Exists, ForAll} {
				seqIDs, seqStats, err := RkNNT(x, query, Options{K: k, Method: m, Semantics: sem})
				if err != nil {
					t.Fatal(err)
				}
				parIDs, parStats, err := RkNNT(x, query, Options{K: k, Method: m, Semantics: sem, Parallel: true})
				if err != nil {
					t.Fatal(err)
				}
				if !idsEqual(seqIDs, parIDs) {
					t.Fatalf("trial %d %v/%v k=%d: parallel %v != sequential %v", trial, m, sem, k, parIDs, seqIDs)
				}
				if seqStats.Candidates != parStats.Candidates {
					t.Fatalf("trial %d %v k=%d: candidate count %d != %d", trial, m, k, parStats.Candidates, seqStats.Candidates)
				}
			}
		}
	}
}

// TestRefineCutOver drives the verify pass at candidate counts around
// refineParallelThreshold: one candidate, just below the cut-over (the
// serial loop), at and just above it (the smallest two-worker splits,
// which may part a transition's two endpoints across workers) and well
// above it. With Parallel on, the masks must equal the definition
// evaluated endpoint by endpoint.
func TestRefineCutOver(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(93))
	x := buildRandom(t, rng, 40, 300)
	query := randQuery(rng, 4)
	const k = 4
	// The endpoints nearest the query, so the pool mixes results and
	// non-results.
	var pool []rtree.Entry
	x.Transitions(func(tr *model.Transition) bool {
		pool = append(pool,
			rtree.Entry{Pt: tr.O, ID: tr.ID, Aux: index.Origin},
			rtree.Entry{Pt: tr.D, ID: tr.ID, Aux: index.Destination})
		return true
	})
	sort.Slice(pool, func(i, j int) bool {
		return geo.PointRouteDist2(pool[i].Pt, query) < geo.PointRouteDist2(pool[j].Pt, query)
	})
	pool = pool[:64]
	want := make([]endpointMask, len(pool))
	hits := 0
	for i, c := range pool {
		if bruteForceEndpoint(x, query, c.Pt, k) {
			want[i] = 1 << uint(c.Aux)
			hits++
		}
	}
	if hits == 0 || hits == len(pool) {
		t.Fatalf("%d of %d pooled endpoints are results; the fixture needs both kinds", hits, len(pool))
	}

	for _, n := range []int{1, refineParallelThreshold - 1, refineParallelThreshold, refineParallelThreshold + 1, len(pool)} {
		t.Run(fmt.Sprintf("cands=%d", n), func(t *testing.T) {
			wantMasks := make(map[model.TransitionID]endpointMask)
			for i, c := range pool[:n] {
				if want[i] != 0 {
					wantMasks[c.ID] |= want[i]
				}
			}
			got := refineCandidates(x, query, pool[:n], k, Options{K: k, Parallel: true})
			if !reflect.DeepEqual(got, wantMasks) {
				t.Fatalf("masks %v, want %v", got, wantMasks)
			}
		})
	}
}

// TestShardCountInvariant asserts the result set does not depend on how
// the TR-tree is sharded.
func TestShardCountInvariant(t *testing.T) {
	base := rand.New(rand.NewSource(92))
	var want []model.TransitionID
	for i, shards := range []int{1, 2, 5} {
		rng := rand.New(rand.NewSource(92))
		_ = base
		x := buildRandomSharded(t, rng, 40, 600, shards)
		query := randQuery(rng, 4)
		got, _, err := RkNNT(x, query, Options{K: 6, Method: Voronoi, Parallel: shards > 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !idsEqual(got, want) {
			t.Fatalf("shards=%d: results %v, want %v", shards, got, want)
		}
	}
}
