package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
)

// pipelineRkNNT is RkNNT with the plane short-cut removed: the paper's
// pipeline on the same index, whatever plane it carries.
func pipelineRkNNT(x *index.Index, query []geo.Point, opts Options) ([]model.TransitionID, *Stats) {
	stats := &Stats{}
	var masks map[model.TransitionID]endpointMask
	switch opts.Method {
	case FilterRefine:
		masks = filterRefine(x, query, opts.K, false, opts, stats)
	case Voronoi:
		masks = filterRefine(x, query, opts.K, true, opts, stats)
	default:
		masks = divideConquer(x, query, opts.K, opts, stats)
	}
	return collect(x, masks, opts), stats
}

// TestPlaneHistoryDifferential is the seeded history differential for the
// radius plane: over PR 12's stop-aligned tieCity (exact distance ties
// are the common case) it applies adds, removes, same-ID re-adds with
// moved geometry, expiry, AddRoute and RemoveRoute, with the plane at
// k = 1, 3, 10 or 30 (30 exceeds the route count for most of the
// history, so that plane holds +Inf until routes are added), on 1, 2 and
// 4 shards. After EVERY step it asserts
//
//   - the plane invariant (index.CheckRadii): every stored radius equals a
//     fresh probe bit for bit and every node maximum is exact;
//   - descent ≡ BruteForce ≡ pipeline for ∃, ∀ and a time window, on
//     network-aligned and free queries;
//   - a query at another k runs the pipeline and is right too.
func TestPlaneHistoryDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, k := range []int{1, 3, 10, 30} {
			t.Run(fmt.Sprintf("shards=%d/k=%d", shards, k), func(t *testing.T) {
				planeHistory(t, shards, k)
			})
		}
	}
}

func planeHistory(t *testing.T, shards, k int) {
	seed := int64(100*shards + k)
	x, stops := tieCity(t, seed, 26, 140, shards)
	rng := rand.New(rand.NewSource(seed))
	if !x.EnsureRadii(k) {
		t.Fatalf("EnsureRadii(%d) refused", k)
	}
	live := map[model.TransitionID]bool{}
	x.Transitions(func(tr *model.Transition) bool { live[tr.ID] = true; return true })
	nextT, nextR := model.TransitionID(1000), model.RouteID(1000)
	clock := int64(0)
	endpoint := func() geo.Point {
		c := stops[rng.Intn(len(stops))]
		if rng.Intn(3) == 0 {
			return c
		}
		return geo.Pt(c.X+rng.NormFloat64()*4, c.Y+rng.NormFloat64()*4)
	}
	pick := func() model.TransitionID {
		n := rng.Intn(len(live))
		for id := model.TransitionID(0); ; id++ { // deterministic: map order would not reproduce
			if live[id] {
				if n == 0 {
					return id
				}
				n--
			}
		}
	}
	var routes []model.RouteID
	x.Routes(func(r *model.Route) bool { routes = append(routes, r.ID); return true })

	check := func(step int, what string) {
		t.Helper()
		if err := x.CheckRadii(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		queries := [][]geo.Point{stopQuery(rng, stops, 1+rng.Intn(4)), randQuery(rng, 1+rng.Intn(3))}
		for qi, q := range queries {
			// Every (semantics, window) variant runs at every step, on
			// one of the two queries.
			variants := [][]Options{
				{{K: k, Method: DivideConquer}, {K: k, Method: Voronoi, TimeFrom: clock - 6, TimeTo: clock}},
				{{K: k, Method: FilterRefine, Semantics: ForAll}},
			}[(qi+step)%2]
			for _, o := range variants {
				got, stats, err := RkNNT(x, q, o)
				if err != nil {
					t.Fatal(err)
				}
				if !stats.Plane {
					t.Fatalf("step %d k=%d: query did not take the plane path", step, k)
				}
				bf := o
				bf.Method = BruteForce
				want, bstats, err := RkNNT(x, q, bf)
				if err != nil {
					t.Fatal(err)
				}
				pipe, pstats := pipelineRkNNT(x, q, o)
				if bstats.Plane || pstats.Plane {
					t.Fatal("an oracle ran on the plane")
				}
				if !idsEqual(got, want) || !idsEqual(pipe, want) {
					t.Fatalf("step %d (%s) shards=%d k=%d query %d %+v:\n descent  %v\n brute    %v\n pipeline %v",
						step, what, shards, k, qi, o, got, want, pipe)
				}
			}
		}
		// Any other k has no plane: the pipeline answers, correctly.
		other := Options{K: k + 1 + step%3, Method: DivideConquer}
		got, stats, err := RkNNT(x, queries[1], other)
		if err != nil {
			t.Fatal(err)
		}
		other.Method = BruteForce
		if want, _, _ := RkNNT(x, queries[1], other); stats.Plane || !idsEqual(got, want) {
			t.Fatalf("step %d (%s): k=%d beside the k=%d plane: plane=%v\n got  %v\n want %v", step, what, other.K, k, stats.Plane, got, want)
		}
		// EndpointMasks (the planner's entry point) agrees too.
		q := queries[0]
		masks, err := EndpointMasks(x, q, k, DivideConquer)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := EndpointMasks(x, q, k, BruteForce)
		if len(masks) != len(want) {
			t.Fatalf("step %d k=%d: %d masks, brute force %d", step, k, len(masks), len(want))
		}
		for id, m := range want {
			if masks[id] != m {
				t.Fatalf("step %d k=%d: transition %d mask %b, brute force %b", step, k, id, masks[id], m)
			}
		}
	}

	check(0, "build")
	for step := 1; step <= 40; step++ {
		clock++
		var what string
		switch op := rng.Intn(10); {
		case op < 3:
			what = "add"
			for i := 0; i < 1+rng.Intn(4); i++ {
				nextT++
				if err := x.AddTransition(model.Transition{ID: nextT, O: endpoint(), D: endpoint(), Time: clock}); err != nil {
					t.Fatal(err)
				}
				live[nextT] = true
			}
		case op < 5:
			what = "remove"
			id := pick()
			if !x.RemoveTransition(id) {
				t.Fatalf("step %d: transition %d missing", step, id)
			}
			delete(live, id)
		case op < 7:
			what = "re-add moved"
			id := pick()
			x.RemoveTransition(id)
			if err := x.AddTransition(model.Transition{ID: id, O: endpoint(), D: endpoint(), Time: clock}); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			what = "expire"
			cutoff := clock - 8
			x.Transitions(func(tr *model.Transition) bool {
				if tr.Time != 0 && tr.Time < cutoff {
					delete(live, tr.ID)
				}
				return true
			})
			x.ExpireTransitionsBefore(cutoff)
		case op < 9 || len(routes) < 4:
			what = "add route"
			nextR++
			r := model.Route{ID: nextR}
			for i, n := 0, 2+rng.Intn(5); i < n; i++ {
				s := rng.Intn(len(stops))
				r.Stops = append(r.Stops, model.StopID(s))
				r.Pts = append(r.Pts, stops[s])
			}
			if err := x.AddRoute(r); err != nil {
				t.Fatal(err)
			}
			routes = append(routes, nextR)
		default:
			what = "remove route"
			i := rng.Intn(len(routes))
			if !x.RemoveRoute(routes[i]) {
				t.Fatalf("step %d: route %d missing", step, routes[i])
			}
			routes = append(routes[:i], routes[i+1:]...)
		}
		if len(live) != x.NumTransitions() {
			t.Fatalf("step %d (%s): model has %d transitions, index %d", step, what, len(live), x.NumTransitions())
		}
		check(step, what)
	}
	// Cross the k = 30 boundary both ways so the +Inf plane turns
	// finite and back.
	for k == 30 && len(routes) < 32 {
		nextR++
		a, b := rng.Intn(len(stops)), rng.Intn(len(stops))
		if err := x.AddRoute(model.Route{ID: nextR, Stops: []model.StopID{model.StopID(a), model.StopID(b)}, Pts: []geo.Point{stops[a], stops[b]}}); err != nil {
			t.Fatal(err)
		}
		routes = append(routes, nextR)
		if len(routes) >= 29 {
			check(1000+len(routes), "add route across k")
		}
	}
	for k == 30 && len(routes) > 28 {
		x.RemoveRoute(routes[len(routes)-1])
		routes = routes[:len(routes)-1]
		check(2000+len(routes), "remove route across k")
	}
}

// TestPlaneFallbacks pins what stays on the paper's pipeline when a plane
// exists: BruteForce, every ablation flag and every other k; and that an
// index nobody built a plane on never takes the plane path.
func TestPlaneFallbacks(t *testing.T) {
	x, stops := tieCity(t, 3, 20, 80, 2)
	rng := rand.New(rand.NewSource(3))
	q := stopQuery(rng, stops, 3)
	if _, stats, _ := RkNNT(x, q, Options{K: 3}); stats.Plane {
		t.Fatal("plane path without a plane")
	}
	if !x.EnsureRadii(3) {
		t.Fatal("EnsureRadii refused")
	}
	want, _, _ := RkNNT(x, q, Options{K: 3, Method: BruteForce})
	for _, o := range []Options{
		{K: 3, Method: BruteForce},
		{K: 3, NoCrossover: true},
		{K: 3, NoNList: true},
		{K: 3, NoKernel: true},
		{K: 4}, // no plane at this k
	} {
		got, stats, err := RkNNT(x, q, o)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Plane {
			t.Errorf("%+v took the plane path", o)
		}
		if o.K == 3 && !idsEqual(got, want) {
			t.Errorf("%+v: %v, want %v", o, got, want)
		}
	}
	got, stats, _ := RkNNT(x, q, Options{K: 3, Method: Voronoi})
	if !stats.Plane || stats.Verify != 0 || stats.FilterPoints != 0 || stats.Candidates == 0 || stats.ShardsTouched == 0 {
		t.Errorf("plane stats: %+v", stats)
	}
	if !idsEqual(got, want) {
		t.Errorf("plane: %v, want %v", got, want)
	}
	if _, _, err := RkNNT(x, q, Options{K: 3, Method: Method(99)}); err == nil {
		t.Error("unknown method accepted on an index with a plane")
	}
	// Batch: same answers, plane path per query.
	qs := [][]geo.Point{q, stopQuery(rng, stops, 2), randQuery(rng, 3)}
	ids, bstats, err := BatchRkNNT(x, qs, Options{K: 3, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		w, _, _ := RkNNT(x, qs[i], Options{K: 3, Method: BruteForce})
		if !bstats[i].Plane || !idsEqual(ids[i], w) {
			t.Errorf("batch query %d: plane=%v %v, want %v", i, bstats[i].Plane, ids[i], w)
		}
	}
}

func TestNonFiniteQueryRejected(t *testing.T) {
	x, _ := tieCity(t, 1, 6, 10, 1)
	for _, q := range [][]geo.Point{
		{geo.Pt(1e200, 0)},
		{geo.Pt(0, 0), geo.Pt(0, -1e151)},
		{geo.Pt(math.NaN(), 0)},
		{geo.Pt(0, math.Inf(1))},
	} {
		if _, _, err := RkNNT(x, q, Options{K: 1}); err == nil {
			t.Errorf("query %v accepted", q)
		}
		if _, err := EndpointMasks(x, q, 1, BruteForce); err == nil {
			t.Errorf("EndpointMasks %v accepted", q)
		}
	}
	if _, _, err := RkNNT(x, []geo.Point{geo.Pt(1e150, -1e150)}, Options{K: 1}); err != nil {
		t.Errorf("boundary coordinate rejected: %v", err)
	}
}

// BenchmarkRadiusDescent measures one RkNNT answered from the plane
// against the same query through the pipeline, on the LA-like city at
// 1/16 scale.
func BenchmarkRadiusDescent(b *testing.B) {
	city, err := gen.Generate(gen.LA(16))
	if err != nil {
		b.Fatal(err)
	}
	x, err := index.Build(city.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	queries := make([][]geo.Point, 64)
	for i := range queries {
		queries[i] = city.Query(rng, 5, 3)
	}
	opts := Options{K: 10, Method: DivideConquer}
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := RkNNT(x, queries[i%len(queries)], opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	x.EnsureRadii(opts.K)
	b.Run("plane", func(b *testing.B) {
		// hits/op is what sortHits orders per query.
		hitsOf := make([]int, len(queries))
		for i, q := range queries {
			hp := descend(x, planesFor(x, opts), q, opts, &Stats{})
			hitsOf[i] = len(*hp)
			releaseHits(hp)
		}
		b.ReportAllocs()
		b.ResetTimer()
		cands, hits := 0, 0
		for i := 0; i < b.N; i++ {
			_, stats, err := RkNNT(x, queries[i%len(queries)], opts)
			if err != nil || !stats.Plane {
				b.Fatal(err, stats)
			}
			cands += stats.Candidates
			hits += hitsOf[i%len(queries)]
		}
		b.ReportMetric(float64(cands)/float64(b.N), "compares/op")
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	})
}

// randomHits returns n keys in [lo, lo+span) in random order; when n > 1
// both ends of the range are among them.
func randomHits(rng *rand.Rand, n int, lo, span int64) []int64 {
	hits := make([]int64, n)
	for i := range hits {
		hits[i] = lo + rng.Int63n(span)
	}
	if n > 1 {
		hits[rng.Intn(n)] = lo
		hits[rng.Intn(n)] = lo + span - 1
	}
	return hits
}

// checkSortHits sorts a copy of hits with sortHits and with slices.Sort
// and fails unless they agree.
func checkSortHits(t *testing.T, hits []int64, scratch []int64) {
	t.Helper()
	want := slices.Clone(hits)
	slices.Sort(want)
	got := sortHits(slices.Clone(hits), &scratch)
	if !slices.Equal(got, want) {
		t.Fatalf("%d hits: sortHits disagrees with slices.Sort", len(hits))
	}
}

// TestDescentSortHits: the radix sort rknntPlane orders its hits with is
// slices.Sort, from empty lists up to twice the benchmark city's hit
// count, for spans up to that of 32-bit IDs (2^33), with negative IDs,
// all-equal keys, and a scratch list longer than the hits.
func TestDescentSortHits(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 5000} {
		for _, span := range []int64{1, 255, 256, 1 << 17, 1 << 33} {
			for _, lo := range []int64{0, 2, -1 << 32, -1 << 20} {
				checkSortHits(t, randomHits(rng, n, lo, span), nil)
			}
		}
	}
	// All keys equal but one digit, and a scratch list longer than the
	// hits, holding keys of its own.
	same := make([]int64, 1000)
	for i := range same {
		same[i] = 0x5a5a_0000_5a5a
	}
	same[500] |= 0x100
	long := randomHits(rng, 3*len(same), -9, 1<<40)
	checkSortHits(t, same, long)
	checkSortHits(t, randomHits(rng, 600, -1<<32, 1<<33), long)
	// Any int64 keys: offsets from the minimum are unsigned.
	extreme := randomHits(rng, 700, math.MinInt64, math.MaxInt64)
	extreme[3] = math.MaxInt64
	checkSortHits(t, extreme, nil)
}

// FuzzDescentSortHits compares sortHits with slices.Sort on n keys of up
// to spanBits bits above lo (wrapping past the int64 range freely).
func FuzzDescentSortHits(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(17), int64(0))
	f.Add(int64(2), uint16(5000), uint8(33), int64(-1<<32))
	f.Add(int64(3), uint16(256), uint8(0), int64(7))
	f.Add(int64(4), uint16(1000), uint8(64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spanBits uint8, lo int64) {
		rng := rand.New(rand.NewSource(seed))
		mask := uint64(1)<<(spanBits%65) - 1 // 1<<64 is 0: all bits
		hits := make([]int64, int(n)%6000)
		for i := range hits {
			hits[i] = int64(uint64(lo) + rng.Uint64()&mask)
		}
		checkSortHits(t, hits, nil)
	})
}

// BenchmarkDescentSortHits orders one query's hits as the benchmark's
// city (NYC at 1/4 scale: 48 958 transitions, ~2 500 hits per plane
// query at k = 10) produces them: distinct keys in descent, not ID,
// order. "radix" is sortHits, "compare" the slices.Sort it replaced.
func BenchmarkDescentSortHits(b *testing.B) {
	const hits, transitions = 2500, 48958
	rng := rand.New(rand.NewSource(27))
	in := make([]int64, 0, hits)
	for _, k := range rng.Perm(2 * transitions)[:hits] {
		in = append(in, int64(k+2)) // IDs start at 1
	}
	work := make([]int64, hits)
	var scratch []int64
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, in)
			sortHits(work, &scratch)
		}
	})
	b.Run("compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, in)
			slices.Sort(work)
		}
	})
}
