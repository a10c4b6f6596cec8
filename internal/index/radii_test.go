package index

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/rtree"
)

// TestRadiusPlaneMaintained drives the per-shard commit entry points the
// serving layer uses — AddBatchToShard, RemoveBatchFromShard,
// RemoveBatchAnyShard, expiry — and the route mutations over an index
// with a plane, checking the plane invariant (every stored radius equals a
// fresh probe) after each, and that the radii handed back by the add are
// fresh probes too — hence the ones stored.
func TestRadiusPlaneMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds := randomDataset(rng, 12, 600)
	for _, shards := range []int{1, 3} {
		for _, k := range []int{3, 20} { // 20 > 12 routes: every radius starts +Inf
			x, err := BuildOpts(ds, Options{TRShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if x.RadiusPlanes(k) != nil || x.RadiusK() != 0 {
				t.Fatal("plane before EnsureRadii")
			}
			if errs, radii := x.AddBatchToShard(0, nil); len(errs) != 0 || radii.K != 0 {
				t.Fatalf("AddedRadii.K = %d without a plane", radii.K)
			}
			if !x.EnsureRadii(k) || !x.EnsureRadii(k) || x.RadiusK() != k {
				t.Fatal("EnsureRadii refused")
			}
			if x.EnsureRadii(0) || x.EnsureRadii(-1) || x.RadiusK() != k {
				t.Fatal("EnsureRadii accepted k < 1")
			}
			check := func(label string) {
				t.Helper()
				if err := x.CheckRadii(); err != nil {
					t.Fatalf("shards=%d %s: %v", shards, label, err)
				}
			}
			check("after build")

			// The 200 arrivals of one home shard, as a shard pipeline would
			// commit them.
			s0 := 0
			var ts []model.Transition
			for id := model.TransitionID(10_000); len(ts) < 200; id++ {
				if x.HomeShard(id) != s0 {
					continue
				}
				ts = append(ts, model.Transition{
					ID: id, Time: int64(1 + len(ts)%5),
					O: geo.Pt(rng.Float64()*100, rng.Float64()*100), D: geo.Pt(rng.Float64()*100, rng.Float64()*100),
				})
			}
			ts = append(ts, ts[0]) // duplicate: rejected, must not disturb the rest
			errs, radii := x.AddBatchToShard(s0, ts)
			if errs[len(ts)-1] == nil {
				t.Fatal("duplicate accepted")
			}
			if radii.K != k {
				t.Fatalf("AddedRadii.K = %d, want %d", radii.K, k)
			}
			for i := range ts[:len(ts)-1] {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if ro2, rd2 := radii.At(i); ro2 != x.RankRadius2(ts[i].O, k) || rd2 != x.RankRadius2(ts[i].D, k) {
					t.Fatalf("transition %d k=%d: handed back (%v, %v), probes say (%v, %v)", ts[i].ID, k, ro2, rd2, x.RankRadius2(ts[i].O, k), x.RankRadius2(ts[i].D, k))
				}
			}
			check("after AddBatchToShard")

			ids := make([]model.TransitionID, 0, 120)
			for i := 0; i < 120; i++ {
				ids = append(ids, ts[i].ID)
			}
			if removed := x.RemoveBatchFromShard(s0, ids[:60]); !removed[0] {
				t.Fatal("RemoveBatchFromShard removed nothing")
			}
			check("after RemoveBatchFromShard")
			var bulk []model.TransitionID
			for i := 0; i < 300; i++ {
				bulk = append(bulk, ds.Transitions[i].ID)
			}
			x.RemoveBatchAnyShard(append(bulk, ids[60:]...))
			check("after RemoveBatchAnyShard")
			x.RemoveBatchAnyShard(x.DrainTimedBeforeLocked(3))
			check("after expiry")
			if errs := x.AddTransitionsBatch(ts[:50]); errs[0] != nil {
				t.Fatal(errs[0])
			}
			check("after AddTransitionsBatch")

			// Nine more routes: k=20 turns finite on the 20th and back on removal.
			for r := 0; r < 9; r++ {
				route := model.Route{ID: model.RouteID(500 + r)}
				for j := 0; j < 3; j++ {
					route.Stops = append(route.Stops, model.StopID(9000+3*r+j))
					route.Pts = append(route.Pts, geo.Pt(rng.Float64()*100, rng.Float64()*100))
				}
				if err := x.AddRoute(route); err != nil {
					t.Fatal(err)
				}
				check("after AddRoute")
			}
			if r2 := x.RankRadius2(ts[152].O, 20); math.IsInf(r2, 1) {
				t.Fatalf("k=20 radius still +Inf with 21 routes")
			}
			for _, id := range []model.RouteID{500, 3, 507} {
				if !x.RemoveRoute(id) {
					t.Fatalf("route %d missing", id)
				}
				check("after RemoveRoute")
			}
		}
	}
}

// TestRadiusPlaneReplaceAndDrop: there is one plane; building it for
// another k replaces it, dropping it returns the index to plain inserts.
func TestRadiusPlaneReplaceAndDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, err := BuildOpts(randomDataset(rng, 8, 100), Options{TRShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	add := func(id int) {
		t.Helper()
		tr := model.Transition{ID: model.TransitionID(id), O: geo.Pt(rng.Float64()*100, rng.Float64()*100), D: geo.Pt(rng.Float64()*100, rng.Float64()*100)}
		if err := x.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
	}
	x.EnsureRadii(3)
	add(5000)
	x.EnsureRadii(5)
	if x.RadiusK() != 5 || x.RadiusPlanes(3) != nil || x.RadiusPlanes(5) == nil {
		t.Fatalf("after replacing k=3 by k=5: RadiusK = %d", x.RadiusK())
	}
	add(5001)
	if err := x.CheckRadii(); err != nil {
		t.Fatal(err)
	}
	x.DropRadii()
	if x.RadiusK() != 0 || x.RadiusPlanes(5) != nil {
		t.Fatal("plane survived DropRadii")
	}
	add(5002) // plain insert again; InsertValued would panic
	x.EnsureRadii(5)
	if err := x.CheckRadii(); err != nil {
		t.Fatal(err)
	}
}

// TestRadiusPlaneBuiltBesideWriters walks the three build steps the way
// the serving engine does, with the writes it lets through in between:
// transitions arrive, leave and come back with moved geometry while the
// probes run, and the installed plane must still equal fresh probes
// everywhere. A route change in between voids the build instead.
func TestRadiusPlaneBuiltBesideWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randomDataset(rng, 10, 800)
	for _, shards := range []int{1, 2, 4} {
		x, err := BuildOpts(ds, Options{TRShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		x.EnsureRadii(2) // an older plane, to be replaced
		b := x.BeginRadii(4)
		steps := 0
		for x.ProbeRadii(b, 100) {
			steps++
			id := model.TransitionID(20_000 + steps)
			tr := model.Transition{ID: id, O: geo.Pt(rng.Float64()*100, rng.Float64()*100), D: geo.Pt(rng.Float64()*100, rng.Float64()*100)}
			if err := x.AddTransition(tr); err != nil {
				t.Fatal(err)
			}
			victim := ds.Transitions[rng.Intn(len(ds.Transitions))]
			if x.RemoveTransition(victim.ID) && steps%2 == 0 {
				victim.O = geo.Pt(rng.Float64()*100, rng.Float64()*100) // same ID, moved
				if err := x.AddTransition(victim); err != nil {
					t.Fatal(err)
				}
			}
			if x.RadiusK() != 2 {
				t.Fatal("the old plane must serve until the new one is installed")
			}
		}
		if steps < 8 {
			t.Fatalf("only %d probe steps: the writes did not interleave", steps)
		}
		if !x.InstallRadii(b) || x.RadiusK() != 4 {
			t.Fatalf("InstallRadii refused a valid build (RadiusK %d)", x.RadiusK())
		}
		if err := x.CheckRadii(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}

		b = x.BeginRadii(6)
		x.ProbeRadii(b, 50)
		if !x.RemoveRoute(ds.Routes[0].ID) {
			t.Fatal("route missing")
		}
		if x.ProbeRadii(b, 50) || x.InstallRadii(b) || x.RadiusK() != 4 {
			t.Fatal("a build the route set changed under was not voided")
		}
		if err := x.CheckRadii(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRadiusPlaneInstallBesideReaders replaces the plane while readers
// descend the one they were handed — the serving layer's situation, where
// the install runs under the shared read locks. Run with -race.
func TestRadiusPlaneInstallBesideReaders(t *testing.T) {
	x, err := BuildOpts(randomDataset(rand.New(rand.NewSource(2)), 10, 400), Options{TRShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	x.EnsureRadii(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := []geo.Point{geo.Pt(float64(10*g), 50)}
			for i := 0; i < 50; i++ {
				k := x.RadiusK()
				planes := x.RadiusPlanes(k)
				if planes == nil {
					continue // replaced between the two loads
				}
				for s, tree := range x.TransitionShards() {
					tree.DescendPlane(planes[s], q, func(_ rtree.NodeID, ents []rtree.Entry, r2 []float64) {
						for i, e := range ents {
							if r2[i] != x.RankRadius2(e.Pt, k) {
								t.Errorf("k=%d: stale radius beside %+v", k, e)
							}
						}
					})
				}
			}
		}(g)
	}
	for _, k := range []int{5, 2, 7} {
		x.EnsureRadii(k)
	}
	wg.Wait()
	if err := x.CheckRadii(); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteCoordinatesRejected: a coordinate whose square overflows
// (or NaN, ±Inf) is refused by every way into the index.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	bad := []geo.Point{geo.Pt(1e200, 0), geo.Pt(0, -1e151), geo.Pt(math.NaN(), 1), geo.Pt(1, math.Inf(-1))}
	for _, p := range bad {
		ds := testDataset()
		ds.Routes[0].Pts[0] = p
		if _, err := Build(ds); err == nil {
			t.Errorf("Build accepted route point %v", p)
		}
		ds = testDataset()
		ds.Transitions[0].D = p
		if _, err := Build(ds); err == nil {
			t.Errorf("Build accepted transition endpoint %v", p)
		}
		x, err := Build(testDataset())
		if err != nil {
			t.Fatal(err)
		}
		n := x.NumTransitions()
		if err := x.AddTransition(model.Transition{ID: 900, O: p, D: geo.Pt(1, 1)}); err == nil {
			t.Errorf("AddTransition accepted %v", p)
		}
		if errs, _ := x.AddBatchToShard(0, []model.Transition{{ID: 901, O: geo.Pt(1, 1), D: p}}); errs[0] == nil {
			t.Errorf("AddBatchToShard accepted %v", p)
		}
		if err := x.AddRoute(model.Route{ID: 900, Stops: []model.StopID{70, 71}, Pts: []geo.Point{geo.Pt(0, 0), p}}); err == nil {
			t.Errorf("AddRoute accepted %v", p)
		}
		if x.NumTransitions() != n || x.Route(900) != nil {
			t.Errorf("a rejected write left something behind for %v", p)
		}
	}
	x, _ := Build(testDataset())
	if err := x.AddTransition(model.Transition{ID: 902, O: geo.Pt(geo.MaxCoord, -geo.MaxCoord), D: geo.Pt(0, 0)}); err != nil {
		t.Errorf("boundary coordinate rejected: %v", err)
	}
}

// BenchmarkEnsureRadii measures building one plane (k = 10) over the
// benchmark's city: NYC-like at 1/4 scale, 505 routes, 97 916 endpoints.
func BenchmarkEnsureRadii(b *testing.B) {
	city, err := gen.Generate(gen.NYC(4))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x, err := Build(city.Dataset)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if !x.EnsureRadii(10) {
			b.Fatal("refused")
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i+1)/float64(x.TransitionPoints()), "ns/endpoint")
	}
}
