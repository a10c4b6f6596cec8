package monitor

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/obs"
)

func buildCity(t testing.TB, seed int64, nTrans int) (*gen.City, *index.Index) {
	t.Helper()
	c, err := gen.Generate(gen.Config{
		Seed:  seed,
		Width: 12, Height: 12,
		GridStep:       1.5,
		Jitter:         0.2,
		NumRoutes:      20,
		RouteMinStops:  3,
		RouteMaxStops:  8,
		NumTransitions: nTrans,
		HotspotCount:   5,
		HotspotSigma:   1.2,
		BackgroundFrac: 0.2,
		TimeSpan:       1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(c.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return c, x
}

// The invariant every test leans on: after any sequence of updates, the
// standing result must equal a fresh RkNNT query.
func assertConsistent(t *testing.T, m *Monitor, x *index.Index, id QueryID, query []geo.Point, k int, sem core.Semantics) {
	t.Helper()
	want, _, err := core.RkNNT(x, query, core.Options{K: k, Method: core.BruteForce, Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("standing result has %d entries, fresh query %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("standing result diverged at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestRegisterMatchesFreshQuery(t *testing.T) {
	c, x := buildCity(t, 1, 200)
	m := New(x)
	rng := rand.New(rand.NewSource(2))
	for _, sem := range []core.Semantics{core.Exists, core.ForAll} {
		query := c.Query(rng, 4, 2)
		id, initial, err := m.Register(query, 3, sem)
		if err != nil {
			t.Fatal(err)
		}
		if len(initial) == 0 && sem == core.Exists {
			t.Log("warning: empty initial result (possible but unusual)")
		}
		assertConsistent(t, m, x, id, query, 3, sem)
	}
}

func TestIncrementalAddRemove(t *testing.T) {
	c, x := buildCity(t, 3, 150)
	m := New(x)
	rng := rand.New(rand.NewSource(4))
	query := c.Query(rng, 4, 2)
	id, _, err := m.Register(query, 3, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 100 arrivals and 50 removals, checking consistency throughout.
	var added []model.TransitionID
	for i := 0; i < 100; i++ {
		tr := model.Transition{
			ID: model.TransitionID(10000 + i),
			O:  geo.Pt(rng.Float64()*12, rng.Float64()*12),
			D:  geo.Pt(rng.Float64()*12, rng.Float64()*12),
		}
		if i%3 == 0 { // some arrivals hug the query to force Added events
			tr.O = query[rng.Intn(len(query))]
		}
		if _, err := m.Add(tr); err != nil {
			t.Fatal(err)
		}
		added = append(added, tr.ID)
		if i%25 == 24 {
			assertConsistent(t, m, x, id, query, 3, core.Exists)
		}
	}
	for i := 0; i < 50; i++ {
		if _, ok := m.Remove(added[i]); !ok {
			t.Fatalf("remove %d failed", added[i])
		}
	}
	assertConsistent(t, m, x, id, query, 3, core.Exists)
}

func TestEventsReported(t *testing.T) {
	c, x := buildCity(t, 5, 100)
	m := New(x)
	rng := rand.New(rand.NewSource(6))
	query := c.Query(rng, 3, 2)
	id, _, err := m.Register(query, 2, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	// A transition glued to the query must produce an Added event...
	tr := model.Transition{ID: 5555, O: query[0], D: query[len(query)-1]}
	events, err := m.Add(tr)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range events {
		if e.Query == id && e.Transition == 5555 && e.Added {
			found = true
		}
	}
	if !found {
		t.Fatal("no Added event for query-hugging transition")
	}
	// ... and removing it must produce a Removed event.
	events, ok := m.Remove(5555)
	if !ok {
		t.Fatal("remove failed")
	}
	found = false
	for _, e := range events {
		if e.Query == id && e.Transition == 5555 && !e.Added {
			found = true
		}
	}
	if !found {
		t.Fatal("no Removed event")
	}
}

func TestExpireBefore(t *testing.T) {
	c, x := buildCity(t, 7, 120)
	m := New(x)
	rng := rand.New(rand.NewSource(8))
	query := c.Query(rng, 3, 2)
	id, _, err := m.Register(query, 3, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	before := x.NumTransitions()
	events := m.ExpireBefore(500) // TimeSpan is 1000, so roughly half expire
	if x.NumTransitions() >= before {
		t.Fatal("nothing expired")
	}
	for _, e := range events {
		if e.Added {
			t.Fatal("expiry produced an Added event")
		}
	}
	assertConsistent(t, m, x, id, query, 3, core.Exists)
}

func TestRouteChanged(t *testing.T) {
	c, x := buildCity(t, 9, 150)
	m := New(x)
	rng := rand.New(rand.NewSource(10))
	query := c.Query(rng, 3, 2)
	id, _, err := m.Register(query, 2, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	// Add a route right on top of the query: it out-competes the query, so
	// results can only shrink.
	newRoute := model.Route{ID: 900, Stops: []model.StopID{9000, 9001, 9002},
		Pts: []geo.Point{query[0], query[1], query[2]}}
	if err := x.AddRoute(newRoute); err != nil {
		t.Fatal(err)
	}
	events, err := m.RouteChanged()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Added {
			t.Fatal("adding a competing route grew the result set")
		}
	}
	assertConsistent(t, m, x, id, query, 2, core.Exists)
	// Remove it again: results must return, consistency restored.
	x.RemoveRoute(900)
	if _, err := m.RouteChanged(); err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m, x, id, query, 2, core.Exists)
}

func TestUnregisterAndErrors(t *testing.T) {
	c, x := buildCity(t, 11, 50)
	m := New(x)
	rng := rand.New(rand.NewSource(12))
	query := c.Query(rng, 3, 2)
	id, _, err := m.Register(query, 2, core.Exists)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Unregister(id) {
		t.Fatal("unregister failed")
	}
	if m.Unregister(id) {
		t.Fatal("double unregister succeeded")
	}
	if _, err := m.Results(id); err == nil {
		t.Fatal("Results on unregistered query succeeded")
	}
	if _, _, err := m.Register(query, 0, core.Exists); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, ok := m.Remove(424242); ok {
		t.Fatal("removing unknown transition succeeded")
	}
}

func TestMultipleStandingQueries(t *testing.T) {
	c, x := buildCity(t, 13, 150)
	m := New(x)
	rng := rand.New(rand.NewSource(14))
	type sq struct {
		id    QueryID
		query []geo.Point
		k     int
		sem   core.Semantics
	}
	var sqs []sq
	for i := 0; i < 5; i++ {
		query := c.Query(rng, 2+rng.Intn(3), 2)
		k := 1 + rng.Intn(4)
		sem := core.Exists
		if i%2 == 1 {
			sem = core.ForAll
		}
		id, _, err := m.Register(query, k, sem)
		if err != nil {
			t.Fatal(err)
		}
		sqs = append(sqs, sq{id, query, k, sem})
	}
	for i := 0; i < 60; i++ {
		tr := model.Transition{
			ID: model.TransitionID(20000 + i),
			O:  geo.Pt(rng.Float64()*12, rng.Float64()*12),
			D:  geo.Pt(rng.Float64()*12, rng.Float64()*12),
		}
		if _, err := m.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range sqs {
		assertConsistent(t, m, x, q.id, q.query, q.k, q.sem)
	}
}

// sortEvents orders events for comparison: ApplyAdds walks its standing
// queries in map order.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Transition != evs[j].Transition {
			return evs[i].Transition < evs[j].Transition
		}
		return evs[i].Query < evs[j].Query
	})
}

// TestApplyAddsRankRadiusMatchesPerQueryProbe is the differential for the shared
// rank radii: with standing queries of mixed k under both semantics, the
// events ApplyAdds emits for a committed batch are exactly those of the
// reference that rank-probes the RR-tree once per (endpoint, standing
// query) with core.TakesQueryAsKNN — arrivals on route stops, where the
// query distance ties a route's, included — and the tree probes it
// counts depend on the distinct k values only.
func TestApplyAddsRankRadiusMatchesPerQueryProbe(t *testing.T) {
	c, x := buildCity(t, 21, 150)
	m := New(x)
	probes := obs.NewRegistry().Counter("probes", "")
	m.SetMetrics(Metrics{RankChecks: probes})
	rng := rand.New(rand.NewSource(22))
	type sq struct {
		id    QueryID
		query []geo.Point
		k     int
		sem   core.Semantics
	}
	var sqs []sq
	ks := []int{1, 3, 3, 5, 5, 5, 40} // 40 > #routes: every endpoint qualifies
	for i := 0; i < 14; i++ {
		query := c.Query(rng, 2+rng.Intn(3), 2)
		sem := core.Semantics(i % 2)
		k := ks[i%len(ks)]
		id, _, err := m.Register(query, k, sem)
		if err != nil {
			t.Fatal(err)
		}
		sqs = append(sqs, sq{id, query, k, sem})
	}
	var stops []geo.Point
	x.Routes(func(r *model.Route) bool {
		stops = append(stops, r.Pts...)
		return true
	})
	endpoint := func() geo.Point {
		if rng.Intn(3) == 0 {
			return stops[rng.Intn(len(stops))]
		}
		return geo.Pt(rng.Float64()*18, rng.Float64()*18)
	}
	for round := 0; round < 10; round++ {
		ts := make([]model.Transition, 8)
		for i := range ts {
			ts[i] = model.Transition{ID: model.TransitionID(30000 + round*8 + i), O: endpoint(), D: endpoint()}
		}
		ts[3].ID = ts[2].ID // rejected as a duplicate: must produce nothing
		errs := x.AddTransitionsBatch(ts)
		if errs[3] == nil {
			t.Fatal("duplicate ID was indexed")
		}
		before := probes.Load()
		got := m.ApplyAdds(ts, errs)
		if n := probes.Load() - before; n != 7*2*4 {
			t.Fatalf("round %d: %d tree probes for 7 arrivals and 4 distinct k, want %d", round, n, 7*2*4)
		}
		var want []Event
		for i, tr := range ts {
			if errs[i] != nil {
				continue
			}
			for _, q := range sqs {
				o := core.TakesQueryAsKNN(x, q.query, tr.O, q.k)
				d := core.TakesQueryAsKNN(x, q.query, tr.D, q.k)
				if (q.sem == core.ForAll && o && d) || (q.sem == core.Exists && (o || d)) {
					want = append(want, Event{Query: q.id, Transition: tr.ID, Added: true})
				}
			}
		}
		sortEvents(got)
		sortEvents(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: ApplyAdds events %v, per-query probes give %v", round, got, want)
		}
	}
	for _, q := range sqs {
		assertConsistent(t, m, x, q.id, q.query, q.k, q.sem)
	}
}

// BenchmarkMonitorApplyAdds times standing-query maintenance for one
// committed arrival with 64 standing queries registered at one k: two
// tree probes, then 64 pairs of distance compares.
func BenchmarkMonitorApplyAdds(b *testing.B) {
	c, x := buildCity(b, 31, 2000)
	m := New(x)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 64; i++ {
		if _, _, err := m.Register(c.Query(rng, 3, 2), 10, core.Exists); err != nil {
			b.Fatal(err)
		}
	}
	ts := make([]model.Transition, 256)
	for i := range ts {
		ts[i] = model.Transition{
			ID: model.TransitionID(50000 + i),
			O:  geo.Pt(rng.Float64()*18, rng.Float64()*18),
			D:  geo.Pt(rng.Float64()*18, rng.Float64()*18),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// ApplyAdds does no index writes, so replaying one arrival is
		// the same work every iteration.
		m.ApplyAdds(ts[i%len(ts):i%len(ts)+1], nil)
	}
}
