package planner

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
)

// smallCity builds a compact synthetic city whose graph is small enough
// for exhaustive path enumeration.
func smallCity(t testing.TB, seed int64) (*gen.City, *index.Index) {
	t.Helper()
	cfg := gen.Config{
		Seed:  seed,
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
	}
	c, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(c.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return c, x
}

func precompute(t testing.TB, c *gen.City, x *index.Index, k int) *Precomputed {
	t.Helper()
	pre, err := Precompute(x, c.Graph, k, core.Voronoi)
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

func TestPrecomputeValidation(t *testing.T) {
	c, x := smallCity(t, 1)
	if _, err := Precompute(x, c.Graph, 0, core.Voronoi); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestPrecomputeTimings(t *testing.T) {
	c, x := smallCity(t, 2)
	pre := precompute(t, c, x, 3)
	if pre.RkNNTTime <= 0 || pre.ShortestTime <= 0 {
		t.Error("precomputation timings not recorded")
	}
	if len(pre.ix.vb) != c.Graph.NumVertices() {
		t.Errorf("masks for %d vertices, want %d", len(pre.ix.vb), c.Graph.NumVertices())
	}
	if len(pre.M) != c.Graph.NumVertices() {
		t.Errorf("Mψ has %d rows", len(pre.M))
	}
}

// sameMasks fails the test unless got and want hold the same transitions
// with the same endpoint masks.
func sameMasks(t *testing.T, label string, got, want map[model.TransitionID]uint8) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d masks, want %d", label, len(got), len(want))
	}
	for id, m := range want {
		if got[id] != m {
			t.Fatalf("%s transition %d: mask %d, want %d", label, id, got[id], m)
		}
	}
}

// Per-vertex precomputed masks must equal a direct single-point RkNNT at
// every vertex, whether the per-vertex queries ran the pipeline or
// descended a radius plane at k.
func TestPrecomputeMatchesDirectQuery(t *testing.T) {
	c, x := smallCity(t, 3)
	k := 3
	for _, plane := range []bool{false, true} {
		if plane && !x.EnsureRadii(k) {
			t.Fatal("radius plane build abandoned")
		}
		pre := precompute(t, c, x, k)
		for v := 0; v < c.Graph.NumVertices(); v++ {
			want, err := core.EndpointMasks(x, []geo.Point{c.Graph.Point(graph.VertexID(v))}, k, core.BruteForce)
			if err != nil {
				t.Fatal(err)
			}
			sameMasks(t, fmt.Sprintf("plane=%v vertex %d", plane, v), pre.VertexMasks(graph.VertexID(v)), want)
		}
	}
}

// Refresh after writes — transition adds and removes, a route added and
// one removed — must equal a from-scratch Precompute over the same index,
// bit for bit, and share the network's Mψ instead of recomputing it.
func TestRefreshMatchesPrecompute(t *testing.T) {
	c, x := smallCity(t, 4)
	k := 3
	rng := rand.New(rand.NewSource(105))
	g := c.Graph
	first := precompute(t, c, x, k)
	cur := first
	check := func(label string) {
		t.Helper()
		got, err := cur.Refresh(x, core.Voronoi)
		if err != nil {
			t.Fatal(err)
		}
		want := precompute(t, c, x, k)
		if !reflect.DeepEqual(got.ix.ids, want.ix.ids) {
			t.Fatalf("%s: %d indexed transitions, from scratch %d", label, len(got.ix.ids), len(want.ix.ids))
		}
		for v := range want.ix.vb {
			if !reflect.DeepEqual(got.ix.vb[v], want.ix.vb[v]) {
				t.Fatalf("%s: vertex %d bitmaps differ from a from-scratch Precompute", label, v)
			}
		}
		if &got.M[0] != &first.M[0] || got.G != g || got.K != k {
			t.Fatalf("%s: Refresh did not share the network, k and Mψ", label)
		}
		if got.ShortestTime != 0 {
			t.Fatalf("%s: Refresh reports %v of shortest-distance time", label, got.ShortestTime)
		}
		cur = got
	}
	vertexPt := func() geo.Point { return g.Point(graph.VertexID(rng.Intn(g.NumVertices()))) }
	for i := 0; i < 20; i++ {
		tr := model.Transition{ID: model.TransitionID(100_000 + i), O: vertexPt(), D: vertexPt()}
		if err := x.AddTransition(tr); err != nil {
			t.Fatal(err)
		}
	}
	check("after adds")
	for i := 0; i < len(c.Dataset.Transitions); i += 9 {
		if !x.RemoveTransition(c.Dataset.Transitions[i].ID) {
			t.Fatalf("transition %d was not live", c.Dataset.Transitions[i].ID)
		}
	}
	check("after removes")
	stops := []graph.VertexID{0, graph.VertexID(g.NumVertices() / 2), graph.VertexID(g.NumVertices() - 1)}
	route := model.Route{ID: 9_000}
	for _, v := range stops {
		route.Stops = append(route.Stops, model.StopID(v))
		route.Pts = append(route.Pts, g.Point(v))
	}
	if err := x.AddRoute(route); err != nil {
		t.Fatal(err)
	}
	check("after AddRoute")
	if !x.RemoveRoute(c.Dataset.Routes[0].ID) {
		t.Fatal("route was not live")
	}
	check("after RemoveRoute")
}

// The three planning algorithms must agree on the optimal passenger count
// for both objectives (the exact dominance rule guarantees it).
func TestPlannersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		c, x := smallCity(t, int64(10+trial))
		k := 1 + rng.Intn(4)
		pre := precompute(t, c, x, k)
		s, e, ok := c.ODPair(rng, 3, 6)
		if !ok {
			t.Fatal("no OD pair")
		}
		_, sd, ok2 := c.Graph.ShortestPath(s, e)
		if !ok2 {
			t.Fatal("disconnected")
		}
		tau := sd * 1.25
		for _, obj := range []Objective{Maximize, Minimize} {
			opts := Options{Objective: obj}
			bf, ok, err := BruteForcePlan(x, c.Graph, s, e, tau, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("brute force found no route despite tau >= shortest")
			}
			prePlan, ok2 := pre.PrePlan(s, e, tau, opts)
			if !ok2 {
				t.Fatal("PrePlan found no route")
			}
			plan, ok3, err := pre.Plan(s, e, tau, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ok3 {
				t.Fatal("Plan found no route")
			}
			if bf.Count != prePlan.Count || bf.Count != plan.Count {
				t.Fatalf("trial %d %v: counts BF=%d Pre=%d Plan=%d (s=%d e=%d tau=%.2f k=%d)",
					trial, obj, bf.Count, prePlan.Count, plan.Count, s, e, tau, k)
			}
			// All returned routes must be feasible.
			for name, r := range map[string]*Result{"BF": bf, "Pre": prePlan, "Plan": plan} {
				checkFeasible(t, c.Graph, r, s, e, tau, name)
			}
		}
	}
}

func checkFeasible(t *testing.T, g *graph.Graph, r *Result, s, e graph.VertexID, tau float64, name string) {
	t.Helper()
	if r.Path[0] != s || r.Path[len(r.Path)-1] != e {
		t.Fatalf("%s: path endpoints %v, want %d..%d", name, r.Path, s, e)
	}
	d, err := g.PathDist(r.Path)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.Abs(d-r.Dist) > 1e-9 {
		t.Fatalf("%s: reported dist %v, recomputed %v", name, r.Dist, d)
	}
	if d > tau+1e-9 {
		t.Fatalf("%s: dist %v exceeds tau %v", name, d, tau)
	}
	if r.Count != len(r.Transitions) {
		t.Fatalf("%s: Count %d != len(Transitions) %d", name, r.Count, len(r.Transitions))
	}
	seen := map[graph.VertexID]bool{}
	for _, v := range r.Path {
		if seen[v] {
			t.Fatalf("%s: path revisits vertex %d", name, v)
		}
		seen[v] = true
	}
}

// Max result must attract at least as many passengers as Min.
func TestMaxAtLeastMin(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	c, x := smallCity(t, 20)
	pre := precompute(t, c, x, 2)
	for trial := 0; trial < 5; trial++ {
		s, e, ok := c.ODPair(rng, 3, 6)
		if !ok {
			continue
		}
		_, sd, ok2 := c.Graph.ShortestPath(s, e)
		if !ok2 {
			continue
		}
		tau := sd * 1.4
		maxR, okMax, err := pre.Plan(s, e, tau, Options{Objective: Maximize})
		if err != nil || !okMax {
			t.Fatalf("max: %v %v", err, okMax)
		}
		minR, okMin, err := pre.Plan(s, e, tau, Options{Objective: Minimize})
		if err != nil || !okMin {
			t.Fatalf("min: %v %v", err, okMin)
		}
		if maxR.Count < minR.Count {
			t.Fatalf("MaxRkNNT %d < MinRkNNT %d", maxR.Count, minR.Count)
		}
	}
}

// The Lemma-4 heuristic must return feasible routes; on these fixed seeds
// it also matches the exact optimum (a regression check on the heuristic's
// practical quality, not a theorem).
func TestLemma4Heuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	c, x := smallCity(t, 30)
	pre := precompute(t, c, x, 2)
	for trial := 0; trial < 5; trial++ {
		s, e, ok := c.ODPair(rng, 3, 6)
		if !ok {
			continue
		}
		_, sd, ok2 := c.Graph.ShortestPath(s, e)
		if !ok2 {
			continue
		}
		tau := sd * 1.3
		for _, obj := range []Objective{Maximize, Minimize} {
			exact, okE, err := pre.Plan(s, e, tau, Options{Objective: obj})
			if err != nil || !okE {
				t.Fatalf("exact: %v %v", err, okE)
			}
			heur, okH, err := pre.Plan(s, e, tau, Options{Objective: obj, UseLemma4: true})
			if err != nil || !okH {
				t.Fatalf("lemma4: %v %v", err, okH)
			}
			checkFeasible(t, c.Graph, heur, s, e, tau, "Lemma4")
			if heur.Count != exact.Count {
				t.Errorf("trial %d %v: Lemma4 count %d, exact %d", trial, obj, heur.Count, exact.Count)
			}
		}
	}
}

func TestPlanUnreachable(t *testing.T) {
	c, x := smallCity(t, 40)
	pre := precompute(t, c, x, 2)
	// tau below the shortest distance: no feasible route.
	s, e := graph.VertexID(0), graph.VertexID(int32(c.Graph.NumVertices()-1))
	_, sd, ok := c.Graph.ShortestPath(s, e)
	if !ok {
		t.Skip("disconnected")
	}
	if _, ok, err := pre.Plan(s, e, sd*0.5, Options{}); err != nil || ok {
		t.Errorf("Plan with tau < shortest: ok=%v err=%v", ok, err)
	}
	if r, ok, err := BruteForcePlan(x, c.Graph, s, e, sd*0.5, 2, Options{}); err != nil || ok || r != nil {
		t.Errorf("BruteForcePlan with tau < shortest: ok=%v", ok)
	}
	if _, ok := pre.PrePlan(s, e, sd*0.5, Options{}); ok {
		t.Error("PrePlan with tau < shortest returned a route")
	}
}

func TestPlanErrors(t *testing.T) {
	c, x := smallCity(t, 50)
	pre := precompute(t, c, x, 2)
	if _, _, err := pre.Plan(0, 0, 100, Options{}); err == nil {
		t.Error("identical start/end accepted")
	}
	if _, _, err := pre.Plan(-1, 1, 100, Options{}); err == nil {
		t.Error("negative vertex accepted")
	}
	_ = c
}

// The shortest route is always feasible, so Plan must return a route whose
// count is at least the shortest route's count for Maximize and at most
// for Minimize.
func TestPlanBeatsShortestRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	c, x := smallCity(t, 60)
	k := 2
	pre := precompute(t, c, x, k)
	for trial := 0; trial < 5; trial++ {
		s, e, ok := c.ODPair(rng, 3, 6)
		if !ok {
			continue
		}
		sp, sd, ok2 := c.Graph.ShortestPath(s, e)
		if !ok2 {
			continue
		}
		tau := sd * 1.5
		shortCount := pre.routeMasks(sp).countExists()
		maxR, okM, err := pre.Plan(s, e, tau, Options{Objective: Maximize})
		if err != nil || !okM {
			t.Fatal(err)
		}
		if maxR.Count < shortCount {
			t.Errorf("Max count %d < shortest-route count %d", maxR.Count, shortCount)
		}
		minR, okm, err := pre.Plan(s, e, tau, Options{Objective: Minimize})
		if err != nil || !okm {
			t.Fatal(err)
		}
		if minR.Count > shortCount {
			t.Errorf("Min count %d > shortest-route count %d", minR.Count, shortCount)
		}
	}
}

// routeMasks must union masks exactly (spot-check against EndpointMasks on
// the whole path).
func TestRouteMasksMatchWholeQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	c, x := smallCity(t, 70)
	k := 2
	pre := precompute(t, c, x, k)
	for trial := 0; trial < 5; trial++ {
		s, e, ok := c.ODPair(rng, 3, 7)
		if !ok {
			continue
		}
		path, _, ok2 := c.Graph.ShortestPath(s, e)
		if !ok2 {
			continue
		}
		got := pre.ix.masks(pre.routeMasks(path))
		query := verticesToPoints(c.Graph, path)
		want, err := core.EndpointMasks(x, query, k, core.BruteForce)
		if err != nil {
			t.Fatal(err)
		}
		sameMasks(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

func verticesToPoints(g *graph.Graph, path []graph.VertexID) []geo.Point {
	pts := make([]geo.Point, len(path))
	for i, v := range path {
		pts[i] = g.Point(v)
	}
	return pts
}

// MaxExpansions turns Plan into an anytime search: it must still return a
// feasible route (falling back to the shortest path when the cap fires
// before reaching the destination) and flag the truncation.
func TestPlanMaxExpansions(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	c, x := smallCity(t, 80)
	pre := precompute(t, c, x, 2)
	s, e, ok := c.ODPair(rng, 4, 7)
	if !ok {
		t.Skip("no OD pair")
	}
	_, sd, ok2 := c.Graph.ShortestPath(s, e)
	if !ok2 {
		t.Skip("disconnected")
	}
	tau := sd * 1.5
	full, okF, err := pre.Plan(s, e, tau, Options{Objective: Maximize})
	if err != nil || !okF {
		t.Fatalf("uncapped plan: %v %v", err, okF)
	}
	if full.Truncated {
		t.Error("uncapped plan reported truncation")
	}
	capped, okC, err := pre.Plan(s, e, tau, Options{Objective: Maximize, MaxExpansions: 1})
	if err != nil || !okC {
		t.Fatalf("capped plan: %v %v", err, okC)
	}
	checkFeasible(t, c.Graph, capped, s, e, tau, "capped")
	if !capped.Truncated {
		t.Error("capped plan did not report truncation")
	}
	if capped.Count > full.Count {
		t.Errorf("capped count %d exceeds optimal %d", capped.Count, full.Count)
	}
}

// Randomized agreement sweep: many small random cities, random OD pairs
// and thresholds — Plan (exact dominance) must always match the
// exhaustive enumeration's optimal count, for both objectives.
func TestPlannersAgreeRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized planner sweep in -short mode")
	}
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 10; trial++ {
		c, x := smallCity(t, int64(200+trial))
		k := 1 + rng.Intn(3)
		pre := precompute(t, c, x, k)
		for q := 0; q < 3; q++ {
			s, e, ok := c.ODPair(rng, 2+rng.Float64()*3, 6)
			if !ok || s == e {
				continue
			}
			_, sd, ok2 := c.Graph.ShortestPath(s, e)
			if !ok2 {
				continue
			}
			tau := sd * (1.0 + rng.Float64()*0.4)
			for _, obj := range []Objective{Maximize, Minimize} {
				opts := Options{Objective: obj}
				enum, okE := pre.PrePlan(s, e, tau, opts)
				plan, okP, err := pre.Plan(s, e, tau, opts)
				if err != nil {
					t.Fatal(err)
				}
				if okE != okP {
					t.Fatalf("trial %d: feasibility disagreement (enum %v, plan %v)", trial, okE, okP)
				}
				if !okE {
					continue
				}
				if enum.Count != plan.Count {
					t.Fatalf("trial %d %v: enum %d vs plan %d (s=%d e=%d tau=%.3f k=%d)",
						trial, obj, enum.Count, plan.Count, s, e, tau, k)
				}
			}
		}
	}
}

// BenchmarkPrecompute times Algorithm 5 on the compact city of the
// plan_fresh benchmark workload (gen seed 4004, 20 x 20, 60 routes, 10 000
// transitions) at k = 10 with DivideConquer: once with the per-vertex
// queries on the filter–refine pipeline, once descending a radius plane
// at k. rknnt_ms/op and shortest_ms/op split the time between the two
// steps.
func BenchmarkPrecompute(b *testing.B) {
	c, err := gen.Generate(gen.Config{
		Seed:  4004,
		Width: 20, Height: 20,
		GridStep:       2.0,
		Jitter:         0.25,
		NumRoutes:      60,
		RouteMinStops:  4,
		RouteMaxStops:  10,
		NumTransitions: 10000,
		HotspotCount:   15,
		HotspotSigma:   1.5,
		BackgroundFrac: 0.15,
	})
	if err != nil {
		b.Fatal(err)
	}
	x, err := index.Build(c.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	for _, name := range []string{"pipeline", "plane"} {
		if name == "plane" && !x.EnsureRadii(k) {
			b.Fatal("radius plane build abandoned")
		}
		b.Run(name, func(b *testing.B) {
			var rknnt, shortest time.Duration
			for b.Loop() {
				pre, err := Precompute(x, c.Graph, k, core.DivideConquer)
				if err != nil {
					b.Fatal(err)
				}
				rknnt += pre.RkNNTTime
				shortest += pre.ShortestTime
			}
			b.ReportMetric(float64(rknnt.Milliseconds())/float64(b.N), "rknnt_ms/op")
			b.ReportMetric(float64(shortest.Milliseconds())/float64(b.N), "shortest_ms/op")
		})
	}
}
