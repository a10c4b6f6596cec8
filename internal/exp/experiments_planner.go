package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/planner"
)

// plannerK is the k the paper fixes for route planning experiments.
const plannerK = 10

// Candidate caps for the enumeration baselines, so the worst sweep points
// terminate. BruteForce pays a full RkNNT query per candidate, so its cap
// is much tighter; Pre only unions precomputed sets. Both caps are
// reported in the table notes.
const (
	maxEnumCandidatesBF  = 150
	maxEnumCandidatesPre = 4000
)

// maxPlanExpansions is the anytime cap on Algorithm 6 expansions used by
// the experiments, a safety valve for the widest tau sweep points.
const maxPlanExpansions = 100000

// prePlanner caches the Algorithm 5 precomputation on the planner city.
func (s *Suite) prePlanner() (*planner.Precomputed, error) {
	if s.planPre == nil {
		w := s.Planner()
		pre, err := planner.Precompute(w.X, w.City.Graph, plannerK, core.DivideConquer)
		if err != nil {
			return nil, err
		}
		s.planPre = pre
	}
	return s.planPre, nil
}

// Table5 regenerates Table 5: precomputation cost for k in {1, 5, 10} —
// the per-vertex RkNNT pass and the all-pairs shortest distance pass.
func (s *Suite) Table5() (*Table, error) {
	t := &Table{
		ID:     "table5",
		Title:  "Precomputation time (s) for k=1,5,10 (cf. Table 5)",
		Header: []string{"Dataset", "k", "RkNNT (s)", "Shortest (s)"},
	}
	w := s.Planner()
	for _, k := range []int{1, 5, 10} {
		pre, err := planner.Precompute(w.X, w.City.Graph, k, core.DivideConquer)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name, k, pre.RkNNTTime.Seconds(), pre.ShortestTime.Seconds())
	}
	t.Notes = append(t.Notes,
		"expected shape: RkNNT pass grows with k; shortest-distance pass is k-independent",
		fmt.Sprintf("RkNNT (s) is wall time of the per-vertex queries fanned over GOMAXPROCS=%d workers",
			runtime.GOMAXPROCS(0)),
		fmt.Sprintf("planner network: %d vertices, %d edges (paper: 14-17k vertices)",
			w.City.Graph.NumVertices(), w.City.Graph.NumEdges()))
	return t, nil
}

// planAlgos runs the four planning algorithms of Section 7.3 on one query
// and returns per-algorithm durations, or an error.
func (s *Suite) planAlgos(sv, ev graph.VertexID, tau float64) (times [4]time.Duration, counts [4]int, err error) {
	w := s.Planner()
	pre, err := s.prePlanner()
	if err != nil {
		return times, counts, err
	}
	opts := planner.Options{Objective: planner.Maximize, MaxCandidates: maxEnumCandidatesPre, UseLemma4: true, MaxExpansions: maxPlanExpansions}
	bfOpts := opts
	bfOpts.MaxCandidates = maxEnumCandidatesBF

	start := time.Now()
	bf, ok, err := planner.BruteForcePlan(w.X, w.City.Graph, sv, ev, tau, plannerK, bfOpts)
	if err != nil {
		return times, counts, err
	}
	times[0] = time.Since(start)
	if ok {
		counts[0] = bf.Count
	}

	start = time.Now()
	pr, ok := pre.PrePlan(sv, ev, tau, opts)
	times[1] = time.Since(start)
	if ok {
		counts[1] = pr.Count
	}

	start = time.Now()
	mx, ok, err := pre.Plan(sv, ev, tau, opts)
	if err != nil {
		return times, counts, err
	}
	times[2] = time.Since(start)
	if ok {
		counts[2] = mx.Count
	}

	minOpts := opts
	minOpts.Objective = planner.Minimize
	start = time.Now()
	mn, ok, err := pre.Plan(sv, ev, tau, minOpts)
	if err != nil {
		return times, counts, err
	}
	times[3] = time.Since(start)
	if ok {
		counts[3] = mn.Count
	}
	return times, counts, nil
}

// Fig18 regenerates Figure 18: planning time vs ψ(se), the straight-line
// separation between origin and destination. The paper sweeps 10-50 km on
// a city-scale network; the planner city is 20 km wide, so the sweep is
// scaled to 4-12 km while preserving the ratios.
func (s *Suite) Fig18() (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "MaxRkNNT planning time (ms) vs psi(se) (cf. Figure 18, sweep scaled to city size)",
		Header: []string{"psi(se) km", "Bruteforce", "Pre", "Pre-Max", "Pre-Min"},
	}
	w := s.Planner()
	rng := s.rng()
	sweep := []float64{4, 6, 8, 10, 12}
	for _, sep := range sweep {
		var agg [4]time.Duration
		runs := 0
		for attempt := 0; attempt < s.Cfg.Queries; attempt++ {
			sv, ev, ok := w.City.ODPair(rng, sep*0.9, sep*1.1)
			if !ok {
				continue
			}
			_, sd, ok2 := w.City.Graph.ShortestPath(sv, ev)
			if !ok2 {
				continue
			}
			times, _, err := s.planAlgos(sv, ev, sd*1.2)
			if err != nil {
				return nil, err
			}
			for i := range agg {
				agg[i] += times[i]
			}
			runs++
		}
		if runs == 0 {
			continue
		}
		t.AddRow(sep, ms(agg[0]/time.Duration(runs)), ms(agg[1]/time.Duration(runs)),
			ms(agg[2]/time.Duration(runs)), ms(agg[3]/time.Duration(runs)))
	}
	t.Notes = append(t.Notes,
		"expected shape: Bruteforce worst and steepest; Pre much faster; Pre-Max/Pre-Min fastest",
		fmt.Sprintf("enumeration caps: BruteForce %d candidates, Pre %d", maxEnumCandidatesBF, maxEnumCandidatesPre))
	return t, nil
}

// Fig19 regenerates Figure 19: planning time vs τ/ψ(se).
func (s *Suite) Fig19() (*Table, error) {
	t := &Table{
		ID:     "fig19",
		Title:  "MaxRkNNT planning time (ms) vs tau/psi(se) (cf. Figure 19)",
		Header: []string{"tau/psi", "Bruteforce", "Pre", "Pre-Max", "Pre-Min"},
	}
	w := s.Planner()
	rng := s.rng()
	// Fixed psi(se) around the default, varying tau.
	type od struct {
		s, e graph.VertexID
		sd   float64
	}
	var pairs []od
	for len(pairs) < s.Cfg.Queries {
		sv, ev, ok := w.City.ODPair(rng, 5, 7)
		if !ok {
			break
		}
		_, sd, ok2 := w.City.Graph.ShortestPath(sv, ev)
		if !ok2 {
			continue
		}
		pairs = append(pairs, od{sv, ev, sd})
	}
	for _, ratio := range SweepTauRatio {
		var agg [4]time.Duration
		for _, p := range pairs {
			times, _, err := s.planAlgos(p.s, p.e, p.sd*ratio)
			if err != nil {
				return nil, err
			}
			for i := range agg {
				agg[i] += times[i]
			}
		}
		if len(pairs) == 0 {
			continue
		}
		n := time.Duration(len(pairs))
		t.AddRow(ratio, ms(agg[0]/n), ms(agg[1]/n), ms(agg[2]/n), ms(agg[3]/n))
	}
	t.Notes = append(t.Notes, "expected shape: all methods grow with tau (more candidates); ordering as Figure 18")
	return t, nil
}

// Fig20 regenerates Figure 20: the distribution of MaxRkNNT planning time
// when every existing route provides the query (its start stop, end stop
// and travel distance as τ).
func (s *Suite) Fig20() (*Table, error) {
	t := &Table{
		ID:     "fig20",
		Title:  "MaxRkNNT (Pre-Max) run-time distribution over all real route queries (cf. Figure 20)",
		Header: []string{"time bucket (ms)", "#Routes"},
	}
	w := s.Planner()
	pre, err := s.prePlanner()
	if err != nil {
		return nil, err
	}
	var times []float64
	for _, r := range w.City.Dataset.Routes {
		sv, ev := graph.VertexID(r.Stops[0]), graph.VertexID(r.Stops[len(r.Stops)-1])
		if sv == ev {
			continue
		}
		tau := r.TravelDist()
		start := time.Now()
		_, _, err := pre.Plan(sv, ev, tau, planner.Options{Objective: planner.Maximize, UseLemma4: true, MaxExpansions: maxPlanExpansions})
		if err != nil {
			return nil, err
		}
		times = append(times, float64(time.Since(start))/1e6)
	}
	buckets := []float64{1, 5, 10, 50, 100, 500, 1000, 1e18}
	counts := make([]int, len(buckets))
	for _, msv := range times {
		for bi, hi := range buckets {
			if msv <= hi {
				counts[bi]++
				break
			}
		}
	}
	lo := 0.0
	for bi, hi := range buckets {
		label := fmt.Sprintf("(%.0f, %.0f]", lo, hi)
		if hi > 1e17 {
			label = fmt.Sprintf("> %.0f", lo)
		}
		t.AddRow(label, counts[bi])
		lo = hi
	}
	t.Notes = append(t.Notes, "expected shape: most queries answered quickly (paper: under a second in LA)")
	return t, nil
}

// Fig21 regenerates Figure 21: for one representative origin/destination,
// compare the original bus route, the shortest route, the MaxRkNNT route
// and the MinRkNNT route on search time (ST), number of passengers (NP),
// travel distance (TD) and stop count.
func (s *Suite) Fig21() (*Table, error) {
	t := &Table{
		ID:     "fig21",
		Title:  "Original vs Shortest vs MaxRkNNT vs MinRkNNT (cf. Figure 21)",
		Header: []string{"Route", "ST (ms)", "NP", "TD (km)", "#Stops"},
	}
	w := s.Planner()
	pre, err := s.prePlanner()
	if err != nil {
		return nil, err
	}
	// Representative query: the longest generated bus route.
	var best int
	for i, r := range w.City.Dataset.Routes {
		if r.TravelDist() > w.City.Dataset.Routes[best].TravelDist() {
			best = i
		}
	}
	orig := w.City.Dataset.Routes[best]
	sv := graph.VertexID(orig.Stops[0])
	ev := graph.VertexID(orig.Stops[len(orig.Stops)-1])
	tau := orig.TravelDist() * 1.05

	// 1: the original bus route (no search).
	origCount, err := routePassengers(s, orig.Stops)
	if err != nil {
		return nil, err
	}
	t.AddRow("Original", "n/a", origCount, orig.TravelDist(), len(orig.Stops))

	// 2: the shortest route.
	start := time.Now()
	sp, sd, ok := w.City.Graph.ShortestPath(sv, ev)
	stShort := time.Since(start)
	if !ok {
		return nil, fmt.Errorf("exp: original route endpoints disconnected")
	}
	shortCount, err := routePassengers(s, sp)
	if err != nil {
		return nil, err
	}
	t.AddRow("Shortest", ms(stShort), shortCount, sd, len(sp))

	// 3 and 4: MaxRkNNT and MinRkNNT.
	for _, obj := range []planner.Objective{planner.Maximize, planner.Minimize} {
		start = time.Now()
		res, ok, err := pre.Plan(sv, ev, tau, planner.Options{Objective: obj, UseLemma4: true, MaxExpansions: maxPlanExpansions})
		st := time.Since(start)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("exp: no feasible %v route", obj)
		}
		t.AddRow(obj.String(), ms(st), res.Count, res.Dist, len(res.Path))
	}
	t.Notes = append(t.Notes,
		"expected shape: MaxRkNNT >= Original >= MinRkNNT passengers; Shortest has the smallest TD")
	return t, nil
}

// routePassengers computes |ω(R)| for a stop sequence via the precomputed
// per-vertex sets.
func routePassengers[T ~int32](s *Suite, stops []T) (int, error) {
	pre, err := s.prePlanner()
	if err != nil {
		return 0, err
	}
	seen := map[int32]uint8{}
	for _, v := range stops {
		for id, m := range pre.VertexMasks(graph.VertexID(v)) {
			seen[id] |= m
		}
	}
	return len(seen), nil
}
