package rknnt

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7), plus micro-benchmarks of the substrates and ablations of
// the framework's design choices. Figure benches delegate to the
// internal/exp harness at a reduced scale so a full `go test -bench=.`
// pass stays in the minutes; `go run ./cmd/rknnt-bench -scale 1` runs the
// same experiments at the paper's cardinalities.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/planner"
	"repro/internal/rtree"
)

// benchSuite is shared across figure benchmarks so datasets build once.
var (
	benchSuiteOnce sync.Once
	benchSuiteVal  *exp.Suite
)

func benchSuite() *exp.Suite {
	benchSuiteOnce.Do(func() {
		benchSuiteVal = exp.NewSuite(exp.Config{Scale: 16, Queries: 2, SynTransitions: 20000, Seed: 42})
	})
	return benchSuiteVal
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact (see DESIGN.md, experiment index).

func BenchmarkTable2Datasets(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3Transitions(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkFig6DetourRatio(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig8Heatmaps(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9EffectOfK(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10BreakdownK(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11EffectOfQLen(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12BreakdownQLen(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13Synthetic(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14EffectOfI(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15BreakdownI(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16RealQueries(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFig17RouteStats(b *testing.B)    { benchExperiment(b, "fig17") }
func BenchmarkTable5Precompute(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkFig18EffectOfPsiSE(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig19EffectOfTau(b *testing.B)   { benchExperiment(b, "fig19") }
func BenchmarkFig20RealPlans(b *testing.B)     { benchExperiment(b, "fig20") }
func BenchmarkFig21FourRoutes(b *testing.B)    { benchExperiment(b, "fig21") }

// benchDB builds a moderate city + DB once for the micro-benchmarks.
var (
	benchDBOnce sync.Once
	benchDBVal  *DB
	benchCity   *City
)

func benchDB(b *testing.B) (*DB, *City) {
	b.Helper()
	benchDBOnce.Do(func() {
		city, err := GenerateCity(LAConfig(16))
		if err != nil {
			panic(err)
		}
		db, err := Open(city.Dataset)
		if err != nil {
			panic(err)
		}
		benchCity, benchDBVal = city, db
	})
	return benchDBVal, benchCity
}

// pipelineOnly fails a benchmark whose query was answered from a radius
// plane: everything below measures the paper's pipeline, and the public DB
// never builds a plane (only serve.Engine does, see serve/plane.go).
func pipelineOnly(b *testing.B, res *Result) {
	if res.Stats.Plane {
		b.Fatal("query answered from a radius plane; this benchmark measures the filter-refine pipeline")
	}
}

// BenchmarkRkNNT* measure one query at the paper's default operating point
// (k=10, |Q|=5, I=3km) per method.

func benchRkNNT(b *testing.B, m Method) {
	db, city := benchDB(b)
	rng := rand.New(rand.NewSource(77))
	queries := make([][]Point, 16)
	for i := range queries {
		queries[i] = GenerateQuery(city, rng, 5, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.RkNNT(queries[i%len(queries)], QueryOptions{K: 10, Method: m})
		if err != nil {
			b.Fatal(err)
		}
		pipelineOnly(b, res)
	}
}

func BenchmarkRkNNTFilterRefine(b *testing.B)  { benchRkNNT(b, FilterRefine) }
func BenchmarkRkNNTVoronoi(b *testing.B)       { benchRkNNT(b, Voronoi) }
func BenchmarkRkNNTDivideConquer(b *testing.B) { benchRkNNT(b, DivideConquer) }
func BenchmarkRkNNTBruteForce(b *testing.B)    { benchRkNNT(b, BruteForce) }

// BenchmarkRkNNTKernel / BenchmarkRkNNTScalar pit the blocked planar
// distance kernels against the pre-kernel per-rectangle traversal (the
// NoKernel ablation) on the same query stream. Results are bit-identical
// by construction; only time and allocations may differ.

func benchRkNNTKernel(b *testing.B, m Method, noKernel bool) {
	db, city := benchDB(b)
	rng := rand.New(rand.NewSource(77))
	queries := make([][]Point, 16)
	for i := range queries {
		queries[i] = GenerateQuery(city, rng, 5, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := QueryOptions{K: 10, Method: m, NoKernel: noKernel}
		res, err := db.RkNNT(queries[i%len(queries)], opts)
		if err != nil {
			b.Fatal(err)
		}
		pipelineOnly(b, res)
	}
}

func BenchmarkRkNNTKernel(b *testing.B)       { benchRkNNTKernel(b, DivideConquer, false) }
func BenchmarkRkNNTScalar(b *testing.B)       { benchRkNNTKernel(b, DivideConquer, true) }
func BenchmarkRkNNTKernelFilter(b *testing.B) { benchRkNNTKernel(b, FilterRefine, false) }
func BenchmarkRkNNTScalarFilter(b *testing.B) { benchRkNNTKernel(b, FilterRefine, true) }

// Ablations: each disables one design choice from Sections 4-5 and should
// be slower than the corresponding full configuration above.

func BenchmarkAblationNoCrossover(b *testing.B) {
	db, city := benchDB(b)
	rng := rand.New(rand.NewSource(77))
	queries := make([][]Point, 16)
	for i := range queries {
		queries[i] = GenerateQuery(city, rng, 5, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := QueryOptions{K: 10, Method: DivideConquer, NoCrossover: true}
		res, err := db.RkNNT(queries[i%len(queries)], opts)
		if err != nil {
			b.Fatal(err)
		}
		pipelineOnly(b, res)
	}
}

func BenchmarkAblationNoNList(b *testing.B) {
	db, city := benchDB(b)
	rng := rand.New(rand.NewSource(77))
	queries := make([][]Point, 16)
	for i := range queries {
		queries[i] = GenerateQuery(city, rng, 5, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := QueryOptions{K: 10, Method: DivideConquer, NoNList: true}
		res, err := db.RkNNT(queries[i%len(queries)], opts)
		if err != nil {
			b.Fatal(err)
		}
		pipelineOnly(b, res)
	}
}

// Planner ablation: the exact subset dominance rule vs the paper's
// Lemma 4 cardinality heuristic.

var (
	benchPlanOnce sync.Once
	benchPlanVal  *planner.Precomputed
	benchPlanCity *City
)

func benchPlanner(b *testing.B) (*planner.Precomputed, *City) {
	b.Helper()
	benchPlanOnce.Do(func() {
		city, err := GenerateCity(CityConfig{
			Seed:  4004,
			Width: 20, Height: 20,
			GridStep:       2.0,
			Jitter:         0.25,
			NumRoutes:      60,
			RouteMinStops:  4,
			RouteMaxStops:  10,
			NumTransitions: 2500,
			HotspotCount:   15,
			HotspotSigma:   1.5,
			BackgroundFrac: 0.15,
		})
		if err != nil {
			panic(err)
		}
		db, err := Open(city.Dataset)
		if err != nil {
			panic(err)
		}
		pre, err := planner.Precompute(db.idx, city.Graph, 10, core.DivideConquer)
		if err != nil {
			panic(err)
		}
		benchPlanCity = city
		benchPlanVal = pre
	})
	return benchPlanVal, benchPlanCity
}

func benchPlan(b *testing.B, opts planner.Options) {
	pre, city := benchPlanner(b)
	rng := rand.New(rand.NewSource(5))
	type od struct {
		s, e VertexID
		tau  float64
	}
	var pairs []od
	for len(pairs) < 8 {
		s, e, ok := city.ODPair(rng, 6, 10)
		if !ok {
			break
		}
		_, sd, ok2 := city.Graph.ShortestPath(s, e)
		if !ok2 {
			continue
		}
		pairs = append(pairs, od{s, e, sd * 1.3})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, _, err := pre.Plan(p.s, p.e, p.tau, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanExactDominance(b *testing.B) {
	benchPlan(b, planner.Options{Objective: planner.Maximize})
}

func BenchmarkPlanLemma4Dominance(b *testing.B) {
	benchPlan(b, planner.Options{Objective: planner.Maximize, UseLemma4: true})
}

func BenchmarkPlanMinimize(b *testing.B) {
	benchPlan(b, planner.Options{Objective: planner.Minimize, UseLemma4: true})
}

// Substrate micro-benchmarks.

func BenchmarkRTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := rtree.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(rtree.Entry{Pt: Pt(rng.Float64()*100, rng.Float64()*100), ID: int32(i)})
	}
}

func BenchmarkRTreeBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	entries := make([]rtree.Entry, 10000)
	for i := range entries {
		entries[i] = rtree.Entry{Pt: Pt(rng.Float64()*100, rng.Float64()*100), ID: int32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.BulkLoad(append([]rtree.Entry(nil), entries...))
	}
}

func BenchmarkRTreeNearestK(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	entries := make([]rtree.Entry, 10000)
	for i := range entries {
		entries[i] = rtree.Entry{Pt: Pt(rng.Float64()*100, rng.Float64()*100), ID: int32(i)}
	}
	tr := rtree.BulkLoad(entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestK(Pt(rng.Float64()*100, rng.Float64()*100), 10)
	}
}

func BenchmarkDynamicTransitionChurn(b *testing.B) {
	db, _ := benchDB(b)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := TransitionID(1_000_000 + i)
		if err := db.AddTransition(Transition{
			ID: id,
			O:  Pt(rng.Float64()*50, rng.Float64()*40),
			D:  Pt(rng.Float64()*50, rng.Float64()*40),
		}); err != nil {
			b.Fatal(err)
		}
		db.RemoveTransition(id)
	}
}

// BenchmarkMixedReadWrite drives the engine wrapper with a 90/10
// query/write mix over a hot query set — the serving workload the
// sharded index and delta-repaired cache are built for. Writes commit
// through coalesced batches that repair cached results in place via
// rank checks, so the hot queries stay cache hits across churn.
func BenchmarkMixedReadWrite(b *testing.B) {
	db, city := benchDB(b)
	e := db.NewEngine(EngineOptions{})
	defer e.Close()
	rng := rand.New(rand.NewSource(21))
	queries := make([][]Point, 16)
	for i := range queries {
		queries[i] = GenerateQuery(city, rng, 5, 3)
	}
	var added []TransitionID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 == 9 {
			// The DB (and its ID space) is shared across benchmarks and
			// b.N re-runs; take the next globally unused ID.
			id := TransitionID(mixedBenchNextID.Add(1))
			if err := e.AddTransition(Transition{
				ID: id,
				O:  Pt(rng.Float64()*50, rng.Float64()*40),
				D:  Pt(rng.Float64()*50, rng.Float64()*40),
			}); err != nil {
				b.Fatal(err)
			}
			added = append(added, id)
		} else {
			q := queries[rng.Intn(len(queries))]
			if _, err := e.RkNNT(q, QueryOptions{K: 10, Method: DivideConquer}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if _, err := e.RemoveTransitions(added); err != nil {
		b.Fatal(err)
	}
}

var mixedBenchNextID atomic.Int64

func init() { mixedBenchNextID.Store(50_000_000) }

func BenchmarkKNNRoutes(b *testing.B) {
	db, _ := benchDB(b)
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.KNNRoutes(Pt(rng.Float64()*50, rng.Float64()*40), 10)
	}
}

func BenchmarkAblationTable(b *testing.B) { benchExperiment(b, "ablation") }
