package serve

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/model"
)

// BenchmarkEngineMixed90_10 drives the engine with the serving layer's
// target workload: 90% RkNNT queries drawn from a small hot set (so the
// result cache and in-flight dedup see realistic reuse) and 10%
// transition writes (adds with occasional removals) that invalidate it.
func BenchmarkEngineMixed90_10(b *testing.B) {
	city, x := testCity(b)
	e := New(x, Options{CacheSize: 256})
	defer e.Close()

	rng := rand.New(rand.NewSource(11))
	queries := make([][]geo.Point, 16)
	for i := range queries {
		queries[i] = city.Query(rng, 4, 3)
	}
	var nextID atomic.Int64
	nextID.Store(10_000_000)

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(nextID.Add(1)))
		for pb.Next() {
			if rng.Intn(10) == 0 {
				id := model.TransitionID(nextID.Add(1))
				tr := model.Transition{
					ID: id,
					O:  geo.Pt(rng.Float64()*50, rng.Float64()*40),
					D:  geo.Pt(rng.Float64()*50, rng.Float64()*40),
				}
				if err := e.AddTransition(tr); err != nil {
					b.Error(err)
					return
				}
				if rng.Intn(2) == 0 {
					if _, err := e.RemoveTransition(id); err != nil {
						b.Error(err)
						return
					}
				}
			} else {
				q := queries[rng.Intn(len(queries))]
				if _, err := e.RkNNT(q, core.Options{K: 8, Method: core.DivideConquer}); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.StopTimer()
	st := e.EngineStats()
	b.ReportMetric(float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)), "cache-hit-ratio")
	b.ReportMetric(float64(st.BatchedOps)/float64(max(st.Batches, 1)), "ops/batch")
}

// BenchmarkEngineMixed50_50 is the write-heavy preset: half cached
// RkNNT reads, half transition writes (70% adds / 30% removes of live
// IDs). This is the workload the per-shard write pipelines and lazy
// journal repair target.
func BenchmarkEngineMixed50_50(b *testing.B) {
	city, x := testCity(b)
	e := New(x, Options{CacheSize: 256})
	defer e.Close()

	rng := rand.New(rand.NewSource(11))
	queries := make([][]geo.Point, 16)
	for i := range queries {
		queries[i] = city.Query(rng, 4, 3)
	}
	for _, q := range queries { // prime the cache
		if _, err := e.RkNNT(q, core.Options{K: 8, Method: core.DivideConquer}); err != nil {
			b.Fatal(err)
		}
	}
	var nextID atomic.Int64
	nextID.Store(20_000_000)

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(nextID.Add(1)))
		var live []model.TransitionID
		write := false
		for pb.Next() {
			write = !write
			if write {
				if len(live) > 0 && rng.Intn(10) < 3 {
					j := rng.Intn(len(live))
					id := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					if _, err := e.RemoveTransition(id); err != nil {
						b.Error(err)
						return
					}
				} else {
					id := model.TransitionID(nextID.Add(1))
					tr := model.Transition{
						ID: id,
						O:  geo.Pt(rng.Float64()*50, rng.Float64()*40),
						D:  geo.Pt(rng.Float64()*50, rng.Float64()*40),
					}
					if err := e.AddTransition(tr); err != nil {
						b.Error(err)
						return
					}
					live = append(live, id)
				}
			} else {
				q := queries[rng.Intn(len(queries))]
				if _, err := e.RkNNT(q, core.Options{K: 8, Method: core.DivideConquer}); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.StopTimer()
	st := e.EngineStats()
	b.ReportMetric(float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)), "cache-hit-ratio")
	b.ReportMetric(float64(st.CacheRepairs), "repairs")
}

// BenchmarkEngineReadOnly measures the pure query path (all cache
// misses forced off by rotating epochless keys is not possible, so this
// reports the cached steady state — the serving fast path).
func BenchmarkEngineReadOnly(b *testing.B) {
	city, x := testCity(b)
	e := New(x, Options{CacheSize: 256})
	defer e.Close()
	rng := rand.New(rand.NewSource(12))
	queries := make([][]geo.Point, 16)
	for i := range queries {
		queries[i] = city.Query(rng, 4, 3)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(13))
		for pb.Next() {
			q := queries[rng.Intn(len(queries))]
			if _, err := e.RkNNT(q, core.Options{K: 8, Method: core.DivideConquer}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
