package exp

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/serve"
)

// defaultShardSweep is the TR-shard sweep run when the configuration
// does not override it (rknnt-bench -shards).
var defaultShardSweep = []int{1, 2, 4, 8}

// defaultProcSweep is the GOMAXPROCS sweep for the shardscale
// experiment. The acceptance comparison point is 4 vs 1.
var defaultProcSweep = []int{1, 2, 4}

// shardScaleWorkers is the number of concurrent clients driving the
// read-heavy mixed workload — enough to keep every processor of the
// sweep's largest row busy.
const shardScaleWorkers = 8

// ShardScale measures how aggregate query throughput scales with
// processor count across TR-tree shard counts: the many-core story the
// per-shard locks, per-shard write pipelines and blocked kernels exist
// to enable. Each row drives the same read-heavy mixed workload (90%
// RkNNT reads from a pool much larger than the result cache, so most
// reads execute the full query pipeline; 10% transition writes keep the
// epochs moving) under a different GOMAXPROCS × shards point, and
// speedup is reported against the single-processor row of the same
// shard count.
func (s *Suite) ShardScale() (*Table, error) {
	t := &Table{
		ID:    "shardscale",
		Title: "Many-core scaling: read-heavy mixed workload across GOMAXPROCS x shards",
		Header: []string{"gomaxprocs", "shards", "read_ops_s", "write_ops_s",
			"read_us", "hit_ratio", "speedup"},
		Notes: []string{
			"90/10 mix: each of 8 workers issues RkNNT reads from a 256-query pool against a 32-entry cache (most reads recompute) with a 10% chance of a transition write instead",
			"speedup = read_ops_s relative to the gomaxprocs=1 row at the same shard count",
			"the acceptance bar compares gomaxprocs=4 vs 1: >=2x aggregate read throughput on a >=4-core host",
			"rows with gomaxprocs above the host's core count cannot speed up; the committed artifact records the host for exactly this reason",
		},
	}
	shardSweep := s.Cfg.ShardSweep
	if len(shardSweep) == 0 {
		shardSweep = defaultShardSweep
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, shards := range shardSweep {
		var base float64
		for _, procs := range defaultProcSweep {
			runtime.GOMAXPROCS(procs)
			r, err := s.shardScaleRow(shards)
			if err != nil {
				return nil, err
			}
			if procs == defaultProcSweep[0] {
				base = r.readOpsPerSec
			}
			t.AddRow(procs, shards, int(r.readOpsPerSec), int(r.writeOpsPerSec),
				r.readMicros, r.hitRatio, r.readOpsPerSec/base)
		}
	}
	return t, nil
}

type shardScaleResult struct {
	readOpsPerSec  float64
	writeOpsPerSec float64
	readMicros     float64
	hitRatio       float64
}

// shardScaleRow builds a fresh index over the LA-like city with the
// given TR-tree shard count and drives the read-heavy workload under
// the current GOMAXPROCS.
func (s *Suite) shardScaleRow(shards int) (shardScaleResult, error) {
	city := s.LA().City
	x, err := index.BuildOpts(city.Dataset, index.Options{TRShards: shards})
	if err != nil {
		return shardScaleResult{}, err
	}
	// A small cache against a large query pool: most reads miss and
	// execute the full filter/refine pipeline, which is the work that has
	// to spread across cores for the sweep to show anything.
	e := serve.New(x, serve.Options{CacheSize: 32})
	defer e.Close()

	rng := s.rng()
	pool := make([][]geo.Point, 256)
	for i := range pool {
		pool[i] = city.Query(rng, 4, 3)
	}
	qopts := core.Options{K: 8, Method: core.DivideConquer}

	perWorker := 40 * s.Cfg.Queries
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		readTime time.Duration
		reads    int
		writes   int
		firstErr error
	)
	before := e.EngineStats()
	start := time.Now()
	for w := 0; w < shardScaleWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			nextID := model.TransitionID(90_000_000 + w*1_000_000)
			var spent time.Duration
			myReads, myWrites := 0, 0
			for i := 0; i < perWorker; i++ {
				if rng.Intn(10) == 0 {
					nextID++
					tr := model.Transition{
						ID: nextID,
						O:  geo.Pt(rng.Float64()*50, rng.Float64()*40),
						D:  geo.Pt(rng.Float64()*50, rng.Float64()*40),
					}
					if err := e.AddTransition(tr); err != nil {
						setErr(&mu, &firstErr, err)
						return
					}
					myWrites++
					continue
				}
				q := pool[rng.Intn(len(pool))]
				t0 := time.Now()
				if _, err := e.RkNNT(q, qopts); err != nil {
					setErr(&mu, &firstErr, err)
					return
				}
				spent += time.Since(t0)
				myReads++
			}
			mu.Lock()
			readTime += spent
			reads += myReads
			writes += myWrites
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return shardScaleResult{}, firstErr
	}
	after := e.EngineStats()
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	return shardScaleResult{
		readOpsPerSec:  float64(reads) / elapsed.Seconds(),
		writeOpsPerSec: float64(writes) / elapsed.Seconds(),
		readMicros:     float64(readTime.Microseconds()) / float64(max(reads, 1)),
		hitRatio:       float64(hits) / float64(max(hits+misses, 1)),
	}, nil
}

func setErr(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	if *dst == nil {
		*dst = err
	}
	mu.Unlock()
}
