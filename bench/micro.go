package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/rtree"
	"repro/internal/serve"
)

// layerDef is one per-layer metric of BENCHMARK.json. The reported value
// is the median of its samples, or their mean for exact counts and
// ratios. README.md says which end-to-end metric each should move.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	mean   bool
}

var perLayer = []layerDef{
	{"net.rtt_self_us", "us", "lower", false},
	{"server.handle_hit_us", "us", "lower", false},
	{"server.self_hit_us", "us", "lower", false},
	{"server.resp_bytes_p50", "bytes", "lower", false},
	{"server.self_exec_us", "us", "lower", false},
	{"server.write_self_us", "us", "lower", false},
	{"serve.rknnt_hit_us", "us", "lower", false},
	{"serve.rknnt_repaired_us", "us", "lower", false},
	{"serve.hit_ratio", "ratio", "higher", true},
	{"serve.repaired_ratio", "ratio", "higher", true},
	{"serve.exec_ratio", "ratio", "lower", true},
	{"serve.rknnt_exec_self_us", "us", "lower", false},
	{"serve.batch_self_us_per_query", "us", "lower", false},
	{"serve.add_us_per_op", "us", "lower", false},
	{"serve.remove_bulk_us_per_op", "us", "lower", false},
	{"serve.remove_dyn_us_per_op", "us", "lower", false},
	{"serve.expire_us_per_op", "us", "lower", false},
	{"serve.checkpoint_full_ms", "ms", "lower", false},
	{"serve.checkpoint_delta_ms", "ms", "lower", false},
	{"serve.boot_heap_ms", "ms", "lower", false},
	{"serve.boot_mmap_ms", "ms", "lower", false},
	{"core.rknnt_us", "us", "lower", false},
	{"core.filter_us", "us", "lower", false},
	{"core.verify_us", "us", "lower", false},
	{"core.batch_us_per_query", "us", "lower", false},
	{"core.candidates_per_query", "count", "lower", true},
	{"core.results_per_query", "count", "higher", true},
	{"core.result_per_candidate", "ratio", "higher", true},
	{"core.filter_points_per_query", "count", "lower", true},
	{"core.refine_nodes_per_query", "count", "lower", true},
	{"core.endpoint_masks_us", "us", "lower", false},
	{"index.build_ms", "ms", "lower", false},
	{"index.add_us_per_op", "us", "lower", false},
	{"index.remove_us_per_op", "us", "lower", false},
	{"index.expire_us_per_op", "us", "lower", false},
	{"index.shard_imbalance", "ratio", "lower", true},
	{"rtree.nearestk_ns", "ns", "lower", false},
	{"rtree.insert_ns", "ns", "lower", false},
	{"rtree.delete_ns", "ns", "lower", false},
	{"rtree.bulkload_ms", "ms", "lower", false},
	{"geo.mindist2_block_ns_per_rect", "ns", "lower", false},
	{"geo.dist2_block_ns_per_point", "ns", "lower", false},
	{"geo.point_route_dist2_ns", "ns", "lower", false},
	{"dataio.load_heap_ms", "ms", "lower", false},
	{"dataio.load_mmap_ms", "ms", "lower", false},
	{"dataio.write_mb_s", "MB/s", "higher", false},
	{"dataio.arena_bytes_per_transition", "bytes", "lower", true},
	{"dataio.chain_bytes_per_transition", "bytes", "lower", true},
	{"planner.precompute_ms", "ms", "lower", false},
	{"planner.plan_us", "us", "lower", false},
	{"monitor.apply_adds_us_per_op_s64", "us", "lower", false},
	{"gen.generate_ms", "ms", "lower", false},
	{"loadgen.late_ratio", "ratio", "lower", true},
	{"loadgen.build_s", "s", "lower", false},
	{"loadgen.trace_overhead_pct", "%", "lower", false},
}

// reps is how often a one-shot direct measurement is repeated; the
// median is reported.
const reps = 5

// engineLoops times, on the engine twin mixed_stream has just run
// through, the engine paths that stream does not take by itself: removal
// of dynamically added transitions (no forwarding across shards) and a
// full checkpoint beside the stream's incremental ones. It also measures
// the open-loop generator's lateness against twin A.
func (t *tracer) engineLoops(tw *twins, seed int64) error {
	path := filepath.Join(tw.dir, "loops.arena")
	rng := subRand(seed, 20)
	id := int32(3_000_000)
	for r := 0; r < reps; r++ {
		var ts []model.Transition
		var ids []int32
		for j := 0; j < tickAdds; j++ {
			ts = append(ts, arrival(tw.city.Dataset, rng, id, 0))
			ids = append(ids, id)
			id++
		}
		tw.engB.AddTransitions(ts)
		t0 := time.Now()
		if _, err := tw.engB.RemoveTransitions(ids); err != nil {
			return err
		}
		t.rec("serve.remove_dyn_us_per_op", us(time.Since(t0))/float64(len(ids)))

		t0 = time.Now()
		res, err := tw.engB.Checkpoint(path, false)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		t.rec("serve.checkpoint_full_ms", ms(d))
		t.rec("dataio.write_mb_s", float64(res.Bytes)/1e6/d.Seconds())
		t.rec("dataio.arena_bytes_per_transition", float64(res.Bytes)/float64(tw.engB.NumTransitions()))

		tw.engB.AddTransitions(ts[:1])
		t0 = time.Now()
		if _, err = tw.engB.Checkpoint(path, true); err != nil {
			return err
		}
		t.rec("serve.checkpoint_delta_ms", ms(time.Since(t0)))
		if _, err := tw.engB.RemoveTransitions(ids[:1]); err != nil {
			return err
		}
	}
	// What a chain of one base and one single-arrival delta costs in space
	// per live transition.
	chain, err := filepath.Glob(path + "*")
	if err != nil {
		return err
	}
	var total int64
	for _, p := range chain {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		total += st.Size()
	}
	t.rec("dataio.chain_bytes_per_transition", float64(total)/float64(tw.engB.NumTransitions()))

	// Boot and load, from the full checkpoint just written.
	for r := 0; r < reps; r++ {
		for _, mode := range []struct {
			mmap        bool
			load, bootM string
		}{{false, "dataio.load_heap_ms", "serve.boot_heap_ms"}, {true, "dataio.load_mmap_ms", "serve.boot_mmap_ms"}} {
			t0 := time.Now()
			ch, err := dataio.OpenChain(path, mode.mmap)
			if err != nil {
				return err
			}
			t.rec(mode.load, ms(time.Since(t0)))
			_ = ch.Close() // read-only mapping
			t0 = time.Now()
			sf, err := serve.OpenSnapshotFile(path, serve.SnapshotLoadOptions{Mmap: mode.mmap})
			if err != nil {
				return err
			}
			e := serve.New(sf.Index, serve.Options{CacheSize: 4096, MaxBatch: 256, InitialEpochs: sf.Epochs})
			t.rec(mode.bootM, ms(time.Since(t0)))
			e.Close()
			_ = sf.Close() // read-only mapping
		}
	}

	// Generator lateness: two seconds of mixed_stream against twin A, the
	// reader closed-loop beside the open-loop writer, as in the real run.
	// The twin has been through this tick stream already, so its adds and
	// deletes are refused; only the send times matter here.
	w, _ := workloadByName("mixed_stream")
	streams := newStreams(w, tw.city, seed+1)
	start := time.Now()
	out := make([]connResult, 2)
	conns := []*client{tw.client, newClient()}
	defer conns[1].close()
	perConn(2, func(i int) {
		l := loop{addr: tw.addrA, snapshotPath: filepath.Join(tw.dir, "late.arena"), start: start, measureFrom: start, end: start.Add(2 * time.Second)}
		if i == 1 {
			l.period = time.Second / (2 * mixedTickRate)
		}
		l.run(conns[i], endless(streams[i]), &out[i])
	})
	t.rec("loadgen.late_ratio", float64(out[1].late)/float64(out[1].slots))
	return nil
}

// timeIt returns the median duration of reps calls.
func timeIt(fn func()) time.Duration {
	var xs []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs))
}

var sink float64 // keeps timed results alive

// directLoops times the layers no span reaches, over the same data.
func (t *tracer) directLoops(dir string, seed int64) error {
	nycW, _ := workloadByName("read_cold")
	planW, _ := workloadByName("plan_fresh")
	var nyc *gen.City
	var err error
	t.rec("gen.generate_ms", ms(timeIt(func() { nyc, err = gen.Generate(nycW.cityConfig()) })))
	if err != nil {
		return err
	}
	ds := nyc.Dataset
	var idx *index.Index
	t.rec("index.build_ms", ms(timeIt(func() { idx, err = index.Build(ds) })))
	if err != nil {
		return err
	}
	sizes := idx.TransitionShardSizes()
	var max, sum float64
	for _, n := range sizes {
		sum += float64(n)
		if float64(n) > max {
			max = float64(n)
		}
	}
	t.rec("index.shard_imbalance", max/(sum/float64(len(sizes))))

	// rtree: the transition endpoints, as the TR-tree stores them.
	entries := func() []rtree.Entry {
		es := make([]rtree.Entry, 0, 2*len(ds.Transitions))
		for _, tr := range ds.Transitions {
			es = append(es, rtree.Entry{Pt: tr.O, ID: tr.ID, Aux: 0}, rtree.Entry{Pt: tr.D, ID: tr.ID, Aux: 1})
		}
		return es
	}
	var tree *rtree.Tree
	t.rec("rtree.bulkload_ms", ms(timeIt(func() { tree = rtree.BulkLoad(entries()) })))
	rng := subRand(seed, 30)
	const n = 2000
	probes := make([]geo.Point, n)
	extra := make([]rtree.Entry, n)
	for i := range probes {
		probes[i] = ds.Transitions[rng.Intn(len(ds.Transitions))].O
		a := arrival(ds, rng, int32(extraIDBase+i), 0)
		extra[i] = rtree.Entry{Pt: a.O, ID: a.ID}
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	t.rec("rtree.nearestk_ns", per(timeIt(func() {
		for _, p := range probes {
			sink += tree.NearestK(p, queryK)[0].Dist
		}
	})))
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, e := range extra {
			tree.Insert(e)
		}
		t.rec("rtree.insert_ns", per(time.Since(t0)))
		t0 = time.Now()
		for _, e := range extra {
			tree.Delete(e)
		}
		t.rec("rtree.delete_ns", per(time.Since(t0)))
	}

	// geo: the block kernels over planar copies of the same endpoints.
	const block = 4096
	xs, ys, dst := make([]float64, block), make([]float64, block), make([]float64, block)
	xhi, yhi := make([]float64, block), make([]float64, block)
	for i := range xs {
		tr := ds.Transitions[i]
		xs[i], ys[i] = tr.O.X, tr.O.Y
		xhi[i], yhi[i] = tr.O.X+0.5, tr.O.Y+0.5
	}
	t.rec("geo.mindist2_block_ns_per_rect", float64(timeIt(func() {
		for _, p := range probes[:100] {
			geo.MinDist2Block(xs, ys, xhi, yhi, p, dst)
			sink += dst[0]
		}
	}).Nanoseconds())/(100*block))
	t.rec("geo.dist2_block_ns_per_point", float64(timeIt(func() {
		for _, p := range probes[:100] {
			geo.Dist2Block(xs, ys, p, dst)
			sink += dst[0]
		}
	}).Nanoseconds())/(100*block))
	t.rec("geo.point_route_dist2_ns", per(timeIt(func() {
		for i, p := range probes {
			sink += geo.PointRouteDist2(p, ds.Routes[i%len(ds.Routes)].Pts)
		}
	})))

	// core.EndpointMasks as the planner's Precompute calls it: one
	// single-point query per network vertex of the compact city.
	plan, err := gen.Generate(planW.cityConfig())
	if err != nil {
		return err
	}
	pidx, err := index.Build(plan.Dataset)
	if err != nil {
		return err
	}
	for v := 0; v < plan.Graph.NumVertices(); v++ {
		t0 := time.Now()
		m, err := core.EndpointMasks(pidx, []geo.Point{plan.Graph.Point(int32(v))}, queryK, core.DivideConquer)
		if err != nil {
			return err
		}
		t.rec("core.endpoint_masks_us", us(time.Since(t0)))
		sink += float64(len(m))
	}

	// monitor: standing-query maintenance per committed arrival, with 64
	// standing queries registered.
	mon := monitor.New(idx)
	for _, q := range coldQueries(nyc, subRand(seed, 31), 64) {
		if _, _, err := mon.Register(q, queryK, core.Exists); err != nil {
			return err
		}
	}
	id := int32(4_000_000)
	for r := 0; r < reps; r++ {
		var ts []model.Transition
		for j := 0; j < tickAdds; j++ {
			ts = append(ts, arrival(ds, rng, id, 0))
			id++
		}
		errs := idx.AddTransitionsBatch(ts)
		t0 := time.Now()
		mon.ApplyAdds(ts, errs)
		t.rec("monitor.apply_adds_us_per_op_s64", us(time.Since(t0))/float64(len(ts)))
	}

	// Useful candidates: results over candidates, across the cold prefix.
	if c := mean(t.samples["core.candidates_per_query"]); c > 0 {
		t.rec("core.result_per_candidate", mean(t.samples["core.results_per_query"])/c)
	}
	return nil
}
