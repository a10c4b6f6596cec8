package core

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/rtree"
)

// Batched multi-query execution. BatchRkNNT answers many RkNNT queries
// in one pass over the index, amortizing the per-query fixed costs —
// snapshot acquisition, upper-tree node fetches, cache misses — that
// dominate once individual queries are fast. The three pipeline phases
// keep their single-query semantics but change shape:
//
//   - Filter (Algorithm 2) is inherently sequential per query (every
//     accepted point strengthens the set the next test uses), so it
//     stays per-query and instead fans out ACROSS the batch.
//   - Prune (Algorithm 4) traverses each TR-tree shard once with a
//     query-grouped frontier: a frame carries a node plus the list of
//     still-live queries, the node's rectangle is fetched from the
//     arena once and tested against every live query before moving on,
//     and only survivors descend into each subtree.
//   - Verify flattens the batch into (query, candidate) pairs and
//     traverses the RR-tree with the same grouped frontier, scoring
//     each gathered child block against all live pairs with one
//     geo.MinDist2MultiBlock call.
//
// Results are bit-identical to running RkNNT per query: the per-query
// prune and verify decisions are pure, traversal-order-independent
// predicates (the filter set is frozen before pruning starts, and a
// verification outcome is "does this endpoint have >= k distinct
// strictly-closer routes", a property of the index, not of the visit
// order), the multi-query kernels are bit-identical per row to the
// single-query kernels, and collect() sorts the final IDs. The
// differential tests in batch_test.go enforce this per method,
// semantics, time window and ablation flag.

// BatchRkNNT answers one RkNNT query per element of queries, all under
// the same options, returning per-query results (same order as the
// input) bit-identical to calling RkNNT on each query separately.
// Queries are processed in Z-order of their centroids so that nearby
// queries share frontier frames. BruteForce has no shared structure to
// exploit and degrades to a per-query loop.
func BatchRkNNT(x *index.Index, queries [][]geo.Point, opts Options) ([][]model.TransitionID, []*Stats, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	for _, q := range queries {
		if err := opts.validate(q); err != nil {
			return nil, nil, err
		}
	}
	ids := make([][]model.TransitionID, len(queries))
	stats := make([]*Stats, len(queries))
	if planes := planesFor(x, opts); planes != nil {
		// With a radius plane there is nothing left to share between
		// queries but the snapshot: fan the descents across workers.
		sp := opts.Trace.StartSpan("batch/descent")
		qopts := opts
		qopts.Trace = nil
		runBatch(len(queries), parallelEnabled(opts), func(i int) {
			stats[i] = &Stats{}
			ids[i] = rknntPlane(x, planes, queries[i], qopts, stats[i])
		})
		sp.End()
		return ids, stats, nil
	}
	switch opts.Method {
	case FilterRefine, Voronoi, DivideConquer:
	default:
		// BruteForce (and a future unknown method's error) — per query.
		for i, q := range queries {
			r, s, err := RkNNT(x, q, opts)
			if err != nil {
				return nil, nil, err
			}
			ids[i], stats[i] = r, s
		}
		return ids, stats, nil
	}
	for i := range stats {
		stats[i] = &Stats{}
	}
	perm := zorderPerm(queries)

	// Per-stage trace spans cover the whole batch; the per-query filter
	// calls run without a trace (their spans would interleave across
	// concurrent queries).
	qopts := opts
	qopts.Trace = nil

	// Phase 1: per-query filtering, parallel across the batch.
	sp := opts.Trace.StartSpan("batch/filter")
	states := make([]*batchState, len(queries))
	runBatch(len(queries), parallelEnabled(opts), func(pi int) {
		i := perm[pi]
		states[i] = batchFilter(x, queries[i], qopts, stats[i])
	})
	sp.End()

	// Flatten units in Z-order so shard frontiers keep nearby queries
	// adjacent in every live list.
	var units []*batchUnit
	for _, i := range perm {
		units = append(units, states[i].units...)
	}

	// Phase 2: grouped traversals, one per (TR-tree shard, unit chunk).
	// Chunking bounds how many filter sets a frontier cycles through per
	// node — enough sharing to amortize node fetches, few enough that the
	// sets stay cache-resident — and gives runBatch more than #shards
	// tasks to balance across workers. Units are independent, so any
	// chunking yields the same per-unit candidate sets.
	start := time.Now()
	sp = opts.Trace.StartSpan("batch/prune")
	shards := x.TransitionShards()
	for _, u := range units {
		u.cands = make([][]rtree.Entry, len(shards))
	}
	type pruneTask struct{ shard, lo, hi int }
	var tasks []pruneTask
	for s := range shards {
		if shards[s].Len() == 0 {
			continue
		}
		for lo := 0; lo < len(units); lo += batchPruneChunk {
			hi := lo + batchPruneChunk
			if hi > len(units) {
				hi = len(units)
			}
			tasks = append(tasks, pruneTask{s, lo, hi})
		}
	}
	runBatch(len(tasks), parallelEnabled(opts) && len(tasks) > 1, func(ti int) {
		t := tasks[ti]
		batchPruneShard(shards[t.shard], units[t.lo:t.hi], opts.K, t.shard)
	})
	sp.End()
	pruneDur := time.Since(start)

	// Merge per-shard candidates back into per-query sets, preserving
	// the sequential path's point-major, shard-minor order and (for
	// DivideConquer) its endpoint dedupe.
	pairs := make([]verifyPair, 0, 64)
	perQueryPairs := make([]int, len(queries))
	for _, i := range perm {
		st := states[i]
		from := len(pairs)
		if opts.Method == DivideConquer {
			seen := make(map[endpointKey]struct{})
			for _, u := range st.units {
				for s, c := range u.cands {
					markShard(&stats[i].ShardsTouched, s, len(c))
					for _, e := range c {
						key := endpointKey{e.ID, e.Aux}
						if _, dup := seen[key]; dup {
							continue
						}
						seen[key] = struct{}{}
						pairs = append(pairs, newVerifyPair(i, e, queries[i]))
					}
				}
			}
		} else {
			for _, u := range st.units {
				for s, c := range u.cands {
					markShard(&stats[i].ShardsTouched, s, len(c))
					for _, e := range c {
						pairs = append(pairs, newVerifyPair(i, e, queries[i]))
					}
				}
			}
		}
		if len(shards) > 64 {
			stats[i].ShardsTouched = ^uint64(0)
		}
		perQueryPairs[i] = len(pairs) - from
		stats[i].Candidates = perQueryPairs[i]
	}

	// Phase 3: grouped verification over the flattened pairs. A pair's
	// closer list never exceeds K entries (the pair is done at K), so all
	// lists are carved from one backing array up front instead of grown
	// through per-append allocations.
	closerBuf := make([]model.RouteID, len(pairs)*opts.K)
	for i := range pairs {
		pairs[i].closer = closerBuf[i*opts.K : i*opts.K : (i+1)*opts.K]
	}
	start = time.Now()
	sp = opts.Trace.StartSpan("batch/verify")
	batchVerify(x, pairs, opts)
	sp.End()
	verifyDur := time.Since(start)

	masks := make([]map[model.TransitionID]endpointMask, len(queries))
	for i := range masks {
		masks[i] = make(map[model.TransitionID]endpointMask)
	}
	for pi := range pairs {
		p := &pairs[pi]
		if !p.done && len(p.closer) < opts.K {
			masks[p.qi][p.id] |= 1 << uint(p.aux)
		}
	}
	for i := range queries {
		ids[i] = collect(x, masks[i], opts)
		stats[i].Results = len(ids[i])
		// Wall-clock attribution: each query keeps its own filter time;
		// the grouped prune splits evenly and the grouped verify splits
		// by the query's share of the pair load. The sums equal the
		// phase walls, so engine-level totals stay meaningful.
		stats[i].Filter += pruneDur / time.Duration(len(queries))
		if n := len(pairs); n > 0 {
			stats[i].Verify += verifyDur * time.Duration(perQueryPairs[i]) / time.Duration(n)
		}
	}
	return ids, stats, nil
}

// endpointKey identifies one transition endpoint for DivideConquer's
// cross-sub-query dedupe.
type endpointKey struct {
	id   model.TransitionID
	role int32
}

func markShard(mask *uint64, s, n int) {
	if n > 0 && s < 64 {
		*mask |= 1 << uint(s)
	}
}

// batchState is the per-query slice of a batch.
type batchState struct {
	units []*batchUnit
}

// batchUnit is one prune frontier participant: a (sub-)query with its
// frozen filter set. FilterRefine and Voronoi contribute one unit per
// query; DivideConquer one per query point (Lemma 3).
type batchUnit struct {
	sub        []geo.Point
	useVoronoi bool
	fs         *filterSet
	cands      [][]rtree.Entry // per TR-tree shard
}

// batchFilter runs the per-query filter phase, mirroring filterRefine /
// divideConquer's filter halves exactly.
func batchFilter(x *index.Index, query []geo.Point, opts Options, stats *Stats) *batchState {
	start := time.Now()
	st := &batchState{}
	switch opts.Method {
	case FilterRefine, Voronoi:
		uv := opts.Method == Voronoi
		fs, _ := filterRoute(x, query, opts.K, uv, opts, stats)
		st.units = append(st.units, &batchUnit{sub: query, useVoronoi: uv, fs: fs})
	case DivideConquer:
		for i := range query {
			sub := query[i : i+1]
			subStats := &Stats{}
			fs, _ := filterRoute(x, sub, opts.K, true, opts, subStats)
			stats.FilterPoints += subStats.FilterPoints
			stats.FilterRoutes += subStats.FilterRoutes
			stats.RefineNodes += subStats.RefineNodes
			st.units = append(st.units, &batchUnit{sub: sub, useVoronoi: true, fs: fs})
		}
	}
	stats.Filter += time.Since(start)
	return st
}

// batchPruneChunk bounds how many units one grouped traversal carries.
// See the phase 2 comment in BatchRkNNT.
const batchPruneChunk = 32

// pruneFrame is one grouped-frontier item: a node plus the units still
// live at it (not yet able to prune the enclosing rectangle).
type pruneFrame struct {
	n    rtree.NodeID
	live []int32
}

// batchPruneShard traverses one TR-tree shard once for every unit in
// the given chunk. Each node rectangle is fetched from the arena exactly
// once and tested against every live unit; units that prune the
// rectangle drop out of the subtree's frontier. Per-unit candidate sets
// are identical to pruneShard's: the filter sets are frozen, so the
// is-filtered predicate is independent of both visit order and of which
// other units share the frame.
//
// Live lists are carved out of one grow-only arena with capped
// three-index slices rather than allocated per frame: child frames alias
// the parent's survivor region read-only, and a growing append leaves
// older regions intact in the previous backing array.
func batchPruneShard(tree *rtree.Tree, units []*batchUnit, k int, shard int) {
	scs := make([]pruneScratch, len(units))
	buf := make([]int32, 0, 8*len(units))
	for i := range units {
		buf = append(buf, int32(i))
	}
	stack := []pruneFrame{{tree.Root(), buf[0:len(units):len(units)]}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rect := tree.Rect(f.n)
		mark := len(buf)
		for _, u := range f.live {
			unit := units[u]
			if !unit.fs.isFiltered(unit.sub, rect, k, unit.useVoronoi, true, &scs[u]) {
				buf = append(buf, u)
			}
		}
		surv := buf[mark:len(buf):len(buf)]
		if len(surv) == 0 {
			buf = buf[:mark]
			continue
		}
		if tree.IsLeaf(f.n) {
			for _, e := range tree.Entries(f.n) {
				er := geo.RectOf(e.Pt)
				for _, u := range surv {
					unit := units[u]
					if !unit.fs.isFiltered(unit.sub, er, k, unit.useVoronoi, false, &scs[u]) {
						unit.cands[shard] = append(unit.cands[shard], e)
					}
				}
			}
			// A leaf's survivor region is not referenced by any pending
			// frame; hand the space back to the arena.
			buf = buf[:mark]
		} else {
			for _, c := range tree.Children(f.n) {
				stack = append(stack, pruneFrame{c, surv})
			}
		}
	}
}

// verifyPair is one (query, candidate endpoint) verification unit. done
// marks pairs that reached k distinct strictly-closer routes (not a
// result); undecided pairs with len(closer) < k at the end are results.
type verifyPair struct {
	qi     int
	id     model.TransitionID
	aux    int32
	pt     geo.Point
	query  []geo.Point // full query route (for the scalar ablation path)
	dq2    float64
	closer []model.RouteID
	done   bool
}

func newVerifyPair(qi int, e rtree.Entry, query []geo.Point) verifyPair {
	return verifyPair{qi: qi, id: e.ID, aux: e.Aux, pt: e.Pt, query: query, dq2: geo.PointRouteDist2(e.Pt, query)}
}

// batchVerify decides every pair, fanning contiguous pair chunks across
// workers when the batch is large enough (same cut-over policy as
// refineCandidates).
func batchVerify(x *index.Index, pairs []verifyPair, opts Options) {
	if len(pairs) == 0 {
		return
	}
	tree := x.RouteTree()
	threshold := defaultRefineParallelThreshold
	if opts.Tuner != nil {
		threshold = opts.Tuner.Threshold()
	}
	if parallelEnabled(opts) && len(pairs) >= threshold {
		workers := maxWorkers(len(pairs))
		chunk := (len(pairs) + workers - 1) / workers
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > len(pairs) {
				hi = len(pairs)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				batchVerifyChunk(x, tree, pairs[lo:hi], opts)
			}(lo, hi)
		}
		wg.Wait()
		if opts.Tuner != nil {
			opts.Tuner.Observe(len(pairs), time.Since(start), workers)
		}
		return
	}
	start := time.Now()
	batchVerifyChunk(x, tree, pairs, opts)
	if opts.Tuner != nil {
		opts.Tuner.Observe(len(pairs), time.Since(start), 1)
	}
}

// verifyFrame mirrors pruneFrame for the verification traversal.
type verifyFrame struct {
	n    rtree.NodeID
	live []int32
}

// multiGather is the per-chunk scratch for grouped node expansions: the
// gathered planar block, the flattened per-pair distance rows, and the
// grow-only arena child frames carve their live lists from (capped
// subslices, same discipline as batchPruneShard's arena).
type multiGather struct {
	xlo, ylo, xhi, yhi [rtree.BlockSlots]float64
	qs                 []geo.Point
	idx                []int32
	dist               []float64
	live               []int32
}

// batchVerifyChunk runs the grouped RR-tree traversal for one chunk of
// pairs. The NoKernel ablation falls back to the per-pair scalar oracle
// (identical decisions, no block sharing).
func batchVerifyChunk(x *index.Index, tree *rtree.Tree, pairs []verifyPair, opts Options) {
	useNList := !opts.NoNList
	if opts.NoKernel {
		for i := range pairs {
			p := &pairs[i]
			if !endpointIsResultScalar(x, tree, p.query, p.pt, opts.K, useNList) {
				p.done = true
			}
		}
		return
	}
	if tree.Len() == 0 {
		return // every pair keeps len(closer) < k: all results
	}
	k := opts.K
	root := tree.Root()
	rootRect := tree.Rect(root)
	var live []int32
	for i := range pairs {
		if rootRect.MinDist2(pairs[i].pt) < pairs[i].dq2 {
			live = append(live, int32(i))
		}
	}
	if len(live) == 0 {
		return
	}
	var g multiGather
	stack := []verifyFrame{{root, live}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Re-filter the frame's live list: pairs decided while this frame
		// sat on the stack need no further work.
		g.idx = g.idx[:0]
		g.qs = g.qs[:0]
		if useNList {
			rect := tree.Rect(f.n)
			for _, pi := range f.live {
				p := &pairs[pi]
				if p.done {
					continue
				}
				if rect.MaxDist2(p.pt) < p.dq2 {
					// Wholesale credit: every point under n is strictly
					// closer than the query for this pair.
					x.NListEach(f.n, func(id model.RouteID) bool {
						p.closer = addRoute(p.closer, id)
						if len(p.closer) >= k {
							p.done = true
							return false
						}
						return true
					})
					continue
				}
				g.idx = append(g.idx, pi)
				g.qs = append(g.qs, p.pt)
			}
		} else {
			for _, pi := range f.live {
				if p := &pairs[pi]; !p.done {
					g.idx = append(g.idx, pi)
					g.qs = append(g.qs, p.pt)
				}
			}
		}
		if len(g.idx) == 0 {
			continue
		}
		if tree.IsLeaf(f.n) {
			cnt := tree.GatherEntryPoints(f.n, g.xlo[:], g.ylo[:])
			g.dist = growFloats(g.dist, len(g.qs)*cnt)
			geo.Dist2MultiBlock(g.xlo[:], g.ylo[:], g.qs, cnt, g.dist)
			ents := tree.Entries(f.n)
			for qi, pi := range g.idx {
				p := &pairs[pi]
				row := g.dist[qi*cnt : (qi+1)*cnt]
				for j := 0; j < cnt; j++ {
					if row[j] < p.dq2 {
						p.closer = addRoute(p.closer, ents[j].ID)
						if len(p.closer) >= k {
							p.done = true
							break
						}
					}
				}
			}
		} else {
			cnt := tree.GatherChildRects(f.n, g.xlo[:], g.ylo[:], g.xhi[:], g.yhi[:])
			g.dist = growFloats(g.dist, len(g.qs)*cnt)
			geo.MinDist2MultiBlock(g.xlo[:], g.ylo[:], g.xhi[:], g.yhi[:], g.qs, cnt, g.dist)
			kids := tree.Children(f.n)
			for j := 0; j < cnt; j++ {
				mark := len(g.live)
				for qi, pi := range g.idx {
					if g.dist[qi*cnt+j] < pairs[pi].dq2 {
						g.live = append(g.live, pi)
					}
				}
				if cl := g.live[mark:len(g.live):len(g.live)]; len(cl) > 0 {
					stack = append(stack, verifyFrame{kids[j], cl})
				} else {
					g.live = g.live[:mark]
				}
			}
		}
	}
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// runBatch invokes fn(i) for i in [0, n), across GOMAXPROCS-bounded
// workers when par is set. Work is handed out through an atomic cursor
// so uneven items load-balance.
func runBatch(n int, par bool, fn func(int)) {
	if !par || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// zorderPerm returns a processing order over the queries sorted by the
// Morton code of their centroids within the batch's bounding box, so
// that spatially adjacent queries sit next to each other in every
// grouped frontier list.
func zorderPerm(queries [][]geo.Point) []int {
	n := len(queries)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n < 3 {
		return perm
	}
	cx := make([]float64, n)
	cy := make([]float64, n)
	minx, miny := math.Inf(1), math.Inf(1)
	maxx, maxy := math.Inf(-1), math.Inf(-1)
	for i, q := range queries {
		sx, sy := 0.0, 0.0
		for _, p := range q {
			sx += p.X
			sy += p.Y
		}
		cx[i], cy[i] = sx/float64(len(q)), sy/float64(len(q))
		if cx[i] < minx {
			minx = cx[i]
		}
		if cx[i] > maxx {
			maxx = cx[i]
		}
		if cy[i] < miny {
			miny = cy[i]
		}
		if cy[i] > maxy {
			maxy = cy[i]
		}
	}
	dx, dy := maxx-minx, maxy-miny
	if !(dx > 0) {
		dx = 1
	}
	if !(dy > 0) {
		dy = 1
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = mortonKey((cx[i]-minx)/dx, (cy[i]-miny)/dy)
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

// mortonKey interleaves two normalized coordinates (clamped to [0, 1],
// NaN treated as 0) into a 32-bit Z-order key.
func mortonKey(u, v float64) uint64 {
	return spread16(quant16(u))<<1 | spread16(quant16(v))
}

func quant16(f float64) uint32 {
	f *= 65535
	if !(f >= 0) { // NaN lands here too
		return 0
	}
	if f > 65535 {
		return 65535
	}
	return uint32(f)
}

// spread16 spaces the low 16 bits of x one position apart.
func spread16(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// BatchKNN returns, for each point, the IDs of its k nearest routes —
// bit-identical per point to KNNRoutes — while scanning the route set
// once for the whole batch instead of once per point.
func BatchKNN(x *index.Index, pts []geo.Point, k int) [][]model.RouteID {
	type rd struct {
		id model.RouteID
		d  float64
	}
	all := make([][]rd, len(pts))
	x.Routes(func(r *model.Route) bool {
		for i, t := range pts {
			all[i] = append(all[i], rd{r.ID, geo.PointRouteDist2(t, r.Pts)})
		}
		return true
	})
	out := make([][]model.RouteID, len(pts))
	for i := range pts {
		a := all[i]
		kk := k
		if kk > len(a) {
			kk = len(a)
		}
		// Identical partial selection sort (and tie-break) to KNNRoutes.
		for s := 0; s < kk; s++ {
			min := s
			for j := s + 1; j < len(a); j++ {
				if a[j].d < a[min].d || (a[j].d == a[min].d && a[j].id < a[min].id) {
					min = j
				}
			}
			a[s], a[min] = a[min], a[s]
		}
		ids := make([]model.RouteID, kk)
		for s := 0; s < kk; s++ {
			ids[s] = a[s].id
		}
		out[i] = ids
	}
	return out
}
