package core

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/rtree"
)

// The radius-plane query path. When the index carries a radius plane
// for opts.K (index/radii.go — only the serving engine builds one),
// every TR-tree endpoint t already stores r²_k(t), and by the identity in
// doc.go
//
//	t takes Q as a kNN  ⇔  PointRouteDist2(t, Q) <= r²_k(t)
//
// RkNNT(Q) is one stack descent per shard that prunes a node when
// MinDist2(Q, node) exceeds the largest radius beneath it, plus one
// distance compare per endpoint in the leaves it reaches: no filter
// set, no crossover or NList credit, no RR-tree verification. Both sides
// of every compare are the Dist2 values the brute force compares, so the
// answer is the pipeline's answer, ties included.
//
// Without a plane for opts.K — every experiment of internal/exp, a k the
// serving engine's traffic does not favour — and for BruteForce or any
// ablation flag (they measure the paper's pipeline) the pipeline runs as
// before.

// PlaneEligible reports whether a query with these options is answered
// from a radius plane when the index has one for opts.K: any of the
// paper's three methods (they differ in how they prune, not in what they
// return) with no ablation flag. The serving engine asks before building
// a plane for a new k.
func PlaneEligible(opts Options) bool {
	switch opts.Method {
	case FilterRefine, Voronoi, DivideConquer:
		return !opts.NoCrossover && !opts.NoNList && !opts.NoKernel
	}
	return false
}

// planesFor returns the per-shard radius planes the query is answered
// from, or nil when it runs the filter-refine pipeline.
func planesFor(x *index.Index, opts Options) []*rtree.Plane {
	if !PlaneEligible(opts) {
		return nil
	}
	return x.RadiusPlanes(opts.K)
}

// hitPool recycles the (transition, role) hit lists of descents and the
// scratch lists sortHits fills; a hit is id<<1|role, so sorting groups a
// transition's endpoints, origin first, in ascending ID order.
var hitPool = sync.Pool{New: func() any { return new([]int64) }}

// sortHits sorts hits ascending and returns them, either in hits itself
// or in the first len(hits) elements of *scratch, which it grows as
// needed. It is an LSD radix sort on h - min in 8-bit digits that skips
// every digit all keys share, ping-ponging between hits and *scratch.
// Hits of 32-bit IDs span at most 33 bits, so that is at most five
// passes; a city of 100k transitions needs three.
func sortHits(hits []int64, scratch *[]int64) []int64 {
	n := len(hits)
	if n < 2 {
		return hits
	}
	lo, hi := hits[0], hits[0]
	for _, h := range hits[1:] {
		lo, hi = min(lo, h), max(hi, h)
	}
	// Offsets from lo are unsigned, so any int64 span fits.
	base := uint64(lo)
	digits := (bits.Len64(uint64(hi)-base) + 7) / 8
	if cap(*scratch) < n {
		*scratch = make([]int64, n)
	}
	src, dst := hits, (*scratch)[:n]
	for d := 0; d < digits; d++ {
		shift := uint(8 * d)
		var c [256]int
		for _, h := range src {
			c[uint8((uint64(h)-base)>>shift)]++
		}
		if c[uint8((uint64(src[0])-base)>>shift)] == n {
			continue // every key has this digit: the pass would copy
		}
		sum := 0
		for b, cnt := range c {
			c[b], sum = sum, sum+cnt
		}
		for _, h := range src {
			b := uint8((uint64(h) - base) >> shift)
			dst[c[b]] = h
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// descend runs the plane descent over every shard and returns the
// endpoints that take the query as a kNN. Stats.Filter is the descent
// time, Stats.Candidates the endpoints compared, and ShardsTouched the
// shards in which a leaf was reached — a superset of the shards holding
// results, which is what lazy cache repair relies on. The caller returns
// the list with releaseHits.
func descend(x *index.Index, planes []*rtree.Plane, query []geo.Point, opts Options, stats *Stats) *[]int64 {
	start := time.Now()
	sp := opts.Trace.StartSpan("descent")
	hp := hitPool.Get().(*[]int64)
	hits := (*hp)[:0]
	shards := x.TransitionShards()
	for s, tree := range shards {
		before := stats.Candidates
		tree.DescendPlane(planes[s], query, func(_ rtree.NodeID, ents []rtree.Entry, r2 []float64) {
			stats.Candidates += len(ents)
			for i, e := range ents {
				if geo.PointRouteDist2(e.Pt, query) <= r2[i] {
					hits = append(hits, int64(e.ID)<<1|int64(e.Aux))
				}
			}
		})
		if stats.Candidates > before && s < 64 {
			stats.ShardsTouched |= 1 << uint(s)
		}
	}
	if len(shards) > 64 {
		stats.ShardsTouched = ^uint64(0)
	}
	*hp = hits
	sp.End()
	stats.Plane = true
	stats.Filter += time.Since(start)
	return hp
}

func releaseHits(hp *[]int64) {
	if cap(*hp) <= 1<<16 { // don't pin pathological lists in the pool
		hitPool.Put(hp)
	}
}

// rknntPlane answers one query from the planes: descend, radix-sort the
// hits (sortHits), merge each transition's endpoints and apply semantics
// and the window. The answer is in ascending ID order.
func rknntPlane(x *index.Index, planes []*rtree.Plane, query []geo.Point, opts Options, stats *Stats) []model.TransitionID {
	hp := descend(x, planes, query, opts, stats)
	defer releaseHits(hp)
	sp := hitPool.Get().(*[]int64)
	defer releaseHits(sp)
	hits := sortHits(*hp, sp)
	distinct := 0
	for i, h := range hits {
		if i == 0 || h>>1 != hits[i-1]>>1 {
			distinct++
		}
	}
	ids := make([]model.TransitionID, 0, distinct)
	for i := 0; i < len(hits); i++ {
		id := model.TransitionID(hits[i] >> 1)
		m := endpointMask(1) << uint(hits[i]&1)
		if i+1 < len(hits) && hits[i+1]>>1 == hits[i]>>1 {
			m = maskBoth
			i++
		}
		if keeps(x, id, m, opts) {
			ids = append(ids, id)
		}
	}
	stats.Results = len(ids)
	return ids
}
