package core

import (
	"sync"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/rtree"
)

// refineParallelThreshold is the candidate count at which a Parallel
// refine pass fans out. One RR-tree probe costs 1.4-10 µs (about 37 µs
// under a live server) against a goroutine handoff of about 1.25 µs, so
// the two-worker break-even 4·handoff/perCandidate lands below 8
// whenever a candidate costs more than ~0.6 µs.
const refineParallelThreshold = 8

// refineCandidates implements the verification step (Section 4.2.3): each
// surviving endpoint is checked exactly against the RR-tree. An endpoint t
// with query distance dq = dist(t, Q) is a result iff fewer than k distinct
// routes are strictly closer to t than dq.
//
// Candidates are independent, so with opts.Parallel the verification fans
// out across worker goroutines and the per-candidate masks merge by OR —
// the outcome is identical to the sequential pass.
func refineCandidates(x *index.Index, query []geo.Point, cands []rtree.Entry, k int, opts Options) map[model.TransitionID]endpointMask {
	masks := make(map[model.TransitionID]endpointMask)
	tree := x.RouteTree()
	if parallelEnabled(opts) && len(cands) >= refineParallelThreshold {
		workers := maxWorkers(len(cands))
		chunk := (len(cands) + workers - 1) / workers
		parts := make([]map[model.TransitionID]endpointMask, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(cands) {
				hi = len(cands)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				part := make(map[model.TransitionID]endpointMask)
				for _, cand := range cands[lo:hi] {
					if endpointIsResult(x, tree, query, cand.Pt, k, !opts.NoNList, opts.NoKernel) {
						part[cand.ID] |= 1 << uint(cand.Aux)
					}
				}
				parts[w] = part
			}(w, lo, hi)
		}
		wg.Wait()
		for _, part := range parts {
			for id, m := range part {
				masks[id] |= m
			}
		}
		return masks
	}
	for _, cand := range cands {
		if endpointIsResult(x, tree, query, cand.Pt, k, !opts.NoNList, opts.NoKernel) {
			masks[cand.ID] |= 1 << uint(cand.Aux)
		}
	}
	return masks
}

func maxWorkers(items int) int {
	w := items / 16
	if w < 2 {
		w = 2
	}
	if w > 16 {
		w = 16
	}
	return w
}

// endpointIsResult reports whether fewer than k distinct routes are
// strictly closer to t than the query route. It only reads the index
// (the incremental NList takes no lock), so concurrent calls are safe.
//
// The default path scores each internal node's child block with one
// geo.MinDist2Block call and pushes only children whose lower bound
// beats dq2; because dq2 is fixed for the whole call, push-time pruning
// visits exactly the nodes the pop-time check used to keep, in the same
// order. NList wholesale credits are then applied over that pre-pruned
// frontier in traversal order. scalar selects the pre-kernel per-child
// path (the NoKernel ablation); both decide identically.
func endpointIsResult(x *index.Index, tree *rtree.Tree, query []geo.Point, t geo.Point, k int, useNList, scalar bool) bool {
	if scalar {
		return endpointIsResultScalar(x, tree, query, t, k, useNList)
	}
	if tree.Len() == 0 {
		return true
	}
	dq2 := geo.PointRouteDist2(t, query)
	closer := make(map[model.RouteID]struct{}, k)
	var gb gatherBlock
	var stackArr [128]rtree.NodeID
	stack := stackArr[:0]
	root := tree.Root()
	if tree.Rect(root).MinDist2(t) < dq2 {
		stack = append(stack, root)
	}
	for len(stack) > 0 && len(closer) < k {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if useNList {
			if tree.Rect(n).MaxDist2(t) < dq2 {
				// Every point under n is strictly closer than the query:
				// credit all routes below without descending.
				done := false
				x.NListEach(n, func(id model.RouteID) bool {
					closer[id] = struct{}{}
					if len(closer) >= k {
						done = true
						return false
					}
					return true
				})
				if done {
					return false
				}
				continue
			}
		}
		if tree.IsLeaf(n) {
			for _, e := range tree.Entries(n) {
				if e.Pt.Dist2(t) < dq2 {
					closer[e.ID] = struct{}{}
					if len(closer) >= k {
						return false
					}
				}
			}
		} else {
			cnt := tree.GatherChildRects(n, gb.xlo[:], gb.ylo[:], gb.xhi[:], gb.yhi[:])
			geo.MinDist2Block(gb.xlo[:], gb.ylo[:], gb.xhi[:], gb.yhi[:], t, gb.dist[:cnt])
			kids := tree.Children(n)
			for i := 0; i < cnt; i++ {
				if gb.dist[i] < dq2 {
					stack = append(stack, kids[i])
				}
			}
		}
	}
	return len(closer) < k
}

// endpointIsResultScalar is the pre-kernel verification traversal, kept
// verbatim as the NoKernel ablation and differential oracle.
func endpointIsResultScalar(x *index.Index, tree *rtree.Tree, query []geo.Point, t geo.Point, k int, useNList bool) bool {
	if tree.Len() == 0 {
		return true
	}
	dq2 := geo.PointRouteDist2(t, query)
	closer := make(map[model.RouteID]struct{}, k)
	stack := []rtree.NodeID{tree.Root()}
	for len(stack) > 0 && len(closer) < k {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rect := tree.Rect(n)
		if rect.MinDist2(t) >= dq2 {
			continue
		}
		if useNList && rect.MaxDist2(t) < dq2 {
			done := false
			x.NListEach(n, func(id model.RouteID) bool {
				closer[id] = struct{}{}
				if len(closer) >= k {
					done = true
					return false
				}
				return true
			})
			if done {
				return false
			}
			continue
		}
		if tree.IsLeaf(n) {
			for _, e := range tree.Entries(n) {
				if e.Pt.Dist2(t) < dq2 {
					closer[e.ID] = struct{}{}
					if len(closer) >= k {
						return false
					}
				}
			}
		} else {
			stack = append(stack, tree.Children(n)...)
		}
	}
	return len(closer) < k
}

// TakesQueryAsKNN reports whether the point t takes the query route as one
// of its k nearest routes: fewer than k distinct routes are strictly
// closer to t than the query (the rank semantics of this package). It is
// the single-check primitive: one RR-tree probe bounded by dist(t, Q).
// Callers that test one endpoint against many queries use index.RankRadius2,
// which decides identically from one probe.
func TakesQueryAsKNN(x *index.Index, query []geo.Point, t geo.Point, k int) bool {
	return endpointIsResult(x, x.RouteTree(), query, t, k, true, false)
}
