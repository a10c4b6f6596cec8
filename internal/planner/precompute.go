// Package planner solves the optimal route planning problems of Section 6
// of the paper: MaxRkNNT and MinRkNNT (Definition 10). Given a bus
// network, a start stop, an end stop and a travel distance threshold τ, it
// finds the route attracting the most (fewest) passengers, where passenger
// attraction is the RkNNT set of the route.
//
// Four algorithms are provided, matching Section 7.3's evaluation:
//
//   - BruteForce: enumerate candidate routes within τ (k-shortest-path
//     style) and run an on-the-fly RkNNT query per candidate.
//   - Pre: the same enumeration, but candidate RkNNT sets come from the
//     per-vertex precomputation of Algorithm 5 (no on-the-fly queries).
//   - PreMax / PreMin: best-first expansion with reachability pruning via
//     the all-pairs lower-bound matrix Mψ and a per-vertex dominance table
//     (Algorithm 6).
package planner

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
)

// Precomputed holds the per-vertex RkNNT endpoint masks and the all-pairs
// shortest distance matrix Mψ of Algorithm 5, for one fixed k. The masks
// exist only as bitmaps (see maskset.go); VertexMasks reads one back as a
// map.
type Precomputed struct {
	G *graph.Graph
	K int

	// M is the all-pairs shortest distance matrix Mψ. It depends on the
	// network alone, so Refresh shares it.
	M [][]float64

	// ix holds the per-vertex endpoint masks as bitmaps over a dense
	// index of the transitions live when they were computed.
	ix maskIndex

	// Timings of the two precomputation steps, reported in Table 5.
	// RkNNTTime is wall time over GOMAXPROCS workers; ShortestTime is 0
	// after a Refresh, which computes no distances.
	RkNNTTime    time.Duration
	ShortestTime time.Duration
}

// Precompute runs Algorithm 5: the all-pairs shortest distance matrix plus
// an RkNNT query for every vertex of the graph. The method selects the
// RkNNT strategy (the paper uses the full framework; Voronoi is the
// sensible default). The index must not change during the call.
func Precompute(x *index.Index, g *graph.Graph, k int, method core.Method) (*Precomputed, error) {
	if k < 1 {
		return nil, fmt.Errorf("planner: k must be >= 1, got %d", k)
	}
	start := time.Now()
	m := g.AllPairs()
	shortest := time.Since(start)
	p, err := computeMasks(x, g, k, m, method)
	if err != nil {
		return nil, err
	}
	p.ShortestTime = shortest
	return p, nil
}

// Refresh recomputes the per-vertex masks against x — typically the same
// index after writes — and returns them as a new Precomputed sharing p's
// network, k and Mψ. p itself is left as it was, so plans still running
// on it are unaffected. The index must not change during the call.
func (p *Precomputed) Refresh(x *index.Index, method core.Method) (*Precomputed, error) {
	return computeMasks(x, p.G, p.K, p.M, method)
}

// computeMasks is the per-vertex step of Algorithm 5: one single-point
// RkNNT per vertex, fanned over GOMAXPROCS workers, each writing its
// vertex's masks straight into that vertex's bitmaps — no per-vertex map
// is built. A transition the dense index lacks is an error: its bit would
// stand for another transition. The first error, at the lowest vertex,
// fails the call.
func computeMasks(x *index.Index, g *graph.Graph, k int, m [][]float64, method core.Method) (*Precomputed, error) {
	start := time.Now()
	n := g.NumVertices()
	ix, pos := newMaskIndex(x, n)
	errs := make([]error, n)
	core.RunBatch(n, true, func(v int) {
		err := core.EachEndpointMask(x, []geo.Point{g.Point(graph.VertexID(v))}, k, method, func(id model.TransitionID, mask uint8) {
			if i, ok := pos[id]; ok {
				ix.vb[v].set(i, mask)
			} else if errs[v] == nil {
				errs[v] = fmt.Errorf("transition %d is not in the index", id)
			}
		})
		if err != nil {
			errs[v] = err
		}
	})
	for v, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("planner: vertex %d: %w", v, err)
		}
	}
	return &Precomputed{G: g, K: k, M: m, ix: ix, RkNNTTime: time.Since(start)}, nil
}

// VertexMasks returns vertex v's endpoint masks: transition ID to mask
// (bit 0 = origin, bit 1 = destination), for the single-point query at v.
// It is derived from the bitmaps on every call.
func (p *Precomputed) VertexMasks(v graph.VertexID) map[model.TransitionID]uint8 {
	return p.ix.masks(p.ix.vb[v])
}

// routeMasks unions the per-vertex endpoint masks along a vertex path,
// which by Lemma 3 yields exactly the endpoint masks of the whole route.
func (p *Precomputed) routeMasks(path []graph.VertexID) maskSet {
	out := p.ix.newSet()
	for _, v := range path {
		out.orInPlace(p.ix.vb[v])
	}
	return out
}
