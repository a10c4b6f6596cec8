package planner

import (
	"container/heap"
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/model"
)

// Objective selects maximisation or minimisation of the RkNNT set.
type Objective int

const (
	// Maximize finds the route attracting the most passengers
	// (MaxRkNNT): profitable routes for buses or ride sharing.
	Maximize Objective = iota
	// Minimize finds the route attracting the fewest passengers
	// (MinRkNNT): fast corridors for emergency vehicles.
	Minimize
)

// String returns the objective name.
func (o Objective) String() string {
	if o == Minimize {
		return "MinRkNNT"
	}
	return "MaxRkNNT"
}

// Options configures a planning query.
type Options struct {
	// Objective selects MaxRkNNT (default) or MinRkNNT.
	Objective Objective
	// UseLemma4 switches the dominance test of Algorithm 6 from the
	// exact subset-based rule (default; guarantees the optimal route) to
	// the cardinality heuristic of Lemma 4 as printed in the paper,
	// which prunes more but is not airtight in rare tie-heavy cases.
	UseLemma4 bool
	// MaxCandidates caps the number of candidate routes the enumeration
	// based algorithms (BruteForce, Pre) consider; 0 means unlimited.
	MaxCandidates int
	// MaxExpansions caps the number of partial-route expansions Plan
	// performs; 0 means unlimited. When the cap is hit the best complete
	// route found so far is returned (anytime behaviour) and
	// Result.Truncated is set. Use this as a safety valve on large
	// networks with generous distance budgets, where the search space is
	// exponential.
	MaxExpansions int
}

// Result is a planned route.
type Result struct {
	Path        []graph.VertexID
	Dist        float64 // ψ(R)
	Transitions []model.TransitionID
	Count       int // |ω(R)| = len(Transitions)
	// Truncated is set when the search hit Options.MaxExpansions before
	// exhausting the space; the route is the best found, not necessarily
	// the optimum.
	Truncated bool
}

func resultFromBits(p *Precomputed, path []graph.VertexID, dist float64, m maskSet) *Result {
	ids := p.ix.transitions(m)
	return &Result{Path: path, Dist: dist, Transitions: ids, Count: len(ids)}
}

// better reports whether count a beats count b under the objective, with
// shorter distance as tie breaker.
func better(obj Objective, aCount int, aDist float64, bCount int, bDist float64) bool {
	if aCount != bCount {
		if obj == Maximize {
			return aCount > bCount
		}
		return aCount < bCount
	}
	return aDist < bDist
}

// BruteForcePlan is the paper's BruteForce baseline: enumerate every route
// within the threshold, run an RkNNT query on each, and keep the best. It
// returns ok=false if no route within τ exists.
func BruteForcePlan(x *index.Index, g *graph.Graph, s, e graph.VertexID, tau float64, k int, opts Options) (*Result, bool, error) {
	cands := g.PathsWithin(s, e, tau, opts.MaxCandidates)
	if len(cands) == 0 {
		return nil, false, nil
	}
	var best *Result
	for _, cand := range cands {
		pts := make([]geo.Point, len(cand.Vertices))
		for i, v := range cand.Vertices {
			pts[i] = g.Point(v)
		}
		ids, _, err := core.RkNNT(x, pts, core.Options{K: k, Method: core.Voronoi})
		if err != nil {
			return nil, false, err
		}
		if best == nil || better(opts.Objective, len(ids), cand.Dist, best.Count, best.Dist) {
			best = &Result{Path: cand.Vertices, Dist: cand.Dist, Transitions: ids, Count: len(ids)}
		}
	}
	return best, true, nil
}

// PrePlan is the "Pre" method of Section 7.3: the same enumeration as
// BruteForcePlan but with candidate RkNNT sets assembled from the
// precomputed per-vertex sets instead of on-the-fly queries.
func (p *Precomputed) PrePlan(s, e graph.VertexID, tau float64, opts Options) (*Result, bool) {
	cands := p.G.PathsWithin(s, e, tau, opts.MaxCandidates)
	if len(cands) == 0 {
		return nil, false
	}
	var best *Result
	for _, cand := range cands {
		masks := p.routeMasks(cand.Vertices)
		n := masks.countExists()
		if best == nil || better(opts.Objective, n, cand.Dist, best.Count, best.Dist) {
			best = resultFromBits(p, cand.Vertices, cand.Dist, masks)
		}
	}
	return best, true
}

// partial is one entry of the search queue / dominance table DT of
// Algorithm 6. Counts are cached: the dominance tests consult them on
// every comparison.
type partial struct {
	path  []graph.VertexID
	dist  float64
	prio  float64 // dist + Mψ[end][e]: A*-style queue priority
	masks maskSet
	ex    int  // cached countExists
	fa    int  // cached countForAll
	alive bool // false once dominated (lazily removed from the heap)
}

type partialHeap []*partial

func (h partialHeap) Len() int            { return len(h) }
func (h partialHeap) Less(i, j int) bool  { return h[i].prio < h[j].prio }
func (h partialHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *partialHeap) Push(x interface{}) { *h = append(*h, x.(*partial)) }
func (h *partialHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Plan runs Algorithm 6: best-first expansion of partial routes with
// reachability pruning against Mψ and per-vertex dominance tables. With
// Options.Objective == Minimize it additionally applies the checkBounds
// pruning the paper describes for MinRkNNT. It returns ok=false when no
// route from s to e satisfies the threshold.
//
// The queue is ordered by ψ(R*) + Mψ[end][e] (an A*-style potential): the
// search space is explored in full either way, but complete routes are
// found early, which feeds the MinRkNNT bound check sooner and makes the
// MaxExpansions anytime mode return useful routes instead of falling back
// to the shortest path.
func (p *Precomputed) Plan(s, e graph.VertexID, tau float64, opts Options) (*Result, bool, error) {
	n := p.G.NumVertices()
	if int(s) >= n || int(e) >= n || s < 0 || e < 0 {
		return nil, false, fmt.Errorf("planner: vertex out of range")
	}
	if s == e {
		return nil, false, fmt.Errorf("planner: start and end vertex are identical")
	}
	// checkReachability at the source (line 1 of Algorithm 6).
	if p.M[s][e] > tau {
		return nil, false, nil
	}

	table := make(map[graph.VertexID][]*partial) // the dominance table DT
	// The root shares s's bitmaps: the search writes only the new sets
	// union allocates.
	rootMasks := p.ix.vb[s]
	root := &partial{
		path:  []graph.VertexID{s},
		dist:  0,
		prio:  p.M[s][e],
		masks: rootMasks,
		ex:    rootMasks.countExists(),
		fa:    rootMasks.countForAll(),
		alive: true,
	}
	table[s] = []*partial{root}
	h := &partialHeap{root}
	heap.Init(h)

	var best *Result
	truncated := false
	expansions := 0
	for h.Len() > 0 {
		cur := heap.Pop(h).(*partial)
		if !cur.alive {
			continue
		}
		if opts.MaxExpansions > 0 && expansions >= opts.MaxExpansions {
			truncated = true
			break
		}
		expansions++
		end := cur.path[len(cur.path)-1]
		if end == e {
			if best == nil || better(opts.Objective, cur.ex, cur.dist, best.Count, best.Dist) {
				best = resultFromBits(p, cur.path, cur.dist, cur.masks)
			}
			continue
		}
		// checkBounds for MinRkNNT: ω only grows along a route, so a
		// partial already above the best complete count cannot win
		// (at best it ties, and ties do not improve the answer).
		if opts.Objective == Minimize && best != nil && cur.ex > best.Count {
			continue
		}
		for _, edge := range p.G.Neighbors(end) {
			vj := edge.To
			if onPath(cur.path, vj) {
				continue // routes are loopless vertex sequences
			}
			nd := cur.dist + edge.W
			// checkReachability: can we still make it to e within τ?
			if nd+p.M[vj][e] > tau {
				continue
			}
			masks, ex, fa := cur.masks.union(p.ix.vb[vj])
			cand := &partial{
				path:  appendPath(cur.path, vj),
				dist:  nd,
				prio:  nd + p.M[vj][e],
				masks: masks,
				ex:    ex,
				fa:    fa,
				alive: true,
			}
			// checkDominance against the table at vj.
			if dominated(table[vj], cand, opts) {
				continue
			}
			table[vj] = insertAndEvict(table[vj], cand, opts)
			heap.Push(h, cand)
		}
	}
	if best == nil {
		// With a cap in place the search may stop before reaching e even
		// though a feasible route exists; fall back to the shortest path,
		// which reachability guaranteed to be within tau.
		if truncated {
			if sp, dist, ok := p.G.ShortestPath(s, e); ok && dist <= tau {
				best = resultFromBits(p, sp, dist, p.routeMasks(sp))
				best.Truncated = true
				return best, true, nil
			}
		}
		return nil, false, nil
	}
	best.Truncated = truncated
	return best, true, nil
}

func onPath(path []graph.VertexID, v graph.VertexID) bool {
	for _, u := range path {
		if u == v {
			return true
		}
	}
	return false
}

func appendPath(path []graph.VertexID, v graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, len(path)+1)
	copy(out, path)
	out[len(path)] = v
	return out
}

// dominated reports whether cand is dominated by an existing table entry.
//
// Exact rule (default): entry dominates cand if (1) it is no longer,
// (2) its endpoint masks cover (Maximize) or are covered by (Minimize)
// cand's, and (3) its visited-vertex set is a subset of cand's. Condition
// (3) makes the rule airtight for loopless routes: any completion suffix
// that keeps cand simple also keeps the dominating entry simple, and mask
// containment is preserved by appending any suffix, so the dominated
// partial can never finish strictly better.
//
// Lemma 4 rule (UseLemma4): entry dominates cand if ψ(entry) < ψ(cand) and
// |∀RkNNT(entry)| > |∃RkNNT(cand)| (for Maximize; mirrored for Minimize),
// exactly as printed in the paper. This prunes converging paths far more
// aggressively but is a heuristic: the lemma's disjointness claim can fail
// when a ∀-transition of the dominating route also neighbours the suffix.
func dominated(entries []*partial, cand *partial, opts Options) bool {
	for _, en := range entries {
		if !en.alive {
			continue
		}
		if opts.UseLemma4 && en.dist < cand.dist {
			if opts.Objective == Maximize && en.fa > cand.ex {
				return true
			}
			if opts.Objective == Minimize && en.ex < cand.fa {
				return true
			}
		}
		// The exact rule is sound, so it applies in both modes.
		if exactDominates(en, cand, opts.Objective) {
			return true
		}
	}
	return false
}

// exactDominates implements the sound dominance rule described above.
func exactDominates(en, cand *partial, obj Objective) bool {
	if en.dist > cand.dist {
		return false
	}
	// Cheap cardinality precheck before the bitwise containment test.
	if obj == Maximize {
		if en.ex < cand.ex || en.fa < cand.fa {
			return false
		}
	} else {
		if en.ex > cand.ex || en.fa > cand.fa {
			return false
		}
	}
	if !pathSubset(en.path, cand.path) {
		return false
	}
	if obj == Maximize {
		return en.masks.covers(cand.masks)
	}
	return cand.masks.covers(en.masks)
}

// pathSubset reports whether every vertex of a also appears in b.
func pathSubset(a, b []graph.VertexID) bool {
	if len(a) > len(b) {
		return false
	}
	for _, u := range a {
		if !onPath(b, u) {
			return false
		}
	}
	return true
}

// insertAndEvict adds cand to the table and lazily kills entries that cand
// now dominates.
func insertAndEvict(entries []*partial, cand *partial, opts Options) []*partial {
	out := entries[:0]
	for _, en := range entries {
		if !en.alive {
			continue
		}
		dominatedByCand := exactDominates(cand, en, opts.Objective)
		if !dominatedByCand && opts.UseLemma4 && cand.dist < en.dist {
			if opts.Objective == Maximize && cand.fa > en.ex {
				dominatedByCand = true
			}
			if opts.Objective == Minimize && cand.ex < en.fa {
				dominatedByCand = true
			}
		}
		if dominatedByCand {
			en.alive = false
			continue
		}
		out = append(out, en)
	}
	return append(out, cand)
}
