package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/obs"
)

// Method selects the RkNNT processing strategy.
type Method int

const (
	// FilterRefine is the basic framework of Section 4: half-space
	// filtering with single route points plus crossover route sets.
	FilterRefine Method = iota
	// Voronoi additionally prunes with whole filtering routes using the
	// Voronoi filtering space of Definition 8 (Section 5.1).
	Voronoi
	// DivideConquer decomposes the query into single-point RkNNT queries
	// and unions the results (Section 5.2, Lemma 3).
	DivideConquer
	// BruteForce evaluates the definition directly by scanning all
	// transitions and routes. Used as ground truth and as the baseline
	// the paper's introduction describes as intractable at scale.
	BruteForce
)

// String returns the method name as used in the paper's figures.
func (m Method) String() string {
	switch m {
	case FilterRefine:
		return "Filter-Refine"
	case Voronoi:
		return "Voronoi"
	case DivideConquer:
		return "Divide-Conquer"
	case BruteForce:
		return "BruteForce"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Semantics selects between ∃RkNNT and ∀RkNNT (Definition 5).
type Semantics int

const (
	// Exists returns transitions with at least one endpoint taking Q as
	// a kNN (∃RkNNT, the paper's default).
	Exists Semantics = iota
	// ForAll returns transitions whose both endpoints take Q as a kNN.
	ForAll
)

// String returns the semantics name.
func (s Semantics) String() string {
	if s == ForAll {
		return "ForAll"
	}
	return "Exists"
}

// Options configures an RkNNT query.
type Options struct {
	// K is the k in RkNNT. Must be >= 1.
	K int
	// Method selects the processing strategy (default FilterRefine).
	Method Method
	// Semantics selects ∃ or ∀ semantics (default Exists).
	Semantics Semantics
	// TimeFrom/TimeTo, when non-zero, restrict results to transitions
	// whose timestamp lies in [TimeFrom, TimeTo]. Untimed transitions
	// (Time == 0) are excluded by a non-zero window. This implements the
	// temporal refinement the paper sketches for frequency planning.
	TimeFrom, TimeTo int64

	// Parallel allows the traversal to fan out across goroutines: the
	// TR-tree shards prune concurrently and the verification step splits
	// its candidates over workers. Results are identical to the
	// sequential pass (candidates are independent and masks merge by
	// OR); only wall-clock changes. It has no effect with GOMAXPROCS=1.
	Parallel bool

	// Trace, when non-nil, receives per-stage spans for this query:
	// "filter" (FilterRoute + PruneTransition), one "prune/s<N>" span
	// per TR-tree shard traversed, and "verify" (RefineCandidates).
	// Purely observational — results are unaffected. Excluded from the
	// serving layer's cache keys.
	Trace *obs.Trace

	// Ablation switches. Results are unaffected (the framework stays
	// exact); only pruning power changes. They exist so the benchmark
	// suite can quantify each design choice of Sections 4-5.

	// NoCrossover credits a filtering point only to its own route
	// instead of its full crossover route set (disables the Definition 7
	// enhancement).
	NoCrossover bool
	// NoNList disables wholesale route counting through the NList during
	// verification; every closer route is then discovered point by point.
	NoNList bool
	// NoKernel scores R-tree children one rectangle at a time through
	// the scalar geo.Rect.MinDist2 path instead of the blocked planar
	// kernels. The kernels are bit-identical to the scalar oracle, so
	// results never change; the flag exists to measure the kernel win
	// and to differentially test the blocked traversals.
	NoKernel bool
}

func (o Options) validate(query []geo.Point) error {
	if o.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", o.K)
	}
	if len(query) == 0 {
		return fmt.Errorf("core: empty query route")
	}
	for _, q := range query {
		if !q.Finite() {
			return fmt.Errorf("core: query coordinate is not finite when squared (|v| must be <= 1e150)")
		}
	}
	if o.TimeFrom != 0 || o.TimeTo != 0 {
		if o.TimeTo < o.TimeFrom {
			return fmt.Errorf("core: TimeTo %d < TimeFrom %d", o.TimeTo, o.TimeFrom)
		}
	}
	return nil
}

// Stats reports where an RkNNT query spent its time, matching the
// filtering/verification breakdown of Figures 10, 12 and 15.
type Stats struct {
	Filter time.Duration // FilterRoute + PruneTransition (the "Filtering" bars)
	Verify time.Duration // RefineCandidates (the "Verification" bars)

	// Plane reports that the query was answered by the radius-plane
	// descent (descent.go) instead of the pipeline: Filter is then the
	// descent time, Verify zero, Candidates the endpoints compared and the
	// filter-set counters stay zero.
	Plane bool

	FilterPoints int // |S_filter.P|: route points used for pruning
	FilterRoutes int // |S_filter.R|: distinct routes in the filter set
	RefineNodes  int // |S_refine|: RR-tree nodes pruned during filtering
	Candidates   int // |S_cnd|: endpoints surviving PruneTransition
	Results      int // |S_result|: transitions returned

	// ShardsTouched is a bitmask over TR-tree shards: bit s is set when
	// shard s contributed at least one candidate endpoint (on the plane
	// path: when the descent reached a leaf of shard s). It is a
	// conservative superset of the shards holding result transitions, so
	// a serving layer may skip result maintenance for shards outside the
	// mask when replaying per-shard removals. BruteForce scans (and
	// indexes with more than 64 shards) report the all-ones mask.
	ShardsTouched uint64
}

// Total returns the end-to-end processing time.
func (s *Stats) Total() time.Duration { return s.Filter + s.Verify }

func (s *Stats) add(o *Stats) {
	s.Filter += o.Filter
	s.Verify += o.Verify
	s.FilterPoints += o.FilterPoints
	s.FilterRoutes += o.FilterRoutes
	s.RefineNodes += o.RefineNodes
	s.Candidates += o.Candidates
	s.ShardsTouched |= o.ShardsTouched
}

// endpointMask records which endpoints of a transition take the query as a
// kNN: bit 0 = origin, bit 1 = destination.
type endpointMask uint8

const (
	maskOrigin endpointMask = 1 << index.Origin
	maskDest   endpointMask = 1 << index.Destination
	maskBoth                = maskOrigin | maskDest
)

// RkNNT answers the reverse k-nearest-neighbour query over trajectories
// (Definition 5) for the query route against the indexed datasets,
// returning the matching transition IDs in ascending order plus timing
// statistics. See Options for the processing strategy and semantics.
func RkNNT(x *index.Index, query []geo.Point, opts Options) ([]model.TransitionID, *Stats, error) {
	if err := opts.validate(query); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}
	if planes := planesFor(x, opts); planes != nil {
		return rknntPlane(x, planes, query, opts, stats), stats, nil
	}
	var masks map[model.TransitionID]endpointMask
	switch opts.Method {
	case FilterRefine:
		masks = filterRefine(x, query, opts.K, false, opts, stats)
	case Voronoi:
		masks = filterRefine(x, query, opts.K, true, opts, stats)
	case DivideConquer:
		masks = divideConquer(x, query, opts.K, opts, stats)
	case BruteForce:
		masks = bruteForceMasks(x, query, opts.K, opts, stats)
	default:
		return nil, nil, fmt.Errorf("core: unknown method %d", int(opts.Method))
	}
	ids := collect(x, masks, opts)
	stats.Results = len(ids)
	return ids, stats, nil
}

// EndpointMasks runs the RkNNT query and returns, for every matching
// transition, which of its endpoints take the query as a kNN: bit 0 set
// for the origin, bit 1 for the destination. A transition is an ∃RkNNT
// result iff its mask is non-zero and a ∀RkNNT result iff both bits are
// set. The route planner uses these masks to merge per-vertex RkNNT sets
// along partial routes (Section 6.2): masks OR together under route
// concatenation exactly as Lemma 3 unions do.
func EndpointMasks(x *index.Index, query []geo.Point, k int, method Method) (map[model.TransitionID]uint8, error) {
	out := make(map[model.TransitionID]uint8)
	if err := EachEndpointMask(x, query, k, method, func(id model.TransitionID, m uint8) { out[id] |= m }); err != nil {
		return nil, err
	}
	return out, nil
}

// EachEndpointMask is EndpointMasks without the map: it hands fn the
// endpoint masks of the matching transitions as the query finds them. On
// the radius-plane path that is one call per matching endpoint, so a
// transition whose two endpoints match arrives twice, once per bit: fn
// ORs what it is handed. The planner's Precompute writes the masks
// straight into its bitmaps this way.
func EachEndpointMask(x *index.Index, query []geo.Point, k int, method Method, fn func(model.TransitionID, uint8)) error {
	opts := Options{K: k, Method: method}
	if err := opts.validate(query); err != nil {
		return err
	}
	if planes := planesFor(x, opts); planes != nil {
		hp := descend(x, planes, query, opts, &Stats{})
		defer releaseHits(hp)
		for _, h := range *hp {
			fn(model.TransitionID(h>>1), 1<<uint(h&1))
		}
		return nil
	}
	stats := &Stats{}
	var masks map[model.TransitionID]endpointMask
	switch method {
	case FilterRefine:
		masks = filterRefine(x, query, k, false, opts, stats)
	case Voronoi:
		masks = filterRefine(x, query, k, true, opts, stats)
	case DivideConquer:
		masks = divideConquer(x, query, k, opts, stats)
	case BruteForce:
		masks = bruteForceMasks(x, query, k, opts, stats)
	default:
		return fmt.Errorf("core: unknown method %d", int(method))
	}
	for id, m := range masks {
		if m != 0 {
			fn(id, uint8(m))
		}
	}
	return nil
}

// collect applies semantics and the temporal window, then sorts.
func collect(x *index.Index, masks map[model.TransitionID]endpointMask, opts Options) []model.TransitionID {
	ids := make([]model.TransitionID, 0, len(masks))
	for id, m := range masks {
		if keeps(x, id, m, opts) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// keeps reports whether a transition with endpoint mask m is a result
// under the query's semantics and temporal window.
func keeps(x *index.Index, id model.TransitionID, m endpointMask, opts Options) bool {
	if m == 0 || (opts.Semantics == ForAll && m != maskBoth) {
		return false
	}
	if opts.TimeFrom != 0 || opts.TimeTo != 0 {
		t := x.Transition(id)
		if t == nil || t.Time < opts.TimeFrom || t.Time > opts.TimeTo {
			return false
		}
	}
	return true
}
