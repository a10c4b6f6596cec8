package index

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/rtree"
)

// The radius plane: the RdNN-tree annotation of the TR-tree.
//
// For one indexed k every TR-tree shard carries an rtree.Plane holding,
// per endpoint t, r²_k(t) = RankRadius2(t, k) — the squared distance to
// its k-th nearest route — and per node the largest radius beneath it.
// An endpoint takes a query route Q as a kNN iff
// PointRouteDist2(t, Q) <= r²_k(t) (package core), so RkNNT(Q) becomes
// one descent pruning on MinDist2(Q, node) > maxR2(node).
//
// A radius depends on the endpoint, k and the route set only. The write
// paths below keep every stored radius equal to a fresh probe:
//
//   - an arriving transition is probed once per endpoint and inserted
//     with its values (the rtree moves them through splits and
//     condense-reinsertion; removal, expiry and copy-on-write after an
//     mmap boot need nothing);
//   - a new route R can only shrink the radii of endpoints it is
//     strictly inside of (d²(t,R) < r²), a removed route only grow the
//     radii of endpoints that counted it (d²(t,R) <= r²); the same
//     descent run with R as the query finds exactly those, and only
//     they are re-probed.
//
// There is one plane, for one k: which k deserves it is the serving
// layer's decision (serve/plane.go), and every bench and production
// workload so far queries at a single k. It is built in three steps so
// that the expensive one — a probe per endpoint — needs no TR-tree lock
// (BeginRadii, ProbeRadii, InstallRadii); EnsureRadii runs them back to
// back for single-threaded callers. The plane lives on the heap and is
// not persisted.

// radiusPlane is the plane for one k: an immutable snapshot that
// InstallRadii and DropRadii replace.
type radiusPlane struct {
	k      int
	shards []*rtree.Plane // parallel to trShards
}

func validateTransition(t *model.Transition) error {
	if !t.O.Finite() || !t.D.Finite() {
		return fmt.Errorf("index: transition %d has a coordinate that is not finite when squared (|v| must be <= 1e150)", t.ID)
	}
	return nil
}

// RankRadius2 returns r²_k(t): the squared distance from t to its k-th
// nearest distinct route, or +Inf when fewer than k routes are indexed;
// k must be at least 1. It is the query-independent half of Definition 4:
//
//	core.TakesQueryAsKNN(x, Q, t, k)  ⇔  PointRouteDist2(t, Q) <= x.RankRadius2(t, k)
//
// (fewer than k routes strictly closer than Q ⇔ the k-th nearest route is
// not strictly closer). The probe is the RR-tree's bounded
// k-th-distinct-ID search (rtree.KthDistinctDist2); every value it
// compares or returns is a Point.Dist2, the arithmetic BruteForce uses, so
// the equivalence is exact on ties. It only reads the route set.
func (x *Index) RankRadius2(t geo.Point, k int) float64 {
	if k > len(x.routes) {
		return math.Inf(1)
	}
	return x.rr.KthDistinctDist2(t, k)
}

// RadiusK returns the k the radius plane is built for, or 0 when there
// is none.
func (x *Index) RadiusK() int {
	if rp := x.radii.Load(); rp != nil {
		return rp.k
	}
	return 0
}

// RadiusPlanes returns the per-shard radius planes (parallel to
// TransitionShards) when the plane is for k, nil otherwise.
func (x *Index) RadiusPlanes(k int) []*rtree.Plane {
	if rp := x.radii.Load(); rp != nil && rp.k == k {
		return rp.shards
	}
	return nil
}

// RadiiBuild is a radius plane under construction: the endpoints that
// were indexed when it began, by shard and entry slot, and the radii
// probed for them so far.
type RadiiBuild struct {
	k        int
	routeGen uint64
	pts      [][]geo.Point // [shard][slot]; NaN where the slot was empty
	r2       [][]float64   // [shard][slot]
	shard    int           // probe cursor
	slot     int
}

// BeginRadii starts building a plane for k (at least 1) by recording
// which endpoints are indexed. The caller excludes TR-tree writers for
// the duration of the call — a copy of the endpoint coordinates, no
// probes.
func (x *Index) BeginRadii(k int) *RadiiBuild {
	b := &RadiiBuild{k: k, routeGen: x.routeGen, pts: make([][]geo.Point, len(x.trShards)), r2: make([][]float64, len(x.trShards))}
	for s, tree := range x.trShards {
		b.pts[s] = tree.SlotPoints()
		b.r2[s] = make([]float64, len(b.pts[s]))
	}
	return b
}

// ProbeRadii probes up to max of the radii b still lacks and reports
// whether any remain. It reads only the route set and b: TR-tree writers
// may run beside it, and between calls the caller need not hold anything.
// A route change since BeginRadii voids the build; ProbeRadii then reports
// false at once and InstallRadii will refuse it.
func (x *Index) ProbeRadii(b *RadiiBuild, max int) (more bool) {
	if b.routeGen != x.routeGen {
		return false
	}
	for ; b.shard < len(b.pts); b.shard, b.slot = b.shard+1, 0 {
		pts, r2 := b.pts[b.shard], b.r2[b.shard]
		for ; b.slot < len(pts); b.slot++ {
			if pt := pts[b.slot]; pt.X == pt.X { // not an empty slot
				if max == 0 {
					return true
				}
				max--
				r2[b.slot] = x.RankRadius2(pt, b.k)
			}
		}
	}
	return false
}

// InstallRadii attaches the finished build to the TR-trees, replacing the
// plane of any other k, and publishes it to queries. An endpoint still in
// the slot it occupied at BeginRadii takes the radius probed for it;
// endpoints that arrived or moved since are probed now, so the cost under
// the caller's exclusion is one comparison per endpoint plus one probe per
// recent arrival. It reports false, installing nothing, when the route set
// changed since BeginRadii.
//
// The caller excludes index writers (TR-tree and route) for the duration,
// not readers: a query that already holds the previous plane finishes on
// it undisturbed.
func (x *Index) InstallRadii(b *RadiiBuild) bool {
	if b.routeGen != x.routeGen {
		return false
	}
	for x.ProbeRadii(b, math.MaxInt) {
	}
	planes := make([]*rtree.Plane, len(x.trShards))
	var wg sync.WaitGroup
	for s, tree := range x.trShards {
		wg.Add(1)
		go func(s int, tree *rtree.Tree) {
			defer wg.Done()
			pts, r2 := b.pts[s], b.r2[s]
			planes[s] = tree.SetPlane(func(slot int, e rtree.Entry) float64 {
				if slot < len(pts) && pts[slot] == e.Pt {
					return r2[slot]
				}
				return x.RankRadius2(e.Pt, b.k)
			})
		}(s, tree)
	}
	wg.Wait()
	x.radii.Store(&radiusPlane{k: b.k, shards: planes})
	return true
}

// EnsureRadii makes the radius plane be the one for k, building it now
// unless it already is. It reports false for k < 1. The caller excludes
// index writers for the whole build, so this is for single-threaded
// owners of an index (tests, benchmarks); the serving engine drives the
// three steps itself, holding locks only where each needs them.
func (x *Index) EnsureRadii(k int) bool {
	if k < 1 {
		return false
	}
	if x.RadiusK() == k {
		return true
	}
	return x.InstallRadii(x.BeginRadii(k))
}

// DropRadii removes the radius plane; arriving transitions are no longer
// probed and every query runs the filter-refine pipeline. The caller
// excludes index writers.
func (x *Index) DropRadii() {
	for _, tree := range x.trShards {
		tree.DropPlane()
	}
	x.radii.Store(nil)
}

// AddedRadii reports the rank radii AddBatchToShard stored for the
// transitions it indexed, so the caller need not probe for them again.
// K is the plane's k, 0 when there is no plane (and nothing was stored).
type AddedRadii struct {
	K  int
	r2 []float64 // [2*i+role] for ts[i]
}

// At returns the squared rank radii of ts[i]'s origin and destination at
// K. Undefined for transitions the batch rejected and when K is 0.
func (a AddedRadii) At(i int) (ro2, rd2 float64) {
	return a.r2[2*i], a.r2[2*i+1]
}

// insertEntry inserts e into shard s — with a freshly probed radius,
// which it returns, when a plane for k > 0 is attached.
func (x *Index) insertEntry(s int, e rtree.Entry, k int) float64 {
	if k == 0 {
		x.trShards[s].Insert(e)
		return 0
	}
	r2 := x.RankRadius2(e.Pt, k)
	x.trShards[s].InsertValued(e, r2)
	return r2
}

// staleRadius addresses one stored radius a route change may have moved.
type staleRadius struct {
	shard int
	leaf  rtree.NodeID
	slot  int
	pt    geo.Point
}

// staleRadii lists the stored radii that adding (inclusive false:
// d² < r²) or removing (inclusive true: d² <= r²) a route with the given
// points can change. It must run before the route set changes; route
// changes do not restructure the TR-trees, so the addresses stay valid
// until reprobe.
func (x *Index) staleRadii(pts []geo.Point, inclusive bool) []staleRadius {
	rp := x.radii.Load()
	if rp == nil {
		return nil
	}
	var out []staleRadius
	for s, tree := range x.trShards {
		tree.DescendPlane(rp.shards[s], pts, func(leaf rtree.NodeID, ents []rtree.Entry, vals []float64) {
			for i, e := range ents {
				if d := geo.PointRouteDist2(e.Pt, pts); d < vals[i] || (inclusive && d == vals[i]) {
					out = append(out, staleRadius{shard: s, leaf: leaf, slot: i, pt: e.Pt})
				}
			}
		})
	}
	return out
}

// reprobe recomputes the listed radii against the current route set.
func (x *Index) reprobe(stale []staleRadius) {
	k := x.RadiusK()
	for _, st := range stale {
		x.trShards[st.shard].SetPlaneValue(st.leaf, st.slot, x.RankRadius2(st.pt, k))
	}
}

// CheckRadii verifies the radius plane against its definition: each
// stored radius equals a fresh RankRadius2 probe bit for bit, and each
// node maximum is the maximum of what lies beneath it. It costs a probe
// per endpoint — a test and debugging aid, not a serving path.
func (x *Index) CheckRadii() error {
	k := x.RadiusK()
	if k == 0 {
		return nil
	}
	for s, tree := range x.trShards {
		err := tree.CheckPlane(func(e rtree.Entry) float64 { return x.RankRadius2(e.Pt, k) })
		if err != nil {
			return fmt.Errorf("index: radius plane k=%d shard %d: %w", k, s, err)
		}
	}
	return nil
}
