package core

import (
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/rtree"
)

// radiusScratch is the per-probe scratch of RankRadius2: the best-first
// heap, one gather block and the routes counted so far. Pooled so a probe
// allocates nothing once the heap has grown to its working size.
type radiusScratch struct {
	h    minHeap
	gb   gatherBlock
	seen []model.RouteID
}

var radiusPool = sync.Pool{New: func() any { return new(radiusScratch) }}

// RankRadius2 returns r²_k(t): the squared distance from t to its k-th
// nearest distinct route, or +Inf when fewer than k routes are indexed;
// k must be at least 1, as Options.validate demands of every query. It
// depends on t, k and the route set only, and turns the rank test into
// one comparison that holds for every query route Q:
//
//	TakesQueryAsKNN(x, Q, t, k)  ⇔  PointRouteDist2(t, Q) <= RankRadius2(x, t, k)
//
// (fewer than k routes strictly closer than Q ⇔ the k-th nearest route is
// not strictly closer). The traversal is best-first over the RR-tree in
// ascending squared distance; every value it compares or returns is a
// Point.Dist2, the arithmetic BruteForce uses, so the equivalence is exact
// on ties. Like every query path it only reads the index.
func RankRadius2(x *index.Index, t geo.Point, k int) float64 {
	if k > x.NumRoutes() {
		return math.Inf(1)
	}
	tree := x.RouteTree()
	sc := radiusPool.Get().(*radiusScratch)
	defer radiusPool.Put(sc)
	gb := &sc.gb
	sc.seen = sc.seen[:0]
	root := tree.Root()
	sc.h = append(sc.h[:0], heapItem{node: root, dist: tree.Rect(root).MinDist2(t)})
	for sc.h.Len() > 0 {
		it := sc.h.popItem()
		if it.node == rtree.NilNode {
			if containsRoute(sc.seen, it.entry.ID) {
				continue
			}
			sc.seen = append(sc.seen, it.entry.ID)
			if len(sc.seen) == k {
				return it.dist
			}
			continue
		}
		n := it.node
		if tree.IsLeaf(n) {
			for _, e := range tree.Entries(n) {
				// A route already counted was popped at a smaller distance.
				if !containsRoute(sc.seen, e.ID) {
					sc.h.push(heapItem{node: rtree.NilNode, entry: e, dist: e.Pt.Dist2(t)})
				}
			}
			continue
		}
		cnt := tree.GatherChildRects(n, gb.xlo[:], gb.ylo[:], gb.xhi[:], gb.yhi[:])
		geo.MinDist2Block(gb.xlo[:], gb.ylo[:], gb.xhi[:], gb.yhi[:], t, gb.dist[:cnt])
		kids := tree.Children(n)
		for i := 0; i < cnt; i++ {
			sc.h.push(heapItem{node: kids[i], dist: gb.dist[i]})
		}
	}
	return math.Inf(1) // unreachable while the RR-tree holds every route's points
}
