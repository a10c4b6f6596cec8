// Package oracle is the benchmark's ground truth for RkNNT answers. It
// evaluates Definition 5 of the paper directly — an endpoint takes the
// query as a k-nearest route iff fewer than k data routes are strictly
// closer to it than the query is — using nothing from the repository
// but geo.PointRouteDist2 (plus a bounding-box skip that cannot change
// the outcome). It imports neither core nor index, so a bug shared by
// the engine's pipelines cannot hide in it.
//
// Queries run along the street network, so a query stop is often a stop
// of several data routes as well, and those routes are exactly as far
// from an endpoint as the query is. Where the verdict hangs on such a tie
// the oracle says Tie and the caller accepts either answer: the engine's
// pipelines do not resolve every tie the way the definition does (see
// bench/README.md, "Ties").
package oracle

import "repro/internal/geo"

// Verdict is what the definition says about one endpoint or transition.
type Verdict int8

const (
	No  Verdict = iota // at least k routes are closer by more than rounding
	Tie                // the outcome depends on routes as far away as the query, to rounding
	Yes                // fewer than k routes are closer or tied
)

// tieEps is the relative difference of two squared distances below which
// they count as tied. Distances computed along different paths (a square
// root squared again, a block kernel) differ by a few units in the last
// place, 1e-16; distinct stops of a generated city never come this close.
const tieEps = 1e-12

// Oracle holds the route set answers are checked against.
type Oracle struct {
	routes [][]geo.Point
	boxes  []geo.Rect
}

// New returns an oracle over the given routes (each a stop sequence).
func New(routes [][]geo.Point) *Oracle {
	o := &Oracle{routes: routes, boxes: make([]geo.Rect, len(routes))}
	for i, r := range routes {
		o.boxes[i] = geo.RectOfPoints(r)
	}
	return o
}

// Takes reports whether point p takes query as one of its k nearest
// routes.
func (o *Oracle) Takes(p geo.Point, query []geo.Point, k int) Verdict {
	dq := geo.PointRouteDist2(p, query)
	lo, hi := dq*(1-tieEps), dq*(1+tieEps)
	closer, tied := 0, 0
	for i, r := range o.routes {
		if o.boxes[i].MinDist2(p) > hi {
			continue // no stop of r can be closer than the query or tied with it
		}
		switch d := geo.PointRouteDist2(p, r); {
		case d < lo:
			if closer++; closer >= k {
				return No
			}
		case d <= hi:
			tied++
		}
	}
	if closer+tied < k {
		return Yes
	}
	return Tie
}

// Matches reports whether a transition with the given endpoints belongs
// to the ∃RkNNT answer of query: one endpoint that takes it is enough.
func (o *Oracle) Matches(org, dst geo.Point, query []geo.Point, k int) Verdict {
	return max(o.Takes(org, query, k), o.Takes(dst, query, k))
}
