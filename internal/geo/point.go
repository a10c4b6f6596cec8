// Package geo provides the planar geometry kernel used by the RkNNT
// implementation: points, rectangles (MBRs), perpendicular-bisector
// half-plane tests and convex polygon clipping.
//
// All coordinates are planar (kilometres in the synthetic workloads).
// Callers working with latitude/longitude are expected to project first;
// the RkNNT algorithms are agnostic to the unit as long as Euclidean
// distance is meaningful.
package geo

import "math"

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// MaxCoord bounds the coordinates the index and the query entry points
// accept. 1e200 is a perfectly good float64 and valid JSON, but it squares
// to +Inf, and a rank test on +Inf or NaN distances (d < +Inf counts every
// route, d <= NaN none) no longer means what Definition 4 says. Below
// MaxCoord every Dist2, MinDist2 and MaxDist2 is finite.
const MaxCoord = 1e150

// Finite reports whether both coordinates are numbers within ±MaxCoord.
// NaN and ±Inf fail.
func (p Point) Finite() bool {
	return math.Abs(p.X) <= MaxCoord && math.Abs(p.Y) <= MaxCoord
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q.
// It is cheaper than Dist and sufficient for comparisons.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// PolylineLen returns the travel distance along the points: the sum of
// consecutive point distances (Equation 6 of the paper).
func PolylineLen(pts []Point) float64 {
	var sum float64
	for i := 1; i < len(pts); i++ {
		sum += pts[i-1].Dist(pts[i])
	}
	return sum
}

// PointRouteDist returns dist(t, R): the minimum Euclidean distance from t
// to any point of the route (Definition 3 / Equation 1 of the paper).
// Routes are treated as discrete point sequences, not segments, exactly as
// in the paper. It returns +Inf for an empty route.
func PointRouteDist(t Point, route []Point) float64 {
	best := math.Inf(1)
	for _, r := range route {
		if d := t.Dist2(r); d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}

// PointRouteDist2 is PointRouteDist without the final square root.
func PointRouteDist2(t Point, route []Point) float64 {
	best := math.Inf(1)
	for _, r := range route {
		if d := t.Dist2(r); d < best {
			best = d
		}
	}
	return best
}
