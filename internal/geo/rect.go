package geo

import "math"

// Rect is an axis-aligned rectangle (minimum bounding rectangle).
// A Rect with Min > Max on either axis is empty.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union: an inverted rectangle
// that contains nothing.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// RectOf returns the zero-area rectangle covering just p.
func RectOf(p Point) Rect { return Rect{Min: p, Max: p} }

// RectOfPoints returns the MBR of pts. It returns EmptyRect() for no points.
func RectOfPoints(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExpandPoint(p)
	}
	return r
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool {
	return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y
}

// Contains reports whether p lies inside r (inclusive of the boundary).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// ExpandPoint returns the smallest rectangle covering both r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	return r.Union(RectOf(p))
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Area returns the area of r (0 for empty rectangles).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Margin returns half the perimeter of r.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) + (r.Max.Y - r.Min.Y)
}

// UnionArea is r.Union(s).Area() for two non-empty rectangles, computed
// with plain comparisons so that it inlines (Union's math.Min/math.Max do
// not): the R-tree's ChooseLeaf and split heuristics evaluate thousands of
// these per insert. The two can differ only in the sign of a zero extent
// and in how NaN propagates, never in how two results compare.
func (r Rect) UnionArea(s Rect) float64 {
	if s.Min.X < r.Min.X {
		r.Min.X = s.Min.X
	}
	if s.Min.Y < r.Min.Y {
		r.Min.Y = s.Min.Y
	}
	if s.Max.X > r.Max.X {
		r.Max.X = s.Max.X
	}
	if s.Max.Y > r.Max.Y {
		r.Max.Y = s.Max.Y
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Enlargement returns the area growth needed for r to also cover s.
func (r Rect) Enlargement(s Rect) float64 {
	if r.IsEmpty() || s.IsEmpty() {
		return r.Union(s).Area() - r.Area()
	}
	return r.UnionArea(s) - r.Area()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Corners returns the four corners of r in counter-clockwise order.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Max.X, r.Max.Y},
		{r.Min.X, r.Max.Y},
	}
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (0 if p is inside r). This is the classical MINDIST metric used for
// best-first R-tree traversal.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 is MinDist squared.
func (r Rect) MinDist2(p Point) float64 {
	var dx, dy float64
	if p.X < r.Min.X {
		dx = r.Min.X - p.X
	} else if p.X > r.Max.X {
		dx = p.X - r.Max.X
	}
	if p.Y < r.Min.Y {
		dy = r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// MaxDist2 returns the squared maximum Euclidean distance from p to any
// point of r. It is computed without a square root: it equals Point.Dist2
// to the farthest corner bit for bit and is never below Dist2 to any
// point of r, so squared-distance comparisons against it decide ties the
// way point-to-point comparisons do. (A square-rooted MaxDist, squared
// again by the caller, can land one ulp under the exact value and turn a
// tie into "strictly closer"; there is deliberately no such method.)
func (r Rect) MaxDist2(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return dx*dx + dy*dy
}

// MinDistRoute returns min over q in route of MinDist(q, r): the MINDIST
// from a multi-point query to the rectangle (Equation 3 of the paper).
func (r Rect) MinDistRoute(route []Point) float64 {
	best := math.Inf(1)
	for _, q := range route {
		if d := r.MinDist2(q); d < best {
			best = d
		}
	}
	return math.Sqrt(best)
}
