package geo

import (
	"math"
	"math/rand"
	"testing"
)

func randRect(rng *rand.Rand) Rect {
	a, b := randPoint(rng), randPoint(rng)
	return RectOf(a).ExpandPoint(b)
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect is not empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %v", e.Area())
	}
	if e.Margin() != 0 {
		t.Errorf("empty margin = %v", e.Margin())
	}
	r := RectOf(Pt(1, 2))
	if got := e.Union(r); got != r {
		t.Errorf("empty union = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("union empty = %v, want %v", got, r)
	}
	if e.Intersects(r) {
		t.Error("empty rect intersects")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 5)}
	for _, p := range []Point{Pt(0, 0), Pt(10, 5), Pt(5, 2), Pt(0, 5)} {
		if !r.Contains(p) {
			t.Errorf("should contain %v", p)
		}
	}
	for _, p := range []Point{Pt(-1, 0), Pt(11, 0), Pt(5, 6), Pt(5, -0.1)} {
		if r.Contains(p) {
			t.Errorf("should not contain %v", p)
		}
	}
}

func TestRectUnionContainsBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain %v and %v", u, a, b)
		}
		if u.Area()+1e-9 < a.Area() || u.Area()+1e-9 < b.Area() {
			t.Fatalf("union area shrank")
		}
	}
}

func TestRectIntersectsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b := randRect(rng), randRect(rng)
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("intersects not symmetric for %v %v", a, b)
		}
	}
}

func TestRectMinDist(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},   // inside
		{Pt(0, 0), 0},   // corner
		{Pt(-3, 5), 3},  // left
		{Pt(5, 14), 4},  // above
		{Pt(13, 14), 5}, // diagonal (3-4-5)
		{Pt(-3, -4), 5}, // diagonal
	}
	for _, tt := range tests {
		if got := r.MinDist(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// MinDist must lower-bound the distance from the query point to every point
// inside the rectangle, and be attained by some point of the rectangle.
func TestRectMinDistIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		r := randRect(rng)
		q := randPoint(rng)
		md := r.MinDist(q)
		for j := 0; j < 50; j++ {
			inside := Pt(
				r.Min.X+rng.Float64()*(r.Max.X-r.Min.X),
				r.Min.Y+rng.Float64()*(r.Max.Y-r.Min.Y),
			)
			if q.Dist(inside) < md-1e-9 {
				t.Fatalf("MinDist %v not a lower bound: point %v at %v", md, inside, q.Dist(inside))
			}
		}
	}
}

// TestRectMaxDist2Exact pins the property tie-sensitive callers rely on:
// MaxDist2 is an upper bound on Dist2 with no tolerance at all, and it is
// attained, bit for bit, at a corner.
func TestRectMaxDist2Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		r := randRect(rng)
		q := randPoint(rng)
		xd2 := r.MaxDist2(q)
		attained := false
		for _, c := range r.Corners() {
			d2 := c.Dist2(q)
			if d2 > xd2 {
				t.Fatalf("corner %v at %v beyond MaxDist2 %v", c, d2, xd2)
			}
			attained = attained || d2 == xd2
		}
		if !attained {
			t.Fatalf("MaxDist2 %v of %v from %v attained at no corner", xd2, r, q)
		}
		for j := 0; j < 50; j++ {
			inside := Pt(
				r.Min.X+rng.Float64()*(r.Max.X-r.Min.X),
				r.Min.Y+rng.Float64()*(r.Max.Y-r.Min.Y),
			)
			if d2 := inside.Dist2(q); d2 > xd2 {
				t.Fatalf("inner point %v at %v beyond MaxDist2 %v", inside, d2, xd2)
			}
		}
	}
}

func TestMinDistRoute(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	route := []Point{Pt(5, 0), Pt(3, 0), Pt(0, 9)}
	if got := r.MinDistRoute(route); math.Abs(got-2) > 1e-12 {
		t.Errorf("MinDistRoute = %v, want 2", got)
	}
	if got := r.MinDistRoute(nil); !math.IsInf(got, 1) {
		t.Errorf("MinDistRoute(empty) = %v, want +Inf", got)
	}
}

func TestRectOfPoints(t *testing.T) {
	pts := []Point{Pt(3, -1), Pt(0, 4), Pt(-2, 2)}
	r := RectOfPoints(pts)
	want := Rect{Min: Pt(-2, -1), Max: Pt(3, 4)}
	if r != want {
		t.Errorf("RectOfPoints = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("MBR does not contain %v", p)
		}
	}
}

func TestEnlargement(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	s := Rect{Min: Pt(1, 1), Max: Pt(3, 3)}
	// union is (0,0)-(3,3): area 9, r area 4 => enlargement 5
	if got := r.Enlargement(s); math.Abs(got-5) > 1e-12 {
		t.Errorf("Enlargement = %v, want 5", got)
	}
	inner := Rect{Min: Pt(0.5, 0.5), Max: Pt(1, 1)}
	if got := r.Enlargement(inner); got != 0 {
		t.Errorf("Enlargement of contained rect = %v, want 0", got)
	}
}

// TestUnionAreaMatchesUnion pins UnionArea to Union().Area() on a coarse
// grid where zero extents, duplicates, containment and signed zeros are
// common: the R-tree split heuristics compare these numbers, and tree
// shapes (hence serialized arenas) depend on the comparisons.
func TestUnionAreaMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	negZero := math.Copysign(0, -1)
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return negZero
		case 2:
			return rng.NormFloat64() * 1e6
		}
		return float64(rng.Intn(9) - 4)
	}
	rect := func() Rect {
		r := RectOf(Pt(coord(), coord()))
		if rng.Intn(2) == 0 {
			r = r.ExpandPoint(Pt(coord(), coord()))
		}
		return r
	}
	for i := 0; i < 20000; i++ {
		r, s := rect(), rect()
		if got, want := r.UnionArea(s), r.Union(s).Area(); got != want {
			t.Fatalf("UnionArea(%v, %v) = %v, Union().Area() = %v", r, s, got, want)
		}
		if got, want := r.Enlargement(s), r.Union(s).Area()-r.Area(); got != want {
			t.Fatalf("Enlargement(%v, %v) = %v, want %v", r, s, got, want)
		}
	}
	if got := EmptyRect().Enlargement(Rect{Min: Pt(0, 0), Max: Pt(2, 3)}); got != 6 {
		t.Errorf("Enlargement of the empty rectangle = %v, want 6", got)
	}
}

func TestCenterAndCorners(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 2)}
	if got := r.Center(); got != Pt(2, 1) {
		t.Errorf("Center = %v", got)
	}
	cs := r.Corners()
	for _, c := range cs {
		if !r.Contains(c) {
			t.Errorf("corner %v outside rect", c)
		}
	}
}
