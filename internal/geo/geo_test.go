package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0, 0}, Point{0, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want) {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.want*c.want) {
			t.Errorf("Dist2(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		b := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		return almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{math.Mod(ax, 1e3), math.Mod(ay, 1e3)}
		b := Point{math.Mod(bx, 1e3), math.Mod(by, 1e3)}
		c := Point{math.Mod(cx, 1e3), math.Mod(cy, 1e3)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestTrajectoryBounds(t *testing.T) {
	tr := &Trajectory{ID: 1, Points: []Point{{0, 5}, {2, 1}, {-1, 3}}}
	b := tr.Bounds()
	want := Rect{Min: Point{-1, 1}, Max: Point{2, 5}}
	if b != want {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
	empty := &Trajectory{}
	if !empty.Bounds().IsEmpty() {
		t.Error("empty trajectory should have empty bounds")
	}
}

func TestTrajectoryCentroid(t *testing.T) {
	tr := &Trajectory{Points: []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}}
	if got := tr.Centroid(); got != (Point{1, 1}) {
		t.Errorf("Centroid = %v", got)
	}
	if got := (&Trajectory{}).Centroid(); got != (Point{}) {
		t.Errorf("empty Centroid = %v", got)
	}
}

func TestTrajectoryLength(t *testing.T) {
	tr := &Trajectory{Points: []Point{{0, 0}, {3, 4}, {3, 5}}}
	if got := tr.Length(); !almostEq(got, 6) {
		t.Errorf("Length = %v, want 6", got)
	}
	if got := (&Trajectory{Points: []Point{{1, 1}}}).Length(); got != 0 {
		t.Errorf("single-point Length = %v", got)
	}
}

func TestTrajectoryClone(t *testing.T) {
	tr := &Trajectory{ID: 7, Points: []Point{{1, 2}, {3, 4}}}
	cp := tr.Clone()
	cp.Points[0].X = 99
	if tr.Points[0].X == 99 {
		t.Error("Clone should deep-copy points")
	}
	if cp.ID != 7 {
		t.Errorf("Clone ID = %d", cp.ID)
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Error("EmptyRect should be empty")
	}
	if e.Area() != 0 || e.Margin() != 0 {
		t.Error("empty rect area/margin should be 0")
	}
	r := e.ExtendPoint(Point{1, 1})
	if r.IsEmpty() || r.Min != (Point{1, 1}) || r.Max != (Point{1, 1}) {
		t.Errorf("extend of empty = %v", r)
	}
}

func TestRectUnionContains(t *testing.T) {
	a := Rect{Min: Point{0, 0}, Max: Point{1, 1}}
	b := Rect{Min: Point{2, 2}, Max: Point{3, 3}}
	u := a.Union(b)
	want := Rect{Min: Point{0, 0}, Max: Point{3, 3}}
	if u != want {
		t.Errorf("Union = %v, want %v", u, want)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Errorf("Union with empty = %v", got)
	}
	if got := EmptyRect().Union(b); got != b {
		t.Errorf("empty Union = %v", got)
	}
	if !u.Contains(Point{1.5, 1.5}) || u.Contains(Point{4, 0}) {
		t.Error("Contains misbehaves")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Min: Point{0, 0}, Max: Point{2, 2}}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{Min: Point{1, 1}, Max: Point{3, 3}}, true},
		{Rect{Min: Point{2, 2}, Max: Point{3, 3}}, true}, // touching corner
		{Rect{Min: Point{3, 3}, Max: Point{4, 4}}, false},
		{Rect{Min: Point{0, 3}, Max: Point{2, 4}}, false},
		{EmptyRect(), false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestRectDistPoint(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{2, 2}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},          // inside
		{Point{2, 2}, 0},          // corner
		{Point{5, 2}, 3},          // right of
		{Point{-3, -4}, 5},        // diagonal
		{Point{1, 4}, 2},          // above
		{Point{3, 3}, math.Sqrt2}, // corner diagonal
	}
	for _, c := range cases {
		if got := r.DistPoint(c.p); !almostEq(got, c.want) {
			t.Errorf("DistPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectMaxDistPoint(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{2, 2}}
	if got := r.MaxDistPoint(Point{0, 0}); !almostEq(got, 2*math.Sqrt2) {
		t.Errorf("MaxDistPoint corner = %v", got)
	}
	if got := r.MaxDistPoint(Point{1, 1}); !almostEq(got, math.Sqrt2) {
		t.Errorf("MaxDistPoint center = %v", got)
	}
	// MaxDist >= MinDist always.
	f := func(px, py float64) bool {
		p := Point{math.Mod(px, 100), math.Mod(py, 100)}
		return r.MaxDistPoint(p) >= r.DistPoint(p)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectDistRect(t *testing.T) {
	a := Rect{Min: Point{0, 0}, Max: Point{1, 1}}
	b := Rect{Min: Point{4, 5}, Max: Point{6, 7}}
	if got := a.DistRect(b); !almostEq(got, 5) {
		t.Errorf("DistRect = %v, want 5", got)
	}
	c := Rect{Min: Point{0.5, 0.5}, Max: Point{2, 2}}
	if got := a.DistRect(c); got != 0 {
		t.Errorf("overlapping DistRect = %v, want 0", got)
	}
}

func TestRectAreaMarginCenter(t *testing.T) {
	r := Rect{Min: Point{1, 1}, Max: Point{4, 3}}
	if got := r.Area(); !almostEq(got, 6) {
		t.Errorf("Area = %v", got)
	}
	if got := r.Margin(); !almostEq(got, 5) {
		t.Errorf("Margin = %v", got)
	}
	if got := r.Center(); got != (Point{2.5, 2}) {
		t.Errorf("Center = %v", got)
	}
}

func TestSegmentDistPoint(t *testing.T) {
	s := Segment{A: Point{0, 0}, B: Point{4, 0}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{2, 3}, 3},  // perpendicular onto interior
		{Point{-3, 4}, 5}, // beyond A
		{Point{7, 4}, 5},  // beyond B
		{Point{4, 0}, 0},  // endpoint
	}
	for _, c := range cases {
		if got := s.DistPoint(c.p); !almostEq(got, c.want) {
			t.Errorf("DistPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Degenerate segment behaves like a point.
	d := Segment{A: Point{1, 1}, B: Point{1, 1}}
	if got := d.DistPoint(Point{4, 5}); !almostEq(got, 5) {
		t.Errorf("degenerate DistPoint = %v", got)
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Segment{A: Point{0, 0}, B: Point{3, 4}}
	if got := s.Length(); !almostEq(got, 5) {
		t.Errorf("Length = %v", got)
	}
	if got := s.Centroid(); got != (Point{1.5, 2}) {
		t.Errorf("Centroid = %v", got)
	}
	b := s.Bounds()
	if b.Min != (Point{0, 0}) || b.Max != (Point{3, 4}) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestTrajectorySegments(t *testing.T) {
	tr := &Trajectory{Points: []Point{{0, 0}, {1, 0}, {1, 1}}}
	segs := tr.Segments()
	if len(segs) != 2 {
		t.Fatalf("Segments len = %d", len(segs))
	}
	if segs[0] != (Segment{A: Point{0, 0}, B: Point{1, 0}}) {
		t.Errorf("segs[0] = %v", segs[0])
	}
	if got := (&Trajectory{Points: []Point{{0, 0}}}).Segments(); got != nil {
		t.Errorf("single-point Segments = %v", got)
	}
}

func TestEnclosingSquare(t *testing.T) {
	ds := []*Trajectory{
		{Points: []Point{{0, 0}, {10, 2}}},
		{Points: []Point{{3, 8}}},
	}
	sq := EnclosingSquare(ds, 0)
	if sq.Max.X-sq.Min.X != sq.Max.Y-sq.Min.Y {
		t.Errorf("not square: %v", sq)
	}
	for _, tr := range ds {
		for _, p := range tr.Points {
			if !sq.Contains(p) {
				t.Errorf("square %v does not contain %v", sq, p)
			}
		}
	}
	// Pad grows the square.
	padded := EnclosingSquare(ds, 1)
	if padded.Max.X-padded.Min.X <= sq.Max.X-sq.Min.X {
		t.Error("pad did not grow square")
	}
	// Empty dataset yields the unit square.
	e := EnclosingSquare(nil, 0)
	if e.IsEmpty() {
		t.Error("empty dataset square should not be empty")
	}
	// All points identical: still a positive-side square.
	same := []*Trajectory{{Points: []Point{{5, 5}, {5, 5}}}}
	s2 := EnclosingSquare(same, 0)
	if s2.Max.X-s2.Min.X <= 0 {
		t.Errorf("degenerate square has non-positive side: %v", s2)
	}
}

func TestEnclosingSquareProperty(t *testing.T) {
	f := func(xs [8]float64, ys [8]float64) bool {
		tr := &Trajectory{}
		for i := range xs {
			tr.Points = append(tr.Points, Point{math.Mod(xs[i], 1e4), math.Mod(ys[i], 1e4)})
		}
		sq := EnclosingSquare([]*Trajectory{tr}, 0)
		for _, p := range tr.Points {
			if !sq.Contains(p) {
				return false
			}
		}
		return almostEq(sq.Max.X-sq.Min.X, sq.Max.Y-sq.Min.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mathMaxDistPoint and mathMaxDistRect are DistPoint and DistRect as
// written with math.Max, the reference the builtin-max kernels must
// match bit for bit.
func mathMaxDistPoint(r Rect, p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

func mathMaxDistRect(r, s Rect) float64 {
	dx := math.Max(0, math.Max(r.Min.X-s.Max.X, s.Min.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-s.Max.Y, s.Min.Y-r.Max.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

// TestRectDistBitIdentical: DistPoint and DistRect return exactly the
// bits of their math.Max forms — on random inputs, and on signed
// zeros, points on the boundary, and degenerate (point and segment)
// rectangles.
func TestRectDistBitIdentical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	coords := []float64{negZero, 0, 1, -1, 0.5, 2, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e300, -1e300}
	var rects []Rect
	var points []Point
	for _, a := range coords {
		for _, b := range coords {
			points = append(points, Point{a, b})
		}
	}
	for _, lo := range coords {
		for _, hi := range coords {
			if lo <= hi {
				rects = append(rects,
					Rect{Min: Point{lo, lo}, Max: Point{hi, hi}},
					Rect{Min: Point{lo, 0}, Max: Point{hi, 0}},   // segment
					Rect{Min: Point{lo, hi}, Max: Point{lo, hi}}) // point
			}
		}
	}
	for _, r := range rects {
		for _, p := range points {
			if got, want := r.DistPoint(p), mathMaxDistPoint(r, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v.DistPoint(%+v) = %v, math.Max form %v", r, p, got, want)
			}
		}
		for _, s := range rects {
			if got, want := r.DistRect(s), mathMaxDistRect(r, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v.DistRect(%+v) = %v, math.Max form %v", r, s, got, want)
			}
		}
	}
	f := func(x0, y0, w, h, px, py float64) bool {
		r := Rect{Min: Point{x0, y0}, Max: Point{x0 + math.Abs(w), y0 + math.Abs(h)}}
		p := Point{px, py}
		s := Rect{Min: p, Max: Point{px + math.Abs(h), py + math.Abs(w)}}
		return math.Float64bits(r.DistPoint(p)) == math.Float64bits(mathMaxDistPoint(r, p)) &&
			math.Float64bits(r.DistRect(s)) == math.Float64bits(mathMaxDistRect(r, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
