// Package geo provides the geometric primitives underlying REPOSE:
// points, trajectories, axis-aligned rectangles, and the Euclidean
// distance helpers used by the similarity measures and index bounds.
//
// Coordinates are plain float64 pairs. The paper treats longitude and
// latitude as Euclidean coordinates (Definition 2 uses the Euclidean
// distance d), and so do we.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// Point is a single trajectory sample: an (X, Y) position.
// X is the longitude-like axis and Y the latitude-like axis.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q.
// It avoids the square root for comparisons.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns the component-wise sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the component-wise difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Trajectory is a finite time-ordered sequence of sample points
// (Definition 1). The ID identifies the trajectory within a dataset.
//
// Times optionally timestamps each sample: when non-nil it must have
// exactly one entry per point, non-decreasing (Unix seconds or any
// other monotone integer clock — the library only compares values).
// A nil Times leaves the trajectory purely spatial; time-windowed
// queries then never match it.
type Trajectory struct {
	ID     int
	Points []Point
	Times  []int64
}

// Len returns the number of sample points.
func (t *Trajectory) Len() int { return len(t.Points) }

// Clone returns a deep copy of t.
func (t *Trajectory) Clone() *Trajectory {
	pts := make([]Point, len(t.Points))
	copy(pts, t.Points)
	var ts []int64
	if t.Times != nil {
		ts = make([]int64, len(t.Times))
		copy(ts, t.Times)
	}
	return &Trajectory{ID: t.ID, Points: pts, Times: ts}
}

// ValidTimes reports whether the trajectory's timestamps are
// well-formed: absent, or one per point and non-decreasing.
func (t *Trajectory) ValidTimes() bool {
	if t.Times == nil {
		return true
	}
	if len(t.Times) != len(t.Points) {
		return false
	}
	for i := 1; i < len(t.Times); i++ {
		if t.Times[i] < t.Times[i-1] {
			return false
		}
	}
	return true
}

// TimeSpan returns the closed timestamp range [first, last] and
// whether the trajectory is timestamped at all.
func (t *Trajectory) TimeSpan() (from, to int64, ok bool) {
	if len(t.Times) == 0 {
		return 0, 0, false
	}
	return t.Times[0], t.Times[len(t.Times)-1], true
}

// TimeWindow returns the index range [lo, hi) of samples whose
// timestamp lies in the closed window [from, to]. Times are
// non-decreasing, so the in-window samples form one contiguous run;
// lo == hi means no sample falls inside the window (including the
// untimestamped case).
func (t *Trajectory) TimeWindow(from, to int64) (lo, hi int) {
	n := len(t.Times)
	if n == 0 || n != len(t.Points) || from > to {
		return 0, 0
	}
	lo = sort.Search(n, func(i int) bool { return t.Times[i] >= from })
	hi = sort.Search(n, func(i int) bool { return t.Times[i] > to })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Bounds returns the minimum bounding rectangle of the trajectory.
// It returns the empty rectangle for an empty trajectory.
func (t *Trajectory) Bounds() Rect {
	if len(t.Points) == 0 {
		return EmptyRect()
	}
	r := Rect{Min: t.Points[0], Max: t.Points[0]}
	for _, p := range t.Points[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// Centroid returns the mean of the trajectory's sample points.
// It returns the zero point for an empty trajectory.
func (t *Trajectory) Centroid() Point {
	if len(t.Points) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range t.Points {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(t.Points))
	return Point{c.X / n, c.Y / n}
}

// Length returns the travelled path length (sum of segment lengths).
func (t *Trajectory) Length() float64 {
	var sum float64
	for i := 1; i < len(t.Points); i++ {
		sum += t.Points[i-1].Dist(t.Points[i])
	}
	return sum
}

// Rect is an axis-aligned rectangle, closed on all sides.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the canonical empty rectangle, for which IsEmpty
// reports true. Extending an empty rectangle by a point yields the
// degenerate rectangle covering exactly that point.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// IsEmpty reports whether r covers no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// ExtendPoint returns the smallest rectangle covering both r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
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

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Area returns the area of r (0 for empty rectangles).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Margin returns half the perimeter of r (0 for empty rectangles).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) + (r.Max.Y - r.Min.Y)
}

// DistPoint returns the minimum Euclidean distance from p to r
// (0 when p is inside r).
func (r Rect) DistPoint(p Point) float64 {
	dx := max(0, r.Min.X-p.X, p.X-r.Max.X)
	dy := max(0, r.Min.Y-p.Y, p.Y-r.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// DistRect returns the minimum Euclidean distance between r and s
// (0 when they intersect).
func (r Rect) DistRect(s Rect) float64 {
	dx := max(0, r.Min.X-s.Max.X, s.Min.X-r.Max.X)
	dy := max(0, r.Min.Y-s.Max.Y, s.Min.Y-r.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// MaxDistPoint returns the maximum Euclidean distance from p to any
// point of r. It is used for pessimistic bounds.
func (r Rect) MaxDistPoint(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return math.Sqrt(dx*dx + dy*dy)
}

// Segment is a directed line segment between two points. DFT indexes
// trajectories at segment granularity.
type Segment struct {
	A, B Point
}

// Bounds returns the minimum bounding rectangle of s.
func (s Segment) Bounds() Rect {
	return Rect{
		Min: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Max: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

// Centroid returns the midpoint of s.
func (s Segment) Centroid() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// DistPoint returns the minimum distance from p to the segment.
func (s Segment) DistPoint(p Point) float64 {
	ab := s.B.Sub(s.A)
	ap := p.Sub(s.A)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return p.Dist(s.A)
	}
	t := (ap.X*ab.X + ap.Y*ab.Y) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	proj := s.A.Add(ab.Scale(t))
	return p.Dist(proj)
}

// Segments decomposes the trajectory into its consecutive segments.
// A trajectory with fewer than two points yields no segments.
func (t *Trajectory) Segments() []Segment {
	if len(t.Points) < 2 {
		return nil
	}
	segs := make([]Segment, 0, len(t.Points)-1)
	for i := 1; i < len(t.Points); i++ {
		segs = append(segs, Segment{A: t.Points[i-1], B: t.Points[i]})
	}
	return segs
}

// EnclosingSquare returns the smallest axis-aligned square that
// contains every trajectory in ds, expanded by pad on each side.
// It is the region A of the paper (Section III-A): a square with side
// length U enclosing all trajectories. The square is anchored at the
// rectangle's min corner.
func EnclosingSquare(ds []*Trajectory, pad float64) Rect {
	r := EmptyRect()
	for _, t := range ds {
		for _, p := range t.Points {
			r = r.ExtendPoint(p)
		}
	}
	if r.IsEmpty() {
		return Rect{Min: Point{0, 0}, Max: Point{1, 1}}
	}
	r.Min.X -= pad
	r.Min.Y -= pad
	r.Max.X += pad
	r.Max.Y += pad
	side := math.Max(r.Max.X-r.Min.X, r.Max.Y-r.Min.Y)
	if side == 0 {
		side = 1
	}
	return Rect{Min: r.Min, Max: Point{r.Min.X + side, r.Min.Y + side}}
}
