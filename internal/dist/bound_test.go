package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repose/internal/geo"
	"repose/internal/grid"
)

var boundRegion = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}

// refPath returns the reference cell sequence of tr on g.
func refPath(g *grid.Grid, points []geo.Point) []uint64 {
	return g.Reference(&geo.Trajectory{Points: points})
}

// memberSeq draws a random member trajectory, clamped into the grid
// region: the bounds' precondition is that indexed trajectories lie
// inside the region (repose.Build guarantees it via EnclosingSquare),
// since the grid clamps out-of-region points into boundary cells they
// are not actually inside. Queries carry no such precondition and the
// tests leave them unclamped.
func memberSeq(rng *rand.Rand, maxLen int) []geo.Point {
	out := randomSeq(rng, maxLen)
	for i, p := range out {
		out[i] = geo.Point{
			X: math.Min(math.Max(p.X, boundRegion.Min.X), boundRegion.Max.X),
			Y: math.Min(math.Max(p.Y, boundRegion.Min.Y), boundRegion.Max.Y),
		}
	}
	return out
}

// quickDTWCount is how many random cases the admissibility tests give
// DTW on top of the all-measure pass: its bound is the warping-column
// DP, the most intricate of the six.
const quickDTWCount = 2000

// TestBounderAdmissibleQuick walks a bounder down the reference path
// of a random trajectory and checks, at every prefix, that LBo never
// exceeds the exact distance — the node-bound half of the
// admissibility contract documented in doc.go. The trajectory stands
// for a subtree member whose path passes through every prefix node.
//
// Along the same paths, PeekLBo(z) taken before ExtendZ(z) never
// exceeds LBo afterwards, bit for bit, for the member's own next cell
// and for a random cell of the grid, incomplete and complete, from
// depth 0 on.
func TestBounderAdmissibleQuick(t *testing.T) {
	check := func(measures []Measure) func(seed int64, bitsRaw uint8) bool {
		return func(seed int64, bitsRaw uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			g, err := grid.NewWithBits(boundRegion, int(bitsRaw)%4+2)
			if err != nil {
				t.Fatal(err)
			}
			tr := memberSeq(rng, 10)
			q := randomSeq(rng, 8)
			zs := refPath(g, tr)
			for _, m := range measures {
				exact := Distance(m, q, tr, testParams)
				b := NewBounder(m, q, g.HalfDiagonal(), testParams)
				pb := NewQueryBounds(m, q, g, testParams, false).Root()
				meta := NodeMeta{MinLen: len(tr), MaxLen: len(tr)}
				for i, z := range zs {
					meta.MaxDepthBelow = len(zs) - 1 - i
					stray := g.CellOf(geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}).Z
					fork := pb.Fork()
					checkPeek(t, m, fork, stray, meta, i)
					fork.Release()
					checkPeek(t, m, pb, z, meta, i)

					b.Extend(g.CellByZ(z))
					if lb := b.LBo(meta); lb > exact+1e-9 {
						t.Fatalf("%v: depth %d/%d LBo %v > exact %v", m, i+1, len(zs), lb, exact)
					}
				}
			}
			return true
		}
	}
	if err := quick.Check(check(Measures()), &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(check([]Measure{DTW}), &quick.Config{MaxCount: quickDTWCount}); err != nil {
		t.Error(err)
	}
}

// checkPeek extends b by z after peeking at it, and fails unless the
// peek is at most the extended path's LBo under meta and under meta
// made complete. depth is b's depth before the extension.
func checkPeek(t *testing.T, m Measure, b *PathBounder, z uint64, meta NodeMeta, depth int) {
	t.Helper()
	peek := b.PeekLBo(z)
	b.ExtendZ(z)
	complete := meta
	complete.MaxDepthBelow = 0
	for _, nm := range []NodeMeta{meta, complete} {
		if lb := b.LBo(nm); peek > lb {
			t.Fatalf("%v: depth %d, cell %d, below %d: PeekLBo %v > LBo %v after the extension", m, depth, z, nm.MaxDepthBelow, peek, lb)
		}
	}
}

// cellSumDTW is the DTW one-side bound the warping column replaced:
// the larger of the sum over path cells of the cell's distance to the
// nearest query point and the first cell's distance to q[0], and, when
// the path is complete, the sum over query points of the distance to
// the nearest path cell.
func cellSumDTW(q []geo.Point, cells []grid.Cell, complete bool) float64 {
	sumCellMin := 0.0
	minD := make([]float64, len(q))
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	for _, c := range cells {
		cmin := math.Inf(1)
		for i, p := range q {
			d := c.Rect.DistPoint(p)
			cmin = math.Min(cmin, d)
			minD[i] = math.Min(minD[i], d)
		}
		sumCellMin += cmin
	}
	lb := math.Max(sumCellMin, cells[0].Rect.DistPoint(q[0]))
	if complete {
		s := 0.0
		for _, d := range minD {
			s += d
		}
		lb = math.Max(lb, s)
	}
	return lb
}

// TestDTWPathBoundDominatesCellSums: at every depth of random
// run-collapsed paths, complete or not, DTW's warping-column LBo is at
// least the cell-min sums it replaced, and strictly larger on a
// substantial share of them: the new bound only ever prunes more.
func TestDTWPathBoundDominatesCellSums(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD7A))
	total, larger := 0, 0
	for n := 0; n < 3000; n++ {
		g, err := grid.NewWithBits(boundRegion, 2+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		tr := memberSeq(rng, 12)
		q := randomSeq(rng, 8)
		zs := refPath(g, tr)
		cells := make([]grid.Cell, len(zs))
		b := NewBounder(DTW, q, g.HalfDiagonal(), testParams)
		for i, z := range zs {
			cells[i] = g.CellByZ(z)
			b.Extend(cells[i])
			for _, below := range []int{len(zs) - 1 - i, 0} {
				complete := below == 0
				lb := b.LBo(NodeMeta{MinLen: len(tr), MaxLen: len(tr), MaxDepthBelow: below})
				old := cellSumDTW(q, cells[:i+1], complete)
				if lb < old-1e-9 {
					t.Fatalf("case %d depth %d/%d complete=%v: LBo %v below the cell-min sums %v (|q|=%d)", n, i+1, len(zs), complete, lb, old, len(q))
				}
				total++
				if lb > old+1e-9 {
					larger++
				}
			}
		}
	}
	share := float64(larger) / float64(total)
	t.Logf("warping column strictly above the cell-min sums in %d of %d bounds (%.2f)", larger, total, share)
	if share < 0.40 {
		t.Fatalf("the warping column beat the cell-min sums in only %d of %d bounds", larger, total)
	}
}

// TestDTWPathBoundEdgeShapes pins DTW's LBo where the warping column
// has one row or one step. With one query point every alignment
// matches it to every path cell, so the bound is the sum of its cell
// distances, complete or not. On a one-cell path the column is the
// prefix sums of the query's distances to that cell: q[0]'s distance
// incomplete, the whole sum complete. Both equal the cell-min sums
// exactly, and stay below the exact distance to members drawn from the
// path.
func TestDTWPathBoundEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1CE11))
	g, err := grid.NewWithBits(boundRegion, 3)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 200; n++ {
		var q []geo.Point
		var zs []uint64
		if n%2 == 0 {
			q = randomSeq(rng, 1) // |q| = 1
			zs = refPath(g, memberSeq(rng, 10))
		} else {
			q = randomSeq(rng, 8)
			zs = []uint64{g.ZOf(memberSeq(rng, 1)[0])} // one-cell path
		}
		cells := make([]grid.Cell, len(zs))
		b := NewBounder(DTW, q, g.HalfDiagonal(), testParams)
		sum := 0.0
		for i, z := range zs {
			cells[i] = g.CellByZ(z)
			b.Extend(cells[i])
			sum += cells[i].Rect.DistPoint(q[0])
			for _, complete := range []bool{false, true} {
				meta := NodeMeta{MaxDepthBelow: 1}
				if complete {
					meta.MaxDepthBelow = 0
				}
				lb := b.LBo(meta)
				want := sum
				if len(zs) == 1 && complete {
					want = 0
					for _, p := range q {
						want += cells[0].Rect.DistPoint(p)
					}
				}
				if lb != want || lb != cellSumDTW(q, cells[:i+1], complete) {
					t.Fatalf("case %d (|q|=%d, %d cells) depth %d complete=%v: LBo %v, want %v = the cell-min sums %v",
						n, len(q), len(zs), i+1, complete, lb, want, cellSumDTW(q, cells[:i+1], complete))
				}
			}
		}
		leaf := b.LBt(LeafMeta{})
		for _, mem := range leafMembers(rng, g, zs, 3) {
			if exact := Distance(DTW, q, mem, testParams); leaf > exact+1e-9 {
				t.Fatalf("case %d (|q|=%d, %d cells): LBt %v > exact %v", n, len(q), len(zs), leaf, exact)
			}
		}
	}
}

// TestBounderAdmissibleRearrangedQuick repeats the walk with the path
// cells deduplicated and shuffled, the shape the z-value
// re-arrangement optimization produces. Only Hausdorff — the one
// order-independent measure — is ever built that way.
func TestBounderAdmissibleRearrangedQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := grid.NewWithBits(boundRegion, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr := memberSeq(rng, 10)
		q := randomSeq(rng, 8)
		seen := map[uint64]bool{}
		var zs []uint64
		for _, z := range refPath(g, tr) {
			if !seen[z] {
				seen[z] = true
				zs = append(zs, z)
			}
		}
		rng.Shuffle(len(zs), func(i, j int) { zs[i], zs[j] = zs[j], zs[i] })
		exact := Distance(Hausdorff, q, tr, testParams)
		b := NewBounder(Hausdorff, q, g.HalfDiagonal(), testParams)
		meta := NodeMeta{MinLen: len(tr), MaxLen: len(tr)}
		for i, z := range zs {
			b.Extend(g.CellByZ(z))
			meta.MaxDepthBelow = len(zs) - 1 - i
			if lb := b.LBo(meta); lb > exact+1e-9 {
				t.Fatalf("depth %d: LBo %v > exact %v", i+1, lb, exact)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// leafMembers samples trajectories whose reference trajectory is
// exactly zs: one or more points inside each successive cell.
func leafMembers(rng *rand.Rand, g *grid.Grid, zs []uint64, count int) [][]geo.Point {
	members := make([][]geo.Point, count)
	for i := range members {
		var pts []geo.Point
		for _, z := range zs {
			r := g.CellByZ(z).Rect
			for n := 1 + rng.Intn(2); n > 0; n-- {
				pts = append(pts, geo.Point{
					X: r.Min.X + rng.Float64()*(r.Max.X-r.Min.X),
					Y: r.Min.Y + rng.Float64()*(r.Max.Y-r.Min.Y),
				})
			}
		}
		members[i] = pts
	}
	return members
}

// TestLeafBoundAdmissibleQuick builds synthetic leaves — several
// trajectories sharing one reference trajectory — and checks that LBt
// (including the metric Dmax term) never exceeds the exact distance
// to any member: the leaf-bound half of the admissibility contract.
func TestLeafBoundAdmissibleQuick(t *testing.T) {
	check := func(measures []Measure) func(seed int64, bitsRaw uint8) bool {
		return func(seed int64, bitsRaw uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			g, err := grid.NewWithBits(boundRegion, int(bitsRaw)%4+2)
			if err != nil {
				t.Fatal(err)
			}
			zs := refPath(g, memberSeq(rng, 8))
			members := leafMembers(rng, g, zs, 1+rng.Intn(4))
			refPts := g.ReferencePoints(zs)
			q := randomSeq(rng, 8)
			for _, m := range measures {
				meta := LeafMeta{NodeMeta: NodeMeta{MinLen: math.MaxInt32, MaxLen: 0}}
				for _, mem := range members {
					meta.MinLen = min(meta.MinLen, len(mem))
					meta.MaxLen = max(meta.MaxLen, len(mem))
					if m.IsMetric() { // as rptrie's finalize does
						meta.Dmax = math.Max(meta.Dmax, Distance(m, mem, refPts, testParams))
					}
				}
				b := NewBounder(m, q, g.HalfDiagonal(), testParams)
				for _, z := range zs {
					b.Extend(g.CellByZ(z))
				}
				lb := b.LBt(meta)
				for _, mem := range members {
					if exact := Distance(m, q, mem, testParams); lb > exact+1e-9 {
						t.Fatalf("%v: LBt %v > exact %v (|ref|=%d, Dmax=%v)",
							m, lb, exact, len(zs), meta.Dmax)
					}
				}
			}
			return true
		}
	}
	if err := quick.Check(check(Measures()), &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(check([]Measure{DTW}), &quick.Config{MaxCount: quickDTWCount}); err != nil {
		t.Error(err)
	}
}

// TestBounderCloneIndependence: extending the original after a Clone
// must not disturb the clone, and a cloned descent must produce
// exactly the bounds a fresh descent does — the property the search
// relies on when siblings share a parent's bound state.
func TestBounderCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := grid.NewWithBits(boundRegion, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := memberSeq(rng, 10)
	q := randomSeq(rng, 6)
	zs := refPath(g, tr)
	if len(zs) < 2 {
		zs = append(zs, zs[0]^1)
	}
	for _, m := range Measures() {
		meta := NodeMeta{MinLen: len(tr), MaxLen: len(tr)}
		fresh := NewBounder(m, q, g.HalfDiagonal(), testParams)
		half := len(zs) / 2
		for _, z := range zs[:half] {
			fresh.Extend(g.CellByZ(z))
		}
		clone := fresh.Clone()
		before := clone.LBo(meta)
		// Diverge the original; the clone must not move.
		fresh.Extend(g.CellByZ(zs[len(zs)-1]))
		if after := clone.LBo(meta); after != before {
			t.Fatalf("%v: clone LBo changed %v → %v after original extended", m, before, after)
		}
		// The clone finishes the descent identically to a fresh walk.
		for _, z := range zs[half:] {
			clone.Extend(g.CellByZ(z))
		}
		direct := NewBounder(m, q, g.HalfDiagonal(), testParams)
		for _, z := range zs {
			direct.Extend(g.CellByZ(z))
		}
		if a, b := clone.LBo(meta), direct.LBo(meta); a != b {
			t.Fatalf("%v: cloned descent LBo %v != fresh descent %v", m, a, b)
		}
	}
}

// TestBounderZeroDepth: before any Extend the bounder knows nothing
// and must return the trivial bound.
func TestBounderZeroDepth(t *testing.T) {
	q := pts(1, 1, 2, 2)
	for _, m := range Measures() {
		b := NewBounder(m, q, 0.1, testParams)
		if lb := b.LBo(NodeMeta{MinLen: 1, MaxLen: 5}); lb != 0 {
			t.Errorf("%v: zero-depth LBo = %v", m, lb)
		}
	}
}

// checkMemo looks z up (supplying c when the test materialized the
// cell itself) and cross-checks the table against the test's own map:
// a z seen before resolves to the entry it was given then, a new one
// appends exactly one entry.
func checkMemo(t *testing.T, qb *QueryBounds, seen map[uint64]int, z uint64, have bool, c grid.Cell) *cellEntry {
	t.Helper()
	e := qb.cell(z, have, c)
	if idx, ok := seen[z]; ok {
		if e != &qb.cells[idx] || len(qb.cells) != len(seen) {
			t.Fatalf("z=%#x: revisit resolved to another entry than cells[%d] (%d entries for %d distinct cells)", z, idx, len(qb.cells), len(seen))
		}
		return e
	}
	seen[z] = len(qb.cells) - 1
	if len(qb.cells) != len(seen) || e != &qb.cells[len(qb.cells)-1] {
		t.Fatalf("z=%#x: first sight left %d entries for %d distinct cells", z, len(qb.cells), len(seen))
	}
	return e
}

// TestCellMemoTableGrowth is TestBounderAdmissibleQuick's walk with
// every member trajectory of a query sharing one QueryBounds on a fine
// grid, until the query has memoized more than 4,096 distinct cells and
// the table has grown at least four times: LBo stays admissible at
// every prefix, every lookup agrees with a map kept by the test, the
// memoized distances are the cell's, and Reset empties the table while
// keeping its storage.
func TestCellMemoTableGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7AB1E))
	g, err := grid.NewWithBits(boundRegion, 7)
	if err != nil {
		t.Fatal(err)
	}
	qb := &QueryBounds{}
	for _, m := range Measures() {
		q := randomSeq(rng, 8)
		kept := len(qb.table)
		qb.Reset(m, q, g, testParams, false)
		if len(qb.table) != kept || len(qb.cells) != 0 {
			t.Fatalf("%v: Reset left a table of %d slots (was %d) and %d entries", m, len(qb.table), kept, len(qb.cells))
		}
		for i, sl := range qb.table {
			if sl != (cellSlot{}) {
				t.Fatalf("%v: Reset left slot %d = %+v", m, i, sl)
			}
		}
		seen := map[uint64]int{}
		growths, size := 0, len(qb.table)
		for len(seen) <= 4096 {
			// Long steps: most sample points land in a cell of their own.
			tr := memberSeq(rng, 40)
			for i := range tr {
				tr[i].X = math.Mod(tr[i].X*7, 8)
				tr[i].Y = math.Mod(tr[i].Y*7, 8)
			}
			exact := Distance(m, q, tr, testParams)
			zs := refPath(g, tr)
			b := qb.Root()
			meta := NodeMeta{MinLen: len(tr), MaxLen: len(tr)}
			for i, z := range zs {
				e := checkMemo(t, qb, seen, z, false, grid.Cell{})
				if want := g.CellByZ(z).Rect.DistPoint(q[len(q)-1]); e.dists[len(q)-1] != want {
					t.Fatalf("%v: z=%#x memoized %v for the last query point, the cell is at %v", m, z, e.dists[len(q)-1], want)
				}
				b.ExtendZ(z)
				meta.MaxDepthBelow = len(zs) - 1 - i
				if lb := b.LBo(meta); lb > exact+1e-9 {
					t.Fatalf("%v: depth %d/%d LBo %v > exact %v", m, i+1, len(zs), lb, exact)
				}
			}
			b.Release()
			if len(qb.table) != size {
				growths, size = growths+1, len(qb.table)
			}
		}
		if m == Measures()[0] && growths < 4 {
			t.Fatalf("the table grew %d times over %d distinct cells, want ≥ 4", growths, len(seen))
		}
		if size&(size-1) != 0 || size < 2*len(seen) {
			t.Fatalf("%v: %d slots for %d cells: not a power of two at load ≤ ½", m, size, len(seen))
		}
	}
}

// TestCellMemoCollidingZ feeds the memo z-values that agree in their
// low bits — zero below bit 16, 32 and 44 — interleaved with revisits.
// A table indexed by the low bits of z would put each family in one
// slot; whatever the probe sequences look like, every lookup must still
// agree with a map.
func TestCellMemoCollidingZ(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC011))
	q := randomSeq(rng, 6)
	qb := NewQueryBounds(Hausdorff, q, nil, testParams, false)
	seen := map[uint64]int{}
	var zs []uint64
	for _, shift := range []uint{16, 32, 44} {
		for i := uint64(1); i <= 700; i++ {
			zs = append(zs, i<<shift)
		}
	}
	rng.Shuffle(len(zs), func(i, j int) { zs[i], zs[j] = zs[j], zs[i] })
	cellOf := func(z uint64) grid.Cell {
		// Any rectangle will do as long as z names it uniquely.
		x, y := float64(z%97), float64(z%89)
		r := geo.Rect{Min: geo.Point{X: x, Y: y}, Max: geo.Point{X: x + 1, Y: y + 1}}
		return grid.Cell{Z: z, Rect: r, Center: geo.Point{X: x + 0.5, Y: y + 0.5}}
	}
	for i, z := range zs {
		c := cellOf(z)
		if e := checkMemo(t, qb, seen, z, true, c); e.center != c.Center {
			t.Fatalf("z=%#x resolved to the entry of the cell centred at %v", z, e.center)
		}
		back := zs[rng.Intn(i+1)]
		if e := checkMemo(t, qb, seen, back, true, cellOf(back)); e.center != cellOf(back).Center {
			t.Fatalf("revisit of z=%#x resolved to the entry of the cell centred at %v", back, e.center)
		}
	}
	if len(seen) != len(zs) {
		t.Fatalf("%d distinct z-values memoized as %d", len(zs), len(seen))
	}
}
