package dist

import (
	"math"
	"slices"

	"repose/internal/geo"
	"repose/internal/grid"
)

// NodeMeta summarizes a trie subtree for the one-side bound LBo:
// the range of member trajectory lengths (in sample points) and the
// number of trie levels below the node. MaxDepthBelow == 0 means the
// node's path is the complete reference trajectory of every member —
// the "complete" case in which the query-side bounds apply.
type NodeMeta struct {
	MinLen, MaxLen int
	MaxDepthBelow  int
}

// LeafMeta summarizes a terminal node for the two-side bound LBt.
// Dmax is the maximum distance from the leaf's reference trajectory
// to its member trajectories; it is meaningful (non-zero) only for
// metric measures.
type LeafMeta struct {
	NodeMeta
	Dmax float64
}

// Bounder computes admissible lower bounds on the distance between a
// fixed query and every trajectory stored beneath a trie node. It
// accumulates the node's root path one cell at a time via Extend;
// Clone forks the state at a branch so siblings extend independently
// (the last sibling may take ownership of the parent's state instead).
//
// Admissibility contract: for every trajectory t in the subtree
// (respectively leaf) described by meta, LBo(meta) ≤ Distance(m, q,
// t, p) and LBt(meta) ≤ Distance(m, q, t, p). The per-measure
// reasoning lives on (*PathBounder).LBo; the property tests in
// bound_test.go enforce the contract on random inputs.
//
// Precondition: indexed trajectories lie inside the grid region, so
// every sample point really is inside the cell its z-value names.
// repose.Build guarantees this by deriving the region from
// geo.EnclosingSquare over the dataset. (The grid clamps out-of-region
// points into boundary cells, which would break the contract; queries
// are never discretized, so they may stray freely.)
//
// The interface is retained for the property tests and external
// callers; the search hot path holds the concrete *PathBounder, whose
// Fork/Release/ExtendZ variants recycle state through the owning
// QueryBounds instead of allocating.
type Bounder interface {
	// Extend appends one grid cell to the accumulated path. Cells
	// must come from one grid (CellByZ/CellOf), so that Z uniquely
	// identifies the cell's rectangle: the implementation memoizes
	// per-cell distances by z-value, and two distinct rectangles
	// sharing a Z would alias in the cache.
	Extend(c grid.Cell)
	// Clone returns an independent copy of the bound state.
	Clone() Bounder
	// LBo returns the one-side lower bound for a subtree.
	LBo(meta NodeMeta) float64
	// LBt returns the two-side lower bound for a terminal node.
	LBt(meta LeafMeta) float64
}

// NewBounder returns a Bounder for queries q under measure m, backed
// by a private QueryBounds. halfDiagonal is the grid's √2·δ/2
// (Section IV); the implementation uses exact point-to-cell-rectangle
// distances, which are never looser than center-distance-minus-half-
// diagonal, so the parameter only documents the grid geometry the
// bounds are relative to.
func NewBounder(m Measure, q []geo.Point, halfDiagonal float64, p Params) Bounder {
	_ = halfDiagonal // see doc comment: the rectangle distances subsume it
	return NewQueryBounds(m, q, nil, p, false).Root()
}

// cellEntry is the memoized query→cell distance record of one
// distinct grid cell: the per-query-point rectangle distances and the
// scalar aggregates every bound update needs. Entries are immutable
// once computed; they are shared by every PathBounder of the query.
type cellEntry struct {
	dists  []float64 // d(q[i], cell rectangle), one per query point
	min    float64   // min_i dists[i]
	gapMin float64   // ERP: min(min, d(Gap, cell))
	center geo.Point // cell reference point, for the metric leaf bound
	far    bool      // LCSS/EDR: min > ε
}

// QueryBounds is the shared per-query bound state: the query→cell
// distance table memoized by z-value and the arena of PathBounder
// objects the traversal forks and releases. Cells repeat heavily
// across sibling subtrees and across Extend/Clone chains, so each
// distinct cell pays its O(|q|) rectangle-distance scan exactly once
// per query; every revisit is a table hit. The memo is a flat
// open-addressed hash table (see cellSlot) rather than a Go map: every
// node visit goes through it. Like a map it is keyed by z alone, so
// within one query a z-value must name one rectangle (see
// Bounder.Extend). Reset recycles all backing storage for the next
// query, which is what makes a pooled searcher allocation-free in
// steady state.
//
// A QueryBounds and every PathBounder it owns are confined to one
// goroutine.
type QueryBounds struct {
	m Measure
	q []geo.Point
	p Params
	g *grid.Grid // nil: cells must be supplied via Extend

	// segments is whether this query asks for LBoSub. Only LBoSub and
	// the query-side terms of LBo read minD, and DTW's LBo has none, so
	// a DTW query without segment bounds skips the minD merge.
	segments bool

	table []cellSlot // open-addressed z → cells index; len 0 or a power of two
	cells []cellEntry
	dists []float64 // arena backing cellEntry.dists

	gapD []float64 // ERP: d(q[i], Gap), fixed per query

	all  []*PathBounder // every bounder ever created, for recycling
	free []*PathBounder // currently unused bounders
}

// cellSlot is one slot of the memo's hash table: a z-value and, +1 so
// that the zero slot is empty, the index of its entry in cells.
type cellSlot struct {
	z   uint64
	idx int32
}

// minCellTable is the memo table's first size; a power of two.
const minCellTable = 64

// slotOf is the home slot of z in a table of mask+1 slots: a
// multiplicative (Fibonacci) hash folded to the high bits, which is
// where the product mixes — z-values are Morton codes, and neighbouring
// cells differ in the low bits only.
func slotOf(z, mask uint64) uint64 {
	return (z * 0x9e3779b97f4a7c15 >> 32) & mask
}

// NewQueryBounds returns query bound state for q under m on grid g.
// g may be nil when cells are always supplied via Extend. segments
// says whether the query will ask for LBoSub; see Reset.
func NewQueryBounds(m Measure, q []geo.Point, g *grid.Grid, p Params, segments bool) *QueryBounds {
	qb := &QueryBounds{}
	qb.Reset(m, q, g, p, segments)
	return qb
}

// Reset re-targets the state at a new query, retaining all backing
// storage. Every PathBounder previously obtained from this
// QueryBounds is invalidated and recycled. segments must be true if
// the query will call LBoSub on any of its bounders: without it a DTW
// query does not maintain the query-side minima LBoSub reads.
func (qb *QueryBounds) Reset(m Measure, q []geo.Point, g *grid.Grid, p Params, segments bool) {
	qb.m, qb.q, qb.g, qb.p, qb.segments = m, q, g, p, segments
	clear(qb.table)
	qb.cells = qb.cells[:0]
	qb.dists = qb.dists[:0]
	if m == ERP {
		qb.gapD = growFloats(qb.gapD, len(q))
		for i, pt := range q {
			qb.gapD[i] = pt.Dist(p.Gap)
		}
	} else {
		qb.gapD = qb.gapD[:0]
	}
	qb.free = append(qb.free[:0], qb.all...)
}

// Root returns a fresh zero-depth PathBounder for the query.
func (qb *QueryBounds) Root() *PathBounder {
	return qb.get(true)
}

// get returns a recycled (or new) PathBounder. fill initializes minD
// to +Inf; Fork skips it because it copies the source over anyway.
func (qb *QueryBounds) get(fill bool) *PathBounder {
	var b *PathBounder
	if n := len(qb.free); n > 0 {
		b = qb.free[n-1]
		qb.free = qb.free[:n-1]
	} else {
		b = &PathBounder{}
		qb.all = append(qb.all, b)
	}
	b.qb = qb
	b.minD = growFloats(b.minD, len(qb.q))
	if fill {
		for i := range b.minD {
			b.minD[i] = math.Inf(1)
		}
	}
	cols := 0
	if qb.m == DTW {
		cols = len(qb.q)
	}
	b.col = growFloats(b.col, cols)
	b.refPts = b.refPts[:0]
	b.maxCellMin, b.sumCellGap, b.colMin = 0, 0, 0
	b.firstD, b.lastD = 0, 0
	b.farCells, b.depth = 0, 0
	return b
}

// cell returns the memoized entry for z, computing it on first sight.
// When the caller already materialized the cell it passes it with
// have=true; otherwise the grid reconstructs it by z.
func (qb *QueryBounds) cell(z uint64, have bool, c grid.Cell) *cellEntry {
	// Linear probing; the table is never more than half full, so the
	// scan ends at an empty slot.
	if n := uint64(len(qb.table)); n > 0 {
		mask := n - 1
		for i := slotOf(z, mask); ; i = (i + 1) & mask {
			sl := qb.table[i]
			if sl.idx == 0 {
				break
			}
			if sl.z == z {
				return &qb.cells[sl.idx-1]
			}
		}
	}
	if !have {
		c = qb.g.CellByZ(z)
	}
	m := len(qb.q)
	base := len(qb.dists)
	qb.dists = slices.Grow(qb.dists, m)[:base+m]
	// Growth may relocate the arena; entries handed out earlier keep
	// slice headers into the previous (copied, immutable) backing.
	d := qb.dists[base : base+m : base+m]
	cmin := math.Inf(1)
	for i, pt := range qb.q {
		v := c.Rect.DistPoint(pt)
		d[i] = v
		if v < cmin {
			cmin = v
		}
	}
	e := cellEntry{dists: d, min: cmin, center: c.Center}
	switch qb.m {
	case ERP:
		e.gapMin = math.Min(cmin, c.Rect.DistPoint(qb.p.Gap))
	case LCSS, EDR:
		e.far = cmin > qb.p.Epsilon
	}
	qb.cells = append(qb.cells, e)
	qb.memo(z)
	return &qb.cells[len(qb.cells)-1]
}

// memo records that z's entry is the one just appended to cells,
// doubling the table first when the insert would take it past half full.
func (qb *QueryBounds) memo(z uint64) {
	if 2*len(qb.cells) > len(qb.table) {
		old := qb.table
		qb.table = make([]cellSlot, max(minCellTable, 2*len(old)))
		for _, sl := range old {
			if sl.idx != 0 {
				qb.place(sl)
			}
		}
	}
	qb.place(cellSlot{z: z, idx: int32(len(qb.cells))})
}

// place puts a slot known to be absent into the first free slot of its
// probe sequence.
func (qb *QueryBounds) place(sl cellSlot) {
	mask := uint64(len(qb.table)) - 1
	i := slotOf(sl.z, mask)
	for qb.table[i].idx != 0 {
		i = (i + 1) & mask
	}
	qb.table[i] = sl
}

// PathBounder is the incremental bound state of one root-to-node
// path, shared by all six measures. Each Extend maintains every
// aggregate in O(|q|) over the memoized cell entry (the rectangle
// distances themselves are computed once per distinct cell, see
// QueryBounds), so a root-to-node descent costs O(depth·|q|) total
// instead of O(depth²·|q|) for recomputation
// (see BenchmarkBounderIncremental).
type PathBounder struct {
	qb *QueryBounds

	// minD[i] is the minimum distance from q[i] to any path cell. DTW
	// maintains it only for a query with segment bounds.
	minD []float64

	// col is DTW's warping column: col[i] is the cheapest monotone
	// alignment of q[0..i] with the path cells so far that ends at the
	// last path cell, at point-to-rectangle costs. colMin is min_i
	// col[i], kept while the column is computed. DTW only.
	col    []float64
	colMin float64

	// refPts is the path's reference trajectory prefix (cell
	// centers), consumed by the metric two-side bound at leaves.
	// Only maintained for metric measures; empty otherwise.
	refPts []geo.Point

	maxCellMin float64 // max over path cells of min_i d(q[i], cell)
	sumCellGap float64 // ERP: Σ of min(min_i d(q[i], cell), d(Gap, cell))
	firstD     float64 // Frechet: d(q[0], first path cell)
	lastD      float64 // Frechet: d(q[m−1], most recent path cell)
	farCells   int     // LCSS/EDR: # path cells with min_i d(q[i], cell) > ε
	depth      int
}

// ExtendZ appends the grid cell with z-value z to the path. The
// owning QueryBounds must have been built with a grid.
func (b *PathBounder) ExtendZ(z uint64) {
	b.extend(b.qb.cell(z, false, grid.Cell{}))
}

// Extend implements Bounder.
func (b *PathBounder) Extend(c grid.Cell) {
	b.extend(b.qb.cell(c.Z, true, c))
}

func (b *PathBounder) extend(e *cellEntry) {
	if b.qb.m == DTW {
		if b.qb.segments {
			b.mergeMinD(e.dists)
		}
		b.extendCol(e.dists)
		b.depth++
		return
	}
	b.mergeMinD(e.dists)
	if e.min > b.maxCellMin {
		b.maxCellMin = e.min
	}
	switch b.qb.m {
	case ERP:
		b.sumCellGap += e.gapMin
	case LCSS, EDR:
		if e.far {
			b.farCells++
		}
	}
	if n := len(e.dists); n > 0 {
		if b.depth == 0 {
			b.firstD = e.dists[0]
		}
		b.lastD = e.dists[n-1]
	}
	b.depth++
	if b.qb.m.IsMetric() {
		b.refPts = append(b.refPts, e.center)
	}
}

// mergeMinD lowers minD to the new cell's distances.
func (b *PathBounder) mergeMinD(dists []float64) {
	for i, d := range dists {
		if d < b.minD[i] {
			b.minD[i] = d
		}
	}
}

// extendCol advances DTW's warping column by one path cell, whose
// distances to the query points are d:
//
//	first cell:  col[i] = Σ_{i' ≤ i} d[i']
//	later cells: col[i] = d[i] + min(col_old[i], col_old[i−1], col[i−1])
//
// (col[0] = col_old[0] + d[0]), and keeps the column minimum as it
// goes. This is dtwBounded's recurrence with a path cell in place of a
// sample point, summed in the same order; see LBo for why it is a bound.
// A DTW walk runs this loop once per trie node it descends through, so
// the comparisons are spelled out and the minimum is fused into it.
func (b *PathBounder) extendCol(d []float64) {
	if len(d) == 0 {
		return
	}
	col := b.col[:len(d)]
	if b.depth == 0 {
		acc := 0.0
		for i, v := range d {
			acc += v
			col[i] = acc
		}
		b.colMin = col[0] // costs are non-negative: the prefix sums only grow
		return
	}
	diag := col[0] // col_old[i−1] for the next i
	v := d[0] + diag
	col[0] = v
	lo := v
	for i := 1; i < len(d); i++ {
		up := col[i]
		reach := up
		if diag < reach {
			reach = diag
		}
		if v < reach {
			reach = v
		}
		v = d[i] + reach
		col[i] = v
		if v < lo {
			lo = v
		}
		diag = up
	}
	b.colMin = lo
}

// Fork returns an independent copy of the bound state drawn from the
// owning QueryBounds' recycle arena.
func (b *PathBounder) Fork() *PathBounder {
	nb := b.qb.get(false)
	copy(nb.minD, b.minD)
	copy(nb.col, b.col)
	nb.refPts = append(nb.refPts, b.refPts...)
	nb.maxCellMin, nb.sumCellGap, nb.colMin = b.maxCellMin, b.sumCellGap, b.colMin
	nb.firstD, nb.lastD = b.firstD, b.lastD
	nb.farCells, nb.depth = b.farCells, b.depth
	return nb
}

// Clone implements Bounder.
func (b *PathBounder) Clone() Bounder { return b.Fork() }

// Release returns the bounder to the owning QueryBounds for reuse.
// The caller must not touch it afterwards. Releasing is optional —
// Reset reclaims everything — but keeps the live arena at O(depth)
// instead of O(visited nodes).
func (b *PathBounder) Release() {
	b.qb.free = append(b.qb.free, b)
}

// LBo computes the one-side bound. Why each case never exceeds the
// exact distance to a member trajectory t of the subtree:
//
// Facts used throughout — (F1) t has a sample point inside every path
// cell, and distinct path elements (runs) contain distinct sample
// points; (F2) when meta.MaxDepthBelow == 0 the path is t's complete
// reference trajectory, so every sample point of t lies in some path
// cell; (F3) d(p, cell) ≤ d(p, x) for any point x inside the cell;
// (F4) order-dependent measures are never built with z-value
// re-arrangement, so the first (and, complete, the last) path cell
// holds t's first (last) sample point.
//
//   - Hausdorff: by F1+F3, max over path cells of min_i d(q[i], cell)
//     lower-bounds the directed distance t→q; complete, by F2+F3,
//     max_i minD[i] lower-bounds the directed distance q→t. Both
//     directions lower-bound the symmetric maximum.
//   - Frechet: a coupling matches every point of both sequences, so
//     the Hausdorff bound applies; it also always contains the pair
//     (q[0], t[0]), adding firstD by F4, and (q[m−1], t[n−1]),
//     adding the last-cell distance when complete.
//   - DTW: the path cells are t's runs of sample points in order (F1:
//     runs are consecutive and disjoint; F4: in t's order), so the run
//     r(j) holding t[j] never decreases along t and steps by at most
//     one. Map each pair (q[i], t[j]) of an optimal warping path to
//     (q[i], cell r(j)). Every step of the warping path becomes either
//     a repeat of the same pair or a step of a monotone path between q
//     and the path cells that starts at (q[0], first cell). Dropping
//     the repeats drops non-negative terms, and each kept term
//     d(q[i], t[j]) is ≥ d(q[i], cell r(j)) by F3. extendCol computes,
//     for every i, the cheapest such path ending at (q[i], last path
//     cell). Incomplete, the alignment may end anywhere in q: the
//     warping path up to its last pair in the last path cell maps to a
//     path ending at some (q[i], last cell), and the rest of the
//     warping path only adds cost, so min_i col[i] is admissible.
//     Complete, the last path cell holds t[n−1] (F4), the warping path
//     ends at (q[m−1], t[n−1]), and col[m−1] is admissible. The column
//     is summed in path order, as dtwBounded sums it, and rounded
//     addition is monotone in each argument, so the bound stays ≤
//     dtwBounded's value in floating point too. It dominates the
//     paper's cell-min sums: a mapped path pays at least each path
//     cell's nearest-query-point distance, starts at (q[0], first
//     cell), and, complete, pays at least each minD[i].
//   - LCSS: q[i] can ε-match a point of t only if minD[i] ≤ ε
//     (complete, F2+F3). With R such query points, LCSS ≤ min(R, m,
//     n), and distance = 1 − LCSS/min(m, n) ≥ 1 − R/min(m, MinLen)
//     for every member length n ≥ MinLen. Incomplete: 0.
//   - EDR: EDR ≥ |m − n| ≥ the length-gap bound; every far path cell
//     (min_i d > ε) holds a point of t that costs ≥ 1 in any edit
//     script (F1); complete, every far query point costs ≥ 1. A
//     substitution can cover one far point from each side, so the
//     counts are not summed — the max of the three terms is taken.
//   - ERP: every point of t is either aligned (cost ≥ its min
//     distance to q) or gapped (cost ≥ its distance to Gap), giving
//     the per-cell min(cellMin, d(Gap, cell)) sum via F1+F3;
//     complete, the symmetric query-side sum applies. Max of the two.
func (b *PathBounder) LBo(meta NodeMeta) float64 {
	if b.depth == 0 {
		return 0
	}
	qb := b.qb
	complete := meta.MaxDepthBelow == 0
	switch qb.m {
	case Hausdorff:
		lb := b.maxCellMin
		if complete {
			for _, d := range b.minD {
				if d > lb {
					lb = d
				}
			}
		}
		return lb
	case Frechet:
		lb := math.Max(b.maxCellMin, b.firstD)
		if complete {
			for _, d := range b.minD {
				if d > lb {
					lb = d
				}
			}
			if b.lastD > lb {
				lb = b.lastD
			}
		}
		return lb
	case DTW:
		if complete && len(b.col) > 0 {
			return b.col[len(b.col)-1]
		}
		return b.colMin
	case LCSS:
		if !complete {
			return 0
		}
		matchable := 0
		for _, d := range b.minD {
			if d <= qb.p.Epsilon {
				matchable++
			}
		}
		denom := float64(min(len(qb.q), meta.MinLen))
		if denom <= 0 || float64(matchable) >= denom {
			return 0
		}
		return 1 - float64(matchable)/denom
	case EDR:
		m := len(qb.q)
		lb := 0
		if meta.MinLen > m {
			lb = meta.MinLen - m
		} else if meta.MaxLen < m {
			lb = m - meta.MaxLen
		}
		if b.farCells > lb {
			lb = b.farCells
		}
		if complete {
			far := 0
			for _, d := range b.minD {
				if d > qb.p.Epsilon {
					far++
				}
			}
			if far > lb {
				lb = far
			}
		}
		return float64(lb)
	case ERP:
		lb := b.sumCellGap
		if complete {
			s := 0.0
			for i, d := range b.minD {
				s += math.Min(d, qb.gapD[i])
			}
			if s > lb {
				lb = s
			}
		}
		return lb
	}
	return 0
}

// PeekLBo returns a lower bound on LBo(meta), for every meta, of the
// path extended by the grid cell with z-value z — without extending
// it. It reads the cell's memoized entry (computing it on first sight,
// as ExtendZ would) and nothing else, so a caller can reject a child
// before paying for a Fork and an ExtendZ. Why it never exceeds the
// extended path's LBo, with e the cell's entry:
//
//   - Hausdorff and Frechet: extending sets maxCellMin to
//     max(maxCellMin, e.min), and every case of LBo takes the max of
//     maxCellMin with further terms.
//   - DTW: at depth 0 the new column is the prefix sums of e's
//     distances, each at least e.min, and LBo reads one of its entries.
//     Deeper, every new entry is d[i] + reach, where d[i] ≥ e.min and
//     reach is an old entry (≥ colMin) or an earlier new entry (≥
//     colMin + e.min ≥ colMin, by induction). Rounded addition is
//     monotone in each argument, so every new entry — the minimum and
//     the last entry LBo reads alike — is at least the rounded
//     colMin + e.min returned here.
//   - LCSS, EDR, ERP: 0.
//
// With an empty query there is no column to extend, and the bound is 0.
// PeekLBo is a whole-trajectory bound: it does not bound LBoSub.
func (b *PathBounder) PeekLBo(z uint64) float64 {
	qb := b.qb
	if len(qb.q) == 0 {
		return 0
	}
	switch qb.m {
	case Hausdorff, Frechet:
		return max(b.maxCellMin, qb.cell(z, false, grid.Cell{}).min)
	case DTW:
		cmin := qb.cell(z, false, grid.Cell{}).min
		if b.depth == 0 {
			return cmin
		}
		return b.colMin + cmin
	}
	return 0
}

// LBoSub computes the one-side bound for segment (subtrajectory)
// queries: for every member trajectory t of the subtree described by
// meta and every nonempty contiguous segment seg of t,
// LBoSub(meta) ≤ Distance(m, q, seg, p).
//
// Only the query-side terms of LBo survive the restriction to a
// segment. Complete (F2 in LBo's comment), every sample point of t —
// hence of seg ⊆ t — lies in some path cell, so d(q[i], x) ≥ minD[i]
// for every x ∈ seg; the query-side aggregates over minD therefore
// still apply. Every candidate-side term (maxCellMin, DTW's column,
// sumCellGap, farCells, firstD, lastD) asserts that seg covers
// specific path cells, which a segment need not, so they are all
// dropped. minD is maintained for DTW only when the QueryBounds was
// reset with segments:
//
//   - Hausdorff / Frechet: the directed distance q→seg (respectively
//     any coupling) matches every q[i] at cost ≥ minD[i], so
//     max_i minD[i] is admissible. Incomplete: 0.
//   - DTW: each q[i] is matched at cost ≥ minD[i]; Σ minD[i].
//     Incomplete: 0.
//   - LCSS: a one-point segment makes the denominator min(m, |seg|)
//     as small as 1, so any single ε-matchable query point collapses
//     the bound to 0. Only the all-far case survives: if no q[i] can
//     ε-match any point of t, LCSS = 0 against every segment and the
//     distance is exactly 1. Incomplete: 0.
//   - EDR: |seg| ≤ MaxLen gives EDR ≥ m − MaxLen when positive
//     (length-only, valid even incomplete); complete, every far query
//     point (minD[i] > ε) costs ≥ 1 in any edit script against seg.
//     The MinLen side of LBo's length gap is dropped — a segment may
//     be arbitrarily short.
//   - ERP: each q[i] is either aligned (cost ≥ minD[i]) or gapped
//     (cost ≥ gapD[i]); Σ min(minD[i], gapD[i]). Incomplete: 0.
//
// Neither the metric leaf bound LBt (Dmax bounds d(reference, t), not
// d(reference, seg)) nor the pivot bound LBp (pivot distances are
// whole-trajectory) transfers to segments; segment searches use
// LBoSub alone. Windowed scoring only ever shrinks the candidate to a
// contiguous segment, so the same bound covers time-windowed queries.
func (b *PathBounder) LBoSub(meta NodeMeta) float64 {
	if b.depth == 0 {
		return 0
	}
	qb := b.qb
	complete := meta.MaxDepthBelow == 0
	switch qb.m {
	case Hausdorff, Frechet:
		if !complete {
			return 0
		}
		lb := 0.0
		for _, d := range b.minD {
			if d > lb {
				lb = d
			}
		}
		return lb
	case DTW:
		if !complete {
			return 0
		}
		s := 0.0
		for _, d := range b.minD {
			s += d
		}
		return s
	case LCSS:
		if !complete {
			return 0
		}
		for _, d := range b.minD {
			if d <= qb.p.Epsilon {
				return 0
			}
		}
		return 1
	case EDR:
		m := len(qb.q)
		lb := 0
		if meta.MaxLen < m {
			lb = m - meta.MaxLen
		}
		if complete {
			far := 0
			for _, d := range b.minD {
				if d > qb.p.Epsilon {
					far++
				}
			}
			if far > lb {
				lb = far
			}
		}
		return float64(lb)
	case ERP:
		if !complete {
			return 0
		}
		s := 0.0
		for i, d := range b.minD {
			s += math.Min(d, qb.gapD[i])
		}
		return s
	}
	return 0
}

// LBt implements Bounder; see LBtBounded.
func (b *PathBounder) LBt(meta LeafMeta) float64 {
	return b.LBtBounded(meta, math.Inf(1), nil)
}

// LBtBounded computes the two-side bound for a terminal node. A
// leaf's path is always complete, so LBo with MaxDepthBelow forced to
// 0 applies; metric measures additionally get the triangle-inequality
// bound through the leaf's reference trajectory r: for every member
// t, Distance(q, t) ≥ Distance(q, r) − Distance(r, t) ≥ Distance(q,
// r) − Dmax (Section IV-C). The trie stores Dmax only for metric
// measures, which is exactly when the triangle inequality holds.
//
// threshold is the caller's current pruning threshold (dk, or the
// query radius): the reference-trajectory distance may early-abandon
// once it proves Distance(q, r) − Dmax > threshold, in which case the
// returned bound is +Inf. Since the caller discards any node whose
// bound exceeds threshold, the abandoned value forces exactly the
// decision the exact bound would — results are unchanged. s provides
// the DP scratch for the reference-trajectory distance.
func (b *PathBounder) LBtBounded(meta LeafMeta, threshold float64, s *Scratch) float64 {
	nm := meta.NodeMeta
	nm.MaxDepthBelow = 0
	lb := b.LBo(nm)
	qb := b.qb
	if qb.m.IsMetric() && len(b.refPts) > 0 && len(qb.q) > 0 {
		cut := threshold + meta.Dmax // Distance > cut ⇒ bound > threshold
		if d := DistanceBoundedScratch(qb.m, qb.q, b.refPts, qb.p, cut, s) - meta.Dmax; d > lb {
			lb = d
		}
	}
	return lb
}
