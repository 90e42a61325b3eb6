// Package dita reimplements the DITA baseline (Shang, Li, Bao:
// "DITA: Distributed In-Memory Trajectory Analytics", SIGMOD'18) from
// its published algorithm, at the fidelity the REPOSE paper compares
// against.
//
// DITA represents each trajectory by a pivot-point sequence — first
// point, last point, then the points with the largest neighbor
// distance (the "neighbor distance strategy") — and indexes the
// sequences in a trie whose nodes group spatially close pivot points
// under an MBR. Range queries descend the trie pruning nodes whose
// MBR is provably farther than the threshold. Top-k queries estimate
// a threshold and halve it until fewer than C·k candidates remain
// (which is why DITA's query time grows with k — Fig. 6), then refine.
package dita

import (
	"fmt"
	"math"
	"sort"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/partition"
	"repose/internal/topk"
)

// Config carries DITA's knobs.
type Config struct {
	Measure   dist.Measure // Frechet, DTW, LCSS, or EDR
	Params    dist.Params
	NL        int // max children per trie node (paper: 32)
	PivotSize int // pivot points per trajectory beyond first/last (paper: 4)
	C         int // candidate factor for threshold halving
}

// Supported reports whether DITA handles the measure; it does not
// support Hausdorff or ERP (Section I of the REPOSE paper).
func Supported(m dist.Measure) bool {
	switch m {
	case dist.Frechet, dist.DTW, dist.LCSS, dist.EDR:
		return true
	}
	return false
}

// prunable reports whether the trie MBR pruning is sound for the
// measure: Frechet and DTW bound every aligned pair's distance by the
// total, so a data pivot farther than τ from every query point rules
// the trajectory out. LCSS and EDR can delete points, so candidates
// degenerate to the whole partition (DITA's inefficiency "for some
// distance metrics" noted in Section VIII).
func prunable(m dist.Measure) bool {
	return m == dist.Frechet || m == dist.DTW
}

// tnode is a trie node: level l clusters the l-th pivot point of the
// trajectories below it.
type tnode struct {
	mbr      geo.Rect
	children []*tnode
	tids     []int32 // trajectories whose pivot sequence ends here
	level    int
}

// Index is one partition's DITA index.
type Index struct {
	cfg   Config
	trajs []*geo.Trajectory
	byID  map[int32]*geo.Trajectory
	root  *tnode
	nodes int
	diam  float64 // partition MBR diagonal: initial threshold
	size  int     // footprint, fixed at Build (the index is immutable)
}

// Build constructs the per-partition index.
func Build(cfg Config, part []*geo.Trajectory) (*Index, error) {
	if !Supported(cfg.Measure) {
		return nil, fmt.Errorf("dita: measure %v not supported", cfg.Measure)
	}
	if cfg.NL <= 1 {
		cfg.NL = 32
	}
	if cfg.PivotSize < 0 {
		cfg.PivotSize = 4
	}
	if cfg.C <= 0 {
		cfg.C = 5
	}
	x := &Index{
		cfg:   cfg,
		trajs: part,
		byID:  make(map[int32]*geo.Trajectory, len(part)),
		root:  &tnode{mbr: geo.EmptyRect()},
	}
	type seqEntry struct {
		tid int32
		seq []geo.Point
	}
	entries := make([]seqEntry, 0, len(part))
	bounds := geo.EmptyRect()
	for _, tr := range part {
		x.byID[int32(tr.ID)] = tr
		entries = append(entries, seqEntry{tid: int32(tr.ID), seq: pivotSequence(tr, cfg.PivotSize)})
		for _, p := range tr.Points {
			bounds = bounds.ExtendPoint(p)
		}
	}
	if !bounds.IsEmpty() {
		x.diam = bounds.Min.Dist(bounds.Max)
	}
	if x.diam == 0 {
		x.diam = 1
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].tid < entries[j].tid })
	tids := make([]int32, len(entries))
	seqs := make([][]geo.Point, len(entries))
	for i, e := range entries {
		tids[i] = e.tid
		seqs[i] = e.seq
	}
	x.buildNode(x.root, tids, seqs, 0)
	x.size = nodeBytes(x.root)
	return x, nil
}

// pivotSequence returns [first, last, top-m neighbor-distance points]
// for the trajectory. The neighbor distance of an interior point is
// its distance to the segment joining its neighbors — a curvature
// proxy; the selected pivots keep their trajectory order.
func pivotSequence(tr *geo.Trajectory, m int) []geo.Point {
	pts := tr.Points
	n := len(pts)
	if n == 1 {
		return []geo.Point{pts[0], pts[0]}
	}
	seq := []geo.Point{pts[0], pts[n-1]}
	if m <= 0 || n <= 2 {
		return seq
	}
	type cand struct {
		idx int
		nd  float64
	}
	cands := make([]cand, 0, n-2)
	for i := 1; i < n-1; i++ {
		nd := geo.Segment{A: pts[i-1], B: pts[i+1]}.DistPoint(pts[i])
		cands = append(cands, cand{idx: i, nd: nd})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].nd != cands[b].nd {
			return cands[a].nd > cands[b].nd
		}
		return cands[a].idx < cands[b].idx
	})
	if m > len(cands) {
		m = len(cands)
	}
	top := cands[:m]
	sort.Slice(top, func(a, b int) bool { return top[a].idx < top[b].idx })
	for _, c := range top {
		seq = append(seq, pts[c.idx])
	}
	return seq
}

// buildNode clusters the level-th pivot point of each entry into at
// most NL groups (STR on the points) and recurses.
func (x *Index) buildNode(n *tnode, tids []int32, seqs [][]geo.Point, level int) {
	n.level = level
	// Entries whose sequence ends here terminate at this node.
	var contTids []int32
	var contSeqs [][]geo.Point
	pts := make([]geo.Point, 0, len(tids))
	for i, s := range seqs {
		if level >= len(s) {
			n.tids = append(n.tids, tids[i])
			continue
		}
		contTids = append(contTids, tids[i])
		contSeqs = append(contSeqs, s)
		pts = append(pts, s[level])
	}
	if len(contTids) == 0 {
		return
	}
	if len(contTids) <= x.cfg.NL {
		// Small enough: one child per entry would be wasteful; stop
		// splitting and store the rest here as a leaf bucket.
		n.tids = append(n.tids, contTids...)
		n.mbr = extendAll(n.mbr, pts)
		return
	}
	assign := partition.STRAssign(pts, x.cfg.NL)
	groupsT := make([][]int32, x.cfg.NL)
	groupsS := make([][][]geo.Point, x.cfg.NL)
	groupsP := make([][]geo.Point, x.cfg.NL)
	for i, g := range assign {
		groupsT[g] = append(groupsT[g], contTids[i])
		groupsS[g] = append(groupsS[g], contSeqs[i])
		groupsP[g] = append(groupsP[g], pts[i])
	}
	for g := range groupsT {
		if len(groupsT[g]) == 0 {
			continue
		}
		child := &tnode{mbr: extendAll(geo.EmptyRect(), groupsP[g])}
		n.children = append(n.children, child)
		x.nodes++
		x.buildNode(child, groupsT[g], groupsS[g], level+1)
	}
}

func extendAll(r geo.Rect, pts []geo.Point) geo.Rect {
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// candidates runs the range query of DITA: all trajectories not
// provably farther than tau. Level 0 nodes cluster data first points
// (pruned against the query's first point), level 1 last points
// (against the query's last point), deeper levels arbitrary pivots
// (against all query points).
func (x *Index) candidates(q []geo.Point, tau float64) []int32 {
	if !prunable(x.cfg.Measure) {
		out := make([]int32, 0, len(x.trajs))
		for _, tr := range x.trajs {
			out = append(out, int32(tr.ID))
		}
		return out
	}
	var out []int32
	var walk func(n *tnode)
	walk = func(n *tnode) {
		out = append(out, n.tids...)
		for _, c := range n.children {
			if x.pruneNode(c, q, tau) {
				continue
			}
			walk(c)
		}
	}
	walk(x.root)
	return out
}

// pruneNode reports whether every trajectory under c is provably
// farther than tau from q.
func (x *Index) pruneNode(c *tnode, q []geo.Point, tau float64) bool {
	if c.mbr.IsEmpty() {
		return false
	}
	switch c.level {
	case 0:
		return c.mbr.DistPoint(q[0]) > tau
	case 1:
		return c.mbr.DistPoint(q[len(q)-1]) > tau
	default:
		best := math.Inf(1)
		for _, qp := range q {
			if d := c.mbr.DistPoint(qp); d < best {
				best = d
			}
		}
		return best > tau
	}
}

// Search answers a local top-k query with DITA's threshold-halving
// procedure.
func (x *Index) Search(q []geo.Point, k int) []topk.Item {
	if k <= 0 || len(q) == 0 || len(x.trajs) == 0 {
		return nil
	}
	target := x.cfg.C * k
	if target < k {
		target = k
	}
	tau := x.diam
	cands := x.candidates(q, tau)
	if prunable(x.cfg.Measure) {
		// Halve while the halved candidate set is still large
		// enough. Trajectories whose node MBR contains a query point
		// survive any radius, so cap the halvings to avoid spinning
		// when ≥ C·k such trajectories exist.
		for i := 0; i < 60; i++ {
			next := x.candidates(q, tau/2)
			if len(next) < target {
				break
			}
			tau /= 2
			if len(next) == len(cands) && tau < x.diam*1e-9 {
				cands = next
				break
			}
			cands = next
		}
	}

	cache := make(map[int32]float64, len(cands))
	h := topk.New(k)
	refine := func(set []int32) {
		for _, tid := range set {
			if _, done := cache[tid]; done {
				continue
			}
			d := dist.Distance(x.cfg.Measure, q, x.byID[tid].Points, x.cfg.Params)
			cache[tid] = d
			h.Push(int(tid), d)
		}
	}
	refine(cands)

	// Grow the radius until the answer is provably complete: the
	// top-k must all lie within tau, or the candidate set must cover
	// the whole partition.
	for (h.Len() < min(k, len(x.trajs)) || h.Threshold() > tau) && len(cands) < len(x.trajs) {
		tau *= 2
		cands = x.candidates(q, tau)
		refine(cands)
	}
	return h.Results()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Len returns the number of trajectories in the partition.
func (x *Index) Len() int { return len(x.trajs) }

// NumNodes returns the trie node count (excluding the root).
func (x *Index) NumNodes() int { return x.nodes }

// SizeBytes reports the index footprint excluding raw trajectories.
func (x *Index) SizeBytes() int { return x.size }

// nodeBytes sums the footprint of n's subtree.
func nodeBytes(n *tnode) int {
	sz := 32 + 24 + 24 + 8
	sz += len(n.children) * 8
	sz += len(n.tids) * 4
	for _, c := range n.children {
		sz += nodeBytes(c)
	}
	return sz
}
