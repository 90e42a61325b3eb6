// Package dft reimplements the DFT baseline (Xie, Li, Phillips:
// "Distributed Trajectory Similarity Search", PVLDB'17) from its
// published algorithm, at the fidelity the REPOSE paper compares
// against (the DFT-RB+DI variant: R-tree over segments plus a dual
// index).
//
// Within a partition, DFT decomposes trajectories into line segments,
// bulk-loads an R-tree over the segment MBRs, and keeps a dual index
// from trajectory id back to its segments (this duplication is why
// DFT's index is roughly 4× larger than REPOSE's — Table IV). A top-k
// query samples C·k random trajectories to estimate a pruning
// threshold (the k-th smallest sampled distance — an upper bound on
// the true dk, but often a loose one, which is why DFT's query time
// is unstable in Fig. 6), generates candidates through the R-tree,
// lower-bounds each candidate with point-to-segment distances, and
// refines the survivors.
package dft

import (
	"fmt"
	"math"
	"math/rand"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/rtree"
	"repose/internal/topk"
)

// Config carries DFT's knobs.
type Config struct {
	Measure dist.Measure // Hausdorff, Frechet, or DTW
	Params  dist.Params
	C       int // threshold sampling factor (paper: 5)
	Fanout  int // R-tree fanout
	Seed    int64
}

// Supported reports whether DFT handles the measure; it does not
// support LCSS, EDR, or ERP (Section I of the REPOSE paper).
func Supported(m dist.Measure) bool {
	switch m {
	case dist.Hausdorff, dist.Frechet, dist.DTW:
		return true
	}
	return false
}

// segEntry is one indexed segment and its owning trajectory.
type segEntry struct {
	seg geo.Segment
	tid int32
}

// Index is one partition's DFT index.
type Index struct {
	cfg   Config
	trajs []*geo.Trajectory
	byID  map[int32]*geo.Trajectory
	segs  []segEntry
	tree  *rtree.Tree
	dual  map[int32][]int32 // tid → indices into segs (the dual index)
	rng   *rand.Rand
	size  int // footprint, fixed at Build (the index is immutable)
}

// Build constructs the per-partition index.
func Build(cfg Config, part []*geo.Trajectory) (*Index, error) {
	if !Supported(cfg.Measure) {
		return nil, fmt.Errorf("dft: measure %v not supported", cfg.Measure)
	}
	if cfg.C <= 0 {
		cfg.C = 5
	}
	x := &Index{
		cfg:   cfg,
		trajs: part,
		byID:  make(map[int32]*geo.Trajectory, len(part)),
		dual:  make(map[int32][]int32, len(part)),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	var items []rtree.Item
	for _, tr := range part {
		tid := int32(tr.ID)
		x.byID[tid] = tr
		segs := tr.Segments()
		if len(segs) == 0 && len(tr.Points) > 0 {
			// Single-point trajectory: a degenerate segment.
			segs = []geo.Segment{{A: tr.Points[0], B: tr.Points[0]}}
		}
		for _, s := range segs {
			idx := int32(len(x.segs))
			x.segs = append(x.segs, segEntry{seg: s, tid: tid})
			x.dual[tid] = append(x.dual[tid], idx)
			items = append(items, rtree.Item{Rect: s.Bounds(), ID: idx})
		}
	}
	x.tree = rtree.BulkLoad(items, cfg.Fanout)
	x.size = x.tree.SizeBytes() + len(x.segs)*(32+4) // segment copy + tid
	for _, v := range x.dual {
		x.size += 16 + len(v)*4
	}
	return x, nil
}

// Search answers a local top-k query.
func (x *Index) Search(q []geo.Point, k int) []topk.Item {
	if k <= 0 || len(q) == 0 || len(x.trajs) == 0 {
		return nil
	}
	h := topk.New(k)

	// Step 1: random-sample threshold (DFT samples C·k trajectories
	// and uses the k-th smallest distance).
	sampleN := x.cfg.C * k
	if sampleN >= len(x.trajs) {
		// Degenerates to a scan.
		for _, tr := range x.trajs {
			h.Push(tr.ID, x.exact(q, tr, h.Threshold()))
		}
		return h.Results()
	}
	sampled := make(map[int32]bool, sampleN)
	for _, i := range x.rng.Perm(len(x.trajs))[:sampleN] {
		tr := x.trajs[i]
		sampled[int32(tr.ID)] = true
		h.Push(tr.ID, x.exact(q, tr, h.Threshold()))
	}
	dk := h.Threshold()
	if math.IsInf(dk, 1) {
		// Fewer than k distinct sampled results; fall back to scan.
		for _, tr := range x.trajs {
			if !sampled[int32(tr.ID)] {
				h.Push(tr.ID, x.exact(q, tr, h.Threshold()))
			}
		}
		return h.Results()
	}

	// Step 2: candidate generation. Any trajectory within dk of the
	// query must have a segment within dk of the first query point
	// (all three supported measures upper-bound that point's nearest
	// segment distance).
	cands := make(map[int32]bool)
	x.tree.SearchWithin(q[0], dk, func(it rtree.Item) bool {
		cands[x.segs[it.ID].tid] = true
		return true
	})

	// Step 3: lower-bound with the dual index, refine survivors.
	for tid := range cands {
		if sampled[tid] {
			continue
		}
		thr := h.Threshold()
		if x.lowerBound(q, tid, thr) > thr {
			continue
		}
		h.Push(int(tid), x.exact(q, x.byID[tid], h.Threshold()))
	}
	return h.Results()
}

// lowerBound computes max_i min_{seg ∈ T} d(q_i, seg) via the dual
// index — the segment-based lower bound all three measures share. It
// abandons once the bound exceeds thr.
func (x *Index) lowerBound(q []geo.Point, tid int32, thr float64) float64 {
	segIdx := x.dual[tid]
	lb := 0.0
	for _, qp := range q {
		best := math.Inf(1)
		for _, si := range segIdx {
			if d := x.segs[si].seg.DistPoint(qp); d < best {
				best = d
				if best == 0 {
					break
				}
			}
		}
		if best > lb {
			lb = best
			if lb > thr {
				return lb
			}
		}
	}
	return lb
}

func (x *Index) exact(q []geo.Point, tr *geo.Trajectory, bound float64) float64 {
	return dist.DistanceBounded(x.cfg.Measure, q, tr.Points, x.cfg.Params, bound)
}

// Len returns the number of trajectories in the partition.
func (x *Index) Len() int { return len(x.trajs) }

// SizeBytes reports the index footprint: R-tree, segment copies, and
// the dual index (but not the raw trajectories).
func (x *Index) SizeBytes() int { return x.size }
