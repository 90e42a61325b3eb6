package rptrie

import (
	"context"
	"math"
	"sync"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/topk"
)

// searchRadius answers one range query over snapshot st with working
// set sc: the body of index.SearchRadiusContext.
func searchRadius(ctx context.Context, cfg Config, st *state, sc *searchScratch, q []geo.Point, radius float64, opt SearchOptions) ([]topk.Item, error) {
	if len(q) == 0 || st.live() == 0 || radius < 0 {
		return nil, nil
	}
	// The walk parks node refs in sc.children and the layout arenas.
	defer sc.dropRefs()
	rq := rangeQuery{searcher: newSearcher(ctx, cfg, st, sc, opt), q: q, radius: radius}
	if err := rq.err(); err != nil {
		return nil, err
	}
	rq.dqp = rq.queryPivots(q)
	sc.qb.Reset(cfg.Measure, q, cfg.Grid, cfg.Params, rq.subseq)
	sc.items = sc.items[:0]
	// Pending inserts sit outside the trie: scan them exactly.
	for _, tr := range rq.adds {
		if rq.cancelled() {
			return nil, rq.err()
		}
		if it, ok := rq.refineOne(tr, &sc.ds); ok {
			sc.items = append(sc.items, it)
		}
	}
	if err := rq.walk(st.core.rootRef(sc), sc.qb.Root()); err != nil {
		return nil, err
	}
	topk.SortItems(sc.items)
	if len(sc.items) == 0 {
		return nil, nil
	}
	// The accumulator is pooled; hand the caller its own copy.
	return append([]topk.Item(nil), sc.items...), nil
}

// rangeQuery carries one range query through the recursive walk: the
// searcher's per-query context (snapshot, overlay, refiner, scratch,
// cancellation) under a fixed threshold. Hits accumulate in the pooled
// sc.items.
type rangeQuery struct {
	searcher
	q      []geo.Point
	radius float64
	dqp    []float64
}

// refineOne scores one candidate against the fixed radius and reports
// whether it is a hit. The returned item is fully populated (matched
// segment included when a subsequence refiner is active).
func (rq *rangeQuery) refineOne(tr *geo.Trajectory, s *dist.Scratch) (topk.Item, bool) {
	it := score(rq.refiner, rq.cfg.Measure, rq.cfg.Params, rq.q, tr, rq.radius, s)
	return it, it.Dist <= rq.radius && !math.IsInf(it.Dist, 1)
}

// walk prunes subtrees whose bound exceeds radius and refines
// surviving leaves. Depth-first: unlike top-k, range search gains
// nothing from best-first ordering because the threshold is fixed.
// walk consumes b: the last child takes ownership of it, so the
// caller must not reuse (only Release) it afterwards. A node's children
// sit on sc.children above its ancestors' for the duration of its
// visit; a nested visit may grow and move the stack, so edges are read
// by position.
func (rq *rangeQuery) walk(n searchNode, b *dist.PathBounder) error {
	if rq.cancelled() {
		return rq.err()
	}
	if n.pivotLB(rq.dqp) > rq.radius {
		return nil
	}
	sc := rq.sc
	if lv, ok := n.leafView(); ok {
		lb := 0.0
		meta := dist.NodeMeta{MinLen: lv.minLen, MaxLen: lv.maxLen}
		if rq.subseq {
			lb = b.LBoSub(meta)
		} else if !rq.cfg.DisableLBt {
			lb = b.LBtBounded(dist.LeafMeta{NodeMeta: meta, Dmax: lv.dmax}, rq.radius, &sc.ds)
		}
		if lb <= rq.radius {
			if err := rq.refineLeaf(lv.tids); err != nil {
				return err
			}
		}
	}
	base := len(sc.children)
	sc.children = n.appendChildren(sc.children)
	end := len(sc.children)
	if end > sc.childHW {
		sc.childHW = end
	}
	var err error
	for i := base; i < end && err == nil; i++ {
		ce := sc.children[i]
		cb := b
		last := i == end-1
		if !last {
			cb = b.Fork()
		}
		cb.ExtendZ(ce.z)
		if rq.childLB(cb, ce.n.meta()) <= rq.radius {
			err = rq.walk(ce.n, cb)
		}
		if !last {
			cb.Release()
		}
	}
	sc.children = sc.children[:base]
	return err
}

// childLB is the subtree pruning bound of the walk: the segment bound
// under a subsequence refiner, LBo otherwise.
func (rq *rangeQuery) childLB(b *dist.PathBounder, meta dist.NodeMeta) float64 {
	if rq.subseq {
		return b.LBoSub(meta)
	}
	return b.LBo(meta)
}

// refineLeaf refines one surviving leaf's members, parallel when
// configured and the leaf is fat enough.
func (rq *rangeQuery) refineLeaf(tids []int32) error {
	if rq.refineWorkers > 1 && len(tids) >= minParallelLeaf {
		return rq.refineFatLeaf(tids)
	}
	for _, tid := range tids {
		if rq.dels != nil {
			if _, dead := rq.dels[tid]; dead {
				continue
			}
		}
		if rq.cancelled() {
			return rq.err()
		}
		if it, ok := rq.refineOne(rq.trajs[tid], &rq.sc.ds); ok {
			rq.sc.items = append(rq.sc.items, it)
		}
	}
	return nil
}

// refineFatLeaf fans one fat leaf's exact computations over
// parallelFor workers, the range-search counterpart of the top-k
// path's refineLeafParallel. The threshold is the fixed radius, so
// workers need no shared threshold at all: each appends its in-range
// hits behind a mutex, and the final (distance, id) sort makes the
// result order independent of worker interleaving — output stays
// bit-identical to the sequential walk.
func (rq *rangeQuery) refineFatLeaf(tids []int32) error {
	sc := rq.sc
	nw := clampWorkers(rq.refineWorkers, len(tids))
	for len(sc.wds) < nw {
		sc.wds = append(sc.wds, new(dist.Scratch))
	}
	var mu sync.Mutex
	return parallelFor(rq.ctx, sc.wds[:nw], len(tids), func(i int, ws *dist.Scratch) {
		tid := tids[i]
		if rq.dels != nil {
			if _, dead := rq.dels[tid]; dead {
				return
			}
		}
		if it, ok := rq.refineOne(rq.trajs[tid], ws); ok {
			mu.Lock()
			sc.items = append(sc.items, it)
			mu.Unlock()
		}
	})
}
