package rptrie

import (
	"context"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/pivot"
	"repose/internal/topk"
)

// The compressed layout shares the layout-independent best-first
// searcher (search.go) through cmpRef, a pointer-shaped searchNode
// whose instances live in the query scratch's arena: interface-boxing
// a pointer is allocation-free, so the delta-empty search path stays
// at 0 allocs/op like the pointer layout's.

// cmpRef is one node of a Compressed core during a search.
type cmpRef struct {
	c  *cmpCore
	sc *searchScratch // arena owner for child refs
	v  int32          // BFS node id
}

// newCmpRef allocates a ref from the scratch's arena.
func (sc *searchScratch) newCmpRef(c *cmpCore, v int32) *cmpRef {
	sc.cmpRefs = append(sc.cmpRefs, cmpRef{c: c, sc: sc, v: v})
	return &sc.cmpRefs[len(sc.cmpRefs)-1]
}

// rootRef returns the root's searchNode. The arena is empty between
// queries: dropRefs clears it when a search ends.
func (c *cmpCore) rootRef(sc *searchScratch) searchNode {
	return sc.newCmpRef(c, 0)
}

func (r *cmpRef) appendChildren(dst []childEdge) []childEdge {
	c := r.c
	first, count := c.childrenRange(int(r.v))
	for i := 0; i < count; i++ {
		u := first + i
		z := c.alphabet.get(int(c.labels.get(u - 1)))
		dst = append(dst, childEdge{z: z, n: r.sc.newCmpRef(c, int32(u))})
	}
	return dst
}

func (r *cmpRef) only() (childEdge, bool) {
	c, v := r.c, int(r.v)
	if c.lo.Get(v) || c.hi.Get(v) {
		return childEdge{}, false // terminal
	}
	first, count := c.childrenRange(v)
	if count != 1 {
		return childEdge{}, false
	}
	z := c.alphabet.get(int(c.labels.get(first - 1)))
	return childEdge{z: z, n: r.sc.newCmpRef(c, int32(first))}, true
}

func (r *cmpRef) leafView() (leafView, bool) {
	c := r.c
	li := c.terminalIndex(int(r.v))
	if li < 0 {
		return leafView{}, false
	}
	return leafView{
		tids:   c.leafTids[c.leafOff[li]:c.leafOff[li+1]],
		dmax:   float64(c.leafDmax[li]),
		minLen: int(c.leafMinLen.get(li)),
		maxLen: int(c.leafMaxLen.get(li)),
	}, true
}

func (r *cmpRef) meta() dist.NodeMeta {
	c, v := r.c, int(r.v)
	return dist.NodeMeta{
		MinLen:        int(c.minLen.get(v)),
		MaxLen:        int(c.maxLen.get(v)),
		MaxDepthBelow: int(c.maxDepth.get(v)),
	}
}

// pivotLB evaluates LBp over the quantized ranges via the per-pivot
// decode LUTs. The decoded interval contains the exact one, so the
// bound is admissible (never tighter than the pointer layout's).
func (r *cmpRef) pivotLB(dqp []float64) float64 {
	c := r.c
	if c.np == 0 || dqp == nil {
		return 0
	}
	return c.pivotLBAt(int(r.v), dqp)
}

func (c *cmpCore) pivotLBAt(v int, dqp []float64) float64 {
	base := v * c.np
	lb := 0.0
	for j := 0; j < c.np && j < len(dqp); j++ {
		lut := c.hrLUT[j*hrBuckets:]
		q := c.hrq[base+j]
		lo := lut[q&0x0f]
		hi := lut[q>>4]
		if b := pivot.RangeBound(dqp[j], lo, hi); b > lb {
			lb = b
		}
	}
	return lb
}

// Search answers a top-k query on the compressed layout; results are
// identical to the source trie's.
func (x *Compressed) Search(q []geo.Point, k int) []topk.Item {
	res, _ := x.SearchWithStats(q, k)
	return res
}

// SearchWithStats is Search with traversal statistics.
func (x *Compressed) SearchWithStats(q []geo.Point, k int) ([]topk.Item, SearchStats) {
	st := x.state()
	sc := x.pool.get()
	defer x.pool.put(sc)
	sr := searcher{cfg: x.cfg, trajs: st.trajs, sc: sc}
	sr.setDelta(st.delta)
	res, stats, _ := sr.run(st.core.rootRef(sc), q, k, nil)
	return res, stats
}

// SearchAppend is Search appending the results to dst; see
// Trie.SearchAppend.
func (x *Compressed) SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item {
	st := x.state()
	sc := x.pool.get()
	defer x.pool.put(sc)
	sr := searcher{cfg: x.cfg, trajs: st.trajs, sc: sc}
	sr.setDelta(st.delta)
	out, _, _ := sr.run(st.core.rootRef(sc), q, k, dst)
	return out
}

// SearchContext is Search honoring per-query options and a context;
// see Trie.SearchContext. All three layouts share the same
// cancellable best-first loop.
func (x *Compressed) SearchContext(ctx context.Context, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return nil, ErrStale
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	sr := searcher{
		cfg: x.cfg, trajs: st.trajs, sc: sc,
		ctxPoller:     ctxPoller{ctx: ctx},
		noPivots:      opt.NoPivots,
		refineWorkers: opt.RefineWorkers,
		shared:        opt.Shared,
	}
	sr.setDelta(st.delta)
	sr.setRefiner(opt.Refiner)
	res, stats, err := sr.run(st.core.rootRef(sc), q, k, nil)
	if opt.Stats != nil {
		*opt.Stats = stats
	}
	return res, err
}

// BoundContext returns an admissible lower bound on the distance from
// q to every trajectory held by the index; see Trie.BoundContext.
func (x *Compressed) BoundContext(ctx context.Context, q []geo.Point, opt SearchOptions) (float64, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return 0, ErrStale
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	sr := searcher{
		cfg: x.cfg, trajs: st.trajs, sc: sc,
		ctxPoller: ctxPoller{ctx: ctx},
		noPivots:  opt.NoPivots,
	}
	sr.setDelta(st.delta)
	sr.setRefiner(opt.Refiner)
	return sr.bound(st.core.rootRef(sc), q)
}

// LiveIDs returns the ids of every live trajectory, unordered; see
// Durable.LiveIDs.
func (x *Compressed) LiveIDs() []int {
	st := x.state()
	return liveIDsOf(st.trajs, st.delta)
}

// SearchRadius returns every indexed trajectory within distance
// radius of q, ascending by (distance, id); see Trie.SearchRadius.
// Unlike Succinct, the compressed layout supports range queries: the
// walk navigates node ids directly.
func (x *Compressed) SearchRadius(q []geo.Point, radius float64) []topk.Item {
	out, _ := x.SearchRadiusContext(nil, q, radius, SearchOptions{})
	return out
}

// SearchRadiusContext is SearchRadius honoring per-query options and
// cancellation; see Trie.SearchRadiusContext.
func (x *Compressed) SearchRadiusContext(ctx context.Context, q []geo.Point, radius float64, opt SearchOptions) ([]topk.Item, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return nil, ErrStale
	}
	if len(q) == 0 || st.live() == 0 || radius < 0 {
		return nil, nil
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	rq := rangeQuery{
		cfg: x.cfg, trajs: st.trajs,
		ctxPoller: ctxPoller{ctx: ctx}, sc: sc, q: q, radius: radius,
		workers: opt.RefineWorkers,
	}
	if d := st.delta; d != nil && len(d.dels) > 0 {
		rq.dels = d.dels
	}
	rq.setRefiner(opt.Refiner)
	if err := rq.err(); err != nil {
		return nil, err
	}
	if x.cfg.Pivots != nil && !x.cfg.DisableLBp && !opt.NoPivots && !rq.subseq {
		sc.dqp = pivot.AppendDistances(sc.dqp[:0], q, x.cfg.Pivots, x.cfg.Measure, x.cfg.Params, &sc.ds)
		rq.dqp = sc.dqp
	}
	sc.qb.Reset(x.cfg.Measure, q, x.cfg.Grid, x.cfg.Params)
	sc.items = sc.items[:0]
	// Pending inserts sit outside the trie: scan them exactly.
	if d := st.delta; d != nil {
		for _, tr := range d.adds {
			if rq.cancelled() {
				return nil, rq.err()
			}
			if it, ok := rq.refineOne(tr, &sc.ds); ok {
				sc.items = append(sc.items, it)
			}
		}
	}
	if err := rq.walkCompressed(st.core, 0, sc.qb.Root()); err != nil {
		return nil, err
	}
	topk.SortItems(sc.items)
	if len(sc.items) == 0 {
		return nil, nil
	}
	// The accumulator is pooled; hand the caller its own copy.
	return append([]topk.Item(nil), sc.items...), nil
}

// walkCompressed is rangeQuery.walk over a compressed core: the same
// fixed-threshold DFS with identical pruning, navigating BFS node ids
// instead of pointers. It consumes b like walk does.
func (rq *rangeQuery) walkCompressed(c *cmpCore, v int, b *dist.PathBounder) error {
	if rq.cancelled() {
		return rq.err()
	}
	if rq.dqp != nil && c.np > 0 && c.pivotLBAt(v, rq.dqp) > rq.radius {
		return nil
	}
	if li := c.terminalIndex(v); li >= 0 {
		lb := 0.0
		if rq.subseq {
			lb = b.LBoSub(dist.NodeMeta{
				MinLen: int(c.leafMinLen.get(li)),
				MaxLen: int(c.leafMaxLen.get(li)),
			})
		} else if !rq.cfg.DisableLBt {
			lb = b.LBtBounded(dist.LeafMeta{
				NodeMeta: dist.NodeMeta{
					MinLen: int(c.leafMinLen.get(li)),
					MaxLen: int(c.leafMaxLen.get(li)),
				},
				Dmax: float64(c.leafDmax[li]),
			}, rq.radius, &rq.sc.ds)
		}
		if lb <= rq.radius {
			if err := rq.refineLeaf(c.leafTids[c.leafOff[li]:c.leafOff[li+1]]); err != nil {
				return err
			}
		}
	}
	first, count := c.childrenRange(v)
	for i := 0; i < count; i++ {
		u := first + i
		var cb *dist.PathBounder
		last := i == count-1
		if last {
			cb = b
		} else {
			cb = b.Fork()
		}
		cb.ExtendZ(c.alphabet.get(int(c.labels.get(u - 1))))
		meta := dist.NodeMeta{
			MinLen:        int(c.minLen.get(u)),
			MaxLen:        int(c.maxLen.get(u)),
			MaxDepthBelow: int(c.maxDepth.get(u)),
		}
		if rq.childLB(cb, meta) > rq.radius {
			if !last {
				cb.Release()
			}
			continue
		}
		err := rq.walkCompressed(c, u, cb)
		if !last {
			cb.Release()
		}
		if err != nil {
			return err
		}
	}
	return nil
}
