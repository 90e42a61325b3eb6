package rptrie

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/pivot"
	"repose/internal/topk"
)

// SearchOptions modulates one query without rebuilding the trie.
type SearchOptions struct {
	// NoPivots skips the pivot lower bound (LBp) for this query,
	// including the up-front query-to-pivot distance computations.
	NoPivots bool

	// RefineWorkers parallelizes exact-distance refinement of fat
	// leaves across this many goroutines (values < 2 refine
	// sequentially). Results are identical to the sequential path;
	// see doc.go for the admissibility argument behind the shared
	// atomic threshold.
	RefineWorkers int

	// MinGen pins the query to index generation MinGen or newer: the
	// query fails with ErrStale instead of answering from an older
	// snapshot. 0 (the default) accepts any snapshot. Mutations are
	// applied synchronously, so a pin taken from a completed mutation
	// never fails on the index it mutated; the pin guards replicas
	// and read-your-writes plumbing (see internal/cluster).
	MinGen uint64

	// Stats, when non-nil, receives the query's traversal statistics —
	// the per-call form of SearchWithStats that the context entry
	// points support, so scatter layers can account refinement work
	// per partition without a second search.
	Stats *SearchStats

	// Refiner replaces the default whole-trajectory exact-distance
	// leaf refinement (nil keeps it). A subsequence refiner switches
	// the traversal to the segment bounds; see Refiner.
	Refiner Refiner

	// Shared, when non-nil, is the query's cross-partition result
	// bound: the scan prunes against the k-th distance over every scan
	// sharing it and returns only candidates at or below that distance
	// — the members that can still be in the global top-k rather than
	// the index's own top-k (see SharedTopK). It must have been created
	// or Reset with this call's k. Only the top-k entry points read it.
	Shared *SharedTopK
}

// ctxCheckMask throttles context polling: deadlines are checked every
// ctxCheckMask+1 units of search work (heap pops and exact distance
// computations), keeping the checkpoint overhead unmeasurable while
// still stopping a partition scan mid-flight.
const ctxCheckMask = 63

// minParallelLeaf is the smallest leaf (member count) worth spawning
// refinement workers for; smaller leaves refine sequentially even
// when RefineWorkers is set.
const minParallelLeaf = 4

// ctxPoller is the throttled cancellation check of the top-k search
// and the range walk. It is single-goroutine state: concurrent
// refinement workers each get their own poller (sharing one would
// race on ops).
type ctxPoller struct {
	ctx context.Context // nil: cancellation disabled
	ops int             // work units so far, for throttling
}

// cancelled reports whether the query should abort, polling the
// context only every ctxCheckMask+1 calls.
func (p *ctxPoller) cancelled() bool {
	if p.ctx == nil {
		return false
	}
	p.ops++
	if p.ops&ctxCheckMask != 0 {
		return false
	}
	return p.ctx.Err() != nil
}

// err returns the context's error, nil when cancellation is disabled.
func (p *ctxPoller) err() error {
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

// SearchStats summarizes the work one query performed. NodesExpanded +
// ChainSteps is the number of trie nodes whose bound was evaluated and
// that were then popped or walked: every node the search descended
// through, whether or not it paid for a queue round trip.
type SearchStats struct {
	NodesExpanded     int // internal nodes popped and expanded
	ChainSteps        int // single-child links walked in place, never queued
	LeavesRefined     int // leaf entries popped and refined
	ExactComputations int // full distance computations on trajectories
	EntriesPushed     int // queue insertions
	EarlyCuts         int // children rejected before their bound state was forked or extended
}

// searchNode abstracts trie navigation so the pointer layout and the
// succinct layout share one best-first search implementation. The
// methods are append/value shaped (no callbacks) so the hot loop
// builds no closures.
type searchNode interface {
	// appendChildren appends the node's children in ascending z
	// order and returns the extended slice.
	appendChildren(dst []childEdge) []childEdge
	// leafView returns the node's terminal payload, if any.
	leafView() (lv leafView, ok bool)
	// only returns the node's single child edge when the node is a
	// link: no terminal payload and exactly one child, so its member
	// set is that child's.
	only() (ce childEdge, ok bool)
	// meta returns the subtree metadata for LBo.
	meta() dist.NodeMeta
	// pivotLB returns the pivot lower bound LBp against the
	// query-to-pivot distances dqp, or 0 when either side has no
	// pivot data.
	pivotLB(dqp []float64) float64
}

// childEdge is one labeled edge out of a searchNode.
type childEdge struct {
	z uint64
	n searchNode
}

// leafView exposes a terminal payload without committing to a layout.
type leafView struct {
	tids           []int32
	dmax           float64
	minLen, maxLen int
}

// ptrNode adapts *node to searchNode.
type ptrNode struct{ n *node }

func (p ptrNode) appendChildren(dst []childEdge) []childEdge {
	for _, c := range p.n.children {
		dst = append(dst, childEdge{z: c.z, n: ptrNode{c}})
	}
	return dst
}

func (p ptrNode) only() (childEdge, bool) {
	if p.n.leaf != nil || len(p.n.children) != 1 {
		return childEdge{}, false
	}
	c := p.n.children[0]
	return childEdge{z: c.z, n: ptrNode{c}}, true
}

func (p ptrNode) leafView() (leafView, bool) {
	if p.n.leaf == nil {
		return leafView{}, false
	}
	l := p.n.leaf
	return leafView{tids: l.tids, dmax: l.dmax, minLen: l.minLen, maxLen: l.maxLen}, true
}

func (p ptrNode) meta() dist.NodeMeta {
	return dist.NodeMeta{MinLen: p.n.minLen, MaxLen: p.n.maxLen, MaxDepthBelow: p.n.maxDepthBelow}
}

func (p ptrNode) pivotLB(dqp []float64) float64 {
	if dqp == nil || p.n.hr == nil {
		return 0
	}
	return pivot.LowerBound(dqp, p.n.hr)
}

// searchScratch is the recycled per-query working set: the memoized
// bound state, DP rows, priority queue, result heap, and every
// auxiliary slice the best-first loop touches. One scratch serves one
// query at a time; the per-index pool (see scratchPool) hands them
// out, so in steady state a query performs no heap allocations.
type searchScratch struct {
	qb       *dist.QueryBounds
	ds       dist.Scratch
	res      topk.Heap
	pq       entryQueue
	children []childEdge
	childHW  int // longest children has been this query
	dqp      []float64
	items    []topk.Item     // range-walk accumulator
	wds      []*dist.Scratch // per-worker DP rows for parallel refinement

	// cmpRefs and denseRefs/sparseRefs are the compressed and the
	// succinct layout's node-ref arenas: refs are interface-boxed into
	// entries, and boxing a pointer into the arena is allocation-free
	// where boxing a multi-word value is not. Emptied when a query
	// ends; at its high-water mark appends stop allocating. Growth may
	// relocate the backing array — previously handed-out pointers stay
	// valid (refs are immutable).
	cmpRefs    []cmpRef
	denseRefs  []denseRef
	sparseRefs []sparseRef
}

// scratchPool recycles searchScratch values. One pool per index (not
// a global) keeps buffer sizes stable: every scratch in a pool has
// grown to that index's query working-set high-water mark, so a Get
// is a handful of slice re-slices rather than fresh allocations.
type scratchPool struct{ p sync.Pool }

func (sp *scratchPool) get() *searchScratch {
	if v := sp.p.Get(); v != nil {
		return v.(*searchScratch)
	}
	return &searchScratch{qb: &dist.QueryBounds{}}
}

func (sp *scratchPool) put(sc *searchScratch) { sp.p.Put(sc) }

// dropRefs clears every buffer that holds trie-node references — the
// queue slab, the child buffer, the layouts' ref arenas — over the range
// the query used. The scratch outlives the query in its
// index's pool, and run leaves unpopped entries behind as soon as the
// queue minimum reaches the threshold: without this a steadily queried
// index keeps the generation before a Compact reachable from its pool.
func (sc *searchScratch) dropRefs() {
	sc.pq.reset()
	sc.children = emptied(sc.children[:sc.childHW])
	sc.childHW = 0
	sc.cmpRefs = emptied(sc.cmpRefs)
	sc.denseRefs = emptied(sc.denseRefs)
	sc.sparseRefs = emptied(sc.sparseRefs)
}

// emptied zeroes the elements of s and returns it at length 0.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// boundBudget caps the number of trie nodes a bound walk descends
// through — expansions and chain links walked in place alike — before
// settling for the queue's current minimum. The walk is a pruning aid,
// not an answer: a few dozen nodes already separate a far partition
// from a contending one.
const boundBudget = 64

// bound runs the capped best-first descent behind BoundContext. With
// an empty result heap the threshold is +Inf, so expand prunes
// nothing: every subtree is represented in the queue by an entry whose
// lb lower-bounds all trajectories beneath it. The queue minimum is
// therefore an admissible bound for the whole index at every step —
// popping internal entries only tightens it, and the walk may stop at
// any point (first leaf popped, or budget exhausted) and return the
// current minimum. Tombstoned members can only make the bound looser,
// never tighter, so deletions preserve admissibility.
func (s *searcher) bound(root searchNode, q []geo.Point) (float64, error) {
	defer s.sc.dropRefs() // the caller's root ref included
	if len(q) == 0 {
		return 0, nil
	}
	if len(s.trajs) == 0 && len(s.adds) == 0 {
		return math.Inf(1), nil
	}
	if len(s.adds) > 0 {
		return 0, nil
	}
	if err := s.err(); err != nil {
		return 0, err
	}
	var stats SearchStats
	return s.boundWalk(root, q, &stats)
}

// boundWalk is bound past its early returns, reporting what the walk
// spent. A chain is cut where the budget runs out and the link reached
// is queued like any node, so the budget is a hard ceiling.
func (s *searcher) boundWalk(root searchNode, q []geo.Point, stats *SearchStats) (float64, error) {
	sc := s.sc
	sc.res.Reset(1)
	dqp := s.queryPivots(q)
	pq := &sc.pq
	sc.qb.Reset(s.cfg.Measure, q, s.cfg.Grid, s.cfg.Params, s.subseq)
	s.chainBudget = boundBudget
	s.expand(root, sc.qb.Root(), root.pivotLB(dqp), pq, &sc.res, dqp, stats)
	for pq.len() > 0 {
		if s.cancelled() {
			return 0, s.err()
		}
		lb, e := pq.pop()
		spent := stats.NodesExpanded + stats.ChainSteps
		if e.b == nil || spent >= boundBudget {
			// lb is the queue minimum: admissible for everything still
			// queued, and a leaf's lb lower-bounds its members.
			return lb, nil
		}
		stats.NodesExpanded++
		s.chainBudget = boundBudget - spent - 1
		s.expand(e.n, e.b, e.lbp, pq, &sc.res, dqp, stats)
	}
	// Queue drained without reaching a leaf: nothing is indexed.
	return math.Inf(1), nil
}

// searcher is the layout-independent best-first top-k search.
type searcher struct {
	ctxPoller
	cfg           Config
	trajs         map[int32]*geo.Trajectory
	adds          []*geo.Trajectory  // pending inserts, scanned exactly
	dels          map[int32]struct{} // tombstones filtered at refinement
	noPivots      bool
	refineWorkers int
	refiner       Refiner // nil: default whole-trajectory refinement
	subseq        bool    // refiner scores segments: use LBoSub, no LBt/LBp
	sc            *searchScratch

	// shared is the query's cross-partition result heap; nil prunes
	// against this scan's own results only.
	shared *SharedTopK

	// chainBudget is how many more links expand may walk in place; a
	// top-k search never runs out, a bound walk counts them against
	// boundBudget.
	chainBudget int
}

// newSearcher assembles one query's searcher over a snapshot: its
// overlay, the per-query options, and a context (nil disables
// cancellation).
func newSearcher(ctx context.Context, cfg Config, st *state, sc *searchScratch, opt SearchOptions) searcher {
	s := searcher{
		cfg: cfg, trajs: st.trajs, sc: sc,
		ctxPoller:     ctxPoller{ctx: ctx},
		noPivots:      opt.NoPivots,
		refineWorkers: opt.RefineWorkers,
		shared:        opt.Shared,
	}
	s.setDelta(st.delta)
	s.setRefiner(opt.Refiner)
	return s
}

// queryPivots returns the query-to-pivot distances LBp compares, nil
// when the pivot bound is off for this query.
func (s *searcher) queryPivots(q []geo.Point) []float64 {
	if s.cfg.Pivots == nil || s.cfg.DisableLBp || s.noPivots || s.subseq {
		return nil
	}
	sc := s.sc
	sc.dqp = pivot.AppendDistances(sc.dqp[:0], q, s.cfg.Pivots, s.cfg.Measure, s.cfg.Params, &sc.ds)
	return sc.dqp
}

// threshold is the scan's current pruning cut-off; see sharedCut.
func (s *searcher) threshold(results *topk.Heap) float64 {
	return sharedCut(results.Threshold(), s.shared)
}

// sharedCut tightens a scan's own k-th distance dk by the query's
// shared result heap, if any: the shared cut sits strictly above the
// global k-th distance, so candidates tying it survive every "≥"
// prune and every early abandon.
func sharedCut(dk float64, shared *SharedTopK) float64 {
	if shared != nil {
		if g := shared.cut.Load(); g < dk {
			return g
		}
	}
	return dk
}

// admit offers one scored candidate to a scan's result heap. With a
// shared heap only candidates at or below the global k-th distance
// pass, which also keeps an abandoned +Inf out while the scan's own
// heap is not yet full — its effective threshold can then be finite all
// the same. (Without one, PushItem's +Inf rejection only ever fires for
// a refiner's "ineligible": a whole-trajectory kernel cannot abandon
// under the +Inf threshold of a heap that is not full.)
func admit(results *topk.Heap, shared *SharedTopK, it topk.Item) {
	if shared == nil || shared.offer(it) {
		results.PushItem(it)
	}
}

// score computes one candidate's exact distance — or, with a refiner,
// its refined distance and matched segment — early abandoning at
// threshold, in the given scratch.
func score(refiner Refiner, m dist.Measure, p dist.Params, q []geo.Point, tr *geo.Trajectory, threshold float64, ws *dist.Scratch) topk.Item {
	if refiner != nil {
		d, start, end := refiner.Refine(q, tr, threshold, ws)
		return topk.Item{ID: tr.ID, Dist: d, Start: start, End: end}
	}
	return topk.Item{ID: tr.ID, Dist: dist.DistanceBoundedScratch(m, q, tr.Points, p, threshold, ws)}
}

// setRefiner attaches a query's refiner. A nil refiner keeps the
// built-in whole-trajectory refinement on the allocation-free inline
// path; a subsequence refiner additionally switches every traversal
// bound to the segment bound.
func (s *searcher) setRefiner(r Refiner) {
	s.refiner = r
	s.subseq = r != nil && r.Subsequence()
}

// setDelta attaches a snapshot's overlay. Empty components stay nil so
// the hot loop's emptiness checks cost one pointer comparison.
func (s *searcher) setDelta(d *delta) {
	if d == nil {
		return
	}
	if len(d.adds) > 0 {
		s.adds = d.adds
	}
	if len(d.dels) > 0 {
		s.dels = d.dels
	}
}

// run executes the best-first loop, appending the final results to
// dst (nil allocates a fresh result slice — the only steady-state
// allocation of the non-append entry points).
func (s *searcher) run(root searchNode, q []geo.Point, k int, dst []topk.Item) ([]topk.Item, SearchStats, error) {
	defer s.sc.dropRefs() // the caller's root ref included
	var stats SearchStats
	if k <= 0 || len(q) == 0 || (len(s.trajs) == 0 && len(s.adds) == 0) {
		return dst, stats, nil
	}
	if err := s.err(); err != nil {
		return dst, stats, err
	}
	sc := s.sc
	sc.res.Reset(k)
	results := &sc.res

	// Pending inserts are not covered by any trie bound: answer them
	// with an exact linear scan first, so the threshold they establish
	// also prunes the trie walk below.
	if len(s.adds) > 0 {
		if err := s.scanDelta(q, results, &stats); err != nil {
			return dst, stats, err
		}
	}

	dqp := s.queryPivots(q)

	pq := &sc.pq
	sc.qb.Reset(s.cfg.Measure, q, s.cfg.Grid, s.cfg.Params, s.subseq)
	s.chainBudget = math.MaxInt
	s.expand(root, sc.qb.Root(), root.pivotLB(dqp), pq, results, dqp, &stats)

	for pq.len() > 0 {
		if s.cancelled() {
			return dst, stats, s.err()
		}
		lb, e := pq.pop()
		dk := s.threshold(results)
		if lb >= dk {
			// Every queued entry has a bound ≥ lb ≥ dk, and the bound
			// lower-bounds the distance of every trajectory beneath
			// it, so nothing better remains (Step 2 of Section IV-A).
			break
		}
		if e.b == nil {
			stats.LeavesRefined++
			lv, _ := e.n.leafView()
			if err := s.refine(lv, q, results, &stats); err != nil {
				return dst, stats, err
			}
			continue
		}
		stats.NodesExpanded++
		s.expand(e.n, e.b, e.lbp, pq, results, dqp, &stats)
	}
	return results.AppendResults(dst), stats, nil
}

// expand pushes n's leaf entry (if any) and child entries whose
// bounds do not already exceed the current threshold. lbp is n's pivot
// bound, carried from where n was queued. A child is first tested on
// its cheap bounds — its pivot bound and its path bound extended by the
// child's cell alone — and only a child that passes both forks and
// extends bound state (see "Cheap bounds first" in doc.go). A child
// that is a link — no payload, one child — is not pushed: its bound
// state is extended down the chain in place and the node where the
// walk stops is pushed instead, or nothing once the bound reaches the
// threshold (see "Chains are walked, not queued"). expand consumes the
// bound state b: either a child entry takes ownership of it or it is
// released back to the arena.
func (s *searcher) expand(n searchNode, b *dist.PathBounder, lbp float64, pq *entryQueue, results *topk.Heap, dqp []float64, stats *SearchStats) {
	sc := s.sc
	dk := s.threshold(results)

	// A leaf's bound is at least lbp (a segment bound at least 0, and
	// lbp is 0 there), so lbp ≥ dk rejects it without its costlier
	// terms.
	if lv, ok := n.leafView(); ok && lbp < dk {
		lb := lbp
		if s.subseq {
			// Segment scoring: only the segment bound is admissible
			// (the leaf path is complete by construction).
			lb = b.LBoSub(dist.NodeMeta{MinLen: lv.minLen, MaxLen: lv.maxLen})
		} else if !s.cfg.DisableLBt {
			meta := dist.LeafMeta{
				NodeMeta: dist.NodeMeta{MinLen: lv.minLen, MaxLen: lv.maxLen},
				Dmax:     lv.dmax,
			}
			lb = max(lb, b.LBtBounded(meta, dk, &sc.ds))
		} else {
			lb = max(lb, b.LBo(n.meta()))
		}
		if lb < dk {
			pq.push(lb, entry{n: n})
			stats.EntriesPushed++
		}
	}

	children := n.appendChildren(sc.children[:0])
	sc.children = children
	if len(children) > sc.childHW {
		sc.childHW = len(children)
	}
	owned := false // whether a pushed child entry took ownership of b
	for i, ce := range children {
		// Every node of a chain has the child's member set, so the
		// child's pivot bound holds down the whole walk. (A segment
		// refiner has no query pivots: lbp and clbp are 0.)
		clbp := max(lbp, ce.n.pivotLB(dqp))
		if clbp >= dk || (!s.subseq && b.PeekLBo(ce.z) >= dk) {
			// nodeLB would be at least either value: rejected below
			// all the same, so skip the fork and the extension.
			stats.EarlyCuts++
			continue
		}
		var cb *dist.PathBounder
		last := i == len(children)-1
		if last {
			// The last child takes the parent's bound state instead
			// of forking it.
			cb = b
		} else {
			cb = b.Fork()
		}
		cb.ExtendZ(ce.z)

		cn := ce.n
		lb := s.nodeLB(cn, cb, clbp)
		for lb < dk && s.chainBudget > 0 {
			next, ok := cn.only()
			if !ok {
				break
			}
			s.chainBudget--
			stats.ChainSteps++
			cn = next.n
			cb.ExtendZ(next.z)
			lb = s.nodeLB(cn, cb, clbp)
		}
		if lb < dk {
			pq.push(lb, entry{n: cn, b: cb, lbp: clbp})
			stats.EntriesPushed++
			owned = owned || last
		} else if !last {
			cb.Release()
		}
	}
	if !owned {
		b.Release()
	}
}

// nodeLB is the bound of a queued node: the one-side bound of its path
// — the segment form under a subsequence refiner, which admits no
// pivot bound — raised to the pivot bound lbp.
func (s *searcher) nodeLB(n searchNode, b *dist.PathBounder, lbp float64) float64 {
	if s.subseq {
		return b.LBoSub(n.meta())
	}
	return max(b.LBo(n.meta()), lbp)
}

// scanDelta refines every pending insert exactly, threshold-cut like
// any leaf member. The append buffer is unordered; the heap's final
// (distance, id) sort keeps results deterministic.
func (s *searcher) scanDelta(q []geo.Point, results *topk.Heap, stats *SearchStats) error {
	for _, tr := range s.adds {
		if s.cancelled() {
			return s.err()
		}
		stats.ExactComputations++
		admit(results, s.shared, s.score(q, tr, s.threshold(results)))
	}
	return nil
}

// score is the searcher's sequential form of the package-level score.
func (s *searcher) score(q []geo.Point, tr *geo.Trajectory, threshold float64) topk.Item {
	return score(s.refiner, s.cfg.Measure, s.cfg.Params, q, tr, threshold, &s.sc.ds)
}

// refine computes exact distances for a leaf's members, with
// early-abandoning kernels cut off at the current threshold. While
// the result heap is not yet full the threshold is +Inf, so no
// abandoned (+Inf) value can ever be retained.
func (s *searcher) refine(lv leafView, q []geo.Point, results *topk.Heap, stats *SearchStats) error {
	if s.refineWorkers > 1 && len(lv.tids) >= minParallelLeaf {
		return s.refineParallel(lv, q, results, stats)
	}
	for _, tid := range lv.tids {
		if s.dels != nil {
			if _, dead := s.dels[tid]; dead {
				continue
			}
		}
		if s.cancelled() {
			return s.err()
		}
		stats.ExactComputations++
		admit(results, s.shared, s.score(q, s.trajs[tid], s.threshold(results)))
	}
	return nil
}

// refineParallel fans one leaf's exact-distance computations over a
// worker group. The call is a plain function handoff (not a method
// closure over the searcher) so the sequential path's searcher never
// escapes to the heap.
func (s *searcher) refineParallel(lv leafView, q []geo.Point, results *topk.Heap, stats *SearchStats) error {
	sc := s.sc
	nw := clampWorkers(s.refineWorkers, len(lv.tids))
	for len(sc.wds) < nw {
		sc.wds = append(sc.wds, new(dist.Scratch))
	}
	computed, err := refineLeafParallel(parallelRefine{
		ctx:     s.ctx,
		measure: s.cfg.Measure,
		params:  s.cfg.Params,
		refiner: s.refiner,
		trajs:   s.trajs,
		dels:    s.dels,
		tids:    lv.tids,
		q:       q,
		results: results,
		shared:  s.shared,
		wds:     sc.wds[:nw],
	})
	stats.ExactComputations += computed
	return err
}

// parallelRefine carries one leaf's parallel refinement inputs.
type parallelRefine struct {
	ctx     context.Context
	measure dist.Measure
	params  dist.Params
	refiner Refiner // nil: default whole-trajectory refinement
	trajs   map[int32]*geo.Trajectory
	dels    map[int32]struct{} // tombstoned members to skip
	tids    []int32
	q       []geo.Point
	results *topk.Heap
	shared  *SharedTopK // nil: no cross-partition bound
	wds     []*dist.Scratch
}

// refineLeafParallel refines one leaf over parallelFor workers.
// Workers read the leaf's pruning threshold from an atomic float64
// (stale reads are only ever too large, which keeps the early-abandon
// admissible — see doc.go), tighten it by the query's shared heap when
// there is one, and serialize heap pushes behind a mutex.
// It returns the number of exact computations performed and the
// context error, if any.
func refineLeafParallel(pr parallelRefine) (int, error) {
	var (
		computed atomic.Int64
		thr      atomicFloat64
		mu       sync.Mutex
	)
	thr.Store(pr.results.Threshold())
	err := parallelFor(pr.ctx, pr.wds, len(pr.tids), func(i int, ws *dist.Scratch) {
		tid := pr.tids[i]
		if pr.dels != nil {
			if _, dead := pr.dels[tid]; dead {
				return
			}
		}
		it := score(pr.refiner, pr.measure, pr.params, pr.q, pr.trajs[tid], sharedCut(thr.Load(), pr.shared), ws)
		computed.Add(1)
		mu.Lock()
		admit(pr.results, pr.shared, it)
		thr.Store(pr.results.Threshold())
		mu.Unlock()
	})
	return int(computed.Load()), err
}

// parallelFor runs fn(i, ws) for every i in [0, n), one worker
// goroutine per scratch in wds. Workers claim indices through an
// atomic cursor and stop early once the context is cancelled (each
// worker polls through its own ctxPoller — sharing one would race on
// its ops counter). All workers are joined before returning, so no
// goroutine outlives the call; the return is ctx's error when the
// loop aborted early. Both the top-k and the range refinement build
// on this scaffolding.
func parallelFor(ctx context.Context, wds []*dist.Scratch, n int, fn func(i int, ws *dist.Scratch)) error {
	var (
		cursor atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for _, ws := range wds {
		wg.Add(1)
		go func(ws *dist.Scratch) {
			defer wg.Done()
			poller := ctxPoller{ctx: ctx}
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if poller.cancelled() {
					stop.Store(true)
					return
				}
				fn(i, ws)
			}
		}(ws)
	}
	wg.Wait()
	if stop.Load() {
		return ctx.Err()
	}
	return nil
}

// clampWorkers bounds a requested refinement worker count by the
// leaf's member count and the machine's cores. The request may arrive
// unvalidated over the RPC protocol, so the clamp is a safety bound,
// not just a heuristic.
func clampWorkers(n, members int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		n = max
	}
	if n > members {
		n = members
	}
	return n
}

// atomicFloat64 is a float64 stored as atomic bits — the shared
// pruning threshold of the refinement workers.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat64) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// entry is the payload of one queued element: a trie node with the
// bound state of its root path and its pivot bound lbp, or — b nil — a
// terminal node whose payload awaits refinement (its leafView is taken
// when it is popped).
type entry struct {
	n   searchNode
	b   *dist.PathBounder
	lbp float64
}

// queueItem is what the heap orders and moves: 16 bytes, while the
// payload it stands for stays where it is in the slab.
type queueItem struct {
	lb   float64
	seq  uint32 // FIFO tie-break for determinism
	slot uint32 // index of the payload in the slab
}

func (a queueItem) before(b queueItem) bool {
	if a.lb != b.lb {
		return a.lb < b.lb
	}
	return a.seq < b.seq
}

// entryQueue is the best-first priority queue: a hand-rolled 4-ary
// min-heap of queueItems ordered by (lb, seq) over a slab of payloads
// that never move (see "Chains are walked, not queued" in doc.go).
// container/heap would box every item through its interface{} surface —
// an allocation per push on the hot path.
type entryQueue struct {
	heap []queueItem
	slab []entry  // payloads; len is the query's high-water mark
	free []uint32 // slab slots vacated by pop
	seq  uint32
}

// reset empties the queue and drops every node and bounder reference
// the slab holds — popped slots included, pop does not clear them — so
// a pooled scratch pins nothing of the index it last searched.
func (q *entryQueue) reset() {
	q.heap, q.slab, q.free = q.heap[:0], emptied(q.slab), q.free[:0]
	q.seq = 0
}

func (q *entryQueue) len() int { return len(q.heap) }

func (q *entryQueue) push(lb float64, e entry) {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = e
	} else {
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, e)
	}
	it := queueItem{lb: lb, seq: q.seq, slot: slot}
	q.seq++
	q.heap = append(q.heap, it)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !it.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

func (q *entryQueue) pop() (float64, entry) {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	q.heap = h[:n]
	// Sift the hole left by the root down to where last belongs.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[best]) {
				best = j
			}
		}
		if !h[best].before(last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	if n > 0 {
		h[i] = last
	}
	q.free = append(q.free, top.slot)
	return top.lb, q.slab[top.slot]
}
