package rptrie

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repose/internal/geo"
	"repose/internal/topk"
)

// core is everything a layout contributes to an index: an encoding of
// the node structure that the layout-independent searcher and range
// walk navigate through searchNode. *trieState (pointer), *succCore and
// *cmpCore implement it; nothing else about an index knows which one it
// holds.
type core interface {
	// rootRef returns the root node, boxed allocation-free (a bare
	// pointer, or a ref in one of sc's arenas).
	rootRef(sc *searchScratch) searchNode
	// coreBytes is the structure's in-memory footprint, O(1).
	coreBytes() int
	// counts returns the node (excluding the root) and leaf counts.
	counts() (nodes, leaves int)
}

// state is one immutable generation of an index: the encoded core, the
// trajectories it covers, and the delta overlay of mutations applied
// since the last compaction. Queries load exactly one state through an
// atomic pointer and never observe a half-applied mutation; writers
// build a fresh state and swap it in (see dynamic.go).
type state struct {
	gen   uint64
	core  core
	trajs map[int32]*geo.Trajectory
	delta *delta // pending mutations; nil once compacted
}

// live returns the number of live trajectories: core members minus
// tombstones plus pending inserts.
func (st *state) live() int {
	n := len(st.trajs)
	if st.delta != nil {
		n += len(st.delta.adds) - len(st.delta.dels)
	}
	return n
}

// trajectory resolves id against the state: pending inserts shadow the
// core, tombstones hide it.
func (st *state) trajectory(tid int32) *geo.Trajectory {
	if tr, hit := st.delta.get(tid); hit {
		return tr
	}
	return st.trajs[tid]
}

// withDelta derives the next generation from st with nd as overlay.
func (st *state) withDelta(nd *delta) *state {
	ns := *st
	ns.delta = nd
	ns.gen = st.gen + 1
	return &ns
}

// index is the one handle behind Trie, Succinct and Compressed: a
// stable value over an atomically swapped immutable state, so concurrent
// readers are always snapshot-isolated from Insert/Delete/Compact. It
// owns everything a layout does not; the named types embed it and add
// only their image format (Save/Read*) and layout-only accessors.
type index struct {
	cfg  Config
	mu   sync.Mutex // serializes writers (Insert/Delete/Upsert/Compact)
	cur  atomic.Pointer[state]
	pool scratchPool // recycled per-query search state
	log  *journal    // nil for an in-memory index; see Durable

	// encode turns a freshly built pointer trie into this layout's
	// core. A failed encode returns an untyped nil core.
	encode func(Config, *trieState) (core, error)
}

// pointerCore is the pointer layout's encode: the built trie is the
// core.
func pointerCore(_ Config, ts *trieState) (core, error) { return ts, nil }

// encoder adapts a layout's concrete encode function to the handle's. A
// failed encode's nil *succCore or *cmpCore must not be boxed into a
// non-nil core.
func encoder[C core](f func(Config, *trieState) (C, error)) func(Config, *trieState) (core, error) {
	return func(cfg Config, ts *trieState) (core, error) {
		c, err := f(cfg, ts)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

// state returns the current immutable snapshot.
func (x *index) state() *state { return x.cur.Load() }

// handle exposes the embedded handle of a named layout type.
func (x *index) handle() *index { return x }

// encoded encodes ts as generation gen of this layout, unpublished.
func (x *index) encoded(ts *trieState, gen uint64) (*state, error) {
	c, err := x.encode(x.cfg, ts)
	if err != nil {
		return nil, err
	}
	return &state{gen: gen, core: c, trajs: ts.trajs}, nil
}

// install encodes ts and publishes it as generation gen.
func (x *index) install(ts *trieState, gen uint64) error {
	st, err := x.encoded(ts, gen)
	if err != nil {
		return err
	}
	x.cur.Store(st)
	return nil
}

// compacted returns the current state with its delta folded into a
// freshly built and encoded core, at the same generation. It publishes
// nothing: the images and the layout conversions want a delta-free view
// of an index without moving it. With a pending delta the result is
// fresh and the caller's own.
func (x *index) compacted() (*state, error) {
	st := x.state()
	if st.delta.empty() {
		return st, nil
	}
	ts, err := buildState(x.cfg, st.delta.merged(st.trajs))
	if err != nil {
		return nil, err
	}
	return x.encoded(ts, st.gen)
}

// Search returns the top-k most similar trajectories to the query
// point sequence q (Algorithm 2). Results order ascending by
// (distance, id); fewer than k results are returned only when the
// index holds fewer than k trajectories. Under tied distances any
// valid top-k set may be returned.
func (x *index) Search(q []geo.Point, k int) []topk.Item {
	return x.SearchAppend(nil, q, k)
}

// SearchAppend is Search appending the results to dst (which may be
// nil) and returning the extended slice. With a dst of sufficient
// capacity the whole query is allocation-free in steady state — the
// form the benchmark suite and other tight callers use.
func (x *index) SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item {
	out, _ := x.SearchAppendContext(nil, dst, q, k, SearchOptions{})
	return out
}

// SearchWithStats is Search, also reporting traversal statistics.
func (x *index) SearchWithStats(q []geo.Point, k int) ([]topk.Item, SearchStats) {
	var stats SearchStats
	res, _ := x.SearchAppendContext(nil, nil, q, k, SearchOptions{Stats: &stats})
	return res, stats
}

// SearchContext is Search honoring per-query options and a context:
// the best-first loop polls ctx periodically and aborts with ctx's
// error once it is cancelled or past its deadline, so a straggler
// partition can be stopped mid-scan (Section V-B's concern).
func (x *index) SearchContext(ctx context.Context, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error) {
	return x.SearchAppendContext(ctx, nil, q, k, opt)
}

// SearchAppendContext is the one top-k entry point: SearchAppend
// honoring per-query options and a context (nil disables cancellation).
// With a dst of sufficient capacity and the default (nil or
// whole-trajectory) refiner the delta-empty query is allocation-free in
// steady state on every layout, which CI asserts.
func (x *index) SearchAppendContext(ctx context.Context, dst []topk.Item, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return dst, ErrStale
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	s := newSearcher(ctx, x.cfg, st, sc, opt)
	out, stats, err := s.run(st.core.rootRef(sc), q, k, dst)
	if opt.Stats != nil {
		*opt.Stats = stats
	}
	return out, err
}

// BoundContext returns an admissible lower bound on the distance from
// q to every trajectory held by the index: no indexed trajectory is
// closer to q than the returned value. +Inf means the index is empty.
// The bound is cheap — a best-first descent capped at boundBudget
// nodes, no exact distance computations — and deliberately loose;
// its only promise is admissibility, which the driver's probe-budget
// pruning relies on (a partition whose bound already exceeds the
// current k-th distance cannot contribute to the final top-k).
// Pending inserts sit outside the trie and admit no bound, so any
// un-compacted delta collapses the bound to 0.
func (x *index) BoundContext(ctx context.Context, q []geo.Point, opt SearchOptions) (float64, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return 0, ErrStale
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	s := newSearcher(ctx, x.cfg, st, sc, SearchOptions{NoPivots: opt.NoPivots, Refiner: opt.Refiner})
	return s.bound(st.core.rootRef(sc), q)
}

// SearchRadius returns every indexed trajectory within distance
// radius of q, ascending by (distance, id). It reuses the top-k
// machinery with a fixed threshold instead of a shrinking dk — the
// range-query primitive DITA builds its top-k on, provided here as an
// extension (the paper's Section IX mentions range search only via
// DITA).
func (x *index) SearchRadius(q []geo.Point, radius float64) []topk.Item {
	out, _ := x.SearchRadiusContext(nil, q, radius, SearchOptions{})
	return out
}

// SearchRadiusContext is SearchRadius honoring per-query options and
// cancellation: the walk polls ctx periodically and aborts with its
// error once it is cancelled or past its deadline. A nil ctx disables
// cancellation.
func (x *index) SearchRadiusContext(ctx context.Context, q []geo.Point, radius float64, opt SearchOptions) ([]topk.Item, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return nil, ErrStale
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	return searchRadius(ctx, x.cfg, st, sc, q, radius, opt)
}

// Insert adds trajectories to the live index as pending inserts,
// visible to every query issued after it returns. It fails — without
// applying anything — on an empty trajectory or an id that is already
// live.
func (x *index) Insert(trs ...*geo.Trajectory) error { return x.stage(trs, recInsert, stageInsert) }

// Upsert inserts trajectories, replacing any live trajectory sharing
// an id. The replacement is atomic per snapshot: no query observes the
// old and new version of an id together, or neither.
func (x *index) Upsert(trs ...*geo.Trajectory) error { return x.stage(trs, recUpsert, stageUpsert) }

// stage publishes the next generation with trs staged onto the delta by
// stageInsert or stageUpsert.
func (x *index) stage(trs []*geo.Trajectory, typ byte, stage func(*delta, map[int32]*geo.Trajectory, []*geo.Trajectory) (*delta, error)) error {
	if len(trs) == 0 {
		return nil
	}
	if err := x.lock(); err != nil {
		return err
	}
	st := x.state()
	nd, err := stage(st.delta, st.trajs, trs)
	if err != nil {
		x.mu.Unlock()
		return err
	}
	return x.commit(st, st.withDelta(nd), typ, walPayload{Trs: trs})
}

// Delete removes the given ids from the live index, returning how many
// were actually live. Queries issued after it returns never see them.
// A durable index whose journal fails returns 0: the caller never gets
// an acknowledgement the log cannot honor.
func (x *index) Delete(ids ...int) int {
	if len(ids) == 0 || x.lock() != nil {
		return 0
	}
	st := x.state()
	nd, n := stageDelete(st.delta, st.trajs, ids)
	if n == 0 {
		x.mu.Unlock()
		return 0
	}
	if x.commit(st, st.withDelta(nd), recDelete, walPayload{IDs: ids}) != nil {
		return 0
	}
	return n
}

// Compact folds the pending delta into a rebuilt core, restoring the
// fully indexed (zero-overlay) read path. A no-op when the delta is
// empty. In-flight queries keep their snapshot; queries issued after
// it returns see the compacted generation. The rebuild goes through
// the pointer layout and is re-encoded, so nothing about an encoding
// limits which mutations are supported.
func (x *index) Compact() error {
	if err := x.lock(); err != nil {
		return err
	}
	prev := x.state()
	st, err := x.compacted()
	if err != nil || st == prev {
		x.mu.Unlock()
		return err
	}
	st.gen++ // fresh and unpublished: compacted built it
	return x.commit(prev, st, recCompact, walPayload{})
}

// lock takes the writer lock, unless a journal failure has made the
// index read-only.
func (x *index) lock() error {
	x.mu.Lock()
	if x.log != nil && x.log.broken != nil {
		x.mu.Unlock()
		return x.log.broken
	}
	return nil
}

// commit publishes next, the successor of prev, and releases x.mu,
// which the caller holds. With a journal the mutation is first logged
// as a typ record carrying next's generation — a failed append
// publishes nothing — and made durable once the lock is released, so
// concurrent committers share one fsync; a failed sync restores prev
// unless another mutation has published since. Either failure poisons
// the journal.
func (x *index) commit(prev, next *state, typ byte, p walPayload) error {
	if x.log == nil {
		x.cur.Store(next)
		x.mu.Unlock()
		return nil
	}
	p.Gen = next.gen
	lsn, err := x.log.append(typ, p)
	if err == nil {
		x.cur.Store(next)
	}
	x.mu.Unlock()
	if err != nil {
		return err
	}
	if err := x.log.store.Sync(lsn); err != nil {
		x.mu.Lock()
		defer x.mu.Unlock()
		x.cur.CompareAndSwap(next, prev)
		return x.log.poison(err)
	}
	return nil
}

// Generation returns the snapshot's generation counter. It increases
// by one per applied mutation batch and per compaction.
func (x *index) Generation() uint64 { return x.state().gen }

// DeltaLen returns the number of pending (uncompacted) mutations.
func (x *index) DeltaLen() int { return x.state().delta.size() }

// Len returns the number of live indexed trajectories, including
// pending inserts and excluding pending deletes.
func (x *index) Len() int { return x.state().live() }

// Trajectory returns the live indexed trajectory with the given id, or
// nil when the id is unknown or tombstoned.
func (x *index) Trajectory(id int) *geo.Trajectory { return x.state().trajectory(int32(id)) }

// LiveIDs returns the ids of every live trajectory, unordered — the
// input for rebuilding a driver's routing directory after recovery and
// for computing a split's keep set.
func (x *index) LiveIDs() []int {
	st := x.state()
	out := make([]int, 0, len(st.trajs))
	for tid := range st.trajs {
		if st.delta != nil {
			if _, dead := st.delta.dels[tid]; dead {
				continue
			}
		}
		out = append(out, int(tid))
	}
	if st.delta != nil {
		for _, tr := range st.delta.adds {
			out = append(out, tr.ID)
		}
	}
	return out
}

// Config returns the configuration the index was built with.
func (x *index) Config() Config { return x.cfg }

// SizeBytes estimates the in-memory footprint of the index structure
// (nodes, metadata, leaf payloads, pending delta), excluding the raw
// trajectories. The core's share is recorded when a core is built or
// decoded, so the call is O(1) — every query report carries it.
func (x *index) SizeBytes() int {
	st := x.state()
	return st.core.coreBytes() + st.delta.sizeBytes()
}

// NumNodes returns the number of trie nodes, excluding the root (the
// count Fig. 7 reports). Pending inserts are not counted until the
// next compaction folds them in.
func (x *index) NumNodes() int {
	n, _ := x.state().core.counts()
	return n
}

// NumLeaves returns the number of terminal nodes.
func (x *index) NumLeaves() int {
	_, n := x.state().core.counts()
	return n
}

// Index is the full surface of a partition index: what the three
// layouts and Durable all offer, and all internal/cluster needs to know
// about any of them.
type Index interface {
	Insert(trs ...*geo.Trajectory) error
	Delete(ids ...int) int
	Upsert(trs ...*geo.Trajectory) error
	Compact() error
	Generation() uint64
	DeltaLen() int
	Len() int
	SizeBytes() int
	Config() Config
	Layout() Layout
	Search(q []geo.Point, k int) []topk.Item
	SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item
	SearchContext(ctx context.Context, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error)
	BoundContext(ctx context.Context, q []geo.Point, opt SearchOptions) (float64, error)
	SearchRadiusContext(ctx context.Context, q []geo.Point, radius float64, opt SearchOptions) ([]topk.Item, error)
	LiveIDs() []int
	Save(w io.Writer) error
}

var (
	_ Index = (*Trie)(nil)
	_ Index = (*Succinct)(nil)
	_ Index = (*Compressed)(nil)
	_ Index = (*Durable)(nil)
)

// BuildLayout is Build followed by the conversion to layout (Compress
// or CompressTST).
func BuildLayout(cfg Config, ds []*geo.Trajectory, layout Layout) (Index, error) {
	t, err := Build(cfg, ds)
	if err != nil {
		return nil, err
	}
	switch layout {
	case LayoutSuccinct:
		return Compress(t)
	case LayoutCompressed:
		return CompressTST(t)
	}
	return t, nil
}

// ReadIndex deserializes an image written by the Save of the given
// layout (ReadTrie, ReadSuccinct or ReadCompressed).
func ReadIndex(layout Layout, r io.Reader) (Index, error) {
	switch layout {
	case LayoutPointer:
		return ReadTrie(r)
	case LayoutSuccinct:
		return ReadSuccinct(r)
	case LayoutCompressed:
		return ReadCompressed(r)
	}
	return nil, fmt.Errorf("rptrie: unknown layout %v", layout)
}
