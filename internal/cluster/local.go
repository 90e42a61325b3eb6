package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repose/internal/geo"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// Local runs all partitions in one process, one goroutine per
// partition up to a worker cap — the single-machine stand-in for the
// paper's 16-node Spark cluster (each of the 64 cores processes one
// of the 64 default partitions).
type Local struct {
	// partsPtr holds the partition index slice behind an atomic
	// pointer: queries snapshot it once and never observe a split
	// mid-flight, while SplitPartition publishes the grown slice with
	// one store. Mutations are serialized by dir.mu as before.
	partsPtr  atomic.Pointer[[]LocalIndex]
	gpids     []int // local slot → global partition id; nil = identity
	workers   int
	sem       chan struct{} // shared worker-cap semaphore, sized workers
	buildTime time.Duration
	dir       *directory // online-mutation routing; nil on worker views
	dataDir   string     // durable root; split clones install under it
	loads     *loadTracker
}

// sharedPool recycles the per-query result heaps that a query's
// partition scans share (see rptrie.SharedTopK), keeping the engine
// call's steady-state allocation count where it was. Package-level
// because a worker serves every RPC through a fresh localView.
var sharedPool = sync.Pool{New: func() any { return new(rptrie.SharedTopK) }}

// acquireShared returns a shared result heap for one top-k query. A
// non-positive k (the wire does not validate it) answers nothing and
// shares nothing.
func acquireShared(k int) *rptrie.SharedTopK {
	if k <= 0 {
		return nil
	}
	s := sharedPool.Get().(*rptrie.SharedTopK)
	s.Reset(k)
	return s
}

// releaseShared recycles s once every scan it was handed to has
// returned — scatter and SearchBatch join their goroutines first.
func releaseShared(s *rptrie.SharedTopK) {
	if s != nil {
		sharedPool.Put(s)
	}
}

// parts snapshots the partition index slice; callers must use one
// snapshot for a whole operation so a concurrent split cannot shift
// slots under them.
func (c *Local) parts() []LocalIndex {
	if p := c.partsPtr.Load(); p != nil {
		return *p
	}
	return nil
}

// setParts publishes a new partition slice and sizes the load tracker
// to match.
func (c *Local) setParts(parts []LocalIndex) {
	c.partsPtr.Store(&parts)
	if c.loads == nil {
		c.loads = newLoadTracker(len(parts))
	} else {
		c.loads.grow(len(parts))
	}
}

// splitSince reports whether SplitPartition published a grown slice
// after parts was snapshotted. A split prunes the moved ids from the
// source partition in place right after publishing, so a query still
// scanning the old snapshot may reach the source after the prune and
// find the moved ids in no partition it knows; every query method
// re-runs on the current slice when this reports true. The check is
// sufficient because the prune follows the publish: a scan that saw
// the pruned source finishes after the grown slice became visible.
func (c *Local) splitSince(parts []LocalIndex) bool {
	return len(c.parts()) != len(parts)
}

// gpid maps a local index slot to its global partition id.
func (c *Local) gpid(pi int) int {
	if c.gpids == nil {
		return pi
	}
	return c.gpids[pi]
}

// gpidsOf maps a slice of local slots to global partition ids.
func (c *Local) gpidsOf(sel []int) []int {
	out := make([]int, len(sel))
	for i, pi := range sel {
		out[i] = c.gpid(pi)
	}
	return out
}

// QueryReport describes one distributed query's execution.
type QueryReport struct {
	Wall           time.Duration   // end-to-end wall time
	PartitionTimes []time.Duration // per-partition local search time
	MaxPartition   time.Duration   // slowest partition (the straggler)
	SumPartition   time.Duration   // total compute across partitions

	// Generations is the per-partition generation floor of the
	// answer: the engine's authoritative generation vector snapshotted
	// at dispatch, before any partition was scanned. Every partition's
	// snapshot-isolated scan observed at least this generation (on the
	// local engine the scan reads the then-current state; on the
	// remote engine only replicas at or above the authoritative
	// generation serve reads), so an answer cache keyed by this vector
	// can never serve a result missing a mutation that was
	// acknowledged before the cached query began.
	Generations []uint64
	// CacheEligible reports that the answer is canonical for
	// (query, k) — it covered every partition, either by scanning it
	// or by proving it cannot contribute (exact-mode probe pruning).
	// A query restricted with QueryOptions.Partitions, or one that
	// skipped partitions in best-effort mode, answers a sub-question
	// that must not be cached as the full answer.
	CacheEligible bool
	// IndexBytes is the per-partition index footprint at dispatch,
	// indexed by global partition id (like Generations). The local
	// engine reports live sizes; the remote engine reports the sizes
	// workers declared at build time.
	IndexBytes []int
	// ExactComputations is the number of exact (or refined) distance
	// computations the top-k query cost, summed over its partition
	// scans — the work cross-partition threshold sharing exists to
	// prune. Radius queries leave it zero.
	ExactComputations int64

	// ProbedPartitions lists the global partition ids actually
	// scanned when a probe budget shaped the query (nil on a plain
	// full scatter). PrunedPartitions lists those proven unable to
	// contribute by an admissible bound check (exact mode);
	// SkippedPartitions lists those dropped unchecked (best-effort
	// mode).
	ProbedPartitions  []int
	PrunedPartitions  []int
	SkippedPartitions []int
}

// Imbalance returns the straggler ratio MaxPartition/mean; 1.0 is a
// perfectly balanced query.
func (r QueryReport) Imbalance() float64 {
	if len(r.PartitionTimes) == 0 || r.SumPartition == 0 {
		return 1
	}
	mean := float64(r.SumPartition) / float64(len(r.PartitionTimes))
	return float64(r.MaxPartition) / mean
}

// finish folds the per-partition timings into the aggregates.
func (r *QueryReport) finish(start time.Time) {
	r.Wall = time.Since(start)
	for _, d := range r.PartitionTimes {
		r.SumPartition += d
		if d > r.MaxPartition {
			r.MaxPartition = d
		}
	}
}

// addRefined folds one wave's per-partition refine counts into
// ExactComputations.
func (r *QueryReport) addRefined(refined []int64) {
	for _, n := range refined {
		r.ExactComputations += n
	}
}

// absorb folds a follow-up phase's timings into this report; the
// phases ran sequentially, so walls add.
func (r *QueryReport) absorb(o QueryReport) {
	r.Wall += o.Wall
	r.PartitionTimes = append(r.PartitionTimes, o.PartitionTimes...)
	r.SumPartition += o.SumPartition
	if o.MaxPartition > r.MaxPartition {
		r.MaxPartition = o.MaxPartition
	}
	r.ExactComputations += o.ExactComputations
}

// BuildLocal builds one index per partition in parallel. workers ≤ 0
// uses GOMAXPROCS.
func BuildLocal(spec IndexSpec, parts [][]*geo.Trajectory, workers int) (*Local, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Local{
		workers: workers,
		sem:     make(chan struct{}, workers),
	}
	indexes := make([]LocalIndex, len(parts))
	start := time.Now()
	sem := c.sem
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, part []*geo.Trajectory) {
			defer wg.Done()
			defer func() { <-sem }()
			idx, err := spec.BuildLocal(part)
			if err != nil {
				errs[i] = fmt.Errorf("partition %d: %w", i, err)
				return
			}
			indexes[i] = idx
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.setParts(indexes)
	c.buildTime = time.Since(start)
	c.dir = newDirectory(spec, parts)
	return c, nil
}

// localView wraps a subset of partition indexes as a Local sharing
// the same query machinery; the RPC worker serves its owned
// partitions through one. pids names each index's global partition id
// so per-partition generation pins resolve correctly.
func localView(indexes []LocalIndex, pids []int, workers int) *Local {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Local{gpids: pids, workers: workers, sem: make(chan struct{}, workers)}
	c.setParts(indexes)
	return c
}

// scatter fans one partition-local operation out over the sel slots
// of parts under the worker cap, timing each slot. It returns the
// per-slot result lists (indexed like sel) and the timing report; a
// cancelled ctx wins over per-partition errors.
func (c *Local) scatter(ctx context.Context, parts []LocalIndex, sel []int, what string, fn func(si, pi int, idx LocalIndex) ([]topk.Item, error)) ([][]topk.Item, QueryReport, error) {
	report := QueryReport{PartitionTimes: make([]time.Duration, len(sel))}
	locals := make([][]topk.Item, len(sel))
	errs := make([]error, len(sel))
	start := time.Now()
	// The semaphore is shared across concurrent queries: the cap
	// bounds the engine's total partition-scan parallelism rather
	// than each query's, and the per-query channel allocation goes
	// away.
	sem := c.sem
	var wg sync.WaitGroup
	for si, pi := range sel {
		// Don't queue behind other queries' scans once cancelled: a
		// shared semaphore must not turn a deadline-bounded query
		// into an unbounded wait.
		select {
		case <-ctx.Done():
			errs[si] = ctx.Err()
			continue
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(si, pi int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			locals[si], errs[si] = fn(si, pi, parts[pi])
			report.PartitionTimes[si] = time.Since(t0)
		}(si, pi)
	}
	wg.Wait()
	report.finish(start)
	if err := ctx.Err(); err != nil {
		return nil, report, fmt.Errorf("cluster: %s: %w", what, err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, report, err
		}
	}
	return locals, report, nil
}

// searchLists runs one partition-local top-k scan per sel slot and
// returns the unmerged result lists plus each slot's exact-distance
// refinement count — the per-partition cost counter the load tracker
// learns from and the v6 protocol ships back to the driver. Every scan
// prunes against shared, the query's one result heap, so a slot's list
// holds the partition's members that can still be in the global top-k
// (ties with the k-th distance included), not its local top-k; merged,
// the lists yield the same answer. Sharing is passive: no scan waits
// for another.
func (c *Local) searchLists(ctx context.Context, parts []LocalIndex, sel []int, q []geo.Point, k int, opt QueryOptions, shared *rptrie.SharedTopK) ([][]topk.Item, []int64, QueryReport, error) {
	refined := make([]int64, len(sel))
	locals, report, err := c.scatter(ctx, parts, sel, "search", func(si, pi int, idx LocalIndex) ([]topk.Item, error) {
		var stats rptrie.SearchStats
		items, err := searchOne(ctx, c.gpid(pi), idx, q, k, opt, &stats, shared)
		refined[si] = int64(stats.ExactComputations)
		return items, err
	})
	report.addRefined(refined)
	return locals, refined, report, err
}

// Search broadcasts the query to every selected partition and merges
// the local top-k results (the collect step of Section V-C); with a
// probe budget it scans score-ordered partitions first and prunes the
// tail it can prove irrelevant. When ctx is cancelled mid-query the
// partition scans stop early and ctx's error is returned.
func (c *Local) Search(ctx context.Context, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	for {
		parts := c.parts()
		items, report, err := c.searchParts(ctx, parts, q, k, opt)
		if err != nil || !c.splitSince(parts) {
			return items, report, err
		}
	}
}

// searchParts is Search over one snapshot of the partition slice.
func (c *Local) searchParts(ctx context.Context, parts []LocalIndex, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	gens := c.Generations()
	sel, err := selectPartitions(opt.Partitions, len(parts))
	if err != nil {
		return nil, QueryReport{}, err
	}
	items, report, err := c.searchBudgeted(ctx, parts, sel, q, k, opt)
	report.Generations = gens
	report.CacheEligible = len(opt.Partitions) == 0 && len(report.SkippedPartitions) == 0
	report.IndexBytes = c.PartitionIndexBytes()
	if err != nil {
		return nil, report, err
	}
	return items, report, nil
}

// searchBudgeted answers one top-k query over the sel slots. Without
// a usable probe budget every slot is scanned. With one, the budget-
// many highest-scoring slots are probed first; each remaining slot is
// then either pruned — its admissible best-possible lower bound
// strictly exceeds the current k-th distance, so by admissibility no
// trajectory it holds can displace the merged top-k even on
// (distance, id) ties — or probed in a second wave. Exact mode is
// therefore bit-identical to a full scatter; best-effort mode skips
// the unproven tail outright.
func (c *Local) searchBudgeted(ctx context.Context, parts []LocalIndex, sel []int, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	// One heap for the whole query: the survivor wave starts from the
	// k-th distance the head wave reached.
	shared := acquireShared(k)
	defer releaseShared(shared)
	budget := opt.ProbeBudget
	if budget <= 0 || budget >= len(sel) {
		locals, refined, report, err := c.searchLists(ctx, parts, sel, q, k, opt, shared)
		if err != nil {
			return nil, report, err
		}
		items := mergeDedup(k, locals)
		c.recordLoads(sel, locals, refined, report.PartitionTimes, items)
		return items, report, nil
	}
	order := c.loads.order(sel)
	head, tail := order[:budget], order[budget:]
	locals, refined, report, err := c.searchLists(ctx, parts, head, q, k, opt, shared)
	report.ProbedPartitions = c.gpidsOf(head)
	if err != nil {
		return nil, report, err
	}
	items := mergeDedup(k, locals)
	c.recordLoads(head, locals, refined, report.PartitionTimes, items)
	if opt.BestEffort {
		report.SkippedPartitions = c.gpidsOf(tail)
		return items, report, nil
	}
	dk := math.Inf(1)
	if len(items) >= k {
		dk = items[k-1].Dist
	}
	var survivors []int
	for _, pi := range tail {
		b, err := boundOne(ctx, c.gpid(pi), parts[pi], q, opt)
		if err != nil {
			if ctx.Err() != nil {
				return nil, report, err
			}
			// A failed bound proves nothing about the partition:
			// conservatively treat it as a survivor and scan it. The
			// answer stays exact, and a genuine partition failure
			// still surfaces through the scan itself.
			survivors = append(survivors, pi)
			continue
		}
		if b > dk {
			report.PrunedPartitions = append(report.PrunedPartitions, c.gpid(pi))
			continue
		}
		survivors = append(survivors, pi)
	}
	if len(survivors) == 0 {
		return items, report, nil
	}
	locals2, refined2, rep2, err := c.searchLists(ctx, parts, survivors, q, k, opt, shared)
	report.ProbedPartitions = append(report.ProbedPartitions, c.gpidsOf(survivors)...)
	report.absorb(rep2)
	if err != nil {
		return nil, report, err
	}
	items = mergeDedup(k, append(locals, locals2...))
	c.recordLoads(survivors, locals2, refined2, rep2.PartitionTimes, items)
	return items, report, nil
}

// recordLoads feeds one wave's per-slot outcomes to the load tracker
// (see loadTracker.recordWave).
func (c *Local) recordLoads(sel []int, locals [][]topk.Item, refined []int64, times []time.Duration, merged []topk.Item) {
	c.loads.recordWave(sel, locals, refined, times, merged)
}

// mergeDedup merges per-partition result lists into one global top-k,
// dropping duplicate ids. Duplicates arise only inside a split's
// install→prune window, when a moved trajectory momentarily lives in
// both the old and the new partition; the copies are identical, so
// keeping the first occurrence in (Dist, ID) order preserves the
// canonical answer.
func mergeDedup(k int, lists [][]topk.Item) []topk.Item {
	var all []topk.Item
	for _, l := range lists {
		all = append(all, l...)
	}
	topk.SortItems(all)
	seen := make(map[int]struct{}, len(all))
	out := all[:0]
	for _, it := range all {
		if _, dup := seen[it.ID]; dup {
			continue
		}
		seen[it.ID] = struct{}{}
		out = append(out, it)
		if len(out) == k {
			break
		}
	}
	return out
}

// dedupItems removes duplicate ids from a (Dist, ID)-sorted list in
// place, keeping each id's first occurrence (see mergeDedup for when
// duplicates can exist at all).
func dedupItems(items []topk.Item) []topk.Item {
	seen := make(map[int]struct{}, len(items))
	out := items[:0]
	for _, it := range items {
		if _, dup := seen[it.ID]; dup {
			continue
		}
		seen[it.ID] = struct{}{}
		out = append(out, it)
	}
	return out
}

// Generations implements Engine: each partition index's current
// generation, 0 for immutable (baseline) indexes. The snapshot is
// taken partition by partition, but each coordinate is a valid floor:
// generations only advance.
func (c *Local) Generations() []uint64 {
	parts := c.parts()
	gens := make([]uint64, len(parts))
	for i, idx := range parts {
		if m, ok := idx.(rptrie.Index); ok {
			gens[i] = m.Generation()
		}
	}
	return gens
}

// SearchRadius returns every trajectory within radius of q, merged
// across the selected partitions and sorted ascending by
// (distance, id). It fails if any selected partition's index lacks
// range support.
func (c *Local) SearchRadius(ctx context.Context, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	// Radius queries have no probe-budget phase: neutralize the
	// top-k-only fields so they can neither alter execution nor leak
	// into the eligibility accounting below.
	opt.ProbeBudget, opt.BestEffort = 0, false
	for {
		parts := c.parts()
		items, report, err := c.radiusParts(ctx, parts, q, radius, opt)
		if err != nil || !c.splitSince(parts) {
			return items, report, err
		}
	}
}

// radiusParts is SearchRadius over one snapshot of the partition slice.
func (c *Local) radiusParts(ctx context.Context, parts []LocalIndex, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	gens := c.Generations()
	sel, err := selectPartitions(opt.Partitions, len(parts))
	if err != nil {
		return nil, QueryReport{}, err
	}
	locals, report, err := c.scatter(ctx, parts, sel, "radius search", func(si, pi int, idx LocalIndex) ([]topk.Item, error) {
		return radiusOne(ctx, pi, c.gpid(pi), idx, q, radius, opt)
	})
	report.Generations = gens
	report.CacheEligible = len(opt.Partitions) == 0 && len(report.SkippedPartitions) == 0
	report.IndexBytes = c.PartitionIndexBytes()
	if err != nil {
		return nil, report, err
	}
	var out []topk.Item
	for _, l := range locals {
		out = append(out, l...)
	}
	topk.SortItems(out)
	return dedupItems(out), report, nil
}

// BuildTime returns the wall time of index construction.
func (c *Local) BuildTime() time.Duration { return c.buildTime }

// NumPartitions returns the partition count.
func (c *Local) NumPartitions() int { return len(c.parts()) }

// Len returns the total number of indexed trajectories.
func (c *Local) Len() int {
	n := 0
	for _, idx := range c.parts() {
		n += idx.Len()
	}
	return n
}

// LoadStats reports the per-partition load profile the engine has
// accumulated — query counts, refine ops, p99 scan latency, and the
// learned reward-per-probe score the probe budget orders by.
func (c *Local) LoadStats() []PartitionLoad {
	if c.loads == nil {
		return nil
	}
	return c.loads.snapshot()
}

// IndexSizeBytes sums the index footprints across partitions.
func (c *Local) IndexSizeBytes() int {
	sz := 0
	for _, b := range c.PartitionIndexBytes() {
		sz += b
	}
	return sz
}

// PartitionIndexBytes reports each partition's live index footprint,
// indexed like the partition slice (global partition ids on a full
// engine). Every query report carries the vector, which is why
// LocalIndex.SizeBytes must be cheap: each index records its footprint
// when its structure is built.
func (c *Local) PartitionIndexBytes() []int {
	parts := c.parts()
	out := make([]int, len(parts))
	for i, idx := range parts {
		out[i] = idx.SizeBytes()
	}
	return out
}

// Close implements Engine: disk-backed partitions (BuildLocalDurable
// or OpenLocalDurable) flush and close their stores; a purely
// in-memory engine holds no external resources.
func (c *Local) Close() error {
	for _, idx := range c.parts() {
		closeDurable(idx)
	}
	return nil
}
