package cluster

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repose/internal/geo"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// The query planner writes Section V-C's one dataflow — broadcast the
// query to the selected partitions, search each one locally, collect
// and merge — once. A planned engine contributes a partitionClient that
// runs one wave of partition-local work: Remote ships it to its workers
// as one Worker.Query per worker group (with failover), over TCP or in
// process, and a worker answers that call with Local.wave over the
// partitions it owns; a BuildLocal engine runs Local.wave itself.
// Everything around the waves lives here: the partition selection, the
// re-plan after a concurrent split, the probe budget's head / bound /
// survivor waves, the merge, the load tracker, and the report.

// partitionClient runs one wave of partition-local work: req.Kind over
// the global partition ids req.Partitions for every query in
// req.Queries, answered with one row per (query, partition) task (see
// QueryReply).
type partitionClient interface {
	wave(ctx context.Context, req *QueryArgs) (QueryReply, error)
}

// plannedEngine is what the planner reads of an engine besides its
// waves: the partition count it plans (and re-plans) over, the vectors
// every report carries, and the load tracker that orders probe budgets
// and learns from every top-k wave.
type plannedEngine interface {
	partitionClient
	NumPartitions() int
	Generations() []uint64
	PartitionIndexBytes() []int
	tracker() *loadTracker
}

// QueryReport describes one distributed query's execution.
type QueryReport struct {
	Wall           time.Duration   // end-to-end wall time
	PartitionTimes []time.Duration // per scanned partition, in ProbedPartitions order
	MaxPartition   time.Duration   // slowest partition (the straggler)
	SumPartition   time.Duration   // total compute across partitions

	// Generations is the per-partition generation floor of the
	// answer: the engine's authoritative generation vector snapshotted
	// at dispatch, before any partition was scanned. Every partition's
	// snapshot-isolated scan observed at least this generation (only
	// replicas at or above the authoritative generation serve reads,
	// and a scan reads its replica's then-current state), so an answer
	// cache keyed by this vector can never serve a result missing a
	// mutation that was acknowledged before the cached query began.
	Generations []uint64
	// CacheEligible reports that the answer is canonical for
	// (query, k) — it covered every partition, either by scanning it
	// or by proving it cannot contribute (exact-mode probe pruning).
	// A query restricted with QueryOptions.Partitions, or one that
	// skipped partitions in best-effort mode, answers a sub-question
	// that must not be cached as the full answer.
	CacheEligible bool
	// IndexBytes is the per-partition index footprint when the query
	// finished, indexed by global partition id (like Generations), as
	// the workers last reported it.
	IndexBytes []int
	// ExactComputations is the number of exact (or refined) distance
	// computations the top-k query cost, summed over its partition
	// scans — the work cross-partition threshold sharing exists to
	// prune. Radius queries leave it zero.
	ExactComputations int64

	// The three sets partition the query's selection. ProbedPartitions
	// lists the global partition ids scanned, in scan-wave order (every
	// selected partition on a plain full scatter). PrunedPartitions
	// lists those a probe budget proved unable to contribute by an
	// admissible bound check (exact mode); SkippedPartitions lists
	// those it dropped unchecked (best-effort mode).
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

// BatchReport describes a batch execution (Section V-A discusses
// batch search as the workload homogeneous partitioning targets; this
// engine serves batches by scheduling (query, partition) tasks over
// the engine's scan slots, so partition-level load imbalance shows up
// directly in the makespan).
type BatchReport struct {
	Makespan  time.Duration   // wall time for the whole batch
	PerQuery  []time.Duration // per-query completion time (from batch start)
	TotalWork time.Duration   // summed partition compute
}

// search answers one top-k query on e.
func search(ctx context.Context, e plannedEngine, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	a, err := run(ctx, e, QueryArgs{Kind: KindTopK, Queries: [][]geo.Point{q}, K: k}, opt)
	if err != nil {
		return nil, a.report, err
	}
	return a.lists[0], a.report, nil
}

// searchRadius answers one range query on e.
func searchRadius(ctx context.Context, e plannedEngine, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	// Radius queries have no probe-budget phase: neutralize the
	// top-k-only fields so they can neither alter execution nor leak
	// into the eligibility accounting.
	opt.ProbeBudget, opt.BestEffort = 0, false
	a, err := run(ctx, e, QueryArgs{Kind: KindRadius, Queries: [][]geo.Point{q}, Radius: radius}, opt)
	if err != nil {
		return nil, a.report, err
	}
	return a.lists[0], a.report, nil
}

// searchBatch answers a batch of top-k queries on e as one wave of
// (query, partition) tasks; each query is merged and fed to the load
// tracker like a single Search.
func searchBatch(ctx context.Context, e plannedEngine, qs [][]geo.Point, k int, opt QueryOptions) ([][]topk.Item, BatchReport, error) {
	if len(qs) == 0 {
		return nil, BatchReport{}, nil
	}
	opt.ProbeBudget, opt.BestEffort = 0, false
	a, err := run(ctx, e, QueryArgs{Kind: KindTopK, Queries: qs, K: k}, opt)
	if err != nil {
		return nil, a.batch, err
	}
	return a.lists, a.batch, nil
}

// answer is one planned query in progress: each query's rows from
// every wave so far (in ProbedPartitions order), each query's merged
// answer, and the reports.
type answer struct {
	rows   [][][]topk.Item
	lists  [][]topk.Item
	report QueryReport
	batch  BatchReport
}

// run plans args over the current partition count and runs it,
// re-planning while a split grew the count underneath it. A split
// prunes the moved ids from its source right after publishing the new
// partition, so a query planned over the old count may reach the source
// after the prune and find the moved ids in no partition it scans. A
// scan that saw the pruned source finishes after the grown count became
// visible, so comparing the count before and after is sufficient.
func run(ctx context.Context, e plannedEngine, args QueryArgs, opt QueryOptions) (answer, error) {
	args.MinGens, args.NoPivots, args.RefineWorkers, args.Refine = opt.MinGens, opt.NoPivots, opt.RefineWorkers, opt.Refine
	for {
		n := e.NumPartitions()
		a, err := runOver(ctx, e, n, args, opt)
		if err != nil || e.NumPartitions() == n {
			return a, err
		}
	}
}

// runOver is run planned over the first n partitions.
func runOver(ctx context.Context, e plannedEngine, n int, args QueryArgs, opt QueryOptions) (answer, error) {
	nq := len(args.Queries)
	a := answer{rows: make([][][]topk.Item, nq), lists: make([][]topk.Item, nq)}
	a.batch.PerQuery = make([]time.Duration, nq)
	a.report.Generations = e.Generations()
	sel, err := selectPartitions(opt.Partitions, n)
	if err != nil {
		return a, err
	}
	start := time.Now()
	if args.Kind == KindTopK {
		// One heap per query for all of its waves: the survivor wave
		// starts from the k-th distance the head wave reached. Local.wave
		// and in-process workers prune against them; a worker process
		// heaps its own share per call.
		args.shared = acquireHeaps(nq, args.K)
		defer releaseHeaps(args.shared)
	}
	err = a.probe(ctx, e, &args, sel, opt)
	a.report.finish(start)
	a.report.CacheEligible = len(opt.Partitions) == 0 && len(a.report.SkippedPartitions) == 0
	a.report.IndexBytes = e.PartitionIndexBytes()
	a.batch.Makespan, a.batch.TotalWork = a.report.Wall, a.report.SumPartition
	return a, err
}

// probe runs the query's waves over sel. Without a usable probe budget
// that is one wave over the whole selection. With one, the budget-many
// best-scoring partitions (loadTracker.order) are scanned first; each
// remaining partition is then either pruned — its admissible lower
// bound strictly exceeds the k-th distance so far, so nothing it holds
// can displace the merged top-k, not even on a (distance, id) tie — or
// scanned in a survivor wave. Exact mode is therefore bit-identical to
// the full scatter; best-effort mode skips the tail unchecked.
func (a *answer) probe(ctx context.Context, e plannedEngine, args *QueryArgs, sel []int, opt QueryOptions) error {
	budget := opt.ProbeBudget
	if budget <= 0 || budget >= len(sel) {
		return a.collect(ctx, e, args, sel)
	}
	order := e.tracker().order(sel)
	head, tail := order[:budget:budget], order[budget:]
	if err := a.collect(ctx, e, args, head); err != nil {
		return err
	}
	if opt.BestEffort {
		a.report.SkippedPartitions = tail
		return nil
	}
	dk := math.Inf(1)
	if items := a.lists[0]; args.K > 0 && len(items) >= args.K {
		dk = items[args.K-1].Dist
	}
	bound := *args
	bound.Kind, bound.Partitions = KindBound, tail
	bounds, err := e.wave(ctx, &bound)
	if err != nil && (ctx.Err() != nil || errors.Is(err, ErrClosed)) {
		return err
	}
	var survivors []int
	for i, pid := range tail {
		// A failed bound wave proves nothing about any partition of the
		// tail: conservatively scan all of it. The answer stays exact,
		// and a genuinely unreachable partition still fails the query
		// through the survivor wave itself.
		if err == nil && bounds.Bounds[i] > dk {
			a.report.PrunedPartitions = append(a.report.PrunedPartitions, pid)
			continue
		}
		survivors = append(survivors, pid)
	}
	if len(survivors) == 0 {
		return nil
	}
	return a.collect(ctx, e, args, survivors)
}

// collect runs one wave of args over pids and folds it in: each query's
// rows join its earlier waves' and are merged again, top-k rows feed the
// load tracker (reward is how many of a row's items survived this
// merge), and timings and refine counts join the reports.
func (a *answer) collect(ctx context.Context, e plannedEngine, args *QueryArgs, pids []int) error {
	args.Partitions = pids
	w, err := e.wave(ctx, args)
	if err != nil {
		return err
	}
	np := len(pids)
	times := make([]time.Duration, len(w.Nanos))
	for i, ns := range w.Nanos {
		times[i] = time.Duration(ns)
		a.report.ExactComputations += w.Refined[i]
		if d := time.Duration(w.Done[i]); d > a.batch.PerQuery[i/np] {
			a.batch.PerQuery[i/np] = d
		}
	}
	a.report.ProbedPartitions = extend(a.report.ProbedPartitions, pids)
	a.report.PartitionTimes = extend(a.report.PartitionTimes, times)
	for qi := range a.rows {
		lo, hi := qi*np, (qi+1)*np
		a.rows[qi] = extend(a.rows[qi], w.Lists[lo:hi])
		a.lists[qi] = mergeDedup(args.K, a.rows[qi])
		if args.Kind == KindTopK {
			e.tracker().recordWave(pids, w.Lists[lo:hi], w.Refined[lo:hi], times[lo:hi], a.lists[qi])
		}
	}
	return nil
}

// extend appends src to dst, adopting src outright when dst is empty —
// a single-wave query copies nothing. The adopted slice is capped, so a
// later append never writes past it into a neighbour's rows.
func extend[T any](dst, src []T) []T {
	if len(dst) == 0 {
		return src[:len(src):len(src)]
	}
	return append(dst, src...)
}

// mergeDedup merges per-partition result lists into one (distance,
// id)-sorted list of at most k items (every item when k ≤ 0: the
// radius merge), dropping duplicate ids. Duplicates arise only inside a
// split's install→prune window, when a moved trajectory momentarily
// lives in both the old and the new partition; the copies are
// identical, so keeping the first occurrence preserves the canonical
// answer.
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

// heapSet is a top-k request's result heaps, one per query, that all of
// the query's partition scans share (see rptrie.SharedTopK). Sets are
// pooled, keeping the engine call's steady-state allocation count flat.
type heapSet struct {
	hs []*rptrie.SharedTopK
	// abandoned keeps the set out of the pool: a worker call the driver
	// stopped waiting for may still be scanning with it in process.
	abandoned atomic.Bool
}

var heapPool = sync.Pool{New: func() any { return new(heapSet) }}

// acquireHeaps returns a reset set of nq heaps for a top-k request. A
// non-positive k (the wire does not validate it) answers nothing and
// shares nothing: its entries are nil.
func acquireHeaps(nq, k int) *heapSet {
	s := heapPool.Get().(*heapSet)
	if cap(s.hs) < nq {
		s.hs = append(s.hs[:cap(s.hs)], make([]*rptrie.SharedTopK, nq-cap(s.hs))...)
	}
	s.hs = s.hs[:nq]
	for i := range s.hs {
		if k <= 0 {
			s.hs[i] = nil
			continue
		}
		if s.hs[i] == nil {
			s.hs[i] = new(rptrie.SharedTopK)
		}
		s.hs[i].Reset(k)
	}
	return s
}

// releaseHeaps recycles s once every scan it was handed to has
// returned — Local.wave joins its tasks first, and the driver marks a
// set it stopped waiting on abandoned.
func releaseHeaps(s *heapSet) {
	if !s.abandoned.Load() {
		heapPool.Put(s)
	}
}
