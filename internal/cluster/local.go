package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
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
	gpids     []int         // local slot → global partition id, ascending; nil = identity
	sem       chan struct{} // shared scan-slot semaphore, sized by the worker cap
	buildTime time.Duration
	dir       *directory // online-mutation routing; nil on worker views
	dataDir   string     // durable root; split clones install under it
	loads     *loadTracker
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

// slot maps a global partition id to its index in parts(): the
// identity on an engine, a search of the ascending gpids on a view.
func (c *Local) slot(gpid int) int {
	if c.gpids == nil {
		return gpid
	}
	return sort.SearchInts(c.gpids, gpid)
}

// BuildLocal builds one index per partition in parallel. workers ≤ 0
// uses GOMAXPROCS.
func BuildLocal(spec IndexSpec, parts [][]*geo.Trajectory, workers int) (*Local, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Local{sem: make(chan struct{}, workers)}
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
// partitions through one. pids (ascending) names each index's global
// partition id so waves address them and generation pins resolve.
func localView(indexes []LocalIndex, pids []int, workers int) *Local {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Local{gpids: pids, sem: make(chan struct{}, workers)}
	c.setParts(indexes)
	return c
}

// Search broadcasts the query to every selected partition and merges
// the local top-k results (the collect step of Section V-C); with a
// probe budget it scans score-ordered partitions first and prunes the
// tail it can prove irrelevant. When ctx is cancelled mid-query the
// partition scans stop early and ctx's error is returned.
func (c *Local) Search(ctx context.Context, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	return search(ctx, c, q, k, opt)
}

// SearchRadius returns every trajectory within radius of q, merged
// across the selected partitions and sorted ascending by
// (distance, id). It fails if any selected partition's index lacks
// range support.
func (c *Local) SearchRadius(ctx context.Context, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	return searchRadius(ctx, c, q, radius, opt)
}

// SearchBatch answers all queries, each over all selected partitions,
// on the engine's scan slots. Results are indexed like queries.
// Cancelling ctx stops in-flight partition scans and skips unstarted
// tasks.
func (c *Local) SearchBatch(ctx context.Context, queries [][]geo.Point, k int, opt QueryOptions) ([][]topk.Item, BatchReport, error) {
	return searchBatch(ctx, c, queries, k, opt)
}

// tracker implements plannedEngine.
func (c *Local) tracker() *loadTracker { return c.loads }

// wave implements partitionClient with one task per (query, partition)
// pair, started in row order, each on a slot of the engine's scan
// semaphore. The semaphore is shared by every concurrent query and
// batch on the engine (on a worker, by every Worker.Query — see
// SetQueryWorkers), so the cap bounds total scan parallelism. A top-k
// task prunes against its query's shared heap (req.shared); a request
// without heaps, as every Worker.Query arrives, gets one per query for
// this wave. A cancelled ctx wins over per-task errors.
func (c *Local) wave(ctx context.Context, req *QueryArgs) (QueryReply, error) {
	if err := req.Kind.check(); err != nil {
		return QueryReply{}, err
	}
	if req.Kind == KindTopK && req.shared == nil {
		req.shared = acquireHeaps(len(req.Queries), req.K)
		defer releaseHeaps(req.shared)
	}
	w := &waveRun{ctx: ctx, c: c, req: req, parts: c.parts(), rep: newQueryReply(req),
		opt: QueryOptions{NoPivots: req.NoPivots, RefineWorkers: req.RefineWorkers, MinGens: req.MinGens, Refine: req.Refine}}
	w.errs = make([]error, len(w.rep.Nanos))
	w.start = time.Now()
	for t := range w.errs {
		// Don't queue behind other queries' scans once cancelled: a
		// shared semaphore must not turn a deadline-bounded query into
		// an unbounded wait.
		select {
		case <-ctx.Done():
			w.errs[t] = ctx.Err()
			continue
		case c.sem <- struct{}{}:
		}
		w.wg.Add(1)
		go w.task(t)
	}
	w.wg.Wait()
	if err := ctx.Err(); err != nil {
		return QueryReply{}, fmt.Errorf("cluster: %s wave: %w", kindNames[req.Kind], err)
	}
	for _, err := range w.errs {
		if err != nil {
			return QueryReply{}, err
		}
	}
	return w.rep, nil
}

// waveRun is one Local.wave in flight: its request, the partition
// snapshot it runs over, and the rows its tasks fill by position.
type waveRun struct {
	ctx   context.Context
	c     *Local
	req   *QueryArgs
	opt   QueryOptions
	parts []LocalIndex
	start time.Time
	rep   QueryReply
	errs  []error
	wg    sync.WaitGroup
}

// task runs task t — query t/len(Partitions) on partition
// Partitions[t%len(Partitions)] — and frees its scan slot.
func (w *waveRun) task(t int) {
	defer w.wg.Done()
	defer func() { <-w.c.sem }()
	np := len(w.req.Partitions)
	qi, gpid := t/np, w.req.Partitions[t%np]
	idx, q := w.parts[w.c.slot(gpid)], w.req.Queries[qi]
	t0 := time.Now()
	switch w.req.Kind {
	case KindTopK:
		var stats rptrie.SearchStats
		w.rep.Lists[t], w.errs[t] = searchOne(w.ctx, gpid, idx, q, w.req.K, w.opt, &stats, w.req.shared[qi])
		w.rep.Refined[t] = int64(stats.ExactComputations)
	case KindBound:
		w.rep.Bounds[t], w.errs[t] = boundOne(w.ctx, gpid, idx, q, w.opt)
	case KindRadius:
		w.rep.Lists[t], w.errs[t] = radiusOne(w.ctx, gpid, idx, q, w.req.Radius, w.opt)
	}
	now := time.Now()
	w.rep.Nanos[t], w.rep.Done[t] = int64(now.Sub(t0)), int64(now.Sub(w.start))
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

// Indexes exposes the partition indexes (read-only use).
func (c *Local) Indexes() []LocalIndex { return c.parts() }

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
