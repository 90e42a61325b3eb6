package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repose/internal/geo"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// Local is a read-only set of partition indexes searched in this
// process, one goroutine per (query, partition) task up to a scan-slot
// cap. Its wave is how every worker scans the partitions it owns
// (Worker.Query); BuildLocal makes one a standalone query engine over
// freshly built indexes — what the paper-table experiments use to time
// REPOSE against the baselines, Section VII's single-machine stand-in
// for the 16-node Spark cluster. Mutation, durability, replication and
// splits belong to the engine (Remote), not here.
type Local struct {
	parts []LocalIndex
	gpids []int         // slot → global partition id, ascending; nil = identity
	sem   chan struct{} // scan slots shared by every wave on this Local
	loads *loadTracker  // nil on a worker's view, which never plans
}

// BuildLocal builds one index per partition in parallel. workers ≤ 0
// uses GOMAXPROCS; it also caps the engine's concurrent scans.
func BuildLocal(spec IndexSpec, parts [][]*geo.Trajectory, workers int) (*Local, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Local{parts: make([]LocalIndex, len(parts)), sem: make(chan struct{}, workers), loads: newLoadTracker(len(parts))}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		c.sem <- struct{}{}
		go func(i int, part []*geo.Trajectory) {
			defer wg.Done()
			defer func() { <-c.sem }()
			idx, err := spec.BuildLocal(part)
			if err != nil {
				errs[i] = fmt.Errorf("partition %d: %w", i, err)
				return
			}
			c.parts[i] = idx
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return c, nil
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
// pair, started in row order, each on one of c's scan slots. The slots
// are shared by every concurrent query and batch on c (on a worker, by
// every Worker.Query — see SetQueryWorkers), so the cap bounds total
// scan parallelism. A top-k task prunes against its query's shared heap
// (req.shared); a request without heaps, as every Worker.Query arriving
// over the wire does, gets one per query for this wave. A cancelled ctx
// wins over per-task errors.
func (c *Local) wave(ctx context.Context, req *QueryArgs) (QueryReply, error) {
	if err := req.Kind.check(); err != nil {
		return QueryReply{}, err
	}
	if req.Kind == KindTopK && req.shared == nil {
		req.shared = acquireHeaps(len(req.Queries), req.K)
		defer releaseHeaps(req.shared)
	}
	w := &waveRun{ctx: ctx, c: c, req: req, rep: newQueryReply(req),
		opt: QueryOptions{NoPivots: req.NoPivots, RefineWorkers: req.RefineWorkers, MinGens: req.MinGens, Refine: req.Refine}}
	w.errs = make([]error, len(w.rep.Nanos))
	if req.Kind == KindTopK {
		w.stats = make([]rptrie.SearchStats, len(w.errs))
	}
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

// waveRun is one Local.wave in flight: its request and the rows its
// tasks fill by position.
type waveRun struct {
	ctx   context.Context
	c     *Local
	req   *QueryArgs
	opt   QueryOptions
	start time.Time
	rep   QueryReply
	errs  []error
	stats []rptrie.SearchStats // per top-k task; one allocation per wave
	wg    sync.WaitGroup
}

// task runs task t — query t/len(Partitions) on partition
// Partitions[t%len(Partitions)] — and frees its scan slot.
func (w *waveRun) task(t int) {
	defer w.wg.Done()
	defer func() { <-w.c.sem }()
	np := len(w.req.Partitions)
	qi, gpid := t/np, w.req.Partitions[t%np]
	slot := gpid // the identity on a BuildLocal engine; a view searches gpids
	if w.c.gpids != nil {
		slot = sort.SearchInts(w.c.gpids, gpid)
	}
	idx, q := w.c.parts[slot], w.req.Queries[qi]
	t0 := time.Now()
	switch w.req.Kind {
	case KindTopK:
		w.rep.Lists[t], w.errs[t] = searchOne(w.ctx, gpid, idx, q, w.req.K, w.opt, &w.stats[t], w.req.shared.hs[qi])
		w.rep.Refined[t] = int64(w.stats[t].ExactComputations)
	case KindBound:
		w.rep.Bounds[t], w.errs[t] = boundOne(w.ctx, gpid, idx, q, w.opt)
	case KindRadius:
		w.rep.Lists[t], w.errs[t] = radiusOne(w.ctx, gpid, idx, q, w.req.Radius, w.opt)
	}
	now := time.Now()
	w.rep.Nanos[t], w.rep.Done[t] = int64(now.Sub(t0)), int64(now.Sub(w.start))
}

// Generations reports each partition index's current generation, 0 for
// immutable (baseline) indexes.
func (c *Local) Generations() []uint64 {
	gens := make([]uint64, len(c.parts))
	for i, idx := range c.parts {
		if m, ok := idx.(rptrie.Index); ok {
			gens[i] = m.Generation()
		}
	}
	return gens
}

// Indexes exposes the partition indexes (read-only use).
func (c *Local) Indexes() []LocalIndex { return c.parts }

// NumPartitions returns the partition count.
func (c *Local) NumPartitions() int { return len(c.parts) }

// IndexSizeBytes sums the index footprints across partitions.
func (c *Local) IndexSizeBytes() int {
	sz := 0
	for _, b := range c.PartitionIndexBytes() {
		sz += b
	}
	return sz
}

// PartitionIndexBytes reports each partition's live index footprint,
// indexed like the partition slice. Every query report carries the
// vector, which is why LocalIndex.SizeBytes must be cheap: each index
// records its footprint when its structure is built.
func (c *Local) PartitionIndexBytes() []int {
	out := make([]int, len(c.parts))
	for i, idx := range c.parts {
		out[i] = idx.SizeBytes()
	}
	return out
}
