package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repose"
	"repose/internal/cluster"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/partition"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/storage"
	"repose/internal/topk"
)

// exactCounts are the per-layer metrics that come from one client on
// fixed inputs and so must repeat exactly for a fixed seed; -aa and
// the smoke test hold them to that.
var exactCounts = []string{
	"partition.size_imbalance",
	"rptrie.nodes_expanded", "rptrie.entries_pushed", "rptrie.leaves_refined", "rptrie.exact_computations",
	"rptrie.refine_efficiency", "rptrie.pruned_ratio",
	"rptrie.index_bytes.pointer", "rptrie.index_bytes.succinct", "rptrie.index_bytes.compressed",
	"rptrie.image_bytes.pointer", "rptrie.image_bytes.succinct", "rptrie.image_bytes.compressed",
	"rptrie.delta_len_mean", "rptrie.compactions",
	"dist.abandon_ratio", "dist.cells_per_pair",
	"serve.cache_hit_ratio", "serve.cache_evictions",
	"storage.write_bytes_per_mutation", "storage.writes_per_mutation", "storage.fsyncs_per_mutation",
	"storage.checkpoint_bytes", "storage.space_amp",
}

var layoutNames = []string{"pointer", "succinct", "compressed"}

// partIndex is what the rptrie rung calls on one partition's index,
// whichever layout it is in.
type partIndex interface {
	SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item
	SearchContext(ctx context.Context, q []geo.Point, k int, opt rptrie.SearchOptions) ([]topk.Item, error)
	SizeBytes() int
	Save(w io.Writer) error
}

// layers is the system rebuilt by the harness one public function at
// a time, so that each layer below the sealed repose facade can be
// called, timed and counted on its own.
type layers struct {
	cfg     rptrie.Config
	parts   [][]*geo.Trajectory
	local   *cluster.Local
	layouts map[string][]partIndex // layout name → one index per partition
}

// buildLayers mirrors repose.Build step by step (pivot selection,
// partitioning, per-partition tries) and times each step.
func buildLayers(e *env, w workload, r *report) (*layers, error) {
	start := time.Now()
	var pv []*geo.Trajectory
	if w.measure.IsMetric() {
		pv = pivot.Select(e.ds, pivots, pivot.DefaultGroups, w.measure, e.params, systemSeed)
	}
	r.set("pivot.select_s", time.Since(start).Seconds(), "s")

	g, err := grid.New(e.region, e.delta)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	assign, err := partition.Assign(partition.Heterogeneous, e.ds, g, partitions, systemSeed)
	if err != nil {
		return nil, err
	}
	parts := partition.Split(e.ds, assign, partitions)
	r.set("partition.assign_s", time.Since(start).Seconds(), "s")
	largest := 0
	for _, p := range parts {
		if len(p) > largest {
			largest = len(p)
		}
	}
	r.set("partition.size_imbalance", float64(largest)*float64(len(parts))/float64(len(e.ds)), "ratio")

	spec := cluster.IndexSpec{
		Algorithm: cluster.REPOSE, Measure: w.measure, Params: e.params,
		Region: e.region, Delta: e.delta, Pivots: pv,
		Optimize: w.measure.OrderIndependent(), Layout: rptrie.LayoutPointer,
		Strategy: partition.Heterogeneous, Seed: systemSeed,
	}
	start = time.Now()
	local, err := cluster.BuildLocal(spec, parts, e.clients)
	if err != nil {
		return nil, err
	}
	r.set("cluster.build_s", time.Since(start).Seconds(), "s")

	first, ok := local.Indexes()[0].(*rptrie.Trie)
	if !ok {
		return nil, fmt.Errorf("partition index is %T, want *rptrie.Trie", local.Indexes()[0])
	}
	L := &layers{cfg: first.Config(), parts: parts, local: local, layouts: map[string][]partIndex{}}
	start = time.Now()
	tries := make([]*rptrie.Trie, len(parts))
	for i, p := range parts {
		if tries[i], err = rptrie.Build(L.cfg, p); err != nil {
			return nil, err
		}
	}
	r.set("rptrie.build_s", time.Since(start).Seconds(), "s")
	for _, t := range tries {
		s, err := rptrie.Compress(t)
		if err != nil {
			return nil, err
		}
		c, err := rptrie.CompressTST(t)
		if err != nil {
			return nil, err
		}
		L.layouts["pointer"] = append(L.layouts["pointer"], t)
		L.layouts["succinct"] = append(L.layouts["succinct"], s)
		L.layouts["compressed"] = append(L.layouts["compressed"], c)
	}
	for _, name := range layoutNames {
		var size int
		var image countingWriter
		for _, idx := range L.layouts[name] {
			size += idx.SizeBytes()
			if err := idx.Save(&image); err != nil {
				return nil, err
			}
		}
		r.set("rptrie.index_bytes."+name, float64(size), "B")
		r.set("rptrie.image_bytes."+name, float64(image), "B")
	}
	return L, nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// probeDist times the refine kernel alone on (query, candidate)
// pairs: unbounded, and bounded by the query's true k-th distance as
// the trie walk calls it once its heap is full. The candidates of a
// query are its `near` nearest trajectories, where near is how many
// exact distances the walk computes per query: the walk refines what
// its bounds cannot rule out, which is the neighbourhood of the query,
// and there the bounded kernel abandons far later than on random
// pairs. It returns the bounded time per pair.
func probeDist(e *env, w workload, L *layers, pool []*geo.Trajectory, want [][]topk.Item, near int, r *report) float64 {
	nq := len(pool)
	if nq > 16 {
		nq = 16
	}
	if near > len(e.ds) {
		near = len(e.ds)
	}
	cands := make([][]*geo.Trajectory, nq)
	pairs, cells := 0, 0
	for i := range cands {
		for _, it := range oracle.TopK(w.measure, e.params, e.ds, pool[i].Points, near) {
			c := e.ds[it.ID]
			cands[i] = append(cands[i], c)
			cells += len(pool[i].Points) * len(c.Points)
			pairs++
		}
	}
	var sc dist.Scratch
	abandoned := 0
	run := func(bounded bool) float64 {
		var reps []float64
		for rep := 0; rep < 5; rep++ {
			abandoned = 0
			start := time.Now()
			for i, cs := range cands {
				th := math.Inf(1)
				if bounded {
					th = want[i][len(want[i])-1].Dist
				}
				for _, c := range cs {
					if d := dist.DistanceBoundedScratch(w.measure, pool[i].Points, c.Points, e.params, th, &sc); d > th {
						abandoned++
					}
				}
			}
			reps = append(reps, float64(time.Since(start).Nanoseconds())/float64(pairs))
		}
		return median(reps)
	}
	r.set("dist.refine_ns_per_pair", run(false), "ns")
	boundedNS := run(true)
	r.set("dist.refine_bounded_ns_per_pair", boundedNS, "ns")
	r.set("dist.abandon_ratio", float64(abandoned)/float64(pairs), "ratio")
	r.set("dist.cells_per_pair", float64(cells)/float64(pairs), "count")

	// The pivot bound's up-front cost: query-to-pivot distances.
	var total time.Duration
	dst := make([]float64, 0, pivots)
	for _, q := range pool {
		start := time.Now()
		dst = pivot.AppendDistances(dst[:0], q.Points, L.cfg.Pivots, w.measure, e.params, &sc)
		total += time.Since(start)
	}
	r.set("pivot.query_dist_ns", float64(total.Nanoseconds())/float64(len(pool)), "ns")
	return boundedNS
}

// slowestWalks describes, per pool query, the slowest partition's walk
// in the pointer layout: how long it took and how many exact
// distances it computed.
type slowestWalks struct {
	walk      []time.Duration
	exact     []int
	meanExact int // exact distances per query, all partitions together
}

// refineShare estimates the share of the slowest partition's walk
// spent in the refine kernel, given the kernel's bounded time per
// pair: the median over queries.
func (sw slowestWalks) refineShare(boundedNS float64) float64 {
	var shares []float64
	for i, d := range sw.walk {
		if d > 0 {
			shares = append(shares, float64(sw.exact[i])*boundedNS/float64(d.Nanoseconds()))
		}
	}
	return median(shares)
}

// probeTrie is the rptrie rung: every pool query on every partition
// index, one after another, in each of the three layouts.
func probeTrie(ctx context.Context, e *env, L *layers, pool []*geo.Trajectory, want [][]topk.Item, r *report) slowestWalks {
	dst := make([]topk.Item, 0, topK)
	slowestPart := make([]int, len(pool)) // pointer layout: which partition was slowest
	sw := slowestWalks{walk: make([]time.Duration, len(pool)), exact: make([]int, len(pool))}
	for _, name := range layoutNames {
		idxs := L.layouts[name]
		walks := make([]time.Duration, len(pool))
		for i, q := range pool {
			var merged []topk.Item
			for p, idx := range idxs {
				start := time.Now()
				dst = idx.SearchAppend(dst[:0], q.Points, topK)
				if d := time.Since(start); d > walks[i] {
					walks[i] = d
					if name == "pointer" {
						slowestPart[i], sw.walk[i] = p, d
					}
				}
				merged = append(merged, dst...)
			}
			r.check(sameItems(topk.Merge(topK, merged), want[i]))
		}
		r.set("rptrie.search_us_p50."+name, us(quantile(walks, 0.50)), "us")

		// Allocations per partition search, as testing.AllocsPerRun
		// counts them (GOMAXPROCS 1, warmed, averaged over two runs of
		// a fixed slice of the pool).
		sample := pool
		if len(sample) > 32 {
			sample = sample[:32]
		}
		perRun := testing.AllocsPerRun(2, func() {
			for _, q := range sample {
				for _, idx := range idxs {
					dst = idx.SearchAppend(dst[:0], q.Points, topK)
				}
			}
		})
		r.set("rptrie.allocs_per_search."+name, perRun/float64(len(sample)*len(idxs)), "count")
	}

	// Traversal counters of the layout the workloads run (pointer),
	// summed over partitions per query, averaged over the pool.
	var sum rptrie.SearchStats
	for i, q := range pool {
		for p, idx := range L.layouts["pointer"] {
			var st rptrie.SearchStats
			_, err := idx.SearchContext(ctx, q.Points, topK, rptrie.SearchOptions{Stats: &st})
			r.check(err == nil)
			sum.NodesExpanded += st.NodesExpanded
			sum.EntriesPushed += st.EntriesPushed
			sum.LeavesRefined += st.LeavesRefined
			sum.ExactComputations += st.ExactComputations
			if p == slowestPart[i] {
				sw.exact[i] = st.ExactComputations
			}
		}
	}
	n := float64(len(pool))
	r.set("rptrie.nodes_expanded", float64(sum.NodesExpanded)/n, "count")
	r.set("rptrie.entries_pushed", float64(sum.EntriesPushed)/n, "count")
	r.set("rptrie.leaves_refined", float64(sum.LeavesRefined)/n, "count")
	r.set("rptrie.exact_computations", float64(sum.ExactComputations)/n, "count")
	r.set("rptrie.refine_efficiency", n*topK/float64(sum.ExactComputations), "ratio")
	r.set("rptrie.pruned_ratio", 1-float64(sum.ExactComputations)/(n*float64(len(e.ds))), "ratio")
	sw.meanExact = (sum.ExactComputations + len(pool)/2) / len(pool)
	return sw
}

// probeCluster is the cluster rung on the harness-built engine:
// scatter self time, straggler ratio and total partition compute from
// each query's QueryReport.
func probeCluster(ctx context.Context, L *layers, pool []*geo.Trajectory, want [][]topk.Item, r *report) {
	var self, sumPart []time.Duration
	var imbalance []float64
	for i, q := range pool {
		got, qr, err := L.local.Search(ctx, q.Points, topK, cluster.QueryOptions{})
		r.check(err == nil && sameItems(got, want[i]))
		self = append(self, qr.Wall-qr.MaxPartition)
		sumPart = append(sumPart, qr.SumPartition)
		imbalance = append(imbalance, qr.Imbalance())
	}
	r.set("cluster.local_self_us_p50", us(quantile(self, 0.50)), "us")
	r.set("cluster.sum_partition_us_p50", us(quantile(sumPart, 0.50)), "us")
	r.set("cluster.imbalance_p50", median(imbalance), "ratio")
}

// traceLibrary replays the pool through the library front door,
// repose.Index.Search on the local engine, recording engine.search
// spans with the QueryReport's spans beneath them.
func traceLibrary(ctx context.Context, rec *recorder, seq *int, idx *repose.Index, pool []*geo.Trajectory, want [][]topk.Item, r *report) {
	for i, q := range pool {
		*seq++
		rec.begin(*seq, i)
		var qr repose.QueryReport
		end := rec.open(spanEngine)
		got, err := idx.Search(ctx, q, topK, repose.WithReport(&qr))
		rec.report(qr)
		end()
		r.check(err == nil && sameItems(got, want[i]))
	}
}

// countingListener counts the bytes crossing a worker's connections.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// probeGateway is the top of the ladder: the gateway over a remote
// index, as gateway_zipf runs it. One client replays draws from the
// workload's popularity law with spans recorded at the client, the
// handler and the engine boundary; the same draws run again untraced
// for the overhead ratio; a short burst with all clients then reads
// the coalescing counters one client cannot move.
func probeGateway(ctx context.Context, e *env, w workload, rec *recorder, seq *int, pool []*geo.Trajectory, want [][]topk.Item, r *report) error {
	var wire atomic.Int64
	remote, err := startRemote(e, w.measure, func(ln net.Listener) net.Listener { return countingListener{ln, &wire} })
	if err != nil {
		return err
	}
	defer remote.close()

	// The RPC hop alone: the remote engine through the facade.
	var rpcSelf []time.Duration
	before := wire.Load()
	for i, q := range pool {
		var qr repose.QueryReport
		got, err := remote.idx.Search(ctx, q, topK, repose.WithReport(&qr))
		r.check(err == nil && sameItems(got, want[i]))
		rpcSelf = append(rpcSelf, qr.Wall-qr.MaxPartition)
	}
	r.set("cluster.rpc_self_us_p50", us(quantile(rpcSelf, 0.50)), "us")
	r.set("cluster.rpc_bytes_per_query", float64(wire.Load()-before)/float64(len(pool)), "B")

	bodies, err := searchBodies(pool)
	if err != nil {
		return err
	}
	draws := make([]int, 2*len(pool))
	next := w.draw(e.rng(streamClient), len(pool))
	for i := range draws {
		draws[i] = next()
	}
	// replay sends the draws from one client and returns the client
	// latencies split by whether the gateway answered from its cache.
	replay := func(g *gateway, traced bool) (all, hits, misses []time.Duration, err error) {
		hc := newHTTPClient(g.url)
		defer hc.close()
		for _, i := range draws {
			var hook func() func()
			if traced {
				*seq++
				rec.begin(*seq, i)
				hook = func() func() { return rec.open(spanClient) }
			}
			a, lat, err := hc.search(bodies[i], hook)
			r.check(err == nil && sameItems(a.items(), want[i]))
			all = append(all, lat)
			if a.Cached || a.Coalesced {
				hits = append(hits, lat)
			} else {
				misses = append(misses, lat)
			}
		}
		if traced {
			doc, err := hc.metricsDoc()
			if err != nil {
				return nil, nil, nil, err
			}
			r.set("serve.cache_hit_ratio", num(doc, "cache", "hit_ratio"), "ratio")
			r.set("serve.cache_evictions", num(doc, "cache", "evictions"), "count")
		}
		return all, hits, misses, nil
	}

	g, err := startGateway(tracedBackend{remote.idx, rec}, tracedHandler(rec))
	if err != nil {
		return err
	}
	on, hits, misses, err := replay(g, true)
	g.close()
	if err != nil {
		return err
	}
	r.set("serve.hit_us_p50", us(quantile(hits, 0.50)), "us")
	r.set("serve.miss_us_p50", us(quantile(misses, 0.50)), "us")

	if g, err = startGateway(remote.idx, nil); err != nil {
		return err
	}
	off, _, _, err := replay(g, false)
	g.close()
	if err != nil {
		return err
	}
	r.set("trace.overhead_ratio", float64(quantile(on, 0.50))/float64(quantile(off, 0.50)), "ratio")

	// All clients for a moment, untraced, on a fresh gateway: only
	// concurrent requests coalesce, share a micro-batch, or queue.
	if g, err = startGateway(remote.idx, nil); err != nil {
		return err
	}
	defer g.close()
	burst := *e
	burst.cfg.seconds = math.Min(e.cfg.seconds, 2)
	for _, s := range gatewayLoad(&burst, w, e.clients, g.url, bodies, want) {
		r.check(s.ok)
	}
	hc := newHTTPClient(g.url)
	defer hc.close()
	doc, err := hc.metricsDoc()
	if err != nil {
		return err
	}
	requests := num(doc, "requests_search")
	r.set("serve.coalesce_ratio", num(doc, "coalesce", "ratio"), "ratio")
	r.set("serve.batch_size_mean", num(doc, "coalesce", "batched_queries")/math.Max(num(doc, "coalesce", "batches"), 1), "count")
	r.set("serve.rejected_ratio", (num(doc, "rejected_rate_limit")+num(doc, "rejected_queue_full")+num(doc, "rejected_draining"))/math.Max(requests, 1), "ratio")
	return nil
}

// countingVFS counts what a durable partition asks of its storage.
type countingVFS struct {
	storage.VFS
	writes, bytes, fsyncs atomic.Int64
}

func (v *countingVFS) OpenFile(name string) (storage.File, error) {
	f, err := v.VFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, v}, nil
}

type countingFile struct {
	storage.File
	v *countingVFS
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	f.v.writes.Add(1)
	f.v.bytes.Add(int64(len(p)))
	return f.File.WriteAt(p, off)
}

func (f countingFile) Sync() error {
	f.v.fsyncs.Add(1)
	return f.File.Sync()
}

// probeDurable is the storage rung: partition 0 alone on a disk store
// behind a counting VFS, replaying a slice of the writer's plan from
// one goroutine under the engine's auto-compaction policy, with a
// pool query between every 50 mutations. Single-threaded, so every
// count repeats.
func probeDurable(e *env, w workload, L *layers, pool []*geo.Trajectory, r *report) error {
	const (
		queryEvery  = 50
		compactFrom = 32 // cluster's autoCompactFloor
	)
	part := L.parts[0]
	steps, tail := 3000, 100 // a quarter of the steps and all of the tail delete members of part
	if most := 2 * len(part); steps > most {
		steps = most
	}
	if most := len(part) - steps/4 - 1; tail > most {
		tail = most
	}
	root, err := os.MkdirTemp(e.cfg.outDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// The log alone: append one mutation-sized record and fsync it.
	walDir := filepath.Join(root, "wal")
	store, err := storage.Open(walDir, storage.Options{})
	if err != nil {
		return err
	}
	payload := make([]byte, 16*e.spec.AvgLen+32)
	var appends []time.Duration
	for i := 0; i < 200; i++ {
		start := time.Now()
		lsn, err := store.Append(1, payload)
		if err == nil {
			err = store.Sync(lsn)
		}
		if err != nil {
			store.Close()
			return err
		}
		appends = append(appends, time.Since(start))
	}
	if err := store.Close(); err != nil {
		return err
	}
	r.set("storage.append_sync_us_p50", us(quantile(appends, 0.50)), "us")

	vfs := &countingVFS{VFS: storage.OSFS{}}
	dir := filepath.Join(root, "p0")
	opts := rptrie.DurableOptions{VFS: vfs}
	d, err := rptrie.BuildDurable(dir, L.cfg, part, opts)
	if err != nil {
		return err
	}
	defer func() { d.Close() }()

	// The plan's deletes name ids of the whole base set; here they are
	// redirected to this partition's own members, in plan order.
	plan := e.mutationPlan(steps)
	victim := 0
	rawBytes := 0
	for _, tr := range part {
		rawBytes += 16 * len(tr.Points)
	}
	w0, b0, f0 := vfs.writes.Load(), vfs.bytes.Load(), vfs.fsyncs.Load()
	var mutate, compact, search []time.Duration
	var deltaLen, compactWrites, compactBytes, compactSyncs int64
	dst := make([]topk.Item, 0, topK)
	for i, m := range plan {
		start := time.Now()
		if m.insert != nil {
			err = d.Insert(m.insert)
			rawBytes += 16 * len(m.insert.Points)
		} else {
			if d.Delete(part[victim].ID) != 1 {
				err = errors.New("delete of a live id removed nothing")
			}
			rawBytes -= 16 * len(part[victim].Points)
			victim++
		}
		mutate = append(mutate, time.Since(start))
		r.check(err == nil)
		if err != nil {
			return fmt.Errorf("durable rung, mutation %d: %w", i, err)
		}
		if dl := d.DeltaLen(); dl >= compactFrom && float64(dl) > repose.DefaultCompactFraction*float64(d.Len()) {
			cw, cb, cf := vfs.writes.Load(), vfs.bytes.Load(), vfs.fsyncs.Load()
			start := time.Now()
			if err := d.Compact(); err != nil {
				return err
			}
			compact = append(compact, time.Since(start))
			compactWrites += vfs.writes.Load() - cw
			compactBytes += vfs.bytes.Load() - cb
			compactSyncs += vfs.fsyncs.Load() - cf
		}
		if i%queryEvery == queryEvery-1 {
			q := pool[(i/queryEvery)%len(pool)]
			deltaLen += int64(d.DeltaLen())
			start := time.Now()
			dst = d.SearchAppend(dst[:0], q.Points, topK)
			search = append(search, time.Since(start))
		}
	}
	// Per-mutation storage work is the log's: what compactions and
	// their checkpoints wrote is reported on its own below.
	n := float64(len(plan))
	r.set("storage.writes_per_mutation", float64(vfs.writes.Load()-w0-compactWrites)/n, "count")
	r.set("storage.write_bytes_per_mutation", float64(vfs.bytes.Load()-b0-compactBytes)/n, "B")
	r.set("storage.fsyncs_per_mutation", float64(vfs.fsyncs.Load()-f0-compactSyncs)/n, "count")
	r.set("rptrie.mutate_us_p50", us(quantile(mutate, 0.50)), "us")
	r.set("rptrie.compactions", float64(len(compact)), "count")
	r.set("rptrie.compact_ms_p50", ms(quantile(compact, 0.50)), "ms")
	r.set("rptrie.search_delta_us_p50", us(quantile(search, 0.50)), "us")
	r.set("rptrie.delta_len_mean", float64(deltaLen)/float64(len(search)), "count")

	var checkpoints []time.Duration
	b0 = vfs.bytes.Load()
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := d.Checkpoint(); err != nil {
			return err
		}
		checkpoints = append(checkpoints, time.Since(start))
	}
	r.set("storage.checkpoint_ms_p50", ms(quantile(checkpoints, 0.50)), "ms")
	r.set("storage.checkpoint_bytes", float64(vfs.bytes.Load()-b0)/5, "B")

	// A few more mutations so recovery has a log to replay on top of
	// the checkpoint image, then restart the partition.
	for i := 0; i < tail; i++ {
		if d.Delete(part[victim].ID) != 1 {
			return errors.New("durable rung: delete of a live id removed nothing")
		}
		rawBytes -= 16 * len(part[victim].Points)
		victim++
	}
	live := d.Len()
	if err := d.Close(); err != nil {
		return err
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.set("storage.space_amp", float64(onDisk)/float64(rawBytes), "ratio")
	start := time.Now()
	if d, err = rptrie.OpenDurable(dir, opts); err != nil {
		return err
	}
	r.set("storage.replay_ms", ms(time.Since(start)), "ms")
	r.check(d.Len() == live)
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// runTraced is the per-layer pass of one workload: its query pool,
// its measure and its popularity law descend the whole ladder, from
// the gateway's client down to the distance kernel and the disk.
func runTraced(e *env, w workload) (*report, error) {
	ctx := context.Background()
	r := newReport(w, true)
	if err := os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	pool := e.pool(w)
	want := e.oracleAnswers(w.measure, e.ds, pool)

	idx, err := repose.Build(e.ds, e.options(w.measure))
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	L, err := buildLayers(e, w, r)
	if err != nil {
		return nil, err
	}
	// The harness-built engine stands in for the one sealed inside the
	// facade only if it is the same engine: same bytes here, same
	// answers in the two replays below.
	r.check(L.local.IndexSizeBytes() == idx.Stats().IndexBytes)

	walks := probeTrie(ctx, e, L, pool, want, r)
	kernelShare := walks.refineShare(probeDist(e, w, L, pool, want, walks.meanExact, r))
	r.set("rptrie.refine_share", kernelShare, "ratio")
	probeCluster(ctx, L, pool, want, r)

	rec := newRecorder()
	seq := 0
	traceLibrary(ctx, rec, &seq, idx, pool, want, r)
	libraryEnd := seq
	if err := probeGateway(ctx, e, w, rec, &seq, pool, want, r); err != nil {
		return nil, err
	}
	if err := probeDurable(e, w, L, pool, r); err != nil {
		return nil, err
	}

	var library, hits, misses []request
	var handlerSelf, httpSelf []time.Duration
	for _, rq := range decompose(rec.spans) {
		switch {
		case rq.seq <= libraryEnd:
			library = append(library, rq)
		case rq.hit:
			hits = append(hits, rq)
		default:
			misses = append(misses, rq)
		}
		if rq.seq > libraryEnd {
			handlerSelf = append(handlerSelf, rq.handler)
			httpSelf = append(httpSelf, rq.http)
		}
	}
	r.set("serve.handler_self_us_p50", us(quantile(handlerSelf, 0.50)), "us")
	r.set("serve.http_self_us_p50", us(quantile(httpSelf, 0.50)), "us")
	cores := runtime.NumCPU()
	r.Budgets = []budget{
		budgetOf("library path: repose.Index.Search, local engine", library, kernelShare, e.clients),
		budgetOf("gateway path, cache miss: POST /search, remote engine", misses, kernelShare, cores),
		budgetOf("gateway path, cache hit", hits, kernelShare, cores),
	}
	return r, rec.write(e.cfg, w)
}
