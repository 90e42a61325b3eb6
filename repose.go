// Package repose is a distributed in-memory framework for top-k
// trajectory similarity search, reproducing "REPOSE: Distributed
// Top-k Trajectory Similarity Search with Local Reference Point
// Tries" (ICDE 2021).
//
// Trajectories are discretized onto a Z-order grid and organized in
// per-partition Reference Point Tries (RP-Tries) searched best-first
// with one-side, two-side, and pivot-based lower bounds. A
// heterogeneous global partitioning strategy spreads similar
// trajectories across partitions so every core contributes to every
// query. Six similarity measures are supported: Hausdorff, Frechet,
// DTW, LCSS, EDR, and ERP.
//
// One Index type fronts both deployments — partitions on one worker
// inside this process (Build) and on TCP worker processes
// (BuildRemote) — with one engine behind the same context-aware query
// surface:
//
//	idx, err := repose.Build(trajectories, repose.Options{Measure: repose.Hausdorff})
//	results, err := idx.Search(ctx, query, 10)
//
// Cancelling ctx (or letting its deadline pass) stops partition scans
// mid-flight on either backend. Per-query behaviour is tuned with
// functional options: WithReport captures a QueryReport, WithPartitions
// restricts the query to a partition subset, WithoutPivots disables
// the pivot lower bound.
package repose

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"repose/internal/cluster"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/partition"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// Point is a trajectory sample point.
type Point = geo.Point

// Trajectory is a time-ordered point sequence with an id.
type Trajectory = geo.Trajectory

// Measure identifies a similarity measure.
type Measure = dist.Measure

// The supported similarity measures.
const (
	Hausdorff = dist.Hausdorff
	Frechet   = dist.Frechet
	DTW       = dist.DTW
	LCSS      = dist.LCSS
	EDR       = dist.EDR
	ERP       = dist.ERP
)

// Result is one search hit: a trajectory id and its distance to the
// query, ascending by (distance, id).
type Result = topk.Item

// QueryReport describes one distributed query's execution: wall time,
// per-partition compute, the straggler ratio (Imbalance), and the
// exact distance computations it cost (ExactComputations). Capture
// one with WithReport.
type QueryReport = cluster.QueryReport

// BatchReport describes one batch execution: makespan, per-query
// completion times, and total partition compute. Capture one with
// WithBatchReport.
type BatchReport = cluster.BatchReport

// Layout selects the in-memory representation of each partition's
// RP-Trie. All layouts answer every query bit-identically and support
// the whole surface; they trade memory for search speed:
//
//   - LayoutPointer: the plain pointer trie. Fastest to mutate,
//     largest footprint.
//   - LayoutSuccinct: the two-tier bitmap layout (Section III-B).
//     Smaller, near-pointer search speed.
//   - LayoutCompressed: the trit-array (tSTAT-style) layout —
//     rank/select bitvectors, packed node metadata, quantized pivot
//     ranges. Smallest by a wide margin, search within a small factor
//     of succinct, and ships the cheapest failover snapshots.
type Layout = rptrie.Layout

// The available per-partition index layouts.
const (
	LayoutPointer    = rptrie.LayoutPointer
	LayoutSuccinct   = rptrie.LayoutSuccinct
	LayoutCompressed = rptrie.LayoutCompressed
)

// ParseLayout maps a layout name ("pointer"/"trie", "succinct",
// "compressed"/"tstat", or empty for the default) to its Layout. The
// repose-worker and repose-query binaries use it for their -layout
// flags.
func ParseLayout(s string) (Layout, error) { return rptrie.ParseLayout(s) }

// Strategy selects the global partitioning strategy.
type Strategy = partition.Strategy

// The available partitioning strategies.
const (
	Heterogeneous = partition.Heterogeneous
	Homogeneous   = partition.Homogeneous
	Random        = partition.Random
)

// Options configures Build. The zero value picks the paper's
// defaults: Hausdorff distance, heterogeneous partitioning, one
// partition per core, δ = span/64, Np = 5 pivots, and the trie
// optimizations enabled.
type Options struct {
	// Measure is the similarity measure (default Hausdorff).
	Measure Measure

	// Delta is the grid cell side δ. 0 derives span/64. Table V
	// shows query time is sensitive to δ; tune it per dataset.
	Delta float64

	// Partitions is the number of global partitions (default: one
	// per CPU, the paper's one-partition-per-core setup).
	Partitions int

	// Strategy is the global partitioning strategy (default
	// Heterogeneous, Section V-B).
	Strategy Strategy

	// Pivots is the number of pivot trajectories Np (default 5;
	// Table VI). Pivots apply only to metric measures. Negative
	// disables pivot pruning.
	Pivots int

	// Epsilon is the matching threshold for LCSS and EDR
	// (default: 1% of the region diameter).
	Epsilon float64

	// NoRearrange disables the z-value re-arrangement optimization
	// (Section III-C); it is on by default for order-independent
	// measures and ignored otherwise.
	NoRearrange bool

	// Layout selects each partition's index representation (default
	// LayoutPointer). WithLayout sets it as a build option.
	Layout Layout

	// Workers caps the concurrent partition scans of Build's
	// in-process worker (default GOMAXPROCS).
	Workers int

	// Seed drives pivot selection, sampling, and random
	// partitioning (default 1).
	Seed int64

	// Replication is the remote deployment's replication factor:
	// each partition is built on this many distinct worker processes
	// and queries fail over between them when a worker dies (see the
	// README's "Fault tolerance" section). 0 or 1 disables
	// replication; BuildRemote rejects a factor above the worker
	// count. Build ignores it: its one in-process worker holds a
	// single copy. WithReplication sets it as a build option.
	Replication int

	// Failover tunes the remote deployment's failure handling (circuit
	// breaker threshold, probe cadence, per-attempt timeout, hedging).
	// Zero fields take defaults; Build ignores it — with one worker
	// there is no replica to fail over to.
	Failover FailoverConfig

	// RebalanceInterval, when positive, runs the load rebalancer of a
	// BuildRemote index on this cadence in the background: whenever
	// one worker's cumulative scan load exceeds 1.5x the least-loaded
	// worker's, the hottest movable partition migrates there with no
	// read downtime (see Index.Rebalance). Build ignores it: a local
	// index has one worker, so there is nowhere to move a partition.
	// WithAutoRebalance sets it as a build option.
	RebalanceInterval time.Duration

	// DurableDir, when set, backs every partition of Build's
	// in-process worker with a disk store (checkpoint + write-ahead
	// log) under this directory, recoverable later with OpenDurable.
	// Mutations then return only after their log record is fsynced.
	// Ignored by BuildRemote — workers persist via repose-worker
	// -data-dir. WithDurableDir sets it as a build option.
	DurableDir string
}

// FailoverConfig tunes a remote index's failure handling; see
// Options.Failover. The zero value selects defaults.
type FailoverConfig = cluster.FailoverConfig

// WorkerHealth is one worker's health snapshot; see Index.Health.
type WorkerHealth = cluster.WorkerHealth

// RebalanceReport describes one rebalancing decision; see
// Index.Rebalance.
type RebalanceReport = cluster.RebalanceReport

// PartitionLoad is one partition's accumulated load profile — query
// count, refinement work, p99 scan latency, and the learned
// reward-per-probe score; see Index.LoadStats.
type PartitionLoad = cluster.PartitionLoad

// BuildOption overrides one Options field at build time, for settings
// that read better at the call site than in the struct literal.
type BuildOption func(*Options)

// WithReplication places each partition on n distinct workers and
// fails queries over between them — the remote deployment's fault
// tolerance knob:
//
//	idx, err := repose.BuildRemote(ds, repose.Options{}, addrs, repose.WithReplication(2))
func WithReplication(n int) BuildOption {
	return func(o *Options) { o.Replication = n }
}

// WithFailover sets the failover tuning as a build option.
func WithFailover(fc FailoverConfig) BuildOption {
	return func(o *Options) { o.Failover = fc }
}

// WithAutoRebalance runs a remote index's load rebalancer every
// interval in the background (see Options.RebalanceInterval):
//
//	idx, err := repose.BuildRemote(ds, repose.Options{}, addrs, repose.WithAutoRebalance(30*time.Second))
func WithAutoRebalance(interval time.Duration) BuildOption {
	return func(o *Options) { o.RebalanceInterval = interval }
}

// WithLayout selects the per-partition index layout as a build option:
//
//	idx, err := repose.Build(ds, repose.Options{}, repose.WithLayout(repose.LayoutCompressed))
func WithLayout(l Layout) BuildOption {
	return func(o *Options) { o.Layout = l }
}

// Engine names the deployment executing an Index's queries. It is a
// sealed interface: "local" for Build and OpenDurable, whose
// partitions live on one worker inside this process, and "remote" for
// BuildRemote, whose partitions live on TCP worker processes. Both run
// the same engine, so they answer the same surface identically.
type Engine interface {
	// String names the deployment: "local" or "remote".
	String() string
	sealed()
}

// deployment is the one Engine implementation.
type deployment string

func (d deployment) String() string { return string(d) }
func (deployment) sealed()          {}

// Index is a built distributed index. The same query methods work
// identically whichever Engine backs it. An Index is live: Insert,
// Delete, and Upsert change its contents online, with snapshot
// isolation against concurrent queries (see the package README's
// "Online updates" section).
type Index struct {
	eng    *cluster.Remote
	kind   deployment
	region geo.Rect
	opts   Options
	closed atomic.Bool

	// gens pins queries to the generations this Index's own mutations
	// produced (read-your-writes): nil until the first mutation, then
	// one entry per partition, attached to every query.
	genMu sync.Mutex
	gens  []uint64

	// rebalStop ends the auto-rebalance loop (WithAutoRebalance);
	// nil when no loop runs.
	rebalStop chan struct{}
	rebalWG   sync.WaitGroup
}

// Stats summarizes a built index.
type Stats struct {
	Trajectories int
	Partitions   int
	IndexBytes   int
	BuildTime    time.Duration
	// Layout is the per-partition index representation the index was
	// built with.
	Layout Layout
	// PartitionIndexBytes is each partition's index footprint, indexed
	// by partition id, as its worker last reported it (after the latest
	// mutation or compaction); IndexBytes is its sum.
	PartitionIndexBytes []int
	// Generations is the current per-partition generation vector, as
	// returned by Index.Generations.
	Generations []uint64
	// PartitionLoads is the per-partition load profile accumulated
	// since build, as returned by Index.LoadStats.
	PartitionLoads []PartitionLoad
}

// normalize fills option defaults against a dataset region.
func (o Options) normalize(region geo.Rect) Options {
	if o.Delta <= 0 {
		span := region.Max.X - region.Min.X
		if dy := region.Max.Y - region.Min.Y; dy > span {
			span = dy
		}
		o.Delta = span / 64
	}
	if o.Partitions <= 0 {
		o.Partitions = defaultPartitions()
	}
	if o.Pivots == 0 {
		o.Pivots = 5
	}
	if o.Epsilon <= 0 {
		o.Epsilon = dist.DefaultParams(region).Epsilon
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// spec converts options to the engine's index spec.
func (o Options) spec(ds []*Trajectory, region geo.Rect) cluster.IndexSpec {
	params := dist.Params{Epsilon: o.Epsilon, Gap: region.Min}
	var pivots []*Trajectory
	if o.Pivots > 0 && o.Measure.IsMetric() {
		pivots = pivot.Select(ds, o.Pivots, pivot.DefaultGroups, o.Measure, params, o.Seed)
	}
	return cluster.IndexSpec{
		Algorithm: cluster.REPOSE,
		Measure:   o.Measure,
		Params:    params,
		Region:    region,
		Delta:     o.Delta,
		Pivots:    pivots,
		Optimize:  !o.NoRearrange && o.Measure.OrderIndependent(),
		Layout:    o.Layout,
		Strategy:  o.Strategy,
		Seed:      o.Seed,
		Replicas:  o.Replication,
	}
}

// Build partitions ds and builds one RP-Trie per partition on one
// worker inside this process, which scans at most Options.Workers
// partitions at a time. It is the distributed engine with an
// in-process worker: mutations, SplitPartition and Health work as on a
// remote index. Replication, failover tuning and auto-rebalancing are
// ignored: there is one worker, so nothing to fail over to or move.
func Build(ds []*Trajectory, opts Options, extra ...BuildOption) (*Index, error) {
	for _, bo := range extra {
		bo(&opts)
	}
	region, parts, opts, err := prepare(ds, opts)
	if err != nil {
		return nil, err
	}
	spec := opts.spec(ds, region)
	eng, err := cluster.BuildInProcess(spec, parts, opts.Workers, opts.DurableDir)
	if err != nil {
		return nil, err
	}
	if opts.DurableDir != "" {
		if err := writeManifest(opts.DurableDir, durableManifest{Opts: opts, Region: region, Spec: spec}); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return &Index{eng: eng, kind: "local", region: region, opts: opts}, nil
}

// BuildRemote ships the partitions to the given worker addresses
// (host:port, one per worker process started with ServeWorker or the
// repose-worker binary) and builds remotely. The returned Index
// answers the exact same query surface as a Build index. With
// WithReplication(n) (or Options.Replication) each partition lives on
// n distinct workers and queries transparently fail over when a
// worker dies; a dead worker restarted with `repose-worker -rejoin`
// is streamed its state back automatically.
func BuildRemote(ds []*Trajectory, opts Options, workers []string, extra ...BuildOption) (*Index, error) {
	for _, bo := range extra {
		bo(&opts)
	}
	region, parts, opts, err := prepare(ds, opts)
	if err != nil {
		return nil, err
	}
	remote, err := cluster.BuildRemote(opts.spec(ds, region), parts, workers)
	if err != nil {
		return nil, err
	}
	if opts.Failover != (FailoverConfig{}) {
		remote.SetFailover(opts.Failover)
	}
	x := &Index{eng: remote, kind: "remote", region: region, opts: opts}
	if opts.RebalanceInterval > 0 {
		x.rebalStop = make(chan struct{})
		x.rebalWG.Add(1)
		go func() {
			defer x.rebalWG.Done()
			t := time.NewTicker(opts.RebalanceInterval)
			defer t.Stop()
			for {
				select {
				case <-x.rebalStop:
					return
				case <-t.C:
					// Best-effort: a failed or declined migration is
					// retried next tick.
					_, _ = remote.Rebalance(context.Background())
				}
			}
		}()
	}
	return x, nil
}

// Health reports per-worker availability: circuit state and how many
// partition replicas await restore. A local index reports its one
// in-process worker (addr "local"), so health-gated consumers —
// /healthz endpoints, load balancers — treat both deployments alike.
// A closed index reports every worker down.
func (x *Index) Health() []WorkerHealth {
	return x.eng.Health()
}

// Rebalance runs one load-rebalancing pass: when the hottest worker's
// cumulative scan load exceeds 1.5x the least-loaded worker's, the
// hottest movable partition's replica migrates from the former to the
// latter — snapshot, restore, owner flip — with no read downtime
// (queries keep scattering throughout; mutations pause for the
// transfer). The report says whether anything moved. A local index
// has one worker, so nothing ever moves.
func (x *Index) Rebalance(ctx context.Context) (RebalanceReport, error) {
	if x.closed.Load() {
		return RebalanceReport{}, ErrClosed
	}
	rep, err := x.eng.Rebalance(ctx)
	return rep, translate(err)
}

// SplitPartition carves the upper half (by trajectory id) of
// partition pid into a new partition and returns the new partition's
// id. The split is online: the new partition is installed and serving
// before the moved ids are pruned from the source, and the query merge
// deduplicates the overlap window, so no concurrent query ever misses
// or double-counts a trajectory. Only mutable (REPOSE-layout) indexes
// support it.
func (x *Index) SplitPartition(ctx context.Context, pid int) (int, error) {
	if x.closed.Load() {
		return 0, ErrClosed
	}
	newPid, err := x.eng.SplitPartition(ctx, pid)
	return newPid, translate(err)
}

// LoadStats reports the per-partition load profile the engine has
// accumulated since build: query counts, exact-refinement work, p99
// scan latency, and the learned reward-per-probe score that
// WithProbeBudget orders the scatter by. The rebalancer reads the
// same numbers.
func (x *Index) LoadStats() []PartitionLoad {
	return x.eng.LoadStats()
}

// Generations snapshots the per-partition generation vector: entry p
// is the authoritative generation of partition p, advanced by every
// Insert/Delete/Upsert/Compact that touches it (0 until then, and
// always 0 for immutable backends). Generations only move forward,
// and a mutation's new generations are visible here by the time the
// mutation call returns — the property that lets an answer cache key
// on this vector for exact invalidation (see internal/serve).
func (x *Index) Generations() []uint64 {
	return x.eng.Generations()
}

// prepare validates the dataset and computes the region, normalized
// options, and global partitioning shared by both builders.
func prepare(ds []*Trajectory, opts Options) (geo.Rect, [][]*Trajectory, Options, error) {
	if len(ds) == 0 {
		return geo.Rect{}, nil, opts, errors.New("repose: empty dataset")
	}
	region := geo.EnclosingSquare(ds, 0)
	opts = opts.normalize(region)
	parts, err := partitionDataset(ds, opts, region)
	if err != nil {
		return geo.Rect{}, nil, opts, err
	}
	return region, parts, opts, nil
}

func partitionDataset(ds []*Trajectory, opts Options, region geo.Rect) ([][]*Trajectory, error) {
	g, err := grid.New(region, opts.Delta)
	if err != nil {
		return nil, fmt.Errorf("repose: %w", err)
	}
	assign, err := partition.Assign(opts.Strategy, ds, g, opts.Partitions, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("repose: %w", err)
	}
	return partition.Split(ds, assign, opts.Partitions), nil
}

// Engine returns the backend executing this index's queries.
func (x *Index) Engine() Engine { return x.kind }

// check runs the validations shared by every query method.
func (x *Index) check(q []Point) error {
	if x.closed.Load() {
		return ErrClosed
	}
	if len(q) == 0 {
		return ErrEmptyQuery
	}
	return nil
}

func points(q *Trajectory) []Point {
	if q == nil {
		return nil
	}
	return q.Points
}

// translate maps engine-level errors to the facade's sentinels: a
// query that races Close past the closed flag still reports ErrClosed,
// whether it lost the race before dispatch (cluster.ErrClosed) or
// mid-RPC (the closed client surfaces rpc.ErrShutdown).
func translate(err error) error {
	if errors.Is(err, cluster.ErrClosed) || errors.Is(err, rpc.ErrShutdown) {
		return ErrClosed
	}
	return err
}

// Search returns the k trajectories most similar to q. It works
// identically on local and remote backends; ctx cancels or deadlines
// the query mid-partition on either.
func (x *Index) Search(ctx context.Context, q *Trajectory, k int, opts ...QueryOption) ([]Result, error) {
	if err := x.check(points(q)); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, ErrBadK
	}
	qc := applyQueryOptions(opts)
	items, rep, err := x.eng.Search(ctx, q.Points, k, x.clusterOptions(qc))
	if qc.report != nil {
		*qc.report = rep
	}
	return items, translate(err)
}

// SearchSub returns the k trajectories whose best-matching contiguous
// segment is most similar to q — subtrajectory search. Each Result's
// [Start, End) names the matched half-open sample range of that
// trajectory; distances are exact segment distances under the index's
// measure. Compose with WithSegmentLength to bound the segment size
// and WithTimeWindow to restrict matching to a time window. Refined
// queries require an RP-Trie layout (any of the three); baseline
// algorithms reject them.
func (x *Index) SearchSub(ctx context.Context, q *Trajectory, k int, opts ...QueryOption) ([]Result, error) {
	if err := x.check(points(q)); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, ErrBadK
	}
	qc := applyQueryOptions(opts)
	qc.sub = true
	items, rep, err := x.eng.Search(ctx, q.Points, k, x.clusterOptions(qc))
	if qc.report != nil {
		*qc.report = rep
	}
	return items, translate(err)
}

// SearchRadius returns every indexed trajectory within the given
// distance of q, ascending by (distance, id) — the range-query
// counterpart of Search.
func (x *Index) SearchRadius(ctx context.Context, q *Trajectory, radius float64, opts ...QueryOption) ([]Result, error) {
	if err := x.check(points(q)); err != nil {
		return nil, err
	}
	if radius < 0 {
		return nil, ErrBadRadius
	}
	qc := applyQueryOptions(opts)
	items, rep, err := x.eng.SearchRadius(ctx, q.Points, radius, x.clusterOptions(qc))
	if qc.report != nil {
		*qc.report = rep
	}
	return items, translate(err)
}

// SearchBatch answers all queries at once over one shared worker
// pool, returning one result list per query (indexed like qs). A
// batch keeps every core busy even when single queries are skewed;
// capture a BatchReport with WithBatchReport to observe the makespan.
func (x *Index) SearchBatch(ctx context.Context, qs []*Trajectory, k int, opts ...QueryOption) ([][]Result, error) {
	if x.closed.Load() {
		return nil, ErrClosed
	}
	if k <= 0 {
		return nil, ErrBadK
	}
	qpts := make([][]Point, len(qs))
	for i, q := range qs {
		if q == nil || len(q.Points) == 0 {
			return nil, fmt.Errorf("%w (batch query %d)", ErrEmptyQuery, i)
		}
		qpts[i] = q.Points
	}
	qc := applyQueryOptions(opts)
	items, rep, err := x.eng.SearchBatch(ctx, qpts, k, x.clusterOptions(qc))
	if qc.batchReport != nil {
		*qc.batchReport = rep
	}
	return items, translate(err)
}

// Stats reports index statistics.
func (x *Index) Stats() Stats {
	eng := x.eng
	perPart := eng.PartitionIndexBytes()
	total := 0
	for _, b := range perPart {
		total += b
	}
	return Stats{
		Trajectories:        eng.Len(),
		Partitions:          eng.NumPartitions(),
		IndexBytes:          total,
		BuildTime:           eng.BuildTime(),
		Layout:              x.opts.Layout,
		PartitionIndexBytes: perPart,
		Generations:         eng.Generations(),
		PartitionLoads:      x.LoadStats(),
	}
}

// Close stops the engine's background health prober and releases its
// resources: a local index flushes and closes its disk stores, a remote
// index its worker connections (the workers keep running). An index
// that is never closed keeps its prober, and with it the index, alive.
// Queries after Close return ErrClosed. Close is idempotent.
func (x *Index) Close() error {
	if x.closed.Swap(true) {
		return nil
	}
	if x.rebalStop != nil {
		close(x.rebalStop)
		x.rebalWG.Wait()
	}
	return x.eng.Close()
}

// Measureless helpers.

// Distance computes the exact distance between two trajectories
// under the given measure, using default parameters derived from the
// pair's joint bounding region.
func Distance(m Measure, a, b *Trajectory) float64 {
	region := geo.EnclosingSquare([]*Trajectory{a, b}, 0)
	p := dist.DefaultParams(region)
	return dist.Distance(m, a.Points, b.Points, p)
}

// DistanceWith computes the exact distance with explicit LCSS/EDR ε
// and ERP gap point.
func DistanceWith(m Measure, a, b *Trajectory, epsilon float64, gap Point) float64 {
	return dist.Distance(m, a.Points, b.Points, dist.Params{Epsilon: epsilon, Gap: gap})
}

// ProtocolVersion is the driver↔worker wire protocol version spoken
// by this build; a worker rejects drivers speaking another version.
const ProtocolVersion = cluster.ProtocolVersion

// ServeWorker runs a worker process serving the given address until
// the listener fails. It reports the bound address through onReady
// (useful with ":0") before blocking.
func ServeWorker(addr string, onReady func(boundAddr string)) error {
	return ServeWorkerContext(context.Background(), addr, onReady)
}

// ServeWorkerContext is ServeWorker with lifecycle control: when ctx
// is cancelled the listener closes and the call returns ctx's error,
// giving worker binaries a clean SIGINT shutdown path.
func ServeWorkerContext(ctx context.Context, addr string, onReady func(boundAddr string)) error {
	return ServeWorkerOptions(ctx, addr, WorkerOptions{}, onReady)
}

// WorkerOptions configures a served worker process.
type WorkerOptions struct {
	// Rejoin marks this process as the replacement for a worker that
	// died: it starts empty and expects the driver's failure detector
	// to stream partition state back into it (Worker.Restore). Until
	// that happens its queries fail with an "awaiting state restore"
	// diagnostic instead of the generic "no partitions", so a
	// misrouted query during recovery is distinguishable from a
	// misconfigured cluster. The repose-worker binary sets it with
	// -rejoin.
	Rejoin bool

	// DataDir backs every REPOSE partition this worker builds with a
	// durable store under DataDir/p<pid>. A worker restarted on the
	// same directory recovers its partitions from their own
	// write-ahead logs before serving, so the driver re-admits it
	// without streaming state from a peer as long as the recovered
	// generations are current. The repose-worker binary sets it with
	// -data-dir.
	DataDir string

	// Layout, when non-empty, forces every REPOSE partition this
	// worker builds to the named index layout ("pointer", "succinct",
	// "compressed" — see ParseLayout), overriding the driver's build
	// spec. All layouts answer queries bit-identically, so a
	// memory-constrained worker in a heterogeneous fleet can run
	// compressed while its peers run pointer tries. Partitions
	// restored from a peer's snapshot keep the image's layout. The
	// repose-worker binary sets it with -layout.
	Layout string

	// QueryWorkers caps this worker's total concurrent partition
	// scans across all in-flight queries (default GOMAXPROCS per
	// query view). A deliberately low cap makes per-worker saturation
	// observable — the load signal the driver's rebalancer acts on.
	// The repose-worker binary sets it with -query-workers.
	QueryWorkers int
}

// ServeWorkerOptions is ServeWorkerContext with worker configuration.
func ServeWorkerOptions(ctx context.Context, addr string, wo WorkerOptions, onReady func(boundAddr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-done:
		}
	}()
	var forced Layout
	if wo.Layout != "" {
		forced, err = ParseLayout(wo.Layout)
		if err != nil {
			ln.Close()
			return err
		}
	}
	var w *cluster.Worker
	if wo.DataDir != "" {
		w, err = cluster.NewDurableWorker(wo.DataDir, wo.Rejoin)
		if err != nil {
			ln.Close()
			return err
		}
		defer w.CloseData()
	} else if wo.Rejoin {
		w = cluster.NewRejoinWorker()
	} else {
		w = cluster.NewWorker()
	}
	if wo.Layout != "" {
		w.ForceLayout(forced)
	}
	if wo.QueryWorkers > 0 {
		w.SetQueryWorkers(wo.QueryWorkers)
	}
	err = cluster.Serve(ln, w)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}
