package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repose/internal/geo"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// Engine is the uniform driver-side query surface over the two
// deployments: in-process partitions on goroutines (Local) and
// partitions owned by worker processes over TCP (Remote). Every query
// method takes a context — cancelling it or letting its deadline pass
// stops partition scans mid-flight on both backends — and a
// QueryOptions modulating the single query.
type Engine interface {
	// Search answers a distributed top-k query, merging per-partition
	// local results (Section V-C), and reports its execution.
	Search(ctx context.Context, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error)
	// SearchRadius returns every trajectory within radius of q,
	// ascending by (distance, id).
	SearchRadius(ctx context.Context, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, QueryReport, error)
	// SearchBatch answers all queries, each over all selected
	// partitions; results are indexed like queries.
	SearchBatch(ctx context.Context, qs [][]geo.Point, k int, opt QueryOptions) ([][]topk.Item, BatchReport, error)
	// Insert routes each trajectory to a partition (see
	// partition.OnlineRouter) and applies it; queries issued after it
	// returns see every inserted trajectory. It returns the new
	// generations of the touched partitions.
	Insert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error)
	// Delete removes ids from their owning partitions; queries issued
	// after it returns never see them. It returns how many ids were
	// live and the new generations of the touched partitions.
	Delete(ctx context.Context, ids []int, opt MutateOptions) (int, Gens, error)
	// Upsert inserts trajectories with replace semantics: a live id's
	// replacement goes to its owning partition as one snapshot-atomic
	// swap (no window where the id is absent), a new id routes like
	// an Insert.
	Upsert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error)
	// Compact folds every selected partition's pending delta back
	// into its index (nil/empty partitions selects all), returning
	// the new generations of the compacted partitions.
	Compact(ctx context.Context, partitions []int) (Gens, error)
	// Generations snapshots the authoritative per-partition
	// generation vector (indexed by global partition id; immutable
	// partition indexes report 0). Generations only advance, and a
	// mutation's generations are visible here no later than the
	// mutation call returns — the property an answer cache keys on
	// (see QueryReport.Generations).
	Generations() []uint64
	// Len returns the total number of live indexed trajectories.
	Len() int
	// NumPartitions returns the global partition count.
	NumPartitions() int
	// IndexSizeBytes sums the index footprints across partitions.
	IndexSizeBytes() int
	// PartitionIndexBytes reports each partition's index footprint,
	// indexed by global partition id. The local engine reads live
	// values; the remote engine reports the sizes workers declared at
	// build time.
	PartitionIndexBytes() []int
	// BuildTime returns the wall time of index construction.
	BuildTime() time.Duration
	// Close releases the engine's resources (for Remote, the worker
	// connections; the workers themselves keep running).
	Close() error
}

var (
	_ Engine = (*Local)(nil)
	_ Engine = (*Remote)(nil)
)

// QueryOptions modulates one query on either engine. The zero value
// queries all partitions with every lower bound enabled.
type QueryOptions struct {
	// Partitions restricts the query to the given partition ids;
	// nil or empty selects all of them.
	Partitions []int
	// NoPivots disables the pivot lower bound (LBp) for this query.
	NoPivots bool
	// RefineWorkers parallelizes exact-distance refinement of fat
	// leaves inside each partition across this many goroutines
	// (values < 2 refine sequentially). Results are identical either
	// way; useful when the query targets few partitions and cores
	// would otherwise idle.
	RefineWorkers int
	// MinGens pins the query per partition: MinGens[pid], when
	// nonzero, requires partition pid to answer from a snapshot of
	// that generation or newer (rptrie.ErrStale otherwise). A short
	// or nil slice leaves the remaining partitions unpinned. The
	// facade uses this for read-your-writes after mutations.
	MinGens []uint64
	// ProbeBudget, when positive and smaller than the selection,
	// splits a Search into two phases guided by the engine's learned
	// reward-per-probe scores (see loadstats.go): the ProbeBudget
	// highest-scoring partitions are probed first, then every
	// remaining partition is either pruned — its admissible
	// best-possible lower bound already exceeds the k-th distance, so
	// it cannot contribute — or probed as well. Results stay
	// bit-identical to a full scatter. Only Search honors it;
	// SearchRadius and SearchBatch ignore the field.
	ProbeBudget int
	// BestEffort relaxes ProbeBudget's admissibility check: the tail
	// beyond the budget is skipped outright instead of bound-checked,
	// trading exactness for a hard probe cap. Skipped partitions are
	// reported in QueryReport.SkippedPartitions and the answer is not
	// cache-eligible. Ignored without a ProbeBudget.
	BestEffort bool
	// Refine selects a refined query mode — subtrajectory scoring,
	// time-windowed scoring, or both (see rptrie.RefineSpec). The zero
	// value is plain whole-trajectory scoring. Each partition builds
	// its refiner from its own index configuration, so the option only
	// works on rptrie-backed partitions; baselines reject it.
	Refine rptrie.RefineSpec
}

// minGen returns the pin for a global partition id, 0 when unpinned.
func (o QueryOptions) minGen(pid int) uint64 {
	if pid >= 0 && pid < len(o.MinGens) {
		return o.MinGens[pid]
	}
	return 0
}

// MutateOptions modulates one mutation batch on either engine.
type MutateOptions struct {
	// AutoCompact, when positive, compacts any touched partition
	// whose pending delta grew past this fraction of its live
	// trajectory count (and past a small absolute floor) once the
	// mutation is applied — the threshold-triggered form of
	// compaction. Non-positive leaves compaction to Compact calls.
	AutoCompact float64
}

// Gens maps partition id → that partition's index generation after a
// mutation or compaction. Passing a Gens-derived pin back through
// QueryOptions.MinGens guarantees the query observes those mutations.
type Gens map[int]uint64

// ErrImmutable reports a mutation routed to a partition whose index
// type has no online-update support.
var ErrImmutable = errors.New("cluster: partition index does not support online updates")

// ErrDuplicateID reports an Insert of an id that is already live.
var ErrDuplicateID = errors.New("cluster: trajectory id already indexed")

// autoCompactFloor is the smallest pending-delta size worth a
// threshold-triggered compaction; below it the linear delta scan is
// cheaper than any rebuild.
const autoCompactFloor = 32

// maybeCompact applies the MutateOptions.AutoCompact policy to one
// partition index after a mutation.
func maybeCompact(x rptrie.Index, frac float64) error {
	if frac <= 0 {
		return nil
	}
	dl := x.DeltaLen()
	if dl < autoCompactFloor || float64(dl) <= frac*float64(x.Len()) {
		return nil
	}
	return x.Compact()
}

// selectPartitions resolves a partition subset against the engine's
// partition count, deduplicating and rejecting out-of-range ids;
// nil/empty selects every partition.
func selectPartitions(subset []int, n int) ([]int, error) {
	if len(subset) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	seen := make(map[int]bool, len(subset))
	out := make([]int, 0, len(subset))
	for _, p := range subset {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("cluster: partition %d out of range [0, %d)", p, n)
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// refinerFor builds opt's refiner for one partition from that
// partition's own index configuration (measure and parameters), or nil
// for the zero spec. Only rptrie-backed partitions can host refined
// queries; the baselines cannot.
func refinerFor(pi int, idx LocalIndex, spec rptrie.RefineSpec) (rptrie.Refiner, error) {
	if spec.IsZero() {
		return nil, nil
	}
	x, ok := idx.(rptrie.Index)
	if !ok {
		return nil, fmt.Errorf("cluster: partition %d index (%T) does not support refined queries", pi, idx)
	}
	cfg := x.Config()
	return rptrie.NewRefiner(cfg.Measure, cfg.Params, spec), nil
}

// searchOptions translates opt into partition gpid's rptrie options.
func searchOptions(gpid int, idx LocalIndex, opt QueryOptions) (rptrie.SearchOptions, error) {
	ref, err := refinerFor(gpid, idx, opt.Refine)
	return rptrie.SearchOptions{NoPivots: opt.NoPivots, RefineWorkers: opt.RefineWorkers, MinGen: opt.minGen(gpid), Refiner: ref}, err
}

// searchOne answers one partition-local top-k query honoring ctx and
// opt; gpid is the partition's global id (for the generation pin).
// An rptrie.Index cancels mid-scan, fills stats (may be nil), and
// prunes against shared — the query's result heap across all of its
// partition scans (may be nil) — returning only the partition's members
// that can still be in the global top-k. The baseline indexes only
// observe the context between partitions, report no stats, and return
// their own top-k.
func searchOne(ctx context.Context, gpid int, idx LocalIndex, q []geo.Point, k int, opt QueryOptions, stats *rptrie.SearchStats, shared *rptrie.SharedTopK) ([]topk.Item, error) {
	sopt, err := searchOptions(gpid, idx, opt)
	if err != nil {
		return nil, err
	}
	if x, ok := idx.(rptrie.Index); ok {
		sopt.Stats, sopt.Shared = stats, shared
		return x.SearchContext(ctx, q, k, sopt)
	}
	// Baselines are immutable: generation pins are vacuous.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return idx.Search(q, k), nil
}

// boundOne returns an admissible lower bound on the best distance any
// trajectory in the partition could achieve for q — the probe
// budget's pruning test. An rptrie.Index runs a bounded best-first
// walk (BoundContext); the baselines return 0, which never prunes.
func boundOne(ctx context.Context, gpid int, idx LocalIndex, q []geo.Point, opt QueryOptions) (float64, error) {
	x, ok := idx.(rptrie.Index)
	if !ok {
		return 0, nil
	}
	sopt, err := searchOptions(gpid, idx, opt)
	if err != nil {
		return 0, err
	}
	return x.BoundContext(ctx, q, sopt)
}

// RadiusSearcher is the optional range-query capability of a baseline
// index (an rptrie.Index answers range queries through
// SearchRadiusContext).
type RadiusSearcher interface {
	SearchRadius(q []geo.Point, radius float64) []topk.Item
}

// radiusOne answers one partition-local range query. Indexes without
// range support (some baselines) are rejected, naming the partition so
// mixed-index failures are diagnosable.
func radiusOne(ctx context.Context, gpid int, idx LocalIndex, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, error) {
	sopt, err := searchOptions(gpid, idx, opt)
	if err != nil {
		return nil, err
	}
	if x, ok := idx.(rptrie.Index); ok {
		return x.SearchRadiusContext(ctx, q, radius, sopt)
	}
	if rs, ok := idx.(RadiusSearcher); ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return rs.SearchRadius(q, radius), nil
	}
	return nil, fmt.Errorf("cluster: partition %d index (%T) does not support radius search", gpid, idx)
}
