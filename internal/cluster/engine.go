package cluster

import (
	"context"
	"errors"
	"fmt"

	"repose/internal/geo"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// QueryOptions modulates one query. The zero value queries all
// partitions with every lower bound enabled.
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

// MutateOptions modulates one mutation batch.
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
