package repose

import (
	"errors"
	"runtime"

	"repose/internal/cluster"
	"repose/internal/rptrie"
)

// defaultPartitions returns the default global partition count: one
// per available core, mirroring the paper's setup where each of the
// 64 cluster cores processes one of the 64 default partitions.
func defaultPartitions() int {
	return runtime.GOMAXPROCS(0)
}

// Typed sentinel errors returned by the query methods; match them
// with errors.Is. Context cancellation surfaces as the ctx's own
// error (context.Canceled / context.DeadlineExceeded), wrapped.
var (
	// ErrEmptyQuery rejects a nil query or one without points.
	ErrEmptyQuery = errors.New("repose: empty query")
	// ErrBadK rejects a non-positive result size k.
	ErrBadK = errors.New("repose: k must be positive")
	// ErrBadRadius rejects a negative search radius.
	ErrBadRadius = errors.New("repose: negative radius")
	// ErrClosed rejects queries on a closed Index.
	ErrClosed = errors.New("repose: index closed")
	// ErrEmptyTrajectory rejects inserting a nil trajectory or one
	// without points.
	ErrEmptyTrajectory = errors.New("repose: empty trajectory")
	// ErrDuplicateID rejects inserting an id that is already live
	// (use Upsert to replace). Match with errors.Is.
	ErrDuplicateID = cluster.ErrDuplicateID
	// ErrImmutableIndex rejects mutations on an engine whose
	// partition indexes have no online-update support.
	ErrImmutableIndex = cluster.ErrImmutable
	// ErrUnavailable reports a query or mutation that found some
	// partition with no live in-sync replica: every worker holding it
	// is dead, circuit-broken, or awaiting a state restore. With
	// replication (WithReplication) this requires multiple concurrent
	// worker failures; without it, any worker death. Match with
	// errors.Is. The index recovers automatically once a replica
	// returns.
	ErrUnavailable = cluster.ErrUnavailable
)

// QueryOption modulates a single query without rebuilding the index;
// pass any number to Search, SearchRadius, or SearchBatch. Options
// behave identically on local and remote backends.
type QueryOption func(*queryConfig)

// queryConfig collects the applied options.
type queryConfig struct {
	report        *QueryReport
	batchReport   *BatchReport
	partitions    []int
	noPivots      bool
	refineWorkers int
	probeBudget   int
	bestEffort    bool

	// Refined query modes: sub is set by SearchSub (score the
	// best-matching contiguous segment), window by WithTimeWindow
	// (restrict scoring to samples timestamped inside [from, to]).
	sub            bool
	minSeg, maxSeg int
	window         bool
	from, to       int64
}

func applyQueryOptions(opts []QueryOption) queryConfig {
	var qc queryConfig
	for _, o := range opts {
		o(&qc)
	}
	return qc
}

// cluster converts the applied options to the engine's query options.
func (qc queryConfig) cluster() cluster.QueryOptions {
	return cluster.QueryOptions{
		Partitions:    qc.partitions,
		NoPivots:      qc.noPivots,
		RefineWorkers: qc.refineWorkers,
		ProbeBudget:   qc.probeBudget,
		BestEffort:    qc.bestEffort,
		Refine: rptrie.RefineSpec{
			Sub: qc.sub, MinSeg: qc.minSeg, MaxSeg: qc.maxSeg,
			Window: qc.window, From: qc.from, To: qc.to,
		},
	}
}

// WithReport fills r with the query's execution report — wall time,
// per-partition compute, and the straggler ratio r.Imbalance() — when
// the query returns. Ignored by SearchBatch (use WithBatchReport).
func WithReport(r *QueryReport) QueryOption {
	return func(qc *queryConfig) { qc.report = r }
}

// WithBatchReport fills r with a batch's execution report — makespan,
// per-query completion times, total work — when SearchBatch returns.
// Ignored by the single-query methods (use WithReport).
func WithBatchReport(r *BatchReport) QueryOption {
	return func(qc *queryConfig) { qc.batchReport = r }
}

// WithPartitions restricts the query to the given partition ids
// (deduplicated; out-of-range ids fail the query). Useful for
// straggler diagnosis and partial re-queries.
func WithPartitions(partitions ...int) QueryOption {
	return func(qc *queryConfig) { qc.partitions = partitions }
}

// WithoutPivots disables the pivot lower bound (LBp) for this query,
// including the up-front query-to-pivot distance computations — the
// per-query form of the paper's pivot ablation. Results are
// unchanged; only the pruning power differs.
func WithoutPivots() QueryOption {
	return func(qc *queryConfig) { qc.noPivots = true }
}

// WithProbeBudget splits a Search into two phases guided by the
// engine's learned reward-per-probe scores: the n highest-scoring
// partitions are probed first, and every remaining partition is then
// either pruned — an admissible lower bound proves it cannot improve
// the current top-k — or probed in a second wave. Results stay
// bit-identical to a full scatter; only the work order (and, when the
// bounds bite, the amount of work) changes. A report captured with
// WithReport lists the probed and pruned partitions. n <= 0 or
// n >= the partition count behaves like a plain full scatter. Only
// Search honors the budget; SearchRadius and SearchBatch ignore it.
func WithProbeBudget(n int) QueryOption {
	return func(qc *queryConfig) { qc.probeBudget = n }
}

// WithBestEffortProbes relaxes WithProbeBudget's exactness: the tail
// beyond the budget is skipped outright instead of bound-checked,
// capping the query at exactly n partition scans. The answer may miss
// trajectories held by skipped partitions (listed in
// QueryReport.SkippedPartitions) and is not cache-eligible. Ignored
// without a probe budget.
func WithBestEffortProbes() QueryOption {
	return func(qc *queryConfig) { qc.bestEffort = true }
}

// WithTimeWindow restricts the query to trajectories with at least
// one sample timestamped inside the closed window [from, to], and
// scores only each candidate's in-window run of samples. Trajectories
// without timestamps (Trajectory.Times unset) never match a windowed
// query. The option applies to Search, SearchSub, and SearchRadius;
// answers remain exact over the restricted candidate set. Timestamps
// are whatever int64 convention the application indexed (Unix seconds,
// milliseconds, ...), compared verbatim.
func WithTimeWindow(from, to int64) QueryOption {
	return func(qc *queryConfig) { qc.window, qc.from, qc.to = true, from, to }
}

// WithSegmentLength bounds the matched segment of a SearchSub query to
// [min, max] sample points; min < 1 means 1, max <= 0 means unbounded.
// Ignored by whole-trajectory queries.
func WithSegmentLength(min, max int) QueryOption {
	return func(qc *queryConfig) { qc.minSeg, qc.maxSeg = min, max }
}

// WithRefineWorkers parallelizes exact-distance refinement of fat
// trie leaves inside each partition across n goroutines (n < 2
// refines sequentially, the default). Results are bit-identical to
// the sequential path; the knob trades per-query latency for extra
// cores when the query touches few partitions — for example with
// WithPartitions — or when leaves hold many trajectories.
func WithRefineWorkers(n int) QueryOption {
	return func(qc *queryConfig) { qc.refineWorkers = n }
}
