package repose

import (
	"context"

	"repose/internal/cluster"
)

// Online index maintenance. Insert, Delete, and Upsert work
// identically on local and remote indexes: the driver routes each new
// trajectory to a partition (mirroring the build-time partitioning
// strategy) and tracks ownership, so deletes hit only the owning
// partition. Mutations are snapshot-isolated against queries — a
// concurrent Search/SearchRadius/SearchBatch observes either all of a
// mutation batch's effect on a partition or none of it, never a
// half-applied state — and a query issued after a mutation returns is
// guaranteed to observe it (the Index pins subsequent queries to the
// generations its own mutations produced).
//
// Mutations land in a small per-partition delta overlay (pending
// inserts + tombstones) scanned exactly at query time; compaction
// folds the overlay back into the trie. Use WithAutoCompact for a
// threshold-triggered policy, or CompactNow to force it.
//
// Failure contract: a mutation that returns a context error has an
// unknown outcome — the worker may have applied it after the driver
// stopped waiting. Recovery is built in: online
// routing is a pure function of the trajectory, so retrying the same
// Insert reaches the same partition and fails with a duplicate-id
// error if the original did land (retrying as Upsert is idempotent),
// and Delete broadcasts ids the driver does not recognize, so it can
// always remove a trajectory whose insertion outcome was lost.

// MutateOption modulates a single Insert/Delete/Upsert call.
type MutateOption func(*mutateConfig)

type mutateConfig struct {
	autoCompact float64
}

// DefaultCompactFraction is a good general-purpose WithAutoCompact
// threshold: compaction triggers once a partition's pending delta
// exceeds a quarter of its live size, keeping the unindexed overlay's
// linear scan bounded at ~25% of a full scan in the worst case.
const DefaultCompactFraction = 0.25

// WithAutoCompact enables threshold-triggered compaction for this
// mutation call: after the mutation applies, any touched partition
// whose pending delta exceeds fraction of its live trajectory count
// (and a small absolute floor) is compacted before the call returns.
// Compaction rebuilds the partition's trie with all pending inserts
// and deletes folded in, restoring the fully indexed read path.
func WithAutoCompact(fraction float64) MutateOption {
	return func(mc *mutateConfig) { mc.autoCompact = fraction }
}

func applyMutateOptions(opts []MutateOption) mutateConfig {
	var mc mutateConfig
	for _, o := range opts {
		o(&mc)
	}
	return mc
}

func (mc mutateConfig) cluster() cluster.MutateOptions {
	return cluster.MutateOptions{AutoCompact: mc.autoCompact}
}

// checkMutate runs the validations shared by every mutation method.
func (x *Index) checkMutate(trs []*Trajectory) error {
	if x.closed.Load() {
		return ErrClosed
	}
	for _, tr := range trs {
		if tr == nil || len(tr.Points) == 0 {
			return ErrEmptyTrajectory
		}
	}
	return nil
}

// noteGens folds a mutation's per-partition generations into the pins
// attached to subsequent queries.
func (x *Index) noteGens(g cluster.Gens) {
	if len(g) == 0 {
		return
	}
	x.genMu.Lock()
	defer x.genMu.Unlock()
	if x.gens == nil {
		x.gens = make([]uint64, x.eng.NumPartitions())
	}
	for pid, gen := range g {
		if pid < 0 {
			continue
		}
		// A split can grow the partition count after the pin vector was
		// first sized; extend it rather than dropping the pin.
		for pid >= len(x.gens) {
			x.gens = append(x.gens, 0)
		}
		if gen > x.gens[pid] {
			x.gens[pid] = gen
		}
	}
}

// clusterOptions converts applied query options to engine options,
// attaching the read-your-writes generation pins.
func (x *Index) clusterOptions(qc queryConfig) cluster.QueryOptions {
	co := qc.cluster()
	x.genMu.Lock()
	if x.gens != nil {
		co.MinGens = append([]uint64(nil), x.gens...)
	}
	x.genMu.Unlock()
	return co
}

// Insert adds trajectories to the live index. Every query issued
// after it returns sees them. It fails — before applying anything —
// on an empty trajectory (ErrEmptyTrajectory) or an id that is
// already live (ErrDuplicateID); use Upsert to replace.
func (x *Index) Insert(ctx context.Context, trs []*Trajectory, opts ...MutateOption) error {
	if err := x.checkMutate(trs); err != nil {
		return err
	}
	if len(trs) == 0 {
		return nil
	}
	mc := applyMutateOptions(opts)
	gens, err := x.eng.Insert(ctx, trs, mc.cluster())
	x.noteGens(gens)
	return translate(err)
}

// Delete removes the given ids from the live index, returning how
// many were actually live. Queries issued after it returns never see
// them. Unknown ids are skipped, not an error.
func (x *Index) Delete(ctx context.Context, ids []int, opts ...MutateOption) (int, error) {
	if x.closed.Load() {
		return 0, ErrClosed
	}
	if len(ids) == 0 {
		return 0, nil
	}
	mc := applyMutateOptions(opts)
	removed, gens, err := x.eng.Delete(ctx, ids, mc.cluster())
	x.noteGens(gens)
	return removed, translate(err)
}

// Upsert inserts trajectories, replacing any live trajectory sharing
// an id. A replacement lands in the id's owning partition as one
// snapshot-atomic swap — no query ever observes the id as absent —
// and a new id routes like an Insert. Ids duplicated within the batch
// fail with ErrDuplicateID before anything applies.
func (x *Index) Upsert(ctx context.Context, trs []*Trajectory, opts ...MutateOption) error {
	if err := x.checkMutate(trs); err != nil {
		return err
	}
	if len(trs) == 0 {
		return nil
	}
	mc := applyMutateOptions(opts)
	gens, err := x.eng.Upsert(ctx, trs, mc.cluster())
	x.noteGens(gens)
	return translate(err)
}

// CompactNow folds every partition's pending delta back into its
// trie, synchronously. A no-op on partitions with an empty delta.
func (x *Index) CompactNow(ctx context.Context) error {
	if x.closed.Load() {
		return ErrClosed
	}
	gens, err := x.eng.Compact(ctx, nil)
	x.noteGens(gens)
	return translate(err)
}
