package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
)

// Online rebalancing: migrating a hot partition's replica to an
// underloaded worker, and splitting an oversized partition in two —
// both without read downtime.
//
// Why reads stay correct throughout a migration: queries never take
// rebalMu, so they keep scattering while the snapshot streams. Until
// the owner flip, the donor replica serves reads as before; the flip
// replaces (slot, gen) for one replica atomically under genMu, and the
// new replica's generation equals the donor's at snapshot time. Since
// Rebalance holds rebalMu exclusively, no mutation can advance the
// authoritative generation past that snapshot mid-transfer, so the
// receiver installs at gen >= curGen and is immediately eligible —
// read-your-writes pins (MinGen per partition) hold across the flip
// because the restored generation dominates every pin issued before
// the migration began.
//
// Why a split never loses or duplicates an answer: the new partition
// is installed and registered before the source is pruned, so a moved
// trajectory is momentarily indexed in both partitions and never in
// neither; the query merge dedups by id (see mergeDedup), keeping the
// answer canonical through the overlap window.

// rebalanceRatio is the hot/cold load ratio below which Rebalance
// declines to move anything — migrations are not free, and chasing
// small imbalances would thrash.
const rebalanceRatio = 1.5

// RebalanceReport describes one rebalancing decision.
type RebalanceReport struct {
	// Moved reports whether a migration happened; false means the
	// cluster was already balanced (or no movable partition existed).
	Moved     bool
	Partition int    // migrated partition id
	From, To  string // donor and receiver worker addresses
	Gen       uint64 // generation the receiver installed at
}

// Rebalance inspects per-worker load (cumulative scan time of the
// partitions each worker currently serves), and when the hottest
// worker carries at least rebalanceRatio times the coolest one's load,
// migrates the hottest movable partition from the former to the
// latter: snapshot from the donor, restore into the receiver, flip the
// replica's owner slot, then drop the donor's copy. Queries continue
// uninterrupted; mutations are paused for the duration of the
// transfer.
func (r *Remote) Rebalance(ctx context.Context) (RebalanceReport, error) {
	if r.closed.Load() {
		return RebalanceReport{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return RebalanceReport{}, fmt.Errorf("cluster: rebalance: %w", err)
	}
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()

	loads := r.slotLoads()
	hot, cold := -1, -1
	for si := range r.slots {
		if r.slots[si].down.Load() {
			continue
		}
		if hot < 0 || loads[si] > loads[hot] {
			hot = si
		}
		if cold < 0 || loads[si] < loads[cold] {
			cold = si
		}
	}
	if hot < 0 || cold < 0 || hot == cold {
		return RebalanceReport{}, nil
	}
	if float64(loads[hot]) < rebalanceRatio*float64(loads[cold]) {
		return RebalanceReport{}, nil
	}

	// Pick the hottest partition currently served from the hot slot
	// whose replica can move: the receiver must not already hold a
	// copy (replicas live on distinct workers).
	hotness := r.loads.hotness()
	pid, j := -1, -1
	r.genMu.Lock()
	for p := range r.owners {
		if p >= len(hotness) {
			break
		}
		onCold := false
		for _, si := range r.owners[p] {
			if si == cold {
				onCold = true
				break
			}
		}
		if onCold {
			continue
		}
		srv := -1
		for jj := range r.owners[p] {
			if r.eligibleLocked(p, jj) {
				srv = jj
				break
			}
		}
		if srv < 0 || r.owners[p][srv] != hot {
			continue
		}
		if pid < 0 || hotness[p] > hotness[pid] {
			pid, j = p, srv
		}
	}
	r.genMu.Unlock()
	if pid < 0 {
		return RebalanceReport{}, nil
	}

	donor, target := r.slots[hot].get(), r.slots[cold].get()
	if donor == nil || target == nil {
		return RebalanceReport{}, fmt.Errorf("%w %d", ErrUnavailable, pid)
	}
	var snap SnapshotReply
	if err := r.probeCall(donor, "Worker.Snapshot", &SnapshotArgs{Version: ProtocolVersion, PartitionID: pid}, &snap, restoreTimeout); err != nil {
		return RebalanceReport{}, fmt.Errorf("cluster: rebalance snapshot of partition %d from %s: %w", pid, r.slots[hot].addr, err)
	}
	var rr RestoreReply
	rargs := &RestoreArgs{Version: ProtocolVersion, PartitionID: pid, Layout: snap.Layout, Data: snap.Data}
	if err := r.probeCall(target, "Worker.Restore", rargs, &rr, restoreTimeout); err != nil {
		// The receiver may hold a partial install it does not own;
		// best-effort wipe so a later migration starts clean.
		if c := r.slots[cold].get(); c != nil {
			_ = r.probeCall(c, "Worker.Drop", &DropArgs{Version: ProtocolVersion, PartitionID: pid}, &struct{}{}, restoreTimeout)
		}
		return RebalanceReport{}, fmt.Errorf("cluster: rebalance restore of partition %d into %s: %w", pid, r.slots[cold].addr, err)
	}

	// Flip the replica to its new home. Only Rebalance writes owner
	// slots and it holds rebalMu exclusively, so the slot read above is
	// still current; mutations are paused, so rr.Gen >= curGen[pid] and
	// the receiver is immediately eligible.
	r.genMu.Lock()
	r.owners[pid][j] = cold
	r.repGen[pid][j] = rr.Gen
	if rr.Gen > r.curGen[pid] {
		r.curGen[pid] = rr.Gen
	}
	r.genMu.Unlock()

	// The donor's copy is now unowned; dropping it is best-effort (a
	// failure leaves an orphan the reconcile pass ignores — it is not
	// in owners — and a worker restart clears).
	if c := r.slots[hot].get(); c != nil {
		_ = r.probeCall(c, "Worker.Drop", &DropArgs{Version: ProtocolVersion, PartitionID: pid}, &struct{}{}, restoreTimeout)
	}
	// Reset the migrated partition's cumulative counters: the next
	// rebalance decision should reflect the new placement, not the
	// history that motivated this move.
	r.loads.reset(pid)
	return RebalanceReport{Moved: true, Partition: pid, From: r.slots[hot].addr, To: r.slots[cold].addr, Gen: rr.Gen}, nil
}

// splitMoveIDs returns the ids to carve out of pid — the upper half of
// its live ids in ascending order, per the directory. Deterministic,
// so every replica splits identically. Caller holds dir.mu.
func splitMoveIDs(d *directory, pid int) ([]int, error) {
	var ids []int
	for id, p := range d.loc {
		if p == pid {
			ids = append(ids, int(id))
		}
	}
	if len(ids) < 2 {
		return nil, fmt.Errorf("cluster: split: partition %d holds %d trajectories, need at least 2", pid, len(ids))
	}
	sort.Ints(ids)
	return ids[len(ids)/2:], nil
}

// SplitPartition carves the upper half (by id) of partition pid into a
// new partition and returns the new partition's id. The split is
// online: the new partition is installed on every in-sync replica and
// registered for reads before the source is pruned, and the query
// merge dedups the overlap window, so no answer is ever missing or
// double-counted. Mutations are paused for the duration.
func (r *Remote) SplitPartition(ctx context.Context, pid int) (int, error) {
	if r.closed.Load() {
		return 0, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("cluster: split: %w", err)
	}
	r.dir.mu.Lock()
	defer r.dir.mu.Unlock()
	if r.dir.router == nil {
		return 0, ErrImmutable
	}
	r.rebalMu.Lock()
	defer r.rebalMu.Unlock()

	n := r.NumPartitions()
	if pid < 0 || pid >= n {
		return 0, fmt.Errorf("cluster: split: partition %d out of range [0,%d)", pid, n)
	}
	moveIDs, err := splitMoveIDs(r.dir, pid)
	if err != nil {
		return 0, err
	}
	newPid := n
	// Rebuild the router for n+1 partitions up front: failing before
	// any worker state changed keeps the abort trivial.
	if err := r.dir.route(n + 1); err != nil {
		return 0, err
	}

	// Install the new partition on every in-sync replica of pid. The
	// split is deterministic (same MoveIDs, same source generation —
	// in-sync replicas are identical), so the replies agree.
	r.genMu.Lock()
	var targets []int // replica indices within owners[pid]
	for jj := range r.owners[pid] {
		if r.eligibleLocked(pid, jj) {
			targets = append(targets, jj)
		}
	}
	slots := append([]int(nil), r.owners[pid]...)
	r.genMu.Unlock()
	if len(targets) == 0 {
		_ = r.dir.route(n)
		return 0, fmt.Errorf("%w %d", ErrUnavailable, pid)
	}
	gens := make(map[int]uint64, len(targets)) // replica index → installed gen
	var newLen, newSize int
	for _, jj := range targets {
		c := r.slots[slots[jj]].get()
		if c == nil {
			err = fmt.Errorf("cluster: split: %s not connected", r.slots[slots[jj]].addr)
			break
		}
		var sr SplitReply
		sargs := &SplitArgs{Version: ProtocolVersion, PartitionID: pid, NewPartitionID: newPid, MoveIDs: moveIDs}
		if err = r.probeCall(c, "Worker.Split", sargs, &sr, restoreTimeout); err != nil {
			err = fmt.Errorf("cluster: split partition %d on %s: %w", pid, r.slots[slots[jj]].addr, err)
			break
		}
		gens[jj] = sr.Gen
		newLen, newSize = sr.Len, sr.SizeBytes
	}
	if err != nil {
		// Abort: wipe the clones already installed and restore the
		// router. The source partitions are untouched.
		for jj := range gens {
			if c := r.slots[slots[jj]].get(); c != nil {
				_ = r.probeCall(c, "Worker.Drop", &DropArgs{Version: ProtocolVersion, PartitionID: newPid}, &struct{}{}, restoreTimeout)
			}
		}
		_ = r.dir.route(n)
		return 0, err
	}

	// Register the new partition for reads. Replicas that were stale or
	// down did not split; they start at genAbsent and the background
	// prober restores the new partition onto them from an in-sync peer,
	// exactly like any other missed mutation.
	r.genMu.Lock()
	r.owners = append(r.owners, append([]int(nil), slots...))
	rg := make([]uint64, len(slots))
	var maxGen uint64
	for jj := range rg {
		if g, ok := gens[jj]; ok {
			rg[jj] = g
			if g > maxGen {
				maxGen = g
			}
		} else {
			rg[jj] = genAbsent
		}
	}
	r.repGen = append(r.repGen, rg)
	r.curGen = append(r.curGen, maxGen)
	// atomic.Int64 must not be copied by append; rebuild the slice and
	// carry the values over explicitly.
	grownLen := make([]atomic.Int64, n+1)
	for i := range r.partLen {
		grownLen[i].Store(r.partLen[i].Load())
	}
	grownLen[n].Store(int64(newLen))
	r.partLen = grownLen
	r.partSizes = append(r.partSizes, newSize)
	r.genMu.Unlock()
	r.loads.grow(n + 1)

	// Re-route the moved ids, then prune them from the source. Queries
	// between registration and prune may see a moved trajectory in both
	// partitions; mergeDedup collapses it. A prune failure marks the
	// affected replicas stale (mutateReplicasLocked), and the prober
	// re-aligns them from an acknowledged peer — the split itself has
	// already committed.
	for _, id := range moveIDs {
		r.dir.loc[int32(id)] = newPid
	}
	_, err = r.mutateReplicasLocked(ctx, pid, "Worker.Delete",
		func() any {
			return &DeleteArgs{Version: ProtocolVersion, PartitionID: pid, IDs: moveIDs}
		},
		func() any { return new(DeleteReply) }, deleteAck)
	if err != nil {
		return newPid, fmt.Errorf("cluster: split: pruning partition %d: %w", pid, err)
	}
	return newPid, nil
}
