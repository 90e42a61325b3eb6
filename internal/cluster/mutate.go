package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/partition"
)

// Online mutations route through a driver-side directory: the driver
// knows every live trajectory's owning partition (seeded from the
// batch partitioning, maintained across mutations), so Inserts are
// validated for duplicate ids globally, and Deletes go only to the
// owning partition instead of a broadcast. The directory assumes this
// driver is the only writer — the engine's deployment model (workers
// are driven, they do not accept out-of-band mutations).

// directory tracks id → owning partition plus the online router that
// assigns partitions to new arrivals. One mutex serializes engine-
// level mutations end to end; queries never touch it.
type directory struct {
	mu     sync.Mutex
	loc    map[int32]int
	router *partition.OnlineRouter // nil when the spec cannot route
	spec   IndexSpec               // retained for router rebuilds after a split
}

// newDirectory seeds the directory from the batch partitioning. When
// the spec cannot support online routing (no valid grid — e.g. a
// baseline algorithm without a Delta), it returns a directory whose
// mutations fail cleanly with ErrImmutable.
func newDirectory(spec IndexSpec, parts [][]*geo.Trajectory) *directory {
	d := &directory{loc: make(map[int32]int), spec: spec}
	for pid, part := range parts {
		for _, tr := range part {
			d.loc[int32(tr.ID)] = pid
		}
	}
	_ = d.route(len(parts))
	return d
}

// route gives d an online router for n partitions — after a split grew
// the count, a fresh one whose placement counters restart, the same
// heuristic drift recovery accepts (see recoveredDirectory); the loc
// map stays the routing truth. It fails when the spec cannot route.
// Caller holds d.mu or owns d.
func (d *directory) route(n int) error {
	g, err := grid.New(d.spec.Region, d.spec.Delta)
	if err != nil {
		return fmt.Errorf("cluster: directory grid: %w", err)
	}
	r, err := partition.NewOnlineRouter(d.spec.Strategy, g, n, d.spec.Seed)
	if err != nil {
		return fmt.Errorf("cluster: directory router: %w", err)
	}
	d.router = r
	return nil
}

// insert validates trs, routes each to a partition — a live id to its
// owner when replace is set (an upsert), every other id through the
// router — applies the per-partition groups through apply (in
// ascending partition order), and records the owners. Validation is
// all-or-nothing; the per-partition applies are not transactional
// across partitions — an apply error leaves earlier partitions mutated
// and reported in the returned Gens.
func (d *directory) insert(trs []*geo.Trajectory, replace bool, apply func(pid int, trs []*geo.Trajectory) (uint64, error)) (Gens, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.router == nil {
		return nil, ErrImmutable
	}
	seen := make(map[int32]struct{}, len(trs))
	for _, tr := range trs {
		if tr == nil || len(tr.Points) == 0 {
			return nil, fmt.Errorf("cluster: cannot insert an empty trajectory")
		}
		tid := int32(tr.ID)
		if _, dup := seen[tid]; dup {
			return nil, fmt.Errorf("%w: id %d duplicated in batch", ErrDuplicateID, tr.ID)
		}
		if _, live := d.loc[tid]; live && !replace {
			return nil, fmt.Errorf("%w: id %d", ErrDuplicateID, tr.ID)
		}
		seen[tid] = struct{}{}
	}
	groups := make(map[int][]*geo.Trajectory)
	for _, tr := range trs {
		pid, live := d.loc[int32(tr.ID)]
		if !live {
			pid = d.router.Assign(tr)
		}
		groups[pid] = append(groups[pid], tr)
	}
	gens := make(Gens, len(groups))
	for _, pid := range sortedKeys(groups) {
		gen, err := apply(pid, groups[pid])
		if err != nil {
			return gens, err
		}
		gens[pid] = gen
		for _, tr := range groups[pid] {
			d.loc[int32(tr.ID)] = pid
		}
	}
	return gens, nil
}

// delete groups the live ids by owning partition, applies the groups,
// and unregisters them. Ids the directory does not know are broadcast
// to every partition rather than skipped: normally they are simply
// not indexed (a partition-local Delete of an unknown id is a no-op),
// but after a mutation RPC whose outcome was unknown (deadline fired
// mid-flight) a worker may hold a trajectory the directory never
// recorded — broadcasting makes Delete the repair tool for that
// desync instead of leaving an undeletable ghost.
func (d *directory) delete(ids []int, numPartitions int, apply func(pid int, ids []int) (int, uint64, error)) (int, Gens, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	groups := make(map[int][]int)
	var unknown []int
	for _, id := range ids {
		if pid, ok := d.loc[int32(id)]; ok {
			groups[pid] = append(groups[pid], id)
		} else {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		for pid := 0; pid < numPartitions; pid++ {
			groups[pid] = append(groups[pid], unknown...)
		}
	}
	removed := 0
	gens := make(Gens, len(groups))
	for _, pid := range sortedKeys(groups) {
		n, gen, err := apply(pid, groups[pid])
		if err != nil {
			return removed, gens, err
		}
		removed += n
		gens[pid] = gen
		for _, id := range groups[pid] {
			delete(d.loc, int32(id))
		}
	}
	return removed, gens, nil
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Mutations fan out to every in-sync replica of the touched partition
// (mutateReplicas, failover.go): the mutation succeeds as long as one
// replica acknowledges; a replica that fails its call stops serving
// reads until the background prober restores it from an acknowledged
// peer, so readers never observe the missed write's absence. A ctx
// error means "outcome unknown" — a worker may have applied a mutation
// whose reply the driver stopped waiting for — and the retry/repair
// contract covers it: routing is deterministic, and Delete broadcasts
// ids the directory does not know.

// Insert routes each trajectory to a partition (see
// partition.OnlineRouter) and ships each partition's group to all of
// its in-sync replicas; queries issued after it returns see every
// inserted trajectory. It returns the new generations of the touched
// partitions.
func (r *Remote) Insert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error) {
	return r.insert(ctx, trs, opt, false)
}

// Upsert inserts trajectories with replace semantics: a live id's
// replacement goes to its owning partition as one snapshot-atomic swap
// (no window where the id is absent), and a new id routes like an
// Insert.
func (r *Remote) Upsert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error) {
	return r.insert(ctx, trs, opt, true)
}

// insert is Insert, or Upsert with replace set: every group rides
// Worker.Insert, its Replace flag set for an upsert.
func (r *Remote) insert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions, replace bool) (Gens, error) {
	if len(trs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: insert: %w", err)
	}
	return r.dir.insert(trs, replace, func(pid int, trs []*geo.Trajectory) (uint64, error) {
		return r.mutateReplicas(ctx, pid, "Worker.Insert",
			func() any {
				return &InsertArgs{Version: ProtocolVersion, PartitionID: pid, Trajectories: trs, Replace: replace, AutoCompact: opt.AutoCompact}
			},
			func() any { return new(InsertReply) },
			func(reply any) partState {
				ir := reply.(*InsertReply)
				return partState{ir.Gen, ir.Len, ir.SizeBytes}
			})
	})
}

// Delete removes ids from their owning partitions; queries issued after
// it returns never see them. It returns how many ids were live and the
// new generations of the touched partitions.
func (r *Remote) Delete(ctx context.Context, ids []int, opt MutateOptions) (int, Gens, error) {
	if len(ids) == 0 {
		return 0, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, fmt.Errorf("cluster: delete: %w", err)
	}
	return r.dir.delete(ids, r.NumPartitions(), func(pid int, ids []int) (int, uint64, error) {
		removed := 0
		gen, err := r.mutateReplicas(ctx, pid, "Worker.Delete",
			func() any {
				return &DeleteArgs{Version: ProtocolVersion, PartitionID: pid, IDs: ids, AutoCompact: opt.AutoCompact}
			},
			func() any { return new(DeleteReply) },
			func(reply any) partState {
				removed = reply.(*DeleteReply).Removed // identical on every in-sync replica
				return deleteAck(reply)
			})
		return removed, gen, err
	})
}

// deleteAck reads a DeleteReply's partition state.
func deleteAck(reply any) partState {
	dr := reply.(*DeleteReply)
	return partState{dr.Gen, dr.Len, dr.SizeBytes}
}

// Compact folds every selected partition's pending delta back into its
// index (nil/empty partitions selects all) on every in-sync replica,
// keeping the replica generations aligned, and returns the new
// generations of the compacted partitions. Partitions compact
// concurrently — compaction is a rebuild, and serializing P×R round
// trips would make CompactNow latency linear in the partition count.
func (r *Remote) Compact(ctx context.Context, partitions []int) (Gens, error) {
	sub, err := selectPartitions(partitions, r.NumPartitions())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: compact: %w", err)
	}
	gens := make(Gens, len(sub))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, pid := range sub {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			gen, err := r.mutateReplicas(ctx, pid, "Worker.Compact",
				func() any { return &CompactArgs{Version: ProtocolVersion, Partitions: []int{pid}} },
				func() any { return new(CompactReply) },
				func(reply any) partState {
					cr := reply.(*CompactReply)
					return partState{cr.Gens[pid], cr.Lens[pid], cr.Sizes[pid]}
				})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			gens[pid] = gen
		}(pid)
	}
	wg.Wait()
	return gens, firstErr
}
