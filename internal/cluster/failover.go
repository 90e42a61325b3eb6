package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/rpc"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Replication and failover, driver side.
//
// Placement puts each partition's Replicas copies on distinct workers
// (round-robin: replica j of partition p lives on worker (p+j) mod W),
// so losing one worker leaves every partition with a live copy. The
// scatter path assigns each queried partition to one in-sync replica,
// retries a partition on its next replica when a worker fails a call
// at the transport level, and can hedge a slow call with a second
// attempt on another replica. Per-worker health is a consecutive-
// failure circuit breaker: a tripped worker stops receiving traffic
// and a background prober pings it until it answers again, then
// re-syncs any partition state it missed (Worker.Restore streaming an
// rptrie snapshot from an in-sync peer) before closing the circuit.
//
// Consistency across replicas is generation-based: the driver is the
// only writer, fans every mutation out to all in-sync replicas of the
// touched partition, and records each replica's acknowledged
// generation (repGen) next to the partition's authoritative one
// (curGen, the newest acknowledged by anyone). A replica serves reads
// only while repGen >= curGen, so a replica that missed a mutation —
// worker down, call timed out, outcome unknown — is silently excluded
// from reads until the prober restores it from a peer. Because the
// restored image carries the donor's generation, replicas re-align
// exactly, and the facade's read-your-writes pins (QueryOptions.
// MinGens) hold across failover: any replica eligible for reads has
// acknowledged at least every generation this driver ever pinned.

// ErrUnavailable reports a partition none of whose replicas can
// currently serve: every replica's worker is down, circuit-broken, or
// holds stale state awaiting restore. Match with errors.Is.
var ErrUnavailable = errors.New("cluster: no live in-sync replica for partition")

// genAbsent marks a replica whose partition state the driver cannot
// vouch for: a worker that restarted empty, or one whose mutation
// call failed with the outcome unknown while no peer acknowledged.
// Such replicas never serve reads; the prober's Status reconcile
// and restore passes resolve what they actually hold.
const genAbsent = ^uint64(0)

// FailoverConfig tunes the Remote's failure handling. The zero value
// of any field selects its default.
type FailoverConfig struct {
	// FailThreshold is the number of consecutive transport-level
	// failures that trips a worker's circuit breaker (default 2).
	FailThreshold int
	// ProbeInterval is the background health-probe cadence: how often
	// tripped workers are pinged and stale replicas re-synced
	// (default 500ms).
	ProbeInterval time.Duration
	// CallTimeout bounds one query attempt against one worker; past
	// it the attempt fails over to the next replica even though the
	// connection is still open (a black-holed worker produces no
	// transport error). Size it for the slowest legitimate call (a
	// whole SearchBatch rides one attempt). 0 selects the default —
	// 10s with replication, unbounded without (there is nowhere to
	// fail over to); any negative value disables the bound
	// explicitly, leaving only the query context.
	CallTimeout time.Duration
	// HedgeAfter, when positive, launches a hedged second attempt on
	// another replica once a worker's answer is this late; whichever
	// attempt answers first wins and the other is discarded and
	// cancelled. Only meaningful with replication.
	// Default off.
	HedgeAfter time.Duration
}

// withDefaults resolves zero fields against the deployment shape.
func (fc FailoverConfig) withDefaults(replicas int) FailoverConfig {
	if fc.FailThreshold <= 0 {
		fc.FailThreshold = 2
	}
	if fc.ProbeInterval <= 0 {
		fc.ProbeInterval = 500 * time.Millisecond
	}
	if fc.CallTimeout < 0 {
		fc.CallTimeout = 0 // explicit opt-out
	} else if fc.CallTimeout == 0 && replicas > 1 {
		fc.CallTimeout = 10 * time.Second
	}
	return fc
}

// SetFailover replaces the failover configuration (zero fields take
// their defaults). Safe to call while queries are in flight; the
// prober picks the new cadence up on its next cycle.
func (r *Remote) SetFailover(fc FailoverConfig) {
	fc = fc.withDefaults(r.replicas)
	r.foMu.Lock()
	r.fo = fc
	r.foMu.Unlock()
}

func (r *Remote) failover() FailoverConfig {
	r.foMu.Lock()
	defer r.foMu.Unlock()
	return r.fo
}

// caller is one connection to a worker: *rpc.Client for a worker
// process reached over TCP, inProcess for a Worker in this process.
type caller interface {
	Go(serviceMethod string, args, reply any, done chan *rpc.Call) *rpc.Call
	Close() error
}

// workerSlot is the driver's view of one worker: its address, how to
// reach it, the current connection (replaced by the prober after a
// reconnect), and the circuit-breaker state.
type workerSlot struct {
	addr   string
	dial   func() (caller, error) // opens a fresh connection
	mu     sync.Mutex
	client caller // nil while disconnected
	fails  int    // consecutive transport failures
	down   atomic.Bool
}

// get returns the current connection, nil while disconnected.
func (s *workerSlot) get() caller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.client
}

// setClient installs a fresh connection, closing any previous one.
func (s *workerSlot) setClient(c caller) {
	s.mu.Lock()
	old := s.client
	s.client = c
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// drop closes and clears the connection if c is still the current one
// (a concurrent reconnect must not be clobbered).
func (s *workerSlot) drop(c caller) {
	s.mu.Lock()
	if s.client == c {
		s.client = nil
	}
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// noteSuccess closes the failure streak.
func (s *workerSlot) noteSuccess() {
	s.mu.Lock()
	s.fails = 0
	s.mu.Unlock()
}

// noteFailure records one transport failure; at threshold (or on a
// connection-fatal error) the circuit opens and the connection is
// dropped so the prober redials.
func (s *workerSlot) noteFailure(threshold int, fatal bool) {
	s.mu.Lock()
	s.fails++
	tripped := fatal || s.fails >= threshold
	var old caller
	if tripped {
		s.down.Store(true)
		old = s.client
		s.client = nil
	}
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// markUp closes the circuit after a successful probe + state re-sync.
func (s *workerSlot) markUp() {
	s.mu.Lock()
	s.fails = 0
	s.mu.Unlock()
	s.down.Store(false)
}

// WorkerHealth is one worker's externally visible health snapshot.
type WorkerHealth struct {
	Addr string
	// Down reports an open circuit: the worker receives no traffic
	// until a background probe succeeds.
	Down bool
	// StaleParts counts partition replicas on this worker that missed
	// mutations and await restore; they are excluded from reads.
	StaleParts int
	// Load is the cumulative scan time attributed to this worker: the
	// summed hotness of every partition whose first eligible replica
	// (the one the scatter planner picks) lives here. The rebalancer
	// compares these to find donor and receiver.
	Load time.Duration
}

// Health snapshots every worker's availability, for operators and
// tests that must wait for the cluster to heal. A closed engine reaches
// no worker, so it reports every one down.
func (r *Remote) Health() []WorkerHealth {
	out := make([]WorkerHealth, len(r.slots))
	for i, s := range r.slots {
		out[i] = WorkerHealth{Addr: s.addr, Down: s.down.Load() || r.closed.Load()}
	}
	r.genMu.Lock()
	for pid, owners := range r.owners {
		for j, si := range owners {
			if r.repGen[pid][j] == genAbsent || r.repGen[pid][j] < r.curGen[pid] {
				out[si].StaleParts++
			}
		}
	}
	r.genMu.Unlock()
	for si, load := range r.slotLoads() {
		out[si].Load = load
	}
	return out
}

// slotLoads attributes each partition's cumulative scan time to the
// slot the scatter planner would currently pick for it (the first
// eligible replica), yielding per-worker load totals. Partitions with
// no eligible replica are attributed to nobody.
func (r *Remote) slotLoads() []time.Duration {
	hot := r.loads.hotness()
	out := make([]time.Duration, len(r.slots))
	r.genMu.Lock()
	defer r.genMu.Unlock()
	for pid := range r.owners {
		if pid >= len(hot) {
			break
		}
		for j, si := range r.owners[pid] {
			if r.eligibleLocked(pid, j) {
				out[si] += hot[pid]
				break
			}
		}
	}
	return out
}

// eligibleLocked reports whether replica j of pid can serve reads:
// circuit closed, connected, and in sync with the authoritative
// generation. Callers hold genMu.
func (r *Remote) eligibleLocked(pid, j int) bool {
	s := r.slots[r.owners[pid][j]]
	if s.down.Load() {
		return false
	}
	g := r.repGen[pid][j]
	return g != genAbsent && g >= r.curGen[pid]
}

// group is one worker slot's share of a scatter round.
type group struct {
	slot int
	pids []int
}

// plan assigns every partition in pids to the first eligible replica
// not yet excluded for it, grouped per worker slot in pids order, and
// appends the groups to dst. A partition with no assignable replica
// fails the plan with ErrUnavailable. When every partition lands on one
// slot — always, on an unreplicated single-worker engine — that group
// is pids itself.
func (r *Remote) plan(dst []group, pids []int, excluded exclusions) ([]group, error) {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	first, mixed := -1, false
	for _, pid := range pids {
		si := r.assignLocked(pid, excluded)
		if si < 0 {
			return nil, fmt.Errorf("%w %d", ErrUnavailable, pid)
		}
		if first < 0 {
			first = si
		}
		mixed = mixed || si != first
	}
	if !mixed {
		return append(dst, group{slot: first, pids: pids}), nil
	}
	groups := dst
	for _, pid := range pids {
		si := r.assignLocked(pid, excluded)
		gi := slices.IndexFunc(groups, func(g group) bool { return g.slot == si })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, group{slot: si})
		}
		groups[gi].pids = append(groups[gi].pids, pid)
	}
	return groups, nil
}

// assignLocked returns the slot of pid's first eligible replica not
// excluded for it, -1 when there is none. Callers hold genMu.
func (r *Remote) assignLocked(pid int, excluded exclusions) int {
	for j, si := range r.owners[pid] {
		if !excluded[[2]int{pid, si}] && r.eligibleLocked(pid, j) {
			return si
		}
	}
	return -1
}

// exclusions holds the (partition, slot) pairs a scatter must not
// retry.
type exclusions map[[2]int]bool

// add records that slot si must not be retried for pid, making the map
// on first use.
func (e exclusions) add(pid, si int) exclusions {
	if e == nil {
		e = make(exclusions)
	}
	e[[2]int{pid, si}] = true
	return e
}

// isServerError reports an application-level error returned by a live
// worker: an rpc.ServerError from a worker process, a workerError from
// an in-process one. Such errors are surfaced, not failed over: every
// replica would answer the same.
func isServerError(err error) bool {
	var se rpc.ServerError
	var we workerError
	return errors.As(err, &se) || errors.As(err, &we)
}

// notOwnerMsg is the worker-side diagnostic for a request naming a
// partition the worker does not hold. It crosses the wire as an
// opaque rpc.ServerError string, so the driver matches the message.
const notOwnerMsg = "does not own partition"

// notOwnedPartition extracts the partition id from a worker's
// not-owner rejection, -1 when the error is anything else.
func notOwnedPartition(err error) int {
	if err == nil {
		return -1
	}
	msg := err.Error()
	i := strings.Index(msg, notOwnerMsg)
	if i < 0 {
		return -1
	}
	pid := -1
	if _, serr := fmt.Sscanf(msg[i+len(notOwnerMsg):], " %d", &pid); serr != nil {
		return -1
	}
	return pid
}

// connFatal reports an error that proves the connection itself is
// dead, warranting an immediate circuit trip rather than a counted
// strike.
func connFatal(err error) bool {
	return errors.Is(err, rpc.ErrShutdown)
}

// probeCall performs one synchronous prober RPC bounded by timeout and
// the prober's stop channel, so a black-holed worker can never wedge
// the probe loop or Close.
func (r *Remote) probeCall(c caller, method string, args, reply any, timeout time.Duration) error {
	call := c.Go(method, args, reply, make(chan *rpc.Call, 1))
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-call.Done:
		return call.Error
	case <-t.C:
		return fmt.Errorf("cluster: probe %s on timed-out connection", method)
	case <-r.probeStop:
		return errors.New("cluster: prober stopping")
	}
}

// probeTimeout bounds cheap prober RPCs (ping, status).
const probeTimeout = 2 * time.Second

// restoreTimeout bounds one snapshot+restore stream; partition images
// are shipped whole, so give them more room than a ping — but still a
// bound: the prober is single-threaded, and one silently black-holed
// connection must not stall every other slot's recovery for long.
const restoreTimeout = 10 * time.Second

// probeLoop runs in the background for the Remote's lifetime, redialing
// and re-syncing tripped workers and restoring stale replicas.
func (r *Remote) probeLoop() {
	defer r.probeWG.Done()
	for {
		interval := r.failover().ProbeInterval
		select {
		case <-r.probeStop:
			return
		case <-time.After(interval):
		}
		r.probe()
	}
}

// probe is one prober pass: revive tripped workers, re-anchor orphaned
// partitions, and restore stale replicas.
func (r *Remote) probe() {
	for si := range r.slots {
		if r.slots[si].down.Load() {
			r.reviveSlot(si)
		}
	}
	r.reconcileOrphans()
	r.syncStale()
}

// reconcileOrphans re-establishes an authoritative generation for
// partitions left with no eligible replica — the aftermath of a
// mutation whose outcome was unknown on *every* replica (all calls
// timed out or were cancelled, none acknowledged): the workers may
// have applied it or not, so mutateReplicas marks every targeted
// replica unknown and this pass asks the live workers what they
// actually hold. The highest generation at or above the authoritative
// one becomes authoritative (generations only move forward — a pinned
// read must never be silently satisfiable by older state), replicas
// behind it turn stale, and syncStale re-aligns them from the winner.
func (r *Remote) reconcileOrphans() {
	r.genMu.Lock()
	askSlots := make(map[int]bool)
	var orphans []int
	for pid := range r.owners {
		eligible := false
		for j := range r.owners[pid] {
			if r.eligibleLocked(pid, j) {
				eligible = true
				break
			}
		}
		if !eligible {
			orphans = append(orphans, pid)
			for _, si := range r.owners[pid] {
				if !r.slots[si].down.Load() {
					askSlots[si] = true
				}
			}
		}
	}
	r.genMu.Unlock()
	if len(orphans) == 0 {
		return
	}
	statuses := make(map[int]*StatusReply, len(askSlots))
	for si := range askSlots {
		c := r.slots[si].get()
		if c == nil {
			r.slots[si].noteFailure(1, true) // zombie: force a revive
			continue
		}
		var st StatusReply
		if err := r.probeCall(c, "Worker.Status", &StatusArgs{Version: ProtocolVersion}, &st, probeTimeout); err != nil {
			r.slots[si].noteFailure(1, true)
			continue
		}
		statuses[si] = &st
	}
	r.genMu.Lock()
	for _, pid := range orphans {
		maxGen, found := uint64(0), false
		for _, si := range r.owners[pid] {
			if st, ok := statuses[si]; ok {
				if g, held := st.Gens[pid]; held && (!found || g > maxGen) {
					maxGen, found = g, true
				}
			}
		}
		if !found || maxGen < r.curGen[pid] {
			// No live replica holds state at the authoritative
			// generation; stay unavailable rather than regress.
			continue
		}
		r.curGen[pid] = maxGen
		for j, si := range r.owners[pid] {
			st, ok := statuses[si]
			if !ok {
				continue
			}
			if g, held := st.Gens[pid]; held {
				r.repGen[pid][j] = g
				if g == maxGen {
					r.adoptStatusLocked(pid, st)
				}
			} else {
				r.repGen[pid][j] = genAbsent
			}
		}
	}
	r.genMu.Unlock()
}

// reviveSlot tries to bring one tripped worker back: reconnect, verify
// the protocol, reconcile which partitions it still holds at the
// authoritative generation, and close the circuit. Partitions it lost
// or holds stale stay excluded from reads until syncStale restores
// them.
func (r *Remote) reviveSlot(si int) {
	s := r.slots[si]
	c := s.get()
	if c == nil {
		nc, err := r.connect(s)
		if err != nil {
			return
		}
		s.setClient(nc)
		c = nc
	} else {
		var ok bool
		if err := r.probeCall(c, "Worker.Ping", &struct{}{}, &ok, probeTimeout); err != nil {
			s.drop(c) // redial on the next cycle
			return
		}
	}
	var st StatusReply
	if err := r.probeCall(c, "Worker.Status", &StatusArgs{Version: ProtocolVersion}, &st, probeTimeout); err != nil {
		s.drop(c)
		return
	}
	r.genMu.Lock()
	for pid, owners := range r.owners {
		for j, owner := range owners {
			if owner != si {
				continue
			}
			if gen, ok := st.Gens[pid]; ok && gen >= r.curGen[pid] {
				if gen > r.curGen[pid] {
					// The revived replica is *ahead* of the authoritative
					// generation: it applied a mutation whose ack was
					// lost while reconcile re-anchored the partition at
					// an older generation from its peers. Its state is
					// the only copy reflecting that acknowledged-nowhere
					// write, so adopt its generation as authoritative —
					// generations only move forward — which turns the
					// peers stale and makes syncStale re-align them from
					// this replica. Keeping curGen put instead would let
					// diverged replicas serve reads side by side.
					r.curGen[pid] = gen
				}
				r.repGen[pid][j] = gen
				r.adoptStatusLocked(pid, &st)
			} else if !ok {
				r.repGen[pid][j] = genAbsent
			} else {
				r.repGen[pid][j] = gen // stale: syncStale restores it
			}
		}
	}
	r.genMu.Unlock()
	s.markUp()
}

// adoptStatusLocked takes pid's live length and index size from a
// worker's Status reply at the authoritative generation. Callers hold
// genMu.
func (r *Remote) adoptStatusLocked(pid int, st *StatusReply) {
	if n, ok := st.Lens[pid]; ok {
		r.partLen[pid].Store(int64(n))
	}
	if b, ok := st.Sizes[pid]; ok {
		r.partSizes[pid] = b
	}
}

// syncStale restores every out-of-sync replica on a live worker from
// an in-sync peer: snapshot the donor's partition (delta folded, at
// the donor's generation) and stream it into the recovering worker.
// One pass is best-effort; anything that fails stays stale and is
// retried next cycle.
func (r *Remote) syncStale() {
	type job struct{ pid, j, donorSlot, targetSlot int }
	var jobs []job
	r.genMu.Lock()
	for pid, owners := range r.owners {
		for j, si := range owners {
			if r.slots[si].down.Load() {
				continue
			}
			if g := r.repGen[pid][j]; g != genAbsent && g >= r.curGen[pid] {
				continue
			}
			donor := -1
			for dj := range owners {
				if dj != j && r.eligibleLocked(pid, dj) {
					donor = owners[dj]
					break
				}
			}
			if donor >= 0 {
				jobs = append(jobs, job{pid: pid, j: j, donorSlot: donor, targetSlot: si})
			}
		}
	}
	r.genMu.Unlock()
	for _, jb := range jobs {
		r.restoreReplica(jb.pid, jb.j, jb.donorSlot, jb.targetSlot)
	}
}

// restoreReplica streams one partition from donor to target. A failed
// or timed-out transfer drops the offending connection — the worker
// may be silently black-holed, and a fresh dial on the next probe
// cycle is the only way to make progress — and leaves the replica
// stale for the next cycle to retry.
func (r *Remote) restoreReplica(pid, j, donorSlot, targetSlot int) {
	donor := r.slots[donorSlot].get()
	target := r.slots[targetSlot].get()
	if donor == nil || target == nil {
		return
	}
	var snap SnapshotReply
	if err := r.probeCall(donor, "Worker.Snapshot", &SnapshotArgs{Version: ProtocolVersion, PartitionID: pid}, &snap, restoreTimeout); err != nil {
		if !isServerError(err) {
			// The connection is suspect (possibly black-holed): trip
			// the circuit, not just the connection — a cleared client
			// on a closed circuit would never be redialed, leaving the
			// replica stale forever.
			r.slots[donorSlot].noteFailure(1, true)
		}
		return
	}
	var rr RestoreReply
	args := &RestoreArgs{Version: ProtocolVersion, PartitionID: pid, Layout: snap.Layout, Data: snap.Data}
	if err := r.probeCall(target, "Worker.Restore", args, &rr, restoreTimeout); err != nil {
		if !isServerError(err) {
			r.slots[targetSlot].noteFailure(1, true)
		}
		return
	}
	r.genMu.Lock()
	// Re-verify the slot assignment: a concurrent migration may have
	// flipped owners[pid][j] to another worker while this transfer was
	// in flight, and the streamed generation describes targetSlot, not
	// whoever owns the replica now.
	if r.owners[pid][j] == targetSlot {
		r.repGen[pid][j] = rr.Gen
	}
	r.genMu.Unlock()
}

// fireResult is one group call's outcome.
type fireResult struct {
	slot    int
	pids    []int
	err     error
	replies []QueryReply
	// hedged reports that the replies came from a hedge on other
	// replicas, not from this slot — health accounting must not credit
	// the slow worker with the backup's answer.
	hedged bool
}

// queryMethod is the one query endpoint (protocol v8).
const queryMethod = "Worker.Query"

// scatter sends req over req.Partitions with replica failover: plan an
// assignment, fire one Worker.Query per worker group in parallel, and
// re-plan any partitions whose worker failed at the transport level
// onto their next replicas, until every partition answered or a
// partition runs out of replicas. Replies cover disjoint partition
// sets, so no result is ever double-counted.
func (r *Remote) scatter(ctx context.Context, req *QueryArgs) ([]QueryReply, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		// Already cancelled: skip serializing and shipping payloads.
		return nil, fmt.Errorf("cluster: %s: %w", queryMethod, err)
	}
	var excluded exclusions     // made on the first failure
	var groupBuf [1]group       // a round's groups and results: one
	var resultBuf [1]fireResult // group, the common case, allocates neither
	remaining := req.Partitions
	var out []QueryReply
	var lastErr error
	for len(remaining) > 0 {
		groups, err := r.plan(groupBuf[:0], remaining, excluded)
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last replica failure: %v)", err, lastErr)
			}
			return nil, err
		}
		results := r.fire(ctx, resultBuf[:0], groups, excluded, req, true)
		remaining = remaining[:0:0]
		for _, res := range results {
			switch {
			case res.err == nil:
				if res.hedged {
					// The backup answered, not this worker: count a
					// strike instead of resetting its streak, so a
					// permanently silent worker eventually trips its
					// breaker, gets probed, and is healed or
					// quarantined rather than slowing every query by
					// HedgeAfter forever.
					r.slots[res.slot].noteFailure(r.failover().FailThreshold, false)
				} else {
					r.slots[res.slot].noteSuccess()
				}
				out = extend(out, res.replies)
			case ctx.Err() != nil:
				// The query's own context ended; surface that (the
				// abandoned-call diagnostic already wraps it, other
				// failures get it attached so errors.Is always works).
				if errors.Is(res.err, ctx.Err()) {
					return nil, res.err
				}
				return nil, fmt.Errorf("cluster: %s on %s: %v (%w)", queryMethod, r.slots[res.slot].addr, res.err, ctx.Err())
			case isServerError(res.err):
				if pid := notOwnedPartition(res.err); pid >= 0 {
					// The worker is healthy but no longer holds pid: the
					// plan raced an ownership change (a migration's Drop
					// or a split's prune landed between planning and the
					// call). Not a strike — retry every partition of the
					// group on the current owners, excluding only the
					// rejected partition on this worker; the re-plan
					// reads the post-flip owner table, so the query
					// completes with zero failed partitions.
					lastErr = fmt.Errorf("cluster: %s on %s: %w", queryMethod, r.slots[res.slot].addr, res.err)
					excluded = excluded.add(pid, res.slot)
					remaining = append(remaining, res.pids...)
					continue
				}
				// The worker answered: an application-level error every
				// replica would repeat. Surface it.
				return nil, fmt.Errorf("cluster: %s on %s: %w", queryMethod, r.slots[res.slot].addr, res.err)
			default:
				if r.closed.Load() {
					// Close raced the query: its severed connections
					// are not worker failures. Fail fast as
					// documented, without tripping live workers'
					// breakers.
					return nil, ErrClosed
				}
				lastErr = fmt.Errorf("cluster: %s on %s: %w", queryMethod, r.slots[res.slot].addr, res.err)
				r.slots[res.slot].noteFailure(r.failover().FailThreshold, connFatal(res.err))
				for _, pid := range res.pids {
					excluded = excluded.add(pid, res.slot)
				}
				remaining = append(remaining, res.pids...)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", queryMethod, err)
	}
	return out, nil
}

// fire runs one round of group calls — concurrently when there are
// several groups, on the calling goroutine when there is one — and
// appends their results to dst. A hedge goroutine can outlive its round
// (the original call may win while the hedge is still in flight), so
// hedges never touch the caller's live excluded map: when hedging is
// possible, the round snapshots it once, up front, synchronously —
// strictly before scatter's between-round mutations can happen.
func (r *Remote) fire(ctx context.Context, dst []fireResult, groups []group, excluded exclusions, req *QueryArgs, allowHedge bool) []fireResult {
	var snapshot exclusions // non-nil when the round may hedge
	if allowHedge && r.failover().HedgeAfter > 0 {
		snapshot = exclusions{}
		maps.Copy(snapshot, excluded)
	}
	if len(groups) == 1 {
		return append(dst, r.fireGroup(ctx, groups[0], snapshot, req))
	}
	resCh := make(chan fireResult, len(groups))
	for _, g := range groups {
		go func(g group, snapshot exclusions) { resCh <- r.fireGroup(ctx, g, snapshot, req) }(g, snapshot)
	}
	for range groups {
		dst = append(dst, <-resCh)
	}
	return dst
}

// fireGroup calls one group, hedged when snapshot is set.
func (r *Remote) fireGroup(ctx context.Context, g group, snapshot exclusions, req *QueryArgs) fireResult {
	var hedge func(context.Context) ([]QueryReply, error)
	if snapshot != nil {
		hedge = func(hctx context.Context) ([]QueryReply, error) {
			return r.hedgeAttempt(hctx, g.slot, g.pids, snapshot, req)
		}
	}
	replies, hedged, err := r.callGroup(ctx, g.slot, g.pids, req, hedge)
	return fireResult{slot: g.slot, pids: g.pids, err: err, replies: replies, hedged: hedged}
}

// hedgeAttempt answers pids on replicas other than the slow slot si,
// without further hedging or retries: one alternative plan, one
// round. snapshot is this round's private copy of the exclusion
// state; it is never shared with scatter's live map.
func (r *Remote) hedgeAttempt(ctx context.Context, si int, pids []int, snapshot exclusions, req *QueryArgs) ([]QueryReply, error) {
	hx := maps.Clone(snapshot)
	for _, pid := range pids {
		hx[[2]int{pid, si}] = true
	}
	groups, err := r.plan(nil, pids, hx)
	if err != nil {
		return nil, err
	}
	var out []QueryReply
	for _, res := range r.fire(ctx, nil, groups, hx, req, false) {
		if res.err != nil {
			return nil, res.err
		}
		out = append(out, res.replies...)
	}
	return out, nil
}

// donePool recycles the done channels of answered query calls.
var donePool = sync.Pool{New: func() any { return make(chan *rpc.Call, 1) }}

// callGroup sends req to one worker for its assigned partitions,
// honoring the per-attempt timeout, the query context (with the
// cancel-grace protocol), and an optional hedge. The hedge runs under a
// context derived from ctx that is cancelled when callGroup returns, so
// a hedge that lost to the original stops scanning.
func (r *Remote) callGroup(ctx context.Context, si int, pids []int, req *QueryArgs, hedge func(context.Context) ([]QueryReply, error)) (replies []QueryReply, hedged bool, err error) {
	s := r.slots[si]
	c := s.get()
	if c == nil {
		return nil, false, fmt.Errorf("cluster: %w", rpc.ErrShutdown)
	}
	fo := r.failover()
	// The copy keeps req's shared heaps and carries ctx: an in-process
	// worker runs under both, and gob leaves them behind on the wire.
	args := *req
	args.QueryHeader = r.header(ctx, pids, req.MinGens)
	args.ctx = ctx
	reply := make([]QueryReply, 1)
	done := donePool.Get().(chan *rpc.Call)
	call := c.Go(queryMethod, &args, &reply[0], done)

	var timeoutC <-chan time.Time
	if fo.CallTimeout > 0 {
		t := time.NewTimer(fo.CallTimeout)
		defer t.Stop()
		timeoutC = t.C
	}
	var hedgeC <-chan time.Time
	if hedge != nil && fo.HedgeAfter > 0 {
		t := time.NewTimer(fo.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	type hedgeResult struct {
		replies []QueryReply
		err     error
	}
	var hedgeDone chan hedgeResult
	answered := false
	defer func() {
		if answered {
			donePool.Put(done) // its one send was received
		}
		// An original call or a hedge still running may be scanning in
		// process with req's shared heaps: keep them out of the pool.
		if (!answered || hedgeDone != nil) && req.shared != nil {
			req.shared.abandoned.Store(true)
		}
	}()
	for {
		select {
		case <-call.Done:
			answered = true
			if call.Error != nil {
				return nil, false, call.Error
			}
			return reply, false, nil
		case <-hedgeC:
			hedgeC = nil // this case runs at most once
			// Returning stops a hedge still running: it lost.
			hctx, stopHedge := context.WithCancel(ctx)
			defer stopHedge()
			ch := make(chan hedgeResult, 1)
			hedgeDone = ch
			go func() {
				replies, err := hedge(hctx)
				ch <- hedgeResult{replies: replies, err: err}
			}()
		case hr := <-hedgeDone:
			hedgeDone = nil
			if hr.err == nil {
				// The backup replica answered first: cancel the slow
				// original's scan and abandon the call (net/rpc delivers
				// its eventual reply into the call's buffered channel —
				// nothing leaks).
				c.Go("Worker.Cancel", &CancelArgs{ID: args.ID}, &struct{}{}, make(chan *rpc.Call, 1))
				return hr.replies, true, nil
			}
			// Hedge failed; keep waiting for the original.
		case <-timeoutC:
			c.Go("Worker.Cancel", &CancelArgs{ID: args.ID}, &struct{}{}, make(chan *rpc.Call, 1))
			return nil, false, fmt.Errorf("cluster: attempt timed out after %v", fo.CallTimeout)
		case <-ctx.Done():
			// Fire a best-effort cancel and await the reply briefly — a
			// live worker aborts promptly through its own context —
			// then abandon, so a hung worker cannot block the driver
			// past its deadline.
			c.Go("Worker.Cancel", &CancelArgs{ID: args.ID}, &struct{}{}, make(chan *rpc.Call, 1))
			select {
			case <-call.Done:
				answered = true
				if call.Error != nil {
					return nil, false, call.Error
				}
				return reply, false, nil
			case <-time.After(cancelGrace):
				return nil, false, fmt.Errorf("cluster: %s on %s abandoned after cancel: %w", queryMethod, s.addr, ctx.Err())
			}
		}
	}
}

// mutateReplicas applies one mutation RPC to every in-sync replica of
// pid, advancing the authoritative generation on the first
// acknowledgement. A replica that fails at the transport level is
// struck and left behind (its repGen no longer matches curGen, so it
// stops serving reads until the prober restores it); the mutation
// itself succeeds as long as one replica acknowledges. newArgs must
// return a fresh args value per replica (net/rpc encodes concurrently)
// and ack extracts the partition's state from a reply.
//
// Acknowledgements only move forward: a Compact, which does not hold
// the directory lock, can be acknowledged before an Insert the worker
// applied first, and the older reply must neither turn the replica
// stale nor roll back the length and size the newer one reported.
//
// The shared rebalMu hold excludes rebalancing for the duration: a
// migration must not flip a partition's owners while a mutation is
// mid-flight to the old owner set, or the donor's generation could
// advance past the snapshot the receiver restored. Mutations on
// different partitions still run concurrently (RLock is shared).
func (r *Remote) mutateReplicas(ctx context.Context, pid int, method string, newArgs func() any, newReply func() any, ack func(reply any) partState) (uint64, error) {
	r.rebalMu.RLock()
	defer r.rebalMu.RUnlock()
	return r.mutateReplicasLocked(ctx, pid, method, newArgs, newReply, ack)
}

// partState is what a mutation reply reports of its partition.
type partState struct {
	gen  uint64
	n    int // live trajectories
	size int // index bytes
}

// mutateReplicasLocked is mutateReplicas for callers that already hold
// rebalMu (shared or exclusive) — the split path prunes moved ids
// while holding it exclusively.
func (r *Remote) mutateReplicasLocked(ctx context.Context, pid int, method string, newArgs func() any, newReply func() any, ack func(reply any) partState) (uint64, error) {
	if r.closed.Load() {
		return 0, ErrClosed
	}
	r.genMu.Lock()
	var targets []int // replica indices within owners[pid]
	for j := range r.owners[pid] {
		if r.eligibleLocked(pid, j) {
			targets = append(targets, j)
		}
	}
	r.genMu.Unlock()
	if len(targets) == 0 {
		return 0, fmt.Errorf("%w %d", ErrUnavailable, pid)
	}
	fo := r.failover()
	type res struct {
		j     int
		reply any
		err   error
	}
	resCh := make(chan res, len(targets))
	for _, j := range targets {
		go func(j int) {
			si := r.owners[pid][j]
			c := r.slots[si].get()
			if c == nil {
				resCh <- res{j: j, err: fmt.Errorf("cluster: %w", rpc.ErrShutdown)}
				return
			}
			reply := newReply()
			call := c.Go(method, newArgs(), reply, make(chan *rpc.Call, 1))
			var timeoutC <-chan time.Time
			if fo.CallTimeout > 0 {
				t := time.NewTimer(fo.CallTimeout)
				defer t.Stop()
				timeoutC = t.C
			}
			select {
			case <-call.Done:
				resCh <- res{j: j, reply: reply, err: call.Error}
			case <-timeoutC:
				resCh <- res{j: j, err: fmt.Errorf("cluster: %s timed out after %v", method, fo.CallTimeout)}
			case <-ctx.Done():
				resCh <- res{j: j, err: fmt.Errorf("cluster: %s on %s: %w", method, r.slots[si].addr, ctx.Err())}
			}
		}(j)
	}
	acked := uint64(0)
	ackedAny := false
	var appErr, transErr error
	var unknown []int // replica indices whose outcome is unknown
	for range targets {
		re := <-resCh
		si := r.owners[pid][re.j]
		switch {
		case re.err == nil:
			r.slots[si].noteSuccess()
			st := ack(re.reply)
			r.genMu.Lock()
			if g := r.repGen[pid][re.j]; g == genAbsent || st.gen > g {
				r.repGen[pid][re.j] = st.gen
			}
			if st.gen >= r.curGen[pid] {
				r.curGen[pid] = st.gen
				r.partLen[pid].Store(int64(st.n))
				r.partSizes[pid] = st.size
			}
			r.genMu.Unlock()
			if !ackedAny || st.gen > acked {
				acked = st.gen
			}
			ackedAny = true
		case isServerError(re.err):
			// A live worker rejected the mutation (duplicate id,
			// immutable index, …): an application error, identical on
			// every replica. Remember it; do not strike the worker.
			if appErr == nil {
				appErr = fmt.Errorf("cluster: %s on %s: %w", method, r.slots[si].addr, re.err)
			}
		default:
			// Transport failure or timeout: outcome unknown on that
			// replica. Strike it (unless the caller's own context was
			// cancelled or the engine was closed — neither says
			// anything about the worker); it stops serving reads once
			// curGen advances and the prober restores it later.
			if !r.closed.Load() && (ctx.Err() == nil || !errors.Is(re.err, ctx.Err())) {
				r.slots[si].noteFailure(fo.FailThreshold, connFatal(re.err))
			}
			unknown = append(unknown, re.j)
			if transErr == nil {
				transErr = fmt.Errorf("cluster: %s on %s: %w", method, r.slots[si].addr, re.err)
			}
		}
	}
	if !ackedAny {
		if r.closed.Load() {
			return 0, ErrClosed
		}
		if len(unknown) > 0 {
			// Nothing acknowledged, yet a transport-failed replica may
			// still have applied the mutation: with curGen unmoved it
			// would keep serving reads, silently diverged from its
			// peers. Mark every unknown-outcome replica as holding
			// unknown state; the prober's reconcile pass asks the live
			// workers what they actually hold and re-establishes the
			// authoritative generation.
			r.genMu.Lock()
			for _, j := range unknown {
				r.repGen[pid][j] = genAbsent
			}
			r.genMu.Unlock()
		}
		if appErr != nil {
			return 0, appErr
		}
		return 0, transErr
	}
	if appErr != nil {
		// An application-level rejection with another replica
		// acknowledging would mean diverged replicas — possible only
		// if the caller raced mutations, which the directory forbids.
		// Surface it loudly rather than hide a split brain.
		return acked, appErr
	}
	return acked, nil
}
