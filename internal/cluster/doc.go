// Package cluster implements REPOSE's distributed in-memory engine
// (Section V-C). The paper runs on Spark: a custom Partitioner
// spreads trajectories, mapPartitions builds one local index per
// partition (the RpTraj pairing of data and index), queries broadcast
// to all partitions, and the master merges local top-k results.
//
// This package reproduces that dataflow with one engine and two
// callers. The engine (Remote) is the driver: it places partitions on
// Workers, routes mutations, scatters queries, and merges. A caller is
// how it reaches a worker — net/rpc + gob over TCP to a worker process
// (BuildRemote), for multi-node simulation on one machine, or a direct
// call into a Worker in the same process (BuildInProcess, behind
// repose.Build). Replication, failover, the prober, rebalancing and
// splits therefore exist once, whichever caller carries the calls, and
// an in-process caller can be wrapped to fault exactly the calls a test
// names. Every query method takes a context — deadlines and
// cancellations stop partition scans mid-flight; the wire protocol
// carries per-query ids and deadlines so the driver can abort straggler
// workers remotely, and an in-process call runs under a context derived
// from the driver's, registered under the same id, so Worker.Cancel
// stops an attempt the driver gave up on over either caller.
//
// The query dataflow is written once (plan.go): a planner — partition
// selection, re-planning after a concurrent split, the probe budget's
// waves, the merge, the load tracker, the report — over a
// partitionClient, whose one method runs a wave of partition-local
// work (top-k, bound, or radius) for one or more queries. The engine's
// wave sends one Worker.Query per worker group through the failover
// scatter, and Worker.Query runs Local's wave — one task per (query,
// partition) on the worker's scan slots — over the partitions the
// worker owns. Local is also a read-only engine of its own (BuildLocal)
// that runs its waves itself, which the paper-table experiments use.
//
// A partition holds a LocalIndex — Search, Len, SizeBytes: the least
// any index offers, the baselines included. A REPOSE partition is
// always an rptrie.Index (one of the three layouts, or an
// rptrie.Durable around one), the one interface behind which this
// package reaches cancellation, bounds, range search, refiners,
// mutation and snapshot images without knowing which layout it holds:
// each dispatch site asserts idx.(rptrie.Index) once and treats
// everything else as a baseline. Only "is this partition on disk"
// (closeDurable, destroyDurable, RecoveredPartitions) still asks for
// *rptrie.Durable, because that is a question about the partition, not
// about its layout.
//
// An application error a worker returns is surfaced, never failed
// over: over TCP it arrives as an rpc.ServerError string, in process as
// a workerError that keeps its errors.Is identity. Only transport
// failures — a broken connection, a timeout, an injected fault — strike
// a worker and move its partitions to their next replicas.
//
// The paper inherits fault tolerance from Spark's RDD lineage; this
// engine replicates instead (IndexSpec.Replicas): each partition is
// built on several distinct workers, queries are routed to one
// in-sync replica per partition and retried on the next replica when
// a worker fails, and a background prober heals recovering workers by
// streaming partition snapshots from their peers (protocol v4's
// Status/Snapshot/Restore; see failover.go).
//
// Why per-replica generation pins preserve snapshot isolation across
// failover: a partition's generation counter (PR 4's epoch scheme)
// advances identically on every replica because a single driver
// serializes mutations and fans each one out to all in-sync replicas
// in the same order — state is a pure function of the mutation prefix
// applied, and the generation number identifies that prefix. The
// driver records, per replica, the last generation it acknowledged
// (repGen) alongside the partition's authoritative generation
// (curGen); a replica serves reads only while repGen ≥ curGen. A
// query pinned to MinGens[pid] = g therefore cannot observe a
// pre-mutation snapshot on *any* replica the scatter may choose: g
// was acknowledged, so g ≤ curGen ≤ repGen of every eligible replica,
// and within one replica the rptrie layer already guarantees a query
// sees a single atomic snapshot at or above its pin. Failing over a
// partition call to another replica switches between states that are
// bit-identical at the pinned generation, so read-your-writes and
// snapshot isolation survive worker death. A replica that missed a
// mutation (down, timed out, outcome unknown) has repGen < curGen and
// is silently excluded until Worker.Restore installs a peer's image —
// which carries the donor's generation, re-aligning the counters
// exactly. The one case where no acknowledgement exists to anchor
// curGen — a mutation whose outcome was unknown on every replica —
// marks all of them unknown, making the partition unavailable rather
// than divergent, until the prober's reconcile pass asks the workers
// what they actually hold and re-anchors the authoritative generation
// on the highest surviving state.
//
// Why rebalancing preserves those pins: Rebalance and SplitPartition
// hold rebalMu exclusively while mutations hold it shared, so no
// mutation is in flight while ownership moves — the snapshot streamed
// to the new owner carries a generation ≥ curGen, and the eligibility
// rule above (repGen ≥ curGen) admits the new replica for reads only
// because it is at least as new as anything a query could have
// pinned. Queries never take rebalMu at all: a scatter that races the
// flip either reaches the donor before the drop (fine — its state is
// identical at the pinned generation) or gets the worker's typed
// not-owner rejection and retries on the current owner without a
// failover strike. A split installs the new partition on every
// eligible replica and registers it in the directory before pruning
// the moved ids from the donor, so a query planned after the
// registration may see a trajectory reported by both partitions but
// can never miss it — the driver's merge dedups by id — and a query
// planned before it re-plans (the planner's run), keeping answers
// exact.
//
// The top-k scatter departs from the paper's collect step in one
// respect: partitions do not compute independent local top-k lists.
// Every top-k query owns one rptrie.SharedTopK — a bounded heap of the
// k best candidates any of its partition scans has refined so far —
// and each scan prunes against that heap's k-th distance instead of
// its own (rptrie/doc.go has the admissibility and tie argument). A
// per-partition list therefore means "this partition's members that
// can still be in the global top-k", ties with the running k-th
// distance included: a subset of the partition's local top-k and a
// superset of its share of the answer, so merging the lists by
// (distance, id) yields the same answer, bit for bit, while the load
// tracker's reward (list items that survive the merge), the refine
// counts, and QueryReply's per-partition rows keep their meaning. The
// planner creates the heap per query — per Search, where the probe
// budget's survivor wave inherits the head wave's, and per query of a
// SearchBatch. The heap crosses in-process calls but not the wire: an
// in-process worker prunes against the driver's heap, so a retried or
// hedged attempt inherits what earlier attempts found (every item in
// the heap is a real trajectory at its true distance, so the threshold
// stays admissible), while a worker process creates its own heap per
// query of each Worker.Query and shares it across the partitions it
// owns, so every wave over TCP starts from +∞ on each worker. A heap
// the driver stopped waiting on — a timed-out, hedged or abandoned
// in-process call may still be scanning with it — is never recycled.
// Sharing is passive: a scan never waits for another, and the scatter
// has no extra wave or barrier. Splits are why the heap
// holds distinct ids: inside the install→prune window a moved
// trajectory is offered from two partitions, and counting it twice
// would tighten the threshold to the (k−1)-th distance. Splits are
// also why the planner re-plans a query when the partition count grew
// while it ran: the source is pruned in place right after the new
// partition is published, so a scatter planned before could otherwise
// reach the source after the prune and miss the moved ids altogether.
//
// Why probe budgets stay exact: QueryOptions.ProbeBudget scans the n
// best-scoring partitions first (per-partition EWMA reward-per-cost,
// loadstats.go), then asks each remaining partition for its
// admissible lower bound — the same LBo/LBt bound the trie's
// best-first search orders by, which never exceeds the true distance
// of any trajectory in the partition. A partition whose bound strictly
// exceeds the current k-th result distance therefore cannot contribute
// to the top-k and is pruned; one whose bound equals it is scanned,
// because a trajectory at exactly the k-th distance can still win on
// id. Every unpruned partition is scanned in a second wave, and a
// bound wave that fails prunes nothing: unless ctx is done or the
// engine closed, the whole tail is scanned. The answer is
// bit-identical to the full scatter because only provably
// non-contributing work is skipped. BestEffort drops the second wave
// instead, trading exactness for latency — the report lists
// SkippedPartitions and the answer is marked cache-ineligible.
package cluster
