package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repose/internal/geo"
	"repose/internal/rptrie"
	"repose/internal/storage"
	"repose/internal/topk"
)

// The wire protocol simulates the paper's multi-node deployment on one
// machine: worker processes own partitions, the driver ships
// trajectories and an IndexSpec at build time and queries at run time,
// and each worker answers for the partitions it owns — stdlib net/rpc
// with gob encoding. An in-process worker (inproc.go) receives the same
// messages as Go values. The endpoints, and the version each arrived in:
//
//   - Handshake (v2) refuses a peer of another version; every request
//     carries its Version as well.
//   - Query (v8, folding the per-shape endpoints of v2–v7) runs a Kind —
//     top-k, radius, or bound (v6: the probe budget's admissible lower
//     bound) — for one or more queries under an optional RefineSpec (v7:
//     plain data; each worker builds the refiner from its partition's
//     own configuration), answering one row per (query, partition).
//     Each query carries a salted id and a time budget, Cancel (v2)
//     aborts it early, and per-partition generation pins (v3) give
//     read-your-writes.
//   - Insert, Delete and Compact (v3) apply a routed mutation; their
//     replies carry the partition's generation, length and, since v9,
//     index size, so the driver's PartitionIndexBytes stays live.
//   - Status, Snapshot and Restore (v4) let the failure detector
//     reconcile a rejoining worker and stream it a peer's partition;
//     Split and Drop (v6) split and migrate partitions online.
//
// A worker refuses a request naming a partition it does not own rather
// than answering from the intersection (v6; Compact since v9): the
// driver asks for exactly what it believes the worker owns, so a miss
// means the plan raced an ownership change and must be retried
// elsewhere.

// ProtocolVersion is the driver↔worker wire protocol version. The
// worker rejects requests from a driver speaking a different version
// rather than mis-decoding them.
const ProtocolVersion = 9

// checkVersion rejects a peer speaking a different protocol version.
func checkVersion(v int) error {
	if v != ProtocolVersion {
		return fmt.Errorf("cluster: protocol version mismatch: peer speaks v%d, this build speaks v%d", v, ProtocolVersion)
	}
	return nil
}

// HandshakeArgs announces the driver's protocol version.
type HandshakeArgs struct {
	Version int
}

// HandshakeReply reports the worker's protocol version.
type HandshakeReply struct {
	Version int
}

// BuildArgs ships one partition to a worker.
type BuildArgs struct {
	Version      int
	PartitionID  int
	Spec         IndexSpec
	Trajectories []*geo.Trajectory
}

// BuildReply reports the built partition index.
type BuildReply struct {
	SizeBytes  int
	Len        int
	BuildNanos int64
}

// QueryHeader is the preamble of every query RPC (since v2).
type QueryHeader struct {
	Version int
	// ID identifies the query; Worker.Cancel aborts the in-flight
	// query carrying it. Drivers salt their ids with random high
	// bits so concurrent drivers sharing a worker do not collide.
	// 0 means not cancellable.
	ID uint64
	// BudgetNanos is the time remaining until the driver context's
	// deadline when the query was sent (0 = none, negative =
	// already expired). A relative budget rather than an absolute
	// timestamp: worker clocks may be skewed from the driver's. The
	// worker aborts on its own once the budget is spent, even if
	// the cancel RPC never arrives.
	BudgetNanos int64
	// Partitions restricts the query to these partition ids
	// (deduplicated by the driver); naming one the worker does not own
	// is an error (see v6 above). nil = every owned partition.
	Partitions []int
	// MinGens pins the query per global partition id; see
	// QueryOptions.MinGens.
	MinGens []uint64
}

// QueryKind selects the partition-local work of one Worker.Query.
type QueryKind int

const (
	// KindTopK scans each (query, partition) for the query's top-k,
	// pruning against a result heap the worker shares across the
	// partitions it owns.
	KindTopK QueryKind = iota + 1
	// KindBound answers each partition's admissible lower bound on the
	// best distance any of its trajectories could achieve for the query
	// — the probe budget's pruning test, from a bounded best-first walk
	// instead of a full scan. A baseline partition reports 0, which
	// never prunes.
	KindBound
	// KindRadius collects every trajectory within Radius of the query.
	KindRadius
)

// kindNames names the known kinds; the zero Kind is not one of them.
var kindNames = [...]string{KindTopK: "top-k", KindBound: "bound", KindRadius: "radius"}

// check rejects a kind this build does not know: a newer peer's, or the
// zero value of a request that never set one.
func (k QueryKind) check() error {
	if k < KindTopK || int(k) >= len(kindNames) {
		return fmt.Errorf("cluster: unknown query kind %d", int(k))
	}
	return nil
}

// QueryArgs is the one query request: Kind over the header's
// partitions for every query in Queries (one for Search and
// SearchRadius, the whole batch for SearchBatch).
type QueryArgs struct {
	QueryHeader
	Kind          QueryKind
	Queries       [][]geo.Point
	K             int     // KindTopK
	Radius        float64 // KindRadius
	NoPivots      bool
	RefineWorkers int
	Refine        rptrie.RefineSpec

	// An in-process worker receives the driver's own context and
	// result heaps (one per top-k query, see Local.wave): its scans run
	// under a context derived from ctx (Worker.queryContext) and prune
	// against the driver's threshold. Unexported, neither crosses the
	// wire.
	ctx    context.Context
	shared *heapSet
}

// QueryReply answers a QueryArgs with one row per (query, partition)
// task, row qi*len(Partitions)+si for query qi on Partitions[si]:
// Lists holds a top-k or radius row's items (for top-k, the
// partition's members that can still be in the global answer, ties
// with the k-th distance included), Bounds a bound row's lower bound;
// Nanos is the task's scan time, Done its completion offset from the
// start of the worker's wave, Refined its exact-distance computations.
// Per-partition rows are what the driver's load tracker scores
// partitions by and what lets it dedup a split's install→prune window,
// where a trajectory briefly lives in two partitions.
type QueryReply struct {
	Partitions []int
	Lists      [][]topk.Item
	Nanos      []int64
	Done       []int64
	Refined    []int64
	Bounds     []float64
}

// newQueryReply allocates the rows of a req wave over req.Partitions.
func newQueryReply(req *QueryArgs) QueryReply {
	n := len(req.Queries) * len(req.Partitions)
	buf := make([]int64, 3*n)
	rep := QueryReply{Partitions: req.Partitions, Nanos: buf[:n:n], Done: buf[n : 2*n : 2*n], Refined: buf[2*n:]}
	if req.Kind == KindBound {
		rep.Bounds = make([]float64, n)
	} else {
		rep.Lists = make([][]topk.Item, n)
	}
	return rep
}

// shaped reports whether rep holds one row per (query, partition) of a
// req wave over its own Partitions — what a well-behaved worker sends.
func (rep *QueryReply) shaped(req *QueryArgs) bool {
	n := len(req.Queries) * len(rep.Partitions)
	rows := len(rep.Lists)
	if req.Kind == KindBound {
		rows = len(rep.Bounds)
	}
	return rows == n && len(rep.Nanos) == n && len(rep.Done) == n && len(rep.Refined) == n
}

// CancelArgs aborts the in-flight query with the given id.
type CancelArgs struct {
	ID uint64
}

// InsertArgs applies pending inserts to one partition the worker
// owns. The driver routes and validates; the worker only applies.
// With Replace set the trajectories upsert (live ids are replaced in
// one snapshot-atomic swap) instead of strictly inserting.
type InsertArgs struct {
	Version      int
	PartitionID  int
	Trajectories []*geo.Trajectory
	Replace      bool
	AutoCompact  float64
}

// InsertReply reports the partition's post-insert state.
type InsertReply struct {
	Gen       uint64
	Len       int
	SizeBytes int
}

// DeleteArgs removes ids from one partition the worker owns.
type DeleteArgs struct {
	Version     int
	PartitionID int
	IDs         []int
	AutoCompact float64
}

// DeleteReply reports how many ids were live and the partition's
// post-delete state.
type DeleteReply struct {
	Removed   int
	Gen       uint64
	Len       int
	SizeBytes int
}

// CompactArgs folds the pending deltas of the selected partitions the
// worker owns (nil = all owned).
type CompactArgs struct {
	Version    int
	Partitions []int
}

// CompactReply carries each compacted partition's new generation,
// live length and index size.
type CompactReply struct {
	Gens  map[int]uint64
	Lens  map[int]int
	Sizes map[int]int
}

// ClearArgs empties a worker between experiments.
type ClearArgs struct {
	Version int
}

// StatusArgs asks a worker which partitions it holds.
type StatusArgs struct {
	Version int
}

// StatusReply reports the worker's partitions: each one's index
// generation, live trajectory count and index size. The driver's
// failure detector compares these against the authoritative
// generations to decide what a rejoining worker must be restored.
type StatusReply struct {
	Gens  map[int]uint64
	Lens  map[int]int
	Sizes map[int]int
}

// SnapshotArgs asks a worker to serialize one partition it owns.
type SnapshotArgs struct {
	Version     int
	PartitionID int
}

// SnapshotReply carries the partition's serialized index image (the
// rptrie wire format, pending delta folded in, at the source's
// generation). Layout distinguishes the three layouts' formats — the
// compressed layout's images are several times smaller, which is what
// makes failover transfers of compressed partitions cheap.
type SnapshotReply struct {
	Data   []byte
	Layout rptrie.Layout
	Gen    uint64
	Len    int
}

// RestoreArgs installs a partition image produced by Worker.Snapshot
// into a recovering worker, replacing whatever it held for that
// partition.
type RestoreArgs struct {
	Version     int
	PartitionID int
	Layout      rptrie.Layout
	Data        []byte
}

// RestoreReply reports the restored partition's state.
type RestoreReply struct {
	Gen uint64
	Len int
}

// SplitArgs carves the MoveIDs half of an owned partition into a new
// partition installed on the same worker; the source partition is
// left intact (the driver prunes it afterwards, and its merge dedups
// the overlap window). The driver computes MoveIDs so every replica
// of the partition splits identically.
type SplitArgs struct {
	Version        int
	PartitionID    int
	NewPartitionID int
	MoveIDs        []int
}

// SplitReply reports the newly installed partition's state.
type SplitReply struct {
	Gen       uint64
	Len       int
	SizeBytes int
}

// DropArgs discards an owned partition (after its replica migrated to
// another worker), wiping any durable store so a restart does not
// resurrect it.
type DropArgs struct {
	Version     int
	PartitionID int
}

// Worker is the RPC service hosted by a worker process, or called
// directly in process (see inProcess).
type Worker struct {
	mu      sync.Mutex
	indexes map[int]LocalIndex
	// view answers queries over every owned partition. publishLocked
	// rebuilds it whenever indexes or the scan cap change, so a query
	// takes it as is.
	view     *Local
	inflight map[uint64]context.CancelFunc
	// cancelled holds ids whose Worker.Cancel arrived before the
	// query registered (net/rpc runs handlers concurrently, so the
	// race is inherent); queryContext consumes the tombstone and
	// starts the query already cancelled. cancelledQ bounds the set:
	// a tombstone for a query that already finished is never
	// consumed and must not accumulate.
	cancelled  map[uint64]struct{}
	cancelledQ []uint64
	// awaitRestore marks a worker started with the -rejoin flag: it
	// replaces a dead peer and expects the driver's failure detector
	// to stream it partition state. Until the first Build or Restore
	// lands, its queries fail with a distinctive diagnostic instead of
	// the generic "no partitions".
	awaitRestore bool
	// dataDir, when set, backs every REPOSE partition with a durable
	// store under dataDir/p<pid>; NewDurableWorker recovers them at
	// startup so a restarted worker rejoins from its own WAL.
	dataDir string
	// restores counts Worker.Restore calls that installed state — the
	// observable distinguishing a local-replay rejoin from a peer
	// state transfer.
	restores int
	// forceLayout, when non-nil, overrides the layout of every REPOSE
	// partition this worker builds, whatever the driver's spec says —
	// the knob for memory-constrained workers in a heterogeneous
	// fleet. Safe because every layout answers queries bit-identically.
	forceLayout *rptrie.Layout
	// qsem, when set, caps the worker's total partition-scan
	// concurrency across all in-flight queries (the default is
	// GOMAXPROCS per query, which hides per-worker saturation when many
	// workers share one test machine).
	qsem chan struct{}
}

// SetQueryWorkers caps this worker's total partition-scan concurrency
// across all in-flight queries. Call before serving; n <= 0 restores
// the default (GOMAXPROCS per query). The cap is what makes one
// worker's overload observable — and a migration's relief measurable
// — when several workers share a machine.
func (w *Worker) SetQueryWorkers(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.qsem = nil
	if n > 0 {
		w.qsem = make(chan struct{}, n)
	}
	w.publishLocked()
}

// publishLocked rebuilds the query view over every owned partition, in
// ascending partition id order. Caller holds w.mu.
func (w *Worker) publishLocked() {
	pids := make([]int, 0, len(w.indexes))
	for pid := range w.indexes {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	parts := make([]LocalIndex, len(pids))
	for i, pid := range pids {
		parts[i] = w.indexes[pid]
	}
	w.view = &Local{parts: parts, gpids: pids, sem: w.qsem}
}

// swap installs idx as partition pid (nil uninstalls it), publishes
// the new view, and returns what the worker held before.
func (w *Worker) swap(pid int, idx LocalIndex) LocalIndex {
	w.mu.Lock()
	defer w.mu.Unlock()
	old := w.indexes[pid]
	if idx == nil {
		delete(w.indexes, pid)
	} else {
		w.indexes[pid] = idx
	}
	w.publishLocked()
	return old
}

// install makes idx partition pid, replacing whatever the worker held
// for it, and returns the installed index — disk-backed under dataDir
// when the worker has one. The old index is uninstalled before its
// store is closed and its directory wiped: if the durable install
// fails, the partition must read as absent (the driver rebuilds or
// restores it), not be served by a closed index whose on-disk state is
// gone.
func (w *Worker) install(pid int, idx LocalIndex) (LocalIndex, error) {
	closeDurable(w.swap(pid, nil)) // release the store before WrapDurable wipes its directory
	if w.dataDir != "" {
		var err error
		if idx, err = wrapDurablePartition(w.dataDir, pid, idx); err != nil {
			return nil, err
		}
	}
	w.swap(pid, idx)
	return idx, nil
}

// maxPendingCancels bounds the early-cancel tombstone set.
const maxPendingCancels = 1024

// ForceLayout makes every REPOSE partition this worker builds use the
// given layout regardless of the driver's build spec. Call it before
// serving; it does not rebuild already-installed partitions. Restored
// partitions (Worker.Restore) keep the image's layout — a state
// transfer must land at the source's exact generation, not re-encode.
func (w *Worker) ForceLayout(l rptrie.Layout) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.forceLayout = &l
}

// NewWorker returns an empty worker service.
func NewWorker() *Worker {
	w := &Worker{
		indexes:   make(map[int]LocalIndex),
		inflight:  make(map[uint64]context.CancelFunc),
		cancelled: make(map[uint64]struct{}),
	}
	w.publishLocked()
	return w
}

// NewRejoinWorker returns an empty worker that announces itself as a
// replacement for a dead peer: it starts with no partitions and
// expects the driver to restore state into it (see RestoreArgs).
func NewRejoinWorker() *Worker {
	w := NewWorker()
	w.awaitRestore = true
	return w
}

// NewDurableWorker returns a worker whose REPOSE partitions are
// disk-backed under dataDir. Partitions already recoverable there
// (from a previous run of the same worker) are opened immediately,
// each replaying its own WAL to its exact pre-crash generation — the
// driver's failure detector then re-admits them without a peer state
// transfer as long as they are current.
// With rejoin set and nothing recoverable on disk, the worker starts
// in the awaiting-restore state like NewRejoinWorker.
func NewDurableWorker(dataDir string, rejoin bool) (*Worker, error) {
	fs := storage.OSFS{}
	if err := fs.MkdirAll(dataDir); err != nil {
		return nil, err
	}
	recovered, _, err := recoverDurablePartitions(dataDir)
	if err != nil {
		return nil, err
	}
	w := newDataWorker(dataDir, recovered)
	w.awaitRestore = rejoin && len(recovered) == 0
	return w, nil
}

// newDataWorker returns a worker that keeps its partitions under
// dataDir, serving the already recovered ones.
func newDataWorker(dataDir string, recovered map[int]*rptrie.Durable) *Worker {
	w := NewWorker()
	w.dataDir = dataDir
	for pid, d := range recovered {
		w.indexes[pid] = d
	}
	w.publishLocked()
	return w
}

// RecoveredPartitions lists the partitions a NewDurableWorker opened
// from disk at startup, ascending.
func (w *Worker) RecoveredPartitions() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var pids []int
	for pid, idx := range w.indexes {
		if _, ok := idx.(*rptrie.Durable); ok {
			pids = append(pids, pid)
		}
	}
	sort.Ints(pids)
	return pids
}

// RestoreCount reports how many Worker.Restore calls installed state.
func (w *Worker) RestoreCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.restores
}

// CloseData flushes and closes every disk-backed partition store.
// The worker keeps answering queries from memory; call it on process
// shutdown so a restart recovers from a cleanly closed log.
func (w *Worker) CloseData() {
	w.mu.Lock()
	indexes := make([]LocalIndex, 0, len(w.indexes))
	for _, idx := range w.indexes {
		indexes = append(indexes, idx)
	}
	w.mu.Unlock()
	for _, idx := range indexes {
		closeDurable(idx)
	}
}

// Handshake verifies the driver and worker speak the same protocol.
func (w *Worker) Handshake(args *HandshakeArgs, reply *HandshakeReply) error {
	reply.Version = ProtocolVersion
	return checkVersion(args.Version)
}

// Build constructs the index for one partition.
func (w *Worker) Build(args *BuildArgs, reply *BuildReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	start := time.Now()
	spec := args.Spec
	w.mu.Lock()
	if w.forceLayout != nil && spec.Algorithm == REPOSE {
		spec.Layout = *w.forceLayout
	}
	w.mu.Unlock()
	idx, err := spec.BuildLocal(args.Trajectories)
	if err != nil {
		return err
	}
	if idx, err = w.install(args.PartitionID, idx); err != nil {
		return err
	}
	w.mu.Lock()
	w.awaitRestore = false
	w.mu.Unlock()
	reply.SizeBytes = idx.SizeBytes()
	reply.Len = idx.Len()
	reply.BuildNanos = time.Since(start).Nanoseconds()
	return nil
}

// queryView returns the view a query over subset runs on, and the
// partitions it names: every owned one for an empty subset, else subset
// ascending without duplicates (a duplicated id must not double-count a
// partition's results). A requested partition this worker does not hold
// is an error, not a silent intersection: the driver asks exactly what
// it believes the worker owns, so a miss means the plan raced a
// migration or split and the driver must retry the partition elsewhere
// — answering without it would return a silently incomplete result.
func (w *Worker) queryView(subset []int) (*Local, []int, error) {
	w.mu.Lock()
	v, awaiting := w.view, w.awaitRestore
	w.mu.Unlock()
	if len(v.parts) == 0 {
		if awaiting {
			return nil, nil, errors.New("cluster: worker awaiting state restore (started with -rejoin)")
		}
		return nil, nil, errors.New("cluster: worker has no partitions")
	}
	pids := subset
	if len(pids) == 0 {
		pids = v.gpids
	}
	for i := 1; i < len(pids); i++ {
		if pids[i-1] >= pids[i] { // not ascending: dedup a sorted copy
			pids = append([]int(nil), subset...)
			sort.Ints(pids)
			pids = slices.Compact(pids)
			break
		}
	}
	for _, pid := range pids {
		if _, ok := slices.BinarySearch(v.gpids, pid); !ok {
			return nil, nil, fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", pid)
		}
	}
	if v.sem == nil {
		// No worker-wide cap: this query gets scan slots of its own.
		own := *v
		own.sem = make(chan struct{}, runtime.GOMAXPROCS(0))
		v = &own
	}
	return v, pids, nil
}

// queryContext derives the query's context and registers it for
// Worker.Cancel under the header ID. An in-process call derives it from
// the driver's context, which already carries the query's deadline; a
// call over the wire starts from the header's budget. Either way the
// driver's Cancel ends the scan of an attempt it gave up on. The caller
// passes the returned cancel func to endQuery when the query finishes.
func (w *Worker) queryContext(args *QueryArgs) (context.Context, context.CancelFunc) {
	h := args.QueryHeader
	var ctx context.Context
	var cancel context.CancelFunc
	switch {
	case args.ctx != nil:
		ctx, cancel = context.WithCancel(args.ctx)
	case h.BudgetNanos != 0:
		// A non-positive budget yields an already-expired context.
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(h.BudgetNanos))
	default:
		ctx, cancel = context.WithCancel(context.Background())
	}
	if h.ID != 0 {
		w.mu.Lock()
		if _, early := w.cancelled[h.ID]; early {
			// The cancel won the race with registration: start the
			// query already aborted.
			delete(w.cancelled, h.ID)
			cancel()
		} else {
			w.inflight[h.ID] = cancel
		}
		w.mu.Unlock()
	}
	return ctx, cancel
}

// endQuery unregisters the finished query id and releases its context.
func (w *Worker) endQuery(id uint64, cancel context.CancelFunc) {
	if id != 0 {
		w.mu.Lock()
		delete(w.inflight, id)
		w.mu.Unlock()
	}
	cancel()
}

// Cancel aborts the in-flight query with args.ID. An id not yet
// registered is remembered as a tombstone so a query racing its own
// cancel still aborts; the query may also simply have finished first.
func (w *Worker) Cancel(args *CancelArgs, _ *struct{}) error {
	if args.ID == 0 {
		return nil
	}
	w.mu.Lock()
	cancel := w.inflight[args.ID]
	if cancel == nil {
		if _, ok := w.cancelled[args.ID]; !ok {
			w.cancelled[args.ID] = struct{}{}
			w.cancelledQ = append(w.cancelledQ, args.ID)
			if len(w.cancelledQ) > maxPendingCancels {
				delete(w.cancelled, w.cancelledQ[0])
				w.cancelledQ = w.cancelledQ[1:]
			}
		}
	}
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// Query answers one wave of partition-local work over the selected
// partitions this worker owns: Local.wave on the worker's view, under
// the worker's scan cap, cancellable by Worker.Cancel. An in-process
// call derives its context from the driver's and prunes against its
// result heaps; a call over the wire gets a context from its header and
// fresh heaps per top-k query.
func (w *Worker) Query(args *QueryArgs, reply *QueryReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	view, pids, err := w.queryView(args.Partitions)
	if err != nil {
		return err
	}
	ctx, cancel := w.queryContext(args)
	defer w.endQuery(args.ID, cancel)
	args.Partitions = pids
	*reply, err = view.wave(ctx, args)
	return err
}

// ownedMutable resolves one owned partition's index as mutable.
func (w *Worker) ownedMutable(pid int) (rptrie.Index, error) {
	w.mu.Lock()
	idx := w.indexes[pid]
	w.mu.Unlock()
	if idx == nil {
		return nil, fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", pid)
	}
	x, ok := idx.(rptrie.Index)
	if !ok {
		return nil, fmt.Errorf("%w (partition %d, %T)", ErrImmutable, pid, idx)
	}
	return x, nil
}

// Insert applies pending inserts (or, with Replace, upserts) to one
// owned partition.
func (w *Worker) Insert(args *InsertArgs, reply *InsertReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	m, err := w.ownedMutable(args.PartitionID)
	if err != nil {
		return err
	}
	if args.Replace {
		err = m.Upsert(args.Trajectories...)
	} else {
		err = m.Insert(args.Trajectories...)
	}
	if err != nil {
		return err
	}
	if err := maybeCompact(m, args.AutoCompact); err != nil {
		return err
	}
	reply.Gen, reply.Len, reply.SizeBytes = m.Generation(), m.Len(), m.SizeBytes()
	return nil
}

// Delete removes ids from one owned partition.
func (w *Worker) Delete(args *DeleteArgs, reply *DeleteReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	m, err := w.ownedMutable(args.PartitionID)
	if err != nil {
		return err
	}
	reply.Removed = m.Delete(args.IDs...)
	if err := maybeCompact(m, args.AutoCompact); err != nil {
		return err
	}
	reply.Gen, reply.Len, reply.SizeBytes = m.Generation(), m.Len(), m.SizeBytes()
	return nil
}

// Compact folds the pending deltas of the selected owned partitions
// (nil selects every owned one).
func (w *Worker) Compact(args *CompactArgs, reply *CompactReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	pids := args.Partitions
	if len(pids) == 0 {
		w.mu.Lock()
		pids = w.view.gpids
		w.mu.Unlock()
	}
	reply.Gens = make(map[int]uint64, len(pids))
	reply.Lens = make(map[int]int, len(pids))
	reply.Sizes = make(map[int]int, len(pids))
	for _, pid := range pids {
		m, err := w.ownedMutable(pid)
		if err != nil {
			return err
		}
		if err := m.Compact(); err != nil {
			return err
		}
		reply.Gens[pid], reply.Lens[pid], reply.Sizes[pid] = m.Generation(), m.Len(), m.SizeBytes()
	}
	return nil
}

// Clear drops all partitions.
func (w *Worker) Clear(args *ClearArgs, _ *struct{}) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	dropped := w.indexes
	w.indexes = make(map[int]LocalIndex)
	w.publishLocked()
	w.mu.Unlock()
	// Wipe dropped stores so a restart does not resurrect them.
	for _, idx := range dropped {
		destroyDurable(idx)
	}
	return nil
}

// Ping checks liveness.
func (w *Worker) Ping(_ *struct{}, ok *bool) error {
	*ok = true
	return nil
}

// Status reports the partitions this worker holds, with each one's
// generation and live length — the reconciliation input for a driver
// deciding whether a rejoining worker needs a state restore.
func (w *Worker) Status(args *StatusArgs, reply *StatusReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	reply.Gens = make(map[int]uint64, len(w.indexes))
	reply.Lens = make(map[int]int, len(w.indexes))
	reply.Sizes = make(map[int]int, len(w.indexes))
	for pid, idx := range w.indexes {
		gen := uint64(0)
		if m, ok := idx.(rptrie.Index); ok {
			gen = m.Generation()
		}
		reply.Gens[pid], reply.Lens[pid], reply.Sizes[pid] = gen, idx.Len(), idx.SizeBytes()
	}
	return nil
}

// Snapshot serializes one owned partition's index (rptrie layouts
// only; the baselines have no persistence) for replication to a
// recovering peer. The image folds any pending delta and carries this
// replica's generation, so the restored copy re-aligns exactly.
func (w *Worker) Snapshot(args *SnapshotArgs, reply *SnapshotReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	idx := w.indexes[args.PartitionID]
	w.mu.Unlock()
	if idx == nil {
		return fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", args.PartitionID)
	}
	data, layout, gen, err := encodeIndex(idx)
	if err != nil {
		if errors.Is(err, errNoSnapshot) {
			return fmt.Errorf("cluster: partition %d index (%T) does not support snapshots", args.PartitionID, idx)
		}
		return err
	}
	reply.Data, reply.Layout, reply.Gen = data, layout, gen
	reply.Len = idx.Len()
	return nil
}

// errNoSnapshot reports an index type without a serialized form.
var errNoSnapshot = errors.New("cluster: index does not support snapshots")

// encodeIndex serializes an rptrie.Index (pending delta folded in) with
// its layout and generation — the payload of Snapshot and the first
// half of Split's clone.
func encodeIndex(idx LocalIndex) ([]byte, rptrie.Layout, uint64, error) {
	x, ok := idx.(rptrie.Index)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w (%T)", errNoSnapshot, idx)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		return nil, 0, 0, err
	}
	return buf.Bytes(), x.Layout(), x.Generation(), nil
}

// decodeIndex materializes an encodeIndex/Snapshot image.
func decodeIndex(layout rptrie.Layout, data []byte) (rptrie.Index, error) {
	return rptrie.ReadIndex(layout, bytes.NewReader(data))
}

// Restore installs a partition image produced by Snapshot, replacing
// whatever this worker held for that partition — the rejoin path for
// a restarted or lagging worker.
func (w *Worker) Restore(args *RestoreArgs, reply *RestoreReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	x, err := decodeIndex(args.Layout, args.Data)
	if err != nil {
		return err
	}
	if _, err = w.install(args.PartitionID, x); err != nil {
		return err
	}
	w.mu.Lock()
	w.awaitRestore = false
	w.restores++
	w.mu.Unlock()
	reply.Gen, reply.Len = x.Generation(), x.Len()
	return nil
}

// Split installs the MoveIDs half of an owned partition as a new
// partition on this worker: clone the source, delete everything but
// the moved ids from the clone, compact, and install it under the new
// id. The source partition is untouched — the driver prunes it once
// every replica has split, and its merges dedup the overlap window.
// Identical inputs on in-sync replicas produce identical clones at
// identical generations, so the driver can register the new partition
// with every replica immediately eligible.
func (w *Worker) Split(args *SplitArgs, reply *SplitReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	idx := w.indexes[args.PartitionID]
	_, taken := w.indexes[args.NewPartitionID]
	w.mu.Unlock()
	if idx == nil {
		return fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", args.PartitionID)
	}
	if taken {
		return fmt.Errorf("cluster: split target partition %d already exists", args.NewPartitionID)
	}
	// Clone through a Save/Read round trip, which keeps layout and
	// generation; a Durable source clones to its in-memory layout.
	data, layout, _, err := encodeIndex(idx)
	if err != nil {
		return err
	}
	m, err := decodeIndex(layout, data)
	if err != nil {
		return err
	}
	keep := make(map[int]bool, len(args.MoveIDs))
	for _, id := range args.MoveIDs {
		keep[id] = true
	}
	var drop []int
	for _, id := range m.LiveIDs() {
		if !keep[id] {
			drop = append(drop, id)
		}
	}
	sort.Ints(drop) // deterministic across replicas
	if len(drop) > 0 {
		m.Delete(drop...)
	}
	if err := m.Compact(); err != nil {
		return err
	}
	var clone LocalIndex = m
	if w.dataDir != "" {
		if clone, err = wrapDurablePartition(w.dataDir, args.NewPartitionID, clone); err != nil {
			return err
		}
	}
	w.mu.Lock()
	if _, raced := w.indexes[args.NewPartitionID]; raced {
		w.mu.Unlock()
		destroyDurable(clone)
		return fmt.Errorf("cluster: split target partition %d already exists", args.NewPartitionID)
	}
	w.indexes[args.NewPartitionID] = clone
	w.publishLocked()
	w.mu.Unlock()
	reply.Gen, reply.Len, reply.SizeBytes = m.Generation(), m.Len(), m.SizeBytes()
	return nil
}

// Drop discards an owned partition after its replica migrated away,
// wiping any durable store so a restart does not resurrect it.
// Dropping a partition the worker does not hold is a no-op: the call
// is the best-effort tail of a migration, and repeating it must not
// fail.
func (w *Worker) Drop(args *DropArgs, _ *struct{}) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	destroyDurable(w.swap(args.PartitionID, nil))
	return nil
}

// Serve accepts RPC connections on ln until the listener closes.
// It always returns a non-nil error (from Accept).
func Serve(ln net.Listener, w *Worker) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Remote is the engine: the driver over a set of workers, reached over
// TCP (BuildRemote) or called in this process (BuildInProcess,
// OpenInProcess). With IndexSpec.Replicas > 1 it places each partition
// on several workers, routes every query to one in-sync replica per
// partition, fails a partition over to its next replica when a worker
// dies mid-call, and heals recovering workers in the background (see
// failover.go).
type Remote struct {
	slots    []*workerSlot
	owners   [][]int // partition → worker slots, primary first
	replicas int
	// worker is the in-process worker the engine was built on, nil over
	// TCP; Close also closes its disk stores.
	worker *Worker

	buildTime time.Duration
	// partSizes holds each partition's index bytes as last reported by
	// a worker (build reply, then every mutation reply), like partLen.
	partSizes []int
	// partLen holds each partition's live trajectory count as last
	// reported by a worker (build reply, then every mutation
	// reply). Worker-authoritative numbers rather than driver-side
	// arithmetic: a mutation whose outcome was unknown leaves the
	// count stale only until the next successful mutation on that
	// partition refreshes it.
	partLen []atomic.Int64
	qidSalt uint64 // random high bits distinguishing this driver
	qid     atomic.Uint64
	dir     *directory // online-mutation routing, driver side

	// genMu guards the replica generation table: repGen[pid][j] is the
	// last generation replica j of pid acknowledged (genAbsent when it
	// holds nothing), curGen[pid] the newest acknowledged by anyone.
	// Since partitions can split at runtime it also guards the
	// lengths of owners, repGen, curGen, partLen, and partSizes.
	genMu  sync.Mutex
	repGen [][]uint64
	curGen []uint64

	// rebalMu serializes partition-set changes against mutations:
	// mutateReplicas and Compact hold it shared, Rebalance and
	// SplitPartition hold it exclusively (see rebalance.go). Queries
	// never touch it — reads stay available throughout a migration.
	// Lock order: dir.mu → rebalMu → genMu.
	rebalMu sync.RWMutex
	// loads accumulates per-partition query cost and reward — the
	// rebalancer's hotness signal and the probe budget's score input.
	loads *loadTracker

	foMu sync.Mutex
	fo   FailoverConfig

	closed    atomic.Bool
	probeStop chan struct{}
	probeWG   sync.WaitGroup
}

// BuildRemote dials the worker addresses, verifies the protocol
// handshake, places each partition's spec.Replicas copies on distinct
// workers round-robin (replica j of partition p on worker (p+j) mod
// W), and builds all partition indexes in parallel.
func BuildRemote(spec IndexSpec, parts [][]*geo.Trajectory, addrs []string) (*Remote, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	slots := make([]*workerSlot, len(addrs))
	for i, addr := range addrs {
		addr := addr
		slots[i] = &workerSlot{addr: addr, dial: func() (caller, error) {
			c, err := rpc.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return c, nil
		}}
	}
	r, err := newRemote(slots, spec.Replicas)
	if err != nil {
		return nil, err
	}
	if err := r.build(spec, parts); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// newRemote connects a driver to slots — a dial and a protocol
// handshake each — for partitions placed with replicas copies.
func newRemote(slots []*workerSlot, replicas int) (*Remote, error) {
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(slots) {
		return nil, fmt.Errorf("cluster: replication factor %d needs at least %d workers, have %d", replicas, replicas, len(slots))
	}
	r := &Remote{
		slots:     slots,
		replicas:  replicas,
		qidSalt:   uint64(rand.Uint32()) << 32,
		probeStop: make(chan struct{}),
	}
	r.fo = FailoverConfig{}.withDefaults(replicas)
	for _, s := range slots {
		c, err := r.connect(s)
		if err != nil {
			r.Close()
			return nil, err
		}
		s.setClient(c)
	}
	return r, nil
}

// connect opens a connection to slot s and verifies the protocol
// handshake, refusing a peer that accepted a version it does not speak.
func (r *Remote) connect(s *workerSlot) (caller, error) {
	c, err := s.dial()
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", s.addr, err)
	}
	var hr HandshakeReply
	err = r.probeCall(c, "Worker.Handshake", &HandshakeArgs{Version: ProtocolVersion}, &hr, probeTimeout)
	if err == nil {
		err = checkVersion(hr.Version)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: handshake with %s: %w", s.addr, err)
	}
	return c, nil
}

// place sizes the partition tables for n partitions, replica j of
// partition p on slot (p+j) mod len(slots).
func (r *Remote) place(n int) {
	r.owners = make([][]int, n)
	r.repGen = make([][]uint64, n)
	r.curGen = make([]uint64, n)
	r.partLen = make([]atomic.Int64, n)
	r.partSizes = make([]int, n)
	for pid := range r.owners {
		for j := 0; j < r.replicas; j++ {
			r.owners[pid] = append(r.owners[pid], (pid+j)%len(r.slots))
		}
		r.repGen[pid] = make([]uint64, r.replicas)
	}
}

// build places parts, builds every replica of every partition in
// parallel, and starts serving them.
func (r *Remote) build(spec IndexSpec, parts [][]*geo.Trajectory) error {
	start := time.Now()
	r.place(len(parts))
	var wg sync.WaitGroup
	errs := make([][]error, len(parts))
	replies := make([][]BuildReply, len(parts))
	for pid, part := range parts {
		errs[pid] = make([]error, r.replicas)
		replies[pid] = make([]BuildReply, r.replicas)
		for j, si := range r.owners[pid] {
			wg.Add(1)
			go func(pid, j, si int, part []*geo.Trajectory) {
				defer wg.Done()
				args := &BuildArgs{Version: ProtocolVersion, PartitionID: pid, Spec: spec, Trajectories: part}
				call := <-r.slots[si].get().Go("Worker.Build", args, &replies[pid][j], make(chan *rpc.Call, 1)).Done
				errs[pid][j] = call.Error
			}(pid, j, si, part)
		}
	}
	wg.Wait()
	for pid := range errs {
		for j, err := range errs[pid] {
			if err != nil {
				return fmt.Errorf("cluster: build partition %d replica %d on %s: %w", pid, j, r.slots[r.owners[pid][j]].addr, err)
			}
		}
	}
	for pid := range replies {
		r.partSizes[pid] = replies[pid][0].SizeBytes
		r.partLen[pid].Store(int64(replies[pid][0].Len))
	}
	r.buildTime = time.Since(start)
	r.start(newDirectory(spec, parts))
	return nil
}

// start serves the placed partitions: the mutation directory, the load
// tracker, and the background prober.
func (r *Remote) start(dir *directory) {
	r.dir = dir
	r.loads = newLoadTracker(len(r.owners))
	r.probeWG.Add(1)
	go r.probeLoop()
}

// header prepares the common query preamble for one broadcast.
func (r *Remote) header(ctx context.Context, partitions []int, minGens []uint64) QueryHeader {
	h := QueryHeader{
		Version:    ProtocolVersion,
		ID:         r.qidSalt | r.qid.Add(1),
		Partitions: partitions,
		MinGens:    minGens,
	}
	if deadline, ok := ctx.Deadline(); ok {
		h.BudgetNanos = int64(time.Until(deadline))
		if h.BudgetNanos == 0 {
			h.BudgetNanos = -1
		}
	}
	return h
}

// ErrClosed reports a query issued after the engine released its
// worker connections.
var ErrClosed = errors.New("cluster: engine closed")

// cancelGrace bounds how long a cancelled query waits for a worker's
// reply after firing Worker.Cancel before abandoning the in-flight
// call. A responsive worker aborts within milliseconds; a hung or
// partitioned one must not block the driver past its deadline.
const cancelGrace = 500 * time.Millisecond

// Search routes the query to one in-sync replica per selected
// partition (failing over as needed) and merges the local top-k
// results; with a probe budget it scans score-ordered partitions
// first and prunes the tail it can prove irrelevant (see
// QueryOptions.ProbeBudget).
func (r *Remote) Search(ctx context.Context, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	return search(ctx, r, q, k, opt)
}

// SearchRadius routes the range query to one in-sync replica per
// selected partition and merges the in-range trajectories, ascending
// by (distance, id).
func (r *Remote) SearchRadius(ctx context.Context, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	return searchRadius(ctx, r, q, radius, opt)
}

// SearchBatch routes the whole batch to one in-sync replica per
// selected partition and merges the per-query local top-k lists.
func (r *Remote) SearchBatch(ctx context.Context, qs [][]geo.Point, k int, opt QueryOptions) ([][]topk.Item, BatchReport, error) {
	return searchBatch(ctx, r, qs, k, opt)
}

// tracker implements plannedEngine.
func (r *Remote) tracker() *loadTracker { return r.loads }

// wave implements partitionClient: one Worker.Query per worker group
// through the failover scatter, each reply's rows placed at their
// partition's position in req.Partitions — a lone reply that already
// covers req.Partitions in order is the answer as is. An in-process
// worker prunes against the request's shared heaps, so a probe budget's
// survivor wave inherits the head wave's threshold; the heaps stay
// behind on the wire, where each worker call heaps its own share and
// every wave starts from +∞ on every worker.
func (r *Remote) wave(ctx context.Context, req *QueryArgs) (QueryReply, error) {
	replies, err := r.scatter(ctx, req)
	if err != nil {
		return QueryReply{}, err
	}
	if len(replies) == 1 && slices.Equal(replies[0].Partitions, req.Partitions) && replies[0].shaped(req) {
		return replies[0], nil
	}
	out := newQueryReply(req)
	np, pos := len(req.Partitions), make(map[int]int, len(req.Partitions))
	for si, pid := range req.Partitions {
		pos[pid] = si
	}
	for _, rep := range replies {
		if !rep.shaped(req) {
			return QueryReply{}, fmt.Errorf("cluster: Worker.Query reply for partitions %v is malformed", rep.Partitions)
		}
		wp := len(rep.Partitions)
		for wi, pid := range rep.Partitions {
			si, ok := pos[pid]
			if !ok {
				return QueryReply{}, fmt.Errorf("cluster: Worker.Query reply names unrequested partition %d", pid)
			}
			for qi := range req.Queries {
				from, to := qi*wp+wi, qi*np+si
				out.Nanos[to], out.Done[to], out.Refined[to] = rep.Nanos[from], rep.Done[from], rep.Refined[from]
				if req.Kind == KindBound {
					out.Bounds[to] = rep.Bounds[from]
				} else {
					out.Lists[to] = rep.Lists[from]
				}
			}
		}
	}
	return out, nil
}

// Generations returns a copy of the authoritative
// generation vector (curGen — the newest generation any replica
// acknowledged per partition). Replicas behind it never serve reads,
// so it is a valid answer floor for queries dispatched afterwards.
func (r *Remote) Generations() []uint64 {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	return append([]uint64(nil), r.curGen...)
}

// BuildTime returns the wall time of the distributed build.
func (r *Remote) BuildTime() time.Duration { return r.buildTime }

// Len returns the total number of indexed trajectories.
func (r *Remote) Len() int {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	n := int64(0)
	for i := range r.partLen {
		n += r.partLen[i].Load()
	}
	return int(n)
}

// IndexSizeBytes sums the reported index footprints, one replica per
// partition — the logical index size. Physical cluster memory is
// replicas times this.
func (r *Remote) IndexSizeBytes() int {
	sz := 0
	for _, b := range r.PartitionIndexBytes() {
		sz += b
	}
	return sz
}

// PartitionIndexBytes reports each partition's index footprint, indexed
// by partition id, as the worker holding its newest generation last
// reported it — after the latest mutation, compaction, split or heal.
func (r *Remote) PartitionIndexBytes() []int {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	return append([]int(nil), r.partSizes...)
}

// NumPartitions returns the partition count (splits grow it).
func (r *Remote) NumPartitions() int {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	return len(r.owners)
}

// LoadStats reports the per-partition load profile the driver has
// accumulated — query counts, refine ops, p99 scan latency, and the
// learned reward-per-probe score the probe budget orders by.
func (r *Remote) LoadStats() []PartitionLoad {
	if r.loads == nil {
		return nil
	}
	return r.loads.snapshot()
}

// Replicas returns the replication factor partitions were placed with.
func (r *Remote) Replicas() int { return r.replicas }

// Close stops the background prober and releases all worker
// connections. Worker processes keep running; an in-process worker's
// disk stores are flushed and closed. Safe to call concurrently with
// in-flight queries, which fail fast once the clients are gone.
func (r *Remote) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.probeStop)
	r.probeWG.Wait()
	var first error
	for _, s := range r.slots {
		s.mu.Lock()
		c := s.client
		s.client = nil
		s.mu.Unlock()
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if r.worker != nil {
		r.worker.CloseData()
	}
	return first
}
