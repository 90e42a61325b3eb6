package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"slices"
	"strings"
	"testing"
	"time"

	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/rptrie"
)

func TestHandshake(t *testing.T) {
	w := NewWorker()
	var reply HandshakeReply
	if err := w.Handshake(&HandshakeArgs{Version: ProtocolVersion}, &reply); err != nil {
		t.Fatalf("matching handshake failed: %v", err)
	}
	if reply.Version != ProtocolVersion {
		t.Errorf("reply version %d", reply.Version)
	}
	err := w.Handshake(&HandshakeArgs{Version: ProtocolVersion + 1}, &reply)
	if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Errorf("mismatched handshake: %v", err)
	}
}

// TestProtocolVersionMismatchOverWire verifies a wrong-version driver
// is rejected by a live worker on every endpoint, not just handshake.
func TestProtocolVersionMismatchOverWire(t *testing.T) {
	_, parts, spec := testWorld(t, 40, 2)
	addrs := startWorkers(t, 1)
	client, err := rpc.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var hr HandshakeReply
	err = client.Call("Worker.Handshake", &HandshakeArgs{Version: 99}, &hr)
	if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Errorf("handshake v99: %v", err)
	}
	var br BuildReply
	err = client.Call("Worker.Build", &BuildArgs{PartitionID: 0, Spec: spec, Trajectories: parts[0]}, &br)
	if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Errorf("unversioned build: %v", err)
	}
	var qr QueryReply
	err = client.Call("Worker.Query", &QueryArgs{Kind: KindTopK, Queries: [][]geo.Point{{{X: 1, Y: 1}}}, K: 2}, &qr)
	if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Errorf("unversioned query: %v", err)
	}
}

// previousWorker stubs a worker of the previous protocol version: it
// answers the handshake with its own version and, unless lenient,
// refuses any other the way checkVersion does.
type previousWorker struct{ lenient bool }

func (p previousWorker) Handshake(args *HandshakeArgs, reply *HandshakeReply) error {
	reply.Version = ProtocolVersion - 1
	if !p.lenient && args.Version != reply.Version {
		return fmt.Errorf("cluster: protocol version mismatch: peer speaks v%d, this build speaks v%d", args.Version, reply.Version)
	}
	return nil
}

// TestPreviousProtocolVersionRefused: a driver refuses to build on a
// worker one protocol version behind — whether the old worker rejects
// the handshake or accepts it — and the error names both versions; a
// current worker refuses a query stamped with the previous version.
func TestPreviousProtocolVersionRefused(t *testing.T) {
	_, parts, spec := testWorld(t, 40, 2)
	prev, cur := fmt.Sprintf("v%d", ProtocolVersion-1), fmt.Sprintf("v%d", ProtocolVersion)
	for _, lenient := range []bool{false, true} {
		_, err := BuildRemote(spec, parts, []string{startWorkerService(t, previousWorker{lenient: lenient})})
		if err == nil || !strings.Contains(err.Error(), "handshake") || !strings.Contains(err.Error(), prev) || !strings.Contains(err.Error(), cur) {
			t.Errorf("lenient=%v: build against a %s worker: %v", lenient, prev, err)
		}
	}
	w := NewWorker()
	buildOn(t, w, 0, spec, parts[0])
	old := &QueryArgs{QueryHeader: QueryHeader{Version: ProtocolVersion - 1}, Kind: KindTopK, Queries: [][]geo.Point{parts[0][0].Points}, K: 3}
	err := w.Query(old, &QueryReply{})
	if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") || !strings.Contains(err.Error(), prev) || !strings.Contains(err.Error(), cur) {
		t.Errorf("%s query on a %s worker: %v", prev, cur, err)
	}
}

// TestQueryRejectsUnknownKind: a worker refuses a query kind it does
// not know — a newer driver's, or the zero value — instead of guessing.
func TestQueryRejectsUnknownKind(t *testing.T) {
	_, parts, spec := testWorld(t, 40, 1)
	w := NewWorker()
	buildOn(t, w, 0, spec, parts[0])
	for _, kind := range []QueryKind{0, KindRadius + 1} {
		args := &QueryArgs{QueryHeader: QueryHeader{Version: ProtocolVersion}, Kind: kind, Queries: [][]geo.Point{parts[0][0].Points}, K: 3}
		if err := w.Query(args, &QueryReply{}); err == nil || !strings.Contains(err.Error(), "unknown query kind") {
			t.Errorf("kind %d: %v", kind, err)
		}
	}
}

// remotePair builds the same spec on an in-process worker and on TCP
// workers.
func remotePair(t *testing.T, n, nparts, nworkers int) ([]*geo.Trajectory, *Remote, *Remote) {
	t.Helper()
	ds, parts, spec := testWorld(t, n, nparts)
	remote := remoteOn(t, spec, parts, startWorkers(t, nworkers))
	return ds, inproc(t, spec, parts, 4, false), remote
}

// radiusLayouts is the layout axis of the radius and refined matrices:
// every rptrie layout, and the succinct one wrapped in rptrie.Durable.
var radiusLayouts = []struct {
	name    string
	layout  rptrie.Layout
	durable bool
}{
	{"pointer", rptrie.LayoutPointer, false},
	{"succinct", rptrie.LayoutSuccinct, false},
	{"compressed", rptrie.LayoutCompressed, false},
	{"durable-succinct", rptrie.LayoutSuccinct, true},
}

// TestPartitionIndexBytesFollowMutations: after an Insert and a
// compaction on TCP workers, the driver's per-partition index sizes —
// what Stats and every QueryReport carry — are what the workers'
// indexes report, not the sizes they declared at build time.
func TestPartitionIndexBytesFollowMutations(t *testing.T) {
	_, parts, spec := testWorld(t, 120, 3)
	workers := []*Worker{NewWorker(), NewWorker()}
	remote := remoteOn(t, spec, parts, []string{startWorkerService(t, workers[0]), startWorkerService(t, workers[1])})
	built := remote.PartitionIndexBytes()
	ctx := context.Background()
	if _, err := remote.Insert(ctx, freshTrajs(rand.New(rand.NewSource(4)), 700_000, 40), MutateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Compact(ctx, nil); err != nil {
		t.Fatal(err)
	}
	got := remote.PartitionIndexBytes()
	for pid, b := range got {
		w := workers[remote.owners[pid][0]]
		w.mu.Lock()
		want := w.indexes[pid].SizeBytes()
		w.mu.Unlock()
		if b != want {
			t.Fatalf("partition %d: driver reports %d index bytes, its worker %d (built at %d)", pid, b, want, built[pid])
		}
	}
	if slices.Equal(got, built) {
		t.Fatalf("index sizes %v did not move after 40 inserts and a compaction", got)
	}
}

// TestRemoteRadiusMatchesLocal: range queries through the engine's
// worker path are bit-identical to internal/oracle on every layout,
// disk-backed included.
func TestRemoteRadiusMatchesLocal(t *testing.T) {
	ds, parts, spec := testWorld(t, 250, 6)
	ctx := context.Background()
	for _, lay := range radiusLayouts {
		spec.Layout = lay.layout
		eng := inproc(t, spec, parts, 4, lay.durable)
		for _, q := range dataset.Queries(ds, 3, 21) {
			for _, radius := range []float64{0.2, 0.6} {
				want := oracle.Radius(spec.Measure, spec.Params, ds, q.Points, radius)
				got, rep, err := eng.SearchRadius(ctx, q.Points, radius, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s radius %g", lay.name, radius), 21, got, want)
				if len(rep.PartitionTimes) != 6 {
					t.Errorf("%s: report partitions = %d", lay.name, len(rep.PartitionTimes))
				}
			}
		}
	}
}

func TestRemoteBatchMatchesLocal(t *testing.T) {
	ds, local, remote := remotePair(t, 250, 6, 3)
	ctx := context.Background()
	queries := dataset.Queries(ds, 7, 5)
	qpts := make([][]geo.Point, len(queries))
	for i, q := range queries {
		qpts[i] = q.Points
	}
	want, _, err := local.SearchBatch(ctx, qpts, 8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := remote.SearchBatch(ctx, qpts, 8, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch len %d want %d", len(got), len(want))
	}
	for qi := range want {
		assertBitIdentical(t, fmt.Sprintf("batch query %d", qi), 0, got[qi], want[qi])
	}
	if rep.Makespan <= 0 || rep.TotalWork <= 0 || len(rep.PerQuery) != len(queries) {
		t.Errorf("batch report %+v", rep)
	}
}

func TestPartitionSubset(t *testing.T) {
	ds, local, remote := remotePair(t, 250, 6, 3)
	ctx := context.Background()
	q := ds[11].Points
	subset := []int{0, 3, 5}
	want, wrep, err := local.Search(ctx, q, 9, QueryOptions{Partitions: subset})
	if err != nil {
		t.Fatal(err)
	}
	if len(wrep.PartitionTimes) != len(subset) {
		t.Errorf("local subset report %d partitions", len(wrep.PartitionTimes))
	}
	got, rrep, err := remote.Search(ctx, q, 9, QueryOptions{Partitions: subset})
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep.PartitionTimes) != len(subset) {
		t.Errorf("remote subset report %d partitions", len(rrep.PartitionTimes))
	}
	assertBitIdentical(t, "partition subset", 0, got, want)
	// Duplicated ids must not double-count a partition on either
	// backend (the wire path dedups before broadcasting).
	dupWant, _, err := local.Search(ctx, q, 9, QueryOptions{Partitions: []int{3, 3, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dedup, _, err := local.Search(ctx, q, 9, QueryOptions{Partitions: []int{0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dupGot, _, err := remote.Search(ctx, q, 9, QueryOptions{Partitions: []int{3, 3, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rdup, _, err := remote.SearchRadius(ctx, q, 0.6, QueryOptions{Partitions: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rone, _, err := remote.SearchRadius(ctx, q, 0.6, QueryOptions{Partitions: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rdup) != len(rone) {
		t.Fatalf("duplicated radius subset returned %d items, want %d", len(rdup), len(rone))
	}
	if len(dupWant) != len(dedup) || len(dupGot) != len(dedup) {
		t.Fatalf("dup subset lens: local %d remote %d want %d", len(dupWant), len(dupGot), len(dedup))
	}
	for i := range dedup {
		if dupWant[i] != dedup[i] || dupGot[i] != dedup[i] {
			t.Fatalf("dup subset rank %d: local %+v remote %+v want %+v", i, dupWant[i], dupGot[i], dedup[i])
		}
	}

	// Out-of-range ids fail on both backends.
	if _, _, err := local.Search(ctx, q, 3, QueryOptions{Partitions: []int{6}}); err == nil {
		t.Error("local out-of-range partition should fail")
	}
	if _, _, err := remote.Search(ctx, q, 3, QueryOptions{Partitions: []int{-1}}); err == nil {
		t.Error("remote out-of-range partition should fail")
	}
}

func TestNoPivotsMatchesDefault(t *testing.T) {
	ds, local, remote := remotePair(t, 200, 4, 2)
	ctx := context.Background()
	for _, q := range dataset.Queries(ds, 3, 33) {
		want, _, err := local.Search(ctx, q.Points, 6, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantR, _, err := local.SearchRadius(ctx, q.Points, 0.5, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []*Remote{local, remote} {
			got, _, err := eng.Search(ctx, q.Points, 6, QueryOptions{NoPivots: true})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "without pivots", 0, got, want)
			gotR, _, err := eng.SearchRadius(ctx, q.Points, 0.5, QueryOptions{NoPivots: true})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "radius without pivots", 0, gotR, wantR)
		}
	}
}

// TestMoreWorkersThanPartitions: a worker left without partitions by
// the round-robin deal must simply not be queried, not fail every
// query.
func TestMoreWorkersThanPartitions(t *testing.T) {
	ds, parts, spec := testWorld(t, 120, 2)
	addrs := startWorkers(t, 3) // worker 2 gets no partitions
	remote := remoteOn(t, spec, parts, addrs)
	local, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := ds[5].Points
	got, rep, err := remote.Search(ctx, q, 7, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.Search(ctx, q, 7, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "with an idle worker", 0, got, want)
	if len(rep.PartitionTimes) != 2 {
		t.Errorf("report partitions = %d", len(rep.PartitionTimes))
	}
	if _, _, err := remote.SearchRadius(ctx, q, 0.5, QueryOptions{}); err != nil {
		t.Errorf("radius with idle worker: %v", err)
	}
	if _, _, err := remote.SearchBatch(ctx, [][]geo.Point{q}, 4, QueryOptions{}); err != nil {
		t.Errorf("batch with idle worker: %v", err)
	}
}

// TestRemoteCancellation: a deadline that has already passed must
// surface context.DeadlineExceeded from the remote engine, and a
// cancel mid-flight must stop the query.
func TestRemoteCancellation(t *testing.T) {
	ds, _, remote := remotePair(t, 300, 8, 2)

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := remote.Search(expired, ds[0].Points, 5, QueryOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}

	ctx, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, _, err = remote.SearchRadius(ctx, ds[0].Points, 0.5, QueryOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled radius: err = %v", err)
	}
	_, _, err = remote.SearchBatch(ctx, [][]geo.Point{ds[0].Points}, 5, QueryOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v", err)
	}

	// A healthy query still works afterwards on the same clients.
	if _, _, err := remote.Search(context.Background(), ds[0].Points, 5, QueryOptions{}); err != nil {
		t.Fatalf("post-cancel search: %v", err)
	}
}

// TestWorkerCancelRPC: Worker.Cancel aborts a registered in-flight
// query and tolerates unknown ids.
func TestWorkerCancelRPC(t *testing.T) {
	w := NewWorker()
	if err := w.Cancel(&CancelArgs{ID: 12345}, &struct{}{}); err != nil {
		t.Fatalf("unknown id: %v", err)
	}
	ctx, cancel := w.queryContext(&QueryArgs{QueryHeader: QueryHeader{ID: 7}})
	defer cancel()
	if ctx.Err() != nil {
		t.Fatal("fresh query context should be live")
	}
	if err := w.Cancel(&CancelArgs{ID: 7}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Errorf("query context not cancelled: %v", ctx.Err())
	}
	w.endQuery(7, cancel)
	w.mu.Lock()
	n := len(w.inflight)
	w.mu.Unlock()
	if n != 0 {
		t.Errorf("inflight registry leaked %d entries", n)
	}

	// A cancel that races ahead of the query leaves a tombstone, so
	// the query starts already aborted when it registers.
	if err := w.Cancel(&CancelArgs{ID: 9}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	early, cancelEarly := w.queryContext(&QueryArgs{QueryHeader: QueryHeader{ID: 9}})
	defer cancelEarly()
	if !errors.Is(early.Err(), context.Canceled) {
		t.Errorf("early-cancelled query context: %v", early.Err())
	}
	w.mu.Lock()
	_, left := w.cancelled[9]
	w.mu.Unlock()
	if left {
		t.Error("tombstone for id 9 not consumed")
	}
}
