package cluster

import (
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repose/internal/cluster/chaos"
	"repose/internal/dataset"
	"repose/internal/leakcheck"
	"repose/internal/rptrie"
)

// TestDurableWorkerRecoversLocally drives a data-dir worker through
// build + mutations, shuts it down, and starts a fresh worker on the
// same directory: every partition must come back from its own store
// at the exact acknowledged generation, without any Restore, and
// answer queries identically.
func TestDurableWorkerRecoversLocally(t *testing.T) {
	base := leakcheck.Base()
	defer leakcheck.Settle(t, base)
	dir := t.TempDir()
	ds, parts, spec := testWorld(t, 120, 2)

	w, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for pid, part := range parts {
		buildOn(t, w, pid, spec, part)
	}
	rng := rand.New(rand.NewSource(21))
	adds := freshTrajs(rng, 400_000, 6)
	var ir InsertReply
	if err := w.Insert(&InsertArgs{Version: ProtocolVersion, PartitionID: 1, Trajectories: adds}, &ir); err != nil {
		t.Fatal(err)
	}
	var dr DeleteReply
	if err := w.Delete(&DeleteArgs{Version: ProtocolVersion, PartitionID: 0, IDs: []int{parts[0][0].ID}}, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Removed != 1 {
		t.Fatalf("delete removed %d, want 1", dr.Removed)
	}
	var before StatusReply
	if err := w.Status(&StatusArgs{Version: ProtocolVersion}, &before); err != nil {
		t.Fatal(err)
	}
	q := dataset.Queries(ds, 1, 31)[0]
	want, err := workerTopK(w, q.Points, 9)
	if err != nil {
		t.Fatal(err)
	}
	w.CloseData() // process shutdown

	// Foreign entries in the data dir — an operator's stray file, a
	// non-partition directory, and an empty p-dir with no store — must
	// be skipped by recovery, not break it.
	if err := os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("ops"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"tmp", "p7x", partDirName(9)} {
		if err := os.Mkdir(filepath.Join(dir, junk), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	w2, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatalf("restart on same data dir: %v", err)
	}
	defer w2.CloseData()
	if got := w2.RecoveredPartitions(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("recovered partitions %v, want [0 1]", got)
	}
	if w2.RestoreCount() != 0 {
		t.Fatalf("recovery used %d Restores, want 0", w2.RestoreCount())
	}
	var after StatusReply
	if err := w2.Status(&StatusArgs{Version: ProtocolVersion}, &after); err != nil {
		t.Fatal(err)
	}
	for pid, gen := range before.Gens {
		if after.Gens[pid] != gen || after.Lens[pid] != before.Lens[pid] {
			t.Fatalf("partition %d recovered gen=%d len=%d, want gen=%d len=%d",
				pid, after.Gens[pid], after.Lens[pid], gen, before.Lens[pid])
		}
	}
	got, err := workerTopK(w2, q.Points, 9)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "recovered-worker search", 21, got, want)

	// The recovered partition can still donate state to a peer.
	var snap SnapshotReply
	if err := w2.Snapshot(&SnapshotArgs{Version: ProtocolVersion, PartitionID: 0}, &snap); err != nil {
		t.Fatalf("snapshot of durable partition: %v", err)
	}
	if snap.Gen != before.Gens[0] || len(snap.Data) == 0 {
		t.Fatalf("durable snapshot gen=%d bytes=%d, want gen=%d and a non-empty image",
			snap.Gen, len(snap.Data), before.Gens[0])
	}

	// The recovered partitions accept further durable mutations.
	more := freshTrajs(rng, 500_000, 2)
	if err := w2.Insert(&InsertArgs{Version: ProtocolVersion, PartitionID: 0, Trajectories: more}, &ir); err != nil {
		t.Fatalf("insert on recovered partition: %v", err)
	}
	if ir.Gen != before.Gens[0]+1 {
		t.Fatalf("post-recovery insert produced gen %d, want %d", ir.Gen, before.Gens[0]+1)
	}
}

// TestDurableWorkerClearWipesDisk: Clear must destroy the on-disk
// stores too, or a restarted worker would resurrect partitions the
// driver dropped.
func TestDurableWorkerClearWipesDisk(t *testing.T) {
	dir := t.TempDir()
	_, parts, spec := testWorld(t, 60, 1)
	w, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	buildOn(t, w, 0, spec, parts[0])
	if err := w.Clear(&ClearArgs{Version: ProtocolVersion}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rptrie.OpenDurable(filepath.Join(dir, partDirName(0)), rptrie.DurableOptions{}); err == nil {
		t.Fatal("cleared partition still recoverable from disk")
	}
	w2, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.CloseData()
	if got := w2.RecoveredPartitions(); len(got) != 0 {
		t.Fatalf("restart after Clear resurrected partitions %v", got)
	}
}

// TestDurableWorkerFailedInstallUninstallsPartition regresses the
// Build/Restore replacement path: installing a rebuilt partition
// closes the old index's store and wipes its directory before the new
// durable wrap, so when the wrap fails the old index must come OUT of
// the worker — a closed index with destroyed on-disk state must not
// keep answering for the partition. The partition reads as absent
// (the driver rebuilds or restores it) and a retried build succeeds.
func TestDurableWorkerFailedInstallUninstallsPartition(t *testing.T) {
	base := leakcheck.Base()
	defer leakcheck.Settle(t, base)
	dir := t.TempDir()
	_, parts, spec := testWorld(t, 60, 1)
	w, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var br BuildReply
	build := func() error {
		return w.Build(&BuildArgs{Version: ProtocolVersion, PartitionID: 0, Spec: spec, Trajectories: parts[0]}, &br)
	}
	if err := build(); err != nil {
		t.Fatal(err)
	}
	// Sabotage: replace the partition's directory with a regular file,
	// so the rebuild's wipe-and-reopen of the store fails.
	pdir := filepath.Join(dir, partDirName(0))
	if err := os.RemoveAll(pdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pdir, []byte("roadblock"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := build(); err == nil {
		t.Fatal("rebuild over a blocked partition directory succeeded")
	}
	// The failed install leaves the partition absent, not closed.
	var st StatusReply
	if err := w.Status(&StatusArgs{Version: ProtocolVersion}, &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Gens[0]; ok {
		t.Fatal("partition 0 still installed after its durable install failed")
	}
	var ir InsertReply
	add := freshTrajs(rand.New(rand.NewSource(5)), 900_000, 1)
	if err := w.Insert(&InsertArgs{Version: ProtocolVersion, PartitionID: 0, Trajectories: add}, &ir); err == nil {
		t.Fatal("insert into the uninstalled partition succeeded")
	}
	// With the roadblock cleared, a retried build installs durably.
	if err := os.Remove(pdir); err != nil {
		t.Fatal(err)
	}
	if err := build(); err != nil {
		t.Fatalf("retry build: %v", err)
	}
	w.CloseData()
	w2, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.CloseData()
	if got := w2.RecoveredPartitions(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("recovered partitions %v, want [0]", got)
	}
}

// TestWorkerRestartRejoinsViaLocalWAL is the acceptance regression
// for the data-dir rejoin path: with replication factor 1 there is no
// peer to restore from, so when the lone worker owning a partition
// dies and restarts on its data directory, the driver must re-admit
// it purely from its local WAL replay — zero Worker.Restore calls —
// and its partition must answer bit-identical to a fault-free twin.
func TestWorkerRestartRejoinsViaLocalWAL(t *testing.T) {
	base := leakcheck.Base()
	// Registered before any resource cleanup, so it runs after all of
	// them (cleanups are LIFO): the listeners, fleet, and driver are
	// down by the time the goroutine count is checked.
	t.Cleanup(func() { leakcheck.Settle(t, base) })
	seed := chaosSeed()
	ds, parts, spec := testWorld(t, 160, 2)
	dir := t.TempDir()

	// Worker 0 is durable (owns partition 0 at factor 1); worker 1 is
	// a plain in-memory worker owning partition 1.
	w0, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(ln0, w0)
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln1.Close() })
	go Serve(ln1, NewWorker())

	fleet, err := chaos.NewFleet([]string{ln0.Addr().String(), ln1.Addr().String()}, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	remote := remoteOn(t, spec, parts, fleet.Addrs())
	remote.SetFailover(fastFailover)
	twin := inproc(t, spec, parts, 4, false)

	// Mutate while everything is healthy; worker 0 journals these.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 3))
	adds := freshTrajs(rng, 800_000, 10)
	if _, err := remote.Insert(ctx, adds, MutateOptions{}); err != nil {
		t.Fatalf("insert: %v (seed=%d)", err, seed)
	}
	if _, err := twin.Insert(ctx, adds, MutateOptions{}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := remote.Delete(ctx, []int{ds[1].ID, ds[5].ID}, MutateOptions{}); err != nil || n != 2 {
		t.Fatalf("delete: n=%d err=%v (seed=%d)", n, err, seed)
	}
	if n, _, err := twin.Delete(ctx, []int{ds[1].ID, ds[5].ID}, MutateOptions{}); err != nil || n != 2 {
		t.Fatal(err)
	}

	// Kill worker 0: sever its proxy, stop its listener, close its
	// stores (the durable state survives on disk).
	p0, err := fleet.At(0)
	if err != nil {
		t.Fatal(err)
	}
	p0.Down()
	ln0.Close()
	w0.CloseData()

	// The driver only notices a death on use: burn one query against
	// the dead worker so its breaker trips and the prober starts
	// watching the slot. With factor 1 there is no replica to fail
	// over to, so this query must error.
	q := dataset.Queries(ds, 2, seed+11)[0]
	sub := QueryOptions{Partitions: []int{0}}
	ctxT, cancel := context.WithTimeout(ctx, 2*time.Second)
	if _, _, err := remote.Search(ctxT, q.Points, 10, sub); err == nil {
		cancel()
		t.Fatalf("search succeeded against a killed factor-1 worker (seed=%d)", seed)
	}
	cancel()

	// Restart it on the same directory at a fresh address.
	w0b, err := NewDurableWorker(dir, false)
	if err != nil {
		t.Fatalf("restart on data dir: %v (seed=%d)", err, seed)
	}
	if got := w0b.RecoveredPartitions(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("restarted worker recovered %v, want [0] (seed=%d)", got, seed)
	}
	ln0b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln0b.Close() })
	go Serve(ln0b, w0b)
	p0.SetTarget(ln0b.Addr().String())
	p0.Up()
	waitHealed(t, remote, seed)

	// The heal must have come from the local WAL replay alone.
	if n := w0b.RestoreCount(); n != 0 {
		t.Fatalf("rejoin used %d Worker.Restore calls, want 0: local WAL replay not trusted (seed=%d)", n, seed)
	}

	// Partition 0 is served only by the rejoined worker; its answers
	// must match the fault-free twin exactly, mutations included.
	got, _, err := remote.Search(ctx, q.Points, 10, sub)
	if err != nil {
		t.Fatalf("search on rejoined worker: %v (seed=%d)", err, seed)
	}
	want, _, err := twin.Search(ctx, q.Points, 10, sub)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "rejoined-worker search", seed, got, want)
	w0b.CloseData()
}
