package rptrie

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/leakcheck"
	"repose/internal/oracle"
	"repose/internal/storage"
	"repose/internal/storage/failpoint"
)

func durableCfg(t *testing.T) Config {
	t.Helper()
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Measure: dist.Hausdorff, Grid: g}
}

// TestDurableRoundTripOnDisk exercises the real filesystem: build,
// mutate, close, reopen in a fresh process-equivalent, and compare
// answers to the oracle. Both layouts.
func TestDurableRoundTripOnDisk(t *testing.T) {
	base := leakcheck.Base()
	defer leakcheck.Settle(t, base)
	for _, layout := range dynLayouts {
		t.Run(layout, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(77))
			ds := randomDataset(rng, 25)
			cfg := durableCfg(t)
			l, err := ParseLayout(layout)
			if err != nil {
				t.Fatal(err)
			}
			opts := DurableOptions{Layout: l}

			d, err := BuildDurable(dir, cfg, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			mirror := oracle.NewSet(ds)
			fresh := randomFresh(rng, 1000, 3)
			if err := d.Insert(fresh...); err != nil {
				t.Fatal(err)
			}
			mirror.Insert(fresh...)
			if n := d.Delete(ds[0].ID, ds[1].ID); n != 2 {
				t.Fatalf("delete removed %d, want 2", n)
			}
			mirror.Delete(ds[0].ID, ds[1].ID)
			repl := randomFresh(rng, ds[2].ID, 1)
			if err := d.Upsert(repl...); err != nil {
				t.Fatal(err)
			}
			mirror.Insert(repl...)
			gen := d.Generation()
			if gen != 3 {
				t.Fatalf("generation %d after three mutations, want 3", gen)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			// Mutations after close must fail, queries keep working.
			if err := d.Insert(randomFresh(rng, 2000, 1)...); err == nil {
				t.Fatal("insert after Close succeeded")
			}
			if got := d.Search(ds[3].Points, 1); len(got) == 0 {
				t.Fatal("query after Close returned nothing")
			}

			d2, err := OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if d2.Generation() != gen {
				t.Fatalf("recovered generation %d, want %d", d2.Generation(), gen)
			}
			if d2.Layout() != l {
				t.Fatalf("recovered layout %v, want %v", d2.Layout(), l)
			}
			if d2.Len() != mirror.Len() {
				t.Fatalf("recovered %d live, oracle %d", d2.Len(), mirror.Len())
			}
			ids := d2.LiveIDs()
			sort.Ints(ids)
			wantIDs := mirror.IDs()
			sort.Ints(wantIDs)
			if len(ids) != len(wantIDs) {
				t.Fatalf("LiveIDs %v, want %v", ids, wantIDs)
			}
			for i := range ids {
				if ids[i] != wantIDs[i] {
					t.Fatalf("LiveIDs %v, want %v", ids, wantIDs)
				}
			}
			for i := 0; i < 20; i++ {
				q := randomDataset(rng, 1)[0]
				k := 1 + rng.Intn(8)
				diffAssertTopK(t, "reopen", cfg.Measure, cfg.Params, mirror, q.Points, k, d2.Search(q.Points, k))
			}
			// Compact on the recovered handle folds the replayed delta
			// and checkpoints; a third open must land on the same state.
			if err := d2.Compact(); err != nil {
				t.Fatal(err)
			}
			if d2.DeltaLen() != 0 {
				t.Fatalf("delta %d after compact", d2.DeltaLen())
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3, err := OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d3.Close()
			if d3.Generation() != gen+1 || d3.Len() != mirror.Len() {
				t.Fatalf("post-compact reopen: gen %d len %d, want gen %d len %d",
					d3.Generation(), d3.Len(), gen+1, mirror.Len())
			}
		})
	}
}

// TestDurableOpenMissing: a directory that never held an index (or
// does not exist) fails with ErrNoDurable so callers can fall back to
// a rebuild or a peer snapshot.
func TestDurableOpenMissing(t *testing.T) {
	if _, err := OpenDurable(t.TempDir(), DurableOptions{}); !errors.Is(err, ErrNoDurable) {
		t.Fatalf("open of empty dir: %v, want ErrNoDurable", err)
	}
	fs := failpoint.New(9)
	if _, err := OpenDurable("nope", DurableOptions{VFS: fs}); !errors.Is(err, ErrNoDurable) {
		t.Fatalf("open of missing dir: %v, want ErrNoDurable", err)
	}
	// A checkpoint in the retired paged format is not read as fresh.
	f, err := fs.OpenFile("old/pages.db")
	if err == nil {
		_, err = f.WriteAt(make([]byte, 4096), 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable("old", DurableOptions{VFS: fs}); !errors.Is(err, ErrNoDurable) || !strings.Contains(err.Error(), "pages.db") {
		t.Fatalf("open of a pages.db directory: %v, want ErrNoDurable naming pages.db", err)
	}
}

// faultyVFS wraps a VFS so that every WriteAt (fail = "append") or
// every Sync (fail = "sync") fails while *armed is set.
type faultyVFS struct {
	storage.VFS
	fail  string
	armed *bool
}

func (v faultyVFS) OpenFile(name string) (storage.File, error) {
	f, err := v.VFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return faultyFile{f, v}, nil
}

type faultyFile struct {
	storage.File
	v faultyVFS
}

var errInjected = errors.New("injected storage failure")

func (f faultyFile) WriteAt(p []byte, off int64) (int, error) {
	if *f.v.armed && f.v.fail == "append" {
		return 0, errInjected
	}
	return f.File.WriteAt(p, off)
}

func (f faultyFile) Sync() error {
	if *f.v.armed && f.v.fail == "sync" {
		return errInjected
	}
	return f.File.Sync()
}

// TestDurablePoisonOnStorageFailure: a storage failure in the middle of
// a mutation leaves the index exactly at its pre-mutation state — a
// failed append publishes nothing, a failed sync rolls the published
// state back — reports ErrDurability, and poisons the handle read-only
// so no later acknowledgement can lie. Queries keep answering.
func TestDurablePoisonOnStorageFailure(t *testing.T) {
	mutations := map[string]func(d *Durable, ds []*geo.Trajectory, rng *rand.Rand) error{
		"insert": func(d *Durable, _ []*geo.Trajectory, rng *rand.Rand) error {
			return d.Insert(randomFresh(rng, 100, 1)...)
		},
		"delete": func(d *Durable, ds []*geo.Trajectory, _ *rand.Rand) error {
			if n := d.Delete(ds[1].ID); n != 0 {
				return fmt.Errorf("delete acknowledged %d", n)
			}
			return d.Err()
		},
		"compact": func(d *Durable, _ []*geo.Trajectory, _ *rand.Rand) error { return d.Compact() },
	}
	for _, fail := range []string{"append", "sync"} {
		for name, mutate := range mutations {
			t.Run(fail+"/"+name, func(t *testing.T) {
				armed := false
				rng := rand.New(rand.NewSource(11))
				ds := randomDataset(rng, 10)
				d, err := BuildDurable("part", durableCfg(t), ds, DurableOptions{VFS: faultyVFS{failpoint.New(11), fail, &armed}})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				// A pending delta, so the compaction has work to fail.
				if err := d.Insert(randomFresh(rng, 50, 2)...); err != nil {
					t.Fatal(err)
				}
				q := randomDataset(rng, 1)[0].Points
				genBefore, idsBefore, ansBefore := d.Generation(), sortedIDs(d), d.Search(q, 5)
				armed = true
				if err := mutate(d, ds, rng); !errors.Is(err, ErrDurability) {
					t.Fatalf("mutation with failing %s: err %v, want ErrDurability", fail, err)
				}
				if d.Err() == nil {
					t.Fatal("handle not poisoned after storage failure")
				}
				if d.Generation() != genBefore || !slices.Equal(sortedIDs(d), idsBefore) || !bitIdentical(d.Search(q, 5), ansBefore) {
					t.Fatalf("failed %s left state: gen %d ids %v, want gen %d ids %v",
						fail, d.Generation(), sortedIDs(d), genBefore, idsBefore)
				}
				armed = false
				// Every further mutation fails fast, storage healthy or not;
				// deletes report zero.
				if err := d.Upsert(randomFresh(rng, ds[0].ID, 1)...); err == nil {
					t.Fatal("upsert on poisoned handle succeeded")
				}
				if n := d.Delete(ds[0].ID); n != 0 {
					t.Fatalf("delete on poisoned handle acknowledged %d", n)
				}
				if err := d.Compact(); err == nil {
					t.Fatal("compact on poisoned handle succeeded")
				}
				if err := d.Checkpoint(); err == nil {
					t.Fatal("checkpoint on poisoned handle succeeded")
				}
				if got := d.Search(ds[0].Points, 1); len(got) == 0 {
					t.Fatal("poisoned handle stopped answering queries")
				}
			})
		}
	}
}

// sortedIDs returns idx's live ids, ascending.
func sortedIDs(idx Index) []int {
	ids := idx.LiveIDs()
	sort.Ints(ids)
	return ids
}

// TestDurableWrapRejectsForeignTypes: only the index layouts can be
// made durable, and a Durable cannot be wrapped a second time.
func TestDurableWrapRejectsForeignTypes(t *testing.T) {
	fs := failpoint.New(1)
	if _, err := WrapDurable("x", 42, DurableOptions{VFS: fs}); err == nil {
		t.Fatal("WrapDurable(int) succeeded")
	}
	d, err := BuildDurable("y", durableCfg(t), randomDataset(rand.New(rand.NewSource(1)), 5), DurableOptions{VFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := WrapDurable("z", d, DurableOptions{VFS: fs}); err == nil {
		t.Fatal("WrapDurable of an index that already journals succeeded")
	}
}

// TestDurableCompactCheckpointTrimsWAL: the automatic checkpoint
// after Compact resets the log, so recovery replays nothing.
func TestDurableCompactCheckpointTrimsWAL(t *testing.T) {
	fs := failpoint.New(13)
	rng := rand.New(rand.NewSource(13))
	ds := randomDataset(rng, 12)
	d, err := BuildDurable("part", durableCfg(t), ds, DurableOptions{VFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(randomFresh(rng, 500, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open("part", storage.Options{VFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, gen, err := st.LoadCheckpoint(); err != nil || gen != 2 {
		t.Fatalf("checkpoint generation %d (err %v), want 2 (insert + compact)", gen, err)
	}
	records := 0
	if err := st.Replay(func(storage.WALRecord) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	if records != 0 {
		t.Fatalf("%d WAL records survived the checkpoint, want 0", records)
	}
}

// TestDurableConcurrentInsertCompactNoDeadlock regresses the WAL
// lock-order inversion end to end: an Insert's acknowledge fsync runs
// outside d.mu (group commit), so it can race the WAL reset inside a
// Compact-triggered checkpoint. With the inverted lock order that
// pairing deadlocked and hung every writer permanently; the watchdog
// turns a recurrence into a failure. Afterwards the store must still
// recover every acknowledged insert.
func TestDurableConcurrentInsertCompactNoDeadlock(t *testing.T) {
	base := leakcheck.Base()
	defer leakcheck.Settle(t, base)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	ds := randomDataset(rng, 10)
	d, err := BuildDurable(dir, durableCfg(t), ds, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each, compacts = 4, 50, 25
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				for i := 0; i < each; i++ {
					if err := d.Insert(randomFresh(rng, 10_000+g*1_000+i, 1)...); err != nil {
						t.Errorf("writer %d insert %d: %v", g, i, err)
						return
					}
				}
			}(g)
		}
		for i := 0; i < compacts; i++ {
			if err := d.Compact(); err != nil {
				t.Errorf("Compact %d: %v", i, err)
				break
			}
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("deadlock: concurrent Insert and Compact hung (WAL Sync vs Reset lock order)")
	}
	wantLen, wantGen := d.Len(), d.Generation()
	if wantLen != len(ds)+writers*each {
		t.Fatalf("in-memory index holds %d trajectories, want %d", wantLen, len(ds)+writers*each)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after concurrent workload: %v", err)
	}
	defer re.Close()
	if re.Len() != wantLen || re.Generation() != wantGen {
		t.Fatalf("recovered len=%d gen=%d, want len=%d gen=%d",
			re.Len(), re.Generation(), wantLen, wantGen)
	}
}

// FuzzWALPayloadDecode feeds arbitrary record types and payloads to
// applyRecord, the replay step, over a small index: it must never
// panic, a payload that does not decode must come back as an error,
// and an applied record must leave the index at the generation it
// logged with a consistent live set.
func FuzzWALPayloadDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	ds := randomDataset(rng, 6)
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 3)
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{Measure: dist.Hausdorff, Grid: g}
	for _, rec := range []struct {
		typ byte
		p   walPayload
	}{
		{recInsert, walPayload{Trs: randomFresh(rng, 100, 2), Gen: 1}},
		{recDelete, walPayload{IDs: []int{ds[0].ID, 999}, Gen: 1}},
		{recUpsert, walPayload{Trs: randomFresh(rng, ds[1].ID, 1), Gen: 1}},
		{recCompact, walPayload{Gen: 1}},
	} {
		typ := rec.typ
		payload, err := encodePayload(rec.p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(typ, payload)
		f.Add(typ, payload[1:])              // legacy bare gob
		f.Add(typ, payload[:len(payload)/2]) // torn
	}
	f.Add(byte(9), []byte{walVersion})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		idx, err := Build(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		err = applyRecord(idx, storage.WALRecord{LSN: 1, Type: typ, Payload: payload})
		p, derr := decodePayload(payload)
		switch {
		case derr != nil && err == nil:
			t.Fatalf("undecodable payload (%v) applied without error", derr)
		case err == nil && p.Gen > 0 && idx.Generation() != p.Gen:
			t.Fatalf("applied record left generation %d, logged %d", idx.Generation(), p.Gen)
		case idx.Len() != len(idx.LiveIDs()):
			t.Fatalf("Len %d but %d live ids", idx.Len(), len(idx.LiveIDs()))
		}
	})
}
