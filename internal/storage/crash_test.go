package storage_test

import (
	"encoding/binary"
	"errors"
	"os"
	"strconv"
	"testing"

	"repose/internal/storage"
	"repose/internal/storage/failpoint"
)

// crashSeeds resolves the harness's seed list: CRASH_SEED from the
// environment (CI replays a fixed matrix), defaults otherwise.
func crashSeeds(defaults []int64, short bool) []int64 {
	if v := os.Getenv("CRASH_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return []int64{n}
		}
	}
	if short {
		return defaults[:1]
	}
	return defaults
}

// TestStoreCrashAtEveryIO dry-runs a mixed append/sync/checkpoint
// workload to count its IO points, then re-runs it crashing at every
// single one, recovering, and asserting the storage durability
// contract: the recovered counter state is a prefix point of the
// history that is at least the last acknowledged (synced or
// checkpointed) value, with records replayed contiguously and in
// order. Failures print the seed and crash point.
func TestStoreCrashAtEveryIO(t *testing.T) {
	seeds := crashSeeds([]int64{1, 7, 42}, testing.Short())
	for _, seed := range seeds {
		total := runStoreWorkload(t, failpoint.New(seed), 0, 0)
		if total < 20 {
			t.Fatalf("seed %d: workload hit only %d IO points; too few to be interesting", seed, total)
		}
		stride := int64(1)
		if testing.Short() {
			stride = 5
		}
		for n := int64(1); n <= total; n += stride {
			fs := failpoint.New(seed, failpoint.WithCrashAt(n))
			acked := runStoreWorkload(t, fs, n, 0)
			if !fs.Crashed() {
				t.Fatalf("seed %d: crash point %d never fired", seed, n)
			}
			fs.Restart()
			verifyRecovered(t, fs, seed, n, acked)
		}
	}
}

// runStoreWorkload drives the store through value counter 1..30 with
// periodic checkpoints. With crashAt == 0 it returns the total IO op
// count; otherwise it returns the highest acknowledged value (a value
// is acknowledged once its record's Sync or its checkpoint returns
// success) and tolerates the scheduled crash.
func runStoreWorkload(t *testing.T, fs *failpoint.FS, crashAt int64, _ int) int64 {
	t.Helper()
	s, err := storage.Open("part", storage.Options{VFS: fs})
	if err != nil {
		if crashAt != 0 && errors.Is(err, failpoint.ErrCrashed) {
			return 0
		}
		t.Fatalf("seed %d: Open: %v", fs.Seed(), err)
	}
	var acked int64
	buf := make([]byte, 8)
	for v := int64(1); v <= 30; v++ {
		binary.LittleEndian.PutUint64(buf, uint64(v))
		lsn, err := s.Append(1, buf)
		if err == nil {
			err = s.Sync(lsn)
		}
		if err != nil {
			if crashAt != 0 && errors.Is(err, failpoint.ErrCrashed) {
				return acked
			}
			t.Fatalf("seed %d: value %d: %v", fs.Seed(), v, err)
		}
		acked = v
		if v%7 == 0 {
			image := make([]byte, 200)
			binary.LittleEndian.PutUint64(image, uint64(v))
			if err := s.Checkpoint(image, uint64(v)); err != nil {
				if crashAt != 0 && errors.Is(err, failpoint.ErrCrashed) {
					return acked
				}
				t.Fatalf("seed %d: checkpoint at %d: %v", fs.Seed(), v, err)
			}
		}
	}
	if err := s.Close(); err != nil && !(crashAt != 0 && errors.Is(err, failpoint.ErrCrashed)) {
		t.Fatalf("seed %d: Close: %v", fs.Seed(), err)
	}
	if crashAt == 0 {
		return fs.Ops()
	}
	return acked
}

// verifyRecovered reopens the crashed store and checks the recovered
// counter against the acknowledged floor.
func verifyRecovered(t *testing.T, fs *failpoint.FS, seed, crashPoint, acked int64) {
	t.Helper()
	s, err := storage.Open("part", storage.Options{VFS: fs})
	if err != nil {
		// The only excusable corruption is a store whose very
		// bootstrap fsync never completed — nothing was ever
		// acknowledged from it.
		if errors.Is(err, storage.ErrCorrupt) && acked == 0 {
			return
		}
		t.Fatalf("seed %d crash@%d: recovery failed with %d values acknowledged: %v", seed, crashPoint, acked, err)
	}
	defer s.Close()
	recovered := int64(0)
	image, gen, err := s.LoadCheckpoint()
	if err != nil {
		t.Fatalf("seed %d crash@%d: checkpoint unreadable: %v", seed, crashPoint, err)
	}
	if len(image) > 0 {
		if gen%7 != 0 || gen == 0 || gen > 30 {
			t.Fatalf("seed %d crash@%d: recovered checkpoint gen %d was never written", seed, crashPoint, gen)
		}
		if got := binary.LittleEndian.Uint64(image[:8]); got != gen {
			t.Fatalf("seed %d crash@%d: checkpoint image value %d does not match its gen %d", seed, crashPoint, got, gen)
		}
		recovered = int64(gen)
	}
	want := recovered + 1
	if err := s.Replay(func(r storage.WALRecord) error {
		v := int64(binary.LittleEndian.Uint64(r.Payload))
		// Records below the checkpoint are legal leftovers only when
		// the WAL predates it; OpenWAL resets such logs, so every
		// replayed value must continue the counter contiguously.
		if v != want {
			t.Fatalf("seed %d crash@%d: replayed value %d, want %d (gap or reorder)", seed, crashPoint, v, want)
		}
		want++
		recovered = v
		return nil
	}); err != nil {
		t.Fatalf("seed %d crash@%d: replay: %v", seed, crashPoint, err)
	}
	if recovered < acked {
		t.Fatalf("seed %d crash@%d: recovered to value %d but %d was acknowledged — acknowledged durability violated",
			seed, crashPoint, recovered, acked)
	}
	if recovered > 30 {
		t.Fatalf("seed %d crash@%d: recovered phantom value %d", seed, crashPoint, recovered)
	}
}
