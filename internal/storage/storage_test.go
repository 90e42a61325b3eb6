package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repose/internal/leakcheck"
)

func openTemp(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, dir
}

// assertNoCheckpoint fails unless s holds the empty bootstrap image.
func assertNoCheckpoint(t *testing.T, s *Store, what string) {
	t.Helper()
	image, gen, err := s.LoadCheckpoint()
	if err != nil {
		t.Fatalf("%s: LoadCheckpoint: %v", what, err)
	}
	if len(image) != 0 || gen != 0 {
		t.Fatalf("%s claims a checkpoint: gen %d, %d bytes", what, gen, len(image))
	}
}

// TestStoreBootstrapAndReopen: a directory with no slot bytes at all —
// missing slot files, or zero-length ones — is fresh, and reopening a
// bootstrapped store finds the same empty state.
func TestStoreBootstrapAndReopen(t *testing.T) {
	base := leakcheck.Base()
	s, dir := openTemp(t, Options{})
	assertNoCheckpoint(t, s, "fresh store")
	if got := s.NextLSN(); got != 1 {
		t.Fatalf("fresh store NextLSN = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen: same empty state, no corruption.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertNoCheckpoint(t, s2, "reopened empty store")
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	empty := t.TempDir()
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(filepath.Join(empty, slotFileName(i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s3, err := Open(empty, Options{})
	if err != nil {
		t.Fatalf("open over zero-length slot files: %v", err)
	}
	assertNoCheckpoint(t, s3, "store over zero-length slots")
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	leakcheck.Settle(t, base)
}

func TestCheckpointRoundTrip(t *testing.T) {
	s, dir := openTemp(t, Options{})
	defer s.Close()
	image := make([]byte, 10_000)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(image)
	if err := s.Checkpoint(image, 42); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	got, gen, err := s.LoadCheckpoint()
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if gen != 42 || !bytes.Equal(got, image) {
		t.Fatalf("LoadCheckpoint = gen %d, %d bytes; want gen 42, identical image", gen, len(got))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Recover from disk.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, gen, err = s2.LoadCheckpoint()
	if err != nil {
		t.Fatalf("LoadCheckpoint after reopen: %v", err)
	}
	if gen != 42 || !bytes.Equal(got, image) {
		t.Fatalf("recovered checkpoint = gen %d, %d bytes; want gen 42, identical image", gen, len(got))
	}
}

// TestCheckpointAlternatesSlots: checkpoints take turns between the two
// slot files, so the directory holds at most the two newest images
// however many checkpoints ran, and the newest always wins on reopen.
func TestCheckpointAlternatesSlots(t *testing.T) {
	s, dir := openTemp(t, Options{})
	image := make([]byte, 4_000)
	for i := 0; i < 12; i++ {
		for j := range image {
			image[j] = byte(i + j)
		}
		if err := s.Checkpoint(image, uint64(i+1)); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
		if want := (i + 1) % 2; s.live != want {
			t.Fatalf("checkpoint %d went to slot %d, want %d", i, s.live, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, err := os.Stat(filepath.Join(dir, slotFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != slotHeaderSize+int64(len(image)) {
			t.Fatalf("slot %d holds %d bytes, want one image of %d", i, st.Size(), slotHeaderSize+len(image))
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, gen, err := s2.LoadCheckpoint()
	if err != nil || gen != 12 || !bytes.Equal(got, image) {
		t.Fatalf("LoadCheckpoint = gen %d, err %v; want gen 12 and the final image", gen, err)
	}
}

func TestWALAppendSyncReplay(t *testing.T) {
	s, dir := openTemp(t, Options{})
	records := [][]byte{[]byte("alpha"), []byte("beta"), {}, bytes.Repeat([]byte{0xAB}, 5000)}
	var last uint64
	for i, p := range records {
		lsn, err := s.Append(byte(i+1), p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := uint64(i + 1); lsn != want {
			t.Fatalf("Append %d returned LSN %d, want %d", i, lsn, want)
		}
		last = lsn
	}
	if err := s.Sync(last); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	var got []WALRecord
	if err := s2.Replay(func(r WALRecord) error {
		got = append(got, WALRecord{r.LSN, r.Type, append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || r.Type != byte(i+1) || !bytes.Equal(r.Payload, records[i]) {
			t.Fatalf("record %d = %+v, mismatch", i, r)
		}
	}
	if next := s2.NextLSN(); next != uint64(len(records)+1) {
		t.Fatalf("NextLSN after recovery = %d, want %d", next, len(records)+1)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	s, dir := openTemp(t, Options{})
	if _, err := s.Append(1, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: garbage bytes at the tail.
	walPath := filepath.Join(dir, WALFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer s2.Close()
	var n int
	if err := s2.Replay(func(r WALRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail dropped)", n)
	}
	// The tail was truncated, so a fresh append lands cleanly.
	if lsn, err := s2.Append(2, []byte("after")); err != nil || lsn != 2 {
		t.Fatalf("Append after torn-tail recovery = LSN %d, err %v; want 2", lsn, err)
	}
}

func TestCheckpointResetsWAL(t *testing.T) {
	s, dir := openTemp(t, Options{})
	for i := 0; i < 5; i++ {
		if _, err := s.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(5); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint([]byte("state at gen 9"), 9); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var n int
	if err := s2.Replay(func(WALRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records after checkpoint, want 0", n)
	}
	if next := s2.NextLSN(); next != 6 {
		t.Fatalf("NextLSN = %d, want 6 (base advanced past obsolete records)", next)
	}
	if _, gen, err := s2.LoadCheckpoint(); err != nil || gen != 9 {
		t.Fatalf("checkpoint generation = %d (err %v), want 9", gen, err)
	}
}

// TestTornMetaSlotFallsBack: whatever tears the newer slot — its
// header, its image, or its tail — recovery falls back to the older
// slot, which a checkpoint never writes.
func TestTornMetaSlotFallsBack(t *testing.T) {
	tears := map[string]func(path string) error{
		"header": func(path string) error { return patchFile(path, 0, []byte{0xFF, 0xFF, 0xFF, 0xFF}) },
		"image":  func(path string) error { return patchFile(path, slotHeaderSize+100, []byte{0x7E}) },
		"tail":   func(path string) error { return os.Truncate(path, slotHeaderSize+299) },
		"extra":  func(path string) error { return patchFile(path, slotHeaderSize+300, []byte{0}) },
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			s, dir := openTemp(t, Options{})
			img1 := bytes.Repeat([]byte{1}, 300)
			img2 := bytes.Repeat([]byte{2}, 300)
			if err := s.Checkpoint(img1, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(img2, 2); err != nil {
				t.Fatal(err)
			}
			newer := s.live
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tear(filepath.Join(dir, slotFileName(newer))); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen with torn slot: %v", err)
			}
			defer s2.Close()
			got, gen, err := s2.LoadCheckpoint()
			if err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
			if gen != 1 || !bytes.Equal(got, img1) {
				t.Fatalf("fallback checkpoint = gen %d; want gen 1 with the older image", gen)
			}
		})
	}
}

// patchFile overwrites the bytes at off in the named file.
func patchFile(path string, off int64, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(b, off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestBothMetaSlotsTornErrors: slot files that hold bytes but no valid
// slot are corruption, not a fresh store — Open fails with ErrCorrupt
// and leaves the WAL, the only copy of whatever it holds, untouched.
func TestBothMetaSlotsTornErrors(t *testing.T) {
	s, dir := openTemp(t, Options{})
	if err := s.Checkpoint([]byte("state at gen 3"), 3); err != nil {
		t.Fatal(err)
	}
	lsn, err := s.Append(1, []byte("after the checkpoint"))
	if err == nil {
		err = s.Sync(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALFileName)
	walBefore, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0x55}, 64)
	for i := 0; i < 2; i++ {
		if err := patchFile(filepath.Join(dir, slotFileName(i)), 0, junk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with both slots torn = %v, want ErrCorrupt", err)
	}
	if walAfter, err := os.ReadFile(walPath); err != nil || !bytes.Equal(walAfter, walBefore) {
		t.Fatalf("Open over torn slots rewrote the WAL (err %v)", err)
	}
}

// TestOpenRefusesLegacyPagesFile: a directory holding the retired
// paged format's pages.db and no image slot is refused with an error
// naming that format — never opened as fresh, which would drop the
// index it holds — and is left as it was. Destroy removes the file.
func TestOpenRefusesLegacyPagesFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacyPagesFile), bytes.Repeat([]byte{0x5a}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), legacyPagesFile) {
		t.Fatalf("Open over a pages.db directory = %v, want ErrCorrupt naming %s", err, legacyPagesFile)
	}
	if names, _ := (OSFS{}).ReadDir(dir); len(names) != 1 {
		t.Fatalf("refused Open left %v behind, want only %s", names, legacyPagesFile)
	}
	if err := Destroy(dir, nil); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Destroy: %v", err)
	}
	defer s.Close()
	assertNoCheckpoint(t, s, "store after Destroy")
}

func TestGroupCommitConcurrent(t *testing.T) {
	base := leakcheck.Base()
	s, _ := openTemp(t, Options{})
	defer s.Close()
	const writers, each = 8, 25
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				lsn, err := s.Append(1, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err == nil {
					err = s.Sync(lsn)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
	var n int
	seen := make(map[uint64]bool)
	if err := s.Replay(func(r WALRecord) error {
		if seen[r.LSN] {
			return fmt.Errorf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != writers*each {
		t.Fatalf("replayed %d records, want %d", n, writers*each)
	}
	leakcheck.Settle(t, base)
}

// failingVFS wraps OSFS so every WriteAt fails while *arm is set —
// enough to abort a checkpoint partway through its flush.
type failingVFS struct {
	OSFS
	arm *bool
}

func (v failingVFS) OpenFile(name string) (File, error) {
	f, err := v.OSFS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return failingWriteFile{f, v.arm}, nil
}

type failingWriteFile struct {
	File
	arm *bool
}

func (f failingWriteFile) WriteAt(p []byte, off int64) (int, error) {
	if *f.arm {
		return 0, errors.New("injected write failure")
	}
	return f.File.WriteAt(p, off)
}

// TestCheckpointFailureKeepsPreviousImage: a checkpoint that fails
// before its slot is durable leaves the previous image authoritative —
// in memory and on reopen — and the WAL it would have obsoleted intact;
// once writes are healthy again a retry lands.
func TestCheckpointFailureKeepsPreviousImage(t *testing.T) {
	arm := false
	vfs := failingVFS{arm: &arm}
	s, dir := openTemp(t, Options{VFS: vfs})
	defer s.Close()
	rnd := rand.New(rand.NewSource(3))
	image1 := make([]byte, 4000)
	rnd.Read(image1)
	if err := s.Checkpoint(image1, 1); err != nil {
		t.Fatal(err)
	}
	lsn, err := s.Append(1, []byte("logged after image 1"))
	if err == nil {
		err = s.Sync(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	assertState := func(st *Store, what string) {
		t.Helper()
		got, gen, err := st.LoadCheckpoint()
		if err != nil || gen != 1 || !bytes.Equal(got, image1) {
			t.Fatalf("%s: checkpoint gen %d (err %v), want the previous image at gen 1", what, gen, err)
		}
		var n int
		if err := st.Replay(func(WALRecord) error { n++; return nil }); err != nil || n != 1 {
			t.Fatalf("%s: replayed %d records (err %v), want the 1 logged after image 1", what, n, err)
		}
	}
	image2 := make([]byte, 4000)
	rnd.Read(image2)
	arm = true
	for i := 0; i < 2; i++ {
		if err := s.Checkpoint(image2, 2); err == nil {
			t.Fatal("checkpoint with failing writes succeeded")
		}
		assertState(s, "after a failed checkpoint")
	}
	arm = false
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after failed checkpoints: %v", err)
	}
	assertState(s2, "reopened after failed checkpoints")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(image2, 2); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	got, gen, err := s.LoadCheckpoint()
	if err != nil || gen != 2 || !bytes.Equal(got, image2) {
		t.Fatalf("after the retry: gen %d (err %v), want image 2 at gen 2", gen, err)
	}
}

// TestWALSyncResetNoDeadlock regresses a lock-order inversion: Sync
// acquires syncMu before mu, so Reset must too. The old order (mu
// then syncMu) let a group-commit Sync racing a checkpoint's Reset
// deadlock AB-BA, hanging every writer; the watchdog turns that hang
// into a failure. Appends are serialized against resets by a caller
// lock — matching how Durable drives the WAL — while Syncs run free.
func TestWALSyncResetNoDeadlock(t *testing.T) {
	base := leakcheck.Base()
	dir := t.TempDir()
	f, err := OSFS{}.OpenFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(f, 1)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	defer w.Close()
	var callerMu sync.Mutex // the owning index's writer lock
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		const writers, each, resets = 4, 100, 50
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					callerMu.Lock()
					lsn, err := w.Append(1, []byte{byte(g), byte(i)})
					callerMu.Unlock()
					if err == nil {
						err = w.Sync(lsn)
					}
					if err != nil {
						t.Errorf("writer %d: %v", g, err)
						return
					}
				}
			}(g)
		}
		for i := 0; i < resets; i++ {
			callerMu.Lock()
			err := w.Reset(w.NextLSN())
			callerMu.Unlock()
			if err != nil {
				t.Errorf("Reset: %v", err)
				break
			}
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: WAL.Sync and WAL.Reset stuck on each other's locks")
	}
	leakcheck.Settle(t, base)
}

func TestDecodeSlotRejectsCorruption(t *testing.T) {
	want := slotHeader{epoch: 4, gen: 9, walBase: 17}
	slot := encodeSlot(want, []byte("slot image"))
	if h, got, err := decodeSlot(slot); err != nil || h != want || string(got) != "slot image" {
		t.Fatalf("decodeSlot on valid slot = %+v, %q, %v", h, got, err)
	}
	mutations := map[string]func([]byte) []byte{
		"magic":    func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"version":  func(b []byte) []byte { b[6] = 99; return b },
		"reserved": func(b []byte) []byte { b[7] = 1; return b },
		"epoch":    func(b []byte) []byte { b[8] ^= 1; return b },
		"length":   func(b []byte) []byte { b[32] ^= 1; return b },
		"image":    func(b []byte) []byte { b[slotHeaderSize] ^= 1; return b },
		"crc":      func(b []byte) []byte { b[40] ^= 1; return b },
		"torn":     func(b []byte) []byte { return b[:len(b)-1] },
		"trailing": func(b []byte) []byte { return append(b, 0) },
		"header":   func(b []byte) []byte { return b[:slotHeaderSize-1] },
	}
	for name, mutate := range mutations {
		c := mutate(append([]byte(nil), slot...))
		if _, _, err := decodeSlot(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s corruption: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecodeWALRecordRejectsCorruption(t *testing.T) {
	rec := appendWALRecord(nil, 5, 2, []byte("record body"))
	if r, n, err := DecodeWALRecord(rec); err != nil || r.LSN != 5 || r.Type != 2 || n != len(rec) {
		t.Fatalf("DecodeWALRecord on valid record = %+v, %d, %v", r, n, err)
	}
	mutations := map[string]func([]byte) []byte{
		"lsn":        func(b []byte) []byte { b[0] ^= 1; return b },
		"type":       func(b []byte) []byte { b[8] ^= 1; return b },
		"length":     func(b []byte) []byte { b[9] = 0xFF; b[10] = 0xFF; b[11] = 0xFF; b[12] = 0x7F; return b },
		"payload":    func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"crc":        func(b []byte) []byte { b[13] ^= 1; return b },
		"short-head": func(b []byte) []byte { return b[:walRecordHeaderSize-3] },
		"short-body": func(b []byte) []byte { return b[:len(b)-2] },
	}
	for name, mutate := range mutations {
		c := mutate(append([]byte(nil), rec...))
		if _, _, err := DecodeWALRecord(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s corruption: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDestroyThenOpenIsFresh(t *testing.T) {
	s, dir := openTemp(t, Options{})
	if err := s.Checkpoint([]byte("old state"), 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Destroy(dir, nil); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertNoCheckpoint(t, s2, "store after Destroy")
}
