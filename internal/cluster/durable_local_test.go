package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/leakcheck"
	"repose/internal/rptrie"
	"repose/internal/storage"
)

// TestLocalDurableBuildOpen: the in-process engine's disk-backed mode,
// all three layouts. BuildInProcess installs every partition under the
// data directory, mutations journal, Close flushes, and OpenInProcess
// recovers the engine — routing directory included — to bit-identical
// answers, with mutation routing still working after recovery.
func TestLocalDurableBuildOpen(t *testing.T) {
	for _, layout := range []rptrie.Layout{rptrie.LayoutPointer, rptrie.LayoutSuccinct, rptrie.LayoutCompressed} {
		t.Run(fmt.Sprintf("layout=%v", layout), func(t *testing.T) {
			base := leakcheck.Base()
			defer leakcheck.Settle(t, base)
			dir := t.TempDir()
			ds, parts, spec := testWorld(t, 150, 3)
			spec.Layout = layout
			ctx := context.Background()

			eng, err := BuildInProcess(spec, parts, 4, dir)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			adds := freshTrajs(rng, 600_000, 8)
			if _, err := eng.Insert(ctx, adds, MutateOptions{}); err != nil {
				t.Fatal(err)
			}
			if n, _, err := eng.Delete(ctx, []int{ds[2].ID, ds[9].ID}, MutateOptions{}); err != nil || n != 2 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			if _, err := eng.Compact(ctx, nil); err != nil {
				t.Fatalf("compact: %v", err)
			}
			q := dataset.Queries(ds, 2, 77)[0]
			want, _, err := eng.Search(ctx, q.Points, 7, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantRad, _, err := eng.SearchRadius(ctx, q.Points, 0.8, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantLen := eng.Len()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenInProcess(spec, len(parts), 0, dir)
			if err != nil {
				t.Fatalf("OpenInProcess: %v", err)
			}
			defer re.Close()
			if re.NumPartitions() != len(parts) || re.Len() != wantLen {
				t.Fatalf("recovered %d partitions / %d trajectories, want %d / %d",
					re.NumPartitions(), re.Len(), len(parts), wantLen)
			}
			if re.BuildTime() <= 0 {
				t.Fatal("recovery reported a zero build time")
			}
			got, _, err := re.Search(ctx, q.Points, 7, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "recovered local search", 9, got, want)
			gotRad, _, err := re.SearchRadius(ctx, q.Points, 0.8, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "recovered local radius", 9, gotRad, wantRad)

			// The rebuilt routing directory still targets existing ids:
			// an upsert of a build-time trajectory must not duplicate
			// it, and a delete of an inserted one must land on its
			// partition.
			if _, err := re.Upsert(ctx, []*geo.Trajectory{ds[4]}, MutateOptions{}); err != nil {
				t.Fatal(err)
			}
			if re.Len() != wantLen {
				t.Fatalf("upsert of an existing id changed Len to %d, want %d", re.Len(), wantLen)
			}
			if n, _, err := re.Delete(ctx, []int{adds[0].ID}, MutateOptions{}); err != nil || n != 1 {
				t.Fatalf("delete of recovered insert: n=%d err=%v", n, err)
			}
		})
	}
}

// buildDurable builds spec in process under dir and closes it, leaving
// the directory to reopen.
func buildDurable(t *testing.T, spec IndexSpec, parts [][]*geo.Trajectory, dir string) {
	t.Helper()
	eng, err := BuildInProcess(spec, parts, 2, dir)
	if err == nil {
		err = eng.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestLocalDurableBaselineAndErrors: baseline algorithms have no
// persistence, so BuildInProcess passes them through without
// creating stores; and the build/open paths surface real failures —
// an unusable data-dir path, corrupted image slots, a partition in the
// retired paged format, and partition stores that are not p0..p<n-1>.
func TestLocalDurableBaselineAndErrors(t *testing.T) {
	_, parts, spec := testWorld(t, 60, 2)

	dir := t.TempDir()
	bspec := spec
	bspec.Algorithm = LS
	buildDurable(t, bspec, parts, dir)
	if _, err := OpenInProcess(bspec, len(parts), 2, dir); err == nil {
		t.Fatal("baseline engine left recoverable stores behind")
	}

	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildInProcess(spec, parts, 2, blocked); err == nil {
		t.Fatal("build into a regular-file data dir succeeded")
	}

	dir2 := t.TempDir()
	buildDurable(t, spec, parts, dir2)
	junk := bytes.Repeat([]byte{0x5a}, 4096)
	for _, slot := range []string{"image.0", "image.1"} {
		if err := os.WriteFile(filepath.Join(dir2, partDirName(0), slot), junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenInProcess(spec, len(parts), 2, dir2); !errors.Is(err, rptrie.ErrNoDurable) {
		t.Fatalf("open over corrupted image slots = %v, want ErrNoDurable", err)
	}
	// A partition left in the retired paged format is refused by name.
	p0 := filepath.Join(dir2, partDirName(0))
	if err := storage.Destroy(p0, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(p0, "pages.db"), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenInProcess(spec, len(parts), 2, dir2); !errors.Is(err, rptrie.ErrNoDurable) || !strings.Contains(err.Error(), "pages.db") {
		t.Fatalf("open over a pages.db partition = %v, want ErrNoDurable naming pages.db", err)
	}

	// The directory, not the caller, decides how many partitions there
	// are: a smaller count opens all of them, and a gap fails.
	dir3 := t.TempDir()
	buildDurable(t, spec, parts, dir3)
	re, err := OpenInProcess(spec, 1, 2, dir3)
	if err != nil {
		t.Fatalf("open with fewer partitions than the directory holds: %v", err)
	}
	if re.NumPartitions() != len(parts) {
		t.Fatalf("opened %d partitions, the directory holds %d", re.NumPartitions(), len(parts))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir3, partDirName(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenInProcess(spec, 1, 2, dir3); err == nil {
		t.Fatal("open of a directory missing p0 succeeded")
	}
}

// TestOpenLocalDurableMissingPartition: OpenInProcess's recovery is
// all-or-nothing — a data directory missing one partition's store must
// fail the open rather than serve partial answers.
func TestOpenLocalDurableMissingPartition(t *testing.T) {
	dir := t.TempDir()
	_, parts, spec := testWorld(t, 80, 2)
	buildDurable(t, spec, parts, dir)
	if _, err := OpenInProcess(spec, len(parts)+1, 2, dir); err == nil {
		t.Fatal("open with a missing partition store succeeded")
	}
	if _, err := OpenInProcess(spec, 0, 2, dir); err == nil {
		t.Fatal("open with zero partitions succeeded")
	}
}
