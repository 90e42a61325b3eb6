package repose

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repose/internal/dist"
	"repose/internal/oracle"
)

// TestDurableBuildReopen is the public-API acceptance test for the
// disk-backed mode: an index built with WithDurableDir, mutated, and
// closed must come back from OpenDurable with bit-identical answers
// — no dataset in hand — and keep accepting durable mutations.
func TestDurableBuildReopen(t *testing.T) {
	ds := testData(t, 140)
	ctx := context.Background()
	for _, layout := range []Layout{LayoutPointer, LayoutSuccinct, LayoutCompressed} {
		t.Run(fmt.Sprintf("layout=%v", layout), func(t *testing.T) {
			dir := t.TempDir()
			idx, err := Build(ds, Options{Partitions: 3}, WithDurableDir(dir), WithLayout(layout))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			adds := make([]*Trajectory, 5)
			for i := range adds {
				adds[i] = freshTraj(rng, 700_000+i)
			}
			if err := idx.Insert(ctx, adds); err != nil {
				t.Fatal(err)
			}
			if n, err := idx.Delete(ctx, []int{ds[3].ID, ds[7].ID}); err != nil || n != 2 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			probe := adds[0]
			want, err := idx.Search(ctx, probe, 8)
			if err != nil {
				t.Fatal(err)
			}
			wantStats := idx.Stats()
			wantRadius, err := idx.SearchRadius(ctx, probe, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenDurable(dir)
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			defer re.Close()
			got, err := re.Search(ctx, probe, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered search differs:\n got %v\nwant %v", got, want)
			}
			if st := re.Stats(); st.Trajectories != wantStats.Trajectories {
				t.Fatalf("recovered Stats.Trajectories = %d, want %d", st.Trajectories, wantStats.Trajectories)
			}
			gr, err := re.SearchRadius(ctx, probe, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gr, wantRadius) {
				t.Fatalf("recovered radius search differs:\n got %v\nwant %v", gr, wantRadius)
			}

			// The recovered index keeps journaling: insert, reopen
			// again, and the new trajectory must still be there.
			late := freshTraj(rng, 800_000)
			if err := re.Insert(ctx, []*Trajectory{late}); err != nil {
				t.Fatalf("insert on recovered index: %v", err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			res, err := re2.Search(ctx, late, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].ID != late.ID || res[0].Dist != 0 {
				t.Fatalf("post-recovery insert lost across reopen: %v", res)
			}
		})
	}
}

// TestOpenDurableMissing: a directory with no manifest is not a
// durable index, and the error must say so rather than panic or
// return an empty index.
func TestOpenDurableMissing(t *testing.T) {
	if _, err := OpenDurable(t.TempDir()); err == nil {
		t.Fatal("OpenDurable on an empty directory succeeded")
	}
}

// TestDurableReopenAfterSplit: a durable local index reopens after
// SplitPartition with every partition the split made, not the count it
// was built with. The reopened index answers bit-identically to
// internal/oracle over the live set, counts exactly the live
// trajectories, and still routes a delete of a moved id to the
// partition that now holds it.
func TestDurableReopenAfterSplit(t *testing.T) {
	ds := testData(t, 140)
	ctx := context.Background()
	dir := t.TempDir()
	idx, err := Build(ds, Options{Partitions: 3}, WithDurableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	newPid, err := idx.SplitPartition(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	inNew, err := idx.SearchRadius(ctx, ds[0], math.MaxFloat64, WithPartitions(newPid))
	if err != nil || len(inNew) == 0 {
		t.Fatalf("split moved nothing (err %v)", err)
	}
	var moved []int
	for _, it := range inNew {
		moved = append(moved, it.ID)
	}
	live := oracle.NewSet(ds)
	rng := rand.New(rand.NewSource(23))
	adds := []*Trajectory{freshTraj(rng, 900_000), freshTraj(rng, 900_001), freshTraj(rng, 900_002)}
	if err := idx.Insert(ctx, adds); err != nil {
		t.Fatal(err)
	}
	live.Insert(adds...)
	victims := []int{ds[5].ID, adds[1].ID}
	if n, err := idx.Delete(ctx, victims); err != nil || n != len(victims) {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	live.Delete(victims...)
	mid := -1 // a moved id still live
	for _, id := range moved {
		if live.Has(id) {
			mid = id
			break
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable after a split: %v", err)
	}
	defer re.Close()
	if got := re.Stats().Trajectories; got != live.Len() {
		t.Fatalf("reopened Stats().Trajectories = %d, live set holds %d", got, live.Len())
	}
	params := dist.Params{Epsilon: re.opts.Epsilon, Gap: re.region.Min}
	for i, q := range []*Trajectory{adds[0], ds[17], live.Get(mid), freshTraj(rng, -1)} {
		got, err := re.Search(ctx, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := live.TopK(dist.Hausdorff, params, q.Points, 8)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, oracle %d", i, len(got), len(want))
		}
		for r := range got {
			if got[r].ID != want[r].ID || math.Float64bits(got[r].Dist) != math.Float64bits(want[r].Dist) {
				t.Fatalf("query %d rank %d: %+v, oracle %+v", i, r, got[r], want[r])
			}
		}
	}
	if n, err := re.Delete(ctx, []int{mid}); err != nil || n != 1 {
		t.Fatalf("delete of moved id %d after reopen: n=%d err=%v", mid, n, err)
	}
	if got := re.Stats().Trajectories; got != live.Len()-1 {
		t.Fatalf("after deleting a moved id Stats().Trajectories = %d, want %d", got, live.Len()-1)
	}
	if got, err := re.Search(ctx, live.Get(mid), 1); err != nil || len(got) != 1 || got[0].ID == mid {
		t.Fatalf("deleted moved id %d still answers: %v (err %v)", mid, got, err)
	}
}
