package repose

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
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
