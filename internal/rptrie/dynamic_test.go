package rptrie

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/topk"
)

// dynIndex is the mutation + query surface shared by both layouts,
// letting the dynamic tests run the same script against each.
type dynIndex interface {
	Insert(trs ...*geo.Trajectory) error
	Delete(ids ...int) int
	Upsert(trs ...*geo.Trajectory) error
	Compact() error
	Generation() uint64
	DeltaLen() int
	Len() int
	Trajectory(id int) *geo.Trajectory
	Search(q []geo.Point, k int) []topk.Item
}

// buildDyn builds one index of the requested layout over ds.
func buildDyn(t *testing.T, layout string, cfg Config, ds []*geo.Trajectory) dynIndex {
	t.Helper()
	tr, err := Build(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	switch layout {
	case "pointer":
		return tr
	case "compressed":
		c, err := CompressTST(tr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	default:
		s, err := Compress(tr)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

var dynLayouts = []string{"pointer", "succinct", "compressed"}

func TestInsertVisibleDeleteInvisible(t *testing.T) {
	ds, q, g := paperDataset()
	for _, layout := range dynLayouts {
		t.Run(layout, func(t *testing.T) {
			idx := buildDyn(t, layout, Config{Measure: dist.Hausdorff, Grid: g}, ds)
			if idx.Len() != 5 || idx.Generation() != 0 {
				t.Fatalf("fresh index: Len=%d gen=%d", idx.Len(), idx.Generation())
			}

			// Insert a near-copy of the query: it must win the next top-1.
			fresh := &geo.Trajectory{ID: 100, Points: append([]geo.Point(nil), q.Points...)}
			if err := idx.Insert(fresh); err != nil {
				t.Fatal(err)
			}
			if idx.Len() != 6 || idx.DeltaLen() != 1 || idx.Generation() != 1 {
				t.Fatalf("after insert: Len=%d delta=%d gen=%d", idx.Len(), idx.DeltaLen(), idx.Generation())
			}
			res := idx.Search(q.Points, 1)
			if len(res) != 1 || res[0].ID != 100 || res[0].Dist != 0 {
				t.Fatalf("inserted exact match not returned: %v", res)
			}
			if got := idx.Trajectory(100); got == nil || got.ID != 100 {
				t.Fatal("Trajectory(100) lookup failed")
			}

			// Delete it again: the very next query must not see it.
			if n := idx.Delete(100); n != 1 {
				t.Fatalf("delete removed %d", n)
			}
			for _, r := range idx.Search(q.Points, 10) {
				if r.ID == 100 {
					t.Fatal("deleted trajectory returned")
				}
			}
			if idx.Trajectory(100) != nil {
				t.Fatal("deleted trajectory still resolvable")
			}

			// Delete a core member (tombstone path).
			if n := idx.Delete(1); n != 1 {
				t.Fatalf("core delete removed %d", n)
			}
			for _, r := range idx.Search(q.Points, 10) {
				if r.ID == 1 {
					t.Fatal("tombstoned core trajectory returned")
				}
			}
			if idx.Len() != 4 {
				t.Fatalf("Len after core delete = %d", idx.Len())
			}
			// Unknown ids are skipped.
			if n := idx.Delete(1, 999); n != 0 {
				t.Fatalf("re-delete removed %d", n)
			}

			// Compact folds everything in and keeps answers identical.
			before := idx.Search(q.Points, 10)
			if err := idx.Compact(); err != nil {
				t.Fatal(err)
			}
			if idx.DeltaLen() != 0 {
				t.Fatalf("delta after compact = %d", idx.DeltaLen())
			}
			after := idx.Search(q.Points, 10)
			if len(before) != len(after) {
				t.Fatalf("compact changed result count: %d vs %d", len(before), len(after))
			}
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("compact changed rank %d: %v vs %v", i, before[i], after[i])
				}
			}
		})
	}
}

func TestInsertErrors(t *testing.T) {
	ds, _, g := paperDataset()
	for _, layout := range dynLayouts {
		t.Run(layout, func(t *testing.T) {
			idx := buildDyn(t, layout, Config{Measure: dist.Hausdorff, Grid: g}, ds)
			if err := idx.Insert(&geo.Trajectory{ID: 50}); err == nil {
				t.Error("empty trajectory insert should fail")
			}
			if err := idx.Insert(mkTraj(1, 1, 1)); err == nil {
				t.Error("duplicate core id insert should fail")
			}
			if err := idx.Insert(mkTraj(50, 1, 1)); err != nil {
				t.Fatal(err)
			}
			if err := idx.Insert(mkTraj(50, 2, 2)); err == nil {
				t.Error("duplicate pending id insert should fail")
			}
			// A failed batch applies nothing.
			gen := idx.Generation()
			if err := idx.Insert(mkTraj(60, 1, 1), mkTraj(50, 2, 2)); err == nil {
				t.Error("batch with duplicate should fail")
			}
			if idx.Generation() != gen || idx.Trajectory(60) != nil {
				t.Error("failed batch must not apply partially")
			}
		})
	}
}

func TestUpsertReplaces(t *testing.T) {
	ds, q, g := paperDataset()
	for _, layout := range dynLayouts {
		t.Run(layout, func(t *testing.T) {
			idx := buildDyn(t, layout, Config{Measure: dist.Hausdorff, Grid: g}, ds)
			// Replace core member 2 with an exact query match.
			repl := &geo.Trajectory{ID: 2, Points: append([]geo.Point(nil), q.Points...)}
			if err := idx.Upsert(repl); err != nil {
				t.Fatal(err)
			}
			if idx.Len() != 5 {
				t.Fatalf("Len after upsert = %d", idx.Len())
			}
			res := idx.Search(q.Points, 1)
			if len(res) != 1 || res[0].ID != 2 || res[0].Dist != 0 {
				t.Fatalf("upserted version not returned: %v", res)
			}
			// Upsert of a fresh id behaves like insert.
			if err := idx.Upsert(mkTraj(70, 3, 3)); err != nil {
				t.Fatal(err)
			}
			if idx.Len() != 6 {
				t.Fatalf("Len after fresh upsert = %d", idx.Len())
			}
			// In-batch duplicates fail atomically.
			if err := idx.Upsert(mkTraj(80, 1, 1), mkTraj(80, 2, 2)); err == nil {
				t.Error("upsert with in-batch duplicate should fail")
			}
			// Re-insert after delete of a core id serves the new version.
			idx.Delete(3)
			if err := idx.Insert(mkTraj(3, 0.5, 6.5)); err != nil {
				t.Fatal(err)
			}
			got := idx.Trajectory(3)
			if got == nil || len(got.Points) != 1 {
				t.Fatalf("re-inserted version not served: %+v", got)
			}
		})
	}
}

// TestSnapshotIsolation pins the core guarantee at the trie level: a
// state captured before a mutation keeps answering from the old
// world, even across a compaction.
func TestSnapshotIsolation(t *testing.T) {
	ds, q, g := paperDataset()
	tr, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	old := tr.state()
	if err := tr.Insert(&geo.Trajectory{ID: 100, Points: q.Points}); err != nil {
		t.Fatal(err)
	}
	tr.Delete(1)
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	// The old snapshot still holds the pre-mutation world.
	if old.live() != 5 || old.trajectory(100) != nil || old.trajectory(1) == nil {
		t.Fatalf("old snapshot mutated: live=%d", old.live())
	}
	// And the current one holds the new world.
	cur := tr.state()
	if cur.live() != 5 || cur.trajectory(100) == nil || cur.trajectory(1) != nil {
		t.Fatalf("current snapshot wrong: live=%d", cur.live())
	}
}

func TestStaleGenerationPin(t *testing.T) {
	ds, q, g := paperDataset()
	tr, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SearchContext(nil, q.Points, 2, SearchOptions{MinGen: 1}); !errors.Is(err, ErrStale) {
		t.Fatalf("future pin on top-k: err = %v", err)
	}
	if _, err := tr.SearchRadiusContext(nil, q.Points, 1, SearchOptions{MinGen: 1}); !errors.Is(err, ErrStale) {
		t.Fatalf("future pin on radius: err = %v", err)
	}
	if err := tr.Insert(mkTraj(100, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SearchContext(nil, q.Points, 2, SearchOptions{MinGen: tr.Generation()}); err != nil {
		t.Fatalf("satisfied pin failed: %v", err)
	}
	s, err := Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SearchContext(nil, q.Points, 2, SearchOptions{MinGen: s.Generation() + 1}); !errors.Is(err, ErrStale) {
		t.Fatalf("future pin on succinct: err = %v", err)
	}
}

// TestRadiusUnderMutation pins the range path's delta handling.
func TestRadiusUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	ds := randomDataset(rng, 60)
	adds, dels := randomFresh(rng, 1000, 10), []int{3, 7, 21}
	q := randomDataset(rng, 1)[0]
	for _, name := range radiusIndexes {
		idx := buildSurface(t, name, Config{Measure: dist.Hausdorff, Params: p, Grid: g}, ds)
		mirror := oracle.NewSet(ds)
		if err := idx.Insert(adds...); err != nil {
			t.Fatal(err)
		}
		mirror.Insert(adds...)
		idx.Delete(dels...)
		mirror.Delete(dels...)
		for _, radius := range []float64{0.3, 1.5, 4} {
			got := radiusOf(t, idx, q.Points, radius)
			want := mirror.Radius(dist.Hausdorff, p, q.Points, radius)
			if len(got) != len(want) {
				t.Fatalf("%s radius %g: %d hits, want %d", name, radius, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || !close9(got[i].Dist, want[i].Dist) {
					t.Fatalf("%s radius %g rank %d: %+v want %+v", name, radius, i, got[i], want[i])
				}
			}
		}
	}
}

// randomFresh makes n random trajectories with ids starting at base.
func randomFresh(rng *rand.Rand, base, n int) []*geo.Trajectory {
	out := randomDataset(rng, n)
	for i, tr := range out {
		tr.ID = base + i
	}
	return out
}

func close9(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestCompactPreservesOptimization: compaction of an optimized trie
// re-runs the hitting-set construction over the merged set.
func TestCompactPreservesOptimization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, _ := grid.NewWithBits(region, 3)
	ds := randomDataset(rng, 50)
	tr, err := Build(Config{Measure: dist.Hausdorff, Grid: g, Optimize: true}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(randomFresh(rng, 500, 20)...); err != nil {
		t.Fatal(err)
	}
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	// A from-scratch optimized build over the same live set must have
	// the same shape.
	fresh, err := Build(Config{Measure: dist.Hausdorff, Grid: g, Optimize: true}, tr.state().delta.merged(tr.state().trajs))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != fresh.NumNodes() || tr.NumLeaves() != fresh.NumLeaves() {
		t.Fatalf("compacted shape (%d nodes, %d leaves) != fresh build (%d, %d)",
			tr.NumNodes(), tr.NumLeaves(), fresh.NumNodes(), fresh.NumLeaves())
	}
}

// TestPersistFoldsDelta: Save with a pending delta writes the live
// set; the restored trie answers identically and starts compacted.
func TestPersistFoldsDelta(t *testing.T) {
	ds, q, g := paperDataset()
	tr, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(&geo.Trajectory{ID: 100, Points: q.Points}); err != nil {
		t.Fatal(err)
	}
	tr.Delete(2)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrie(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.DeltaLen() != 0 {
		t.Fatalf("restored Len=%d delta=%d, want Len=%d delta=0", got.Len(), got.DeltaLen(), tr.Len())
	}
	want := tr.Search(q.Points, 4)
	res := got.Search(q.Points, 4)
	if len(res) != len(want) {
		t.Fatalf("restored results %v, want %v", res, want)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("restored rank %d: %v want %v", i, res[i], want[i])
		}
	}
}
