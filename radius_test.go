package repose

import (
	"context"
	"math"
	"testing"

	"repose/internal/dist"
	"repose/internal/oracle"
)

// assertRadiusMatchesOracle checks one range answer against
// internal/oracle, bit for bit.
func assertRadiusMatchesOracle(t *testing.T, label string, idx *Index, ds []*Trajectory, q *Trajectory, radius float64) {
	t.Helper()
	got, err := idx.SearchRadius(context.Background(), q, radius)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := oracle.Radius(dist.Hausdorff, dist.Params{Epsilon: idx.opts.Epsilon, Gap: idx.region.Min}, ds, q.Points, radius)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i, r := range got {
		if r.ID != want[i].ID || math.Float64bits(r.Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: rank %d = %+v, oracle %+v", label, i, r, want[i])
		}
	}
	// The query itself is always inside any radius.
	if len(got) == 0 || got[0].ID != q.ID || got[0].Dist != 0 {
		t.Errorf("%s: self match missing: %+v", label, got)
	}
}

func TestSearchRadiusPublicAPI(t *testing.T) {
	ds := testData(t, 150)
	for _, layout := range []Layout{LayoutPointer, LayoutSuccinct, LayoutCompressed} {
		idx, err := Build(ds, Options{Partitions: 4}, WithLayout(layout))
		if err != nil {
			t.Fatal(err)
		}
		assertRadiusMatchesOracle(t, layout.String(), idx, ds, ds[12], 0.4)
	}
}
