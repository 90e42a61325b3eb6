package rptrie

import (
	"math/rand"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
)

// TestSearchRadiusMatchesBruteForce: range results must be exactly
// the trajectories within the radius, for every measure and on every
// layout (radiusIndexes).
func TestSearchRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	for trial := 0; trial < 10; trial++ {
		ds := randomDataset(rng, 80)
		q := randomDataset(rng, 1)[0]
		for _, m := range dist.Measures() {
			pivots := pivot.Select(ds, 3, 5, m, p, 3)
			for _, name := range radiusIndexes {
				idx := buildSurface(t, name, Config{Measure: m, Params: p, Grid: g, Pivots: pivots}, ds)
				for _, radius := range []float64{0.5, 2.0, 100.0} {
					got := radiusOf(t, idx, q.Points, radius)
					want := map[int]float64{}
					for _, tr := range ds {
						if d := dist.Distance(m, q.Points, tr.Points, p); d <= radius {
							want[tr.ID] = d
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%s %v radius %v trial %d: got %d results, want %d",
							name, m, radius, trial, len(got), len(want))
					}
					for i, r := range got {
						w, ok := want[r.ID]
						if !ok {
							t.Fatalf("%s %v: unexpected id %d", name, m, r.ID)
						}
						if d := r.Dist - w; d > 1e-9 || d < -1e-9 {
							t.Fatalf("%s %v: id %d dist %v want %v", name, m, r.ID, r.Dist, w)
						}
						if i > 0 && got[i-1].Dist > r.Dist {
							t.Fatalf("%s %v: results unsorted", name, m)
						}
					}
				}
			}
		}
	}
}

func TestSearchRadiusEdgeCases(t *testing.T) {
	ds, q, g := paperDataset()
	for _, name := range radiusIndexes {
		idx := buildSurface(t, name, Config{Measure: dist.Hausdorff, Grid: g}, ds)
		if got := radiusOf(t, idx, nil, 5); got != nil {
			t.Errorf("%s: empty query = %v", name, got)
		}
		if got := radiusOf(t, idx, q.Points, -1); got != nil {
			t.Errorf("%s: negative radius = %v", name, got)
		}
		// Radius 0 with an exact duplicate finds it.
		dup := radiusOf(t, idx, ds[0].Points, 0)
		if len(dup) != 1 || dup[0].ID != ds[0].ID {
			t.Errorf("%s: radius 0 = %v", name, dup)
		}
		// Example 1 distances: radius 3.0 captures τ1 (2.83) only.
		got := radiusOf(t, idx, q.Points, 3.0)
		if len(got) != 1 || got[0].ID != 1 {
			t.Errorf("%s: radius 3 = %v, want only τ1", name, got)
		}
		// Radius 6.5 captures τ1, τ4, τ2, τ5 (2.83, 3.16, 6.08, 6.08).
		got = radiusOf(t, idx, q.Points, 6.5)
		if len(got) != 4 {
			t.Errorf("%s: radius 6.5 = %v, want 4 results", name, got)
		}
	}
}
