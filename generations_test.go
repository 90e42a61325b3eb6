package repose

import (
	"context"
	"testing"
)

// TestHealthLocalEngine pins a local index's Health surface: its one
// in-process worker, healthy while open and down once the index closes
// — so callers (the serve gateway's /healthz) need no deployment-
// specific branches.
func TestHealthLocalEngine(t *testing.T) {
	ds := testData(t, 40)
	idx, err := Build(ds, Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := idx.Health()
	if len(h) != 1 || h[0].Addr != "local" || h[0].Down || h[0].StaleParts != 0 {
		t.Fatalf("open local Health() = %+v, want one healthy synthetic worker", h)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	h = idx.Health()
	if len(h) != 1 || !h[0].Down {
		t.Fatalf("closed local Health() = %+v, want the synthetic worker down", h)
	}
}

// TestGenerationsAdvanceAndReport pins the answer-cache contract on
// the public API: Generations() has one monotone entry per
// partition, a mutation's bump is visible by the time the call
// returns, Stats carries the same vector, and queries report the
// vector they dispatched under plus cache eligibility.
func TestGenerationsAdvanceAndReport(t *testing.T) {
	ds := testData(t, 60)
	idx, err := Build(ds, Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()

	gens := idx.Generations()
	if len(gens) != 3 {
		t.Fatalf("Generations() length = %d, want 3", len(gens))
	}
	if st := idx.Stats(); !equalGens(st.Generations, gens) {
		t.Fatalf("Stats.Generations = %v, Generations() = %v", st.Generations, gens)
	}

	if err := idx.Insert(ctx, []*Trajectory{{ID: 900_100, Points: ds[0].Points}}); err != nil {
		t.Fatal(err)
	}
	after := idx.Generations()
	bumped := 0
	for i := range gens {
		if after[i] < gens[i] {
			t.Fatalf("generation %d went backwards: %d -> %d", i, gens[i], after[i])
		}
		if after[i] > gens[i] {
			bumped++
		}
	}
	if bumped == 0 {
		t.Fatalf("insert did not advance any generation: %v -> %v", gens, after)
	}

	var report QueryReport
	if _, err := idx.Search(ctx, ds[5], 5, WithReport(&report)); err != nil {
		t.Fatal(err)
	}
	if !equalGens(report.Generations, after) {
		t.Fatalf("QueryReport.Generations = %v, want %v", report.Generations, after)
	}
	if !report.CacheEligible {
		t.Error("full-coverage query not CacheEligible")
	}

	report = QueryReport{}
	if _, err := idx.Search(ctx, ds[5], 5, WithReport(&report), WithPartitions(0)); err != nil {
		t.Fatal(err)
	}
	if report.CacheEligible {
		t.Error("partition-restricted query reported CacheEligible")
	}
}

func equalGens(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
