package rptrie

import (
	"fmt"
	"math/rand"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/pivot"
	"repose/internal/topk"
)

// Randomized differential testing: for every measure and both
// layouts, seeded random datasets answer seeded random queries and
// the answers are pinned to internal/oracle — before any mutation,
// interleaved with random Insert/Delete/Upsert/Compact, and after a
// final compaction. Every failure message leads with the case seed,
// so a reported seed reproduces the exact dataset, queries, and
// mutation schedule.

const (
	diffDatasetsFull  = 10
	diffDatasetsShort = 3
	diffPreQueries    = 40 // queries before any mutation
	diffMutSteps      = 60 // mutation steps, querying every 2nd step
	diffPostQueries   = 40 // queries after the final compaction
)

// diffCasesPerDataset is the number of query/dataset cases one
// dataset contributes: with the full dataset count that is ≥ 1000
// cases per measure per layout.
const diffCasesPerDataset = diffPreQueries + diffMutSteps/2 + diffPostQueries

func TestDifferentialTrieVsOracle(t *testing.T) {
	datasets := diffDatasetsFull
	if testing.Short() {
		datasets = diffDatasetsShort
	}
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	for _, m := range dist.Measures() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			for _, layout := range dynLayouts {
				cases := 0
				for di := 0; di < datasets; di++ {
					seed := int64(0x5EED0 + 1000*int(m) + di)
					cases += runDifferentialCase(t, layout, m, p, region, seed)
				}
				if cases < 1000 && !testing.Short() {
					t.Fatalf("layout %s ran only %d cases, want ≥ 1000", layout, cases)
				}
			}
		})
	}
}

// runDifferentialCase runs one dataset's full script and returns the
// number of query cases it compared.
func runDifferentialCase(t *testing.T, layout string, m dist.Measure, p dist.Params, region geo.Rect, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := grid.NewWithBits(region, 3+rng.Intn(3))
	if err != nil {
		t.Fatal(err)
	}
	ds := randomDataset(rng, 30+rng.Intn(30))
	var pivots []*geo.Trajectory
	if rng.Intn(2) == 0 && m.IsMetric() {
		pivots = pivot.Select(ds, 3, 5, m, p, seed)
	}
	cfg := Config{
		Measure:  m,
		Params:   p,
		Grid:     g,
		Pivots:   pivots,
		Optimize: rng.Intn(2) == 0 && m.OrderIndependent(),
	}
	idx := buildDyn(t, layout, cfg, ds)
	mirror := oracle.NewSet(ds)
	nextID := 1000
	cases := 0

	label := func(phase string, i int) string {
		return fmt.Sprintf("seed=%d layout=%s measure=%v %s[%d]", seed, layout, m, phase, i)
	}
	compare := func(ctx string) {
		q := randomDataset(rng, 1)[0]
		k := 1 + rng.Intn(12)
		diffAssertTopK(t, ctx, m, p, mirror, q.Points, k, idx.Search(q.Points, k))
		// Range queries: every layout answers them through the shared
		// handle, and all must match the oracle.
		if rs, ok := idx.(interface {
			SearchRadius(q []geo.Point, radius float64) []topk.Item
		}); ok && rng.Intn(4) == 0 {
			radius := 0.2 + rng.Float64()*3
			diffAssertRadius(t, ctx, m, p, mirror, q.Points, radius, rs.SearchRadius(q.Points, radius))
		}
		cases++
	}

	for i := 0; i < diffPreQueries; i++ {
		compare(label("pre", i))
	}
	for step := 0; step < diffMutSteps; step++ {
		switch r := rng.Intn(10); {
		case r < 4: // insert fresh
			n := 1 + rng.Intn(3)
			fresh := randomFresh(rng, nextID, n)
			nextID += n
			if err := idx.Insert(fresh...); err != nil {
				t.Fatalf("%s: insert: %v", label("mut", step), err)
			}
			mirror.Insert(fresh...)
		case r < 8: // delete random live ids
			ids := mirror.IDs()
			if len(ids) == 0 {
				continue
			}
			victims := []int{ids[rng.Intn(len(ids))]}
			if len(ids) > 1 && rng.Intn(2) == 0 {
				victims = append(victims, ids[rng.Intn(len(ids))])
			}
			got := idx.Delete(victims...)
			want := mirror.Delete(victims...)
			if got != want {
				t.Fatalf("%s: delete removed %d, oracle %d", label("mut", step), got, want)
			}
		case r < 9: // upsert an existing id with new points
			ids := mirror.IDs()
			if len(ids) == 0 {
				continue
			}
			repl := randomFresh(rng, ids[rng.Intn(len(ids))], 1)
			if err := idx.Upsert(repl...); err != nil {
				t.Fatalf("%s: upsert: %v", label("mut", step), err)
			}
			mirror.Insert(repl...)
		default: // compact mid-stream
			if err := idx.Compact(); err != nil {
				t.Fatalf("%s: compact: %v", label("mut", step), err)
			}
		}
		if step%2 == 1 {
			compare(label("mut", step))
		}
	}
	if err := idx.Compact(); err != nil {
		t.Fatalf("seed=%d: final compact: %v", seed, err)
	}
	if idx.DeltaLen() != 0 {
		t.Fatalf("seed=%d: delta %d after final compact", seed, idx.DeltaLen())
	}
	if idx.Len() != mirror.Len() {
		t.Fatalf("seed=%d: index holds %d live, oracle %d", seed, idx.Len(), mirror.Len())
	}
	for i := 0; i < diffPostQueries; i++ {
		compare(label("post", i))
	}
	return cases
}

// diffAssertTopK checks got against the oracle: same length, same
// distance profile, every reported distance exact for its id. Result
// sets may differ from the oracle inside tied-distance groups.
func diffAssertTopK(t *testing.T, ctx string, m dist.Measure, p dist.Params, mirror *oracle.Set, q []geo.Point, k int, got []topk.Item) {
	t.Helper()
	want := mirror.TopK(m, p, q, k)
	if len(got) != len(want) {
		t.Fatalf("%s k=%d: got %d results, want %d\ngot  %v\nwant %v", ctx, k, len(got), len(want), got, want)
	}
	seen := make(map[int]bool, len(got))
	for i := range got {
		if !close9(got[i].Dist, want[i].Dist) {
			t.Fatalf("%s k=%d: rank %d distance %v, oracle %v\ngot  %v\nwant %v",
				ctx, k, i, got[i].Dist, want[i].Dist, got, want)
		}
		if seen[got[i].ID] {
			t.Fatalf("%s: duplicate id %d in results %v", ctx, got[i].ID, got)
		}
		seen[got[i].ID] = true
		tr := mirror.Get(got[i].ID)
		if tr == nil {
			t.Fatalf("%s: result id %d is not live", ctx, got[i].ID)
		}
		if exact := dist.Distance(m, q, tr.Points, p); !close9(got[i].Dist, exact) {
			t.Fatalf("%s: id %d reported %v, true distance %v", ctx, got[i].ID, got[i].Dist, exact)
		}
	}
}

// diffAssertRadius checks a range answer id-for-id (no ties caveat:
// every in-range id must appear).
func diffAssertRadius(t *testing.T, ctx string, m dist.Measure, p dist.Params, mirror *oracle.Set, q []geo.Point, radius float64, got []topk.Item) {
	t.Helper()
	want := mirror.Radius(m, p, q, radius)
	if len(got) != len(want) {
		t.Fatalf("%s radius=%g: got %d hits, want %d\ngot  %v\nwant %v", ctx, radius, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID || !close9(got[i].Dist, want[i].Dist) {
			t.Fatalf("%s radius=%g: rank %d %+v, oracle %+v", ctx, radius, i, got[i], want[i])
		}
	}
}
