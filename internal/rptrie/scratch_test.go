package rptrie

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/leakcheck"
	"repose/internal/pivot"
	"repose/internal/topk"
)

// bitIdentical reports whether two result lists agree exactly: same
// ids in the same order and bit-for-bit equal float64 distances.
func bitIdentical(a, b []topk.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// scratchConfig builds a trie config for m over the [0,8]² region,
// with pivots when the measure is metric.
func scratchConfig(t *testing.T, m dist.Measure, ds []*geo.Trajectory) Config {
	t.Helper()
	g, err := grid.NewWithBits(geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 8, Y: 8}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := dist.Params{Epsilon: 0.7, Gap: geo.Point{X: 0, Y: 0}}
	cfg := Config{Measure: m, Params: params, Grid: g}
	if m.IsMetric() {
		cfg.Pivots = pivot.Select(ds, 3, pivot.DefaultGroups, m, params, 5)
	}
	return cfg
}

// TestScratchReuseBitIdentical interleaves queries of deliberately
// mismatched lengths and kinds (top-k with varying k, range) on one
// pooled index and asserts every answer is bit-identical to the same
// query on a freshly built index whose scratch pool has never been
// used — the property the recycled arenas must preserve.
func TestScratchReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := randomDataset(rng, 60)
	for _, m := range dist.Measures() {
		cfg := scratchConfig(t, m, ds)
		pooled, err := Build(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			// Lengths jump wildly between queries so every reused
			// buffer is exercised at a different size than last time.
			qlen := 1 + rng.Intn(40)
			q := make([]geo.Point, qlen)
			for i := range q {
				q[i] = geo.Point{X: rng.Float64()*10 - 1, Y: rng.Float64()*10 - 1}
			}
			fresh, err := Build(cfg, ds)
			if err != nil {
				t.Fatal(err)
			}
			if trial%3 == 2 {
				radius := rng.Float64() * 6
				got, err := pooled.SearchRadiusContext(nil, q, radius, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want := fresh.SearchRadius(q, radius)
				if !bitIdentical(got, want) {
					t.Fatalf("%v trial %d radius %g: pooled %v != fresh %v", m, trial, radius, got, want)
				}
				continue
			}
			k := 1 + rng.Intn(12)
			got := pooled.Search(q, k)
			want := fresh.Search(q, k)
			if !bitIdentical(got, want) {
				t.Fatalf("%v trial %d k=%d qlen=%d: pooled %v != fresh %v", m, trial, k, qlen, got, want)
			}
		}
	}
}

// TestScratchSegmentBoundsDoNotLeak: under DTW a query maintains the
// query-side minima LBoSub reads only when it asks for segment bounds.
// On the chain corpus, every layout answers an interleaving of
// whole-trajectory top-k, subtrajectory top-k, and plain and
// subtrajectory radius queries through one search scratch, and every
// answer is oracle-exact. A scratch that carried one query's "no segment
// bounds" into the next subtrajectory query would prune its leaves on
// minima that were never computed.
func TestScratchSegmentBoundsDoNotLeak(t *testing.T) {
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	const seed = 0x5E6
	w, rng := newChainWorld(t, dist.DTW, p, seed)
	queries := chainQueries(rng, w.mirror.Slice(), 24)
	for _, layout := range dynLayouts {
		st := w.idxs[layout].(interface{ state() *state }).state()
		sc := &searchScratch{qb: &dist.QueryBounds{}}
		for qi, q := range queries {
			k := 1 + rng.Intn(6)
			sp := RefineSpec{Sub: true, MinSeg: 1 + rng.Intn(3), MaxSeg: 4 + rng.Intn(6)}
			sub := SearchOptions{Refiner: NewRefiner(dist.DTW, p, sp)}
			ctx := fmt.Sprintf("seed=%d layout=%s q[%d] k=%d", seed, layout, qi, k)

			s := newSearcher(nil, w.cfg, st, sc, SearchOptions{})
			got, _, err := s.run(st.core.rootRef(sc), q, k, nil)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			assertExactTopK(t, ctx+" top-k", dist.DTW, p, w.mirror, q, k, got)

			s = newSearcher(nil, w.cfg, st, sc, sub)
			got, _, err = s.run(st.core.rootRef(sc), q, k, nil)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			want := w.mirror.TopKRefined(dist.DTW, p, q, k, specOracle(sp))
			assertRefinedTopK(t, ctx+" sub top-k", dist.DTW, p, w.mirror, q, specOracle(sp), got, want)

			radius := w.mirror.TopK(dist.DTW, p, q, k)[0].Dist * (1 + rng.Float64())
			got, err = searchRadius(nil, w.cfg, st, sc, q, radius, SearchOptions{})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			assertRefinedItems(t, ctx+fmt.Sprintf(" radius=%g", radius), got, w.mirror.Radius(dist.DTW, p, q, radius))

			if len(want) == 0 {
				t.Fatalf("%s: no segment qualifies, the sub queries test nothing", ctx)
			}
			radius = want[len(want)-1].Dist
			got, err = searchRadius(nil, w.cfg, st, sc, q, radius, sub)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			assertRefinedItems(t, ctx+fmt.Sprintf(" sub radius=%g", radius), got, w.mirror.RadiusRefined(dist.DTW, p, q, radius, specOracle(sp)))
		}
	}
}

// TestScratchReuseConcurrent hammers one pooled index from many
// goroutines (forcing scratch handoff through the sync.Pool under
// contention) and checks each answer against a per-query fresh run
// computed up front. Run with -race this also proves scratches never
// leak between concurrent queries.
func TestScratchReuseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 50)
	cfg := scratchConfig(t, dist.Hausdorff, ds)
	pooled, err := Build(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	const nq = 24
	queries := make([][]geo.Point, nq)
	want := make([][]topk.Item, nq)
	for i := range queries {
		q := make([]geo.Point, 1+rng.Intn(30))
		for j := range q {
			q[j] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
		}
		queries[i] = q
		fresh, err := Build(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fresh.Search(q, 8)
	}
	var wg sync.WaitGroup
	errs := make(chan string, nq*4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				qi := (i + w*7) % nq
				if got := pooled.Search(queries[qi], 8); !bitIdentical(got, want[qi]) {
					errs <- "concurrent pooled result diverged"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// fatLeafDataset builds trajectories concentrated on a handful of
// cell-center paths so many trajectories share a reference trajectory
// — leaves grow fat enough to trip the parallel refinement cutoff.
func fatLeafDataset(rng *rand.Rand, n int) []*geo.Trajectory {
	paths := [][]geo.Point{
		{{X: 0.5, Y: 0.5}, {X: 1.5, Y: 0.5}, {X: 2.5, Y: 1.5}},
		{{X: 6.5, Y: 6.5}, {X: 5.5, Y: 6.5}},
		{{X: 3.5, Y: 3.5}, {X: 3.5, Y: 4.5}, {X: 4.5, Y: 4.5}, {X: 5.5, Y: 4.5}},
	}
	ds := make([]*geo.Trajectory, n)
	for i := range ds {
		base := paths[i%len(paths)]
		pts := make([]geo.Point, 0, len(base)*2)
		for _, c := range base {
			// Jitter keeps every point inside its cell, so all
			// trajectories of a path share one reference trajectory.
			for r := 1 + rng.Intn(2); r > 0; r-- {
				pts = append(pts, geo.Point{
					X: c.X + (rng.Float64()-0.5)*0.8,
					Y: c.Y + (rng.Float64()-0.5)*0.8,
				})
			}
		}
		ds[i] = &geo.Trajectory{ID: i, Points: pts}
	}
	return ds
}

// TestParallelRefineParity: with RefineWorkers set, fat leaves refine
// concurrently under the shared atomic threshold — and must still
// return results bit-identical to the sequential path, on both
// layouts and for range search.
func TestParallelRefineParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := fatLeafDataset(rng, 80)
	for _, m := range []dist.Measure{dist.Hausdorff, dist.DTW, dist.EDR} {
		cfg := scratchConfig(t, m, ds)
		trie, err := Build(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		suc, err := Compress(trie)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			q := make([]geo.Point, 1+rng.Intn(12))
			for i := range q {
				q[i] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
			}
			k := 1 + rng.Intn(20)
			seq, err := trie.SearchContext(context.Background(), q, k, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := trie.SearchContext(context.Background(), q, k, SearchOptions{RefineWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(seq, par) {
				t.Fatalf("%v trial %d k=%d: parallel %v != sequential %v", m, trial, k, par, seq)
			}
			sucPar, err := suc.SearchContext(context.Background(), q, k, SearchOptions{RefineWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(seq, sucPar) {
				t.Fatalf("%v trial %d k=%d: succinct parallel %v != sequential %v", m, trial, k, sucPar, seq)
			}
			radius := rng.Float64() * 8
			seqR, err := trie.SearchRadiusContext(nil, q, radius, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			parR, err := trie.SearchRadiusContext(nil, q, radius, SearchOptions{RefineWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(seqR, parR) {
				t.Fatalf("%v trial %d radius %g: parallel %v != sequential %v", m, trial, radius, parR, seqR)
			}
		}
	}
}

// TestParallelRefineNoGoroutineLeak: every refinement worker joins
// before the query returns, so the goroutine count settles back to
// its pre-query level.
func TestParallelRefineNoGoroutineLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := fatLeafDataset(rng, 120)
	trie, err := Build(scratchConfig(t, dist.Hausdorff, ds), ds)
	if err != nil {
		t.Fatal(err)
	}
	before := leakcheck.Base()
	q := []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	for i := 0; i < 50; i++ {
		if _, err := trie.SearchContext(context.Background(), q, 10, SearchOptions{RefineWorkers: 8}); err != nil {
			t.Fatal(err)
		}
	}
	// Refinement workers join before SearchContext returns; the settle
	// (deadline-aware, no fixed sleeps) only absorbs runtime jitter.
	leakcheck.Settle(t, before)
}

// TestParallelRefineCancelled: a cancelled context aborts a parallel
// refinement with the context's error, exactly like the sequential
// path.
func TestParallelRefineCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := fatLeafDataset(rng, 200)
	trie, err := Build(scratchConfig(t, dist.Hausdorff, ds), ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := []geo.Point{{X: 1, Y: 1}, {X: 5, Y: 5}}
	if _, err := trie.SearchContext(ctx, q, 10, SearchOptions{RefineWorkers: 4}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
