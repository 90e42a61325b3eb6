package rptrie

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/topk"
)

// TestSharedTopKOffer pins the admission rules the exactness argument
// in doc.go rests on: distinct ids only, ties with the k-th distance
// admitted, anything strictly above it (and +Inf/NaN) rejected, and a
// cut that sits one ulp above the k-th distance.
func TestSharedTopKOffer(t *testing.T) {
	inf := math.Inf(1)
	next := func(d float64) float64 { return math.Nextafter(d, inf) }
	s := NewSharedTopK(2)
	if s.offer(topk.Item{ID: 1, Dist: inf}) || s.offer(topk.Item{ID: 1, Dist: math.NaN()}) {
		t.Fatal("an abandoned (+Inf) or NaN distance was admitted")
	}
	if !s.offer(topk.Item{ID: 1, Dist: 5}) || s.cut.Load() != inf {
		t.Fatalf("first candidate: cut %v, want +Inf", s.cut.Load())
	}
	// The same id again (a split's install→prune window): it belongs
	// in the second partition's list too, but must not count as a
	// second of the k best.
	if !s.offer(topk.Item{ID: 1, Dist: 5}) {
		t.Fatal("a duplicate id at the threshold must stay in its partition's list")
	}
	if s.h.Len() != 1 || s.cut.Load() != inf {
		t.Fatalf("duplicate id counted twice: %d held, cut %v", s.h.Len(), s.cut.Load())
	}
	if !s.offer(topk.Item{ID: 2, Dist: 7}) || s.cut.Load() != next(7) {
		t.Fatalf("k-th candidate: cut %v, want %v", s.cut.Load(), next(7))
	}
	if !s.offer(topk.Item{ID: 3, Dist: 7}) || s.cut.Load() != next(7) {
		t.Fatal("a candidate tying the k-th distance must be admitted and leave the cut alone")
	}
	if s.offer(topk.Item{ID: 4, Dist: next(7)}) {
		t.Fatal("a candidate above the k-th distance was admitted")
	}
	if !s.offer(topk.Item{ID: 5, Dist: 6}) || s.cut.Load() != next(6) {
		t.Fatalf("a better candidate must tighten the cut: %v, want %v", s.cut.Load(), next(6))
	}
	for _, it := range s.h.Results() {
		if it.ID != 1 && it.ID != 5 {
			t.Fatalf("heap holds %v, want ids 1 and 5", s.h.Results())
		}
	}
	s.Reset(3)
	if s.h.Len() != 0 || s.h.K() != 3 || s.cut.Load() != inf {
		t.Fatalf("Reset left %d items, k=%d, cut %v", s.h.Len(), s.h.K(), s.cut.Load())
	}
}

// TestSharedScansMatchOracle splits seeded random datasets over
// several indexes of one layout — the shape of a partitioned engine —
// and answers every query by scanning them all concurrently with one
// SharedTopK: the merged lists must match internal/oracle for every
// measure and layout, before, between, and after mutations, for plain,
// RefineWorkers, and refined (subtrajectory / windowed) scans.
// Failures lead with the seed. Run under -race this is also the
// concurrency test of the shared heap.
func TestSharedScansMatchOracle(t *testing.T) {
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	datasets := 6
	if testing.Short() {
		datasets = 2
	}
	for _, m := range dist.Measures() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			for _, layout := range dynLayouts {
				for di := 0; di < datasets; di++ {
					runSharedCase(t, layout, m, p, region, int64(0x54A8ED+1000*int(m)+di))
				}
			}
		})
	}
}

func runSharedCase(t *testing.T, layout string, m dist.Measure, p dist.Params, region geo.Rect, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := grid.NewWithBits(region, 3+rng.Intn(3))
	if err != nil {
		t.Fatal(err)
	}
	const nparts = 5
	// Half the cases use few distinct paths, so leaves are fat enough
	// for RefineWorkers to fan out and distances tie across partitions.
	var ds []*geo.Trajectory
	if rng.Intn(2) == 0 {
		ds = fatLeafDataset(rng, 60+rng.Intn(40))
	} else {
		ds = randomDataset(rng, 60+rng.Intn(40))
	}
	attachTimes(rng, ds)
	cfg := Config{Measure: m, Params: p, Grid: g, Optimize: rng.Intn(2) == 0 && m.OrderIndependent()}
	parts := make([][]*geo.Trajectory, nparts)
	for i, tr := range ds {
		parts[i%nparts] = append(parts[i%nparts], tr)
	}
	idxs := make([]refinedIndex, nparts)
	for i := range idxs {
		idxs[i] = buildDyn(t, layout, cfg, parts[i]).(refinedIndex)
	}
	mirror := oracle.NewSet(ds)
	owner := map[int]int{}
	for i, tr := range ds {
		owner[tr.ID] = i % nparts
	}
	nextID := 100_000

	compare := func(phase string, i int) {
		q := randomDataset(rng, 1)[0]
		k := 1 + rng.Intn(12)
		opt := SearchOptions{Shared: NewSharedTopK(k)}
		mode := rng.Intn(3)
		var sp RefineSpec
		switch mode {
		case 1:
			opt.RefineWorkers = 4
		case 2:
			sp = randomSpec(rng)
			opt.Refiner = NewRefiner(m, p, sp)
		}
		ctx := fmt.Sprintf("seed=%d layout=%s measure=%v %s[%d] k=%d mode=%d spec=%+v", seed, layout, m, phase, i, k, mode, sp)
		lists := make([][]topk.Item, nparts)
		errs := make([]error, nparts)
		var wg sync.WaitGroup
		for pi := range idxs {
			wg.Add(1)
			go func(pi int) {
				defer wg.Done()
				lists[pi], errs[pi] = idxs[pi].SearchContext(nil, q.Points, k, opt)
			}(pi)
		}
		wg.Wait()
		for pi, err := range errs {
			if err != nil {
				t.Fatalf("%s: partition %d: %v", ctx, pi, err)
			}
			if len(lists[pi]) > k {
				t.Fatalf("%s: partition %d returned %d items", ctx, pi, len(lists[pi]))
			}
		}
		got := topk.Merge(k, lists...) // ids are unique across the indexes: no dedup needed
		if mode == 2 {
			want := mirror.TopKRefined(m, p, q.Points, k, specOracle(sp))
			assertRefinedTopK(t, ctx, m, p, mirror, q.Points, specOracle(sp), got, want)
			return
		}
		diffAssertTopK(t, ctx, m, p, mirror, q.Points, k, got)
	}

	for i := 0; i < 12; i++ {
		compare("pre", i)
	}
	for step := 0; step < 24; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			fresh := randomFresh(rng, nextID, 1+rng.Intn(3))
			attachTimes(rng, fresh)
			nextID += len(fresh)
			pi := rng.Intn(nparts)
			if err := idxs[pi].Insert(fresh...); err != nil {
				t.Fatalf("seed=%d step %d: insert: %v", seed, step, err)
			}
			for _, tr := range fresh {
				owner[tr.ID] = pi
			}
			mirror.Insert(fresh...)
		case r < 8:
			ids := mirror.IDs()
			victim := ids[rng.Intn(len(ids))]
			if n := idxs[owner[victim]].Delete(victim); n != 1 {
				t.Fatalf("seed=%d step %d: delete of %d removed %d", seed, step, victim, n)
			}
			mirror.Delete(victim)
		case r < 9:
			ids := mirror.IDs()
			repl := randomFresh(rng, ids[rng.Intn(len(ids))], 1)
			attachTimes(rng, repl)
			if err := idxs[owner[repl[0].ID]].Upsert(repl...); err != nil {
				t.Fatalf("seed=%d step %d: upsert: %v", seed, step, err)
			}
			mirror.Insert(repl...)
		default:
			if err := idxs[rng.Intn(nparts)].Compact(); err != nil {
				t.Fatalf("seed=%d step %d: compact: %v", seed, step, err)
			}
		}
		if step%2 == 1 {
			compare("mut", step)
		}
	}
}

// TestSharedScanPrunes: a scan handed a shared heap another scan has
// filled does no more exact computations than the same scan on its own
// (run one after the other, so the comparison is deterministic), and
// fewer over a query pool.
func TestSharedScanPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ds := randomDataset(rng, 120)
	cfg := scratchConfig(t, dist.Hausdorff, ds)
	a, err := Build(cfg, ds[:60])
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cfg, ds[60:])
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	var alone, shared int
	for i := 0; i < 20; i++ {
		q := randomDataset(rng, 1)[0].Points
		var own, fed SearchStats
		if _, err := b.SearchContext(nil, q, k, SearchOptions{Stats: &own}); err != nil {
			t.Fatal(err)
		}
		sh := NewSharedTopK(k)
		if _, err := a.SearchContext(nil, q, k, SearchOptions{Shared: sh}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.SearchContext(nil, q, k, SearchOptions{Shared: sh, Stats: &fed}); err != nil {
			t.Fatal(err)
		}
		if fed.ExactComputations > own.ExactComputations {
			t.Fatalf("query %d: the second scan refined more with a shared heap (%d) than alone (%d)", i, fed.ExactComputations, own.ExactComputations)
		}
		alone += own.ExactComputations
		shared += fed.ExactComputations
	}
	if shared >= alone {
		t.Fatalf("sharing pruned nothing: %d exact computations shared, %d alone", shared, alone)
	}

}
