package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/leakcheck"
	"repose/internal/oracle"
	"repose/internal/partition"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// Tests of the shared per-query result heap (rptrie.SharedTopK): every
// partition scan of a top-k query prunes against the global k-th
// distance, and the answer must stay what internal/oracle says.

var sharedLayouts = []struct {
	name string
	mod  func(*IndexSpec)
}{
	{"pointer", func(s *IndexSpec) {}},
	{"succinct", func(s *IndexSpec) { s.Layout = rptrie.LayoutSuccinct }},
	{"compressed", func(s *IndexSpec) { s.Layout = rptrie.LayoutCompressed }},
}

// sharedWorld is testWorld for any dataset spec, measure, and delta.
// The grid covers the spec's whole region, so trajectories inserted
// later (freshTrajs) lie inside it.
func sharedWorld(t *testing.T, dspec dataset.Spec, m dist.Measure, delta float64, nparts, npivots int) ([]*geo.Trajectory, [][]*geo.Trajectory, IndexSpec) {
	t.Helper()
	ds := dataset.Generate(dspec)
	region := dspec.Region()
	g, err := grid.New(region, delta)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(partition.Heterogeneous, ds, g, nparts, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	spec := IndexSpec{Algorithm: REPOSE, Measure: m, Params: p, Region: region, Delta: delta}
	if m.IsMetric() {
		spec.Pivots = pivot.Select(ds, npivots, pivot.DefaultGroups, m, p, 7)
	}
	return ds, partition.Split(ds, assign, nparts), spec
}

// assertSharedTopK pins a whole-trajectory answer to the oracle: the
// distance profile bit for bit, no duplicate ids, every reported
// distance exact for its id — and the whole answer bit-identical, ids
// included, whenever the oracle's top-(k+1) holds no tied distances
// (inside one partition a tied candidate may be dropped at lb ≥ dk, as
// the rptrie differential test documents).
func assertSharedTopK(t *testing.T, ctx string, spec IndexSpec, mirror *oracle.Set, q []geo.Point, k int, got []topk.Item) {
	t.Helper()
	wide := mirror.TopK(spec.Measure, spec.Params, q, k+1)
	want := wide
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	tied := false
	for i := 1; i < len(wide); i++ {
		tied = tied || wide[i].Dist == wide[i-1].Dist
	}
	seen := make(map[int]bool, len(got))
	for i := range got {
		if got[i].Dist != want[i].Dist || (!tied && got[i] != want[i]) {
			t.Fatalf("%s: rank %d is %+v, oracle %+v\ngot  %v\nwant %v", ctx, i, got[i], want[i], got, want)
		}
		if seen[got[i].ID] {
			t.Fatalf("%s: duplicate id %d in %v", ctx, got[i].ID, got)
		}
		seen[got[i].ID] = true
		tr := mirror.Get(got[i].ID)
		if tr == nil {
			t.Fatalf("%s: result id %d is not live", ctx, got[i].ID)
		}
		if exact := dist.Distance(spec.Measure, q, tr.Points, spec.Params); exact != got[i].Dist {
			t.Fatalf("%s: id %d reported %v, true distance %v", ctx, got[i].ID, got[i].Dist, exact)
		}
	}
}

// TestSharedScatterMatchesOracleMatrix is the oracle-differential
// matrix with sharing on: six measures × three layouts × scan workers
// ∈ {1, 2, 8} at 16 partitions (partitions ≫ slots, so most scans
// start from a threshold another partition set), across a seeded
// Insert/Delete/Upsert/Compact script, with plain, RefineWorkers,
// probe-budgeted (one heap across both waves), batched, subtrajectory,
// and time-windowed queries. Failures print the seed.
func TestSharedScatterMatchesOracleMatrix(t *testing.T) {
	for _, m := range dist.Measures() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			for li, lay := range sharedLayouts {
				runSharedScatterCase(t, m, lay.name, lay.mod, int64(0x5CA77E4+100*int(m)+li))
			}
		})
	}
}

func runSharedScatterCase(t *testing.T, m dist.Measure, layout string, mod func(*IndexSpec), seed int64) {
	t.Helper()
	const nparts = 16
	dspec := dataset.Spec{Name: "t", Cardinality: 192, AvgLen: 12, SpanX: 4, SpanY: 4, Hotspots: 6, Seed: seed}
	ds, parts, spec := sharedWorld(t, dspec, m, 0.1, nparts, 3)
	mod(&spec)
	attachClusterTimes(seed, ds)
	rng := rand.New(rand.NewSource(seed))
	mirror := oracle.NewSet(ds)
	ctx := context.Background()

	workers := []int{1, 2, 8}
	engines := make([]*Remote, len(workers))
	for i, w := range workers {
		engines[i] = inproc(t, spec, parts, w, false)
	}

	check := func(phase string, i int) {
		q := freshTrajs(rng, -1, 1)[0].Points
		if rng.Intn(2) == 0 {
			ids := mirror.IDs()
			q = mirror.Get(ids[rng.Intn(len(ids))]).Points
		}
		k := 1 + rng.Intn(12)
		mode := rng.Intn(6)
		for ei, eng := range engines {
			label := fmt.Sprintf("seed=%d %v/%s workers=%d %s[%d] k=%d mode=%d", seed, m, layout, workers[ei], phase, i, k, mode)
			var opt QueryOptions
			switch mode {
			case 1:
				opt.RefineWorkers = 4
			case 2:
				opt.ProbeBudget = 3
			case 3:
				q2 := mirror.Slice()[0].Points
				got, _, err := eng.SearchBatch(ctx, [][]geo.Point{q, q2}, k, opt)
				if err != nil {
					t.Fatalf("%s: SearchBatch: %v", label, err)
				}
				assertSharedTopK(t, label+" batch[0]", spec, mirror, q, k, got[0])
				assertSharedTopK(t, label+" batch[1]", spec, mirror, q2, k, got[1])
				continue
			case 4:
				opt.Refine = rptrie.RefineSpec{Sub: true, MinSeg: 2, MaxSeg: 6}
			case 5:
				opt.Refine = rptrie.RefineSpec{Window: true, From: 100, To: 450}
			}
			got, rep, err := eng.Search(ctx, q, k, opt)
			if err != nil {
				t.Fatalf("%s: Search: %v", label, err)
			}
			if !rep.CacheEligible {
				t.Fatalf("%s: exact full-coverage search must stay cache-eligible", label)
			}
			if opt.Refine.IsZero() {
				assertSharedTopK(t, label, spec, mirror, q, k, got)
				continue
			}
			osp := oracleSpecOf(opt.Refine)
			want := mirror.TopKRefined(spec.Measure, spec.Params, q, k, osp)
			byID := make(map[int]*geo.Trajectory, len(got))
			for _, it := range got {
				byID[it.ID] = mirror.Get(it.ID)
			}
			assertRefinedProfile(t, label, func(tr *geo.Trajectory) (float64, int, int) {
				return osp.Refine(spec.Measure, spec.Params, q, tr)
			}, byID, got, want)
		}
	}

	mutate := func(step int, fn func(*Remote) error) {
		for ei, eng := range engines {
			if err := fn(eng); err != nil {
				t.Fatalf("seed=%d %v/%s workers=%d step %d: %v", seed, m, layout, workers[ei], step, err)
			}
		}
	}

	for i := 0; i < 6; i++ {
		check("pre", i)
	}
	nextID := 500_000
	for step := 0; step < 16; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			fresh := freshTrajs(rng, nextID, 1+rng.Intn(3))
			nextID += len(fresh)
			mutate(step, func(c *Remote) error { _, err := c.Insert(ctx, fresh, MutateOptions{}); return err })
			mirror.Insert(fresh...)
		case r < 7:
			ids := mirror.IDs()
			victims := []int{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
			mutate(step, func(c *Remote) error { _, _, err := c.Delete(ctx, victims, MutateOptions{}); return err })
			mirror.Delete(victims...)
		case r < 9:
			ids := mirror.IDs()
			repl := freshTrajs(rng, ids[rng.Intn(len(ids))], 1)
			mutate(step, func(c *Remote) error { _, err := c.Upsert(ctx, repl, MutateOptions{}); return err })
			mirror.Insert(repl...)
		default:
			sel := []int{rng.Intn(nparts), rng.Intn(nparts)}
			mutate(step, func(c *Remote) error { _, err := c.Compact(ctx, sel); return err })
		}
		if step%2 == 1 {
			check("mut", step)
		}
	}
	mutate(-1, func(c *Remote) error { _, err := c.Compact(ctx, nil); return err })
	for i := 0; i < 4; i++ {
		check("post", i)
	}
}

// TestSharedTopKCrossPartitionTies crafts the case the strict pruning
// rule exists for: byte-identical trajectories under different ids,
// one per partition, with k cutting through the tie group. Partition
// order is the reverse of id order, so under Workers: 1 the shared heap
// is already full of tied candidates with larger ids when the
// partitions holding the winners are scanned. Pruning or abandoning at
// "≥ the shared k-th distance" would drop them; the answer must equal
// internal/oracle including id order, in process and over TCP.
func TestSharedTopKCrossPartitionTies(t *testing.T) {
	const nparts, clones = 8, 5
	ds, parts, spec := testWorld(t, 300, nparts)
	// The tie group: five copies of one trajectory that is not in the
	// dataset, at a small offset from the query so they rank right
	// behind the query's own trajectory.
	q := ds[7].Points
	shape := make([]geo.Point, len(q))
	for i, p := range q {
		shape[i] = geo.Point{X: math.Min(p.X+0.013, 4), Y: math.Max(p.Y-0.007, 0)}
	}
	for c := 0; c < clones; c++ {
		tr := &geo.Trajectory{ID: 900_000 + (clones - c), Points: append([]geo.Point(nil), shape...)}
		ds = append(ds, tr)
		parts[c] = append(parts[c], tr) // partition c holds id 900000+(5−c)
	}
	all := oracle.TopK(spec.Measure, spec.Params, ds, q, len(ds))
	first := -1
	for i, it := range all {
		if it.ID > 900_000 {
			first = i
			break
		}
	}
	if first < 0 || all[first+clones-1].Dist != all[first].Dist || all[first+clones].Dist == all[first].Dist {
		t.Fatalf("fixture broken: tie group not contiguous at rank %d: %v", first, all[:first+clones+1])
	}

	ctx := context.Background()
	type namedEngine struct {
		name string
		eng  *Remote
	}
	var engines []namedEngine
	for _, w := range []int{1, 4} {
		engines = append(engines, namedEngine{fmt.Sprintf("local/workers=%d", w), inproc(t, spec, parts, w, false)})
	}
	// Two TCP workers own four partitions each: the tie group straddles
	// both, and heaps do not cross the wire, so each worker shares a
	// heap over its own members only and the driver merges.
	remote := remoteOn(t, spec, parts, startWorkers(t, 2))
	engines = append(engines, namedEngine{"remote", remote})

	for cut := 1; cut < clones; cut++ {
		k := first + cut // keeps cut of the five tied candidates
		want := all[:k]
		for _, e := range engines {
			got, _, err := e.eng.Search(ctx, q, k, QueryOptions{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", e.name, k, err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s k=%d", e.name, k), 0, got, want)
			batch, _, err := e.eng.SearchBatch(ctx, [][]geo.Point{q}, k, QueryOptions{})
			if err != nil {
				t.Fatalf("%s k=%d batch: %v", e.name, k, err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s k=%d batch", e.name, k), 0, batch[0], want)
		}
	}
}

// TestSharedHeapCountsAnIDOnce reproduces a split's install→prune
// window deterministically: the query's two nearest trajectories are
// visible in partition 0 and, as copies, in partition 1, and the next
// two live only in partition 2. Scanned in order (Workers: 1), a shared
// heap that counted the copies as four distinct candidates would put
// the k=4 threshold at the second-nearest distance and prune both true
// results in partition 2.
func TestSharedHeapCountsAnIDOnce(t *testing.T) {
	ds, _, spec := testWorld(t, 120, 1)
	q := ds[5].Points
	ranked := oracle.TopK(spec.Measure, spec.Params, ds, q, len(ds))
	byID := make(map[int]*geo.Trajectory, len(ds))
	for _, tr := range ds {
		byID[tr.ID] = tr
	}
	pick := func(items []topk.Item) []*geo.Trajectory {
		out := make([]*geo.Trajectory, len(items))
		for i, it := range items {
			out[i] = byID[it.ID]
		}
		return out
	}
	near, rest := pick(ranked[:2]), pick(ranked[2:])
	var indexes []LocalIndex
	for _, part := range [][]*geo.Trajectory{near, near, rest} {
		idx, err := spec.BuildLocal(part)
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, idx)
	}
	view := &Local{parts: indexes, sem: make(chan struct{}, 1)}
	got, _, err := view.Search(context.Background(), q, 4, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "overlapping partitions", 0, got, ranked[:4])
}

// TestSharedSearchDuringSplits races top-k queries against a chain of
// SplitPartition calls. Inside every install→prune window the moved
// trajectories are offered to a shared heap from two partitions, and a
// query planned before a split may reach the source after its prune
// (the planner re-plans it); every answer must still be bit-identical
// to the oracle — splits do not change the live set.
func TestSharedSearchDuringSplits(t *testing.T) {
	ds, parts, spec := testWorld(t, 400, 2)
	eng := inproc(t, spec, parts, 2, false)
	queries := dataset.Queries(ds, 6, 29)
	want := make([][]topk.Item, len(queries))
	for i, q := range queries {
		want[i] = oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := i % len(queries)
				got, _, err := eng.Search(ctx, queries[qi].Points, 10, QueryOptions{})
				if err == nil && !slices.Equal(got, want[qi]) {
					err = fmt.Errorf("query %d mid-split: got %v, oracle %v", qi, got, want[qi])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.SplitPartition(ctx, i%eng.NumPartitions()); err != nil {
			t.Errorf("split %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if eng.NumPartitions() != 10 {
		t.Fatalf("%d partitions after 8 splits of 2", eng.NumPartitions())
	}
}

// TestSharedSearchCancellation: sharing is passive — no scan ever waits
// for another — so a cancelled context still ends the query promptly,
// before and during the scatter, with no goroutine left behind.
func TestSharedSearchCancellation(t *testing.T) {
	dspec := dataset.Spec{Name: "t", Cardinality: 1500, AvgLen: 40, SpanX: 4, SpanY: 4, Hotspots: 6, Seed: 3}
	ds, parts, spec := sharedWorld(t, dspec, dist.DTW, 0.1, 16, 0)
	c := inproc(t, spec, parts, 2, false)
	q := ds[0].Points
	if _, _, err := c.Search(context.Background(), q, 10, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Base()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Search(dead, q, 10, QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("search on a cancelled context: %v", err)
	}
	if _, _, err := c.SearchBatch(dead, [][]geo.Point{q, q}, 10, QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch on a cancelled context: %v", err)
	}

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := c.Search(ctx, ds[i].Points, 10, QueryOptions{RefineWorkers: 2 * (i % 2)})
			done <- err
		}()
		timer := time.NewTimer(time.Duration(i*50) * time.Microsecond)
		<-timer.C
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled mid-scatter: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a cancelled query did not return")
		}
	}
	leakcheck.Settle(t, base)

	// The engine, and the pooled heaps cancelled queries returned, still
	// answer exactly.
	got, _, err := c.Search(context.Background(), q, 10, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSharedTopK(t, "after cancellations", spec, oracle.NewSet(ds), q, 10, got)
}

// TestSharedTopKCountGate is the deterministic form of the claim: on a
// fixed T-drive 1/256 fixture, 8 partitions scanned one after another
// (Workers: 1), a query pool costs at most 0.70 × the exact distance
// computations of the same partitions searched one by one through
// rptrie with no shared heap. The counts repeat bit for bit, so the
// gate cannot flake; the report field is what an operator reads the
// saving from.
func TestSharedTopKCountGate(t *testing.T) {
	tdrive, err := dataset.ByName("T-drive", 1.0/256)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range []dist.Measure{dist.Hausdorff, dist.DTW} {
		ds, parts, spec := sharedWorld(t, tdrive, m, dataset.DefaultDelta("T-drive"), 8, 5)
		c, err := BuildLocal(spec, parts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var shared, alone int64
		for _, q := range dataset.Queries(ds, 48, 1) {
			_, rep, err := c.Search(ctx, q.Points, 10, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			shared += rep.ExactComputations
			for _, idx := range c.Indexes() {
				var st rptrie.SearchStats
				if _, err := idx.(*rptrie.Trie).SearchContext(ctx, q.Points, 10, rptrie.SearchOptions{Stats: &st}); err != nil {
					t.Fatal(err)
				}
				alone += int64(st.ExactComputations)
			}
		}
		t.Logf("%v: %d exact computations shared, %d partition by partition (%.2f)", m, shared, alone, float64(shared)/float64(alone))
		if shared == 0 || float64(shared) > 0.70*float64(alone) {
			t.Fatalf("%v: sharing must prune at least 30%% of the exact computations: %d shared vs %d alone", m, shared, alone)
		}
	}
}

// walkStats searches 48 queries over the T-drive 1/256 fixture under
// m, 8 partitions one by one (Workers: 1), and sums the walks'
// statistics. With shared, each query's scans share one result heap.
// The counts repeat bit for bit.
func walkStats(t *testing.T, m dist.Measure, shared bool) rptrie.SearchStats {
	t.Helper()
	tdrive, err := dataset.ByName("T-drive", 1.0/256)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ds, parts, spec := sharedWorld(t, tdrive, m, dataset.DefaultDelta("T-drive"), 8, 5)
	c, err := BuildLocal(spec, parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum rptrie.SearchStats
	for _, q := range dataset.Queries(ds, 48, 1) {
		var heap *rptrie.SharedTopK
		if shared {
			heap = rptrie.NewSharedTopK(10)
		}
		for _, idx := range c.Indexes() {
			var st rptrie.SearchStats
			if _, err := idx.(*rptrie.Trie).SearchContext(ctx, q.Points, 10, rptrie.SearchOptions{Stats: &st, Shared: heap}); err != nil {
				t.Fatal(err)
			}
			sum.NodesExpanded += st.NodesExpanded
			sum.ChainSteps += st.ChainSteps
			sum.LeavesRefined += st.LeavesRefined
			sum.ExactComputations += st.ExactComputations
			sum.EntriesPushed += st.EntriesPushed
			sum.EarlyCuts += st.EarlyCuts
		}
	}
	return sum
}

// TestChainWalkCountGate is the deterministic form of the queue-light
// walk's claim: on the T-drive 1/256 fixture under DTW, whose walk is
// mostly single-child chains, at most 0.40 of the trie nodes the
// searches descend through pay for a queue round trip; the rest are
// links walked in place. The leaves refined and the exact distance
// computations are pinned, so any change to the refinement order shows.
func TestChainWalkCountGate(t *testing.T) {
	sum := walkStats(t, dist.DTW, false)
	descended := sum.NodesExpanded + sum.ChainSteps
	t.Logf("%d nodes expanded of %d descended through (%.2f)", sum.NodesExpanded, descended, float64(sum.NodesExpanded)/float64(descended))
	if float64(sum.NodesExpanded) > 0.40*float64(descended) {
		t.Fatalf("%d of %d nodes went through the queue, want ≤ 0.40", sum.NodesExpanded, descended)
	}
	// Recorded by the change that made DTW's LBo the warping-column
	// bound, where the loop expanded 43,512 of 324,171 nodes descended.
	const leavesRefined, exactComputations = 14600, 15263
	if sum.LeavesRefined != leavesRefined || sum.ExactComputations != exactComputations {
		t.Fatalf("the walk refined %d leaves with %d exact computations, want %d and %d: the refinement order changed",
			sum.LeavesRefined, sum.ExactComputations, leavesRefined, exactComputations)
	}
}

// TestDTWPathBoundCountGate is the deterministic form of the
// order-aware DTW bound's claim, on TestChainWalkCountGate's fixture:
// the warping-column LBo costs at most 0.70 × the 26,182 exact distance
// computations of the cell-min sums it replaced, and descends through
// no more than their 345,787 trie nodes.
func TestDTWPathBoundCountGate(t *testing.T) {
	const cellSumExact, cellSumDescended = 26182, 345787
	sum := walkStats(t, dist.DTW, false)
	descended := sum.NodesExpanded + sum.ChainSteps
	t.Logf("%d exact computations (%.2f of the cell-min sums'), %d nodes descended through (%.2f)",
		sum.ExactComputations, float64(sum.ExactComputations)/cellSumExact, descended, float64(descended)/cellSumDescended)
	if sum.ExactComputations == 0 || float64(sum.ExactComputations) > 0.70*cellSumExact {
		t.Fatalf("%d exact computations, want ≤ 0.70 × %d", sum.ExactComputations, cellSumExact)
	}
	if descended > cellSumDescended {
		t.Fatalf("%d nodes descended through, want ≤ %d", descended, cellSumDescended)
	}
}

// TestEarlyCutCountGate is the deterministic form of the cheap-bounds-
// first walk's claim, on the T-drive 1/256 fixture under Hausdorff: 8
// partitions searched one after another, each query sharing one result
// heap across them. The walk descends, queues, refines and computes
// exactly what it did when every child forked and extended its bound
// state before its bounds were read — the counts are pinned — and at
// least 0.80 of the 22,564 children that walk rejected are now cut on
// their pivot or one-cell bound before any bound state is built.
func TestEarlyCutCountGate(t *testing.T) {
	sum := walkStats(t, dist.Hausdorff, true)
	t.Logf("%+v", sum)
	// Recorded on the walk that forked and extended every child first.
	want := rptrie.SearchStats{NodesExpanded: 8431, ChainSteps: 35300, EntriesPushed: 14870, LeavesRefined: 2336, ExactComputations: 2483}
	got := sum
	got.EarlyCuts = 0
	if got != want {
		t.Fatalf("walk counts %+v, want %+v: cutting early changed what the walk does", got, want)
	}
	const rejected = 22564
	if float64(sum.EarlyCuts) < 0.80*rejected {
		t.Fatalf("%d children cut before their bound state was built, want ≥ 0.80 × %d", sum.EarlyCuts, rejected)
	}
}

// TestSearchBatchFeedsLoadTracker: a batched query loads its
// partitions like a single one, in process and over TCP. Before the fix
// the in-process SearchBatch recorded nothing, and the remote one could
// not — its reply merged each worker's partitions into one list — so
// batched traffic was invisible to LoadStats, the learned probe order,
// and the rebalancer.
func TestSearchBatchFeedsLoadTracker(t *testing.T) {
	ds, parts, spec := testWorld(t, 250, 6)
	queries := dataset.Queries(ds, 5, 17)
	qpts := make([][]geo.Point, len(queries))
	for i, q := range queries {
		qpts[i] = q.Points
	}
	ctx := context.Background()
	// One scan slot — Workers: 1 in-process, SetQueryWorkers(1) on every
	// worker — makes the scan order, and with it every shared threshold
	// and refine count, deterministic.
	for name, build := range map[string]func(t *testing.T) *Remote{
		"local": func(t *testing.T) *Remote { return inproc(t, spec, parts, 1, false) },
		"remote": func(t *testing.T) *Remote {
			addrs := make([]string, 2)
			for i := range addrs {
				w := NewWorker()
				w.SetQueryWorkers(1)
				addrs[i] = startWorkerService(t, w)
			}
			return remoteOn(t, spec, parts, addrs)
		},
	} {
		t.Run(name, func(t *testing.T) {
			batched, single := build(t), build(t)
			if _, _, err := batched.SearchBatch(ctx, qpts, 7, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
			var reported uint64
			for _, q := range qpts {
				_, rep, err := single.Search(ctx, q, 7, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				reported += uint64(rep.ExactComputations)
			}
			got, want := batched.LoadStats(), single.LoadStats()
			var refined uint64
			for i := range want {
				if got[i].Queries != uint64(len(qpts)) {
					t.Fatalf("partition %d: %d scans recorded after a batch of %d", i, got[i].Queries, len(qpts))
				}
				if got[i].RefineOps != want[i].RefineOps || got[i].TotalTime <= 0 {
					t.Fatalf("partition %d: batch recorded %d refine ops in %v, Search records %d", i, got[i].RefineOps, got[i].TotalTime, want[i].RefineOps)
				}
				refined += want[i].RefineOps
			}
			if reported == 0 || reported != refined {
				t.Fatalf("QueryReport.ExactComputations sums to %d, the load tracker saw %d", reported, refined)
			}
		})
	}
}

// assertReportCovers pins the report invariants the planner owns:
// ProbedPartitions, PrunedPartitions and SkippedPartitions are disjoint
// and together are exactly the selection sel, every probed partition
// has one PartitionTimes entry, and Generations covers every partition.
func assertReportCovers(t *testing.T, label string, rep QueryReport, sel []int, numPartitions int) {
	t.Helper()
	seen := make(map[int]string, len(sel))
	for _, set := range []struct {
		name string
		pids []int
	}{{"probed", rep.ProbedPartitions}, {"pruned", rep.PrunedPartitions}, {"skipped", rep.SkippedPartitions}} {
		for _, pid := range set.pids {
			if prev, dup := seen[pid]; dup {
				t.Fatalf("%s: partition %d is both %s and %s", label, pid, prev, set.name)
			}
			seen[pid] = set.name
		}
	}
	if len(seen) != len(sel) {
		t.Fatalf("%s: probed %v pruned %v skipped %v do not cover the selection %v", label, rep.ProbedPartitions, rep.PrunedPartitions, rep.SkippedPartitions, sel)
	}
	for _, pid := range sel {
		if _, ok := seen[pid]; !ok {
			t.Fatalf("%s: selected partition %d is neither probed, pruned nor skipped", label, pid)
		}
	}
	if len(rep.PartitionTimes) != len(rep.ProbedPartitions) {
		t.Fatalf("%s: %d partition times for %d scanned partitions", label, len(rep.PartitionTimes), len(rep.ProbedPartitions))
	}
	if len(rep.Generations) != numPartitions {
		t.Fatalf("%s: %d generations for %d partitions", label, len(rep.Generations), numPartitions)
	}
}

// TestRemoteReportsExactComputations: in process and over the wire the
// engine folds the per-partition refine counts (QueryReply.Refined)
// into QueryReport.ExactComputations — probe-budgeted waves included —
// and every report partitions its selection into probed, pruned and
// skipped partitions.
func TestRemoteReportsExactComputations(t *testing.T) {
	ds, local, remote := remotePair(t, 200, 6, 2)
	ctx := context.Background()
	all := []int{0, 1, 2, 3, 4, 5}
	for _, eng := range []struct {
		name string
		e    *Remote
	}{{"local", local}, {"remote", remote}} {
		for _, opt := range []QueryOptions{{}, {ProbeBudget: 2}, {ProbeBudget: 2, BestEffort: true}, {Partitions: []int{4, 1}}} {
			label := fmt.Sprintf("%s budget=%d best-effort=%v partitions=%v", eng.name, opt.ProbeBudget, opt.BestEffort, opt.Partitions)
			before := eng.e.LoadStats()
			_, rep, err := eng.e.Search(ctx, ds[9].Points, 8, opt)
			if err != nil {
				t.Fatal(err)
			}
			var refined uint64
			for i, l := range eng.e.LoadStats() {
				refined += l.RefineOps - before[i].RefineOps
			}
			if rep.ExactComputations <= 0 || uint64(rep.ExactComputations) != refined {
				t.Fatalf("%s: report says %d exact computations, the load tracker saw %d", label, rep.ExactComputations, refined)
			}
			sel := all
			if opt.Partitions != nil {
				sel = opt.Partitions
			}
			assertReportCovers(t, label, rep, sel, len(all))
		}
	}
}
