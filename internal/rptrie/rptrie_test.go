package rptrie

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/pivot"
	"repose/internal/topk"
)

func mkTraj(id int, xy ...float64) *geo.Trajectory {
	t := &geo.Trajectory{ID: id}
	for i := 0; i < len(xy); i += 2 {
		t.Points = append(t.Points, geo.Point{X: xy[i], Y: xy[i+1]})
	}
	return t
}

// paperDataset returns the running example of Table II / Fig. 1.
func paperDataset() ([]*geo.Trajectory, *geo.Trajectory, *grid.Grid) {
	ds := []*geo.Trajectory{
		mkTraj(1, 0.5, 7.5, 2.5, 7.5, 6.5, 7.5, 6.5, 4.5),
		mkTraj(2, 1.5, 0.5, 2.5, 0.5, 2.5, 4.5, 4.5, 4.5),
		mkTraj(3, 4.5, 0.5, 7.5, 0.5, 7.5, 2.5, 4.5, 2.5, 4.5, 1.5),
		mkTraj(4, 0.5, 7.5, 2.5, 7.5, 5.5, 7.5, 5.5, 3.5),
		mkTraj(5, 1.5, 0.5, 2.5, 0.5, 2.5, 5.5, 0.5, 5.5, 0.5, 2.5),
	}
	q := mkTraj(0, 0.5, 6.5, 2.5, 6.5, 4.5, 6.5)
	g, err := grid.NewWithBits(geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}, 3)
	if err != nil {
		panic(err)
	}
	return ds, q, g
}

// TestPaperExample1TopK pins Example 1: the top-2 Hausdorff result
// for τq is {τ1, τ4}.
func TestPaperExample1TopK(t *testing.T) {
	ds, q, g := paperDataset()
	for _, optimize := range []bool{false, true} {
		tr, err := Build(Config{Measure: dist.Hausdorff, Grid: g, Optimize: optimize}, ds)
		if err != nil {
			t.Fatal(err)
		}
		res := tr.Search(q.Points, 2)
		if len(res) != 2 {
			t.Fatalf("optimize=%v: got %d results", optimize, len(res))
		}
		ids := []int{res[0].ID, res[1].ID}
		if ids[0] != 1 || ids[1] != 4 {
			t.Errorf("optimize=%v: top-2 = %v, want [1 4]", optimize, ids)
		}
	}
}

// randomDataset builds trajectories with mild spatial clustering so
// pruning has something to do.
func randomDataset(rng *rand.Rand, n int) []*geo.Trajectory {
	ds := make([]*geo.Trajectory, n)
	for i := range ds {
		// Cluster centers make some trajectories near-duplicates.
		cx := float64(rng.Intn(4))*2 + 0.5
		cy := float64(rng.Intn(4))*2 + 0.5
		m := 1 + rng.Intn(10)
		pts := make([]geo.Point, m)
		x, y := cx, cy
		for j := range pts {
			pts[j] = geo.Point{X: clampF(x, 0, 8), Y: clampF(y, 0, 8)}
			x += rng.NormFloat64() * 0.4
			y += rng.NormFloat64() * 0.4
		}
		ds[i] = &geo.Trajectory{ID: i, Points: pts}
	}
	return ds
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func sameResults(a, b []topk.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// assertTopK checks that got is a valid top-k answer: the distance
// profile matches brute force exactly, and each reported distance is
// the true distance of the reported trajectory. Result sets may
// legitimately differ from brute force inside groups of tied
// distances (Definition 3 assumes distinct distances).
func assertTopK(t *testing.T, ctx string, m dist.Measure, p dist.Params, ds []*geo.Trajectory, q []geo.Point, k int, got []topk.Item) {
	t.Helper()
	want := oracle.TopK(m, p, ds, q, k)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(got), len(want))
	}
	byID := make(map[int]*geo.Trajectory, len(ds))
	for _, tr := range ds {
		byID[tr.ID] = tr
	}
	seen := make(map[int]bool)
	for i := range got {
		if d := got[i].Dist - want[i].Dist; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: rank %d distance = %v, want %v\ngot  %v\nwant %v",
				ctx, i, got[i].Dist, want[i].Dist, got, want)
		}
		if seen[got[i].ID] {
			t.Fatalf("%s: duplicate id %d in results", ctx, got[i].ID)
		}
		seen[got[i].ID] = true
		tr, ok := byID[got[i].ID]
		if !ok {
			t.Fatalf("%s: unknown id %d", ctx, got[i].ID)
		}
		exact := dist.Distance(m, q, tr.Points, p)
		if d := got[i].Dist - exact; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: id %d reported %v, true distance %v", ctx, got[i].ID, got[i].Dist, exact)
		}
	}
}

// TestSearchMatchesBruteForce is the index's end-to-end correctness
// test: for every measure and every optimization combination, the
// trie's top-k equals the brute-force top-k.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{X: 0, Y: 0}}

	for trial := 0; trial < 12; trial++ {
		ds := randomDataset(rng, 80)
		q := randomDataset(rng, 1)[0]
		for _, m := range dist.Measures() {
			pivots := pivot.Select(ds, 3, 5, m, p, 7)
			configs := []Config{
				{Measure: m, Params: p, Grid: g},
				{Measure: m, Params: p, Grid: g, Pivots: pivots},
				{Measure: m, Params: p, Grid: g, Pivots: pivots, DisableLBt: true},
				{Measure: m, Params: p, Grid: g, Pivots: pivots, DisableLBp: true},
			}
			if m.OrderIndependent() {
				configs = append(configs,
					Config{Measure: m, Params: p, Grid: g, Optimize: true},
					Config{Measure: m, Params: p, Grid: g, Optimize: true, Pivots: pivots},
				)
			}
			for ci, cfg := range configs {
				trie, err := Build(cfg, ds)
				if err != nil {
					t.Fatalf("%v cfg %d: %v", m, ci, err)
				}
				for _, k := range []int{1, 5, 17} {
					got := trie.Search(q.Points, k)
					ctx := fmt.Sprintf("%v cfg %d k=%d trial %d", m, ci, k, trial)
					assertTopK(t, ctx, m, p, ds, q.Points, k, got)
				}
			}
		}
	}
}

// TestSearchPrefixReference covers reference trajectories that are
// prefixes of others (the '$' terminator case of Section III-B).
func TestSearchPrefixReference(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, _ := grid.NewWithBits(region, 3)
	ds := []*geo.Trajectory{
		mkTraj(1, 0.5, 0.5, 1.5, 0.5),                     // cells A,B
		mkTraj(2, 0.5, 0.5, 1.5, 0.5, 2.5, 0.5),           // cells A,B,C
		mkTraj(3, 0.5, 0.5, 1.5, 0.5, 2.5, 0.5, 3.5, 0.5), // cells A,B,C,D
	}
	trie, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	q := []geo.Point{{X: 0.5, Y: 0.5}, {X: 1.5, Y: 0.5}}
	got := trie.Search(q, 3)
	want := oracle.TopK(dist.Hausdorff, dist.Params{}, ds, q, 3)
	if !sameResults(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got[0].ID != 1 || got[0].Dist != 0 {
		t.Errorf("exact match should rank first: %v", got)
	}
}

// TestSearchDuplicateReferences: many trajectories sharing one leaf.
func TestSearchDuplicateReferences(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, _ := grid.NewWithBits(region, 2) // coarse: cells of side 2
	rng := rand.New(rand.NewSource(3))
	var ds []*geo.Trajectory
	for i := 0; i < 30; i++ {
		// All in the same two cells, different actual points.
		ds = append(ds, mkTraj(i,
			0.3+rng.Float64(), 0.3+rng.Float64(),
			2.3+rng.Float64(), 0.3+rng.Float64()))
	}
	trie, err := Build(Config{Measure: dist.Frechet, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if trie.NumLeaves() != 1 {
		t.Fatalf("expected a single shared leaf, got %d", trie.NumLeaves())
	}
	q := []geo.Point{{X: 1, Y: 1}, {X: 3, Y: 1}}
	got := trie.Search(q, 5)
	want := oracle.TopK(dist.Frechet, dist.Params{}, ds, q, 5)
	if !sameResults(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBuildErrors(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, _ := grid.NewWithBits(region, 3)
	if _, err := Build(Config{Measure: dist.Hausdorff}, nil); err == nil {
		t.Error("nil grid should fail")
	}
	if _, err := Build(Config{Measure: dist.Frechet, Grid: g, Optimize: true}, nil); err == nil {
		t.Error("optimize with order-dependent measure should fail")
	}
	if _, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, []*geo.Trajectory{{ID: 1}}); err == nil {
		t.Error("empty trajectory should fail")
	}
	dup := []*geo.Trajectory{mkTraj(1, 1, 1), mkTraj(1, 2, 2)}
	if _, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, dup); err == nil {
		t.Error("duplicate ids should fail")
	}
}

func TestSearchEdgeCases(t *testing.T) {
	ds, q, g := paperDataset()
	trie, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res := trie.Search(q.Points, 0); res != nil {
		t.Errorf("k=0 → %v", res)
	}
	if res := trie.Search(nil, 3); res != nil {
		t.Errorf("empty query → %v", res)
	}
	// k beyond dataset size returns everything.
	res := trie.Search(q.Points, 100)
	if len(res) != 5 {
		t.Errorf("k>N returned %d results", len(res))
	}
	// Empty index.
	empty, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := empty.Search(q.Points, 3); res != nil {
		t.Errorf("empty index → %v", res)
	}
}

// TestOptimizedTrieSmaller reproduces the Fig. 7 phenomenon: on data
// with shared cells in different orders, re-arrangement reduces the
// node count and never changes results.
func TestOptimizedTrieSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, _ := grid.NewWithBits(region, 3)
	// Trajectories visiting the same few cells in shuffled orders.
	cells := []geo.Point{{X: 0.5, Y: 0.5}, {X: 2.5, Y: 0.5}, {X: 4.5, Y: 0.5}, {X: 6.5, Y: 0.5}, {X: 0.5, Y: 2.5}}
	var ds []*geo.Trajectory
	for i := 0; i < 40; i++ {
		perm := rng.Perm(len(cells))
		n := 2 + rng.Intn(len(cells)-1)
		tr := &geo.Trajectory{ID: i}
		for _, j := range perm[:n] {
			tr.Points = append(tr.Points, cells[j])
		}
		ds = append(ds, tr)
	}
	basic, err := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Build(Config{Measure: dist.Hausdorff, Grid: g, Optimize: true}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumNodes() >= basic.NumNodes() {
		t.Errorf("optimized trie has %d nodes, basic %d", opt.NumNodes(), basic.NumNodes())
	}
	q := []geo.Point{{X: 1, Y: 1}, {X: 3, Y: 1}}
	assertTopK(t, "optimized", dist.Hausdorff, dist.Params{}, ds, q, 7, opt.Search(q, 7))
	assertTopK(t, "basic", dist.Hausdorff, dist.Params{}, ds, q, 7, basic.Search(q, 7))
}

// TestGreedyHittingSetExample3 pins Appendix B's Example 3: for the
// Table X collection, the first-level children are 0011, 0100, 0101
// (greedy most-frequent order).
func TestGreedyHittingSetExample3(t *testing.T) {
	// Six cells: 0001, 0010, 0011, 0100, 0101, 0110 (z-values on a
	// 4x4 grid). Build the reference sets of Table X directly.
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 4, Y: 4}}
	g, _ := grid.NewWithBits(region, 2) // 16 cells, z-values 0..15
	// Cell center for a z-value on this grid.
	center := func(z uint64) geo.Point { return g.CellByZ(z).Center }
	sets := [][]uint64{
		{0b0001, 0b0011},
		{0b0001, 0b0011, 0b0101},
		{0b0010, 0b0011},
		{0b0010, 0b0011, 0b0101},
		{0b0011, 0b0101},
		{0b0001, 0b0100},
		{0b0010, 0b0100},
		{0b0101, 0b0110},
	}
	var ds []*geo.Trajectory
	for i, zs := range sets {
		tr := &geo.Trajectory{ID: i + 1}
		for _, z := range zs {
			tr.Points = append(tr.Points, center(z))
		}
		ds = append(ds, tr)
	}
	trie, err := Build(Config{Measure: dist.Hausdorff, Grid: g, Optimize: true}, ds)
	if err != nil {
		t.Fatal(err)
	}
	var rootKids []uint64
	for _, c := range trie.state().core.(*trieState).root.children {
		rootKids = append(rootKids, c.z)
	}
	sort.Slice(rootKids, func(i, j int) bool { return rootKids[i] < rootKids[j] })
	want := []uint64{0b0011, 0b0100, 0b0101}
	if len(rootKids) != len(want) {
		t.Fatalf("root children = %v, want %v", rootKids, want)
	}
	for i := range want {
		if rootKids[i] != want[i] {
			t.Fatalf("root children = %v, want %v", rootKids, want)
		}
	}
	// The greedy construction yields 11 nodes: 3 at level 1, then 5
	// under 0011 (0101 with children 0001 and 0010, plus 0001 and
	// 0010 for Z1/Z3), 2 under 0100, and 1 under 0101.
	if trie.NumNodes() != 11 {
		t.Errorf("NumNodes = %d, want 11", trie.NumNodes())
	}
}

// TestPruningDoesWork verifies the bounds actually save distance
// computations relative to scanning everything.
func TestPruningDoesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, _ := grid.NewWithBits(region, 5)
	ds := randomDataset(rng, 400)
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	pivots := pivot.Select(ds, 5, 10, dist.Hausdorff, p, 3)
	trie, err := Build(Config{Measure: dist.Hausdorff, Params: p, Grid: g, Pivots: pivots}, ds)
	if err != nil {
		t.Fatal(err)
	}
	q := []geo.Point{{X: 1, Y: 1}, {X: 1.5, Y: 1.2}, {X: 2, Y: 1.4}}
	_, stats := trie.SearchWithStats(q, 5)
	if stats.ExactComputations >= len(ds) {
		t.Errorf("no pruning: %d exact computations for %d trajectories",
			stats.ExactComputations, len(ds))
	}
	if stats.ExactComputations == 0 {
		t.Error("search refined nothing")
	}
}

// TestStatsConsistency: stats fields are self-consistent.
func TestStatsConsistency(t *testing.T) {
	ds, q, g := paperDataset()
	trie, _ := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	res, stats := trie.SearchWithStats(q.Points, 2)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if stats.LeavesRefined == 0 || stats.ExactComputations == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.EntriesPushed < stats.NodesExpanded+stats.LeavesRefined {
		t.Errorf("pushed %d < popped %d", stats.EntriesPushed,
			stats.NodesExpanded+stats.LeavesRefined)
	}
}

func TestAccessors(t *testing.T) {
	ds, _, g := paperDataset()
	trie, _ := Build(Config{Measure: dist.Hausdorff, Grid: g}, ds)
	if trie.Len() != 5 {
		t.Errorf("Len = %d", trie.Len())
	}
	if trie.Trajectory(3) == nil || trie.Trajectory(3).ID != 3 {
		t.Error("Trajectory(3) lookup failed")
	}
	if trie.Trajectory(99) != nil {
		t.Error("missing id should be nil")
	}
	if trie.NumNodes() <= 0 || trie.MaxDepth() <= 0 {
		t.Errorf("NumNodes=%d MaxDepth=%d", trie.NumNodes(), trie.MaxDepth())
	}
	if trie.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	if trie.Config().Measure != dist.Hausdorff {
		t.Error("Config round-trip failed")
	}
}
