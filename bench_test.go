// Benchmarks regenerating each table and figure of the paper at
// reduced scale, plus ablations of REPOSE's design choices. Every
// BenchmarkTableN / BenchmarkFigN corresponds to the experiment of
// the same number; cmd/repose-bench produces the full row/series
// output, these benches time the same code paths under testing.B.
//
//	go test -bench=. -benchmem .
package repose_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repose"
	"repose/internal/cluster"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/partition"
	"repose/internal/pivot"
	"repose/internal/rptrie"
)

// benchScale keeps one bench iteration in the microsecond-to-
// millisecond range; cmd/repose-bench raises it for full runs.
const benchScale = 1.0 / 2048

// benchK is the top-k size used by the query benches.
const benchK = 10

// world is a cached dataset + query workload + engines.
type world struct {
	ds      []*geo.Trajectory
	spec    dataset.Spec
	queries []*geo.Trajectory
	engines map[string]*cluster.Local
}

var (
	worldMu sync.Mutex
	worlds  = map[string]*world{}
)

func getWorld(b *testing.B, name string) *world {
	b.Helper()
	worldMu.Lock()
	defer worldMu.Unlock()
	if w, ok := worlds[name]; ok {
		return w
	}
	spec, err := dataset.ByName(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.Generate(spec)
	w := &world{
		ds:      ds,
		spec:    spec,
		queries: dataset.Queries(ds, 10, 999),
		engines: map[string]*cluster.Local{},
	}
	worlds[name] = w
	return w
}

// engineOpts parameterizes getEngine caching.
type engineOpts struct {
	algo       cluster.Algorithm
	measure    dist.Measure
	strategy   partition.Strategy
	delta      float64 // 0 → dataset default
	np         int     // 0 → 5, <0 → none
	partitions int     // 0 → 8
	optimize   bool
	layout     rptrie.Layout
	disableLBt bool
	disableLBp bool
}

func defaultDelta(name string) float64 { return dataset.DefaultDelta(name) }

func (w *world) engine(b *testing.B, name string, o engineOpts) *cluster.Local {
	b.Helper()
	key := fmt.Sprintf("%+v", o)
	worldMu.Lock()
	defer worldMu.Unlock()
	if eng, ok := w.engines[key]; ok {
		return eng
	}
	region := w.spec.Region()
	delta := o.delta
	if delta == 0 {
		delta = defaultDelta(name)
	}
	nparts := o.partitions
	if nparts == 0 {
		nparts = 8
	}
	params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	g, err := grid.New(region, delta)
	if err != nil {
		b.Fatal(err)
	}
	assign, err := partition.Assign(o.strategy, w.ds, g, nparts, 7)
	if err != nil {
		b.Fatal(err)
	}
	parts := partition.Split(w.ds, assign, nparts)
	np := o.np
	if np == 0 {
		np = 5
	}
	var pivots []*geo.Trajectory
	if o.algo == cluster.REPOSE && np > 0 && o.measure.IsMetric() {
		pivots = pivot.Select(w.ds, np, pivot.DefaultGroups, o.measure, params, 13)
	}
	spec := cluster.IndexSpec{
		Algorithm:  o.algo,
		Measure:    o.measure,
		Params:     params,
		Region:     region,
		Delta:      delta,
		Pivots:     pivots,
		Optimize:   o.optimize && o.measure.OrderIndependent(),
		Layout:     o.layout,
		DisableLBt: o.disableLBt,
		DisableLBp: o.disableLBp,
		DFTC:       5,
		DITANL:     32,
		DITAPivot:  4,
		DITAC:      5,
		Seed:       17,
	}
	eng, err := cluster.BuildLocal(spec, parts, 0)
	if err != nil {
		b.Fatal(err)
	}
	w.engines[key] = eng
	return eng
}

func benchQueries(b *testing.B, eng *cluster.Local, queries []*geo.Trajectory, k int) {
	b.Helper()
	b.ReportMetric(float64(eng.IndexSizeBytes())/(1<<20), "index_MB")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, _, err := eng.Search(context.Background(), q.Points, k, cluster.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrie builds one single-partition pointer-layout trie over the
// whole benchmark dataset — the hot path the zero-allocation
// guarantee is stated for.
func benchTrie(b *testing.B, w *world, name string, m dist.Measure) *rptrie.Trie {
	b.Helper()
	region := w.spec.Region()
	g, err := grid.New(region, defaultDelta(name))
	if err != nil {
		b.Fatal(err)
	}
	params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	var pivots []*geo.Trajectory
	if m.IsMetric() {
		pivots = pivot.Select(w.ds, 5, pivot.DefaultGroups, m, params, 13)
	}
	trie, err := rptrie.Build(rptrie.Config{
		Measure: m, Params: params, Grid: g, Pivots: pivots,
		Optimize: m.OrderIndependent(),
	}, w.ds)
	if err != nil {
		b.Fatal(err)
	}
	return trie
}

// BenchmarkSearch times the top-k query path — the smoke benchmark CI
// runs with -benchtime=1x so the harness cannot rot. "engine" is the
// public unified API end to end (Build + Search on the local engine);
// "trie" is the single-partition pointer-layout hot path, which must
// report 0 allocs/op in steady state (the pooled scratch warms up
// before the timer starts).
func BenchmarkSearch(b *testing.B) {
	w := getWorld(b, "T-drive")
	b.Run("engine", func(b *testing.B) {
		idx, err := repose.Build(w.ds, repose.Options{Partitions: 8, Delta: defaultDelta("T-drive")})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		ctx := context.Background()
		// Warm the per-partition scratch pools (and the pooled shared
		// result heap) so allocs/op is the steady-state engine call —
		// CI holds it under a ceiling.
		for _, q := range w.queries {
			if _, err := idx.Search(ctx, q, benchK); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			if _, err := idx.Search(ctx, q, benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trie", func(b *testing.B) {
		trie := benchTrie(b, w, "T-drive", dist.Hausdorff)
		var out []repose.Result
		for _, q := range w.queries { // warm the pooled scratch
			out = trie.SearchAppend(out[:0], q.Points, benchK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			out = trie.SearchAppend(out[:0], q.Points, benchK)
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	})
	// The same hot path through the pluggable Refiner interface with
	// the default whole-trajectory refiner: interface dispatch must not
	// put an allocation on the per-candidate path, so this variant is
	// pinned at 0 allocs/op in CI next to /trie.
	b.Run("refiner", func(b *testing.B) {
		trie := benchTrie(b, w, "T-drive", dist.Hausdorff)
		region := w.spec.Region()
		params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
		opt := rptrie.SearchOptions{Refiner: rptrie.WholeRefiner(dist.Hausdorff, params)}
		ctx := context.Background()
		var out []repose.Result
		var err error
		for _, q := range w.queries { // warm the pooled scratch
			if out, err = trie.SearchAppendContext(ctx, out[:0], q.Points, benchK, opt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			if out, err = trie.SearchAppendContext(ctx, out[:0], q.Points, benchK, opt); err != nil {
				b.Fatal(err)
			}
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	})
	// The trit-array layout on the same queries: the cmpRef arena and
	// pooled scratch keep the delta-empty path at 0 allocs/op too
	// (asserted in CI next to /trie), and ns/op here against a
	// Compress()d succinct baseline is the ~1.3× headline bound.
	b.Run("compressed", func(b *testing.B) {
		cmp, err := rptrie.CompressTST(benchTrie(b, w, "T-drive", dist.Hausdorff))
		if err != nil {
			b.Fatal(err)
		}
		var out []repose.Result
		for _, q := range w.queries { // warm the pooled scratch
			out = cmp.SearchAppend(out[:0], q.Points, benchK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			out = cmp.SearchAppend(out[:0], q.Points, benchK)
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	})
	// The two-tier bitmap layout, for the latency comparison.
	b.Run("succinct", func(b *testing.B) {
		suc, err := rptrie.Compress(benchTrie(b, w, "T-drive", dist.Hausdorff))
		if err != nil {
			b.Fatal(err)
		}
		var out []repose.Result
		for _, q := range w.queries { // warm the pooled scratch
			out = suc.SearchAppend(out[:0], q.Points, benchK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			out = suc.SearchAppend(out[:0], q.Points, benchK)
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	})
	// Same hot path with the disk-backed store attached: reads never
	// touch the WAL or buffer pool, so the delta-empty path must stay
	// 0 allocs/op (asserted in CI next to /trie).
	b.Run("durable", func(b *testing.B) {
		d, err := rptrie.WrapDurable(b.TempDir(), benchTrie(b, w, "T-drive", dist.Hausdorff), rptrie.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		var out []repose.Result
		for _, q := range w.queries { // warm the pooled scratch
			out = d.SearchAppend(out[:0], q.Points, benchK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			out = d.SearchAppend(out[:0], q.Points, benchK)
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	})
}

// BenchmarkSearchAfterInserts times the top-k hot path with a live
// delta overlay: "delta" queries a trie carrying pending inserts and
// tombstones (the overlay's linear scan rides on top of the normal
// best-first search), "compacted" queries the same live set after the
// delta was folded back into the trie — the pair brackets the cost of
// deferring compaction. BenchmarkSearch/trie (above) pins the
// delta-empty static path at 0 allocs/op; this bench documents what a
// non-empty overlay costs.
func BenchmarkSearchAfterInserts(b *testing.B) {
	w := getWorld(b, "T-drive")
	const pending = 64
	run := func(b *testing.B, trie *rptrie.Trie) {
		var out []repose.Result
		for _, q := range w.queries { // warm the pooled scratch
			out = trie.SearchAppend(out[:0], q.Points, benchK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			out = trie.SearchAppend(out[:0], q.Points, benchK)
		}
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	}
	mutate := func(b *testing.B, trie *rptrie.Trie) {
		rng := rand.New(rand.NewSource(77))
		fresh := make([]*geo.Trajectory, pending)
		for i := range fresh {
			src := w.ds[rng.Intn(len(w.ds))]
			fresh[i] = &geo.Trajectory{ID: 1_000_000 + i, Points: src.Points}
		}
		if err := trie.Insert(fresh...); err != nil {
			b.Fatal(err)
		}
		if n := trie.Delete(w.ds[0].ID, w.ds[1].ID); n != 2 {
			b.Fatalf("delete removed %d", n)
		}
	}
	b.Run("delta", func(b *testing.B) {
		trie := benchTrie(b, w, "T-drive", dist.Hausdorff)
		mutate(b, trie)
		if trie.DeltaLen() != pending+2 {
			b.Fatalf("delta = %d", trie.DeltaLen())
		}
		run(b, trie)
	})
	b.Run("compacted", func(b *testing.B) {
		trie := benchTrie(b, w, "T-drive", dist.Hausdorff)
		mutate(b, trie)
		if err := trie.Compact(); err != nil {
			b.Fatal(err)
		}
		run(b, trie)
	})
}

// BenchmarkSearchRadius times the range-query path on the engine and
// on the single-partition trie.
func BenchmarkSearchRadius(b *testing.B) {
	w := getWorld(b, "T-drive")
	radius := w.spec.Region().Max.Dist(w.spec.Region().Min) / 8
	b.Run("engine", func(b *testing.B) {
		idx, err := repose.Build(w.ds, repose.Options{Partitions: 8, Delta: defaultDelta("T-drive")})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			if _, err := idx.SearchRadius(ctx, q, radius); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trie", func(b *testing.B) {
		trie := benchTrie(b, w, "T-drive", dist.Hausdorff)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			_ = trie.SearchRadius(q.Points, radius)
		}
	})
}

// BenchmarkSearchBatch times the batched query path over the shared
// worker pool.
func BenchmarkSearchBatch(b *testing.B) {
	w := getWorld(b, "T-drive")
	idx, err := repose.Build(w.ds, repose.Options{Partitions: 8, Delta: defaultDelta("T-drive")})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SearchBatch(ctx, w.queries, benchK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchMeasures times the single-partition top-k hot path
// under each of the six measures, with allocation counts: any
// per-measure scratch regression (a kernel or bound that starts
// allocating) shows up here.
func BenchmarkSearchMeasures(b *testing.B) {
	w := getWorld(b, "T-drive")
	for _, m := range dist.Measures() {
		b.Run(m.String(), func(b *testing.B) {
			trie := benchTrie(b, w, "T-drive", m)
			var out []repose.Result
			for _, q := range w.queries {
				out = trie.SearchAppend(out[:0], q.Points, benchK)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := w.queries[i%len(w.queries)]
				out = trie.SearchAppend(out[:0], q.Points, benchK)
			}
		})
	}
}

// BenchmarkRefineWorkers measures intra-partition parallel leaf
// refinement against the sequential default on a single-partition
// index (where the partition-level parallelism the engine usually
// relies on is absent).
func BenchmarkRefineWorkers(b *testing.B) {
	w := getWorld(b, "T-drive")
	idx, err := repose.Build(w.ds, repose.Options{Partitions: 1, Delta: defaultDelta("T-drive")})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := w.queries[i%len(w.queries)]
				if _, err := idx.Search(ctx, q, benchK, repose.WithRefineWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4 measures QT per dataset × measure × algorithm (the
// performance-overview table). IS is attached as a custom metric.
func BenchmarkTable4(b *testing.B) {
	for _, name := range []string{"T-drive", "Xian"} {
		w := getWorld(b, name)
		for _, m := range []dist.Measure{dist.Hausdorff, dist.Frechet, dist.DTW} {
			algos := []cluster.Algorithm{cluster.REPOSE, cluster.DITA, cluster.DFT, cluster.LS}
			for _, algo := range algos {
				if (algo == cluster.DITA && m == dist.Hausdorff) ||
					(algo == cluster.DFT && !(m == dist.Hausdorff || m == dist.Frechet || m == dist.DTW)) {
					continue
				}
				strategy := partition.Heterogeneous
				if algo != cluster.REPOSE {
					strategy = partition.Homogeneous
				}
				b.Run(fmt.Sprintf("%s/%v/%v", name, m, algo), func(b *testing.B) {
					eng := w.engine(b, name, engineOpts{
						algo: algo, measure: m, strategy: strategy, optimize: true,
					})
					benchQueries(b, eng, w.queries, benchK)
				})
			}
		}
	}
}

// BenchmarkTable4Build measures IT: index construction time per
// algorithm (T-drive, Hausdorff where supported).
func BenchmarkTable4Build(b *testing.B) {
	w := getWorld(b, "T-drive")
	region := w.spec.Region()
	g, err := grid.New(region, defaultDelta("T-drive"))
	if err != nil {
		b.Fatal(err)
	}
	params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	for _, algo := range []cluster.Algorithm{cluster.REPOSE, cluster.DFT} {
		b.Run(algo.String(), func(b *testing.B) {
			assign, err := partition.Assign(partition.Heterogeneous, w.ds, g, 8, 7)
			if err != nil {
				b.Fatal(err)
			}
			parts := partition.Split(w.ds, assign, 8)
			spec := cluster.IndexSpec{
				Algorithm: algo, Measure: dist.Hausdorff, Params: params,
				Region: region, Delta: defaultDelta("T-drive"), Optimize: true,
				DFTC: 5, Seed: 17,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.BuildLocal(spec, parts, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6 sweeps k (query-time-vs-k curves).
func BenchmarkFig6(b *testing.B) {
	w := getWorld(b, "T-drive")
	for _, m := range []dist.Measure{dist.Hausdorff, dist.Frechet} {
		eng := w.engine(b, "T-drive", engineOpts{
			algo: cluster.REPOSE, measure: m, strategy: partition.Heterogeneous, optimize: true,
		})
		for _, k := range []int{1, 10, 50, 100} {
			if k > len(w.ds) {
				break
			}
			b.Run(fmt.Sprintf("%v/k=%d", m, k), func(b *testing.B) {
				benchQueries(b, eng, w.queries, k)
			})
		}
	}
}

// BenchmarkTable5 sweeps the grid cell side δ.
func BenchmarkTable5(b *testing.B) {
	w := getWorld(b, "T-drive")
	for _, delta := range []float64{0.01, 0.05, 0.15, 0.30} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			eng := w.engine(b, "T-drive", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff,
				strategy: partition.Heterogeneous, delta: delta, optimize: true,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkTable6 sweeps the pivot count Np.
func BenchmarkTable6(b *testing.B) {
	w := getWorld(b, "T-drive")
	for _, np := range []int{1, 3, 5, 7, 11} {
		b.Run(fmt.Sprintf("Np=%d", np), func(b *testing.B) {
			eng := w.engine(b, "T-drive", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff,
				strategy: partition.Heterogeneous, np: np, optimize: true,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkFig7 compares the optimized (re-arranged) and basic tries.
func BenchmarkFig7(b *testing.B) {
	w := getWorld(b, "T-drive")
	for _, optimized := range []bool{true, false} {
		label := "optimized"
		if !optimized {
			label = "unoptimized"
		}
		b.Run(label, func(b *testing.B) {
			eng := w.engine(b, "T-drive", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff,
				strategy: partition.Heterogeneous, optimize: optimized,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkFig8 sweeps dataset cardinality.
func BenchmarkFig8(b *testing.B) {
	w := getWorld(b, "Xian")
	for _, scale := range []float64{0.2, 0.6, 1.0} {
		n := int(float64(len(w.ds)) * scale)
		if n < 1 {
			n = 1
		}
		sub := &world{
			ds: w.ds[:n], spec: w.spec, queries: w.queries,
			engines: map[string]*cluster.Local{},
		}
		b.Run(fmt.Sprintf("scale=%.1f", scale), func(b *testing.B) {
			eng := sub.engine(b, "Xian", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff,
				strategy: partition.Heterogeneous, optimize: true,
			})
			benchQueries(b, eng, sub.queries, benchK)
		})
	}
}

// BenchmarkFig9 sweeps the number of partitions.
func BenchmarkFig9(b *testing.B) {
	w := getWorld(b, "Xian")
	for _, nparts := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("partitions=%d", nparts), func(b *testing.B) {
			eng := w.engine(b, "Xian", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff,
				strategy: partition.Heterogeneous, partitions: nparts, optimize: true,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkTable7 compares the global partitioning strategies.
func BenchmarkTable7(b *testing.B) {
	w := getWorld(b, "Xian")
	for _, s := range []partition.Strategy{partition.Heterogeneous, partition.Homogeneous, partition.Random} {
		b.Run(s.String(), func(b *testing.B) {
			eng := w.engine(b, "Xian", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff, strategy: s, optimize: true,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkTable8 compares REPOSE, Heter-DITA, and DITA on Frechet.
func BenchmarkTable8(b *testing.B) {
	w := getWorld(b, "T-drive")
	rows := []struct {
		label    string
		algo     cluster.Algorithm
		strategy partition.Strategy
	}{
		{"REPOSE", cluster.REPOSE, partition.Heterogeneous},
		{"Heter-DITA", cluster.DITA, partition.Heterogeneous},
		{"DITA", cluster.DITA, partition.Homogeneous},
	}
	for _, r := range rows {
		b.Run(r.label, func(b *testing.B) {
			eng := w.engine(b, "T-drive", engineOpts{
				algo: r.algo, measure: dist.Frechet, strategy: r.strategy, optimize: true,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkTable9 compares REPOSE, Heter-DFT, and DFT on Hausdorff.
func BenchmarkTable9(b *testing.B) {
	w := getWorld(b, "T-drive")
	rows := []struct {
		label    string
		algo     cluster.Algorithm
		strategy partition.Strategy
	}{
		{"REPOSE", cluster.REPOSE, partition.Heterogeneous},
		{"Heter-DFT", cluster.DFT, partition.Heterogeneous},
		{"DFT", cluster.DFT, partition.Homogeneous},
	}
	for _, r := range rows {
		b.Run(r.label, func(b *testing.B) {
			eng := w.engine(b, "T-drive", engineOpts{
				algo: r.algo, measure: dist.Hausdorff, strategy: r.strategy, optimize: true,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkAblationBounds toggles the two-side and pivot bounds off —
// the design-choice ablation DESIGN.md calls out.
func BenchmarkAblationBounds(b *testing.B) {
	w := getWorld(b, "Xian")
	variants := []struct {
		label      string
		disableLBt bool
		disableLBp bool
	}{
		{"all-bounds", false, false},
		{"no-LBt", true, false},
		{"no-LBp", false, true},
		{"LBo-only", true, true},
	}
	for _, v := range variants {
		b.Run(v.label, func(b *testing.B) {
			eng := w.engine(b, "Xian", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff,
				strategy: partition.Heterogeneous, optimize: true,
				disableLBt: v.disableLBt, disableLBp: v.disableLBp,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkAblationLayout compares the pointer, succinct, and
// compressed (tSTAT) trie layouts on the same queries; index_MB shows
// each layout's footprint next to its latency.
func BenchmarkAblationLayout(b *testing.B) {
	w := getWorld(b, "T-drive")
	for _, layout := range []rptrie.Layout{rptrie.LayoutPointer, rptrie.LayoutSuccinct, rptrie.LayoutCompressed} {
		b.Run(layout.String(), func(b *testing.B) {
			eng := w.engine(b, "T-drive", engineOpts{
				algo: cluster.REPOSE, measure: dist.Hausdorff,
				strategy: partition.Heterogeneous, optimize: true, layout: layout,
			})
			benchQueries(b, eng, w.queries, benchK)
		})
	}
}

// BenchmarkAblationIncrementalLB isolates the Section IV-C
// optimization: maintaining bounds incrementally (O(m) per node)
// versus recomputing them from the whole prefix (O(mn)).
func BenchmarkAblationIncrementalLB(b *testing.B) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	q := make([]geo.Point, 50)
	for i := range q {
		q[i] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
	}
	path := make([]grid.Cell, 64)
	for i := range path {
		path[i] = g.CellOf(geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8})
	}
	meta := dist.NodeMeta{MinLen: 10, MaxLen: 100}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bd := dist.NewBounder(dist.Hausdorff, q, g.HalfDiagonal(), dist.Params{})
			for _, c := range path {
				bd.Extend(c)
				_ = bd.LBo(meta)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for depth := 1; depth <= len(path); depth++ {
				bd := dist.NewBounder(dist.Hausdorff, q, g.HalfDiagonal(), dist.Params{})
				for _, c := range path[:depth] {
					bd.Extend(c)
				}
				_ = bd.LBo(meta)
			}
		}
	})
}

// BenchmarkDistances times the six exact distance kernels.
func BenchmarkDistances(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	mk := func(n int) []geo.Point {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
		}
		return pts
	}
	a, c := mk(100), mk(100)
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	for _, m := range dist.Measures() {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist.Distance(m, a, c, p)
			}
		})
	}
}

// BenchmarkTrieBuild times single-partition RP-Trie construction.
func BenchmarkTrieBuild(b *testing.B) {
	w := getWorld(b, "T-drive")
	region := w.spec.Region()
	g, err := grid.New(region, defaultDelta("T-drive"))
	if err != nil {
		b.Fatal(err)
	}
	for _, optimized := range []bool{false, true} {
		label := "basic"
		if optimized {
			label = "rearranged"
		}
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rptrie.Build(rptrie.Config{
					Measure: dist.Hausdorff, Grid: g, Optimize: optimized,
				}, w.ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
