// Command repose-bench regenerates the paper's tables and figures,
// and doubles as the query micro-benchmark harness.
//
// Usage:
//
//	repose-bench -exp table4 -scale 0.015625 -partitions 64 -k 100
//	repose-bench -exp all -csv out/
//	repose-bench -benchjson BENCH_search.json -baseline BENCH_search.json
//
// Each experiment prints the same rows/series the paper reports;
// EXPERIMENTS.md records how the shapes compare. -benchjson skips the
// experiments and instead runs the query micro-benchmark suite
// (engine-level Search/SearchRadius/SearchBatch plus the
// single-partition trie hot path per measure) on a synthetic dataset,
// writing ns/op, allocs/op, and QPS as machine-readable JSON;
// -baseline annotates each result with the speedup over an earlier
// report.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repose/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.ExperimentIDs, ", ")+") or 'all'")
		scale      = flag.Float64("scale", 1.0/512, "dataset cardinality scale relative to the paper")
		partitions = flag.Int("partitions", 8, "number of global partitions")
		workers    = flag.Int("workers", 0, "parallelism cap (0 = GOMAXPROCS)")
		k          = flag.Int("k", 10, "top-k result size")
		queries    = flag.Int("queries", 5, "queries averaged per measurement")
		datasets   = flag.String("datasets", "", "comma-separated dataset subset (default: the experiment's paper datasets)")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		verbose    = flag.Bool("v", false, "stream progress")
		benchJSON  = flag.String("benchjson", "", "run the query micro-benchmark suite and write JSON results to this path (skips -exp)")
		baseline   = flag.String("baseline", "", "earlier -benchjson report to compute speedups against")
		benchData  = flag.String("benchdataset", "T-drive", "dataset for -benchjson")
		subJSON    = flag.String("subjson", "", "run the refined-query micro-benchmark suite (subtrajectory and time-windowed search) and write JSON results to this path (skips -exp)")
		storJSON   = flag.String("storagejson", "", "run the cold-start benchmark suite (WAL replay vs rebuild vs peer restore) and write JSON results to this path (skips -exp)")
		memJSON    = flag.String("memjson", "", "run the per-layout memory benchmark (index bytes, snapshot image bytes, search latency) and write JSON results to this path (skips -exp)")
		memDelta   = flag.Float64("memdelta", 0.01, "grid delta for -memjson; 0 uses the dataset's experiment default (the bench defaults to a fine grid, the regime where index layout matters)")
		serveDur   = flag.Duration("serveduration", 2*time.Second, "per-phase duration for -rebalancejson")
		rebalJSON  = flag.String("rebalancejson", "", "run the live-rebalancing skew harness (tail latency before vs after migrating a hot partition) and write JSON results to this path (skips -exp)")
	)
	flag.Parse()

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *baseline, *benchData, *scale, *k); err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *subJSON != "" {
		if err := runBenchSub(*subJSON, *baseline, *benchData, *scale, *k); err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storJSON != "" {
		if err := runBenchStorage(*storJSON, *benchData, *scale, *k); err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *memJSON != "" {
		if err := runBenchMemory(*memJSON, *benchData, *scale, *memDelta, *k); err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *rebalJSON != "" {
		if err := runRebalanceJSON(*rebalJSON, *benchData, *scale, *k, *serveDur, 8); err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{
		Scale:      *scale,
		Partitions: *partitions,
		Workers:    *workers,
		K:          *k,
		Queries:    *queries,
		Verbose:    *verbose,
		Out:        os.Stderr,
	}
	var subset []string
	if *datasets != "" {
		subset = strings.Split(*datasets, ",")
	}

	ids := experiments.ExperimentIDs
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		runner, ok := experiments.Runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "repose-bench: unknown experiment %q (have: %s)\n",
				id, strings.Join(experiments.ExperimentIDs, ", "))
			os.Exit(2)
		}
		table, err := runner(cfg, subset)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := table.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, table); err != nil {
				fmt.Fprintf(os.Stderr, "repose-bench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func writeCSV(dir, id string, table *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	if err := table.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
