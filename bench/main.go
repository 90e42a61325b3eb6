// Command bench is the repository's one layered benchmark. It drives
// four workloads through the system's real front doors, checks every
// answer against internal/oracle, and prints the metrics BENCHMARK.json
// names: end to end with tracing off, per layer from a separate traced
// one-client pass. See README.md beside this file.
//
//	go run -C bench .                                  # whole suite, tracing off
//	go run -C bench . -trace 1                         # per-layer pass of every workload
//	go run -C bench . -workload lib_dtw -seed 7 -seconds 10 -trace 0
//	go run -C bench . -aa                              # suite twice, same seed, against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the contract's JSON result line (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of the generated traffic: query pool, Zipf draws, inserted set, delete victims, client RNGs")
		seconds = flag.Float64("seconds", 10, "measured window per workload; the warm-up before it is a quarter of this, at most 3 s")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced one-client pass")
		aa      = flag.Bool("aa", false, "run the suite twice with one seed and compare against BENCHMARK.json's bounds")
		outDir  = flag.String("out", "out", "directory for results.json, trace files and the durable index")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, scale: defaultScale, outDir: *outDir}
	if flag.NArg() > 0 || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *aa:
		err = runAA(cfg)
	case *name != "":
		err = runOne(cfg, *name, *trace == 1)
	default:
		_, err = runSuite(cfg, *trace == 1, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
