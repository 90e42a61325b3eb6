package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostRecord is what a number cannot be read without.
type hostRecord struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"dataset_scale"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	DurableFS  string  `json:"durable_dir_filesystem"`
	When       string  `json:"when"`
}

func newHostRecord(cfg config) hostRecord {
	return hostRecord{
		Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clientCount(),
		GoVersion: runtime.Version(), Commit: gitCommit(),
		DurableFS: filesystemOf(cfg.outDir),
		When:      time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads HEAD from the repository the benchmark sits in; the
// driver's checkout is not one, and then the record says so.
func gitCommit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return ref // a packed ref: name the branch
	}
	return "unknown (not a git checkout)"
}

// runPass runs one workload once: end to end, or the traced pass.
func runPass(cfg config, w workload, traced bool) (*report, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(e, w)
	}
	return runEndToEnd(e, w)
}

// writeResults records the host and the reports in out/results.json.
func writeResults(cfg config, reports []*report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Host    hostRecord `json:"host"`
		Reports []*report  `json:"reports"`
	}{newHostRecord(cfg), reports}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(b, '\n'), 0o644)
}

// runOne is the contract's entry point: one workload, human-readable
// tables first, the JSON result as the last line of standard output.
func runOne(cfg config, name string, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runPass(cfg, w, traced)
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	if err := writeResults(cfg, []*report{r}); err != nil {
		return err
	}
	fmt.Println(r.resultLine())
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", name, r.Failed, r.Attempted)
	}
	return nil
}

// runSuite runs every workload once and prints each report.
func runSuite(cfg config, traced bool, out io.Writer) ([]*report, error) {
	var reports []*report
	failed := 0
	for _, w := range workloads {
		r, err := runPass(cfg, w, traced)
		if err != nil {
			return nil, err
		}
		r.print(out)
		reports = append(reports, r)
		failed += r.Failed
	}
	if err := writeResults(cfg, reports); err != nil {
		return nil, err
	}
	if failed > 0 {
		return reports, fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return reports, nil
}

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json from the benchmark's
// directory or the repository root.
func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return bf, err
		}
		return bf, json.Unmarshal(raw, &bf)
	}
	return bf, errors.New("BENCHMARK.json not found in . or ..")
}

// aaRuns is how many end-to-end runs each side of the A/A comparison
// takes the median of, as the driver compares medians of sets of runs.
const aaRuns = 3

// runAA runs the suite twice with one seed: aaRuns end-to-end runs,
// alternating, and one traced pass per side. The second side's median of every
// end-to-end metric must be within its bound of the first's, and
// every exact count of the traced pass must repeat.
func runAA(cfg config) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	type side struct {
		endToEnd [][]*report // [run][workload]
		traced   []*report
	}
	var sides [2]side
	// The sides take turns, so that a slow phase of the host falls on
	// both.
	for run := 0; run < aaRuns; run++ {
		for i := range sides {
			fmt.Printf("\n#### A/A side %d, end-to-end run %d of %d ####\n", i+1, run+1, aaRuns)
			reports, err := runSuite(cfg, false, os.Stdout)
			if err != nil {
				return err
			}
			sides[i].endToEnd = append(sides[i].endToEnd, reports)
		}
	}
	for i := range sides {
		fmt.Printf("\n#### A/A side %d, traced pass ####\n", i+1)
		if sides[i].traced, err = runSuite(cfg, true, os.Stdout); err != nil {
			return err
		}
	}
	medianOf := func(s side, wi int, name string) float64 {
		var vals []float64
		for _, run := range s.endToEnd {
			vals = append(vals, run[wi].Metrics[name].Value)
		}
		return median(vals)
	}
	bad := 0
	fmt.Printf("\n#### A/A: second side against first, seed %d, medians of %d runs ####\n", cfg.seed, aaRuns)
	fmt.Printf("%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "side 1", "side 2", "worse by", "bound")
	for wi, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := medianOf(sides[0], wi, m.Name), medianOf(sides[1], wi, m.Name)
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "  EXCEEDED"
				bad++
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	for wi, first := range sides[0].traced {
		second := sides[1].traced[wi]
		for _, name := range exactCounts {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				fmt.Printf("%-16s %-40s %v != %v  NOT REPEATED\n", first.Workload, name, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metrics outside their bound or counts not repeated", bad)
	}
	fmt.Printf("A/A: every end-to-end metric within its bound; all %d exact counts repeated on every workload\n", len(exactCounts))
	return nil
}
