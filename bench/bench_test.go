package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every pass of every workload at 1/256 scale with
// one-second windows (about a minute in all; skipped by -short)
// and holds the harness to its contract: the names it emits are
// BENCHMARK.json's, no answer is wrong, no end-to-end metric is empty,
// spans add up, and exact counts repeat.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run takes about a minute")
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 11, seconds: 1, scale: 1.0 / 256, outDir: t.TempDir()}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var endToEnd, perLayer []string
	for _, m := range bf.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	checkNames := func(r *report, want []string) {
		t.Helper()
		if len(r.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", r.Workload, r.Traced, len(r.Metrics), len(want))
		}
		for _, n := range want {
			v, ok := r.Metrics[n]
			if !ok {
				t.Errorf("%s traced=%v: %s is in BENCHMARK.json and was not emitted", r.Workload, r.Traced, n)
			}
			if !name.MatchString(n) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit == "" {
				t.Errorf("%s: %s = %v %q", r.Workload, n, v.Value, v.Unit)
			}
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: %d failed of %d attempted", r.Workload, r.Traced, r.Failed, r.Attempted)
		}
	}

	var traced *report
	for _, w := range workloads {
		r, err := runPass(cfg, w, false)
		if err != nil {
			t.Fatal(err)
		}
		checkNames(r, endToEnd)
		for _, n := range endToEnd {
			if r.Metrics[n].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", w.name, n, r.Metrics[n].Value)
			}
		}
		if r, err = runPass(cfg, w, true); err != nil {
			t.Fatal(err)
		}
		checkNames(r, perLayer)
		for _, b := range r.Budgets {
			if b.Requests > 0 && math.Abs(b.sum()-b.RootUS) > 0.01*b.RootUS {
				t.Errorf("%s: budget %q rows sum to %.1f us, root span is %.1f us", w.name, b.Title, b.sum(), b.RootUS)
			}
		}
		traced = r
	}

	// The last workload's traced pass again, same seed: every exact
	// count must repeat.
	last := workloads[len(workloads)-1]
	again, err := runPass(cfg, last, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range exactCounts {
		if a, b := traced.Metrics[n], again.Metrics[n]; a != b {
			t.Errorf("%s: exact count %s did not repeat: %v then %v", last.name, n, a.Value, b.Value)
		}
	}

	// On the serve rung every request's self times are non-negative
	// and sum to its root span.
	raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+last.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, rq := range decompose(doc.Spans) {
		if rq.http == 0 {
			continue // library path
		}
		served++
		sum := rq.http + rq.handler + rq.engine + rq.scatter + rq.walk
		if rq.http < 0 || rq.handler < 0 || rq.engine < 0 || rq.scatter < 0 ||
			math.Abs(float64(sum-rq.root)) > 0.01*float64(rq.root) {
			t.Fatalf("request %d: self times %v %v %v %v %v do not make up root span %v",
				rq.seq, rq.http, rq.handler, rq.engine, rq.scatter, rq.walk, rq.root)
		}
	}
	if served == 0 {
		t.Error("trace file holds no gateway request")
	}
}
