package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// value is one metric as the contract's result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one pass of one workload. Metrics holds exactly the names
// BENCHMARK.json lists for the pass (end_to_end with tracing off,
// per_layer with it on); Extra holds what the harness prints beside
// them: sample counts, segment spreads, and the workload-specific
// numbers the contract's uniform metric list has no room for.
type report struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Metrics   map[string]value `json:"metrics"`
	Extra     map[string]value `json:"extra,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Budgets   []budget         `json:"budgets,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

func newReport(w workload, traced bool) *report {
	return &report{Workload: w.name, Traced: traced, Metrics: map[string]value{}, Extra: map[string]value{}}
}

func (r *report) set(name string, v float64, unit string)   { r.Metrics[name] = value{v, unit} }
func (r *report) extra(name string, v float64, unit string) { r.Extra[name] = value{v, unit} }

// check counts one verified operation of the harness's own (outside
// the load loops, whose samples carry their own verdicts).
func (r *report) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// setTiming fills the three load metrics and their companions.
func (r *report) setTiming(t timing) {
	r.set("query_p50_ms", t.p50ms, "ms")
	r.set("query_p99_ms", t.p99ms, "ms")
	r.set("throughput_qps", t.perSec, "1/s")
	r.extra("samples", float64(t.samples), "count")
	r.extra("query_p50_ms.segment_spread", t.p50Spread, "ratio")
	r.extra("query_p99_ms.segment_spread", t.p99Spread, "ratio")
	r.extra("throughput_qps.segment_spread", t.rateSpread, "ratio")
}

// resultLine is the contract's last line of standard output.
func (r *report) resultLine() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

func (r *report) print(w io.Writer) {
	pass := "end to end (tracing off)"
	if r.Traced {
		pass = "per layer (traced, one client)"
	}
	fmt.Fprintf(w, "\n== %s: %s ==\n", r.Workload, pass)
	printValues(w, r.Metrics)
	if len(r.Extra) > 0 {
		fmt.Fprintln(w, "  -- beside the contract's metrics --")
		printValues(w, r.Extra)
	}
	fail := 0.0
	if r.Attempted > 0 {
		fail = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %14.6g ratio   (%d failed of %d attempted)\n", "fail_ratio", fail, r.Failed, r.Attempted)
	for _, b := range r.Budgets {
		b.print(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

func printValues(w io.Writer, m map[string]value) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// budget is a per-layer self-time table of the median request of one
// class: Rows sum to Root exactly, because each row is the mean of
// that layer's self time over the requests whose root span lies in
// the 40th..60th percentile band, and self times of one request sum
// to its root span by construction.
type budget struct {
	Title    string      `json:"title"`
	Requests int         `json:"requests"`
	RootUS   float64     `json:"root_us"`     // mean root span over the band
	MedianUS float64     `json:"root_p50_us"` // median root span of the class
	Rows     []budgetRow `json:"rows"`
}

type budgetRow struct {
	Layer   string  `json:"layer"`
	SelfUS  float64 `json:"self_us"`
	OfWhich bool    `json:"of_which,omitempty"` // a part of the row above, not added to the sum
}

func (b budget) sum() float64 {
	s := 0.0
	for _, r := range b.Rows {
		if !r.OfWhich {
			s += r.SelfUS
		}
	}
	return s
}

func (b budget) print(w io.Writer) {
	fmt.Fprintf(w, "  budget: %s (%d requests; root p50 %.1f us)\n", b.Title, b.Requests, b.MedianUS)
	for _, r := range b.Rows {
		name := r.Layer
		if r.OfWhich {
			name = "  of which " + name
		}
		share := 0.0
		if b.RootUS > 0 {
			share = 100 * r.SelfUS / b.RootUS
		}
		fmt.Fprintf(w, "    %-46s %10.1f us %5.1f%%\n", name, r.SelfUS, share)
	}
	fmt.Fprintf(w, "    %-46s %10.1f us  (rows sum to %.1f)\n", strings.Repeat("-", 8)+" root span, band mean", b.RootUS, b.sum())
}
