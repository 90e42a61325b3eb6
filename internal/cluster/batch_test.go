package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/topk"
)

func TestSearchBatchMatchesSequential(t *testing.T) {
	ds, parts, spec := testWorld(t, 250, 6)
	eng := inproc(t, spec, parts, 4, false)
	queries := dataset.Queries(ds, 8, 5)
	qpts := make([][]geo.Point, len(queries))
	for i, q := range queries {
		qpts[i] = q.Points
	}
	batch, report, err := eng.SearchBatch(context.Background(), qpts, 7, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, q := range queries {
		want, _, err := eng.Search(context.Background(), q.Points, 7, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: len %d want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d rank %d: %+v vs %+v", i, j, batch[i][j], want[j])
			}
		}
	}
	if report.Makespan <= 0 || report.TotalWork <= 0 {
		t.Errorf("report = %+v", report)
	}
	if len(report.PerQuery) != len(queries) {
		t.Errorf("per-query times = %d", len(report.PerQuery))
	}
	for _, d := range report.PerQuery {
		if d <= 0 || d > report.Makespan {
			t.Errorf("per-query completion %v outside (0, %v]", d, report.Makespan)
		}
	}
}

func TestSearchBatchEmpty(t *testing.T) {
	_, parts, spec := testWorld(t, 50, 2)
	eng := inproc(t, spec, parts, 2, false)
	out, report, err := eng.SearchBatch(context.Background(), nil, 5, QueryOptions{})
	if err != nil || out != nil {
		t.Errorf("empty batch: %v, %v", out, err)
	}
	if report.Makespan != 0 {
		t.Errorf("empty makespan = %v", report.Makespan)
	}
}

// TestSearchBatchConcurrentSafety runs a batch with the race detector
// in mind: many queries over shared read-only indexes.
func TestSearchBatchConcurrentSafety(t *testing.T) {
	ds, parts, spec := testWorld(t, 150, 8)
	eng := inproc(t, spec, parts, 8, false)
	queries := dataset.Queries(ds, 30, 7)
	qpts := make([][]geo.Point, len(queries))
	for i, q := range queries {
		qpts[i] = q.Points
	}
	if _, _, err := eng.SearchBatch(context.Background(), qpts, 5, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
}

// gateIndex is a baseline-shaped partition index whose every scan
// holds for a while and counts how many scans are in flight at once.
type gateIndex struct {
	inflight, peak *atomic.Int32
}

func (g gateIndex) Search(q []geo.Point, k int) []topk.Item {
	n := g.inflight.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	time.Sleep(2 * time.Millisecond)
	g.inflight.Add(-1)
	return nil
}

func (gateIndex) Len() int       { return 0 }
func (gateIndex) SizeBytes() int { return 0 }

// TestScanCapBoundsBatches: a batch's (query, partition) tasks take the
// same scan slots as every other query on the engine. Before the fix a
// batch ran on private goroutines, so two overlapping batches — or a
// batch next to a Search — exceeded a Local's scan cap, and a worker's
// SetQueryWorkers cap did not bound batched queries. With one slot, at
// most one scan may ever be in flight, on a Local and on a Worker.
func TestScanCapBoundsBatches(t *testing.T) {
	const nparts = 4
	qs := [][]geo.Point{{{X: 1, Y: 1}}, {{X: 2, Y: 2}}, {{X: 3, Y: 3}}}
	run := func(t *testing.T, peak *atomic.Int32, calls ...func() error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(calls))
		for i, call := range calls {
			wg.Add(1)
			go func(i int, call func() error) {
				defer wg.Done()
				errs[i] = call()
			}(i, call)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := peak.Load(); got != 1 {
			t.Fatalf("%d scans in flight at once under a one-slot cap", got)
		}
	}
	t.Run("local", func(t *testing.T) {
		var inflight, peak atomic.Int32
		indexes := make([]LocalIndex, nparts)
		for i := range indexes {
			indexes[i] = gateIndex{&inflight, &peak}
		}
		c := &Local{parts: indexes, sem: make(chan struct{}, 1)}
		ctx := context.Background()
		batch := func() error { _, _, err := c.SearchBatch(ctx, qs, 3, QueryOptions{}); return err }
		search := func() error { _, _, err := c.Search(ctx, qs[0], 3, QueryOptions{}); return err }
		run(t, &peak, batch, batch, search)
	})
	t.Run("worker", func(t *testing.T) {
		var inflight, peak atomic.Int32
		w := NewWorker()
		w.SetQueryWorkers(1)
		for pid := 0; pid < nparts; pid++ {
			w.swap(pid, gateIndex{&inflight, &peak})
		}
		batch := func() error {
			args := &QueryArgs{QueryHeader: QueryHeader{Version: ProtocolVersion}, Kind: KindTopK, Queries: qs, K: 3}
			return w.Query(args, &QueryReply{})
		}
		run(t, &peak, batch, batch)
	})
}
