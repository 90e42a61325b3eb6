package cluster

import (
	"context"
	"math"
	"net"
	"testing"

	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/partition"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// testWorld builds a small dataset, partitions, and a REPOSE spec.
func testWorld(t *testing.T, n, nparts int) ([]*geo.Trajectory, [][]*geo.Trajectory, IndexSpec) {
	t.Helper()
	spec := dataset.Spec{Name: "t", Cardinality: n, AvgLen: 20, SpanX: 4, SpanY: 4, Hotspots: 6, Seed: 3}
	ds := dataset.Generate(spec)
	region := spec.Region()
	g, err := grid.New(region, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Assign(partition.Heterogeneous, ds, g, nparts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Split(ds, assign, nparts)
	p := dist.DefaultParams(region)
	pivots := pivot.Select(ds, 3, 5, dist.Hausdorff, p, 7)
	idxSpec := IndexSpec{
		Algorithm: REPOSE,
		Measure:   dist.Hausdorff,
		Params:    p,
		Region:    region,
		Delta:     0.1,
		Pivots:    pivots,
	}
	return ds, parts, idxSpec
}

// inproc builds spec on one in-process worker capped at workers
// scan slots, every partition disk-backed when durable is set, and
// closes the engine when the test ends.
func inproc(t *testing.T, spec IndexSpec, parts [][]*geo.Trajectory, workers int, durable bool) *Remote {
	t.Helper()
	dir := ""
	if durable {
		dir = t.TempDir()
	}
	r, err := BuildInProcess(spec, parts, workers, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// remoteOn builds spec on the workers at addrs and closes the engine
// when the test ends.
func remoteOn(t *testing.T, spec IndexSpec, parts [][]*geo.Trajectory, addrs []string) *Remote {
	t.Helper()
	r, err := BuildRemote(spec, parts, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// buildOn builds part as partition pid on w.
func buildOn(t *testing.T, w *Worker, pid int, spec IndexSpec, part []*geo.Trajectory) BuildReply {
	t.Helper()
	var br BuildReply
	if err := w.Build(&BuildArgs{Version: ProtocolVersion, PartitionID: pid, Spec: spec, Trajectories: part}, &br); err != nil {
		t.Fatal(err)
	}
	return br
}

// partIndex returns partition pid's index on an in-process engine's
// worker.
func partIndex(r *Remote, pid int) rptrie.Index {
	r.worker.mu.Lock()
	defer r.worker.mu.Unlock()
	return r.worker.indexes[pid].(rptrie.Index)
}

// workerTopK asks w for the top-k of q over every partition it owns
// with one direct Worker.Query and merges the reply's rows, as the
// driver does.
func workerTopK(w *Worker, q []geo.Point, k int) ([]topk.Item, error) {
	var rep QueryReply
	args := &QueryArgs{QueryHeader: QueryHeader{Version: ProtocolVersion}, Kind: KindTopK, Queries: [][]geo.Point{q}, K: k}
	if err := w.Query(args, &rep); err != nil {
		return nil, err
	}
	return mergeDedup(k, rep.Lists), nil
}

func assertSameDistances(t *testing.T, ctx string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("%s: rank %d dist %v want %v", ctx, i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestLocalClusterAllAlgorithms(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 8)
	q := dataset.Queries(ds, 3, 9)
	algos := []struct {
		name string
		mod  func(*IndexSpec)
	}{
		{"REPOSE", func(s *IndexSpec) {}},
		{"REPOSE-opt", func(s *IndexSpec) { s.Optimize = true }},
		{"REPOSE-succinct", func(s *IndexSpec) { s.Layout = rptrie.LayoutSuccinct }},
		{"REPOSE-compressed", func(s *IndexSpec) { s.Layout = rptrie.LayoutCompressed }},
		{"LS", func(s *IndexSpec) { s.Algorithm = LS }},
		{"DFT", func(s *IndexSpec) { s.Algorithm = DFT }},
		{"DITA", func(s *IndexSpec) { s.Algorithm = DITA; s.Measure = dist.Frechet }},
	}
	for _, a := range algos {
		sp := spec
		a.mod(&sp)
		c := inproc(t, sp, parts, 4, false)
		if c.Len() != len(ds) {
			t.Fatalf("%s: Len %d want %d", a.name, c.Len(), len(ds))
		}
		if c.NumPartitions() != 8 {
			t.Fatalf("%s: partitions %d", a.name, c.NumPartitions())
		}
		for _, query := range q {
			got, rep, err := c.Search(context.Background(), query.Points, 10, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.TopK(sp.Measure, sp.Params, ds, query.Points, 10)
			assertSameDistances(t, a.name, got, want)
			if len(rep.PartitionTimes) != 8 || rep.MaxPartition <= 0 {
				t.Fatalf("%s: report %+v", a.name, rep)
			}
			if rep.Imbalance() < 1 {
				t.Fatalf("%s: imbalance %v < 1", a.name, rep.Imbalance())
			}
		}
	}
}

func TestBuildLocalErrorPropagates(t *testing.T) {
	_, parts, spec := testWorld(t, 50, 4)
	spec.Algorithm = DITA
	spec.Measure = dist.Hausdorff // unsupported by DITA
	if _, err := BuildLocal(spec, parts, 2); err == nil {
		t.Error("expected unsupported-measure error")
	}
	spec = IndexSpec{Algorithm: Algorithm(99)}
	if _, err := BuildLocal(spec, parts, 2); err == nil {
		t.Error("expected unknown-algorithm error")
	}
}

func TestBuildLocalBadGrid(t *testing.T) {
	_, parts, spec := testWorld(t, 50, 4)
	spec.Delta = -1
	if _, err := BuildLocal(spec, parts, 2); err == nil {
		t.Error("expected grid error")
	}
}

// startWorkers spins up n in-process RPC workers on loopback and
// returns their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go Serve(ln, NewWorker())
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func TestRemoteClusterMatchesLocal(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 8)
	addrs := startWorkers(t, 3)
	remote := remoteOn(t, spec, parts, addrs)
	local := inproc(t, spec, parts, 4, false)
	if remote.Len() != local.Len() {
		t.Fatalf("Len: remote %d local %d", remote.Len(), local.Len())
	}
	if remote.NumPartitions() != 8 {
		t.Fatalf("partitions %d", remote.NumPartitions())
	}
	if remote.IndexSizeBytes() != local.IndexSizeBytes() {
		t.Fatalf("sizes differ: remote %d local %d", remote.IndexSizeBytes(), local.IndexSizeBytes())
	}
	for _, q := range dataset.Queries(ds, 4, 11) {
		got, rep, err := remote.Search(context.Background(), q.Points, 10, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := local.Search(context.Background(), q.Points, 10, QueryOptions{})
		assertBitIdentical(t, "TCP vs in-process", 0, got, want)
		if len(rep.PartitionTimes) != 8 {
			t.Fatalf("report partitions = %d", len(rep.PartitionTimes))
		}
	}
	if remote.BuildTime() <= 0 {
		t.Error("BuildTime should be positive")
	}
}

func TestRemoteErrors(t *testing.T) {
	_, parts, spec := testWorld(t, 50, 4)
	if _, err := BuildRemote(spec, parts, nil); err == nil {
		t.Error("no addresses should fail")
	}
	if _, err := BuildRemote(spec, parts, []string{"127.0.0.1:1"}); err == nil {
		t.Error("dead address should fail")
	}
	// Build error on the worker side propagates.
	addrs := startWorkers(t, 1)
	bad := spec
	bad.Algorithm = DITA
	bad.Measure = dist.ERP
	if _, err := BuildRemote(bad, parts, addrs); err == nil {
		t.Error("worker-side build error should propagate")
	}
}

func TestWorkerClearAndPing(t *testing.T) {
	w := NewWorker()
	var ok bool
	if err := w.Ping(&struct{}{}, &ok); err != nil || !ok {
		t.Fatal("ping failed")
	}
	// Empty worker search fails.
	if _, err := workerTopK(w, []geo.Point{{X: 1, Y: 1}}, 2); err == nil {
		t.Error("empty worker search should fail")
	}
	_, parts, spec := testWorld(t, 40, 2)
	brep := buildOn(t, w, 0, spec, parts[0])
	if brep.Len != len(parts[0]) || brep.BuildNanos <= 0 {
		t.Errorf("build reply %+v", brep)
	}
	if _, err := workerTopK(w, []geo.Point{{X: 1, Y: 1}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Clear(&ClearArgs{Version: ProtocolVersion}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if _, err := workerTopK(w, []geo.Point{{X: 1, Y: 1}}, 2); err == nil {
		t.Error("search after clear should fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{REPOSE, LS, DFT, DITA} {
		parsed, err := ParseAlgorithm(a.String())
		if err != nil || parsed != a {
			t.Errorf("round trip %v failed", a)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Error("out-of-range String")
	}
}
