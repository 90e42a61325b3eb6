package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/rpc"
	"testing"

	"repose/internal/cluster/chaos"
	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// attachClusterTimes timestamps roughly three quarters of ds in place
// (ascending starts with occasional repeats), leaving the rest
// untimestamped so windowed queries exercise the never-matches rule.
// Partitions share the trajectory pointers, so the build sees the
// timestamps on both engines.
func attachClusterTimes(seed int64, ds []*geo.Trajectory) {
	rng := rand.New(rand.NewSource(seed))
	for _, tr := range ds {
		if rng.Intn(4) == 0 {
			tr.Times = nil
			continue
		}
		ts := make([]int64, len(tr.Points))
		cur := rng.Int63n(500)
		for i := range ts {
			ts[i] = cur
			cur += rng.Int63n(40)
		}
		tr.Times = ts
	}
}

func oracleSpecOf(rs rptrie.RefineSpec) oracle.Spec {
	return oracle.Spec{Sub: rs.Sub, MinSeg: rs.MinSeg, MaxSeg: rs.MaxSeg, Window: rs.Window, From: rs.From, To: rs.To}
}

// assertRefinedProfile pins a refined top-k answer to the oracle:
// bit-identical distance profile, no duplicate ids, and every reported
// item's (Dist, Start, End) equal to the oracle's tie-broken
// refinement of that exact trajectory. Result sets may differ from the
// oracle only inside tied-distance groups (subtree pruning at lb ≥ dk
// may drop a tied candidate the oracle keeps).
func assertRefinedProfile(t *testing.T, ctx string, refine func(*geo.Trajectory) (float64, int, int), byID map[int]*geo.Trajectory, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	seen := make(map[int]bool, len(got))
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s: rank %d distance %v, oracle %v\ngot  %v\nwant %v", ctx, i, got[i].Dist, want[i].Dist, got, want)
		}
		if seen[got[i].ID] {
			t.Fatalf("%s: duplicate id %d in %v", ctx, got[i].ID, got)
		}
		seen[got[i].ID] = true
		tr := byID[got[i].ID]
		if tr == nil {
			t.Fatalf("%s: result id %d is not in the dataset", ctx, got[i].ID)
		}
		d, s, e := refine(tr)
		if d != got[i].Dist || s != got[i].Start || e != got[i].End {
			t.Fatalf("%s: id %d reported (%v, [%d, %d)), oracle refinement (%v, [%d, %d))",
				ctx, got[i].ID, got[i].Dist, got[i].Start, got[i].End, d, s, e)
		}
	}
}

// TestRefinedQueriesMatchOracleAcrossEngines pins the refined query
// modes — subtrajectory, time-windowed, and their composition — to the
// brute-force oracle on all three layouts and a disk-backed one, top-k
// and radius, in process and, for the pointer layout, over TCP (where
// protocol v7's RefineSpec crosses the wire to the worker-side refiner
// dispatch).
func TestRefinedQueriesMatchOracleAcrossEngines(t *testing.T) {
	ds, parts, spec := testWorld(t, 200, 4)
	attachClusterTimes(11, ds)
	byID := make(map[int]*geo.Trajectory, len(ds))
	for _, tr := range ds {
		byID[tr.ID] = tr
	}
	modes := []rptrie.RefineSpec{
		{Sub: true},
		{Sub: true, MinSeg: 3, MaxSeg: 8},
		{Window: true, From: 100, To: 450},
		{Sub: true, MinSeg: 2, Window: true, From: 50, To: 600},
	}
	queries := dataset.Queries(ds, 4, 13)
	ctx := context.Background()
	remote := remoteOn(t, spec, parts, startWorkers(t, 3))
	for li, lay := range radiusLayouts {
		sp := spec
		sp.Layout = lay.layout
		engines := map[string]*Remote{"local": inproc(t, sp, parts, 4, lay.durable)}
		if li == 0 {
			engines["remote"] = remote
		}
		for qi, q := range queries {
			for _, rs := range modes {
				osp := oracleSpecOf(rs)
				refine := func(tr *geo.Trajectory) (float64, int, int) {
					return osp.Refine(sp.Measure, sp.Params, q.Points, tr)
				}
				want := oracle.TopKRefined(sp.Measure, sp.Params, ds, q.Points, 6, osp)
				for name, eng := range engines {
					label := lay.name + "/" + name
					got, rep, err := eng.Search(ctx, q.Points, 6, QueryOptions{Refine: rs})
					if err != nil {
						t.Fatalf("%s q%d spec=%+v: Search: %v", label, qi, rs, err)
					}
					assertRefinedProfile(t, label, refine, byID, got, want)
					if !rep.CacheEligible {
						t.Fatalf("%s q%d: full-scatter refined search must stay cache-eligible", label, qi)
					}
					radius := 0.8
					wantR := oracle.RadiusRefined(sp.Measure, sp.Params, ds, q.Points, radius, osp)
					gotR, _, err := eng.SearchRadius(ctx, q.Points, radius, QueryOptions{Refine: rs})
					if err != nil {
						t.Fatalf("%s q%d spec=%+v: SearchRadius: %v", label, qi, rs, err)
					}
					assertBitIdentical(t, label+" radius", 13, gotR, wantR)
				}
			}
		}
	}
}

// TestRefinedRejectsBaselineIndexes: a refined query routed to a
// partition whose index cannot report a configuration (the baselines)
// must fail with a diagnosable error, not silently answer
// whole-trajectory.
func TestRefinedRejectsBaselineIndexes(t *testing.T) {
	_, parts, spec := testWorld(t, 60, 2)
	spec.Algorithm = LS
	local, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := parts[0][0].Points
	if _, _, err := local.Search(context.Background(), q, 3, QueryOptions{Refine: rptrie.RefineSpec{Sub: true}}); err == nil {
		t.Fatal("refined search on a baseline index should fail")
	}
}

// brokenBoundWorker serves the full worker surface but fails every
// KindBound query — the shape of a worker whose bound service is down
// while its scan path still works. The error arrives at the driver as
// an rpc.ServerError, which the failover layer surfaces directly
// (application errors are not failed over).
type brokenBoundWorker struct {
	*Worker
}

func (w *brokenBoundWorker) Query(args *QueryArgs, reply *QueryReply) error {
	if args.Kind == KindBound {
		return errors.New("bound service unavailable")
	}
	return w.Worker.Query(args, reply)
}

// startWorkerService serves svc under the "Worker" RPC name on
// loopback and returns its address.
func startWorkerService(t *testing.T, svc any) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", svc); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr().String()
}

// TestBudgetedSearchSurvivesBoundFailure: the exact-mode bound wave is
// an optimization, not a correctness step. When a worker's bound
// queries error (here: always, with its replica set exhausted at one
// replica), the driver must conservatively scan the unproven tail
// instead of failing the whole query — the scan subsumes the bound
// check, so the answer stays exact and cache-eligible. Before the fix,
// the remote budgeted search returned the bound wave's error and the
// query died.
func TestBudgetedSearchSurvivesBoundFailure(t *testing.T) {
	ds, parts, spec := testWorld(t, 120, 2)
	// Partition placement is round-robin, so with two workers
	// partition 0 lands on worker 0 (healthy) and partition 1 on
	// worker 1 (broken Bound). Both sit behind chaos proxies.
	addrs := []string{
		startWorkerService(t, NewWorker()),
		startWorkerService(t, &brokenBoundWorker{Worker: NewWorker()}),
	}
	fleet, err := chaos.NewFleet(addrs, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	remote := remoteOn(t, spec, parts, fleet.Addrs())
	remote.SetFailover(fastFailover)

	ctx := context.Background()
	q := dataset.Queries(ds, 1, 5)[0]
	// A fresh load tracker orders unprobed partitions by selection
	// order, so budget 1 probes partition 0 and bound-checks partition
	// 1 — straight into the broken Bound endpoint.
	got, rep, err := remote.Search(ctx, q.Points, 9, QueryOptions{ProbeBudget: 1})
	if err != nil {
		t.Fatalf("budgeted search failed on a bound error instead of scanning the partition: %v", err)
	}
	want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 9)
	assertSameDistances(t, "budgeted-with-broken-bound", got, want)
	full, _, err := remote.Search(ctx, q.Points, 9, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "budgeted vs full scatter", 5, got, full)
	if len(rep.PrunedPartitions) != 0 {
		t.Fatalf("a failed bound proves nothing, yet partitions %v were pruned", rep.PrunedPartitions)
	}
	if len(rep.ProbedPartitions) != 2 {
		t.Fatalf("both partitions must be scanned, probed %v", rep.ProbedPartitions)
	}
	if !rep.CacheEligible || len(rep.SkippedPartitions) != 0 {
		t.Fatalf("the conservative scan keeps the answer exact: eligible=%v skipped=%v",
			rep.CacheEligible, rep.SkippedPartitions)
	}
}

// TestBudgetedLocalSearchSurvivesBoundFailure is the Local engine's
// counterpart: a partition whose bound check errors while its scan
// path still answers is scanned, not failed.
func TestBudgetedLocalSearchSurvivesBoundFailure(t *testing.T) {
	ds, parts, spec := testWorld(t, 120, 3)
	local, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Swap partition 2's index for one whose BoundContext always
	// errors while its search path still answers.
	local.parts[2] = &boundErrIndex{LocalIndex: local.parts[2]}

	ctx := context.Background()
	q := dataset.Queries(ds, 1, 5)[0]
	got, rep, err := local.Search(ctx, q.Points, 9, QueryOptions{ProbeBudget: 2})
	if err != nil {
		t.Fatalf("budgeted local search failed on a bound error: %v", err)
	}
	want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 9)
	assertSameDistances(t, "local-budgeted-with-broken-bound", got, want)
	if containsInt(rep.PrunedPartitions, 2) {
		t.Fatalf("the unboundable partition was pruned: %v", rep.PrunedPartitions)
	}
	if !rep.CacheEligible {
		t.Fatal("the conservative scan keeps the answer exact and cache-eligible")
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// boundErrIndex delegates everything to the wrapped index but fails
// every bound check.
type boundErrIndex struct {
	LocalIndex
}

func (b *boundErrIndex) BoundContext(ctx context.Context, q []geo.Point, opt rptrie.SearchOptions) (float64, error) {
	return 0, errors.New("bound unavailable")
}

// TestRadiusIgnoresProbeBudgetAndStaysCacheEligible: radius queries
// have no probe-budget phase, so WithProbeBudget/WithBestEffortProbes
// must neither change the answer nor cost the report its cache
// eligibility. Guards the serve cache against a future best-effort
// radius silently poisoning it.
func TestRadiusIgnoresProbeBudgetAndStaysCacheEligible(t *testing.T) {
	ds, parts, spec := testWorld(t, 150, 4)
	eng := inproc(t, spec, parts, 4, false)
	ctx := context.Background()
	q := dataset.Queries(ds, 1, 9)[0]
	plain, plainRep, err := eng.SearchRadius(ctx, q.Points, 0.6, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 {
		t.Fatal("degenerate case, no in-range trajectories")
	}
	if !plainRep.CacheEligible {
		t.Fatal("plain full-scatter radius must be cache-eligible")
	}
	budgeted, rep, err := eng.SearchRadius(ctx, q.Points, 0.6, QueryOptions{ProbeBudget: 1, BestEffort: true})
	if err != nil {
		t.Fatalf("with budget: %v", err)
	}
	assertBitIdentical(t, "radius under probe-budget options", 9, budgeted, plain)
	if !rep.CacheEligible {
		t.Fatal("radius ignores probe budgets, so the answer is exact and must stay cache-eligible")
	}
	if len(rep.SkippedPartitions) != 0 || len(rep.PrunedPartitions) != 0 {
		t.Fatalf("radius must not skip or prune: %+v", rep)
	}
	assertReportCovers(t, "plain radius", plainRep, []int{0, 1, 2, 3}, 4)
	assertReportCovers(t, "radius under probe-budget options", rep, []int{0, 1, 2, 3}, 4)
	// Partition-restricted radius answers remain ineligible.
	_, rep, err = eng.SearchRadius(ctx, q.Points, 0.6, QueryOptions{Partitions: []int{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheEligible {
		t.Fatal("partition-restricted radius must not be cache-eligible")
	}
	assertReportCovers(t, "restricted radius", rep, []int{2, 0}, 4)
}
