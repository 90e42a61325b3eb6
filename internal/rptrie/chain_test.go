package rptrie

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/pivot"
	"repose/internal/topk"
)

// TestEntryQueueOrderAndSlots drives the queue with random pushes and
// pops against a sorted reference: pops come out ascending by lb and,
// among equal lbs, in push order; every pop returns the payload pushed
// with that lb; vacated slab slots are reused, so the slab never grows
// past the largest number of entries queued at once; and reset leaves
// no live reference behind, popped slots included.
func TestEntryQueueOrderAndSlots(t *testing.T) {
	type ref struct {
		lb  float64
		seq int
		n   *node
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q entryQueue
		var want []ref
		seq, maxLive := 0, 0
		pop := func() {
			sort.SliceStable(want, func(i, j int) bool { return want[i].lb < want[j].lb })
			w := want[0]
			want = want[1:]
			lb, e := q.pop()
			if lb != w.lb || e.n.(ptrNode).n != w.n {
				t.Fatalf("seed=%d: popped (%v, %p), want (%v, %p) pushed %d-th", seed, lb, e.n.(ptrNode).n, w.lb, w.n, w.seq)
			}
			if (e.b == nil) != (w.seq%3 == 0) {
				t.Fatalf("seed=%d: the %d-th push came back with the wrong bounder", seed, w.seq)
			}
		}
		for step := 0; step < 2000; step++ {
			if rng.Intn(5) < 3 || q.len() == 0 {
				// Few distinct lbs, so most pushes tie with a queued one.
				w := ref{lb: float64(rng.Intn(8)) / 4, seq: seq, n: &node{}}
				e := entry{n: ptrNode{w.n}}
				if seq%3 != 0 {
					e.b = &dist.PathBounder{}
				}
				seq++
				want = append(want, w)
				q.push(w.lb, e)
				if q.len() > maxLive {
					maxLive = q.len()
				}
			} else {
				pop()
			}
			if q.len() != len(want) {
				t.Fatalf("seed=%d step %d: len %d, want %d", seed, step, q.len(), len(want))
			}
		}
		if len(q.slab) != maxLive {
			t.Fatalf("seed=%d: slab grew to %d slots for at most %d live entries: popped slots were not reused", seed, len(q.slab), maxLive)
		}
		for q.len() > len(want)/2 {
			pop()
		}
		used := q.slab
		q.reset()
		if q.len() != 0 || len(q.slab) != 0 || len(q.free) != 0 || q.seq != 0 {
			t.Fatalf("seed=%d: reset left len=%d slab=%d free=%d seq=%d", seed, q.len(), len(q.slab), len(q.free), q.seq)
		}
		for i, e := range used {
			if e.n != nil || e.b != nil {
				t.Fatalf("seed=%d: slab slot %d still holds %+v after reset", seed, i, e)
			}
		}
	}
}

// chainCells returns the centers of n cells of a boustrophedon walk
// over the 8×8 unit grid starting at column x0 of row y0 and heading
// in direction dx, moving one row in direction dy at each edge:
// consecutive cells are distinct and none repeats.
func chainCells(x0, y0, dx, dy, n int) []geo.Point {
	out := make([]geo.Point, 0, n)
	x, y := x0, y0
	for len(out) < n {
		out = append(out, geo.Point{X: float64(x) + 0.5, Y: float64(y) + 0.5})
		if x+dx < 0 || x+dx > 7 {
			y += dy
			dx = -dx
		} else {
			x += dx
		}
	}
	return out
}

// chainCorpus builds the shapes random fixtures do not guarantee, on the
// [0,8]² grid at 3 bits (unit cells): a 24-cell reference trajectory and
// a 20-cell one that shares only its first three cells (a branch above
// two long single-child chains), reference trajectories that are strict
// prefixes of the long one at 5 and 12 cells (terminal nodes with one
// child, which the walk must stop at), a 22-cell chain from the root, a
// 9-cell chain ending in a leaf of six members, and a few random
// trajectories. Every point is jittered inside its cell. The returned
// ids are deleted by the caller without compacting: the only member at
// the end of the root chain, one of the two members of the 12-cell
// prefix, and two members of the fat leaf.
func chainCorpus(rng *rand.Rand) (ds []*geo.Trajectory, tombstones []int) {
	add := func(cells []geo.Point) int {
		pts := make([]geo.Point, 0, 2*len(cells))
		for _, c := range cells {
			for r := 1 + rng.Intn(2); r > 0; r-- {
				pts = append(pts, geo.Point{X: c.X + (rng.Float64()-0.5)*0.8, Y: c.Y + (rng.Float64()-0.5)*0.8})
			}
		}
		ds = append(ds, &geo.Trajectory{ID: len(ds), Points: pts})
		return len(ds) - 1
	}
	long := chainCells(0, 0, 1, 1, 24)
	add(long)
	add(long)
	add(long[:5])
	add(long[:12])
	halfDead := add(long[:12])
	add(append(append([]geo.Point(nil), long[:3]...), chainCells(2, 1, 1, 1, 17)...))
	rootChain := add(chainCells(7, 7, -1, -1, 22))
	fat := chainCells(0, 5, 1, 1, 9)
	var fatIDs []int
	for i := 0; i < 6; i++ {
		fatIDs = append(fatIDs, add(fat))
	}
	for _, tr := range randomDataset(rng, 8) {
		tr.ID = len(ds)
		ds = append(ds, tr)
	}
	return ds, []int{rootChain, halfDead, fatIDs[1], fatIDs[4]}
}

// chainQueries mixes corpus members (exact and perturbed), short walks
// along the chains, and random trajectories.
func chainQueries(rng *rand.Rand, ds []*geo.Trajectory, n int) [][]geo.Point {
	qs := make([][]geo.Point, n)
	for i := range qs {
		switch i % 4 {
		case 0:
			qs[i] = ds[rng.Intn(len(ds))].Points
		case 1:
			src := ds[rng.Intn(len(ds))].Points
			lo := rng.Intn(len(src))
			hi := lo + 1 + rng.Intn(len(src)-lo)
			q := make([]geo.Point, hi-lo)
			for j, p := range src[lo:hi] {
				q[j] = geo.Point{X: clampF(p.X+rng.NormFloat64()*0.3, 0, 8), Y: clampF(p.Y+rng.NormFloat64()*0.3, 0, 8)}
			}
			qs[i] = q
		case 2:
			qs[i] = chainCells(rng.Intn(8), rng.Intn(6), 1, 1, 2+rng.Intn(8))
		default:
			qs[i] = randomDataset(rng, 1)[0].Points
		}
	}
	return qs
}

// assertExactTopK pins a whole-trajectory answer to the oracle bit for
// bit: the distance profile, every reported distance exact for its id,
// no duplicates — and the ids too, unless the oracle's top-(k+1) holds
// a tie (pruning at lb ≥ dk may drop a tied candidate the oracle keeps).
func assertExactTopK(t *testing.T, ctx string, m dist.Measure, p dist.Params, mirror *oracle.Set, q []geo.Point, k int, got []topk.Item) {
	t.Helper()
	wide := mirror.TopK(m, p, q, k+1)
	want := wide
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	tied := false
	for i := 1; i < len(wide); i++ {
		tied = tied || wide[i].Dist == wide[i-1].Dist
	}
	seen := make(map[int]bool, len(got))
	for i := range got {
		if got[i].Dist != want[i].Dist || (!tied && got[i] != want[i]) {
			t.Fatalf("%s: rank %d is %+v, oracle %+v\ngot  %v\nwant %v", ctx, i, got[i], want[i], got, want)
		}
		tr := mirror.Get(got[i].ID)
		if seen[got[i].ID] || tr == nil {
			t.Fatalf("%s: id %d is a duplicate or not live in %v", ctx, got[i].ID, got)
		}
		seen[got[i].ID] = true
		if exact := dist.Distance(m, q, tr.Points, p); exact != got[i].Dist {
			t.Fatalf("%s: id %d reported %v, true distance %v", ctx, got[i].ID, got[i].Dist, exact)
		}
	}
}

// chainWorld is the crafted corpus indexed in every layout with its
// tombstones applied, and the oracle over the live set.
type chainWorld struct {
	cfg    Config
	mirror *oracle.Set
	idxs   map[string]refinedIndex
}

func newChainWorld(t *testing.T, m dist.Measure, p dist.Params, seed int64) (chainWorld, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := grid.NewWithBits(geo.Rect{Max: geo.Point{X: 8, Y: 8}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, dead := chainCorpus(rng)
	attachTimes(rng, ds)
	w := chainWorld{cfg: Config{Measure: m, Params: p, Grid: g}, mirror: oracle.NewSet(ds), idxs: map[string]refinedIndex{}}
	if m.IsMetric() {
		w.cfg.Pivots = pivot.Select(ds, 3, pivot.DefaultGroups, m, p, seed)
	}
	for _, layout := range dynLayouts {
		idx := buildDyn(t, layout, w.cfg, ds).(refinedIndex)
		if n := idx.Delete(dead...); n != len(dead) {
			t.Fatalf("seed=%d layout=%s: deleted %d of %d", seed, layout, n, len(dead))
		}
		w.idxs[layout] = idx
	}
	w.mirror.Delete(dead...)
	return w, rng
}

// TestChainWalkMatchesOracle: on the crafted corpus, six measures ×
// three layouts × {plain, Shared, RefineWorkers, subtrajectory, time
// window} answer bit-identically to internal/oracle, and the walk does
// take chains in place there. Failures lead with the seed.
func TestChainWalkMatchesOracle(t *testing.T) {
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	for _, m := range dist.Measures() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			seed := int64(0xC4A10 + int(m))
			t.Logf("seed=%d", seed)
			w, rng := newChainWorld(t, m, p, seed)
			walked := 0
			for qi, q := range chainQueries(rng, w.mirror.Slice(), 16) {
				k := 1 + rng.Intn(8)
				sub := RefineSpec{Sub: true, MinSeg: 1 + rng.Intn(3), MaxSeg: 4 + rng.Intn(6)}
				from := rng.Int63n(600)
				win := RefineSpec{Window: true, From: from, To: from + 100 + rng.Int63n(400)}
				for _, layout := range dynLayouts {
					idx := w.idxs[layout]
					var st SearchStats
					modes := []struct {
						name string
						opt  SearchOptions
						spec *RefineSpec
					}{
						{"plain", SearchOptions{Stats: &st}, nil},
						{"shared", SearchOptions{Shared: NewSharedTopK(k)}, nil},
						{"workers", SearchOptions{RefineWorkers: 4}, nil},
						{"sub", SearchOptions{Refiner: NewRefiner(m, p, sub)}, &sub},
						{"window", SearchOptions{Refiner: NewRefiner(m, p, win)}, &win},
					}
					for _, mode := range modes {
						ctx := fmt.Sprintf("seed=%d measure=%v layout=%s mode=%s q[%d] k=%d", seed, m, layout, mode.name, qi, k)
						got, err := idx.SearchContext(nil, q, k, mode.opt)
						if err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
						if mode.spec == nil {
							assertExactTopK(t, ctx, m, p, w.mirror, q, k, got)
							continue
						}
						sp := specOracle(*mode.spec)
						assertRefinedTopK(t, ctx, m, p, w.mirror, q, sp, got, w.mirror.TopKRefined(m, p, q, k, sp))
					}
					walked += st.ChainSteps
				}
			}
			if walked == 0 {
				t.Fatalf("seed=%d: no query walked a single chain link on a corpus made of chains", seed)
			}
		})
	}
}

// TestBoundOnChains: on the same corpus the capped walk behind
// BoundContext never exceeds the distance of the nearest live
// trajectory, in any layout, and never descends through more than
// boundBudget nodes, chain links included — and the cap is what stops
// it on at least one query, so the ceiling is exercised.
func TestBoundOnChains(t *testing.T) {
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	capped := 0
	for _, m := range dist.Measures() {
		seed := int64(0xB0C4A + int(m))
		w, rng := newChainWorld(t, m, p, seed)
		for qi, q := range chainQueries(rng, w.mirror.Slice(), 24) {
			nearest := w.mirror.TopK(m, p, q, 1)[0].Dist
			for _, layout := range dynLayouts {
				lb, err := w.idxs[layout].(interface {
					BoundContext(ctx context.Context, q []geo.Point, opt SearchOptions) (float64, error)
				}).BoundContext(nil, q, SearchOptions{})
				if err != nil || lb > nearest {
					t.Fatalf("seed=%d measure=%v layout=%s q[%d]: bound %v (err %v) above the nearest distance %v", seed, m, layout, qi, lb, err, nearest)
				}
			}
			// The budget is layout-independent; read what the walk spent
			// from the pointer layout's searcher.
			st := w.idxs["pointer"].(*Trie).state()
			s := searcher{cfg: w.cfg, trajs: st.trajs, sc: &searchScratch{qb: &dist.QueryBounds{}}}
			var stats SearchStats
			lb, err := s.boundWalk(st.core.rootRef(nil), q, &stats)
			spent := stats.NodesExpanded + stats.ChainSteps
			if err != nil || lb > nearest || spent > boundBudget {
				t.Fatalf("seed=%d measure=%v q[%d]: bound %v (err %v, nearest %v) after %d expansions + %d chain steps, budget %d",
					seed, m, qi, lb, err, nearest, stats.NodesExpanded, stats.ChainSteps, boundBudget)
			}
			if spent == boundBudget {
				capped++
			}
		}
	}
	if capped == 0 {
		t.Fatal("no bound walk ran into boundBudget: the ceiling was never exercised")
	}
}

// TestScratchDropsRetiredGeneration: a search scratch that outlives its
// query — as every pooled one does — must not keep the searched trie
// reachable. The test owns the scratch (a sync.Pool would be emptied by
// the collections it needs), runs a query that leaves node refs behind —
// a top-k search that ends with entries still queued, or a range walk,
// which parks every visited node's children in the scratch — drops the
// index, and requires the old trie to be collected while the scratch is
// held: every childless node of the pointer layout (a stranded entry
// pins its node's subtree, not the root above it), the core of the
// compressed one.
func TestScratchDropsRetiredGeneration(t *testing.T) {
	for _, layout := range []string{"pointer", "compressed"} {
		t.Run(layout, func(t *testing.T) {
			for _, mode := range []string{"topk", "radius"} {
				t.Run(mode, func(t *testing.T) {
					rng := rand.New(rand.NewSource(7))
					ds := randomDataset(rng, 200)
					cfg := scratchConfig(t, dist.Hausdorff, ds)
					sc := &searchScratch{qb: &dist.QueryBounds{}}
					var pinned atomic.Int64

					// Build, search and drop inside a call, so no local of
					// this frame keeps the index alive.
					func() {
						st := buildDyn(t, layout, cfg, ds).(interface{ state() *state }).state()
						switch c := st.core.(type) {
						case *trieState:
							var watch func(n *node)
							watch = func(n *node) {
								if len(n.children) == 0 {
									pinned.Add(1)
									runtime.SetFinalizer(n, func(*node) { pinned.Add(-1) })
								}
								for _, c := range n.children {
									watch(c)
								}
							}
							watch(c.root)
						case *cmpCore:
							pinned.Add(1)
							runtime.SetFinalizer(c, func(*cmpCore) { pinned.Add(-1) })
						}
						if mode == "radius" {
							hits, err := searchRadius(nil, cfg, st, sc, ds[0].Points, 1, SearchOptions{})
							if err != nil || len(hits) == 0 || len(hits) == len(ds) {
								t.Fatalf("range search: %d hits of %d, %v", len(hits), len(ds), err)
							}
							return
						}
						s := searcher{cfg: cfg, trajs: st.trajs, sc: sc}
						res, stats, err := s.run(st.core.rootRef(sc), ds[0].Points, 1, nil)
						if err != nil || len(res) != 1 {
							t.Fatalf("search: %v, %v", res, err)
						}
						// Popped = expanded + refined + the entry run stopped at.
						if stats.EntriesPushed <= stats.NodesExpanded+stats.LeavesRefined+1 {
							t.Fatalf("the search drained its queue (%+v): nothing was left to pin", stats)
						}
					}()

					// Finalizers run on their own goroutine after the
					// collection that found the object unreachable.
					for i := 0; pinned.Load() > 0; i++ {
						if i == 50 {
							t.Fatalf("%d objects of the dropped index are still reachable from the search scratch", pinned.Load())
						}
						runtime.GC()
						time.Sleep(10 * time.Millisecond)
					}
					runtime.KeepAlive(sc)
				})
			}
		})
	}
}
