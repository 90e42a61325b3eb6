package rptrie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
)

// validate walks a built trie and checks its structural invariants:
//
//  1. every indexed trajectory id appears in exactly one leaf;
//  2. children are sorted by z-value and unique;
//  3. node [minLen, maxLen] covers every member below;
//  4. maxDepthBelow is exact;
//  5. HR ranges of a parent cover those of its children and, at
//     leaves, the exact pivot distances of members;
//  6. leaf Dmax bounds the distance from every member to the leaf's
//     reference trajectory.
func validate(t *testing.T, tr *Trie) {
	t.Helper()
	seen := map[int32]int{}
	var walk func(n *node, path []uint64) (minLen, maxLen, depth int)
	walk = func(n *node, path []uint64) (int, int, int) {
		minLen, maxLen := int(^uint(0)>>1), 0
		if n.leaf != nil {
			refPts := tr.cfg.Grid.ReferencePoints(path)
			for _, tid := range n.leaf.tids {
				seen[tid]++
				traj := tr.state().trajs[tid]
				if traj == nil {
					t.Fatalf("leaf holds unknown tid %d", tid)
				}
				l := len(traj.Points)
				if l < n.leaf.minLen || l > n.leaf.maxLen {
					t.Fatalf("leaf len range [%d,%d] misses member %d (len %d)",
						n.leaf.minLen, n.leaf.maxLen, tid, l)
				}
				if tr.cfg.Measure.IsMetric() {
					d := dist.Distance(tr.cfg.Measure, traj.Points, refPts, tr.cfg.Params)
					if d > n.leaf.dmax+1e-9 {
						t.Fatalf("leaf Dmax %v < member %d distance %v", n.leaf.dmax, tid, d)
					}
				}
				if tr.cfg.Pivots != nil {
					for i, pv := range tr.cfg.Pivots {
						d := dist.Distance(tr.cfg.Measure, pv.Points, traj.Points, tr.cfg.Params)
						if d < n.hr[i].Min-1e-9 || d > n.hr[i].Max+1e-9 {
							t.Fatalf("HR[%d]=%+v misses member %d distance %v", i, n.hr[i], tid, d)
						}
					}
				}
			}
			if n.leaf.minLen < minLen {
				minLen = n.leaf.minLen
			}
			if n.leaf.maxLen > maxLen {
				maxLen = n.leaf.maxLen
			}
		}
		depth := 0
		var lastZ uint64
		for ci, c := range n.children {
			if ci > 0 && c.z <= lastZ {
				t.Fatalf("children unsorted: %d after %d", c.z, lastZ)
			}
			lastZ = c.z
			cmin, cmax, cdepth := walk(c, append(path, c.z))
			if cmin != c.minLen || cmax != c.maxLen {
				t.Fatalf("node len range [%d,%d] vs computed [%d,%d]", c.minLen, c.maxLen, cmin, cmax)
			}
			if cdepth != c.maxDepthBelow {
				t.Fatalf("maxDepthBelow %d vs computed %d", c.maxDepthBelow, cdepth)
			}
			if cmin < minLen {
				minLen = cmin
			}
			if cmax > maxLen {
				maxLen = cmax
			}
			if cdepth+1 > depth {
				depth = cdepth + 1
			}
			if tr.cfg.Pivots != nil {
				for i := range n.hr {
					if !c.hr[i].IsEmpty() &&
						(c.hr[i].Min < n.hr[i].Min-1e-9 || c.hr[i].Max > n.hr[i].Max+1e-9) {
						t.Fatalf("parent HR %+v does not cover child %+v", n.hr[i], c.hr[i])
					}
				}
			}
		}
		return minLen, maxLen, depth
	}
	walk(tr.state().core.(*trieState).root, nil)
	if len(seen) != len(tr.state().trajs) {
		t.Fatalf("leaves hold %d distinct tids, index has %d", len(seen), len(tr.state().trajs))
	}
	for tid, count := range seen {
		if count != 1 {
			t.Fatalf("tid %d appears in %d leaves", tid, count)
		}
	}
}

// TestTrieInvariantsQuick builds tries from random datasets under
// random configurations and validates every structural invariant.
func TestTrieInvariantsQuick(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	f := func(seed int64, bitsRaw uint8, measureRaw uint8, optimizeRaw, pivotsRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := int(bitsRaw)%5 + 1
		m := dist.Measure(int(measureRaw) % 6)
		optimize := optimizeRaw && m.OrderIndependent()
		g, err := grid.NewWithBits(region, bits)
		if err != nil {
			t.Fatal(err)
		}
		ds := randomDataset(rng, 10+rng.Intn(60))
		var pivots []*geo.Trajectory
		if pivotsRaw {
			pivots = pivot.Select(ds, 2, 3, m, p, seed)
		}
		tr, err := Build(Config{
			Measure: m, Params: p, Grid: g, Optimize: optimize, Pivots: pivots,
		}, ds)
		if err != nil {
			t.Fatal(err)
		}
		validate(t, tr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSearchIsSubsetInvariantQuick: results are always ≤ k, sorted,
// deduplicated, and reported distances are exact. (The full
// brute-force equivalence is covered in rptrie_test.go; this is the
// cheap always-on property.)
func TestSearchIsSubsetInvariantQuick(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw)%20 + 1
		ds := randomDataset(rng, 10+rng.Intn(50))
		m := dist.Measure(rng.Intn(6))
		tr, err := Build(Config{Measure: m, Params: p, Grid: g}, ds)
		if err != nil {
			t.Fatal(err)
		}
		q := randomDataset(rng, 1)[0]
		got := tr.Search(q.Points, k)
		want := k
		if len(ds) < k {
			want = len(ds)
		}
		if len(got) != want {
			return false
		}
		seen := map[int]bool{}
		for i, r := range got {
			if seen[r.ID] {
				return false
			}
			seen[r.ID] = true
			if i > 0 && got[i-1].Dist > r.Dist {
				return false
			}
			exact := dist.Distance(m, q.Points, tr.Trajectory(r.ID).Points, p)
			if d := exact - r.Dist; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
