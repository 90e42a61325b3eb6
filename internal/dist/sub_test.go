package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repose/internal/geo"
	"repose/internal/grid"
)

// bruteSub is the independent reference: the minimum over every
// eligible segment of the whole-trajectory kernel, scanning in the
// same lexicographic (start, end) order with a strict improvement
// test so ties resolve identically.
func bruteSub(m Measure, q, t []geo.Point, p Params, minSeg, maxSeg int) (float64, int, int) {
	n := len(t)
	if maxSeg <= 0 || maxSeg > n {
		maxSeg = n
	}
	if minSeg < 1 {
		minSeg = 1
	}
	best, bs, be := math.Inf(1), 0, 0
	if len(q) == 0 {
		return best, bs, be
	}
	for st := 0; st+minSeg <= n; st++ {
		for e := minSeg; st+e <= n && e <= maxSeg; e++ {
			if d := Distance(m, q, t[st:st+e], p); d < best {
				best, bs, be = d, st, st+e
			}
		}
	}
	return best, bs, be
}

// TestSubDistanceMatchesBruteForce: the segment sweep must be
// bit-identical to the brute-force minimum over whole-kernel calls —
// distance and matched segment — across random inputs, length
// restrictions, scratch reuse, and finite thresholds.
func TestSubDistanceMatchesBruteForce(t *testing.T) {
	sc := &Scratch{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomSeq(rng, 8)
		tr := randomSeq(rng, 14)
		minSeg := rng.Intn(4)      // 0 exercises normalization
		maxSeg := rng.Intn(16) - 1 // -1..14, ≤0 means unbounded
		for _, m := range Measures() {
			wd, ws, we := bruteSub(m, q, tr, testParams, minSeg, maxSeg)
			gd, gs, ge := SubDistance(m, q, tr, testParams, minSeg, maxSeg)
			if gd != wd || (!math.IsInf(wd, 1) && (gs != ws || ge != we)) {
				t.Fatalf("seed %d %v: sub (%v, %d, %d) != brute (%v, %d, %d)",
					seed, m, gd, gs, ge, wd, ws, we)
			}
			// Scratch reuse must not change a single bit.
			sd, ss, se := SubDistanceBoundedScratch(m, q, tr, testParams, minSeg, maxSeg, math.Inf(1), sc)
			if sd != gd || ss != gs || se != ge {
				t.Fatalf("seed %d %v: scratch (%v, %d, %d) != fresh (%v, %d, %d)",
					seed, m, sd, ss, se, gd, gs, ge)
			}
			// A finite threshold must keep the exact answer whenever
			// the answer is within it, and return +Inf only beyond it.
			for _, thr := range []float64{wd * 1.5, wd, wd * 0.5} {
				bd, bstart, bend := SubDistanceBoundedScratch(m, q, tr, testParams, minSeg, maxSeg, thr, sc)
				if wd <= thr {
					if bd != wd || bstart != ws || bend != we {
						t.Fatalf("seed %d %v thr %v: bounded (%v, %d, %d) != exact (%v, %d, %d)",
							seed, m, thr, bd, bstart, bend, wd, ws, we)
					}
				} else if !math.IsInf(bd, 1) && bd != wd {
					t.Fatalf("seed %d %v thr %v: bounded %v is neither +Inf nor exact %v",
						seed, m, thr, bd, wd)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSubDistanceDegenerate pins the empty and over-constrained cases.
func TestSubDistanceDegenerate(t *testing.T) {
	q := pts(1, 1, 2, 2)
	tr := pts(0, 0, 1, 1, 2, 2)
	for _, m := range Measures() {
		if d, _, _ := SubDistance(m, nil, tr, testParams, 1, 0); !math.IsInf(d, 1) {
			t.Errorf("%v: empty query got %v, want +Inf", m, d)
		}
		if d, _, _ := SubDistance(m, q, nil, testParams, 1, 0); !math.IsInf(d, 1) {
			t.Errorf("%v: empty trajectory got %v, want +Inf", m, d)
		}
		if d, _, _ := SubDistance(m, q, tr, testParams, 4, 0); !math.IsInf(d, 1) {
			t.Errorf("%v: minSeg > len(t) got %v, want +Inf", m, d)
		}
		if d, _, _ := SubDistance(m, q, tr, testParams, 3, 2); !math.IsInf(d, 1) {
			t.Errorf("%v: minSeg > maxSeg got %v, want +Inf", m, d)
		}
		// The full-length segment must reproduce the whole-trajectory
		// kernel exactly.
		d, s, e := SubDistance(m, q, tr, testParams, len(tr), len(tr))
		if want := Distance(m, q, tr, testParams); d != want || s != 0 || e != len(tr) {
			t.Errorf("%v: full-length segment (%v, %d, %d), want (%v, 0, %d)", m, d, s, e, want, len(tr))
		}
	}
}

// TestLBoSubAdmissibleQuick walks a bounder down the reference path
// of a random trajectory and checks, at every prefix, that LBoSub
// never exceeds the exact distance to ANY contiguous segment — the
// segment-query half of the admissibility contract.
func TestLBoSubAdmissibleQuick(t *testing.T) {
	f := func(seed int64, bitsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := grid.NewWithBits(boundRegion, int(bitsRaw)%4+2)
		if err != nil {
			t.Fatal(err)
		}
		tr := memberSeq(rng, 10)
		q := randomSeq(rng, 8)
		zs := refPath(g, tr)
		for _, m := range Measures() {
			exact, _, _ := bruteSub(m, q, tr, testParams, 1, 0)
			b := NewQueryBounds(m, q, nil, testParams, true).Root()
			meta := NodeMeta{MinLen: len(tr), MaxLen: len(tr)}
			for i, z := range zs {
				b.Extend(g.CellByZ(z))
				meta.MaxDepthBelow = len(zs) - 1 - i
				if lb := b.LBoSub(meta); lb > exact+1e-9 {
					t.Fatalf("%v: depth %d/%d LBoSub %v > best-segment %v", m, i+1, len(zs), lb, exact)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestLBoSubNeverExceedsLBo: a whole trajectory is one of its own
// segments, so the segment bound must be at most the whole-trajectory
// bound (it is derived from LBo by dropping terms).
func TestLBoSubNeverExceedsLBo(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := grid.NewWithBits(boundRegion, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr := memberSeq(rng, 10)
		q := randomSeq(rng, 8)
		zs := refPath(g, tr)
		for _, m := range Measures() {
			b := NewQueryBounds(m, q, nil, testParams, true).Root()
			for _, z := range zs {
				b.Extend(g.CellByZ(z))
			}
			for _, below := range []int{0, 2} {
				meta := NodeMeta{MinLen: len(tr), MaxLen: len(tr), MaxDepthBelow: below}
				if sub, whole := b.LBoSub(meta), b.LBo(meta); sub > whole+1e-12 {
					t.Fatalf("%v (below=%d): LBoSub %v > LBo %v", m, below, sub, whole)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
