package rptrie

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/topk"
)

// Tests of the one index surface: the same script must behave the same
// on every layout, bare or wrapped in Durable.

// surfaceIndexes names every Index there is: the three layouts and each
// wrapped in Durable. radiusIndexes is the subset the range tests take
// as their layout axis.
var (
	surfaceIndexes = []string{"pointer", "succinct", "compressed", "durable-pointer", "durable-succinct", "durable-compressed"}
	radiusIndexes  = []string{"pointer", "succinct", "compressed", "durable-succinct"}
)

// buildSurface builds the named Index over ds.
func buildSurface(t *testing.T, name string, cfg Config, ds []*geo.Trajectory) Index {
	t.Helper()
	layoutName, durable := strings.CutPrefix(name, "durable-")
	layout, err := ParseLayout(layoutName)
	if err != nil {
		t.Fatal(err)
	}
	if !durable {
		idx, err := BuildLayout(cfg, ds, layout)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	d, err := BuildDurable(t.TempDir(), cfg, ds, DurableOptions{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// radiusOf is SearchRadius through the one method every Index has.
func radiusOf(t *testing.T, idx Index, q []geo.Point, radius float64) []topk.Item {
	t.Helper()
	got, err := idx.SearchRadiusContext(nil, q, radius, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// sameTopK reports whether got is the oracle's answer want bit for bit,
// up to the one freedom a top-k search has: which members of the tie
// group at the k-th distance it returns. Such a member must still be at
// exactly that distance by exact, the oracle's distance of a live id.
func sameTopK(got, want []topk.Item, exact func(id int) float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
		if got[i].ID == want[i].ID {
			continue
		}
		if kth := want[len(want)-1].Dist; got[i].Dist != kth || exact(got[i].ID) != kth {
			return false
		}
	}
	return true
}

// TestLayoutBytePinned: a Durable checkpoint image leads with
// byte(Layout), so the values are a disk format.
func TestLayoutBytePinned(t *testing.T) {
	if byte(LayoutPointer) != 0 || byte(LayoutSuccinct) != 1 || byte(LayoutCompressed) != 2 {
		t.Fatalf("layout bytes %d/%d/%d, want 0/1/2: checkpoints written before would not load",
			byte(LayoutPointer), byte(LayoutSuccinct), byte(LayoutCompressed))
	}
}

// TestSurfaceParity runs one mutation + query script against every
// Index: each answer must be bit-identical to the oracle's (and so to
// every other index's; top-k up to ties at the k-th distance), and Generation, Len, DeltaLen and LiveIDs must
// agree across all of them after every step.
func TestSurfaceParity(t *testing.T) {
	for _, m := range []dist.Measure{dist.Hausdorff, dist.Frechet, dist.DTW} {
		t.Run(m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x51DE + int64(m)))
			ds := randomDataset(rng, 60)
			cfg := scratchConfig(t, m, ds)
			p := cfg.Params
			idxs := make([]Index, len(surfaceIndexes))
			for i, name := range surfaceIndexes {
				idxs[i] = buildSurface(t, name, cfg, ds)
			}
			mirror := oracle.NewSet(ds)
			nextID := 1000
			for step := 0; step < 60; step++ {
				ctx := fmt.Sprintf("%v step %d", m, step)
				var fresh []*geo.Trajectory
				var victims []int
				op := rng.Intn(10)
				switch {
				case op < 4:
					fresh = randomFresh(rng, nextID, 1+rng.Intn(3))
					nextID += len(fresh)
					mirror.Insert(fresh...)
				case op < 7:
					ids := mirror.IDs()
					victims = []int{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], 999_999}
					mirror.Delete(victims...)
				case op < 9:
					ids := mirror.IDs()
					fresh = randomFresh(rng, ids[rng.Intn(len(ids))], 1)
					mirror.Insert(fresh...)
				}
				q := randomDataset(rng, 1)[0].Points
				k := 1 + rng.Intn(10)
				radius := 0.2 + rng.Float64()*3
				wantTop := mirror.TopK(m, p, q, k)
				wantRad := mirror.Radius(m, p, q, radius)
				wantIDs := mirror.IDs()
				sort.Ints(wantIDs)
				for i, idx := range idxs {
					name := ctx + " " + surfaceIndexes[i]
					switch {
					case op < 4:
						if err := idx.Insert(fresh...); err != nil {
							t.Fatalf("%s: insert: %v", name, err)
						}
					case op < 7:
						idx.Delete(victims...)
					case op < 9:
						if err := idx.Upsert(fresh...); err != nil {
							t.Fatalf("%s: upsert: %v", name, err)
						}
					default:
						if err := idx.Compact(); err != nil {
							t.Fatalf("%s: compact: %v", name, err)
						}
					}
					if got := idx.Search(q, k); !sameTopK(got, wantTop, func(id int) float64 {
						if tr := mirror.Get(id); tr != nil {
							return dist.Distance(m, q, tr.Points, p)
						}
						return math.NaN()
					}) {
						t.Fatalf("%s: top-%d %v, oracle %v", name, k, got, wantTop)
					}
					if got := radiusOf(t, idx, q, radius); !bitIdentical(got, wantRad) {
						t.Fatalf("%s: radius %g %v, oracle %v", name, radius, got, wantRad)
					}
					ids := idx.LiveIDs()
					sort.Ints(ids)
					if !slices.Equal(ids, wantIDs) {
						t.Fatalf("%s: live ids %v, oracle %v", name, ids, wantIDs)
					}
					if idx.Len() != mirror.Len() {
						t.Fatalf("%s: Len %d, oracle %d", name, idx.Len(), mirror.Len())
					}
					if first := idxs[0]; idx.Generation() != first.Generation() || idx.DeltaLen() != first.DeltaLen() {
						t.Fatalf("%s: generation %d delta %d, %s has %d and %d", name,
							idx.Generation(), idx.DeltaLen(), surfaceIndexes[0], first.Generation(), first.DeltaLen())
					}
				}
			}
		})
	}
}

// TestCompactedIsPure: Save and the layout conversions fold a pending
// delta into the image or the converted index, never into the source —
// its generation, delta and answers stay put — and what they produce is
// delta-free at the source's generation with the source's answers.
func TestCompactedIsPure(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ds := randomDataset(rng, 50)
	cfg := scratchConfig(t, dist.Hausdorff, ds)
	q := randomDataset(rng, 1)[0].Points
	for _, name := range dynLayouts {
		t.Run(name, func(t *testing.T) {
			src := buildSurface(t, name, cfg, ds)
			if err := src.Insert(randomFresh(rng, 1000, 4)...); err != nil {
				t.Fatal(err)
			}
			src.Delete(ds[3].ID, ds[8].ID)
			gen, delta, want := src.Generation(), src.DeltaLen(), src.Search(q, 7)
			if delta == 0 {
				t.Fatal("no pending delta to fold")
			}
			derived := map[string]func() (Index, error){
				"Save": func() (Index, error) {
					var buf bytes.Buffer
					if err := src.Save(&buf); err != nil {
						return nil, err
					}
					return ReadIndex(src.Layout(), &buf)
				},
			}
			if tr, ok := src.(*Trie); ok {
				derived["Compress"] = func() (Index, error) { return Compress(tr) }
				derived["CompressTST"] = func() (Index, error) { return CompressTST(tr) }
			}
			for op, derive := range derived {
				out, err := derive()
				if err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				if out.Generation() != gen || out.DeltaLen() != 0 || !bitIdentical(out.Search(q, 7), want) {
					t.Fatalf("%s: result at generation %d (source %d), delta %d, answer %v (source %v)",
						op, out.Generation(), gen, out.DeltaLen(), out.Search(q, 7), want)
				}
				if src.Generation() != gen || src.DeltaLen() != delta || !bitIdentical(src.Search(q, 7), want) {
					t.Fatalf("%s moved its source: generation %d → %d, delta %d → %d, answer %v → %v",
						op, gen, src.Generation(), delta, src.DeltaLen(), want, src.Search(q, 7))
				}
			}
		})
	}
}
