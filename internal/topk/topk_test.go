package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBasicTopK(t *testing.T) {
	h := New(3)
	if got := h.Threshold(); !math.IsInf(got, 1) {
		t.Errorf("empty threshold = %v", got)
	}
	for id, d := range []float64{5, 1, 3, 2, 4} {
		h.Push(id, d)
	}
	res := h.Results()
	if len(res) != 3 {
		t.Fatalf("len = %d", len(res))
	}
	wantDists := []float64{1, 2, 3}
	wantIDs := []int{1, 3, 2}
	for i := range res {
		if res[i].Dist != wantDists[i] || res[i].ID != wantIDs[i] {
			t.Errorf("res[%d] = %+v", i, res[i])
		}
	}
	if got := h.Threshold(); got != 3 {
		t.Errorf("threshold = %v, want 3", got)
	}
}

func TestPushReportsRetention(t *testing.T) {
	h := New(2)
	if !h.Push(1, 10) || !h.Push(2, 20) {
		t.Fatal("initial pushes should retain")
	}
	if h.Push(3, 30) {
		t.Error("worse item should not retain")
	}
	if !h.Push(4, 5) {
		t.Error("better item should retain")
	}
	res := h.Results()
	if res[0].ID != 4 || res[1].ID != 1 {
		t.Errorf("results = %+v", res)
	}
}

func TestTieBreakByID(t *testing.T) {
	h := New(2)
	h.Push(5, 1.0)
	h.Push(3, 1.0)
	h.Push(4, 1.0) // same dist, id between: should replace id 5
	res := h.Results()
	if res[0].ID != 3 || res[1].ID != 4 {
		t.Errorf("results = %+v", res)
	}
	// Pushing an equal (dist,id) duplicate of the worst is rejected.
	if h.Push(4, 1.0) {
		t.Error("equal item should not retain")
	}
}

func TestNaNRejected(t *testing.T) {
	h := New(2)
	if h.Push(1, math.NaN()) {
		t.Error("NaN should be rejected")
	}
	if h.Len() != 0 {
		t.Error("heap should stay empty")
	}
}

func TestInfAccepted(t *testing.T) {
	h := New(2)
	h.Push(1, math.Inf(1))
	h.Push(2, 1)
	res := h.Results()
	if len(res) != 2 || res[0].ID != 2 {
		t.Errorf("results = %+v", res)
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		type pair struct {
			id int
			d  float64
		}
		var all []pair
		h := New(k)
		for id := 0; id < n; id++ {
			d := math.Floor(rng.Float64()*20) / 2 // force ties
			all = append(all, pair{id, d})
			h.Push(id, d)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return all[i].id < all[j].id
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := h.Results()
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].id || got[i].Dist != want[i].d {
				t.Fatalf("trial %d: got[%d] = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMerge(t *testing.T) {
	a := []Item{{ID: 1, Dist: 1}, {ID: 2, Dist: 4}}
	b := []Item{{ID: 3, Dist: 2}, {ID: 4, Dist: 5}}
	c := []Item{{ID: 5, Dist: 3}}
	got := Merge(3, a, b, c)
	wantIDs := []int{1, 3, 5}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i].ID != wantIDs[i] {
			t.Errorf("got[%d] = %+v", i, got[i])
		}
	}
	if m := Merge(2); len(m) != 0 {
		t.Errorf("empty merge = %+v", m)
	}
}

func TestMergeEqualsGlobalTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		global := New(k)
		var lists [][]Item
		id := 0
		for p := 0; p < 4; p++ {
			local := New(k)
			for i := 0; i < rng.Intn(50); i++ {
				d := rng.Float64() * 100
				local.Push(id, d)
				global.Push(id, d)
				id++
			}
			lists = append(lists, local.Results())
		}
		got := Merge(k, lists...)
		want := global.Results()
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("merge mismatch at %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}
}

func TestResultsDoesNotMutate(t *testing.T) {
	h := New(3)
	h.Push(1, 3)
	h.Push(2, 1)
	r1 := h.Results()
	r1[0].Dist = 999
	r2 := h.Results()
	if r2[0].Dist == 999 {
		t.Error("Results leaked internal state")
	}
	if h.Threshold() != math.Inf(1) {
		t.Error("threshold should still be +Inf with 2 of 3 items")
	}
}

func TestContains(t *testing.T) {
	h := New(2)
	h.Push(7, 1)
	h.Push(9, 2)
	h.Push(3, 0.5) // evicts id 9
	if !h.Contains(7) || !h.Contains(3) || h.Contains(9) || h.Contains(1) {
		t.Fatalf("Contains disagrees with the held items %v", h.Results())
	}
}
