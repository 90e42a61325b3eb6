package topk

import (
	"math"
	"slices"
)

// Item is one candidate result. Start and End are meaningful only for
// refined query modes (subtrajectory and time-windowed search): they
// name the matched half-open sample range [Start, End) of the
// trajectory. Whole-trajectory searches leave them zero.
type Item struct {
	ID         int
	Dist       float64
	Start, End int
}

// less orders items by (Dist, ID); the heap keeps the *worst* item at
// the top, so the heap comparator is the reverse of this.
func less(a, b Item) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Heap is a bounded max-heap of the current k best items. The zero
// value is not usable; call New or Reset. The implementation is a
// hand-rolled sift heap rather than container/heap: the standard
// library's interface boxes every pushed Item, which would put an
// allocation on the per-candidate hot path.
type Heap struct {
	k     int
	items []Item
}

// New returns a Heap retaining the k best items. k must be positive.
func New(k int) *Heap {
	h := &Heap{}
	h.Reset(k)
	return h
}

// Reset empties the heap and re-targets it at the k best items,
// retaining the backing array. k must be positive.
func (h *Heap) Reset(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	h.k = k
	h.items = h.items[:0]
}

// K returns the heap's capacity.
func (h *Heap) K() int { return h.k }

// Len returns the number of items currently held.
func (h *Heap) Len() int { return len(h.items) }

// Threshold returns dk: the distance of the k-th best item so far, or
// +Inf while fewer than k items are held. A candidate with a lower
// bound ≥ Threshold can be pruned.
func (h *Heap) Threshold() float64 {
	if len(h.items) < h.k {
		return math.Inf(1)
	}
	return h.items[0].Dist
}

// Contains reports whether an item with the given id is currently
// held. It scans the k retained items.
func (h *Heap) Contains(id int) bool {
	for i := range h.items {
		if h.items[i].ID == id {
			return true
		}
	}
	return false
}

// Push offers an item and reports whether it was retained. NaN
// distances are rejected.
func (h *Heap) Push(id int, dist float64) bool {
	if math.IsNaN(dist) {
		return false
	}
	it := Item{ID: id, Dist: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return true
	}
	if !less(it, h.items[0]) {
		return false
	}
	h.items[0] = it
	h.down(0)
	return true
}

// PushItem offers a fully-populated item — retaining its matched
// segment — and reports whether it was retained. NaN distances are
// rejected, and so are +Inf ones: the refined query modes return +Inf
// for candidates with no eligible segment or no window overlap, which
// must not surface as results even while the heap is not yet full.
func (h *Heap) PushItem(it Item) bool {
	if math.IsNaN(it.Dist) || math.IsInf(it.Dist, 1) {
		return false
	}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return true
	}
	if !less(it, h.items[0]) {
		return false
	}
	h.items[0] = it
	h.down(0)
	return true
}

// up restores the max-heap property from leaf i toward the root.
func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.items[parent], h.items[i]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// down restores the max-heap property from node i toward the leaves.
func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && less(h.items[worst], h.items[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && less(h.items[worst], h.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// Results returns the retained items sorted ascending by
// (distance, id), as a non-nil slice. The heap remains usable
// afterwards.
func (h *Heap) Results() []Item {
	return h.AppendResults(make([]Item, 0, len(h.items)))
}

// AppendResults appends the retained items to dst sorted ascending by
// (distance, id) and returns the extended slice; with a dst of
// sufficient capacity it does not allocate. The heap remains usable
// afterwards.
func (h *Heap) AppendResults(dst []Item) []Item {
	start := len(dst)
	dst = append(dst, h.items...)
	SortItems(dst[start:])
	return dst
}

// SortItems orders items ascending by (distance, id) in place — the
// result order every search path promises. Range queries and
// cross-partition radius merges share it.
func SortItems(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

// Merge combines any number of (not necessarily sorted) result lists
// into the global top-k, as the master does with per-partition local
// results (Section V-C).
func Merge(k int, lists ...[]Item) []Item {
	h := New(k)
	for _, l := range lists {
		for _, it := range l {
			h.PushItem(it)
		}
	}
	return h.Results()
}
