package rptrie

import (
	"math"
	"sync"

	"repose/internal/topk"
)

// SharedTopK is the one bounded result heap that every partition scan
// of a single top-k query reads and feeds (SearchOptions.Shared), so
// each best-first walk prunes against the running global k-th distance
// instead of its own. It holds the k best distinct candidates any scan
// has refined so far; scans keep collecting their own result lists,
// the shared heap only supplies the bound. doc.go carries the
// exactness argument.
//
// One value serves one query at a time: every scan handed the same
// SharedTopK must answer the same query with the same k and the same
// scoring (measure, parameters, refiner). Reset re-targets it, so a
// scatter layer can recycle values once all scans of a query returned.
type SharedTopK struct {
	mu sync.Mutex
	h  topk.Heap
	// cut is the smallest float64 above the heap's k-th distance
	// (+Inf until k candidates are held): the exclusive cut-off scans
	// read without the lock. Publishing the successor rather than the
	// k-th distance itself keeps every "bound ≥ threshold" prune and
	// every early abandon strict, so candidates tying the global k-th
	// distance are still refined and returned.
	cut atomicFloat64
}

// NewSharedTopK returns a SharedTopK for one top-k query. k must be
// positive.
func NewSharedTopK(k int) *SharedTopK {
	s := &SharedTopK{}
	s.Reset(k)
	return s
}

// Reset empties s and re-targets it at a new query's k, retaining the
// backing array. No scan may still hold s.
func (s *SharedTopK) Reset(k int) {
	s.h.Reset(k)
	s.cut.Store(math.Inf(1))
}

// offer submits a refined candidate and reports whether its distance
// is at or below the shared k-th distance — whether it can still
// belong to the global top-k and so to the offering scan's list.
// Abandoned (+Inf) and NaN distances never qualify. Only qualifying
// candidates take the lock; everything else costs one atomic load.
//
// An id the heap already holds is not counted again: inside a
// partition split's install→prune window one trajectory is visible in
// two partitions, and counted twice it would make the shared
// threshold the (k−1)-th distance and prune a true result.
func (s *SharedTopK) offer(it topk.Item) bool {
	if !(it.Dist < s.cut.Load()) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if it.Dist > s.h.Threshold() {
		return false // tightened between the load and the lock
	}
	if !s.h.Contains(it.ID) && s.h.PushItem(it) {
		s.cut.Store(math.Nextafter(s.h.Threshold(), math.Inf(1)))
	}
	return true
}
