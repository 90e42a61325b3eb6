package rptrie

import (
	"repose/internal/dist"
	"repose/internal/pivot"
)

// The compressed layout shares the layout-independent best-first
// searcher (search.go) through cmpRef, a pointer-shaped searchNode
// whose instances live in the query scratch's arena: interface-boxing
// a pointer is allocation-free, so the delta-empty search path stays
// at 0 allocs/op like the pointer layout's.

// cmpRef is one node of a Compressed core during a search.
type cmpRef struct {
	c  *cmpCore
	sc *searchScratch // arena owner for child refs
	v  int32          // BFS node id
}

// newCmpRef allocates a ref from the scratch's arena.
func (sc *searchScratch) newCmpRef(c *cmpCore, v int32) *cmpRef {
	sc.cmpRefs = append(sc.cmpRefs, cmpRef{c: c, sc: sc, v: v})
	return &sc.cmpRefs[len(sc.cmpRefs)-1]
}

// rootRef returns the root's searchNode. The arena is empty between
// queries: dropRefs clears it when a search ends.
func (c *cmpCore) rootRef(sc *searchScratch) searchNode {
	return sc.newCmpRef(c, 0)
}

func (r *cmpRef) appendChildren(dst []childEdge) []childEdge {
	c := r.c
	first, count := c.childrenRange(int(r.v))
	for i := 0; i < count; i++ {
		u := first + i
		z := c.alphabet.get(int(c.labels.get(u - 1)))
		dst = append(dst, childEdge{z: z, n: r.sc.newCmpRef(c, int32(u))})
	}
	return dst
}

func (r *cmpRef) only() (childEdge, bool) {
	c, v := r.c, int(r.v)
	if c.lo.Get(v) || c.hi.Get(v) {
		return childEdge{}, false // terminal
	}
	first, count := c.childrenRange(v)
	if count != 1 {
		return childEdge{}, false
	}
	z := c.alphabet.get(int(c.labels.get(first - 1)))
	return childEdge{z: z, n: r.sc.newCmpRef(c, int32(first))}, true
}

func (r *cmpRef) leafView() (leafView, bool) {
	c := r.c
	li := c.terminalIndex(int(r.v))
	if li < 0 {
		return leafView{}, false
	}
	return leafView{
		tids:   c.leafTids[c.leafOff[li]:c.leafOff[li+1]],
		dmax:   float64(c.leafDmax[li]),
		minLen: int(c.leafMinLen.get(li)),
		maxLen: int(c.leafMaxLen.get(li)),
	}, true
}

func (r *cmpRef) meta() dist.NodeMeta {
	c, v := r.c, int(r.v)
	return dist.NodeMeta{
		MinLen:        int(c.minLen.get(v)),
		MaxLen:        int(c.maxLen.get(v)),
		MaxDepthBelow: int(c.maxDepth.get(v)),
	}
}

// pivotLB evaluates LBp over the quantized ranges via the per-pivot
// decode LUTs. The decoded interval contains the exact one, so the
// bound is admissible (never tighter than the pointer layout's).
func (r *cmpRef) pivotLB(dqp []float64) float64 {
	c := r.c
	if c.np == 0 || dqp == nil {
		return 0
	}
	base := int(r.v) * c.np
	lb := 0.0
	for j := 0; j < c.np && j < len(dqp); j++ {
		lut := c.hrLUT[j*hrBuckets:]
		q := c.hrq[base+j]
		lo := lut[q&0x0f]
		hi := lut[q>>4]
		if b := pivot.RangeBound(dqp[j], lo, hi); b > lb {
			lb = b
		}
	}
	return lb
}
