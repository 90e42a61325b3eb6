package rptrie

import (
	"errors"
	"fmt"
	mathbits "math/bits"
	"sort"

	"repose/internal/bits"
)

// Compressed is the trit-array (tSTAT) layout after Kanda & Fujii
// ("Succinct Trit-array Trie for Scalable Trajectory Similarity
// Search", arXiv 2005.10917): the whole trie is flattened into BFS
// node order and every per-node attribute becomes one entry of a
// packed, rank/select-addressable array. Unlike Succinct's two-tier
// scheme there is no pointer- or byte-serialized remainder — every
// level is succinct, so the structural core is a handful of flat
// arrays that stay cache-resident during search; Snapshot/Restore
// images omit it entirely and rebuild it on load (persist_tstat.go).
//
// Encoding, per BFS node v (root is node 0):
//
//   - A trit distinguishing the three node states, stored as two
//     disjoint bit planes: hi[v]=1 ⇔ v is a pure leaf (payload, no
//     children); lo[v]=1 ⇔ v is terminal with children (the paper's
//     '$'-terminated internal node). (lo,hi)=(0,0) is a plain
//     internal node; (1,1) is unused.
//   - Child navigation via a degree-unary LOUDS bitvector: every
//     non-pure-leaf node appends 0^degree 1 in BFS order. Children of
//     the g-th such node occupy the zeros of its group, and because
//     every non-root node is somebody's child exactly once, the i-th
//     zero overall is node i+1 — child ids are consecutive and
//     recovered with two Select1 calls and no stored pointers.
//   - The incoming edge label of node v (v ≥ 1), as a fixed-width
//     index into the sorted distinct z-value alphabet.
//   - Exact minLen/maxLen/maxDepthBelow in bit-packed arrays whose
//     widths are the smallest that fit the maxima — LBo sees the same
//     values the pointer layout stores.
//   - Pivot ranges quantized to 16 buckets of the per-pivot global
//     range (min rounded down into the low nibble, max rounded up
//     into the high nibble) with a 16-entry float64 decode LUT per
//     pivot: admissible by construction, 1 byte per pivot instead of
//     Succinct's 8.
//
// Terminal payloads live in flat arrays indexed by terminal rank
// (rank1(lo,v)+rank1(hi,v)); member ids are one shared []int32 sliced
// by packed offsets, and leaf Dmax is an up-rounded float32.
//
// Queries and mutations are the shared handle's (see index); Compact
// rebuilds through the pointer layout and re-encodes.
type Compressed struct{ index }

// Layout reports the compressed layout.
func (*Compressed) Layout() Layout { return LayoutCompressed }

// cmpCore is the compressed structural core shared by every
// generation until a compaction replaces it.
type cmpCore struct {
	alphabet packedInts // sorted distinct edge z-values, bit-packed
	alphaN   int        // alphabet cardinality
	lo, hi   *bits.Set  // trit planes over BFS node ids
	louds    *bits.Set  // 0^degree 1 per non-pure-leaf node, BFS order
	labels   packedInts
	np       int

	// Exact per-node subtree metadata (LBo inputs).
	minLen, maxLen, maxDepth packedInts

	// Quantized pivot ranges: the low nibble of hrq[v*np+j] holds the
	// bucket index of node v's pivot-j min, the high nibble its max;
	// hrLUT[j*16+b] decodes bucket b of pivot j.
	hrq   []uint8
	hrLUT []float64

	// Terminal payloads in BFS-terminal order.
	leafTids               []int32
	leafOff                []int32 // leaf l's members: leafTids[leafOff[l]:leafOff[l+1]]
	leafDmax               []float32
	leafMinLen, leafMaxLen packedInts

	numNodes int // excluding the root, matching trieState.numNodes
	numLeafs int
}

// hrBuckets is the number of quantization buckets per pivot bound. A
// bucket index fits a nibble, so each (node, pivot) range costs one
// byte. Coarser buckets only widen the decoded interval — LBp stays
// admissible and results bit-identical; the quantization error is
// bounded by 1/15 of the pivot's root range per bound.
const hrBuckets = 16

// packedInts is a fixed-width bit-packed array of non-negative ints.
type packedInts struct {
	w    uint8
	data []uint64
}

// packInts packs vals at the smallest width that fits the maximum.
func packInts(vals []uint64) packedInts {
	var max uint64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	w := uint8(mathbits.Len64(max))
	if w == 0 {
		return packedInts{}
	}
	p := packedInts{w: w, data: make([]uint64, (len(vals)*int(w)+63)/64)}
	for i, v := range vals {
		bo := i * int(w)
		wi, sh := bo/64, uint(bo%64)
		p.data[wi] |= v << sh
		if sh+uint(w) > 64 {
			p.data[wi+1] = v >> (64 - sh)
		}
	}
	return p
}

// get returns element i. Constant time: at most two word reads.
func (p packedInts) get(i int) uint64 {
	if p.w == 0 {
		return 0
	}
	bo := i * int(p.w)
	wi, sh := bo/64, uint(bo%64)
	v := p.data[wi] >> sh
	if sh+uint(p.w) > 64 {
		v |= p.data[wi+1] << (64 - sh)
	}
	return v & (1<<p.w - 1)
}

func (p packedInts) sizeBytes() int { return len(p.data)*8 + 32 }

// CompressTST converts a built pointer trie into the trit-array
// layout. The result answers queries identically to the source trie;
// a pending delta is folded in first, so the compressed core always
// starts fully compacted.
func CompressTST(t *Trie) (*Compressed, error) {
	if t == nil {
		return nil, errors.New("rptrie: nil trie")
	}
	st, err := t.compacted()
	if err != nil {
		return nil, err
	}
	x := &Compressed{index{cfg: t.cfg, encode: tstCore}}
	if err := x.install(st.core.(*trieState), st.gen); err != nil {
		return nil, err
	}
	return x, nil
}

// tstCore is the compressed layout's encode.
var tstCore = encoder(compressTSTCore)

// compressTSTCore encodes one compacted trieState as a tSTAT core.
func compressTSTCore(cfg Config, st *trieState) (*cmpCore, error) {
	if st == nil || st.root == nil {
		return nil, errors.New("rptrie: nil trie")
	}
	np := len(cfg.Pivots)
	if !cfg.Measure.IsMetric() {
		np = 0
	}

	// Flatten to BFS order; node ids are positions in this order.
	order := make([]*node, 1, st.numNodes+1)
	order[0] = st.root
	for i := 0; i < len(order); i++ {
		order = append(order, order[i].children...)
	}
	n := len(order)

	// Alphabet: sorted distinct labels of every edge.
	alpha := map[uint64]struct{}{}
	for _, nd := range order[1:] {
		alpha[nd.z] = struct{}{}
	}
	core := &cmpCore{
		np:       np,
		numNodes: st.numNodes,
	}
	alphaVals := make([]uint64, 0, len(alpha))
	for z := range alpha {
		alphaVals = append(alphaVals, z)
	}
	sort.Slice(alphaVals, func(i, j int) bool { return alphaVals[i] < alphaVals[j] })
	core.alphabet = packInts(alphaVals)
	core.alphaN = len(alphaVals)

	// Pivot quantization LUTs over the root's ranges (the root range
	// is the union of every subtree's, so it spans all node ranges).
	if np > 0 {
		core.hrLUT = make([]float64, np*hrBuckets)
		for j := 0; j < np; j++ {
			lo, hi := st.root.hr[j].Min, st.root.hr[j].Max
			step := (hi - lo) / (hrBuckets - 1)
			for b := 0; b < hrBuckets; b++ {
				core.hrLUT[j*hrBuckets+b] = lo + float64(b)*step
			}
			// Pin the endpoints so clamped buckets decode exactly.
			core.hrLUT[j*hrBuckets] = lo
			core.hrLUT[j*hrBuckets+hrBuckets-1] = hi
		}
		core.hrq = make([]uint8, 0, n*np)
	}

	core.lo = bits.NewSet(n)
	core.hi = bits.NewSet(n)
	core.louds = bits.NewSet(2 * n)
	labels := make([]uint64, 0, n-1)
	minLens := make([]uint64, n)
	maxLens := make([]uint64, n)
	maxDepths := make([]uint64, n)
	var leafMinLens, leafMaxLens []uint64
	core.leafOff = append(core.leafOff, 0)

	for v, nd := range order {
		pureLeaf := nd.leaf != nil && len(nd.children) == 0
		core.lo.PushBit(nd.leaf != nil && !pureLeaf)
		core.hi.PushBit(pureLeaf)
		if !pureLeaf {
			core.louds.PushN(false, len(nd.children))
			core.louds.PushBit(true)
		}
		for _, c := range nd.children {
			labels = append(labels, uint64(core.symbolIndex(c.z)))
		}
		if nd.minLen < 0 || nd.maxLen < 0 || nd.maxDepthBelow < 0 {
			return nil, errors.New("rptrie: negative node metadata")
		}
		minLens[v] = uint64(nd.minLen)
		maxLens[v] = uint64(nd.maxLen)
		maxDepths[v] = uint64(nd.maxDepthBelow)
		for j := 0; j < np; j++ {
			core.hrq = append(core.hrq,
				core.quantizeDown(j, nd.hr[j].Min)|core.quantizeUp(j, nd.hr[j].Max)<<4)
		}
		if nd.leaf != nil {
			l := nd.leaf
			core.leafTids = append(core.leafTids, l.tids...)
			core.leafOff = append(core.leafOff, int32(len(core.leafTids)))
			core.leafDmax = append(core.leafDmax, f32Up(l.dmax))
			leafMinLens = append(leafMinLens, uint64(l.minLen))
			leafMaxLens = append(leafMaxLens, uint64(l.maxLen))
		}
	}
	core.lo.Seal()
	core.hi.Seal()
	core.louds.Seal()
	core.labels = packInts(labels)
	core.minLen = packInts(minLens)
	core.maxLen = packInts(maxLens)
	core.maxDepth = packInts(maxDepths)
	core.leafMinLen = packInts(leafMinLens)
	core.leafMaxLen = packInts(leafMaxLens)
	core.numLeafs = len(core.leafDmax)
	if st.numLeafs != 0 && core.numLeafs != st.numLeafs {
		return nil, fmt.Errorf("rptrie: leaf count mismatch (%d encoded, %d expected)", core.numLeafs, st.numLeafs)
	}
	return core, nil
}

// symbolIndex returns z's position in the sorted alphabet.
func (c *cmpCore) symbolIndex(z uint64) int {
	return sort.Search(c.alphaN, func(i int) bool { return c.alphabet.get(i) >= z })
}

// quantizeDown returns the largest bucket whose decoded value does
// not exceed v — the admissible encoding of an interval minimum.
func (c *cmpCore) quantizeDown(j int, v float64) uint8 {
	lut := c.hrLUT[j*hrBuckets : (j+1)*hrBuckets]
	b := sort.Search(hrBuckets, func(i int) bool { return lut[i] > v })
	if b == 0 {
		return 0
	}
	return uint8(b - 1)
}

// quantizeUp returns the smallest bucket whose decoded value is at
// least v — the admissible encoding of an interval maximum.
func (c *cmpCore) quantizeUp(j int, v float64) uint8 {
	lut := c.hrLUT[j*hrBuckets : (j+1)*hrBuckets]
	b := sort.Search(hrBuckets, func(i int) bool { return lut[i] >= v })
	if b >= hrBuckets {
		return hrBuckets - 1
	}
	return uint8(b)
}

// childrenRange returns the BFS id of node v's first child and its
// child count. Child ids are consecutive.
func (c *cmpCore) childrenRange(v int) (first, count int) {
	if c.hi.Get(v) {
		return 0, 0 // pure leaf
	}
	g := v - c.hi.Rank1(v) // group index among non-pure-leaf nodes
	start := 0
	if g > 0 {
		start = c.louds.Select1(g-1) + 1
	}
	end := c.louds.Select1(g)
	return start - g + 1, end - start
}

// terminalIndex returns v's payload index, or -1 when v is not
// terminal.
func (c *cmpCore) terminalIndex(v int) int {
	if !c.lo.Get(v) && !c.hi.Get(v) {
		return -1
	}
	return c.lo.Rank1(v) + c.hi.Rank1(v)
}

func (c *cmpCore) counts() (nodes, leaves int) { return c.numNodes, c.numLeafs }

func (c *cmpCore) coreBytes() int {
	sz := c.alphabet.sizeBytes() +
		c.lo.SizeBytes() + c.hi.SizeBytes() + c.louds.SizeBytes() +
		c.labels.sizeBytes() +
		c.minLen.sizeBytes() + c.maxLen.sizeBytes() + c.maxDepth.sizeBytes() +
		len(c.hrq) + len(c.hrLUT)*8 +
		len(c.leafTids)*4 + len(c.leafOff)*4 + len(c.leafDmax)*4 +
		c.leafMinLen.sizeBytes() + c.leafMaxLen.sizeBytes()
	return sz
}
