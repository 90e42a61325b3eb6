package rptrie

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"repose/internal/bits"
	"repose/internal/dist"
	"repose/internal/pivot"
)

// Succinct is the compressed two-tier layout of Section III-B: the
// frequently accessed upper levels are encoded with rank-addressable
// bitmaps (Bc marks which cells are children, Bt marks terminal
// nodes — the paper's Bl state bitmap), concatenated in breadth-first
// order; the sparse lower levels are serialized as byte sequences and
// decoded lazily during traversal.
//
// Two pragmatic deviations from the paper's sketch, both documented
// in DESIGN.md: the bitmap alphabet is the set of distinct z-values
// that occur in the dense levels rather than all grid cells (the
// grids in the experiments have up to 2^18 cells, which would dwarf
// the trie itself), and HR ranges are stored as directed-rounded
// float32 pairs (min down, max up) to halve their footprint without
// compromising bound soundness.
//
// Queries and mutations are the shared handle's (see index); Compact
// rebuilds through the pointer layout and recompresses the core.
type Succinct struct{ index }

// Layout reports the succinct layout.
func (*Succinct) Layout() Layout { return LayoutSuccinct }

// succCore is the compressed structural core shared by every
// generation until a compaction replaces it.
type succCore struct {
	alphabet []uint64 // sorted distinct z-values of dense-level edges
	levels   []*denseLevel
	sparse   []int  // blob offsets of the sparse subtree roots
	blob     []byte // serialized lower levels
	leaves   []sLeaf
	np       int // number of pivots

	numNodes int
	numLeafs int
	bytes    int // footprint, recorded once by seal
}

type denseLevel struct {
	n        int       // number of nodes in this level
	bc       *bits.Set // n*A bits: child present at alphabet symbol
	bt       *bits.Set // n bits: node has a terminal payload
	leafBase int       // first terminal payload index for this level
	meta     []denseMeta
	hr       []float32 // n*np*2 floats, nil when np == 0
}

type denseMeta struct {
	minLen, maxLen, maxDepth int32
}

type sLeaf struct {
	tids           []int32
	dmax           float64
	minLen, maxLen int32
}

// denseBudgetBits caps the memory the dense tier may use; levels that
// would exceed it spill into the sparse tier.
const denseBudgetBits = 1 << 22

// Compress converts a built pointer trie into the succinct layout.
// The result answers queries identically to the source trie; a
// pending delta is folded in first, so the compressed core always
// starts fully compacted.
func Compress(t *Trie) (*Succinct, error) {
	if t == nil {
		return nil, errors.New("rptrie: nil trie")
	}
	st, err := t.compacted()
	if err != nil {
		return nil, err
	}
	s := &Succinct{index{cfg: t.cfg, encode: succinctCore}}
	if err := s.install(st.core.(*trieState), st.gen); err != nil {
		return nil, err
	}
	return s, nil
}

// succinctCore is the succinct layout's encode.
var succinctCore = encoder(compressCore)

// compressCore encodes one compacted trieState as a succinct core.
func compressCore(cfg Config, st *trieState) (*succCore, error) {
	if st == nil || st.root == nil {
		return nil, errors.New("rptrie: nil trie")
	}
	core := &succCore{
		np:       len(cfg.Pivots),
		numNodes: st.numNodes,
		numLeafs: st.numLeafs,
	}
	if !cfg.Measure.IsMetric() {
		core.np = 0
	}

	// BFS the trie, collecting nodes per level (level 0 = root).
	levels := [][]*node{{st.root}}
	for {
		last := levels[len(levels)-1]
		var next []*node
		for _, n := range last {
			next = append(next, n.children...)
		}
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
	}

	// Choose F: the deepest prefix of levels whose dense encoding is
	// no larger than the sparse encoding of the same nodes (the
	// paper's premise is that the upper levels "consist of few
	// nodes" — once a level fans out, bitmaps stop paying off) and
	// fits an absolute budget. The alphabet covers the edges into
	// levels 1..F, so it grows with F.
	f := 0
	alpha := map[uint64]struct{}{}
	for cand := 1; cand <= len(levels); cand++ {
		// Adding dense level cand-1 means encoding the nodes at
		// depth cand-1 and admitting their child labels.
		edges := 0
		for _, n := range levels[cand-1] {
			for _, c := range n.children {
				alpha[c.z] = struct{}{}
			}
			edges += len(n.children)
		}
		a := len(alpha)
		denseBits, sparseBytes := 0, 0
		for l := 0; l < cand; l++ {
			nl := len(levels[l])
			denseBits += nl*a + nl
			sparseBytes += nl * (5 + core.np*8)
			for _, n := range levels[l] {
				sparseBytes += len(n.children) * 5
			}
		}
		if denseBits > denseBudgetBits || denseBits/8 > sparseBytes {
			break
		}
		f = cand
	}

	// Rebuild the alphabet for the chosen F.
	alpha = map[uint64]struct{}{}
	for l := 0; l < f; l++ {
		for _, n := range levels[l] {
			for _, c := range n.children {
				alpha[c.z] = struct{}{}
			}
		}
	}
	core.alphabet = make([]uint64, 0, len(alpha))
	for z := range alpha {
		core.alphabet = append(core.alphabet, z)
	}
	sort.Slice(core.alphabet, func(i, j int) bool { return core.alphabet[i] < core.alphabet[j] })
	a := len(core.alphabet)

	// Encode dense levels 0..F-1.
	for l := 0; l < f; l++ {
		nodes := levels[l]
		dl := &denseLevel{
			n:        len(nodes),
			bc:       bits.NewSet(len(nodes) * a),
			bt:       bits.NewSet(len(nodes)),
			leafBase: len(core.leaves),
			meta:     make([]denseMeta, len(nodes)),
		}
		if core.np > 0 {
			dl.hr = make([]float32, 0, len(nodes)*core.np*2)
		}
		for i, n := range nodes {
			base := dl.bc.Len()
			dl.bc.PushN(false, a)
			for _, c := range n.children {
				sym := core.symbol(c.z)
				dl.bc.SetBit(base + sym)
			}
			dl.bt.PushBit(n.leaf != nil)
			if n.leaf != nil {
				core.addLeaf(n.leaf)
			}
			dl.meta[i] = denseMeta{
				minLen:   int32(n.minLen),
				maxLen:   int32(n.maxLen),
				maxDepth: int32(n.maxDepthBelow),
			}
			for j := 0; j < core.np; j++ {
				dl.hr = append(dl.hr, f32Down(n.hr[j].Min), f32Up(n.hr[j].Max))
			}
		}
		dl.bc.Seal()
		dl.bt.Seal()
		core.levels = append(core.levels, dl)
	}

	// Serialize the sparse tier: subtrees rooted at depth F, in BFS
	// order of their roots (matching the rank addressing of the last
	// dense level).
	if f == 0 {
		core.sparse = []int{0}
		core.blob = core.encodeSparse(nil, st.root)
	} else if f < len(levels) {
		for _, root := range levels[f] {
			core.sparse = append(core.sparse, len(core.blob))
			core.blob = core.encodeSparse(core.blob, root)
		}
	}
	core.seal()
	return core, nil
}

// seal records the finished core's in-memory footprint, so SizeBytes
// never walks the leaf array on the query path. Both constructors —
// compressCore and the image decoder — call it last.
func (c *succCore) seal() {
	sz := len(c.blob) + len(c.alphabet)*8 + len(c.sparse)*8
	for _, dl := range c.levels {
		sz += dl.bc.SizeBytes() + dl.bt.SizeBytes()
		sz += len(dl.meta)*12 + len(dl.hr)*4
	}
	for _, l := range c.leaves {
		sz += 24 + len(l.tids)*4
	}
	c.bytes = sz
}

func (c *succCore) symbol(z uint64) int {
	i := sort.Search(len(c.alphabet), func(i int) bool { return c.alphabet[i] >= z })
	return i
}

func (c *succCore) addLeaf(l *leafData) int {
	c.leaves = append(c.leaves, sLeaf{
		tids:   l.tids,
		dmax:   l.dmax,
		minLen: int32(l.minLen),
		maxLen: int32(l.maxLen),
	})
	return len(c.leaves) - 1
}

// encodeSparse appends n's DFS record to buf:
//
//	flags byte (bit0: hasLeaf)
//	uvarint minLen, maxLen, maxDepthBelow
//	np × (float32 min, float32 max)   — directed-rounded HR
//	[hasLeaf] uvarint leaf payload index
//	uvarint childCount
//	childCount × (uvarint z, uvarint recLen, record)
func (c *succCore) encodeSparse(buf []byte, n *node) []byte {
	var flags byte
	if n.leaf != nil {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(n.minLen))
	buf = binary.AppendUvarint(buf, uint64(n.maxLen))
	buf = binary.AppendUvarint(buf, uint64(n.maxDepthBelow))
	for j := 0; j < c.np; j++ {
		buf = appendF32(buf, f32Down(n.hr[j].Min))
		buf = appendF32(buf, f32Up(n.hr[j].Max))
	}
	if n.leaf != nil {
		buf = binary.AppendUvarint(buf, uint64(c.addLeaf(n.leaf)))
	}
	buf = binary.AppendUvarint(buf, uint64(len(n.children)))
	for _, ch := range n.children {
		child := c.encodeSparse(nil, ch)
		buf = binary.AppendUvarint(buf, ch.z)
		buf = binary.AppendUvarint(buf, uint64(len(child)))
		buf = append(buf, child...)
	}
	return buf
}

func appendF32(buf []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
}

// f32Down converts to float32 rounding toward −Inf so interval
// minima never increase.
func f32Down(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// f32Up converts to float32 rounding toward +Inf so interval maxima
// never decrease.
func f32Up(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

func (c *succCore) rootRef(sc *searchScratch) searchNode {
	if len(c.levels) > 0 {
		return sc.newDenseRef(c, 0, 0)
	}
	return sc.newSparseRef(c, 0)
}

func (c *succCore) coreBytes() int              { return c.bytes }
func (c *succCore) counts() (nodes, leaves int) { return c.numNodes, c.numLeafs }

// DenseLevels returns the number of bitmap-encoded upper levels.
func (s *Succinct) DenseLevels() int { return len(s.state().core.(*succCore).levels) }

// denseRef navigates the bitmap tier. Like cmpRef, the succinct
// layout's refs live in arenas of the query scratch and reach the
// searcher as pointers: boxing a pointer into a searchNode is free,
// boxing the struct would be an allocation per node visited.
type denseRef struct {
	c     *succCore
	sc    *searchScratch // arena owner for child refs
	level int32
	idx   int32
}

func (sc *searchScratch) newDenseRef(c *succCore, level, idx int32) *denseRef {
	sc.denseRefs = append(sc.denseRefs, denseRef{c: c, sc: sc, level: level, idx: idx})
	return &sc.denseRefs[len(sc.denseRefs)-1]
}

func (sc *searchScratch) newSparseRef(c *succCore, off int) *sparseRef {
	sc.sparseRefs = append(sc.sparseRefs, sparseRef{c: c, sc: sc, off: off})
	return &sc.sparseRefs[len(sc.sparseRefs)-1]
}

// child returns the ref of the node behind the rank-th set bit of the
// level's child bitmap: the next bitmap level, or the sparse tier below
// the last one.
func (r *denseRef) child(rank int) searchNode {
	if int(r.level)+1 < len(r.c.levels) {
		return r.sc.newDenseRef(r.c, r.level+1, int32(rank))
	}
	return r.sc.newSparseRef(r.c, r.c.sparse[rank])
}

func (r *denseRef) appendChildren(dst []childEdge) []childEdge {
	c := r.c
	dl := c.levels[r.level]
	a := len(c.alphabet)
	base := int(r.idx) * a
	r0 := dl.bc.Rank1(base)
	r1 := dl.bc.Rank1(base + a)
	for rank := r0; rank < r1; rank++ {
		pos := dl.bc.Select1(rank)
		dst = append(dst, childEdge{z: c.alphabet[pos-base], n: r.child(rank)})
	}
	return dst
}

func (r *denseRef) only() (childEdge, bool) {
	c := r.c
	dl := c.levels[r.level]
	if dl.bt.Get(int(r.idx)) {
		return childEdge{}, false // terminal
	}
	a := len(c.alphabet)
	base := int(r.idx) * a
	rank := dl.bc.Rank1(base)
	if dl.bc.Rank1(base+a)-rank != 1 {
		return childEdge{}, false
	}
	return childEdge{z: c.alphabet[dl.bc.Select1(rank)-base], n: r.child(rank)}, true
}

func (r *denseRef) leafView() (leafView, bool) {
	dl := r.c.levels[r.level]
	if !dl.bt.Get(int(r.idx)) {
		return leafView{}, false
	}
	l := r.c.leaves[dl.leafBase+dl.bt.Rank1(int(r.idx))]
	return leafView{tids: l.tids, dmax: l.dmax, minLen: int(l.minLen), maxLen: int(l.maxLen)}, true
}

func (r *denseRef) meta() dist.NodeMeta {
	m := r.c.levels[r.level].meta[r.idx]
	return dist.NodeMeta{MinLen: int(m.minLen), MaxLen: int(m.maxLen), MaxDepthBelow: int(m.maxDepth)}
}

// pivotLB evaluates LBp directly over the packed float32 ranges —
// materializing a []pivot.Range per visited node would put an
// allocation on the traversal hot path.
func (r *denseRef) pivotLB(dqp []float64) float64 {
	c := r.c
	if c.np == 0 || dqp == nil {
		return 0
	}
	dl := c.levels[r.level]
	base := int(r.idx) * c.np * 2
	lb := 0.0
	for j := 0; j < c.np && j < len(dqp); j++ {
		lo := float64(dl.hr[base+2*j])
		hi := float64(dl.hr[base+2*j+1])
		if v := pivot.RangeBound(dqp[j], lo, hi); v > lb {
			lb = v
		}
	}
	return lb
}

// sparseRef navigates the byte-serialized tier; off is the record's
// offset in c.blob.
type sparseRef struct {
	c   *succCore
	sc  *searchScratch // arena owner for child refs
	off int
}

// decodeHeader parses the fixed part of a record and returns the
// parsed fields along with the offset of the child list.
func (r *sparseRef) decodeHeader() (flags byte, meta dist.NodeMeta, hrOff int, leafIdx int, childrenOff int) {
	b := r.c.blob
	p := r.off
	flags = b[p]
	p++
	v, n := binary.Uvarint(b[p:])
	meta.MinLen = int(v)
	p += n
	v, n = binary.Uvarint(b[p:])
	meta.MaxLen = int(v)
	p += n
	v, n = binary.Uvarint(b[p:])
	meta.MaxDepthBelow = int(v)
	p += n
	hrOff = p
	p += r.c.np * 8
	leafIdx = -1
	if flags&1 != 0 {
		v, n = binary.Uvarint(b[p:])
		leafIdx = int(v)
		p += n
	}
	return flags, meta, hrOff, leafIdx, p
}

func (r *sparseRef) appendChildren(dst []childEdge) []childEdge {
	b := r.c.blob
	_, _, _, _, p := r.decodeHeader()
	count, n := binary.Uvarint(b[p:])
	p += n
	for i := uint64(0); i < count; i++ {
		z, n := binary.Uvarint(b[p:])
		p += n
		recLen, n := binary.Uvarint(b[p:])
		p += n
		dst = append(dst, childEdge{z: z, n: r.sc.newSparseRef(r.c, p)})
		p += int(recLen)
	}
	return dst
}

func (r *sparseRef) only() (childEdge, bool) {
	b := r.c.blob
	_, _, _, leafIdx, p := r.decodeHeader()
	if leafIdx >= 0 {
		return childEdge{}, false // terminal
	}
	count, n := binary.Uvarint(b[p:])
	if count != 1 {
		return childEdge{}, false
	}
	p += n
	z, n := binary.Uvarint(b[p:])
	p += n
	_, n = binary.Uvarint(b[p:]) // record length
	return childEdge{z: z, n: r.sc.newSparseRef(r.c, p+n)}, true
}

func (r *sparseRef) leafView() (leafView, bool) {
	_, _, _, leafIdx, _ := r.decodeHeader()
	if leafIdx < 0 {
		return leafView{}, false
	}
	l := r.c.leaves[leafIdx]
	return leafView{tids: l.tids, dmax: l.dmax, minLen: int(l.minLen), maxLen: int(l.maxLen)}, true
}

func (r *sparseRef) meta() dist.NodeMeta {
	_, meta, _, _, _ := r.decodeHeader()
	return meta
}

// pivotLB evaluates LBp by decoding the record's float32 ranges in
// place; see denseRef.pivotLB.
func (r *sparseRef) pivotLB(dqp []float64) float64 {
	if r.c.np == 0 || dqp == nil {
		return 0
	}
	b := r.c.blob
	_, _, hrOff, _, _ := r.decodeHeader()
	lb := 0.0
	for j := 0; j < r.c.np && j < len(dqp); j++ {
		lo := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[hrOff+8*j:])))
		hi := float64(math.Float32frombits(binary.LittleEndian.Uint32(b[hrOff+8*j+4:])))
		if v := pivot.RangeBound(dqp[j], lo, hi); v > lb {
			lb = v
		}
	}
	return lb
}
