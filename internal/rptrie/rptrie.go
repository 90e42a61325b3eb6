package rptrie

import (
	"errors"
	"fmt"
	"sort"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
)

// Config configures index construction. The zero value of the toggle
// fields enables every optimization except re-arrangement, which is
// only valid for order-independent measures and must be requested.
type Config struct {
	Measure dist.Measure
	Params  dist.Params
	Grid    *grid.Grid

	// Pivots are the global pivot trajectories (Section III-B).
	// Ignored for non-metric measures. Nil disables pivot pruning.
	Pivots []*geo.Trajectory

	// Optimize enables z-value re-arrangement (Section III-C).
	// Build fails if set for an order-dependent measure.
	Optimize bool

	// DisableLBt and DisableLBp switch off the two-side and pivot
	// bounds; used by the ablation benchmarks.
	DisableLBt bool
	DisableLBp bool
}

// node is a pointer-layout trie node. The root has no label. A node
// may simultaneously have children and terminal (leaf) data — the
// latter models the paper's '$' terminator for reference trajectories
// that are prefixes of others.
type node struct {
	z        uint64
	children []*node // sorted by z

	// Subtree metadata for the bounds (see dist.NodeMeta).
	minLen, maxLen int
	maxDepthBelow  int

	// hr[i] is the range of distances from pivot i to the actual
	// trajectories in this subtree; nil when pivots are unused.
	hr []pivot.Range

	leaf *leafData
}

// leafData is the payload of a terminal node.
type leafData struct {
	tids   []int32
	dmax   float64 // max distance from reference trajectory to members
	minLen int     // member length range (original points)
	maxLen int
}

// trieState is one freshly built (or decoded) pointer trie with the
// trajectories it covers — what buildState produces and every layout's
// encode consumes. It is also the pointer layout's core.
type trieState struct {
	root     *node
	trajs    map[int32]*geo.Trajectory
	numNodes int // excluding the root
	numLeafs int
	maxDepth int
	bytes    int // footprint (nodeBytes of root), recorded at construction
}

func (ts *trieState) rootRef(*searchScratch) searchNode { return ptrNode{ts.root} }
func (ts *trieState) coreBytes() int                    { return ts.bytes }
func (ts *trieState) counts() (nodes, leaves int)       { return ts.numNodes, ts.numLeafs }

// Trie is the built index in the pointer layout, together with the
// trajectories it covers (the paper's RpTraj pairing of data and
// index). The whole query/mutation surface is the shared handle's; see
// index.
type Trie struct{ index }

// Layout reports the pointer layout.
func (*Trie) Layout() Layout { return LayoutPointer }

// Build constructs an RP-Trie over ds. Trajectories must be non-empty
// and have unique ids.
func Build(cfg Config, ds []*geo.Trajectory) (*Trie, error) {
	if cfg.Grid == nil {
		return nil, errors.New("rptrie: nil grid")
	}
	if cfg.Optimize && !cfg.Measure.OrderIndependent() {
		return nil, fmt.Errorf("rptrie: re-arrangement requires an order-independent measure, %v is not", cfg.Measure)
	}
	if !cfg.Measure.IsMetric() {
		cfg.Pivots = nil
	}
	ts, err := buildState(cfg, ds)
	if err != nil {
		return nil, err
	}
	t := &Trie{index{cfg: cfg, encode: pointerCore}}
	if err := t.install(ts, 0); err != nil {
		return nil, err
	}
	return t, nil
}

// buildState constructs one pointer trie from scratch — the shared
// core of Build, Compact and compacted. cfg must already be normalized
// (non-nil grid, pivots cleared for non-metric measures), which Build
// guarantees before the trie's first state and Config immutability
// guarantees for every later compaction.
func buildState(cfg Config, ds []*geo.Trajectory) (*trieState, error) {
	b := &stateBuilder{
		cfg: cfg,
		st: &trieState{
			root:  &node{},
			trajs: make(map[int32]*geo.Trajectory, len(ds)),
		},
	}
	type refEntry struct {
		tid int32
		zs  []uint64
	}
	entries := make([]refEntry, 0, len(ds))
	for _, tr := range ds {
		if len(tr.Points) == 0 {
			return nil, fmt.Errorf("rptrie: trajectory %d is empty", tr.ID)
		}
		if !tr.ValidTimes() {
			return nil, fmt.Errorf("rptrie: trajectory %d has invalid timestamps", tr.ID)
		}
		tid := int32(tr.ID)
		if _, dup := b.st.trajs[tid]; dup {
			return nil, fmt.Errorf("rptrie: duplicate trajectory id %d", tr.ID)
		}
		b.st.trajs[tid] = tr
		zs := cfg.Grid.Reference(tr)
		if cfg.Optimize {
			zs = dedupZ(zs)
		}
		entries = append(entries, refEntry{tid: tid, zs: zs})
	}
	if cfg.Optimize {
		items := make([]hsItem, len(entries))
		for i, e := range entries {
			items[i] = hsItem{tid: e.tid, zs: e.zs}
		}
		b.buildOptimized(b.st.root, items)
	} else {
		// Insert in id order for determinism.
		sort.Slice(entries, func(i, j int) bool { return entries[i].tid < entries[j].tid })
		for _, e := range entries {
			b.insert(e.tid, e.zs)
		}
	}
	b.finalize(b.st.root, nil, 0)
	b.st.bytes = nodeBytes(b.st.root)
	return b.st, nil
}

// stateBuilder accumulates one trieState during construction.
type stateBuilder struct {
	cfg Config
	st  *trieState
}

// dedupZ removes duplicate z-values (not just consecutive runs) while
// keeping first-occurrence order; step (1) of Section III-C.
func dedupZ(zs []uint64) []uint64 {
	seen := make(map[uint64]struct{}, len(zs))
	out := zs[:0:0]
	for _, z := range zs {
		if _, ok := seen[z]; ok {
			continue
		}
		seen[z] = struct{}{}
		out = append(out, z)
	}
	return out
}

// insert adds one reference trajectory to the basic trie.
func (b *stateBuilder) insert(tid int32, zs []uint64) {
	cur := b.st.root
	for _, z := range zs {
		next := cur.child(z)
		if next == nil {
			next = &node{z: z}
			cur.children = append(cur.children, next)
			b.st.numNodes++
		}
		cur = next
	}
	if cur.leaf == nil {
		cur.leaf = &leafData{}
		b.st.numLeafs++
	}
	cur.leaf.tids = append(cur.leaf.tids, tid)
}

// child returns the child labeled z, or nil. Children are unsorted
// during construction, sorted by finalize.
func (n *node) child(z uint64) *node {
	for _, c := range n.children {
		if c.z == z {
			return c
		}
	}
	return nil
}

// hsItem is one trajectory in the greedy hitting-set construction:
// its id and the residual set of z-values not yet consumed by the
// path. zs is sorted ascending.
type hsItem struct {
	tid int32
	zs  []uint64
}

// buildOptimized implements the greedy hitting-set algorithm of
// Theorem 1 / Appendix B: at each level, repeatedly make the most
// frequent remaining z-value a child and move every trajectory
// containing it into that child's subtree.
func (b *stateBuilder) buildOptimized(parent *node, items []hsItem) {
	for i := range items {
		sort.Slice(items[i].zs, func(a, c int) bool { return items[i].zs[a] < items[i].zs[c] })
	}
	b.buildOptimizedSorted(parent, items)
}

func (b *stateBuilder) buildOptimizedSorted(parent *node, items []hsItem) {
	// Trajectories with no residual z-values terminate at parent.
	rest := items[:0:0]
	for _, it := range items {
		if len(it.zs) == 0 {
			if parent.leaf == nil {
				parent.leaf = &leafData{}
				b.st.numLeafs++
			}
			parent.leaf.tids = append(parent.leaf.tids, it.tid)
		} else {
			rest = append(rest, it)
		}
	}
	items = rest
	freq := make(map[uint64]int)
	for _, it := range items {
		for _, z := range it.zs {
			freq[z]++
		}
	}
	for len(items) > 0 {
		// Most frequent z; ties break to the smallest z for
		// determinism.
		var best uint64
		bestN := -1
		for z, n := range freq {
			if n > bestN || (n == bestN && z < best) {
				best, bestN = z, n
			}
		}
		child := &node{z: best}
		parent.children = append(parent.children, child)
		b.st.numNodes++

		taken := items[:0:0]
		remain := items[:0:0]
		for _, it := range items {
			if containsZ(it.zs, best) {
				// Maintain the frequency table incrementally, as in
				// Appendix B: C(Z) − C(Z_z1).
				for _, z := range it.zs {
					freq[z]--
				}
				it.zs = removeZ(it.zs, best)
				taken = append(taken, it)
			} else {
				remain = append(remain, it)
			}
		}
		b.buildOptimizedSorted(child, taken)
		items = remain
	}
}

func containsZ(zs []uint64, z uint64) bool {
	i := sort.Search(len(zs), func(i int) bool { return zs[i] >= z })
	return i < len(zs) && zs[i] == z
}

func removeZ(zs []uint64, z uint64) []uint64 {
	out := make([]uint64, 0, len(zs)-1)
	for _, v := range zs {
		if v != z {
			out = append(out, v)
		}
	}
	return out
}

// finalize sorts children, computes leaf Dmax values, and aggregates
// the subtree metadata (length ranges, depth, HR) bottom-up. path is
// the z-value sequence from the root to n.
func (b *stateBuilder) finalize(n *node, path []uint64, depth int) {
	if depth > b.st.maxDepth {
		b.st.maxDepth = depth
	}
	sort.Slice(n.children, func(i, j int) bool { return n.children[i].z < n.children[j].z })

	n.minLen = int(^uint(0) >> 1) // MaxInt
	n.maxLen = 0
	n.maxDepthBelow = 0
	if b.cfg.Pivots != nil {
		n.hr = make([]pivot.Range, len(b.cfg.Pivots))
		for i := range n.hr {
			n.hr[i] = pivot.EmptyRange()
		}
	}

	if n.leaf != nil {
		refPts := b.cfg.Grid.ReferencePoints(path)
		n.leaf.minLen = int(^uint(0) >> 1)
		for _, tid := range n.leaf.tids {
			tr := b.st.trajs[tid]
			l := len(tr.Points)
			if l < n.leaf.minLen {
				n.leaf.minLen = l
			}
			if l > n.leaf.maxLen {
				n.leaf.maxLen = l
			}
			if b.cfg.Measure.IsMetric() {
				d := dist.Distance(b.cfg.Measure, tr.Points, refPts, b.cfg.Params)
				if d > n.leaf.dmax {
					n.leaf.dmax = d
				}
			}
			if b.cfg.Pivots != nil {
				for i, pv := range b.cfg.Pivots {
					d := dist.Distance(b.cfg.Measure, pv.Points, tr.Points, b.cfg.Params)
					n.hr[i] = n.hr[i].Extend(d)
				}
			}
		}
		if n.leaf.minLen < n.minLen {
			n.minLen = n.leaf.minLen
		}
		if n.leaf.maxLen > n.maxLen {
			n.maxLen = n.leaf.maxLen
		}
	}

	for _, c := range n.children {
		childPath := make([]uint64, len(path)+1)
		copy(childPath, path)
		childPath[len(path)] = c.z
		b.finalize(c, childPath, depth+1)
		if c.minLen < n.minLen {
			n.minLen = c.minLen
		}
		if c.maxLen > n.maxLen {
			n.maxLen = c.maxLen
		}
		if d := c.maxDepthBelow + 1; d > n.maxDepthBelow {
			n.maxDepthBelow = d
		}
		for i := range n.hr {
			n.hr[i] = n.hr[i].Union(c.hr[i])
		}
	}
}

// MaxDepth returns the deepest node's depth.
func (t *Trie) MaxDepth() int { return t.state().core.(*trieState).maxDepth }

// nodeBytes estimates the footprint of n's subtree.
func nodeBytes(n *node) int {
	// label + slice headers + meta ints.
	sz := 8 + 24 + 24 + 3*8 + 8
	sz += len(n.children) * 8 // child pointers
	sz += len(n.hr) * 16
	if n.leaf != nil {
		sz += 8 + 8 + 16 + len(n.leaf.tids)*4
	}
	for _, c := range n.children {
		sz += nodeBytes(c)
	}
	return sz
}
