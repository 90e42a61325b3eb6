// Package dist implements the six trajectory similarity measures of
// REPOSE (Section II-B) — Hausdorff, discrete Frechet, DTW, LCSS,
// EDR, and ERP — together with the lower-bound machinery that drives
// the best-first RP-Trie search of Section IV.
//
// # Measures
//
// All measures operate on point sequences under the Euclidean ground
// distance (Definition 2). [Distance] computes the exact value;
// [DistanceBounded] is the early-abandoning variant used during query
// refinement: it returns the exact distance whenever that distance is
// ≤ threshold, and is allowed to abandon the computation and return
// +Inf as soon as the partial dynamic-programming state proves the
// exact distance strictly exceeds the threshold. The distance-valued
// forms are
//
//   - Hausdorff: symmetric point-set Hausdorff distance (a metric),
//   - Frechet:   discrete Frechet distance (a metric),
//   - DTW:       sum-cost dynamic time warping,
//   - LCSS:      1 − LCSS_ε/min(m,n) ∈ [0,1],
//   - EDR:       edit count with ε-tolerant zero-cost matches,
//   - ERP:       edit distance with real penalty against a gap point
//     (a metric for a fixed gap).
//
// LCSS and EDR take the matching tolerance from [Params].Epsilon; ERP
// takes its gap point from [Params].Gap. [DefaultParams] derives the
// paper's defaults from a dataset region.
//
// # Lower bounds and the admissibility contract
//
// The trie search descends paths of grid cells (the reference
// trajectory of Definition 4). A [Bounder] accumulates one such path
// cell-by-cell via Extend and produces two lower bounds:
//
//   - LBo, the one-side bound (Section IV-B), valid for any internal
//     node, computed from the distances between the query points and
//     the path cells plus the subtree metadata in [NodeMeta];
//   - LBt, the two-side bound (Section IV-C), valid at terminal
//     (leaf) nodes, which for metric measures sharpens LBo with the
//     triangle inequality through the leaf's reference trajectory and
//     its stored Dmax ([LeafMeta]).
//
// Every bound is admissible: it never exceeds the exact distance from
// the query to any trajectory stored in the subtree (respectively
// leaf) it was computed for. The per-measure arguments are spelled
// out on the bounder implementation in bound.go; the load-bearing
// facts are
//
//   - a trajectory in a node's subtree has at least one sample point
//     inside every cell on the node's path, and distinct path cells
//     (runs) contain distinct sample points;
//   - when NodeMeta.MaxDepthBelow == 0 the path is the complete
//     reference trajectory, so every sample point of every member
//     lies in some path cell;
//   - d(q, cell) — the point-to-rectangle distance — never exceeds
//     d(q, t) for any sample point t inside the cell. (This is the
//     rectangle form of the paper's "distance to the reference point
//     minus the cell half-diagonal √2·δ/2", and is never looser.)
//
// Most bounds aggregate those distances without regard to order. DTW's
// does not. A path cell is one run of a member's consecutive sample
// points, so every warping path between the query and a member
// collapses onto a monotone path between the query and the node's path
// cells. The bound is therefore a warping DP over point-to-rectangle
// costs: one column per path, advanced in O(|q|) per cell and forked
// with the path. It dominates the paper's one-side DTW bound and is
// checked against it (TestDTWPathBoundDominatesCellSums). The argument
// is written out on LBo. It does not carry over to LCSS, EDR or ERP,
// which match each point of a run one to one.
//
// [PathBounder.PeekLBo] is a cheaper bound on a bound: it bounds the
// LBo a path would have after one more Extend, from that cell's
// memoized entry alone, so a search can reject a child before it forks
// and extends the path for it.
//
// The contract is enforced by tests: bound_test.go checks bounder
// bounds against exact distances along randomly generated trie paths
// (TestBounderAdmissibleQuick, which also holds PeekLBo under the LBo
// it peeks at, and TestLeafBoundAdmissibleQuick), and
// dist_test.go checks the DistanceBounded early-abandon contract
// (TestDistanceBoundedContractQuick). The end-to-end guarantee — no
// admissible bound ever evicts a true top-k result — is exercised by
// internal/rptrie's TestSearchMatchesBruteForce and the package's
// invariant tests.
//
// # Allocation discipline
//
// The query hot path never allocates in steady state. The DP kernels
// compute in caller-provided row buffers ([Scratch], via
// [DistanceBoundedScratch]); the bound machinery shares one
// [QueryBounds] per query, which memoizes point-to-cell distances by
// z-value (each distinct cell pays its O(|q|) rectangle-distance scan
// once per query) and recycles [PathBounder] states, DTW's warping
// column included, through an internal arena (Fork/Release) instead of
// allocating clones. The memo
// is an open-addressed table of (z, entry index) slots — multiplicative
// hash, linear probing, a power of two in size, doubled at load ½ and
// cleared, not freed, between queries — because every node the search
// visits goes through it: under DTW a Go map's hashing was 6–7 % of a
// walk. Its precondition is the map's: within one query a z-value names
// one rectangle (cells come from one grid), or two cells would alias in
// the memo. Both are recycled across queries by internal/rptrie's
// per-index scratch pool.
package dist
