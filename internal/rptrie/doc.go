// Package rptrie implements the Reference Point Trie (RP-Trie), the
// core index of REPOSE (Sections III and IV of the paper).
//
// Trajectories are discretized into reference trajectories (z-value
// sequences) on a grid; the trie indexes those sequences. Leaves
// record the ids of all trajectories sharing a reference trajectory,
// the maximum distance Dmax from the reference trajectory to those
// trajectories, and per-pivot distance ranges HR. Top-k queries
// traverse the trie best-first (Algorithm 2), pruning with the
// one-side bound LBo (Section IV-B), the two-side bound LBt
// (Section IV-C), and the pivot bound LBp (Section IV-D); the bound
// computations themselves live in repose/internal/dist (LBo/LBt) and
// repose/internal/pivot (LBp).
//
// Two structural optimizations are provided: z-value re-arrangement
// for order-independent measures via the greedy hitting-set
// construction (Section III-C, Appendix B) and a succinct two-tier
// layout — rank-addressable bitmaps for the dense upper levels,
// lazily decoded byte sequences for the sparse lower levels
// (Section III-B). Tries persist via Save/ReadTrie so a restarted
// worker skips the construction cost; range search (SearchRadius) is
// provided on every layout as an extension beyond the paper.
//
// # The compressed trit-array layout (tSTAT)
//
// CompressTST produces a third, maximally compact layout after the
// succinct trie of Kanda & Fujii, "Practical trie-based string
// dictionaries" (arXiv 2005.10917), adapted to the RP-Trie. Nodes are
// BFS-numbered; structure is two bitvector planes (a trit per node
// classifying it pure leaf / terminal-with-children / plain internal)
// plus a degree-unary LOUDS vector, all answered by O(1) rank/select
// over repose/internal/bits. Edge z-values are coded
// as bit-packed indices into a sorted alphabet of the distinct
// z-values actually present, and per-leaf metadata lives in shared
// flat arrays. Per-node pivot distance ranges are quantized to 16
// buckets per pivot (one nibble per bound): the min rounds down and
// the max rounds up to bucket boundaries, so the stored interval only
// ever widens, LBp remains admissible, and top-k/radius results stay
// bit-identical to the pointer layout — the quantization trades a
// little pruning power, never correctness. The layout supports the
// full surface (top-k, radius, delta-overlay mutations, Compact) and
// keeps the delta-empty hot path allocation-free.
//
// Its Save image deliberately omits the encoded core: the core is a
// pure, deterministic function of (config, trajectories) — the same
// derivation Compact runs — so ReadCompressed rebuilds it from the
// trajectory payload and cross-checks the recorded node/leaf counts.
// Snapshot transfers therefore ship little more than delta-coded
// coordinates, which is what makes failover heals of compressed
// partitions cheap (see BENCH_memory.json at the repo root).
//
// # Query hot path
//
// Every query draws a recycled working set (the scratch) from a
// per-index sync.Pool: the memoized query→cell distance table and
// bound-state arena (dist.QueryBounds), the DP rows of the exact
// kernels (dist.Scratch), the best-first priority queue, and the
// top-k heap. In steady state — once the pool has warmed to the
// workload's high-water sizes — a top-k query performs no heap
// allocations on any layout (BenchmarkSearch/trie, /compressed and
// /succinct report 0 allocs/op): the pointer layout's node handle is a
// bare pointer, and the other two keep their node refs in arenas of
// the scratch, so boxing one into the searcher's node interface never
// allocates. When a query ends the scratch drops every node reference
// it holds (queue slab, child buffer, ref arenas) over the range the
// query used, so a pooled scratch never keeps the generation before a
// Compact reachable (TestScratchDropsRetiredGeneration).
//
// # Chains are walked, not queued
//
// Algorithm 2 puts every node it reaches through one priority queue.
// Most of them need no ordering. A node with no '$' payload and exactly
// one child — a link — can only ever push that child back, and most
// nodes a DTW query reaches are links: on the benchmark's T-drive 1/16
// corpus a DTW query under the paper's cell-min bound used to pop
// 37,923 nodes to push 41,288. So
// expand, after extending a child's bound state and finding its bound
// below the threshold, asks the child whether it is a link (searchNode's
// only method, answered natively by each layout); if so it extends the
// same PathBounder by the grandchild's z-value, re-evaluates the bound,
// and repeats. It pushes the node where the walk stops — a branch or a
// terminal node — or nothing at all once the bound reaches the
// threshold.
//
// Why it is exact. A link has the same member set as its child: no
// trajectory ends at it, and everything below it is below the child. So
// every bound that is admissible for the child's entry is admissible
// for the entry it replaces: LBo with the child's metadata (LBoSub
// under a segment refiner), and LBp, because a link's pivot ranges
// cover the same members — the walk evaluates LBp once at the head of
// the chain and carries it down. Each term of those bounds only grows
// along a path, so the replacing bound is never smaller, and the entry
// stands in the queue where the last of the entries it replaces would
// have. (DTW's warping column is no exception: every new column entry
// extends some old one by a non-negative cost, so the column minimum
// never falls, and a complete node's last entry is at least that
// minimum.) The threshold the walk compares against is the one expand
// started with; it can only have tightened by the time the queued walk
// would have reached the same node, so the in-place walk may evaluate a
// few nodes the queued one would have discarded at a pop (3 % more on
// the DTW pool, and more where bounds are strong: there most pushed
// entries are never popped, and their chains are now walked eagerly),
// never fewer, and prunes nothing the queued walk kept.
//
// The exception is a terminal node with one child — a reference
// trajectory that is a strict prefix of another. Its member set is
// larger than its child's, so it is not a link: the walk stops there
// and the node is queued.
//
// The leaf bound stays lazy. LBt costs a whole reference-trajectory
// distance, and most queued terminal nodes are never popped (a
// Hausdorff query on that corpus pushes 2,769 entries and pops 1,251),
// so it is paid where it always was: when the terminal node is popped
// and expanded, which is also when its leaf entry is queued.
//
// What moves through the heap is a 16-byte item {lb, seq, slot}; the
// payload — the node and its bound state, or the node alone for a leaf
// entry, whose leafView is taken when it is popped — sits still in a
// slab indexed by slot, with a free list so the slab stays as small as
// the most entries ever queued at once. The heap is 4-ary and sifts a
// hole rather than swapping. Order is (lb, seq) exactly as before, so
// runs stay deterministic. A chain is at most as long as the trie is
// deep, so the per-pop context poll still bounds cancellation latency;
// the capped walk behind BoundContext counts links against boundBudget
// like expansions and cuts a chain where the budget runs out (its
// result is the queue minimum either way). SearchStats.NodesExpanded
// keeps its meaning; links walked in place are counted in ChainSteps,
// and their sum is the number of trie nodes the search descended
// through. On the corpus above the walk refines the same leaves in the
// same order with the same exact computations as before while a DTW
// query's expansions fall from 37,923 to 9,201 and its pushes from
// 41,288 to 13,718; internal/cluster's TestChainWalkCountGate pins both
// halves on a 1/256 fixture. DTW's order-aware bound (a warping DP
// column per path, see internal/dist) later took the same query to
// 5,992 expansions, 8,816 pushes and 889.6 exact computations (from
// 2,090.5); the gate's pinned refinement counts are that bound's, and
// TestDTWPathBoundCountGate holds its cut.
//
// # Cheap bounds first
//
// A child's bound is max(LBo, LBp). LBp costs a few range comparisons
// against the query's pivot distances; LBo costs a PathBounder.Fork and
// an ExtendZ, an O(|q|) merge over the child's cell. So expand reads
// the cheap bounds before it builds any path state. It first takes the
// child's pivot bound, raised to the one the parent was queued with
// (the parent's members include the child's), and drops the child if
// that already reaches the threshold dk. Otherwise it asks
// PathBounder.PeekLBo for a bound on the child's LBo that reads only
// the child's memoized cell — max(maxCellMin, cell min) for Hausdorff
// and Frechet, colMin + cell min for DTW, 0 for the rest — and drops
// the child if that reaches dk. Only a child that passes both is forked
// and extended. A queued entry carries its pivot bound, so a popped
// node is not asked for it again, and a terminal node whose carried
// bound reaches dk skips its two-side bound LBt.
//
// Why it is exact. Each early test compares dk with a value the full
// bound is at least — nodeLB is max(LBo, LBp) and PeekLBo never exceeds
// the extended path's LBo (see its proof in internal/dist) — against
// the same dk the full test would use. So a child cut early is one the
// full test would have rejected before walking its chain or queueing
// it, and a cut costs no queue entry, no chain step and no refinement
// the old order would have spent. Every SearchStats count stays what it
// was; SearchStats.EarlyCuts counts the children cut. PeekLBo is a
// whole-trajectory bound, so a segment refiner only gets the pivot
// test, where lbp is 0. On internal/cluster's T-drive 1/256 Hausdorff
// fixture (48 queries over 8 partitions sharing one result heap), 20,120
// of the 22,564 children the walk rejects are cut before their bound
// state is built, and TestEarlyCutCountGate pins the other counts.
//
// # Parallel leaf refinement and the atomic threshold
//
// SearchOptions.RefineWorkers fans a fat leaf's exact-distance
// computations over a worker group. Workers share the current
// pruning threshold dk through an atomic float64 and serialize
// result-heap pushes behind a mutex, so a worker may read a *stale*
// threshold — one that a concurrent push has since tightened. That is
// admissible: the threshold only ever decreases, so a stale value is
// only ever too large, and DistanceBounded with a larger cutoff
// abandons less eagerly — it returns the exact distance for every
// candidate the fresh threshold would have kept, and for candidates
// it need not have computed the push simply rejects them. The final
// top-k set is determined by the exact (distance, id) order alone,
// which is why the parallel path returns bit-identical results to the
// sequential one (TestParallelRefineParity). The sequential
// best-first loop tolerates the same staleness between partitions, so
// nothing about the argument is new — only the float64-bits atomic
// that carries it.
//
// # One result heap per query, shared across partitions
//
// The paper has every partition compute its own top-k and the driver
// merge them (Section V-C). SearchOptions.Shared departs from that: all
// partition scans of one query feed one SharedTopK — a mutex-guarded
// bounded heap of the k best distinct candidates any scan has refined —
// and prune against its k-th distance g instead of their own. Why the
// answer cannot change:
//
//   - Admissibility. g is the k-th smallest of k distinct live
//     trajectories scored by the query's own scoring function (every
//     partition uses the same measure, parameters, and refiner), so
//     the true global k-th distance D is ≤ g at all times. g only
//     decreases, and a scan reads it from an atomic without the lock,
//     so a stale read is only ever too large — the refineLeafParallel
//     argument above, one level up. A scan discards an entry only on
//     lb > g ≥ D and a candidate only on d > g ≥ D; neither can belong
//     to the global top-k. A shared *heap* rather than a shared minimum
//     of the local k-th distances is what makes g tight: a partition's
//     own 10th-best is a loose bound on the global 10th-best.
//   - Ties. Those comparisons are strict. The atomic publishes not g
//     but the next float64 above it, so everywhere the loop prunes on
//     "bound ≥ threshold" or abandons a kernel at the threshold, a
//     candidate at exactly g survives: it is refined exactly, kept in
//     its partition's list, and left to the merge's (distance, id)
//     order. With a non-strict rule the partition scanned second would
//     drop an equal-distance candidate with the smaller id, and the
//     answer would depend on scan order. (Within one partition the
//     scan's own heap still prunes at lb ≥ its own k-th distance, as it
//     always has; that only binds once the partition alone holds all k
//     of the shared heap's candidates.)
//   - Distinct ids. Inside a partition split's install→prune window one
//     trajectory is visible in two partitions. Counted twice it would
//     make g the (k−1)-th distance and prune a true result, so the heap
//     rejects an id it already holds (the candidate still goes to its
//     partition's list; the merge dedups).
//   - What a scan returns. A candidate enters the scan's own result
//     heap only if d ≤ g at that moment, so the list is the partition's
//     members that can still be in the global top-k — a superset of the
//     partition's share of the answer, a subset of its local top-k. The
//     same gate keeps an abandoned +Inf out now that the effective
//     threshold can be finite while the scan's own heap is not yet full.
//
// Nothing waits: a scan takes the lock only for a candidate at or below
// g (a few dozen times per query) and otherwise does one atomic load.
// Without a SharedTopK the search is the paper's, bit for bit, and
// stays 0 allocs/op. SearchRadius has a fixed threshold and shares
// nothing. On the benchmark's T-drive 1/16 corpus at 8 partitions
// sharing cuts the exact distance computations per query from 274.7 to
// 153.9 (Hausdorff) and from 2,091 to 1,221 (DTW); internal/cluster's
// TestSharedTopKCountGate pins a ≥ 30 % cut on a 1/256 fixture.
//
// # One handle, three cores
//
// A layout is only an encoding of the node structure. Everything else
// about an index — the configuration, the writer mutex, the atomically
// swapped state (generation, core, trajectories, delta overlay), the
// scratch pool, and the whole query, mutation and snapshot surface —
// lives once in the unexported index handle (index.go). A layout
// contributes a core: rootRef (the root as a searchNode, boxed without
// allocating), coreBytes and counts, plus an encode function from a
// freshly built pointer trie (*trieState, itself the pointer layout's
// core) to that core. Trie, Succinct and Compressed are named structs
// embedding the handle; they add their image format (Save/Read*) and
// layout-only accessors, nothing else. Index is the exported form of
// the surface, which Durable satisfies too.
//
// install(ts, gen) encodes and publishes: Build, the conversions and
// ReadTrie/ReadCompressed end in it. compacted() builds the current
// state with the delta folded into a freshly encoded core at the same
// generation and never publishes it. The three Saves and
// Compress/CompressTST work from it, so saving or converting an index
// with pending mutations moves neither its generation nor its delta
// (TestCompactedIsPure); Compact is the one caller that publishes the
// result, as the next generation.
//
// The range walk (range.go) is one depth-first recursion over
// searchNode under a fixed threshold. A node's children are appended to
// the scratch's child buffer above its ancestors', read by position (a
// nested visit may grow and move the buffer), and popped on the way
// out; the last child inherits the parent's PathBounder, the others
// fork it. The walk therefore parks node refs in the scratch — in the
// child buffer and, for the succinct and compressed layouts, the ref
// arenas — and must end in dropRefs like run and bound do, or the
// pooled scratch would keep a compacted-away generation reachable
// (TestScratchDropsRetiredGeneration, radius variant).
//
// The journal lives in the handle too: index.log is nil for an
// in-memory index and points at the partition's storage.Store once
// WrapDurable or OpenDurable attaches it (after replay, which must not
// log). With a journal, Insert/Delete/Upsert/Compact build the next
// state, append its WAL record and publish it under the writer mutex,
// then fsync outside it, so concurrent writers share one fsync. A failed
// append publishes nothing; a failed fsync restores the previous state
// unless a later mutation has published; either poisons the journal and
// the handle refuses further mutations. Durable is therefore just the
// handle plus its store: it embeds the index, so every query and
// mutator is the handle's own, and defines only Compact (compact, then
// checkpoint), Checkpoint, Close, Err and Dir.
//
// # Online updates: generations, deltas, and compaction
//
// The handle supports Insert, Delete, and Upsert through an
// epoch/generation scheme (dynamic.go). The structural core built at
// construction time is immutable; mutations accumulate in a small
// immutable delta overlay — an append buffer of pending inserts plus
// a tombstone set — and every mutation publishes a whole new state
// (shallow core copy, cloned delta, generation+1) through one atomic
// pointer swap. A query loads the pointer exactly once, so it is
// snapshot-isolated: it observes all of a mutation or none of it,
// with no read-side locking, and the delta-empty read path is
// byte-identical to the static one (BenchmarkSearch/trie stays
// 0 allocs/op). Compact rebuilds the core over the live set — core
// minus tombstones plus pending inserts — re-running the ordinary
// build (including z-value re-arrangement), re-encodes it, and swaps
// the compacted state in as the next generation;
// SearchOptions.MinGen lets a caller pin a query to a generation floor
// (ErrStale below it), which the cluster layer uses for
// read-your-writes.
//
// # Refined query modes and segment admissibility
//
// SearchOptions.Refiner swaps the leaf-refinement strategy while the
// traversal machinery stays put. A nil Refiner is the built-in exact
// whole-trajectory distance (the allocation-free default, pinned by
// BenchmarkSearch/refiner); NewRefiner builds the two refined modes:
// subtrajectory search (RefineSpec.Sub — score each candidate's
// best-matching contiguous segment, dist.SubDistance) and
// time-windowed search (RefineSpec.Window — candidates must have a
// sample timestamped inside [From, To], and only the in-window run is
// scored; both compose). Matched segments come back as [Start, End)
// on topk.Item.
//
// A segment-scoring refiner invalidates two of the three stored
// bounds. LBt folds the leaf's Dmax — the distance from the reference
// trajectory to the whole candidate — into a triangle-style bound,
// and LBp compares whole-trajectory pivot distances; a segment of the
// candidate satisfies neither inequality, so both are dropped
// (Refiner.Subsequence reports this and the searcher also skips
// computing query–pivot distances entirely). What remains admissible
// is the query-side half of LBo, exposed as dist.PathBounder.LBoSub:
// terms aggregating min-distances from query points to the
// trajectory's grid cells survive segment restriction for measures
// whose definition quantifies over every query point —
//
//   - Hausdorff, Frechet: max over query points of the cell min
//     distance (every query point must still be matched by any
//     segment) — complete reference paths only;
//   - DTW: the sum of those minima (every query point appears in any
//     warping path);
//   - LCSS: 1 when no query point can match within Epsilon (then no
//     segment can either); otherwise 0;
//   - EDR: m − MaxLen when positive (alignment needs at least
//     m − |segment| ≥ m − |trajectory| edits — valid even on
//     incomplete paths), plus the count of query points matchable by
//     no cell;
//   - ERP: the sum over query points of min(cell min distance, gap
//     distance) — each query point is either matched or gapped.
//
// Candidate-side terms (cells the *trajectory* must visit) are all
// dropped: a segment may omit any prefix or suffix of the reference
// path. For measures/nodes where every surviving term degenerates to
// zero (e.g. LCSS with any matchable query point, or any incomplete
// reference path under Hausdorff/Frechet/DTW/ERP), LBoSub returns 0
// and the traversal decays to bound-free leaf enumeration — every
// leaf is refined exactly, so answers remain oracle-exact, just
// without pruning. The admissibility of LBoSub is property-tested
// against the brute-force best segment in internal/dist, and the
// refined modes are differential-tested against internal/oracle for
// all measures, all three layouts, and mid-mutation interleavings
// (refine_differential_test.go). The time-window clip is itself a
// contiguous segment, so the same argument covers windowed scoring,
// and trajectories without timestamps never match a windowed query.
//
// The bounds stay admissible under mutation without being touched:
// deleting a member only loosens a leaf's precomputed Dmax/HR/length
// bounds (they still lower-bound every remaining member, tombstones
// are simply skipped at refinement), and pending inserts are never
// covered by any stored bound — they are answered by an exact linear
// scan of the append buffer, run before the best-first loop so the
// threshold it establishes tightens trie pruning rather than
// weakening it. Correctness across random mutation interleavings is
// pinned to the brute-force oracle for all six measures and every
// layout in differential_test.go.
package rptrie
