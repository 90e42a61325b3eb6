// Package serve is the concurrent query gateway over a repose.Index:
// an HTTP/JSON front end that turns the engine's fast single-query
// path into sustained multi-client QPS. It layers, from the socket
// inward:
//
//   - per-client token-bucket rate limiting (429 + Retry-After),
//   - a sharded LRU answer cache keyed by (query, k, kind,
//     generation vector),
//   - request coalescing: singleflight for identical in-flight
//     queries,
//   - bounded-worker-pool admission control with queue-depth
//     rejection (429 + Retry-After when the queue is full),
//   - one engine call per admitted miss, bounded by QueryTimeout,
//
// plus operational endpoints: GET /healthz (Index.Health), GET
// /metrics (expvar counters: queue depth, cache hit/miss/
// invalidation, coalesce ratio, per-route latency histograms), and
// graceful drain via Server.Shutdown (reject new work, finish
// in-flight requests).
//
// # Cache exactness: generation-keyed answers cannot be stale
//
// The cache key includes the index's per-partition generation vector
// (Index.Generations), read freshly for every request before the
// lookup. The claim: a cache hit can never serve an answer that
// misses a mutation acknowledged before the request began.
//
// Three properties of the epoch/generation scheme carry the
// argument:
//
//  1. Generations only advance. Every Insert/Delete/Upsert/Compact
//     bumps the touched partitions' generations, and the vector a
//     request reads is the authoritative one (each partition's
//     current generation locally; curGen — the newest any replica
//     acknowledged, below which no replica serves reads — remotely).
//
//  2. A mutation's generations are visible in the vector no later
//     than the mutation call returns. So a request that began after
//     a mutation was acknowledged reads a vector ≥ the mutation's
//     generations — pointwise strictly newer than any vector read
//     before the mutation on the partitions it touched.
//
//  3. An entry cached under vector G was computed by a search
//     dispatched after G was read. Snapshot-isolated partition scans
//     read the then-current state, so the cached answer reflects
//     every partition at generation ≥ G[p].
//
// Now suppose request R begins after mutation M is acknowledged, and
// R hits an entry E. A hit requires R's freshly-read vector to equal
// E's key vector G exactly. By (1) and (2), R's vector includes M's
// generations, so G includes them too, and by (3) E's answer
// reflects state at least that new — it cannot miss M. Conversely, a
// stale entry (computed before M) is keyed by a vector that no
// request issued after M's acknowledgement can ever read again; it
// is unreachable and ages out of the LRU. No clocks, no TTLs, no
// explicit invalidation fan-out: staleness is impossible by
// construction, which is why the stress suite can assert every
// served answer bit-identical to the brute-force oracle at its
// pinned generation while mutations race the queries.
//
// The only freshness caveat runs the other way: an entry may embed a
// mutation slightly newer than its key vector (the mutation landed
// between the vector read and the partition scan). Serving it to a
// request that read the same (older) vector is serving a concurrent
// read — permitted by snapshot isolation, and exactly what an
// uncached query racing the same mutation could observe.
//
// Request coalescing inherits the same argument because the
// singleflight key is the cache key, generation vector included: a
// follower only joins a leader whose vector equals its own, and the
// leader's answer floor (3) therefore covers every acknowledged
// mutation each follower observed.
package serve
