package serve

import (
	"math"
	"slices"
	"sync"

	"repose"
)

// Query kinds distinguish top-k and radius answers in cache and
// flight keys.
const (
	kindTopK byte = iota
	kindRadius
)

// fnv-1a 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnv64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// signature hashes a query's identity: kind, k, radius (raw float
// bits), the refined-mode dimensions (subtrajectory flag and segment
// bounds, time-window flag and endpoints — two queries differing only
// in mode must never share a cache entry), and every point's raw
// coordinate bits. Two textually different requests naming the same
// point sequence collide on purpose; genuinely different queries are
// additionally guarded by the exact comparison in query.equal, so a
// 64-bit hash collision degrades to a cache miss or an uncoalesced
// execution, never a wrong answer.
func (q *query) signature() uint64 {
	h := fnvByte(uint64(fnvOffset), q.kind)
	h = fnv64(h, uint64(q.k))
	h = fnv64(h, math.Float64bits(q.radius))
	var mode byte
	if q.sub {
		mode |= 1
	}
	if q.window {
		mode |= 2
	}
	h = fnvByte(h, mode)
	h = fnv64(h, uint64(q.minSeg))
	h = fnv64(h, uint64(q.maxSeg))
	h = fnv64(h, uint64(q.from))
	h = fnv64(h, uint64(q.to))
	for _, p := range q.pts {
		h = fnv64(h, math.Float64bits(p.X))
		h = fnv64(h, math.Float64bits(p.Y))
	}
	return h
}

// hashGens folds a generation vector into one 64-bit value for the
// flight key; the exact vector still rides along for comparison.
func hashGens(gens []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, g := range gens {
		h = fnv64(h, g)
	}
	return h
}

// query is the exact identity a cache or flight entry answers:
// signature plus the fields the signature hashed, for collision-proof
// comparison.
type query struct {
	sig    uint64
	kind   byte
	k      int
	radius float64
	pts    []repose.Point

	// Refined-mode dimensions; part of the identity (see signature).
	sub            bool
	minSeg, maxSeg int
	window         bool
	from, to       int64
}

func (q query) equal(o query) bool {
	return q.sig == o.sig && q.kind == o.kind && q.k == o.k &&
		q.radius == o.radius &&
		q.sub == o.sub && q.minSeg == o.minSeg && q.maxSeg == o.maxSeg &&
		q.window == o.window && q.from == o.from && q.to == o.to &&
		slices.Equal(q.pts, o.pts)
}

// cacheEntry is one cached answer: the query, the generation vector
// it was computed under (its floor — see doc.go), and the results.
type cacheEntry struct {
	q     query
	gens  []uint64
	items []repose.Result

	prev, next *cacheEntry // LRU list, most recent at head
}

// cacheShard is one lock domain of the answer cache: a hash map by
// query signature plus an intrusive LRU list. One entry per
// signature — an answer recomputed under a newer generation vector
// replaces its predecessor, which is how invalidation manifests.
type cacheShard struct {
	mu         sync.Mutex
	entries    map[uint64]*cacheEntry
	head, tail *cacheEntry
	cap        int
}

// answerCache is the sharded generation-keyed LRU.
type answerCache struct {
	shards []cacheShard
	mask   uint64
	m      *metrics
}

// newCache sizes a cache of totalEntries across shards (rounded up
// to a power of two). totalEntries <= 0 disables caching (nil cache).
func newCache(totalEntries, shards int, m *metrics) *answerCache {
	if totalEntries <= 0 {
		return nil
	}
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (totalEntries + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &answerCache{shards: make([]cacheShard, n), mask: uint64(n - 1), m: m}
	for i := range c.shards {
		c.shards[i] = cacheShard{entries: make(map[uint64]*cacheEntry, perShard), cap: perShard}
	}
	return c
}

func (c *answerCache) shard(sig uint64) *cacheShard {
	// Shard by the high bits: the low bits pick the map bucket.
	return &c.shards[(sig>>48)&c.mask]
}

// get returns the cached answer for q at exactly the generation
// vector gens. A same-query entry keyed by a different vector has
// been superseded by a mutation: it is removed and counted as an
// invalidation (the lookup itself still counts as a miss).
func (c *answerCache) get(q query, gens []uint64) ([]repose.Result, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(q.sig)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[q.sig]
	if !ok || !e.q.equal(q) {
		c.m.cacheMisses.Add(1)
		return nil, false
	}
	if !slices.Equal(e.gens, gens) {
		s.remove(e)
		c.m.cacheInvalidations.Add(1)
		c.m.cacheMisses.Add(1)
		return nil, false
	}
	s.moveToFront(e)
	c.m.cacheHits.Add(1)
	return e.items, true
}

// put stores an answer computed under the generation vector gens
// (read before the query was dispatched — the entry's floor).
func (c *answerCache) put(q query, gens []uint64, items []repose.Result) {
	if c == nil {
		return
	}
	s := c.shard(q.sig)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[q.sig]; ok {
		// Replace in place: same query at a newer generation, or a
		// signature collision (either way the old answer goes).
		e.q, e.gens, e.items = q, gens, items
		s.moveToFront(e)
		return
	}
	e := &cacheEntry{q: q, gens: gens, items: items}
	s.entries[q.sig] = e
	s.pushFront(e)
	if len(s.entries) > s.cap {
		if lru := s.tail; lru != nil {
			s.remove(lru)
			c.m.cacheEvictions.Add(1)
		}
	}
}

// len counts entries across shards (metrics only).
func (c *answerCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Intrusive LRU list plumbing; callers hold the shard lock.

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(s.entries, e.q.sig)
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	// Detach without touching the map.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	s.pushFront(e)
}
