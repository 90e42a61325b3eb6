package serve

import (
	"slices"
	"sync"

	"repose"
)

// flightKey identifies shareable work: the query signature plus a
// hash of the generation vector. Including the vector is what lets a
// follower inherit the leader's cache-exactness floor (doc.go); two
// requests that read different vectors never share an execution.
type flightKey struct {
	sig     uint64
	genHash uint64
}

// call is one in-flight execution that followers can join.
type call struct {
	q    query    // exact identity, to reject hash collisions
	gens []uint64 // exact vector, same reason
	done chan struct{}

	items []repose.Result
	err   error
}

// flightGroup deduplicates identical in-flight queries (singleflight
// keyed by query + generation vector).
type flightGroup struct {
	mu      sync.Mutex
	flights map[flightKey]*call
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[flightKey]*call)}
}

// join returns the call for (q, gens) and whether this request is the
// leader (must execute and complete the call). shared=false reports a
// key collision with a different query or vector — the caller
// executes alone, unshared.
func (g *flightGroup) join(q query, gens []uint64, genHash uint64) (c *call, leader, shared bool) {
	key := flightKey{sig: q.sig, genHash: genHash}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.flights[key]; ok {
		if c.q.equal(q) && slices.Equal(c.gens, gens) {
			return c, false, true
		}
		return nil, false, false
	}
	c = &call{q: q, gens: gens, done: make(chan struct{})}
	g.flights[key] = c
	return c, true, true
}

// complete publishes the leader's result and retires the flight so a
// later identical request starts fresh (it will hit the cache
// instead, if the answer was cacheable).
func (g *flightGroup) complete(c *call, genHash uint64, items []repose.Result, err error) {
	g.mu.Lock()
	delete(g.flights, flightKey{sig: c.q.sig, genHash: genHash})
	g.mu.Unlock()
	c.items, c.err = items, err
	close(c.done)
}
