package serve

import (
	"encoding/json"
	"expvar"
	"net/http"
	"sync/atomic"
	"time"
)

// latencyBucketsUS are the histogram bucket upper bounds in
// microseconds (log-spaced); the final implicit bucket is +Inf.
var latencyBucketsUS = [numBounds]int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000,
}

const numBounds = 15

// histogram is a fixed-bucket latency histogram safe for concurrent
// observers. It implements expvar.Var.
type histogram struct {
	counts [numBounds + 1]atomic.Int64
	count  atomic.Int64
	sumUS  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < len(latencyBucketsUS) && us > latencyBucketsUS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// quantile estimates the q-th latency quantile in microseconds by
// linear interpolation within the containing bucket.
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	lo := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			if i < len(latencyBucketsUS) {
				lo = latencyBucketsUS[i]
			}
			continue
		}
		if float64(cum+n) >= rank {
			hi := int64(0)
			if i < len(latencyBucketsUS) {
				hi = latencyBucketsUS[i]
			} else {
				hi = 2 * lo // open-ended top bucket: extrapolate
			}
			frac := (rank - float64(cum)) / float64(n)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
		if i < len(latencyBucketsUS) {
			lo = latencyBucketsUS[i]
		}
	}
	return float64(lo)
}

// histSnapshot is the histogram's JSON shape.
type histSnapshot struct {
	Count    int64   `json:"count"`
	SumUS    int64   `json:"sum_us"`
	P50      float64 `json:"p50_us"`
	P90      float64 `json:"p90_us"`
	P99      float64 `json:"p99_us"`
	BoundsUS []int64 `json:"bucket_bounds_us"`
	Counts   []int64 `json:"bucket_counts"`
}

func (h *histogram) snapshot() histSnapshot {
	s := histSnapshot{
		Count:    h.count.Load(),
		SumUS:    h.sumUS.Load(),
		P50:      h.quantile(0.50),
		P90:      h.quantile(0.90),
		P99:      h.quantile(0.99),
		BoundsUS: latencyBucketsUS[:],
		Counts:   make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// String implements expvar.Var.
func (h *histogram) String() string {
	b, _ := json.Marshal(h.snapshot())
	return string(b)
}

// metrics is one Server's counter set. Counters are expvar.Int so
// they compose with the standard expvar machinery, but they live on
// the Server rather than the process-global registry: two servers in
// one process (tests) must not collide.
type metrics struct {
	searchRequests expvar.Int
	radiusRequests expvar.Int
	errors         expvar.Int

	rejectedRate     expvar.Int
	rejectedQueue    expvar.Int
	rejectedDraining expvar.Int

	cacheHits          expvar.Int
	cacheMisses        expvar.Int
	cacheInvalidations expvar.Int
	cacheEvictions     expvar.Int

	coalesced expvar.Int

	queueDepth atomic.Int64 // waiting for an admission slot
	active     atomic.Int64 // holding an admission slot

	searchLatency histogram
	radiusLatency histogram
}

// snapshot assembles the /metrics JSON document.
func (m *metrics) snapshot(cacheEntries int) map[string]any {
	queries := m.searchRequests.Value() + m.radiusRequests.Value()
	ratio := 0.0
	if queries > 0 {
		ratio = float64(m.coalesced.Value()) / float64(queries)
	}
	hitRatio := 0.0
	if lookups := m.cacheHits.Value() + m.cacheMisses.Value(); lookups > 0 {
		hitRatio = float64(m.cacheHits.Value()) / float64(lookups)
	}
	return map[string]any{
		"requests_search":     m.searchRequests.Value(),
		"requests_radius":     m.radiusRequests.Value(),
		"errors":              m.errors.Value(),
		"rejected_rate_limit": m.rejectedRate.Value(),
		"rejected_queue_full": m.rejectedQueue.Value(),
		"rejected_draining":   m.rejectedDraining.Value(),
		"queue_depth":         m.queueDepth.Load(),
		"active_workers":      m.active.Load(),
		"cache": map[string]any{
			"hits":          m.cacheHits.Value(),
			"misses":        m.cacheMisses.Value(),
			"invalidations": m.cacheInvalidations.Value(),
			"evictions":     m.cacheEvictions.Value(),
			"entries":       cacheEntries,
			"hit_ratio":     hitRatio,
		},
		"coalesce": map[string]any{
			"coalesced_requests": m.coalesced.Value(),
			"ratio":              ratio,
		},
		"latency_us": map[string]any{
			"search": m.searchLatency.snapshot(),
			"radius": m.radiusLatency.snapshot(),
		},
	}
}

// serveMetrics writes the snapshot as indented JSON.
func (m *metrics) serveMetrics(w http.ResponseWriter, cacheEntries int, index map[string]any) {
	snap := m.snapshot(cacheEntries)
	snap["index"] = index
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
