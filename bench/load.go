package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// sample is one timed, verified operation.
type sample struct {
	at   time.Duration // when it was started (closed loop) or due (open loop), relative to the window's start; negative during warm-up
	lat  time.Duration // open loop: from the due time
	late time.Duration // open loop: how long after its due time the generator issued it
	ok   bool          // completed without error and passed the correctness check
}

// opFunc builds one client's operation around its own seeded RNG. The
// operation times itself, so the harness's decoding and checking stay
// outside the latency.
type opFunc func(c int, rng *rand.Rand) func() (time.Duration, bool)

// runClients runs one goroutine per client through the warm-up and the
// measured window. With period 0 the loop is closed: a client issues
// its next operation only when the previous one returned. With a
// period it is open: every client is on a fixed schedule of its own,
// one operation per period whether or not the system keeps up, and an
// operation's latency counts from when it was due, so a stall charges
// everything queued behind it.
func runClients(e *env, clients int, period time.Duration, newOp opFunc) []sample {
	warm, window := e.cfg.warmup(), e.cfg.window()
	perClient := make([][]sample, clients)
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			op := newOp(c, e.rng(streamClient+uint64(c)))
			// Clients on a schedule are staggered across one period.
			due := period * time.Duration(c) / time.Duration(clients)
			for {
				now := time.Since(begin)
				if period > 0 {
					if wait := due - now; wait > 0 {
						time.Sleep(wait)
					}
					now = due
					due += period
				}
				if now-warm >= window {
					return
				}
				late := time.Since(begin) - now // 0 in a closed loop
				lat, ok := op()
				perClient[c] = append(perClient[c], sample{at: now - warm, lat: late + lat, late: late, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// timing summarises the measured window. The window is cut into
// `segments` equal segments; each value is the median of the
// per-segment values, which a burst of interference from the host has
// to cover half the window to move. Each spread is the distance
// between the quartiles of the per-segment values over their median.
type timing struct {
	p50ms, p99ms, perSec             float64
	p50Spread, p99Spread, rateSpread float64
	samples                          int // operations started (open loop: due) inside the window
	failed                           int // of all operations, warm-up included
}

func summarize(all []sample, window time.Duration) timing {
	var t timing
	seg := window / segments
	lats := make([][]time.Duration, segments)
	done := make([][]time.Duration, segments) // completion times of the verified operations
	for _, s := range all {
		if !s.ok {
			t.failed++
		}
		if s.at < 0 || s.at >= window {
			continue
		}
		t.samples++
		i := int(s.at / seg)
		if i >= segments {
			i = segments - 1
		}
		lats[i] = append(lats[i], s.lat)
		if s.ok {
			done[i] = append(done[i], s.at+s.lat)
		}
	}
	var p50, p99, rate []float64
	for i := range lats {
		p50 = append(p50, ms(quantile(lats[i], 0.50)))
		p99 = append(p99, ms(quantile(lats[i], 0.99)))
		rate = append(rate, completionRate(done[i]))
	}
	t.p50ms, t.p50Spread = median(p50), spread(p50)
	t.p99ms, t.p99Spread = median(p99), spread(p99)
	t.perSec, t.rateSpread = median(rate), spread(rate)
	return t
}

// completionRate is the rate at which a segment's verified operations
// completed: the intervals between completions over the time from the
// first completion to the last.
func completionRate(done []time.Duration) float64 {
	if len(done) < 2 {
		return 0
	}
	first, last := done[0], done[0]
	for _, d := range done {
		if d < first {
			first = d
		}
		if d > last {
			last = d
		}
	}
	if last == first {
		return 0
	}
	return float64(len(done)-1) / (last - first).Seconds()
}

// quantile is the nearest-rank q-quantile of ds, which it leaves in
// place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the interquartile range of v over its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[len(s)/4], s[len(s)-1-len(s)/4]
	return (hi - lo) / m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
