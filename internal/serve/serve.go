package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repose"
)

// Backend is the slice of *repose.Index the gateway needs; narrowed
// to an interface so tests can substitute instrumented fakes.
type Backend interface {
	Search(ctx context.Context, q *repose.Trajectory, k int, opts ...repose.QueryOption) ([]repose.Result, error)
	SearchSub(ctx context.Context, q *repose.Trajectory, k int, opts ...repose.QueryOption) ([]repose.Result, error)
	SearchRadius(ctx context.Context, q *repose.Trajectory, radius float64, opts ...repose.QueryOption) ([]repose.Result, error)
	Generations() []uint64
	Health() []repose.WorkerHealth
	Stats() repose.Stats
}

// Config tunes the gateway. The zero value is usable: every field
// has a serving-appropriate default applied by New.
type Config struct {
	// MaxConcurrent bounds queries executing in the engine at once
	// (admission tokens). Default 2×NumCPU.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an admission token; one
	// more is rejected with 429 + Retry-After. Default 4×MaxConcurrent.
	MaxQueue int

	// RatePerClient is the sustained per-client request rate
	// (tokens/second); 0 disables rate limiting. Default 0.
	RatePerClient float64
	// Burst is the token-bucket depth when rate limiting is on.
	// Default 2×ceil(RatePerClient), minimum 1.
	Burst int

	// CacheEntries caps the answer cache across all shards; 0 means
	// the default 4096, negative disables caching. CacheShards is
	// rounded up to a power of two; default 16.
	CacheEntries int
	CacheShards  int

	// MaxK rejects unreasonable k values (400); default 1000.
	// DefaultK applies when a search request omits k; default 10.
	MaxK     int
	DefaultK int

	// QueryTimeout bounds each engine call, independent of the client
	// connection (coalesced followers share the leader's call).
	// Default 30s.
	QueryTimeout time.Duration

	// now is the rate limiter's clock; tests inject a manual one.
	now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.NumCPU()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.Burst <= 0 {
		c.Burst = int(2 * c.RatePerClient)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Server is the HTTP gateway. Create with New, mount via Handler,
// stop with Shutdown.
type Server struct {
	be  Backend
	cfg Config
	m   metrics

	adm     *admission
	limiter *rateLimiter
	cache   *answerCache
	flights *flightGroup

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	mux *http.ServeMux
}

// New builds a Server over be. Call Shutdown to drain it.
func New(be Backend, cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{be: be, cfg: cfg}
	s.adm = newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, &s.m)
	s.limiter = newRateLimiter(cfg.RatePerClient, cfg.Burst, cfg.now)
	s.cache = newCache(cfg.CacheEntries, cfg.CacheShards, &s.m)
	s.flights = newFlightGroup()
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", method(http.MethodPost, s.handleSearch))
	s.mux.HandleFunc("/radius", method(http.MethodPost, s.handleRadius))
	s.mux.HandleFunc("/healthz", method(http.MethodGet, s.handleHealthz))
	s.mux.HandleFunc("/metrics", method(http.MethodGet, s.handleMetrics))
	return s
}

// method gates a handler on one HTTP method. (The go.mod go
// directive predates 1.22's ServeMux method patterns.)
func method(m string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != m {
			w.Header().Set("Allow", m)
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		h(w, r)
	}
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new query requests get 503, in-flight
// requests run to completion, bounded by ctx. Afterwards the base
// context is cancelled so nothing can start engine work through this
// server again.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cancelBase()
	return err
}

// enter registers a query request with the drain protocol. ok=false
// means the server is draining and the request must be rejected; on
// ok the caller must call the returned leave func.
func (s *Server) enter() (leave func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	return s.inflight.Done, true
}

// Request/response wire shapes.

// timeWindowJSON restricts a query to trajectories with a sample
// timestamped inside the closed window [From, To]; only the in-window
// run is scored. See repose.WithTimeWindow.
type timeWindowJSON struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

type searchRequest struct {
	Points [][2]float64 `json:"points"`
	K      int          `json:"k"`
	// Sub switches to subtrajectory search: each candidate is scored
	// by its best-matching contiguous segment, and results carry the
	// matched [start, end) sample range. MinSeg/MaxSeg bound the
	// segment length (0 = unbounded).
	Sub    bool `json:"sub"`
	MinSeg int  `json:"min_seg"`
	MaxSeg int  `json:"max_seg"`
	// Window, when present, time-restricts the query.
	Window *timeWindowJSON `json:"window"`
}

type radiusRequest struct {
	Points [][2]float64    `json:"points"`
	Radius float64         `json:"radius"`
	Window *timeWindowJSON `json:"window"`
}

type resultJSON struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
	// Start/End name the matched half-open sample range of a
	// subtrajectory hit; omitted for whole-trajectory answers.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
}

type answerJSON struct {
	Results     []resultJSON `json:"results"`
	Generations []uint64     `json:"generations"`
	Cached      bool         `json:"cached"`
	Coalesced   bool         `json:"coalesced"`
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a request body: 1 MiB of JSON is about 40k points,
// far beyond any trajectory the index holds, and without a cap one
// client can make the decoder buffer whatever it cares to send.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes. On failure it answers 413 (body over the cap) or 400
// and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
	} else {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// clientKey identifies a client for rate limiting: the X-Client-ID
// header when present, else the remote address's host part.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// maxQueryPoints caps a query's length. Every refinement is
// O(|q|·|t|) and a maxBodyBytes body holds ~40k points; 4,096 is ~180×
// the mean length of an indexed trajectory.
const maxQueryPoints = 4096

// decodePoints converts a request's query points, answering 400 and
// returning false for an empty query or one over maxQueryPoints.
func decodePoints(w http.ResponseWriter, raw [][2]float64) ([]repose.Point, bool) {
	if len(raw) == 0 {
		writeError(w, http.StatusBadRequest, "empty query: need at least one point")
		return nil, false
	}
	if len(raw) > maxQueryPoints {
		writeError(w, http.StatusBadRequest, "query has %d points, limit %d", len(raw), maxQueryPoints)
		return nil, false
	}
	pts := make([]repose.Point, len(raw))
	for i, p := range raw {
		pts[i] = repose.Point{X: p[0], Y: p[1]}
	}
	return pts, true
}

// gate runs the request-independent front half shared by /search and
// /radius: rate limit, then the drain check. It writes the rejection
// itself and returns ok=false if the request is not to proceed.
func (s *Server) gate(w http.ResponseWriter, r *http.Request) (leave func(), ok bool) {
	if allowed, wait := s.limiter.allow(clientKey(r)); !allowed {
		s.m.rejectedRate.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(wait/time.Second)+1))
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return nil, false
	}
	leave, ok = s.enter()
	if !ok {
		s.m.rejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return nil, false
	}
	return leave, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	leave, ok := s.gate(w, r)
	if !ok {
		return
	}
	defer leave()
	start := time.Now()
	s.m.searchRequests.Add(1)

	var req searchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.K == 0 {
		req.K = s.cfg.DefaultK
	}
	if req.K < 0 || req.K > s.cfg.MaxK {
		writeError(w, http.StatusBadRequest, "k out of range [1,%d]", s.cfg.MaxK)
		return
	}
	pts, ok := decodePoints(w, req.Points)
	if !ok {
		return
	}

	q := query{kind: kindTopK, k: req.K, pts: pts, sub: req.Sub, minSeg: req.MinSeg, maxSeg: req.MaxSeg}
	if req.Window != nil {
		q.window, q.from, q.to = true, req.Window.From, req.Window.To
	}
	q.sig = q.signature()
	s.answer(w, r, q, start, &s.m.searchLatency, func(ctx context.Context) ([]repose.Result, error) {
		tr := &repose.Trajectory{Points: pts}
		var opts []repose.QueryOption
		if q.window {
			opts = append(opts, repose.WithTimeWindow(q.from, q.to))
		}
		if q.sub {
			opts = append(opts, repose.WithSegmentLength(q.minSeg, q.maxSeg))
			return s.be.SearchSub(ctx, tr, req.K, opts...)
		}
		return s.be.Search(ctx, tr, req.K, opts...)
	})
}

func (s *Server) handleRadius(w http.ResponseWriter, r *http.Request) {
	leave, ok := s.gate(w, r)
	if !ok {
		return
	}
	defer leave()
	start := time.Now()
	s.m.radiusRequests.Add(1)

	var req radiusRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Radius < 0 {
		writeError(w, http.StatusBadRequest, "radius must be >= 0")
		return
	}
	pts, ok := decodePoints(w, req.Points)
	if !ok {
		return
	}

	q := query{kind: kindRadius, radius: req.Radius, pts: pts}
	if req.Window != nil {
		q.window, q.from, q.to = true, req.Window.From, req.Window.To
	}
	q.sig = q.signature()
	s.answer(w, r, q, start, &s.m.radiusLatency, func(ctx context.Context) ([]repose.Result, error) {
		var opts []repose.QueryOption
		if q.window {
			opts = append(opts, repose.WithTimeWindow(q.from, q.to))
		}
		return s.be.SearchRadius(ctx, &repose.Trajectory{Points: pts}, req.Radius, opts...)
	})
}

// answer drives a parsed query through cache → coalescing →
// admission → execution and writes the response. exec runs the
// engine call; it receives a context detached from the client
// connection (coalesced followers share it) and bounded by
// QueryTimeout.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, q query, start time.Time, lat *histogram, exec func(context.Context) ([]repose.Result, error)) {
	// Read the generation vector BEFORE the cache lookup: the hit
	// condition is exact equality with the entry's vector, which is
	// what makes stale answers unreachable (see doc.go).
	gens := s.be.Generations()
	if items, ok := s.cache.get(q, gens); ok {
		lat.observe(time.Since(start))
		s.respond(w, items, gens, true, false)
		return
	}

	genHash := hashGens(gens)
	c, leader, shared := s.flights.join(q, gens, genHash)
	if shared && !leader {
		// Follower: the identical query is already executing under
		// the same generation vector — wait for the leader's answer.
		s.m.coalesced.Add(1)
		select {
		case <-c.done:
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, "client cancelled")
			return
		}
		if c.err != nil {
			s.m.errors.Add(1)
			writeError(w, http.StatusInternalServerError, "%v", c.err)
			return
		}
		lat.observe(time.Since(start))
		s.respond(w, c.items, gens, false, true)
		return
	}

	// Leader (or unshared on flight-key collision): pay admission.
	if !s.adm.acquire(r.Context()) {
		if leader {
			s.flights.complete(c, genHash, nil, errors.New("rejected: server overloaded"))
		}
		s.m.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.adm.retryAfter()/time.Second)+1))
		writeError(w, http.StatusTooManyRequests, "queue full")
		return
	}

	// Execute on the server's base context so a leader's client
	// disconnecting cannot kill work its followers share.
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.QueryTimeout)
	items, err := exec(ctx)
	cancel()
	s.adm.release()

	if leader {
		s.flights.complete(c, genHash, items, err)
	}
	if err != nil {
		s.m.errors.Add(1)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.cache.put(q, gens, items)
	lat.observe(time.Since(start))
	s.respond(w, items, gens, false, false)
}

func (s *Server) respond(w http.ResponseWriter, items []repose.Result, gens []uint64, cached, coalesced bool) {
	res := make([]resultJSON, len(items))
	for i, it := range items {
		res[i] = resultJSON{ID: it.ID, Distance: it.Dist, Start: it.Start, End: it.End}
	}
	writeJSON(w, http.StatusOK, answerJSON{
		Results:     res,
		Generations: gens,
		Cached:      cached,
		Coalesced:   coalesced,
	})
}

// handleHealthz reports 200 when every worker is serving and the
// server is accepting queries, 503 otherwise — the shape load
// balancers expect.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	health := s.be.Health()
	degraded := draining
	workers := make([]map[string]any, len(health))
	for i, h := range health {
		if h.Down {
			degraded = true
		}
		workers[i] = map[string]any{
			"addr":        h.Addr,
			"down":        h.Down,
			"stale_parts": h.StaleParts,
		}
	}
	status := http.StatusOK
	state := "ok"
	if degraded {
		status = http.StatusServiceUnavailable
		state = "degraded"
		if draining {
			state = "draining"
		}
	}
	writeJSON(w, status, map[string]any{"status": state, "workers": workers})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.be.Stats()
	index := map[string]any{
		"trajectories":          st.Trajectories,
		"partitions":            st.Partitions,
		"generations":           st.Generations,
		"layout":                st.Layout.String(),
		"index_bytes":           st.IndexBytes,
		"partition_index_bytes": st.PartitionIndexBytes,
	}
	if len(st.PartitionLoads) > 0 {
		loads := make([]map[string]any, len(st.PartitionLoads))
		for i, pl := range st.PartitionLoads {
			loads[i] = map[string]any{
				"partition":     pl.Partition,
				"queries":       pl.Queries,
				"refine_ops":    pl.RefineOps,
				"total_time_us": pl.TotalTime.Microseconds(),
				"p99_us":        pl.P99.Microseconds(),
				"score":         probeScoreJSON(pl.Score),
			}
		}
		index["partition_loads"] = loads
	}
	s.m.serveMetrics(w, s.cache.len(), index)
}

// probeScoreJSON maps a never-probed partition's +Inf score to nil —
// JSON has no infinity, and encoding/json errors on one.
func probeScoreJSON(score float64) any {
	if math.IsInf(score, 0) || math.IsNaN(score) {
		return nil
	}
	return score
}
