package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repose"
	"repose/internal/leakcheck"
)

// fakeBackend is an instrumented Backend for unit tests: canned
// results, a controllable generation vector, and an optional gate
// that blocks every engine call until released.
type fakeBackend struct {
	mu      sync.Mutex
	gens    []uint64
	healthy []repose.WorkerHealth

	searchCalls atomic.Int64
	subCalls    atomic.Int64
	radiusCalls atomic.Int64

	entered chan struct{} // receives one token per engine call
	gate    chan struct{} // when non-nil, engine calls block until closed
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		gens:    []uint64{1, 2},
		healthy: []repose.WorkerHealth{{Addr: "local"}},
		entered: make(chan struct{}, 128),
	}
}

func (f *fakeBackend) result(q *repose.Trajectory) []repose.Result {
	// Derive a per-query result so tests can tell answers apart.
	return []repose.Result{{ID: len(q.Points), Dist: q.Points[0].X}}
}

// enter announces an engine call and waits at the gate, if any.
func (f *fakeBackend) enter(ctx context.Context) error {
	f.entered <- struct{}{}
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (f *fakeBackend) Search(ctx context.Context, q *repose.Trajectory, k int, opts ...repose.QueryOption) ([]repose.Result, error) {
	f.searchCalls.Add(1)
	if err := f.enter(ctx); err != nil {
		return nil, err
	}
	return f.result(q), nil
}

func (f *fakeBackend) SearchSub(ctx context.Context, q *repose.Trajectory, k int, opts ...repose.QueryOption) ([]repose.Result, error) {
	f.subCalls.Add(1)
	if err := f.enter(ctx); err != nil {
		return nil, err
	}
	// Segment answers carry a matched range, unlike whole-trajectory
	// ones — lets tests assert the start/end passthrough.
	res := f.result(q)
	for i := range res {
		res[i].Start, res[i].End = 1, 3
	}
	return res, nil
}

func (f *fakeBackend) SearchRadius(ctx context.Context, q *repose.Trajectory, radius float64, opts ...repose.QueryOption) ([]repose.Result, error) {
	f.radiusCalls.Add(1)
	if err := f.enter(ctx); err != nil {
		return nil, err
	}
	return f.result(q), nil
}

// calls counts every engine call the backend answered or started.
func (f *fakeBackend) calls() int64 {
	return f.searchCalls.Load() + f.subCalls.Load() + f.radiusCalls.Load()
}

func (f *fakeBackend) Generations() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.gens...)
}

func (f *fakeBackend) bumpGen() {
	f.mu.Lock()
	f.gens[0]++
	f.mu.Unlock()
}

func (f *fakeBackend) Health() []repose.WorkerHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]repose.WorkerHealth(nil), f.healthy...)
}

func (f *fakeBackend) Stats() repose.Stats {
	per := make([]int, len(f.gens))
	for i := range per {
		per[i] = 1024
	}
	return repose.Stats{
		Trajectories:        1,
		Partitions:          len(f.gens),
		IndexBytes:          1024 * len(f.gens),
		PartitionIndexBytes: per,
		Generations:         f.Generations(),
	}
}

// bareConfig disables caching so tests exercise one layer at a time.
func bareConfig() Config {
	return Config{
		MaxConcurrent: 8,
		CacheEntries:  -1,
	}
}

func searchReq(ts *httptest.Server, x float64, n, k int, hdr map[string]string) (*http.Response, answerJSON, error) {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{x, float64(i)}
	}
	body, _ := json.Marshal(map[string]any{"points": pts, "k": k})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, answerJSON{}, err
	}
	defer resp.Body.Close()
	var ans answerJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			return resp, ans, err
		}
	}
	return resp, ans, nil
}

func newTestServer(t *testing.T, be Backend, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(be, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// TestAdmissionRejection pins the queue-depth rejection contract:
// with one worker slot and a one-deep queue, a third concurrent
// request is rejected immediately with 429 + Retry-After, and the
// queued request completes once the slot frees.
func TestAdmissionRejection(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	cfg := bareConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 1
	s, ts := newTestServer(t, be, cfg)

	type outcome struct {
		status int
		err    error
	}
	results := make(chan outcome, 2)
	issue := func(x float64) {
		resp, _, err := searchReq(ts, x, 3, 2, nil)
		if err != nil {
			results <- outcome{0, err}
			return
		}
		results <- outcome{resp.StatusCode, nil}
	}

	go issue(1) // takes the slot and blocks in the backend
	<-be.entered
	go issue(2) // distinct query: occupies the queue position
	// Wait until the second request is actually queued.
	for i := 0; ; i++ {
		if s.m.queueDepth.Load() == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _, err := searchReq(ts, 3, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := s.m.rejectedQueue.Value(); got != 1 {
		t.Errorf("rejectedQueue = %d, want 1", got)
	}

	close(be.gate)
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.status != http.StatusOK {
			t.Errorf("admitted request: status %d, want 200", o.status)
		}
	}
}

// TestRateLimit pins the token-bucket contract under a manual clock:
// burst requests pass, the next is rejected with Retry-After, a
// second's worth of refill admits exactly one more, and clients are
// isolated from each other.
func TestRateLimit(t *testing.T) {
	be := newFakeBackend()
	cfg := bareConfig()
	cfg.RatePerClient = 1
	cfg.Burst = 2
	var clock atomic.Int64 // seconds
	cfg.now = func() time.Time {
		return time.Unix(1_000_000+clock.Load(), 0)
	}
	s, ts := newTestServer(t, be, cfg)

	alice := map[string]string{"X-Client-ID": "alice"}
	for i := 0; i < 2; i++ {
		resp, _, err := searchReq(ts, 1, 3, 2, alice)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _, err := searchReq(ts, 1, 3, 2, alice)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.m.rejectedRate.Value(); got != 1 {
		t.Errorf("rejectedRate = %d, want 1", got)
	}

	// A different client has its own bucket.
	resp, _, err = searchReq(ts, 1, 3, 2, map[string]string{"X-Client-ID": "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other client: status %d, want 200", resp.StatusCode)
	}

	// One second refills one token for alice — exactly one request.
	clock.Add(1)
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		resp, _, err := searchReq(ts, 1, 3, 2, alice)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("post-refill request %d: status %d, want %d", i, resp.StatusCode, want)
		}
	}
}

// TestCacheHitAndInvalidation pins the generation-keyed cache: an
// identical repeat is served from cache without touching the engine,
// and a generation bump makes the entry unreachable (counted as an
// invalidation) so the next request recomputes.
func TestCacheHitAndInvalidation(t *testing.T) {
	be := newFakeBackend()
	cfg := bareConfig()
	cfg.CacheEntries = 64
	s, ts := newTestServer(t, be, cfg)

	_, ans, err := searchReq(ts, 1, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Cached {
		t.Error("first request reported cached")
	}
	if want := []uint64{1, 2}; !equalU64(ans.Generations, want) {
		t.Errorf("generations = %v, want %v", ans.Generations, want)
	}

	_, ans2, err := searchReq(ts, 1, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ans2.Cached {
		t.Error("identical repeat not served from cache")
	}
	if got := be.searchCalls.Load(); got != 1 {
		t.Errorf("engine calls after cached repeat = %d, want 1", got)
	}
	if len(ans2.Results) != len(ans.Results) || ans2.Results[0] != ans.Results[0] {
		t.Errorf("cached answer %v differs from original %v", ans2.Results, ans.Results)
	}

	be.bumpGen() // a mutation: the old vector can never be read again
	_, ans3, err := searchReq(ts, 1, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans3.Cached {
		t.Error("request after generation bump served stale cache entry")
	}
	if want := []uint64{2, 2}; !equalU64(ans3.Generations, want) {
		t.Errorf("post-bump generations = %v, want %v", ans3.Generations, want)
	}
	if got := s.m.cacheInvalidations.Value(); got != 1 {
		t.Errorf("cacheInvalidations = %d, want 1", got)
	}
	if got := be.searchCalls.Load(); got != 2 {
		t.Errorf("engine calls after invalidation = %d, want 2", got)
	}
}

// postJSON posts an arbitrary request body to path and decodes the
// answer; refined-query tests build bodies searchReq can't express.
func postJSON(ts *httptest.Server, path string, body map[string]any) (*http.Response, answerJSON, error) {
	raw, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, answerJSON{}, err
	}
	defer resp.Body.Close()
	var ans answerJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			return resp, ans, err
		}
	}
	return resp, ans, nil
}

// TestRefinedRoutingAndCacheKey pins the gateway's handling of the
// refined query modes: a sub request routes to Backend.SearchSub and
// its matched [start, end) range survives into the JSON answer; the
// cache keys on every refined dimension (same points under a
// different mode or window must miss, an identical refined repeat
// must hit); and a windowed radius request still reaches
// SearchRadius.
func TestRefinedRoutingAndCacheKey(t *testing.T) {
	be := newFakeBackend()
	cfg := bareConfig()
	cfg.CacheEntries = 64
	_, ts := newTestServer(t, be, cfg)

	pts := [][2]float64{{1, 0}, {1, 1}, {1, 2}}

	// Plain top-k first: occupies a cache entry for these points.
	if _, ans, err := postJSON(ts, "/search", map[string]any{"points": pts, "k": 2}); err != nil {
		t.Fatal(err)
	} else if ans.Cached {
		t.Error("first plain request reported cached")
	}

	// Same points as a subtrajectory query: must miss the plain
	// entry, route to SearchSub, and carry the matched range through.
	_, sub, err := postJSON(ts, "/search", map[string]any{"points": pts, "k": 2, "sub": true, "min_seg": 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cached {
		t.Error("sub request hit the plain query's cache entry")
	}
	if got := be.subCalls.Load(); got != 1 {
		t.Errorf("SearchSub calls = %d, want 1", got)
	}
	if len(sub.Results) == 0 || sub.Results[0].Start != 1 || sub.Results[0].End != 3 {
		t.Errorf("sub results %v missing matched range [1, 3)", sub.Results)
	}

	// Identical refined repeat: served from cache, no new engine call.
	if _, again, err := postJSON(ts, "/search", map[string]any{"points": pts, "k": 2, "sub": true, "min_seg": 2}); err != nil {
		t.Fatal(err)
	} else if !again.Cached {
		t.Error("identical sub repeat not served from cache")
	}
	if got := be.subCalls.Load(); got != 1 {
		t.Errorf("SearchSub calls after cached repeat = %d, want 1", got)
	}

	// Varying any refined dimension is a different query: a changed
	// segment bound, a time window, and a shifted window each miss.
	for _, body := range []map[string]any{
		{"points": pts, "k": 2, "sub": true, "min_seg": 3},
		{"points": pts, "k": 2, "sub": true, "min_seg": 2, "window": map[string]int64{"from": 100, "to": 200}},
		{"points": pts, "k": 2, "sub": true, "min_seg": 2, "window": map[string]int64{"from": 100, "to": 300}},
		{"points": pts, "k": 2, "window": map[string]int64{"from": 100, "to": 200}},
	} {
		if _, ans, err := postJSON(ts, "/search", body); err != nil {
			t.Fatal(err)
		} else if ans.Cached {
			t.Errorf("request %v hit another mode's cache entry", body)
		}
	}
	// The windowed-but-not-sub variant is whole-trajectory: Search,
	// not SearchSub, with the window carried in options.
	if sub, whole := be.subCalls.Load(), be.searchCalls.Load(); sub != 4 || whole != 2 {
		t.Errorf("calls = (sub %d, whole %d), want (4, 2)", sub, whole)
	}

	// Windowed radius passes through to SearchRadius.
	if _, ans, err := postJSON(ts, "/radius", map[string]any{
		"points": pts, "radius": 0.5, "window": map[string]int64{"from": 100, "to": 200},
	}); err != nil {
		t.Fatal(err)
	} else if ans.Cached {
		t.Error("first windowed radius request reported cached")
	}
	if got := be.radiusCalls.Load(); got != 1 {
		t.Errorf("SearchRadius calls = %d, want 1", got)
	}
}

// TestCoalescing pins singleflight: concurrent identical queries
// share one engine execution, followers report coalesced and receive
// the leader's exact answer.
func TestCoalescing(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	s, ts := newTestServer(t, be, bareConfig())

	const followers = 4
	var wg sync.WaitGroup
	answers := make(chan answerJSON, followers+1)
	issue := func() {
		defer wg.Done()
		resp, ans, err := searchReq(ts, 7, 4, 3, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("request failed: status=%v err=%v", resp, err)
			return
		}
		answers <- ans
	}

	wg.Add(1)
	go issue()
	<-be.entered // leader is inside the engine

	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go issue()
	}
	// Wait until every follower joined the flight.
	for i := 0; ; i++ {
		if s.m.coalesced.Value() == followers {
			break
		}
		if i > 5000 {
			t.Fatalf("followers joined = %d, want %d", s.m.coalesced.Value(), followers)
		}
		time.Sleep(time.Millisecond)
	}

	close(be.gate)
	wg.Wait()
	close(answers)

	if got := be.searchCalls.Load(); got != 1 {
		t.Errorf("engine executions = %d, want 1 (shared)", got)
	}
	coalesced := 0
	var first *answerJSON
	for ans := range answers {
		ans := ans
		if first == nil {
			first = &ans
		} else if len(ans.Results) != len(first.Results) || ans.Results[0] != first.Results[0] {
			t.Errorf("answers diverged: %v vs %v", ans.Results, first.Results)
		}
		if ans.Coalesced {
			coalesced++
		}
	}
	if coalesced != followers {
		t.Errorf("coalesced answers = %d, want %d", coalesced, followers)
	}
}

// TestEngineCallsSavedByCacheAndCoalescing: on one request mix —
// concurrent duplicates, then sequential repeats — the cache and
// request coalescing together make strictly fewer engine calls than
// coalescing alone (CacheEntries < 0), and every request gets the same
// answer either way.
func TestEngineCallsSavedByCacheAndCoalescing(t *testing.T) {
	run := func(cacheEntries int) (int64, [][]resultJSON) {
		be := newFakeBackend()
		be.gate = make(chan struct{})
		cfg := bareConfig()
		cfg.CacheEntries = cacheEntries
		s, ts := newTestServer(t, be, cfg)

		// Concurrent duplicates: two groups of four identical queries
		// held at the engine until every follower joined its leader.
		dups := []float64{20, 20, 20, 20, 21, 21, 21, 21}
		answers := make([][]resultJSON, len(dups))
		var wg sync.WaitGroup
		for i, x := range dups {
			wg.Add(1)
			go func(i int, x float64) {
				defer wg.Done()
				resp, ans, err := searchReq(ts, x, 3, 2, nil)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("duplicate %d: status=%v err=%v", i, resp, err)
					return
				}
				answers[i] = ans.Results
			}(i, x)
		}
		<-be.entered
		<-be.entered
		for i := 0; s.m.coalesced.Value() != int64(len(dups)-2); i++ {
			if i > 5000 {
				t.Fatalf("followers joined = %d, want %d", s.m.coalesced.Value(), len(dups)-2)
			}
			time.Sleep(time.Millisecond)
		}
		close(be.gate)
		wg.Wait()

		// Sequential repeats, including the duplicates' queries.
		for _, x := range []float64{1, 2, 1, 3, 2, 1, 20, 21} {
			resp, ans, err := searchReq(ts, x, 3, 2, nil)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("repeat of %v: status=%v err=%v", x, resp, err)
			}
			answers = append(answers, ans.Results)
		}
		return be.calls(), answers
	}
	cached, cachedAnswers := run(64)
	uncached, uncachedAnswers := run(-1)
	if cached >= uncached {
		t.Errorf("engine calls with the cache %d, without %d: want strictly fewer", cached, uncached)
	}
	for i := range cachedAnswers {
		if !slices.Equal(cachedAnswers[i], uncachedAnswers[i]) {
			t.Errorf("request %d: cached run answered %v, uncached %v", i, cachedAnswers[i], uncachedAnswers[i])
		}
	}
}

// TestQueryTimeout: every route bounds its engine call by
// Config.QueryTimeout. Plain top-k, subtrajectory, windowed and radius
// requests to an engine that never answers each get a 500 once the
// timeout passes, and Shutdown leaves no goroutine behind.
func TestQueryTimeout(t *testing.T) {
	base := leakcheck.Base()
	be := newFakeBackend()
	be.gate = make(chan struct{}) // never opens
	cfg := bareConfig()
	cfg.QueryTimeout = 50 * time.Millisecond
	s := New(be, cfg)
	ts := httptest.NewServer(s.Handler())

	pts := [][2]float64{{1, 0}, {1, 1}, {1, 2}}
	window := map[string]int64{"from": 0, "to": 9}
	for _, tc := range []struct {
		name, path string
		body       map[string]any
	}{
		{"top-k", "/search", map[string]any{"points": pts, "k": 2}},
		{"sub", "/search", map[string]any{"points": pts, "k": 2, "sub": true}},
		{"windowed", "/search", map[string]any{"points": pts, "k": 2, "window": window}},
		{"radius", "/radius", map[string]any{"points": pts, "radius": 1}},
	} {
		start := time.Now()
		resp, _, err := postJSON(ts, tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", tc.name, resp.StatusCode)
		}
		if elapsed < cfg.QueryTimeout || elapsed > 5*time.Second {
			t.Errorf("%s: answered after %v, want shortly after the %v timeout", tc.name, elapsed, cfg.QueryTimeout)
		}
	}
	if got := be.calls(); got != 4 {
		t.Errorf("engine calls = %d, want 4", got)
	}
	if got := s.m.errors.Value(); got != 4 {
		t.Errorf("errors = %d, want 4", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	ts.Close()
	leakcheck.Settle(t, base)
}

// TestDrain pins graceful shutdown: Shutdown waits for in-flight
// requests, rejects new ones with 503, and leaves no goroutines
// behind.
func TestDrain(t *testing.T) {
	base := leakcheck.Base()
	be := newFakeBackend()
	be.gate = make(chan struct{})
	s := New(be, bareConfig())
	ts := httptest.NewServer(s.Handler())

	inflight := make(chan int, 1)
	go func() {
		resp, _, err := searchReq(ts, 1, 3, 2, nil)
		if err != nil {
			inflight <- 0
			return
		}
		inflight <- resp.StatusCode
	}()
	<-be.entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Shutdown must be draining before we probe rejection.
	for i := 0; ; i++ {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			break
		}
		if i > 5000 {
			t.Fatal("Shutdown never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _, err := searchReq(ts, 2, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
	}

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(be.gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-inflight; got != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
	http.DefaultClient.CloseIdleConnections()
	ts.Close()
	leakcheck.Settle(t, base)
}

// TestHealthz pins the health endpoint: 200 while every worker
// serves, 503 once any is down or the server is draining.
func TestHealthz(t *testing.T) {
	be := newFakeBackend()
	s, ts := newTestServer(t, be, bareConfig())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy: status %d, want 200", resp.StatusCode)
	}

	be.mu.Lock()
	be.healthy[0].Down = true
	be.mu.Unlock()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || doc.Status != "degraded" {
		t.Fatalf("down worker: status %d %q, want 503 degraded", resp.StatusCode, doc.Status)
	}

	be.mu.Lock()
	be.healthy[0].Down = false
	be.mu.Unlock()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || doc.Status != "draining" {
		t.Fatalf("draining: status %d %q, want 503 draining", resp.StatusCode, doc.Status)
	}
	s.mu.Lock()
	s.draining = false
	s.mu.Unlock()
}

// TestRequestValidation pins the 400/405 surface.
func TestRequestValidation(t *testing.T) {
	be := newFakeBackend()
	cfg := bareConfig()
	cfg.MaxK = 100
	_, ts := newTestServer(t, be, cfg)

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(`{"points":`); got != http.StatusBadRequest {
		t.Errorf("truncated JSON: %d, want 400", got)
	}
	if got := post(`{"points":[],"k":3}`); got != http.StatusBadRequest {
		t.Errorf("empty points: %d, want 400", got)
	}
	if got := post(`{"points":[[1,2]],"k":101}`); got != http.StatusBadRequest {
		t.Errorf("k over MaxK: %d, want 400", got)
	}
	if got := post(`{"points":[[1,2]],"k":-1}`); got != http.StatusBadRequest {
		t.Errorf("negative k: %d, want 400", got)
	}

	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search: %d, want 405", resp.StatusCode)
	}

	// Radius negative.
	resp, err = http.Post(ts.URL+"/radius", "application/json",
		bytes.NewReader([]byte(`{"points":[[1,2]],"radius":-1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative radius: %d, want 400", resp.StatusCode)
	}
}

// TestRequestBodyCap: /search and /radius read at most maxBodyBytes of
// request body. A body over the cap is refused with 413 without being
// buffered, one just under it still answers.
func TestRequestBodyCap(t *testing.T) {
	_, ts := newTestServer(t, newFakeBackend(), bareConfig())
	// Valid JSON of exactly n bytes. The padding leads: the decoder
	// stops reading at the end of the first value.
	body := func(n int) []byte {
		doc := `{"points":[[1,2],[3,4]],"k":1,"radius":1}`
		return append(bytes.Repeat([]byte(" "), n-len(doc)), doc...)
	}
	for _, path := range []string{"/search", "/radius"} {
		for _, tc := range []struct {
			size, want int
		}{
			{maxBodyBytes - 1, http.StatusOK},
			{maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
			{2 * maxBodyBytes, http.StatusRequestEntityTooLarge},
		} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body(tc.size)))
			if err != nil {
				t.Fatal(err)
			}
			var e errorJSON
			if tc.want != http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Errorf("%s with %d bytes: error body: %v", path, tc.size, err)
				}
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want || (tc.want != http.StatusOK && e.Error == "") {
				t.Errorf("%s with %d bytes: %d %q, want %d", path, tc.size, resp.StatusCode, e.Error, tc.want)
			}
		}
	}
}

// TestQueryPointCap: /search and /radius answer a query of exactly
// maxQueryPoints points and refuse one point more with 400.
func TestQueryPointCap(t *testing.T) {
	_, ts := newTestServer(t, newFakeBackend(), bareConfig())
	for _, path := range []string{"/search", "/radius"} {
		for _, tc := range []struct {
			points, want int
		}{
			{maxQueryPoints, http.StatusOK},
			{maxQueryPoints + 1, http.StatusBadRequest},
		} {
			body, err := json.Marshal(map[string]any{"points": make([][2]float64, tc.points), "k": 1, "radius": 1})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e errorJSON
			if tc.want != http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Errorf("%s with %d points: error body: %v", path, tc.points, err)
				}
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want || (tc.want != http.StatusOK && e.Error == "") {
				t.Errorf("%s with %d points: %d %q, want %d", path, tc.points, resp.StatusCode, e.Error, tc.want)
			}
		}
	}
}

// TestMetricsEndpoint sanity-checks the /metrics document shape.
func TestMetricsEndpoint(t *testing.T) {
	be := newFakeBackend()
	cfg := bareConfig()
	cfg.CacheEntries = 8
	_, ts := newTestServer(t, be, cfg)

	if _, _, err := searchReq(ts, 1, 3, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := searchReq(ts, 1, 3, 2, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["requests_search"].(float64) != 2 {
		t.Errorf("requests_search = %v, want 2", doc["requests_search"])
	}
	cache := doc["cache"].(map[string]any)
	if cache["hits"].(float64) != 1 || cache["misses"].(float64) != 1 {
		t.Errorf("cache hits/misses = %v/%v, want 1/1", cache["hits"], cache["misses"])
	}
	lat := doc["latency_us"].(map[string]any)["search"].(map[string]any)
	if lat["count"].(float64) != 2 {
		t.Errorf("latency count = %v, want 2", lat["count"])
	}
	index, ok := doc["index"].(map[string]any)
	if !ok {
		t.Fatal("metrics missing index section")
	}
	for _, key := range []string{"layout", "index_bytes", "partition_index_bytes"} {
		if _, ok := index[key]; !ok {
			t.Errorf("metrics index section missing %q", key)
		}
	}
}

// TestHistogramQuantiles pins the estimator on a known distribution.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 0; i < 100; i++ {
		h.observe(200 * time.Microsecond) // bucket (100, 250]
	}
	p50 := h.quantile(0.50)
	if p50 < 100 || p50 > 250 {
		t.Errorf("p50 = %v, want within (100, 250]", p50)
	}
	if h.snapshot().Count != 100 {
		t.Errorf("count = %d, want 100", h.snapshot().Count)
	}
	var empty histogram
	if got := empty.quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
