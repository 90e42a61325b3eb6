package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repose"
	"repose/internal/cluster"
	"repose/internal/geo"
	"repose/internal/serve"
	"repose/internal/topk"
)

// runEndToEnd drives one workload through its front door with
// tracing off and returns the contract's end-to-end metrics.
func runEndToEnd(e *env, w workload) (*report, error) {
	r, err := w.run(e, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.extra("harness.prep_s", e.prep.Seconds(), "s")
	return r, nil
}

func (r *report) setSetup(st setupStats, idx *repose.Index) {
	r.set("setup_s", st.seconds, "s")
	r.set("mem_after_setup_mb", st.memMB, "MB")
	r.set("index_mb", float64(idx.Stats().IndexBytes)/1e6, "MB")
}

// runLib is lib_hausdorff and lib_dtw: closed-loop clients calling
// repose.Index.Search on the local engine, nothing cached.
func runLib(e *env, w workload) (*report, error) {
	ctx := context.Background()
	r := newReport(w, false)
	pool := e.pool(w)
	want := e.oracleAnswers(w.measure, e.ds, pool)

	idx, st, err := measureSetup(func() (*repose.Index, error) {
		x, err := repose.Build(e.ds, e.options(w.measure))
		if err != nil {
			return nil, err
		}
		if got, err := x.Search(ctx, pool[0], topK); err != nil || !sameItems(got, want[0]) {
			x.Close()
			return nil, fmt.Errorf("first query wrong (err %v)", err)
		}
		return x, nil
	}, func(x *repose.Index) { x.Close() })
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	r.setSetup(st, idx)

	samples := runClients(e, e.clients, 0, func(c int, rng *rand.Rand) func() (time.Duration, bool) {
		next := w.draw(rng, len(pool))
		return func() (time.Duration, bool) {
			i := next()
			start := time.Now()
			got, err := idx.Search(ctx, pool[i], topK)
			lat := time.Since(start)
			return lat, err == nil && sameItems(got, want[i])
		}
	})
	t := summarize(samples, e.cfg.window())
	r.setTiming(t)
	r.Attempted, r.Failed = len(samples), t.failed
	return r, nil
}

// workerProc is one in-process cluster worker on a loopback listener.
type workerProc struct {
	ln   net.Listener
	done chan struct{}
}

func startWorker(wrap func(net.Listener) net.Listener) (*workerProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &workerProc{ln: ln, done: make(chan struct{})}
	served := ln
	if wrap != nil {
		served = wrap(ln)
	}
	go func() {
		defer close(p.done)
		_ = cluster.Serve(served, cluster.NewWorker()) // returns when stop closes the listener
	}()
	return p, nil
}

func (p *workerProc) stop() {
	p.ln.Close()
	<-p.done
}

// remoteIndex is a repose.BuildRemote index over workerProcs workers
// reached by loopback TCP, replication 1.
type remoteIndex struct {
	workers []*workerProc
	idx     *repose.Index
}

func startRemote(e *env, m repose.Measure, wrap func(net.Listener) net.Listener) (*remoteIndex, error) {
	ri := &remoteIndex{}
	var addrs []string
	for i := 0; i < workerProcs; i++ {
		p, err := startWorker(wrap)
		if err != nil {
			ri.close()
			return nil, err
		}
		ri.workers = append(ri.workers, p)
		addrs = append(addrs, p.ln.Addr().String())
	}
	idx, err := repose.BuildRemote(e.ds, e.options(m), addrs)
	if err != nil {
		ri.close()
		return nil, err
	}
	ri.idx = idx
	return ri, nil
}

func (ri *remoteIndex) close() {
	if ri.idx != nil {
		ri.idx.Close() // drops the RPC connections, which ends the workers' per-connection goroutines
	}
	for _, p := range ri.workers {
		p.stop()
	}
}

// gateway is serve.New(...).Handler() behind a loopback HTTP server.
type gateway struct {
	srv  *serve.Server
	http *http.Server
	done chan struct{}
	url  string
}

// startGateway mounts the gateway over be. wrap, when set, wraps the
// gateway's handler (the traced pass records a span there).
func startGateway(be serve.Backend, wrap func(http.Handler) http.Handler) (*gateway, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &gateway{srv: serve.New(be, serve.Config{CacheEntries: cacheEntries}), done: make(chan struct{})}
	h := g.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	g.http = &http.Server{Handler: h}
	g.url = "http://" + ln.Addr().String()
	go func() {
		defer close(g.done)
		_ = g.http.Serve(ln) // returns when close shuts the server down
	}()
	return g, nil
}

func (g *gateway) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = g.srv.Shutdown(ctx)
	_ = g.http.Shutdown(ctx)
	<-g.done
}

// httpClient is one keep-alive client connection to the gateway.
type httpClient struct {
	c   *http.Client
	url string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{
		c:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		url: base,
	}
}

func (hc *httpClient) close() { hc.c.CloseIdleConnections() }

// answer is the gateway's /search response, as far as the harness
// reads it.
type answer struct {
	Results []struct {
		ID       int     `json:"id"`
		Distance float64 `json:"distance"`
	} `json:"results"`
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
}

func (a answer) items() []topk.Item {
	out := make([]topk.Item, len(a.Results))
	for i, r := range a.Results {
		out[i] = topk.Item{ID: r.ID, Dist: r.Distance}
	}
	return out
}

// search posts one pre-encoded /search body. The latency ends when
// the whole response body has arrived; decoding it is the harness's
// work and stays outside. span, when set, opens a trace span over
// exactly the timed interval and returns its closer.
func (hc *httpClient) search(body []byte, span func() func()) (answer, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, hc.url+"/search", bytes.NewReader(body))
	if err != nil {
		return answer{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	end := func() {}
	if span != nil {
		end = span()
	}
	start := time.Now()
	resp, err := hc.c.Do(req)
	if err != nil {
		end()
		return answer{}, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	end()
	resp.Body.Close()
	if err != nil {
		return answer{}, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		return answer{}, lat, err
	}
	return a, lat, nil
}

// metricsDoc fetches the gateway's /metrics document.
func (hc *httpClient) metricsDoc() (map[string]any, error) {
	resp, err := hc.c.Get(hc.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// num digs a number out of a decoded /metrics document.
func num(doc map[string]any, path ...string) float64 {
	var cur any = doc
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[p]
	}
	f, _ := cur.(float64)
	return f
}

// searchBodies pre-encodes the pool as /search request bodies, so the
// clients' JSON encoding is not in the measured latency.
func searchBodies(pool []*geo.Trajectory) ([][]byte, error) {
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		req := struct {
			Points [][2]float64 `json:"points"`
			K      int          `json:"k"`
		}{K: topK}
		for _, p := range q.Points {
			req.Points = append(req.Points, [2]float64{p.X, p.Y})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// gatewayStack is the whole gateway_zipf system.
type gatewayStack struct {
	remote *remoteIndex
	gw     *gateway
}

func (s *gatewayStack) close() {
	if s.gw != nil {
		s.gw.close()
	}
	s.remote.close()
}

// runGateway is gateway_zipf: keep-alive HTTP clients with Zipf
// popularity against the gateway over a remote index.
func runGateway(e *env, w workload) (*report, error) {
	r := newReport(w, false)
	pool := e.pool(w)
	want := e.oracleAnswers(w.measure, e.ds, pool)
	bodies, err := searchBodies(pool)
	if err != nil {
		return nil, err
	}

	stack, st, err := measureSetup(func() (*gatewayStack, error) {
		remote, err := startRemote(e, w.measure, nil)
		if err != nil {
			return nil, err
		}
		s := &gatewayStack{remote: remote}
		if s.gw, err = startGateway(remote.idx, nil); err != nil {
			s.close()
			return nil, err
		}
		hc := newHTTPClient(s.gw.url)
		defer hc.close()
		if a, _, err := hc.search(bodies[0], nil); err != nil || !sameItems(a.items(), want[0]) {
			s.close()
			return nil, fmt.Errorf("first query wrong (err %v)", err)
		}
		return s, nil
	}, func(s *gatewayStack) { s.close() })
	if err != nil {
		return nil, err
	}
	defer stack.close()
	r.setSetup(st, stack.remote.idx)

	samples := gatewayLoad(e, w, e.clients, stack.gw.url, bodies, want)
	t := summarize(samples, e.cfg.window())
	r.setTiming(t)
	r.Attempted, r.Failed = len(samples), t.failed

	hc := newHTTPClient(stack.gw.url)
	defer hc.close()
	if doc, err := hc.metricsDoc(); err == nil {
		r.extra("serve.cache_hit_ratio", num(doc, "cache", "hit_ratio"), "ratio")
		r.extra("serve.coalesce_ratio", num(doc, "coalesce", "ratio"), "ratio")
	}
	return r, nil
}

// gatewayLoad runs the closed-loop keep-alive clients against a
// gateway, checking every answer against the oracle's.
func gatewayLoad(e *env, w workload, clients int, url string, bodies [][]byte, want [][]topk.Item) []sample {
	conns := make([]*httpClient, clients)
	defer func() {
		for _, hc := range conns {
			hc.close()
		}
	}()
	return runClients(e, clients, 0, func(c int, rng *rand.Rand) func() (time.Duration, bool) {
		next := w.draw(rng, len(bodies))
		hc := newHTTPClient(url)
		conns[c] = hc
		return func() (time.Duration, bool) {
			i := next()
			a, lat, err := hc.search(bodies[i], nil)
			return lat, err == nil && sameItems(a.items(), want[i])
		}
	})
}

// mutation is one step of the durable writer's plan.
type mutation struct {
	insert *geo.Trajectory // nil for a delete
	del    int
}

// mutationPlan is n steps, 3 inserts of fresh ids to 1 delete of a
// base-set id nobody deleted before, all drawn from -seed.
func (e *env) mutationPlan(n int) []mutation {
	extra := e.extraSet(n - n/4)
	victims := e.rng(streamVictims).Perm(len(e.ds))
	plan := make([]mutation, 0, n)
	for i, ins, del := 0, 0, 0; i < n; i++ {
		if i%4 == 3 && del < len(victims) {
			plan = append(plan, mutation{del: victims[del]})
			del++
		} else {
			plan = append(plan, mutation{insert: extra[ins]})
			ins++
		}
	}
	return plan
}

// apply performs one mutation through the public API, reporting
// whether it was acknowledged as the plan expects.
func (m mutation) apply(ctx context.Context, idx *repose.Index) bool {
	auto := repose.WithAutoCompact(repose.DefaultCompactFraction)
	if m.insert != nil {
		return idx.Insert(ctx, []*repose.Trajectory{m.insert}, auto) == nil
	}
	n, err := idx.Delete(ctx, []int{m.del}, auto)
	return err == nil && n == 1
}
