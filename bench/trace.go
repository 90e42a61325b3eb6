package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repose"
	"repose/internal/cluster"
	"repose/internal/serve"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Seq; Parent is the id of the span that caused this one. A
// synthesised span carries a duration the system reported (a
// QueryReport's wall or per-partition time) and no true start time:
// its StartNS is its parent's.
type span struct {
	ID          int64  `json:"id"`
	Parent      int64  `json:"parent"`
	Seq         int    `json:"seq"`   // request number within the pass
	Query       int    `json:"query"` // pool index
	Name        string `json:"name"`
	StartNS     int64  `json:"start_ns"` // since the recorder's epoch
	DurNS       int64  `json:"dur_ns"`
	Synthesised bool   `json:"synthesised,omitempty"`
}

// Span names, outermost first.
const (
	spanClient    = "client.request"
	spanHandler   = "serve.handle"
	spanEngine    = "engine.search"
	spanCluster   = "cluster.search"
	spanPartition = "cluster.partition"
)

// recorder keeps the spans of a traced pass in memory. The pass has
// one client, so one request is in flight at a time: the client
// announces it with begin, and the wrappers deeper in the stack
// attach their spans to it without any context plumbing (serve runs
// engine calls on its own base context, which carries nothing of the
// request).
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID int64
	seq    int   // current request
	query  int   // its pool index
	parent int64 // innermost open span of the current request
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens request seq for pool query q.
func (rec *recorder) begin(seq, q int) {
	rec.mu.Lock()
	rec.seq, rec.query, rec.parent = seq, q, 0
	rec.mu.Unlock()
}

// open starts a real span under the innermost open one and returns
// its closer.
func (rec *recorder) open(name string) (end func()) {
	rec.mu.Lock()
	rec.nextID++
	id, parent, seq, q := rec.nextID, rec.parent, rec.seq, rec.query
	rec.parent = id
	rec.mu.Unlock()
	start := time.Now()
	return func() {
		dur := time.Since(start)
		rec.mu.Lock()
		rec.spans = append(rec.spans, span{ID: id, Parent: parent, Seq: seq, Query: q, Name: name,
			StartNS: int64(start.Sub(rec.epoch)), DurNS: int64(dur)})
		rec.parent = parent
		rec.mu.Unlock()
	}
}

// report synthesises the spans below the innermost open one from a
// QueryReport: the scatter's wall time, and under it one span per
// partition scan.
func (rec *recorder) report(qr cluster.QueryReport) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	start := int64(time.Since(rec.epoch) - qr.Wall)
	rec.nextID++
	cid := rec.nextID
	rec.spans = append(rec.spans, span{ID: cid, Parent: rec.parent, Seq: rec.seq, Query: rec.query,
		Name: spanCluster, StartNS: start, DurNS: int64(qr.Wall), Synthesised: true})
	for _, d := range qr.PartitionTimes {
		rec.nextID++
		rec.spans = append(rec.spans, span{ID: rec.nextID, Parent: cid, Seq: rec.seq, Query: rec.query,
			Name: spanPartition, StartNS: start, DurNS: int64(d), Synthesised: true})
	}
}

// write saves the spans as out/trace-<workload>.json.
func (rec *recorder) write(cfg config, w workload) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, cfg.seed, rec.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), b, 0o644)
}

// tracedHandler records serve.handle around the gateway's handler for
// /search requests.
func tracedHandler(rec *recorder) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/search" {
				next.ServeHTTP(w, r)
				return
			}
			end := rec.open(spanHandler)
			next.ServeHTTP(w, r)
			end()
		})
	}
}

// tracedBackend records engine.search around the gateway's calls into
// *repose.Index and asks the index for its QueryReport. Only Search
// is wrapped: one client never fills a micro-batch, so SearchBatch is
// not reached in a traced pass.
type tracedBackend struct {
	serve.Backend
	rec *recorder
}

var _ serve.Backend = tracedBackend{}

func (b tracedBackend) Search(ctx context.Context, q *repose.Trajectory, k int, opts ...repose.QueryOption) ([]repose.Result, error) {
	var qr repose.QueryReport
	end := b.rec.open(spanEngine)
	res, err := b.Backend.Search(ctx, q, k, append(opts, repose.WithReport(&qr))...)
	b.rec.report(qr)
	end()
	return res, err
}

// request is the self-time decomposition of one traced request. The
// five self times sum to the root span exactly.
type request struct {
	seq, query int
	root       time.Duration // client.request, or engine.search on the library path
	http       time.Duration // client.request − serve.handle
	handler    time.Duration // serve.handle − engine.search
	engine     time.Duration // engine.search − cluster.search: the repose facade
	scatter    time.Duration // cluster.search − slowest partition
	walk       time.Duration // slowest partition
	sumWalk    time.Duration // all partitions
	hit        bool          // answered by the gateway without reaching the engine
}

// decompose groups a pass's spans by request and computes each
// layer's self time: a span's duration minus the part of it its
// children cover (for the parallel partition scans, the slowest).
func decompose(spans []span) []request {
	bySeq := map[int]*request{}
	dur := map[int]map[string]time.Duration{}
	for _, s := range spans {
		rq := bySeq[s.Seq]
		if rq == nil {
			rq = &request{seq: s.Seq, query: s.Query}
			bySeq[s.Seq] = rq
			dur[s.Seq] = map[string]time.Duration{}
		}
		d := time.Duration(s.DurNS)
		if s.Name == spanPartition {
			rq.sumWalk += d
			if d > rq.walk {
				rq.walk = d
			}
			continue
		}
		dur[s.Seq][s.Name] += d
	}
	out := make([]request, 0, len(bySeq))
	for seq, rq := range bySeq {
		d := dur[seq]
		_, reached := d[spanEngine]
		rq.hit = !reached
		rq.root = d[spanClient]
		if rq.root == 0 { // library path: the engine call is the root
			rq.root = d[spanEngine]
		} else {
			rq.http = d[spanClient] - d[spanHandler]
			rq.handler = d[spanHandler] - d[spanEngine]
		}
		rq.engine = d[spanEngine] - d[spanCluster]
		rq.scatter = d[spanCluster] - rq.walk
		out = append(out, *rq)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// budgetOf builds the self-time table of a class of requests: every
// row is averaged over the requests whose root span lies between the
// class's 40th and 60th percentile, so the rows describe the median
// request and sum to that band's mean root span. kernelShare is the
// estimated share of the partition walk spent in the refine kernel;
// workers is the engine's partition-scan parallelism.
func budgetOf(title string, reqs []request, kernelShare float64, workers int) budget {
	b := budget{Title: title, Requests: len(reqs)}
	if len(reqs) == 0 {
		return b
	}
	sorted := append([]request(nil), reqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].root < sorted[j].root })
	b.MedianUS = us(sorted[(len(sorted)-1)/2].root)
	lo, hi := len(sorted)*2/5, (len(sorted)*3+4)/5
	if hi <= lo {
		lo, hi = 0, len(sorted)
	}
	band := sorted[lo:hi]
	mean := func(f func(request) time.Duration) float64 {
		var sum time.Duration
		for _, rq := range band {
			sum += f(rq)
		}
		return us(sum) / float64(len(band))
	}
	b.RootUS = mean(func(r request) time.Duration { return r.root })
	scatter := mean(func(r request) time.Duration { return r.scatter })
	walk := mean(func(r request) time.Duration { return r.walk })
	// With more partitions than scan workers a partition waits for a
	// free worker; that wait is inside the scatter's self time.
	queued := mean(func(r request) time.Duration {
		if q := r.sumWalk/time.Duration(workers) - r.walk; q > 0 && q < r.scatter {
			return q
		}
		return 0
	})
	rows := []budgetRow{
		{Layer: "net/http + loopback + client (client.request self)", SelfUS: mean(func(r request) time.Duration { return r.http })},
		{Layer: "serve: JSON, cache, admission, batch window (serve.handle self)", SelfUS: mean(func(r request) time.Duration { return r.handler })},
		{Layer: "repose facade (engine.search self)", SelfUS: mean(func(r request) time.Duration { return r.engine })},
		{Layer: "cluster scatter/merge, RPC hop if remote (cluster.search self)", SelfUS: scatter},
		{Layer: "partitions queued behind the scan-worker cap (estimate)", SelfUS: queued, OfWhich: true},
		{Layer: "slowest partition walk (rptrie)", SelfUS: walk},
		{Layer: "dist refine kernel (estimate)", SelfUS: walk * kernelShare, OfWhich: true},
	}
	for _, row := range rows {
		if row.SelfUS != 0 { // a layer this class of request never enters
			b.Rows = append(b.Rows, row)
		}
	}
	return b
}
