package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repose"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/topk"
)

// The fixed environment. Everything the host would otherwise choose
// (partition count, worker count, client count) is pinned here so a
// number means the same thing on every machine with the same nproc.
const (
	datasetName  = "T-drive"
	defaultScale = 1.0 / 16 // 22,264 trajectories, ~23 points each
	topK         = 10
	partitions   = 8
	pivots       = 5
	systemSeed   = 1 // Options.Seed: the system's own default, never -seed
	poolSeed     = 1 // dataset.Queries: which trajectories are the query pool
	cacheEntries = 128
	workerProcs  = 2 // in-process cluster workers behind the gateway
	maxClients   = 4
	minSetups    = 5 // set-ups per run, see measureSetup; setup_s is their median
	maxSetups    = 15
	segments     = 10 // the measured window is cut into this many segments

	// mutationRate is the open-loop writer's schedule in durable_mixed.
	// ISSUE 11 asked for 500/s over 30 s; the contract's run cap cut the
	// window, so the rate was raised to keep the ~15k mutations that push
	// every partition through two compaction+checkpoint cycles.
	mutationRate = 1000

	// readerRate is each durable_mixed reader's schedule, a third of
	// what one closed-loop reader reaches on the sandbox. Closed-loop
	// readers there are unstable by construction: every mutation moves
	// a partition's generation, each query re-walks the tries whose
	// generation moved since the last one (QueryReport.IndexBytes), so
	// a query's cost grows with the time since the previous query,
	// which is the query's cost: a slow phase of the host feeds itself
	// (run-to-run spread 0.35 closed, 0.08 paced).
	readerRate = 60
)

// workload is one named traffic mix; the names are fixed by
// BENCHMARK.json.
type workload struct {
	name    string
	measure repose.Measure
	poolN   int
	zipf    bool                                  // popularity of pool queries: Zipf(1.1) instead of uniform
	run     func(*env, workload) (*report, error) // the end-to-end run
}

var workloads = []workload{
	{name: "lib_hausdorff", measure: repose.Hausdorff, poolN: 512, run: runLib},
	{name: "lib_dtw", measure: repose.DTW, poolN: 128, run: runLib},
	{name: "gateway_zipf", measure: repose.Hausdorff, poolN: 512, zipf: true, run: runGateway},
	{name: "durable_mixed", measure: repose.Hausdorff, poolN: 128, run: runDurable},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is what the command line (or the smoke test) chooses.
type config struct {
	seed    int64
	seconds float64 // measured window per workload
	scale   float64 // dataset scale; defaultScale outside the smoke test
	outDir  string
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// warmup is a quarter of the window, at most 3 s.
func (c config) warmup() time.Duration {
	w := c.window() / 4
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}

// env is the input of one run. The corpus and the query pools are the
// fixed environment, the same on every run: the T-drive spec's own
// generator seed, and dataset.Queries under poolSeed. A different
// corpus is a different index (±20 % in size and query cost from one
// generator seed to the next), and a different 128-query sample moves
// lib_dtw's median by ±10 %; either would drown the bounds in
// BENCHMARK.json, which the driver checks across ten seeds. The
// traffic derives from cfg.seed: which query each client asks next,
// which queries are popular, what is inserted, what is deleted. The
// system under test sees nothing else.
type env struct {
	cfg     config
	clients int
	spec    dataset.Spec
	ds      []*geo.Trajectory // ids 0..len-1
	region  geo.Rect
	params  dist.Params
	delta   float64
	prep    time.Duration // harness-side generation and oracle time so far
}

func newEnv(cfg config) (*env, error) {
	start := time.Now()
	spec, err := dataset.ByName(datasetName, cfg.scale)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, spec: spec, delta: dataset.DefaultDelta(datasetName)}
	e.clients = clientCount()
	e.ds = dataset.Generate(e.spec)
	e.region = geo.EnclosingSquare(e.ds, 0)
	e.params = dist.Params{Epsilon: dist.DefaultParams(e.region).Epsilon, Gap: e.region.Min}
	e.prep = time.Since(start)
	return e, nil
}

// clientCount is C = min(nproc, maxClients): load sized to the machine.
func clientCount() int {
	if n := runtime.NumCPU(); n < maxClients {
		return n
	}
	return maxClients
}

// subSeed derives an independent stream seed from -seed (splitmix64).
func (e *env) subSeed(stream uint64) int64 {
	z := uint64(e.cfg.seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// Seed streams. Client i uses streamClient+i.
const (
	streamExtra      = 2
	streamPopularity = 3
	streamVictims    = 4
	streamClient     = 100
)

func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(e.subSeed(stream)))
}

// options is the index configuration every workload builds with.
func (e *env) options(m repose.Measure) repose.Options {
	return repose.Options{
		Measure:    m,
		Delta:      e.delta,
		Partitions: partitions,
		Strategy:   repose.Heterogeneous,
		Pivots:     pivots,
		Layout:     repose.LayoutPointer,
		Workers:    e.clients,
		Seed:       systemSeed,
	}
}

// pool is the paper's query workload: n trajectories sampled from the
// corpus. For a Zipf workload the pool comes back in popularity order,
// which -seed decides.
func (e *env) pool(w workload) []*geo.Trajectory {
	qs := dataset.Queries(e.ds, w.poolN, poolSeed)
	if w.zipf {
		e.rng(streamPopularity).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	}
	return qs
}

// extraSet generates the second dataset the durable writer inserts
// from, with ids above the base set's.
func (e *env) extraSet(n int) []*geo.Trajectory {
	spec := e.spec
	spec.Seed = e.subSeed(streamExtra)
	spec.Cardinality = n
	extra := dataset.Generate(spec)
	for i, tr := range extra {
		tr.ID = len(e.ds) + i
	}
	return extra
}

// draw returns a function picking the next pool index for one client:
// uniform, or Zipf(1.1) over the pool's popularity order.
func (w workload) draw(rng *rand.Rand, n int) func() int {
	if !w.zipf || n < 2 {
		return func() int { return rng.Intn(n) }
	}
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// oracleAnswers brute-forces the exact top-k of every pool query over
// ds with internal/oracle, spread over the machine's cores.
func (e *env) oracleAnswers(m repose.Measure, ds []*geo.Trajectory, pool []*geo.Trajectory) [][]topk.Item {
	start := time.Now()
	want := make([][]topk.Item, len(pool))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want[i] = oracle.TopK(m, e.params, ds, pool[i].Points, topK)
			}
		}()
	}
	for i := range pool {
		next <- i
	}
	close(next)
	wg.Wait()
	e.prep += time.Since(start)
	return want
}

// sameItems reports whether an answer equals the oracle's bit for bit.
func sameItems(got, want []topk.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// liveHeapMB reads HeapAlloc, the bytes of live objects (HeapInuse
// would add whatever fragmentation earlier work left behind), after a
// full collection, and again until it stops falling: a torn-down
// system's last goroutines (the workers' per-connection servers, the
// gateway's idle connections) hold its heap for a few milliseconds
// after close returns.
func liveHeapMB() float64 {
	read := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	mb := read()
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		next := read()
		if mb-next < 0.5 {
			return next
		}
		mb = next
	}
	return mb
}

// setupStats is the median cost of bringing the system up.
type setupStats struct {
	seconds float64
	memMB   float64
}

// measureSetup builds the system several times, tearing down all but
// the last, and reports the median wall time and retained heap: at
// least minSetups builds and at least a second and a half of them, so
// that a 0.1 s set-up is not at the mercy of one burst from the host.
// build must return only once the system has answered a first query.
func measureSetup[T any](build func() (T, error), teardown func(T)) (T, setupStats, error) {
	var sys, zero T
	var secs, mem []float64
	total := 0.0
	for r := 0; ; r++ {
		before := liveHeapMB()
		start := time.Now()
		var err error
		sys, err = build()
		if err != nil {
			return zero, setupStats{}, fmt.Errorf("set-up %d: %w", r, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[r]
		mem = append(mem, liveHeapMB()-before)
		if r+1 >= maxSetups || (r+1 >= minSetups && total >= 1.5) {
			return sys, setupStats{seconds: median(secs), memMB: median(mem)}, nil
		}
		teardown(sys)
		sys = zero
	}
}
