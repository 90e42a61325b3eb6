package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"runtime"
	"sync"
	"testing"
	"time"

	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// Deterministic fault tests: the engine over in-process workers whose
// calls pass through a scripted caller, so a fault hits exactly the
// call the test names, and the prober runs only when the test calls
// probe.

// fault is what a scripted caller does to one call.
type fault int

const (
	deliver   fault = iota
	dropCall        // the worker never sees the call
	loseReply       // the worker applies the call; the driver never hears back
	delayCall       // the reply arrives faultDelay late
)

// faultDelay is how late a delayCall reply arrives.
const faultDelay = 100 * time.Millisecond

// errInjected is the transport error a dropped call or lost reply
// reports.
var errInjected = errors.New("injected transport fault")

// faultPlan scripts the faults of worker w's calls: each method's queue
// is consumed one call at a time, and an empty queue delivers.
type faultPlan struct {
	w      *Worker
	mu     sync.Mutex
	faults map[string][]fault
}

// set replaces method's queue.
func (p *faultPlan) set(method string, fs ...fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[method] = fs
}

func (p *faultPlan) next(method string) fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.faults[method]
	if len(q) == 0 {
		return deliver
	}
	p.faults[method] = q[1:]
	return q[0]
}

// scriptedCaller applies its plan to every call on a caller. Faults
// surface as transport errors, so the driver strikes and fails over as
// it would for a broken connection.
type scriptedCaller struct {
	caller
	plan *faultPlan
}

func (s *scriptedCaller) Go(method string, args, reply any, done chan *rpc.Call) *rpc.Call {
	f := s.plan.next(method)
	if f == deliver {
		return s.caller.Go(method, args, reply, done)
	}
	call := &rpc.Call{ServiceMethod: method, Args: args, Reply: reply, Done: done}
	go func() {
		if f != dropCall {
			call.Error = (<-s.caller.Go(method, args, reply, make(chan *rpc.Call, 1)).Done).Error
		}
		switch f {
		case dropCall, loseReply:
			call.Error = errInjected
		case delayCall:
			<-time.After(faultDelay)
		}
		done <- call
	}()
	return call
}

// scriptedEngine builds spec on n in-process workers, every call to
// worker i passing through plans[i]. The prober never runs on its own:
// the test drives it with probe.
func scriptedEngine(t *testing.T, spec IndexSpec, parts [][]*geo.Trajectory, n int) (*Remote, []*faultPlan) {
	t.Helper()
	plans := make([]*faultPlan, n)
	slots := make([]*workerSlot, n)
	for i := range slots {
		w := NewWorker()
		p := &faultPlan{w: w, faults: map[string][]fault{}}
		plans[i] = p
		slots[i] = &workerSlot{addr: fmt.Sprintf("worker-%d", i), dial: func() (caller, error) {
			return &scriptedCaller{caller: &inProcess{w: w}, plan: p}, nil
		}}
	}
	r, err := newRemote(slots, spec.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	r.SetFailover(FailoverConfig{FailThreshold: 1, ProbeInterval: time.Hour})
	if err := r.build(spec, parts); err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, plans
}

// TestReplyLostAfterApplyReconciles: an Insert applies on every replica
// but every reply is lost. The Insert fails, and reads of the partition
// fail rather than answer from replicas nobody acknowledged, although
// no worker's circuit tripped. One prober pass asks the workers what
// they hold and re-anchors the partition there, after which answers
// include the insert, bit-identical to internal/oracle. An upsert one
// replica never sees then succeeds on the other, and the next pass
// restores the missed replica.
func TestReplyLostAfterApplyReconciles(t *testing.T) {
	seed := chaosSeed()
	ds, parts, spec := testWorld(t, 150, 3)
	spec.Replicas = 2
	r, plans := scriptedEngine(t, spec, parts, 3)
	r.SetFailover(FailoverConfig{FailThreshold: 3, ProbeInterval: time.Hour})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	mirror := oracle.NewSet(ds)
	check := func(phase string, qs ...*geo.Trajectory) {
		t.Helper()
		for qi, q := range append(qs, dataset.Queries(ds, 3, seed)...) {
			got, _, err := r.Search(ctx, q.Points, 10, QueryOptions{})
			if err != nil {
				t.Fatalf("%s q%d: %v (seed=%d)", phase, qi, err, seed)
			}
			assertBitIdentical(t, fmt.Sprintf("%s q%d", phase, qi), seed, got, mirror.TopK(spec.Measure, spec.Params, q.Points, 10))
		}
	}

	lost := freshTrajs(rng, 800_000, 1) // one trajectory: one partition, both replicas
	for _, p := range plans {
		p.set("Worker.Insert", loseReply)
	}
	if _, err := r.Insert(ctx, lost, MutateOptions{}); err == nil {
		t.Fatalf("insert whose every reply was lost succeeded (seed=%d)", seed)
	}
	for _, p := range plans {
		p.set("Worker.Insert")
	}
	if _, _, err := r.Search(ctx, lost[0].Points, 5, QueryOptions{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("search over unacknowledged replicas = %v, want ErrUnavailable (seed=%d)", err, seed)
	}
	r.probe()
	waitHealed(t, r, seed)
	mirror.Insert(lost...)
	check("after reconcile", lost[0])
	if r.Len() != mirror.Len() {
		t.Fatalf("Len %d after reconcile, mirror %d (seed=%d)", r.Len(), mirror.Len(), seed)
	}

	// An upsert of a live id goes to the partition the directory knows,
	// so the test can drop it on exactly one replica.
	repl := &geo.Trajectory{ID: ds[7].ID, Points: freshTrajs(rng, 0, 1)[0].Points}
	pid := r.dir.loc[int32(repl.ID)]
	plans[r.owners[pid][0]].set("Worker.Insert", dropCall)
	if _, err := r.Upsert(ctx, []*geo.Trajectory{repl}, MutateOptions{}); err != nil {
		t.Fatalf("upsert with one replica reachable: %v (seed=%d)", err, seed)
	}
	mirror.Insert(repl)
	check("one replica behind", repl)
	r.probe()
	waitHealed(t, r, seed)
	check("after restore", repl)
}

// TestQueryReplyLostFailsOver: a query whose reply one replica loses
// after scanning fails over to the other replica and stays
// bit-identical to internal/oracle — the lost call pruned against the
// query's shared heaps in process, and the answer must not notice. A
// reply that arrives late loses to a hedge on the other replica.
func TestQueryReplyLostFailsOver(t *testing.T) {
	seed := chaosSeed()
	ds, parts, spec := testWorld(t, 200, 4)
	spec.Replicas = 2
	r, plans := scriptedEngine(t, spec, parts, 3)
	ctx := context.Background()
	queries := dataset.Queries(ds, 3, seed)
	for qi, q := range queries {
		want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10)
		plans[qi%3].set(queryMethod, loseReply)
		got, _, err := r.Search(ctx, q.Points, 10, QueryOptions{})
		if err != nil {
			t.Fatalf("search q%d with a lost reply: %v (seed=%d)", qi, err, seed)
		}
		assertBitIdentical(t, fmt.Sprintf("lost reply q%d", qi), seed, got, want)
		if !r.Health()[qi%3].Down {
			t.Fatalf("q%d: the worker that lost its reply was not struck (seed=%d)", qi, seed)
		}
		r.probe()
		waitHealed(t, r, seed)
	}

	r.SetFailover(FailoverConfig{FailThreshold: 100, ProbeInterval: time.Hour, HedgeAfter: time.Millisecond})
	plans[0].set(queryMethod, delayCall)
	q := queries[0]
	got, _, err := r.Search(ctx, q.Points, 10, QueryOptions{ProbeBudget: 2})
	if err != nil {
		t.Fatalf("search with a late reply: %v (seed=%d)", err, seed)
	}
	assertBitIdentical(t, "late reply", seed, got, oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10))
}

// TestAcksOnlyMoveForward: an Insert acknowledged after a later Compact
// must neither turn the replica stale nor roll back the index size the
// Compact reported.
func TestAcksOnlyMoveForward(t *testing.T) {
	_, parts, spec := testWorld(t, 80, 1)
	r, plans := scriptedEngine(t, spec, parts, 1)
	ctx := context.Background()
	x := plans[0].w.view.parts[0].(rptrie.Index)
	gen := x.Generation()
	plans[0].set("Worker.Insert", delayCall)
	inserted := make(chan error, 1)
	go func() {
		_, err := r.Insert(ctx, freshTrajs(rand.New(rand.NewSource(2)), 900_000, 1), MutateOptions{})
		inserted <- err
	}()
	for x.Generation() == gen { // applied, its reply held back
		runtime.Gosched()
	}
	if _, err := r.Compact(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Search(ctx, parts[0][0].Points, 3, QueryOptions{}); err != nil {
		t.Fatalf("search after a late acknowledgement: %v", err)
	}
	if got, want := r.PartitionIndexBytes()[0], x.SizeBytes(); got != want {
		t.Fatalf("driver reports %d index bytes, the worker %d", got, want)
	}
}

// stuckIndex is a partition whose top-k scans run until their context
// ends, then report on ended how it ended. Closing release frees a scan
// nothing cancels, so a failing test does not hang its cleanup.
type stuckIndex struct {
	rptrie.Index
	ended   chan error
	release chan struct{}
}

func (s stuckIndex) SearchContext(ctx context.Context, q []geo.Point, k int, opt rptrie.SearchOptions) ([]topk.Item, error) {
	select {
	case <-ctx.Done():
	case <-s.release:
	}
	s.ended <- ctx.Err()
	return nil, ctx.Err()
}

// TestAbandonedAttemptStopsScanning: an in-process query attempt the
// driver gives up on — it timed out, or a hedge on the other replica
// answered first — stops scanning with a context error, and the worker
// forgets it. The attempt used to scan under the driver's own context,
// so the Worker.Cancel a timeout fires found nothing registered, and a
// winning hedge did not cancel the original at all.
func TestAbandonedAttemptStopsScanning(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		fo       FailoverConfig
		wantErr  bool
	}{
		{"timeout", 1, FailoverConfig{FailThreshold: 100, ProbeInterval: time.Hour, CallTimeout: 200 * time.Millisecond}, true},
		{"hedge", 2, FailoverConfig{FailThreshold: 100, ProbeInterval: time.Hour, HedgeAfter: 50 * time.Millisecond}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, parts, spec := testWorld(t, 120, 2)
			spec.Replicas = tc.replicas
			r, plans := scriptedEngine(t, spec, parts, tc.replicas)
			r.SetFailover(tc.fo)
			// Partition 0's first replica takes the attempt. The timeout
			// and the hedge delay leave it ample time to start scanning.
			w := plans[r.owners[0][0]].w
			w.mu.Lock()
			stuck := stuckIndex{Index: w.indexes[0].(rptrie.Index), ended: make(chan error, 1), release: make(chan struct{})}
			w.mu.Unlock()
			w.swap(0, stuck)
			t.Cleanup(func() { close(stuck.release) })

			_, _, err := r.Search(context.Background(), ds[0].Points, 5, QueryOptions{Partitions: []int{0}})
			if (err != nil) != tc.wantErr {
				t.Fatalf("search: %v, want error %v", err, tc.wantErr)
			}
			select {
			case err := <-stuck.ended:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("abandoned scan ended with %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the abandoned attempt is still scanning")
			}
			for deadline := time.Now().Add(2 * time.Second); ; {
				w.mu.Lock()
				n := len(w.inflight)
				w.mu.Unlock()
				if n == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d queries left registered on the worker", n)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestLosingHedgeStopsScanning: when the original attempt answers
// after its hedge was launched but before the hedge did, the hedge's
// scan is cancelled rather than left to run to its end. The original's
// reply is held back past HedgeAfter; the other replica's partition
// scans until its context ends.
func TestLosingHedgeStopsScanning(t *testing.T) {
	ds, parts, spec := testWorld(t, 120, 2)
	spec.Replicas = 2
	r, plans := scriptedEngine(t, spec, parts, 2)
	r.SetFailover(FailoverConfig{FailThreshold: 100, ProbeInterval: time.Hour, HedgeAfter: 10 * time.Millisecond})
	plans[r.owners[0][0]].set(queryMethod, delayCall)
	w := plans[r.owners[0][1]].w
	w.mu.Lock()
	stuck := stuckIndex{Index: w.indexes[0].(rptrie.Index), ended: make(chan error, 1), release: make(chan struct{})}
	w.mu.Unlock()
	w.swap(0, stuck)
	t.Cleanup(func() { close(stuck.release) })

	q := ds[0].Points
	got, _, err := r.Search(context.Background(), q, 5, QueryOptions{Partitions: []int{0}})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	assertBitIdentical(t, "original won", 0, got, oracle.TopK(spec.Measure, spec.Params, parts[0], q, 5))
	select {
	case err := <-stuck.ended:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("losing hedge ended with %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the losing hedge is still scanning")
	}
}
