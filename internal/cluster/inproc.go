package cluster

import (
	"fmt"
	"net/rpc"
	"runtime"
	"sync/atomic"

	"repose/internal/geo"
	"repose/internal/storage"
)

// The in-process deployment is the engine over a Worker in this
// process: the same Remote, scatter, mutations, replication, failover,
// rebalancing and split as over TCP, with a caller that hands each call
// straight to the Worker instead of encoding it onto a socket.

// inProcess is a connection to a Worker in this process. Go runs the
// method on its own goroutine with the driver's argument and reply
// values — no gob, no socket — so a top-k wave's shared heaps
// (QueryArgs.shared) reach the worker's scans. Closing it closes this
// connection only; the worker, like a worker process, lives on.
type inProcess struct {
	w      *Worker
	closed atomic.Bool
}

// Go implements caller.
func (c *inProcess) Go(method string, args, reply any, done chan *rpc.Call) *rpc.Call {
	call := &rpc.Call{ServiceMethod: method, Args: args, Reply: reply, Done: done}
	if c.closed.Load() {
		call.Error = rpc.ErrShutdown
		done <- call
		return call
	}
	go func() {
		if err := c.w.dispatch(method, args, reply); err != nil {
			call.Error = workerError{err}
		}
		done <- call
	}()
	return call
}

// Close implements caller.
func (c *inProcess) Close() error {
	c.closed.Store(true)
	return nil
}

// workerError is an application error an in-process worker returned —
// the counterpart of rpc.ServerError, except that it keeps the error's
// identity: errors.Is sees rptrie.ErrStale or ErrImmutable through it.
type workerError struct{ err error }

func (e workerError) Error() string { return e.err.Error() }
func (e workerError) Unwrap() error { return e.err }

// workerMethods maps each service method to its Worker handler.
var workerMethods = map[string]func(w *Worker, args, reply any) error{
	"Worker.Handshake": handler((*Worker).Handshake),
	"Worker.Build":     handler((*Worker).Build),
	"Worker.Query":     handler((*Worker).Query),
	"Worker.Cancel":    handler((*Worker).Cancel),
	"Worker.Insert":    handler((*Worker).Insert),
	"Worker.Delete":    handler((*Worker).Delete),
	"Worker.Compact":   handler((*Worker).Compact),
	"Worker.Clear":     handler((*Worker).Clear),
	"Worker.Ping":      handler((*Worker).Ping),
	"Worker.Status":    handler((*Worker).Status),
	"Worker.Snapshot":  handler((*Worker).Snapshot),
	"Worker.Restore":   handler((*Worker).Restore),
	"Worker.Split":     handler((*Worker).Split),
	"Worker.Drop":      handler((*Worker).Drop),
}

// handler adapts a typed Worker method to workerMethods' shape.
func handler[A, R any](m func(*Worker, *A, *R) error) func(*Worker, any, any) error {
	return func(w *Worker, args, reply any) error { return m(w, args.(*A), reply.(*R)) }
}

// dispatch runs one service method, as net/rpc does for a worker
// process.
func (w *Worker) dispatch(method string, args, reply any) error {
	m, ok := workerMethods[method]
	if !ok {
		return fmt.Errorf("cluster: unknown method %s", method)
	}
	return m(w, args, reply)
}

// BuildInProcess builds parts on one in-process worker — the engine
// behind repose.Build — capped at workers concurrent partition scans
// (GOMAXPROCS when ≤ 0). With a dataDir every partition is disk-backed
// under dataDir/p<pid>, its initial checkpoint on disk before the build
// returns. The spec's replication factor is ignored: there is one
// worker to place replicas on.
func BuildInProcess(spec IndexSpec, parts [][]*geo.Trajectory, workers int, dataDir string) (*Remote, error) {
	if dataDir != "" {
		if err := (storage.OSFS{}).MkdirAll(dataDir); err != nil {
			return nil, err
		}
	}
	w := NewWorker()
	w.dataDir = dataDir
	r, err := connectInProcess(w, workers)
	if err != nil {
		return nil, err
	}
	spec.Replicas = 1
	if err := r.build(spec, parts); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// connectInProcess connects an engine to w, capped at workers concurrent
// partition scans (GOMAXPROCS when ≤ 0). The engine's Close also closes
// w's disk stores.
func connectInProcess(w *Worker, workers int) (*Remote, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w.SetQueryWorkers(workers)
	slot := &workerSlot{addr: "local", dial: func() (caller, error) { return &inProcess{w: w}, nil }}
	r, err := newRemote([]*workerSlot{slot}, 1)
	if err != nil {
		return nil, err
	}
	r.worker = w
	return r, nil
}
