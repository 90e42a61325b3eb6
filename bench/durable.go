package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repose"
	"repose/internal/geo"
	"repose/internal/oracle"
)

// durableSystem is a local engine built with WithDurableDir.
type durableSystem struct {
	idx *repose.Index
	dir string
}

func (s *durableSystem) close() {
	s.idx.Close()
	os.RemoveAll(s.dir)
}

// ackLog is what the writer has had acknowledged, readable by the
// readers while the window runs. seq counts acknowledged mutations;
// deletedAt[id] is the seq at which id's delete was acknowledged.
type ackLog struct {
	seq       atomic.Int64
	deletedAt []atomic.Int64 // indexed by base-set id; 0 = not deleted
}

// runDurable is durable_mixed: paced readers beside one open-loop
// writer on a disk-backed local engine, then a restart.
func runDurable(e *env, w workload) (*report, error) {
	ctx := context.Background()
	r := newReport(w, false)
	pool := e.pool(w)
	total := e.cfg.warmup() + e.cfg.window()
	plan := e.mutationPlan(int(total.Seconds()*mutationRate) + 1)
	if err := os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return nil, err
	}

	sys, st, err := measureSetup(func() (*durableSystem, error) {
		dir, err := os.MkdirTemp(e.cfg.outDir, "durable-")
		if err != nil {
			return nil, err
		}
		idx, err := repose.Build(e.ds, e.options(w.measure), repose.WithDurableDir(dir))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		s := &durableSystem{idx: idx, dir: dir}
		if got, err := idx.Search(ctx, pool[0], topK); err != nil || len(got) != topK {
			s.close()
			return nil, fmt.Errorf("first query wrong (err %v)", err)
		}
		return s, nil
	}, func(s *durableSystem) { s.close() })
	if err != nil {
		return nil, err
	}
	defer func() { sys.close() }()
	r.setSetup(st, sys.idx)
	r.Notes = append(r.Notes, "durable directory is on "+filesystemOf(sys.dir)+
		": fsync costs what this sandbox's storage charges, not what a production device would")

	// Every trajectory the index may return, for the readers'
	// distance re-computation.
	inserts := make(map[int]*geo.Trajectory)
	for _, m := range plan {
		if m.insert != nil {
			inserts[m.insert.ID] = m.insert
		}
	}
	byID := func(id int) *geo.Trajectory {
		if id >= 0 && id < len(e.ds) {
			return e.ds[id]
		}
		return inserts[id]
	}

	// The writer is one open-loop client on a 1/mutationRate schedule,
	// running beside the readers from the start of the warm-up.
	acks := &ackLog{deletedAt: make([]atomic.Int64, len(e.ds))}
	var writes []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = runClients(e, 1, time.Second/mutationRate, func(int, *rand.Rand) func() (time.Duration, bool) {
			next := 0
			return func() (time.Duration, bool) {
				m := plan[next]
				next++
				start := time.Now()
				ok := m.apply(ctx, sys.idx)
				lat := time.Since(start)
				if ok && m.insert == nil {
					acks.deletedAt[m.del].Store(int64(next))
				}
				acks.seq.Store(int64(next))
				return lat, ok
			}
		})
	}()

	readers := e.clients - 1
	if readers < 1 {
		readers = 1
	}
	reads := runClients(e, readers, time.Second/readerRate, func(c int, rng *rand.Rand) func() (time.Duration, bool) {
		next := w.draw(rng, len(pool))
		return func() (time.Duration, bool) {
			q := pool[next()]
			sent := acks.seq.Load()
			start := time.Now()
			got, err := sys.idx.Search(ctx, q, topK)
			lat := time.Since(start)
			return lat, err == nil && validAnswer(w.measure, q, got, byID, acks, sent)
		}
	})
	wg.Wait()

	t := summarize(reads, e.cfg.window())
	r.setTiming(t)
	// The writer's latencies are taken over the whole window, not per
	// segment: the compaction stall that only some segments hold is
	// the thing to see.
	var mutate, lateness []time.Duration
	r.Attempted, r.Failed = len(reads)+len(writes), t.failed
	for _, s := range writes {
		if !s.ok {
			r.Failed++
		}
		if s.at >= 0 {
			mutate = append(mutate, s.lat)
			lateness = append(lateness, s.late)
		}
	}
	r.extra("mutate_p50_ms", ms(quantile(mutate, 0.50)), "ms")
	r.extra("mutate_p99_ms", ms(quantile(mutate, 0.99)), "ms")
	r.extra("mutations", float64(len(mutate)), "count")
	r.extra("writer_lateness_p99_ms", ms(quantile(lateness, 0.99)), "ms")

	// Restart: close, recover from the directory alone, and time it to
	// the first answered query.
	if err := sys.idx.Close(); err != nil {
		return nil, fmt.Errorf("close before recovery: %w", err)
	}
	start := time.Now()
	re, err := repose.OpenDurable(sys.dir)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	sys.idx = re
	_, err = re.Search(ctx, pool[0], topK)
	r.extra("recover_s", time.Since(start).Seconds(), "s")
	r.check(err == nil)

	// After recovery the index must hold exactly the acknowledged
	// state: the whole pool against the oracle over the final live
	// set, then presence of every acknowledged insert and absence of
	// every acknowledged delete (Delete reports how many ids were live;
	// it runs last because it mutates).
	live := oracle.NewSet(e.ds)
	var inserted, deleted []int
	for i, m := range plan[:len(writes)] {
		if !writes[i].ok {
			continue
		}
		if m.insert != nil {
			live.Insert(m.insert)
			inserted = append(inserted, m.insert.ID)
		} else {
			live.Delete(m.del)
			deleted = append(deleted, m.del)
		}
	}
	want := e.oracleAnswers(w.measure, live.Slice(), pool)
	for i, q := range pool {
		got, err := re.Search(ctx, q, topK)
		r.check(err == nil && sameItems(got, want[i]))
	}
	r.check(re.Stats().Trajectories == live.Len())
	gone, err := re.Delete(ctx, deleted)
	r.check(err == nil && gone == 0)
	present, err := re.Delete(ctx, inserted)
	r.check(err == nil && present == len(inserted))
	return r, nil
}

// validAnswer checks the invariants a reader can hold a response to
// while writes are in flight: k results, ascending by (distance, id),
// every distance equal to the one the harness recomputes, and no id
// whose delete had been acknowledged before the request was sent.
func validAnswer(m repose.Measure, q *geo.Trajectory, got []repose.Result, byID func(int) *geo.Trajectory, acks *ackLog, sent int64) bool {
	if len(got) != topK {
		return false
	}
	for i, it := range got {
		if i > 0 {
			prev := got[i-1]
			if it.Dist < prev.Dist || (it.Dist == prev.Dist && it.ID <= prev.ID) {
				return false
			}
		}
		tr := byID(it.ID)
		if tr == nil || math.Float64bits(repose.Distance(m, q, tr)) != math.Float64bits(it.Dist) {
			return false
		}
		if it.ID < len(acks.deletedAt) {
			if at := acks.deletedAt[it.ID].Load(); at != 0 && at <= sent {
				return false
			}
		}
	}
	return true
}

// filesystemOf names the filesystem type holding path, from
// /proc/mounts; "unknown" where that cannot be read.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	fstype, best := "unknown", -1
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > best {
			fstype, best = f[2], len(mount)
		}
	}
	return fstype
}
