package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repose/internal/rptrie"
	"repose/internal/storage"
)

// Disk-backed partitions: when a worker is given a data directory
// (NewDurableWorker, or BuildInProcess with one), every REPOSE
// partition index lives in its own subdirectory ("p<pid>") as an
// rptrie.Durable — two alternating checkpoint image slots + a WAL. A
// restarted process recovers each partition from its own log
// (OpenDurable) instead of rebuilding from the dataset or streaming an
// image from a peer; the driver's failure detector only falls back to
// Worker.Restore when the recovered generation is behind the
// authoritative one. Baseline indexes have no persistence and pass
// through unchanged.

// partDirName returns the subdirectory holding one partition's store.
func partDirName(pid int) string { return "p" + strconv.Itoa(pid) }

// parsePartDir inverts partDirName; ok is false for foreign entries.
func parsePartDir(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'p' {
		return 0, false
	}
	pid, err := strconv.Atoi(name[1:])
	if err != nil || pid < 0 {
		return 0, false
	}
	return pid, true
}

// wrapDurablePartition installs idx durably under dataDir, wiping
// whatever the partition's subdirectory held. Non-REPOSE indexes
// (baselines) pass through unchanged — they have no persistence.
func wrapDurablePartition(dataDir string, pid int, idx LocalIndex) (LocalIndex, error) {
	_, durable := idx.(*rptrie.Durable)
	if _, ok := idx.(rptrie.Index); !ok || durable {
		return idx, nil
	}
	d, err := rptrie.WrapDurable(filepath.Join(dataDir, partDirName(pid)), idx, rptrie.DurableOptions{})
	if err != nil {
		return nil, fmt.Errorf("cluster: partition %d durable install: %w", pid, err)
	}
	return d, nil
}

// closeDurable closes idx's disk store when it has one.
func closeDurable(idx LocalIndex) {
	if d, ok := idx.(*rptrie.Durable); ok {
		d.Close()
	}
}

// destroyDurable closes idx and wipes its on-disk store so a future
// recovery scan does not resurrect a partition the driver dropped.
func destroyDurable(idx LocalIndex) {
	if d, ok := idx.(*rptrie.Durable); ok {
		d.Close()
		storage.Destroy(d.Dir(), nil)
	}
}

// recoverDurablePartitions opens every recoverable partition store
// under dataDir. Subdirectories that never reached a first checkpoint,
// or hold a format this build cannot read, recover nothing (the driver
// rebuilds or restores them) and are reported in unrecoverable with the
// reason; anything else failing to open is a real error.
func recoverDurablePartitions(dataDir string) (recovered map[int]*rptrie.Durable, unrecoverable map[int]error, err error) {
	fs := storage.OSFS{}
	names, err := fs.ReadDir(dataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: data dir scan: %w", err)
	}
	recovered, unrecoverable = make(map[int]*rptrie.Durable), make(map[int]error)
	for _, name := range names {
		pid, ok := parsePartDir(name)
		if !ok {
			continue
		}
		d, err := rptrie.OpenDurable(filepath.Join(dataDir, name), rptrie.DurableOptions{})
		if err != nil {
			if errors.Is(err, rptrie.ErrNoDurable) {
				unrecoverable[pid] = err
				continue
			}
			for _, open := range recovered {
				open.Close()
			}
			return nil, nil, fmt.Errorf("cluster: partition %d recovery: %w", pid, err)
		}
		recovered[pid] = d
	}
	return recovered, unrecoverable, nil
}

// OpenInProcess recovers a BuildInProcess engine from its data
// directory onto a fresh in-process worker capped at workers concurrent
// partition scans. The engine has as many partitions as the directory
// holds recoverable stores — more than it was built with after a
// SplitPartition — and they must be exactly p0..p<n-1>, with n at least
// minPartitions: recovery is all-or-nothing. Each store replays its own
// WAL to its exact pre-crash generation; the engine takes every
// partition's generation, length and size from its recovered index and
// rebuilds the mutation-routing directory from the recovered live ids.
func OpenInProcess(spec IndexSpec, minPartitions, workers int, dataDir string) (*Remote, error) {
	if minPartitions <= 0 {
		return nil, errors.New("cluster: durable open needs a positive partition count")
	}
	start := time.Now()
	recovered, unrecoverable, err := recoverDurablePartitions(dataDir)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, d := range recovered {
			d.Close()
		}
	}
	indexes := make([]LocalIndex, max(len(recovered), minPartitions))
	for pid := range indexes {
		d, ok := recovered[pid]
		if !ok {
			closeAll()
			if why, ok := unrecoverable[pid]; ok {
				return nil, fmt.Errorf("cluster: partition %d: %w", pid, why)
			}
			return nil, fmt.Errorf("cluster: partition %d has no recoverable store under %s", pid, dataDir)
		}
		indexes[pid] = d
	}
	dir, err := recoveredDirectory(spec, indexes)
	if err != nil {
		closeAll()
		return nil, err
	}
	r, err := connectInProcess(newDataWorker(dataDir, recovered), workers)
	if err != nil {
		closeAll()
		return nil, err
	}
	r.place(len(indexes))
	for pid, d := range recovered {
		r.curGen[pid], r.repGen[pid][0] = d.Generation(), d.Generation()
		r.partLen[pid].Store(int64(d.Len()))
		r.partSizes[pid] = d.SizeBytes()
	}
	r.buildTime = time.Since(start)
	r.start(dir)
	return r, nil
}

// recoveredDirectory rebuilds the driver-side routing directory from
// the recovered partitions' live ids. The online router restarts with
// fresh placement counters — a heuristic drift, not a correctness
// one: the id → partition map below is the routing truth. A recovered
// durable engine is always REPOSE-backed, so failing to rebuild the
// grid or the online router is a recovery error, not a baseline
// without routing: swallowing it would half-open an engine whose
// post-recovery inserts have no router to assign them.
func recoveredDirectory(spec IndexSpec, indexes []LocalIndex) (*directory, error) {
	d := &directory{loc: make(map[int32]int), spec: spec}
	for pid, idx := range indexes {
		if dur, ok := idx.(*rptrie.Durable); ok {
			for _, id := range dur.LiveIDs() {
				d.loc[int32(id)] = pid
			}
		}
	}
	if err := d.route(len(indexes)); err != nil {
		return nil, fmt.Errorf("cluster: recovering: %w", err)
	}
	return d, nil
}
