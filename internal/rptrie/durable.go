package rptrie

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repose/internal/geo"
	"repose/internal/storage"
)

// Durable is the disk-backed backing mode: an index of any layout whose
// handle journals every mutation through internal/storage, so the
// partition recovers to its exact pre-crash generation after kill -9.
//
// Protocol (the WAL-before-acknowledge discipline, see storage's
// package doc): under the handle's writer lock a mutation builds the
// next state, appends one WAL record carrying that state's generation,
// and publishes it; the record is fsynced after the lock is released
// (concurrent committers share fsyncs — group commit), and only then is
// the mutation acknowledged. Checkpoint writes the current index image
// to the store's spare image slot and resets the log; Compact triggers
// one automatically, since the rebuild has already paid for the image.
// Queries go straight to the handle — the delta-empty hot path is
// untouched and stays allocation-free.
//
// A storage failure leaves a mutation's durability unknown, so it
// poisons the journal: a failed append publishes nothing, a failed sync
// rolls the mutation back when nothing has published since, and every
// later mutation fails with the original error. Queries keep answering
// from memory.
//
// The journal lives in the handle, so the embedded index's mutators are
// the journalled ones; Durable adds only what concerns the store.
type Durable struct {
	layoutIndex
	log             *journal
	dir             string
	noCkptOnCompact bool
}

// layoutIndex is what Durable embeds: an Index over the handle (*Trie,
// *Succinct or *Compressed) that carries the journal.
type layoutIndex interface {
	Index
	handle() *index
}

// journal is the write-ahead hook of a durable index's handle
// (index.log): the store its mutations are logged to and the error that
// poisoned it. broken is guarded by the handle's writer lock.
type journal struct {
	store  *storage.Store
	broken error
}

// poison marks the journal failed, keeping the first cause.
func (j *journal) poison(err error) error {
	if j.broken == nil {
		j.broken = fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return j.broken
}

// append logs one mutation whose resulting generation is p.Gen,
// returning the record's LSN; a failure poisons the journal.
func (j *journal) append(typ byte, p walPayload) (uint64, error) {
	payload, err := encodePayload(p)
	if err == nil {
		var lsn uint64
		if lsn, err = j.store.Append(typ, payload); err == nil {
			return lsn, nil
		}
	}
	return 0, j.poison(err)
}

// ErrNoDurable reports a directory holding no recoverable index —
// never created, wiped, or its creation crashed before the initial
// checkpoint was acknowledged. Callers fall back to rebuilding or to
// a peer restore.
var ErrNoDurable = errors.New("rptrie: no recoverable durable index")

// ErrDurability reports a storage failure that left a mutation's
// durability unknown; the handle is poisoned read-only.
var ErrDurability = errors.New("rptrie: durable log write failed; index is read-only")

// WAL record types (storage record type byte).
const (
	recInsert  = byte(1)
	recDelete  = byte(2)
	recUpsert  = byte(3)
	recCompact = byte(4)
)

// walPayload is the gob body of one WAL record. Gen is the
// generation the mutation produced, the replay cross-check.
type walPayload struct {
	Trs []*geo.Trajectory
	IDs []int
	Gen uint64
}

// walVersion prefixes every WAL record payload written by this build,
// aligned with the image format's wireVersion (trajectories may carry
// timestamps from version 2 on; gob's field additivity does the rest).
// Legacy payloads were bare gob streams with no version byte — those
// always open with the uvarint byte length of walPayload's type
// descriptor, several dozen bytes, so a leading byte this small
// unambiguously marks a versioned record and replay accepts both.
const walVersion byte = 2

// DurableOptions configures the disk side of a Durable index.
type DurableOptions struct {
	// VFS is the filesystem to run on; nil means the real one.
	VFS storage.VFS
	// Layout selects which layout BuildDurable installs the built
	// index in. The zero value is the pointer layout.
	Layout Layout
	// NoCheckpointOnCompact disables the automatic checkpoint after
	// Compact (the WAL then carries compaction as a replayed record).
	NoCheckpointOnCompact bool
}

// BuildDurable builds an index over ds (like Build, then converted to
// the requested layout like Compress or CompressTST) and installs it
// durably at dir, wiping whatever the directory held. It returns only
// after the initial checkpoint is on disk.
func BuildDurable(dir string, cfg Config, ds []*geo.Trajectory, o DurableOptions) (*Durable, error) {
	idx, err := BuildLayout(cfg, ds, o.Layout)
	if err != nil {
		return nil, err
	}
	return WrapDurable(dir, idx, o)
}

// WrapDurable installs a pre-built index (a *Trie, *Succinct, or
// *Compressed, e.g. one restored from a peer snapshot) as the durable
// index at dir, wiping whatever the directory held. It returns only
// after the initial checkpoint is on disk; from then on the index's own
// mutators journal.
func WrapDurable(dir string, idx any, o DurableOptions) (*Durable, error) {
	inner, ok := idx.(layoutIndex)
	if _, durable := idx.(*Durable); !ok || durable {
		return nil, fmt.Errorf("rptrie: cannot make a %T durable", idx)
	}
	if err := storage.Destroy(dir, o.VFS); err != nil {
		return nil, err
	}
	st, err := storage.Open(dir, storage.Options{VFS: o.VFS})
	if err != nil {
		return nil, err
	}
	d := &Durable{layoutIndex: inner, log: &journal{store: st}, dir: dir, noCkptOnCompact: o.NoCheckpointOnCompact}
	x := inner.handle()
	x.mu.Lock()
	if err = d.checkpoint(); err == nil {
		x.log = d.log
	}
	x.mu.Unlock()
	if err != nil {
		st.Close()
		return nil, err
	}
	return d, nil
}

// OpenDurable recovers the durable index at dir: it loads the newest
// checkpoint image and replays the WAL's well-formed records in LSN
// order, arriving at the exact generation the durable log prefix
// reaches. Directories without a recoverable index (never created,
// creation crashed before the first checkpoint, or written in the
// retired paged format) fail with ErrNoDurable.
func OpenDurable(dir string, o DurableOptions) (*Durable, error) {
	st, err := storage.Open(dir, storage.Options{VFS: o.VFS})
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) {
			return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
		}
		return nil, err
	}
	inner, err := recoverIndex(st)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
	}
	d := &Durable{layoutIndex: inner, log: &journal{store: st}, dir: dir, noCkptOnCompact: o.NoCheckpointOnCompact}
	inner.handle().log = d.log // no one else holds the index yet
	return d, nil
}

// recoverIndex rebuilds the in-memory index from st's checkpoint image
// and WAL. Replay runs through the plain mutators, before any journal is
// attached, so it logs nothing.
func recoverIndex(st *storage.Store) (layoutIndex, error) {
	image, _, err := st.LoadCheckpoint()
	if err != nil {
		return nil, err
	}
	if len(image) == 0 {
		return nil, errors.New("store bootstrapped but never checkpointed")
	}
	// The image's leading byte is its Layout.
	idx, err := ReadIndex(Layout(image[0]), bytes.NewReader(image[1:]))
	if err != nil {
		return nil, err
	}
	inner := idx.(layoutIndex) // ReadIndex returns nothing else
	if err := st.Replay(func(rec storage.WALRecord) error {
		return applyRecord(inner, rec)
	}); err != nil {
		return nil, err
	}
	return inner, nil
}

// applyRecord re-applies one logged mutation during recovery. The
// staging code is deterministic, so the replayed generation must
// match the recorded one exactly; a mismatch means the image and log
// diverged and the state cannot be trusted.
func applyRecord(inner Index, rec storage.WALRecord) error {
	p, err := decodePayload(rec.Payload)
	if err != nil {
		return fmt.Errorf("record %d undecodable: %v", rec.LSN, err)
	}
	if p.Gen <= inner.Generation() {
		// Already covered by the checkpoint; legal only for logs the
		// checkpoint obsoleted but whose reset was lost.
		return nil
	}
	switch rec.Type {
	case recInsert:
		if err := inner.Insert(p.Trs...); err != nil {
			return fmt.Errorf("record %d replay: %v", rec.LSN, err)
		}
	case recDelete:
		if n := inner.Delete(p.IDs...); n == 0 {
			return fmt.Errorf("record %d replay: logged delete removed nothing", rec.LSN)
		}
	case recUpsert:
		if err := inner.Upsert(p.Trs...); err != nil {
			return fmt.Errorf("record %d replay: %v", rec.LSN, err)
		}
	case recCompact:
		if err := inner.Compact(); err != nil {
			return fmt.Errorf("record %d replay: %v", rec.LSN, err)
		}
	default:
		return fmt.Errorf("record %d has unknown type %d", rec.LSN, rec.Type)
	}
	if got := inner.Generation(); got != p.Gen {
		return fmt.Errorf("record %d replayed to generation %d, logged %d", rec.LSN, got, p.Gen)
	}
	return nil
}

// encodePayload serializes one WAL record body: walVersion, then gob.
func encodePayload(p walPayload) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(walVersion)
	err := gob.NewEncoder(&buf).Encode(&p)
	return buf.Bytes(), err
}

// decodePayload decodes one WAL record body, versioned or legacy.
func decodePayload(payload []byte) (walPayload, error) {
	if len(payload) > 0 && payload[0] <= walVersion {
		// Versioned record (see walVersion): strip the prefix. Bytes
		// above walVersion are a legacy bare-gob payload's descriptor
		// length and decode as-is.
		payload = payload[1:]
	}
	var p walPayload
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p)
	return p, err
}

// Compact folds the pending delta into a rebuilt core, journals the
// compaction, and (unless disabled) checkpoints — the rebuild has
// already produced everything the image needs. A no-op on an empty
// delta.
func (d *Durable) Compact() error {
	gen := d.Generation()
	if err := d.layoutIndex.Compact(); err != nil || d.noCkptOnCompact || d.Generation() == gen {
		return err
	}
	return d.Checkpoint()
}

// Checkpoint writes the current index image to the store's spare image
// slot and resets the WAL (storage.Store.Checkpoint's two-slot commit).
// Recovery cost drops to image-load plus whatever mutations follow.
func (d *Durable) Checkpoint() error {
	x := d.handle()
	if err := x.lock(); err != nil {
		return err
	}
	defer x.mu.Unlock()
	return d.checkpoint()
}

// checkpoint is Checkpoint with the writer lock held, so no mutation
// appends between the image and the WAL reset. A storage failure
// poisons the journal.
func (d *Durable) checkpoint() error {
	var buf bytes.Buffer
	buf.WriteByte(byte(d.Layout()))
	if err := d.Save(&buf); err != nil {
		return err
	}
	if err := d.log.store.Checkpoint(buf.Bytes(), d.Generation()); err != nil {
		return d.log.poison(err)
	}
	return nil
}

// Close closes the store. The in-memory index keeps answering queries;
// mutations fail once closed.
func (d *Durable) Close() error {
	x := d.handle()
	x.mu.Lock()
	defer x.mu.Unlock()
	if d.log.broken == nil {
		d.log.broken = errors.New("rptrie: durable index closed")
	}
	return d.log.store.Close()
}

// Err returns the poisoning error, nil while the handle is healthy.
func (d *Durable) Err() error {
	x := d.handle()
	x.mu.Lock()
	defer x.mu.Unlock()
	return d.log.broken
}

// Dir returns the store directory.
func (d *Durable) Dir() string { return d.dir }
