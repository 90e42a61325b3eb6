package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// WAL framing. The file is a 20-byte header followed by append-only
// records. Header: magic "RPWAL1", format version byte, one reserved
// byte, base LSN (8B), CRC over the first 16 bytes. Record: LSN (8B),
// type (1B), payload length (4B), CRC (4B, over the 13 header bytes
// plus the payload), payload.

const (
	walHeaderSize       = 20
	walRecordHeaderSize = 17

	// MaxWALRecord bounds a single record's payload, as a sanity
	// check against decoding garbage lengths from a corrupt file.
	MaxWALRecord = 1 << 28
)

var walMagic = [6]byte{'R', 'P', 'W', 'A', 'L', '1'}

// WALRecord is one decoded log record.
type WALRecord struct {
	LSN     uint64
	Type    byte
	Payload []byte
}

// encodeWALHeader serializes the file header.
func encodeWALHeader(baseLSN uint64) []byte {
	buf := make([]byte, walHeaderSize)
	copy(buf[0:6], walMagic[:])
	buf[6] = FormatVersion
	buf[7] = 0
	binary.LittleEndian.PutUint64(buf[8:16], baseLSN)
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(buf[0:16]))
	return buf
}

// decodeWALHeader parses the file header; ok=false means the header
// is torn or foreign and the log holds nothing replayable.
func decodeWALHeader(buf []byte) (baseLSN uint64, ok bool) {
	if len(buf) < walHeaderSize {
		return 0, false
	}
	if [6]byte(buf[0:6]) != walMagic || buf[6] != FormatVersion {
		return 0, false
	}
	if crc32.ChecksumIEEE(buf[0:16]) != binary.LittleEndian.Uint32(buf[16:20]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(buf[8:16]), true
}

// appendWALRecord serializes a record onto dst.
func appendWALRecord(dst []byte, lsn uint64, typ byte, payload []byte) []byte {
	var hdr [walRecordHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], lsn)
	hdr[8] = typ
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[0:13])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[13:17], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return dst
}

// DecodeWALRecord parses one record from the front of buf, returning
// the record and how many bytes it consumed. Torn or corrupt input
// errors with ErrCorrupt; it never panics, whatever the input
// (fuzzed by FuzzWALRecordDecode). The returned payload aliases buf.
func DecodeWALRecord(buf []byte) (WALRecord, int, error) {
	var r WALRecord
	if len(buf) < walRecordHeaderSize {
		return r, 0, fmt.Errorf("%w: %d bytes is shorter than a record header", ErrCorrupt, len(buf))
	}
	r.LSN = binary.LittleEndian.Uint64(buf[0:8])
	r.Type = buf[8]
	n := binary.LittleEndian.Uint32(buf[9:13])
	if n > MaxWALRecord {
		return r, 0, fmt.Errorf("%w: record payload length %d exceeds limit %d", ErrCorrupt, n, MaxWALRecord)
	}
	end := walRecordHeaderSize + int(n)
	if end > len(buf) {
		return r, 0, fmt.Errorf("%w: record of %d bytes truncated at %d", ErrCorrupt, end, len(buf))
	}
	want := binary.LittleEndian.Uint32(buf[13:17])
	crc := crc32.ChecksumIEEE(buf[0:13])
	crc = crc32.Update(crc, crc32.IEEETable, buf[walRecordHeaderSize:end])
	if crc != want {
		return r, 0, fmt.Errorf("%w: record CRC mismatch", ErrCorrupt)
	}
	r.Payload = buf[walRecordHeaderSize:end]
	return r, end, nil
}

// WAL is the write-ahead log: sequenced records, group commit, and a
// replay iterator. Append and Sync are safe for concurrent use;
// concurrent committers coalesce onto one fsync (group commit).
type WAL struct {
	f File

	mu      sync.Mutex // serializes appends and resets
	size    int64      // current end-of-file offset
	nextLSN uint64
	base    uint64

	// Lock order: syncMu before mu. Sync holds syncMu across the
	// fsync and takes mu only in short sections inside it; Reset needs
	// both and must take syncMu first, or a concurrent Sync deadlocks
	// against it. Never acquire syncMu while holding mu.
	syncMu sync.Mutex // serializes fsyncs
	synced uint64     // highest LSN known durable (atomic under syncMu+mu)
}

// OpenWAL opens or bootstraps the log file. An empty (or torn-header)
// file is reset to baseLSN; otherwise every well-formed record is
// scanned to find the append position, and a torn tail is truncated
// away so future appends never interleave with garbage.
func OpenWAL(f File, baseLSN uint64) (*WAL, error) {
	w := &WAL{f: f}
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, walHeaderSize)
	valid := false
	var base uint64
	if size >= walHeaderSize {
		if _, err := f.ReadAt(hdr, 0); err == nil {
			base, valid = decodeWALHeader(hdr)
		}
	}
	if !valid || base != baseLSN {
		// Fresh file, torn header, or a log the live image slot has
		// already obsoleted (crash between slot commit and WAL reset):
		// start over at the base the caller's durable slot dictates.
		if err := w.reset(baseLSN); err != nil {
			return nil, err
		}
		return w, nil
	}
	w.base = base
	w.nextLSN = base
	w.size = walHeaderSize
	// Scan to the first torn/corrupt record to find the append point.
	body := make([]byte, size-walHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, walHeaderSize, size-walHeaderSize), body); err != nil {
		return nil, err
	}
	for len(body) > 0 {
		rec, n, err := DecodeWALRecord(body)
		if err != nil || rec.LSN != w.nextLSN {
			break
		}
		w.nextLSN++
		w.size += int64(n)
		body = body[n:]
	}
	if w.size < size {
		if err := f.Truncate(w.size); err != nil {
			return nil, err
		}
	}
	w.synced = w.nextLSN - 1
	if w.nextLSN == base {
		w.synced = 0
	}
	return w, nil
}

// reset truncates the log and writes a fresh header at baseLSN.
// Callers must hold no locks (OpenWAL) or both syncMu and mu (Reset).
func (w *WAL) reset(baseLSN uint64) error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(encodeWALHeader(baseLSN), 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.base = baseLSN
	w.nextLSN = baseLSN
	w.size = walHeaderSize
	w.synced = 0
	return nil
}

// Reset truncates the log to empty with a new base LSN, after a
// checkpoint has made its records obsolete. Safe against concurrent
// Append/Sync: an in-flight group commit either completes before the
// truncation or fsyncs the fresh header afterwards — its records are
// obsolete either way, so acknowledging them stays correct.
func (w *WAL) Reset(baseLSN uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reset(baseLSN)
}

// Base returns the log's base LSN.
func (w *WAL) Base() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base
}

// NextLSN returns the LSN the next append will get.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Append writes one record at the log's tail and returns its LSN. The
// record is NOT durable until a Sync covering the LSN returns.
func (w *WAL) Append(typ byte, payload []byte) (uint64, error) {
	if len(payload) > MaxWALRecord {
		return 0, fmt.Errorf("storage: WAL record payload of %d bytes exceeds limit %d", len(payload), MaxWALRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	buf := appendWALRecord(nil, lsn, typ, payload)
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return 0, err
	}
	w.nextLSN++
	w.size += int64(len(buf))
	return lsn, nil
}

// Sync makes every record up to and including lsn durable. Concurrent
// callers share fsyncs: whichever caller enters first syncs the whole
// appended tail, and the rest observe their LSN already covered and
// return without touching the disk — group commit.
func (w *WAL) Sync(lsn uint64) error {
	w.mu.Lock()
	covered := w.synced >= lsn
	high := w.nextLSN - 1
	w.mu.Unlock()
	if covered {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	covered = w.synced >= lsn
	high = w.nextLSN - 1
	w.mu.Unlock()
	if covered {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	if high > w.synced {
		w.synced = high
	}
	w.mu.Unlock()
	return nil
}

// Replay calls fn for every well-formed record in LSN order, reading
// the log from disk. It stops silently at the first torn or corrupt
// record (end-of-log under the crash model); a non-nil error from fn
// aborts and propagates.
func (w *WAL) Replay(fn func(WALRecord) error) error {
	w.mu.Lock()
	size := w.size
	base := w.base
	w.mu.Unlock()
	if size <= walHeaderSize {
		return nil
	}
	body := make([]byte, size-walHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(w.f, walHeaderSize, size-walHeaderSize), body); err != nil {
		return err
	}
	want := base
	for len(body) > 0 {
		rec, n, err := DecodeWALRecord(body)
		if err != nil || rec.LSN != want {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
		want++
		body = body[n:]
	}
	return nil
}

// Close closes the log file.
func (w *WAL) Close() error { return w.f.Close() }
