// Package storage is the durable backing store behind a partition's
// RP-Trie: a checkpoint image in one of two alternating CRC-framed slot
// files, and a write-ahead log with sequenced CRC-framed records, group
// commit, and a replay iterator. No query reads through it — the index
// lives in memory, and the store exists only to recover it.
// rptrie.OpenDurable layers the trie's generation scheme on top (see
// rptrie/durable.go); this package knows nothing about trajectories —
// it stores checkpoint images and replays opaque log records.
//
// # On-disk layout
//
// A Store owns one directory with three files:
//
//	image.0, image.1 — image slots. Each is a 44-byte header (magic,
//	           format version, reserved byte, epoch, generation, WAL
//	           base LSN, image length, and a CRC over those fields and
//	           the image) followed by the image bytes. The valid slot
//	           with the higher epoch holds the checkpoint.
//	wal.log  — a CRC'd header followed by append-only records
//	           [LSN | type | length | CRC | payload].
//
// A fresh directory (no slot bytes at all) is bootstrapped with an
// empty checkpoint in image.0. A directory holding pages.db — the page
// file of the retired paged format — and no slot is refused with
// ErrCorrupt rather than read as fresh.
//
// # The WAL-before-acknowledge invariant
//
// A mutation is acknowledged to the caller only after its log record
// is fsynced (Append then Sync; concurrent committers share one
// fsync — group commit). The in-memory index may briefly run ahead
// of the durable log between publish and sync, but the caller has not
// been told the mutation succeeded yet, and a crash in that window
// destroys the memory state anyway — so every *acknowledged*
// mutation is always recoverable, and an unacknowledged one is
// either recovered whole (its record made it to disk) or dropped
// whole (it did not). Records are applied atomically: a torn tail
// record fails its CRC and replay treats it as end-of-log.
//
// # The two-slot checkpoint commit
//
// The slot holding the current checkpoint is never written. A new
// checkpoint goes to the other slot — truncate, one write, fsync — with
// epoch one past the current one and a WAL base advanced past every
// record the image obsoletes. A crash at any point leaves at least one
// valid slot: before the fsync completes the old slot still rules, after
// it the new one does, and a torn new slot fails its CRC (or its length
// check) so recovery falls back to the surviving one. The WAL is
// truncated only after the slot that obsoletes its records is durable,
// so a crash during truncation merely leaves a log whose base the live
// slot no longer names, and Open starts it over at that slot's base.
// Open never resets the WAL of a directory with no valid slot: it fails
// instead, leaving the log for inspection.
//
// # Recovery ≡ generation
//
// Recovery loads the live slot's checkpoint image (generation G) and
// replays every well-formed log record whose resulting generation
// exceeds G, in LSN order, stopping at the first torn or corrupt
// record. Because mutations are serialized by the owning index's writer
// lock, record order equals apply order; because each record captures
// one whole mutation batch and replay re-applies it through the exact
// same (deterministic) staging code, the recovered index is
// bit-identical to the pre-crash index at whatever generation the
// durable log prefix reaches — never a half-applied state. The
// crash-point differential harness in rptrie/durable_crash_test.go
// checks exactly this claim against internal/oracle for every reachable
// IO cut point.
package storage
