package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"slices"
	"strconv"
)

// WALFileName is the log's file name inside a Store's directory.
const WALFileName = "wal.log"

// legacyPagesFile is the page file the retired paged store kept its
// checkpoint in. A directory holding one and no image slot is refused
// rather than opened as fresh, which would silently drop its index.
const legacyPagesFile = "pages.db"

// FormatVersion is the on-disk format version byte shared by the image
// slots and the WAL header. Readers reject any other value instead of
// misdecoding a future layout.
const FormatVersion = 1

// ErrCorrupt reports an on-disk structure that failed validation
// (bad magic, version, bounds, or CRC). Match with errors.Is.
var ErrCorrupt = errors.New("storage: corrupt on-disk structure")

// Image slot framing. A slot file is a 44-byte header followed by the
// image: magic "RPIMG1", format version byte, one reserved byte, epoch
// (8B), generation (8B), WAL base LSN (8B), image length (8B), CRC (4B,
// over the 40 header bytes before it plus the image). All multi-byte
// fields are little-endian.
const slotHeaderSize = 44

var slotMagic = [6]byte{'R', 'P', 'I', 'M', 'G', '1'}

// slotHeader is the decoded header of one image slot.
type slotHeader struct {
	epoch   uint64 // the valid slot with the higher epoch is the checkpoint
	gen     uint64 // generation the image carries
	walBase uint64 // first LSN of the log this checkpoint leaves live
}

// slotFileName returns the file name of image slot i (0 or 1).
func slotFileName(i int) string { return "image." + strconv.Itoa(i) }

// encodeSlot serializes a whole slot file: header, then image.
func encodeSlot(h slotHeader, image []byte) []byte {
	buf := make([]byte, slotHeaderSize+len(image))
	copy(buf[0:6], slotMagic[:])
	buf[6] = FormatVersion
	binary.LittleEndian.PutUint64(buf[8:16], h.epoch)
	binary.LittleEndian.PutUint64(buf[16:24], h.gen)
	binary.LittleEndian.PutUint64(buf[24:32], h.walBase)
	binary.LittleEndian.PutUint64(buf[32:40], uint64(len(image)))
	copy(buf[slotHeaderSize:], image)
	crc := crc32.ChecksumIEEE(buf[0:40])
	crc = crc32.Update(crc, crc32.IEEETable, image)
	binary.LittleEndian.PutUint32(buf[40:44], crc)
	return buf
}

// decodeSlot parses and validates a whole slot file, returning its
// header and image (a view into buf). Anything but one complete,
// CRC-valid slot — empty, torn, foreign, or trailed by extra bytes —
// errors with ErrCorrupt; it never panics, whatever the input (fuzzed
// by FuzzImageSlotDecode).
func decodeSlot(buf []byte) (slotHeader, []byte, error) {
	var h slotHeader
	if len(buf) < slotHeaderSize {
		return h, nil, fmt.Errorf("%w: image slot of %d bytes is shorter than its header", ErrCorrupt, len(buf))
	}
	if [6]byte(buf[0:6]) != slotMagic || buf[6] != FormatVersion || buf[7] != 0 {
		return h, nil, fmt.Errorf("%w: bad image slot magic or version", ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint64(buf[32:40]); n != uint64(len(buf)-slotHeaderSize) {
		return h, nil, fmt.Errorf("%w: image slot says %d image bytes, file holds %d", ErrCorrupt, n, len(buf)-slotHeaderSize)
	}
	image := buf[slotHeaderSize:]
	crc := crc32.ChecksumIEEE(buf[0:40])
	crc = crc32.Update(crc, crc32.IEEETable, image)
	if crc != binary.LittleEndian.Uint32(buf[40:44]) {
		return h, nil, fmt.Errorf("%w: image slot CRC mismatch", ErrCorrupt)
	}
	h.epoch = binary.LittleEndian.Uint64(buf[8:16])
	h.gen = binary.LittleEndian.Uint64(buf[16:24])
	h.walBase = binary.LittleEndian.Uint64(buf[24:32])
	return h, image, nil
}

// readFile reads a whole file.
func readFile(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Options configures a Store.
type Options struct {
	// VFS is the filesystem to run on; nil means the real one (OSFS).
	VFS VFS
}

// Store is one partition's durable backing: a checkpoint image in one
// of two alternating slot files plus a WAL of the mutations applied
// since. Append and Sync are safe for concurrent use; LoadCheckpoint,
// Checkpoint, Replay and Close must not race Append or each other (the
// owning index's writer lock already serializes them), and Replay is
// only legal before the first mutation.
type Store struct {
	slots [2]File
	live  int        // the slot holding the current checkpoint
	cur   slotHeader // its header
	w     *WAL
}

// Open opens or creates the store rooted at dir, recovering whatever
// prior state the crash discipline preserved: the valid slot with the
// higher epoch is the checkpoint, and its header names the WAL's base.
// A directory with no slot bytes at all is fresh and is bootstrapped
// with an empty checkpoint; one whose slot files hold bytes but no
// valid slot fails with ErrCorrupt, its WAL untouched. After Open, the
// caller loads the checkpoint, replays the WAL, and only then starts
// appending.
func Open(dir string, opts Options) (*Store, error) {
	vfs := opts.VFS
	if vfs == nil {
		vfs = OSFS{}
	}
	if err := vfs.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := vfs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if slices.Contains(names, legacyPagesFile) && !slices.Contains(names, slotFileName(0)) && !slices.Contains(names, slotFileName(1)) {
		return nil, fmt.Errorf("%w: %s holds %s, a checkpoint in the retired paged format this build cannot read; rebuild the index or restore it from a peer",
			ErrCorrupt, dir, legacyPagesFile)
	}
	s := &Store{live: -1}
	seen := false
	for i := range s.slots {
		f, err := vfs.OpenFile(path.Join(dir, slotFileName(i)))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.slots[i] = f
		raw, err := readFile(f)
		if err != nil {
			s.Close()
			return nil, err
		}
		seen = seen || len(raw) > 0
		if h, _, err := decodeSlot(raw); err == nil && (s.live < 0 || h.epoch > s.cur.epoch) {
			s.live, s.cur = i, h
		}
	}
	switch {
	case s.live >= 0:
	case seen:
		s.Close()
		return nil, fmt.Errorf("%w: no valid image slot in %s", ErrCorrupt, dir)
	default:
		s.live, s.cur = 0, slotHeader{epoch: 1, walBase: 1}
		if err := s.writeSlot(0, s.cur, nil); err != nil {
			s.Close()
			return nil, err
		}
	}
	wf, err := vfs.OpenFile(path.Join(dir, WALFileName))
	if err != nil {
		s.Close()
		return nil, err
	}
	if s.w, err = OpenWAL(wf, s.cur.walBase); err != nil {
		wf.Close()
		s.Close()
		return nil, err
	}
	return s, nil
}

// Destroy removes the store's files from dir, including a page file
// the retired paged format left behind. The store must not be open.
func Destroy(dir string, vfs VFS) error {
	if vfs == nil {
		vfs = OSFS{}
	}
	for _, name := range []string{legacyPagesFile, slotFileName(0), slotFileName(1), WALFileName} {
		if err := vfs.Remove(path.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint reads the live checkpoint image back, re-verifying its
// CRC, and returns it with the generation it carries. A store that was
// never checkpointed returns an empty image.
func (s *Store) LoadCheckpoint() ([]byte, uint64, error) {
	raw, err := readFile(s.slots[s.live])
	if err != nil {
		return nil, 0, err
	}
	h, image, err := decodeSlot(raw)
	if err != nil {
		return nil, 0, err
	}
	if h != s.cur {
		return nil, 0, fmt.Errorf("%w: image slot %d changed since the store opened", ErrCorrupt, s.live)
	}
	return image, h.gen, nil
}

// Checkpoint durably installs image as the new checkpoint at gen and
// resets the WAL. It writes the slot that does not hold the current
// checkpoint — truncate, one write, fsync — with the next epoch and the
// WAL base advanced past every record the image obsoletes, and only
// then truncates the log. A crash at any point leaves the current slot
// intact, and a torn new slot fails its CRC, so one valid slot always
// rules.
func (s *Store) Checkpoint(image []byte, gen uint64) error {
	next := slotHeader{epoch: s.cur.epoch + 1, gen: gen, walBase: s.w.NextLSN()}
	if err := s.writeSlot(1-s.live, next, image); err != nil {
		return err
	}
	s.live, s.cur = 1-s.live, next
	return s.w.Reset(next.walBase)
}

// writeSlot replaces slot i's contents durably.
func (s *Store) writeSlot(i int, h slotHeader, image []byte) error {
	f := s.slots[i]
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(encodeSlot(h, image), 0); err != nil {
		return err
	}
	return f.Sync()
}

// Append writes one WAL record, returning its LSN. Not durable until
// Sync covers the LSN.
func (s *Store) Append(typ byte, payload []byte) (uint64, error) {
	return s.w.Append(typ, payload)
}

// Sync makes every record up to lsn durable (group commit).
func (s *Store) Sync(lsn uint64) error { return s.w.Sync(lsn) }

// NextLSN returns the LSN the next Append will get.
func (s *Store) NextLSN() uint64 { return s.w.NextLSN() }

// Replay iterates the WAL's well-formed records in LSN order.
func (s *Store) Replay(fn func(WALRecord) error) error { return s.w.Replay(fn) }

// Close closes the store's files, keeping the first error. It does not
// fsync: every checkpoint is durable when it returns, durability of
// mutations comes from the WAL, and a close without a prior Checkpoint
// simply means the next Open replays the log.
func (s *Store) Close() error {
	var err error
	for _, f := range s.slots {
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if s.w != nil {
		if werr := s.w.Close(); err == nil {
			err = werr
		}
	}
	return err
}
