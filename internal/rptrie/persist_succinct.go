package rptrie

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repose/internal/bits"
	"repose/internal/geo"
)

// Succinct persistence mirrors the pointer layout's (persist.go): one
// gob stream carrying the compressed core verbatim — bitmaps, packed
// HR floats, the sparse blob — plus the indexed trajectories, so a
// restored index is byte-identical in structure to the saved one and
// answers queries with identical work. Worker.Restore streams these
// images when a recovering worker rejoins the cluster.

// wireSuccMagic identifies the succinct wire format.
const wireSuccMagic = "RPSUCC1"

// wireDenseLevel is one bitmap-encoded level. Meta is flattened as
// (minLen, maxLen, maxDepthBelow) triples; the bitsets serialize via
// bits.Set's BinaryMarshaler and arrive sealed.
type wireDenseLevel struct {
	N        int
	Bc       *bits.Set
	Bt       *bits.Set
	LeafBase int
	Meta     []int32
	HR       []float32
}

// wireSuccLeaf is one terminal payload.
type wireSuccLeaf struct {
	Tids           []int32
	Dmax           float64
	MinLen, MaxLen int32
}

type wireSuccinct struct {
	Magic    string
	Config   wireConfig
	Gen      uint64
	Alphabet []uint64
	Levels   []wireDenseLevel
	Sparse   []int
	Blob     []byte
	Leaves   []wireSuccLeaf
	Np       int
	NumNodes int
	NumLeafs int
	Trajs    []*geo.Trajectory
}

// Save serializes the succinct index to w in the gob wire format
// readable by ReadSuccinct. A pending delta is folded into the saved
// image (rebuild + recompress, exactly like Compact), so the restored
// index always starts fully compacted — at the source's generation,
// keeping restored replicas generation-aligned with their donor.
func (s *Succinct) Save(w io.Writer) error {
	st, err := s.compacted()
	if err != nil {
		return err
	}
	core := st.core.(*succCore)
	ws := wireSuccinct{
		Magic:    wireSuccMagic,
		Config:   wireConfigOf(s.cfg),
		Gen:      st.gen,
		Alphabet: core.alphabet,
		Sparse:   core.sparse,
		Blob:     core.blob,
		Np:       core.np,
		NumNodes: core.numNodes,
		NumLeafs: core.numLeafs,
	}
	for _, dl := range core.levels {
		meta := make([]int32, 0, len(dl.meta)*3)
		for _, m := range dl.meta {
			meta = append(meta, m.minLen, m.maxLen, m.maxDepth)
		}
		ws.Levels = append(ws.Levels, wireDenseLevel{
			N: dl.n, Bc: dl.bc, Bt: dl.bt, LeafBase: dl.leafBase, Meta: meta, HR: dl.hr,
		})
	}
	for _, l := range core.leaves {
		ws.Leaves = append(ws.Leaves, wireSuccLeaf{Tids: l.tids, Dmax: l.dmax, MinLen: l.minLen, MaxLen: l.maxLen})
	}
	// Deterministic image bytes for identical state (see persist.go).
	ws.Trajs = st.delta.merged(st.trajs)
	if err := writeWireVersion(w); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&ws)
}

// ReadSuccinct deserializes a succinct index written by Save,
// validating the structural invariants the searcher relies on so a
// corrupted stream fails the read instead of a later query.
func ReadSuccinct(r io.Reader) (*Succinct, error) {
	if err := readWireVersion(r); err != nil {
		return nil, err
	}
	var ws wireSuccinct
	if err := gob.NewDecoder(r).Decode(&ws); err != nil {
		return nil, fmt.Errorf("rptrie: decode: %w", err)
	}
	if ws.Magic != wireSuccMagic {
		return nil, fmt.Errorf("rptrie: bad magic %q", ws.Magic)
	}
	cfg, err := configFromWire(ws.Config)
	if err != nil {
		return nil, err
	}
	if ws.Np < 0 || ws.Np > len(ws.Config.Pivots) {
		return nil, fmt.Errorf("rptrie: pivot count %d out of range", ws.Np)
	}
	core := &succCore{
		alphabet: ws.Alphabet,
		sparse:   ws.Sparse,
		blob:     ws.Blob,
		np:       ws.Np,
		numNodes: ws.NumNodes,
		numLeafs: ws.NumLeafs,
	}
	trajs := make(map[int32]*geo.Trajectory, len(ws.Trajs))
	for _, tr := range ws.Trajs {
		if tr == nil || len(tr.Points) == 0 {
			return nil, errors.New("rptrie: empty trajectory in stream")
		}
		if !tr.ValidTimes() {
			return nil, fmt.Errorf("rptrie: trajectory %d has invalid timestamps", tr.ID)
		}
		trajs[int32(tr.ID)] = tr
	}
	for i, l := range ws.Leaves {
		for _, tid := range l.Tids {
			if _, ok := trajs[tid]; !ok {
				return nil, fmt.Errorf("rptrie: leaf %d references unknown trajectory %d", i, tid)
			}
		}
		core.leaves = append(core.leaves, sLeaf{tids: l.Tids, dmax: l.Dmax, minLen: l.MinLen, maxLen: l.MaxLen})
	}
	a := len(core.alphabet)
	for i := 1; i < a; i++ {
		if core.alphabet[i] <= core.alphabet[i-1] {
			return nil, errors.New("rptrie: alphabet not strictly ascending")
		}
	}
	for li, wl := range ws.Levels {
		if wl.Bc == nil || wl.Bt == nil {
			return nil, fmt.Errorf("rptrie: level %d missing bitmaps", li)
		}
		if wl.N <= 0 || len(wl.Meta) != wl.N*3 {
			return nil, fmt.Errorf("rptrie: level %d meta length %d for %d nodes", li, len(wl.Meta), wl.N)
		}
		if wl.Bc.Len() != wl.N*a || wl.Bt.Len() != wl.N {
			return nil, fmt.Errorf("rptrie: level %d bitmap sizes (%d, %d) inconsistent with %d nodes", li, wl.Bc.Len(), wl.Bt.Len(), wl.N)
		}
		if len(wl.HR) != 0 && len(wl.HR) != wl.N*core.np*2 {
			return nil, fmt.Errorf("rptrie: level %d HR length %d", li, len(wl.HR))
		}
		if wl.LeafBase < 0 || wl.LeafBase+wl.Bt.Ones() > len(core.leaves) {
			return nil, fmt.Errorf("rptrie: level %d terminal payloads out of range", li)
		}
		dl := &denseLevel{n: wl.N, bc: wl.Bc, bt: wl.Bt, leafBase: wl.LeafBase, hr: wl.HR}
		dl.meta = make([]denseMeta, wl.N)
		for i := range dl.meta {
			dl.meta[i] = denseMeta{minLen: wl.Meta[i*3], maxLen: wl.Meta[i*3+1], maxDepth: wl.Meta[i*3+2]}
		}
		core.levels = append(core.levels, dl)
	}
	// The sparse offsets address the blob; each must point at a valid
	// record start, in ascending order.
	prev := -1
	for i, off := range core.sparse {
		if off < 0 || off >= len(core.blob) && !(off == 0 && len(core.blob) == 0) {
			return nil, fmt.Errorf("rptrie: sparse offset %d (entry %d) outside blob of %d bytes", off, i, len(core.blob))
		}
		if off <= prev {
			return nil, errors.New("rptrie: sparse offsets not ascending")
		}
		prev = off
	}
	if len(core.levels) > 0 {
		last := core.levels[len(core.levels)-1]
		if edges := last.bc.Ones(); len(core.sparse) != 0 && edges != len(core.sparse) {
			return nil, fmt.Errorf("rptrie: %d sparse roots for %d dense leaf edges", len(core.sparse), edges)
		}
	} else if len(core.sparse) != 1 {
		return nil, errors.New("rptrie: level-less index must have exactly one sparse root")
	}
	core.seal()
	s := &Succinct{index{cfg: cfg, encode: succinctCore}}
	s.cur.Store(&state{gen: ws.Gen, core: core, trajs: trajs})
	return s, nil
}
