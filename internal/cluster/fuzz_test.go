package cluster

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repose/internal/geo"
	"repose/internal/topk"
)

// fuzzSeedMessages produces one valid gob encoding per RPC message
// type, seeding the corpus with well-formed frames the fuzzer can
// mutate into near-valid adversarial ones.
func fuzzSeedMessages(f *testing.F) {
	f.Helper()
	hdr := QueryHeader{Version: ProtocolVersion, ID: 7, BudgetNanos: 1e9, Partitions: []int{0, 2}, MinGens: []uint64{1, 0, 3}}
	q := []geo.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	for _, msg := range []any{
		&HandshakeArgs{Version: ProtocolVersion},
		&BuildArgs{Version: ProtocolVersion, PartitionID: 1, Trajectories: []*geo.Trajectory{{ID: 5, Points: q}}},
		&QueryArgs{QueryHeader: hdr, Kind: KindTopK, Queries: [][]geo.Point{q, q}, K: 3},
		&QueryArgs{QueryHeader: hdr, Kind: KindBound, Queries: [][]geo.Point{q}, NoPivots: true},
		&QueryArgs{QueryHeader: hdr, Kind: KindRadius, Queries: [][]geo.Point{q}, Radius: 0.5},
		&QueryReply{Partitions: []int{0, 2}, Lists: [][]topk.Item{{{ID: 5, Dist: 0.25}}, nil}, Nanos: []int64{900, 1200}, Done: []int64{900, 2100}, Refined: []int64{3, 0}},
		&InsertArgs{Version: ProtocolVersion, PartitionID: 0, Trajectories: []*geo.Trajectory{{ID: 9, Points: q}}, AutoCompact: 0.25},
		&DeleteArgs{Version: ProtocolVersion, PartitionID: 0, IDs: []int{1, 2, 3}},
		&CompactArgs{Version: ProtocolVersion, Partitions: []int{0}},
		&CancelArgs{ID: 42},
		&InsertReply{Gen: 4, Len: 61, SizeBytes: 9120},
		&DeleteReply{Removed: 1, Gen: 5, Len: 60, SizeBytes: 9048},
		&CompactReply{Gens: map[int]uint64{0: 6}, Lens: map[int]int{0: 60}, Sizes: map[int]int{0: 8800}},
		&StatusReply{Gens: map[int]uint64{0: 6, 2: 1}, Lens: map[int]int{0: 60, 2: 7}, Sizes: map[int]int{0: 8800, 2: 1312}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
}

// FuzzRPCDecode feeds arbitrary bytes through gob decoding into every
// wire message type the worker accepts, and into the query, mutation
// and status replies the driver accepts. Decoding must fail cleanly —
// never panic, never run away — no matter the input; this is the
// worker's exposure to a malicious or corrupted driver connection.
func FuzzRPCDecode(f *testing.F) {
	fuzzSeedMessages(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound allocation, not coverage
		}
		targets := []func() any{
			func() any { return new(HandshakeArgs) },
			func() any { return new(BuildArgs) },
			func() any { return new(QueryArgs) },
			func() any { return new(QueryReply) },
			func() any { return new(InsertArgs) },
			func() any { return new(DeleteArgs) },
			func() any { return new(CompactArgs) },
			func() any { return new(CancelArgs) },
			func() any { return new(QueryHeader) },
			func() any { return new(InsertReply) },
			func() any { return new(DeleteReply) },
			func() any { return new(CompactReply) },
			func() any { return new(StatusReply) },
		}
		for _, mk := range targets {
			// A fresh decoder per message: gob streams are stateful
			// (type definitions precede values), exactly as net/rpc
			// decodes each request.
			_ = gob.NewDecoder(bytes.NewReader(data)).Decode(mk())
		}
	})
}
