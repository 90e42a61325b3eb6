package cluster

import (
	"fmt"

	"repose/internal/baseline/dft"
	"repose/internal/baseline/dita"
	"repose/internal/baseline/ls"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/partition"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// LocalIndex is a per-partition index: the least every partition
// offers, baselines included. REPOSE partitions are an rptrie.Index
// (any layout, or a Durable wrapping one), which adds cancellation,
// bounds, range search, mutation and images; the engines reach that
// surface with one assertion and treat everything else as a baseline.
type LocalIndex interface {
	// Search answers a partition-local top-k query.
	Search(q []geo.Point, k int) []topk.Item
	// Len returns the number of indexed trajectories.
	Len() int
	// SizeBytes estimates the index footprint, excluding raw data. It
	// is read on every query (QueryReport.IndexBytes) and must not
	// walk the structure.
	SizeBytes() int
}

var (
	_ LocalIndex = rptrie.Index(nil)
	_ LocalIndex = (*ls.Index)(nil)
	_ LocalIndex = (*dft.Index)(nil)
	_ LocalIndex = (*dita.Index)(nil)
)

// Algorithm selects which local index an IndexSpec builds.
type Algorithm int

// The competing algorithms of Section VII.
const (
	REPOSE Algorithm = iota
	LS
	DFT
	DITA
)

var algorithmNames = [...]string{"REPOSE", "LS", "DFT", "DITA"}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algorithmNames) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithmNames[a]
}

// ParseAlgorithm converts a name produced by String back to an
// Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for i, n := range algorithmNames {
		if n == s {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown algorithm %q", s)
}

// IndexSpec is a self-contained, gob-encodable description of a local
// index; workers rebuild identical indexes from it without sharing
// memory with the driver.
type IndexSpec struct {
	Algorithm Algorithm
	Measure   dist.Measure
	Params    dist.Params

	// REPOSE knobs.
	Region   geo.Rect // enclosing region for the grid
	Delta    float64  // requested grid cell side δ
	Pivots   []*geo.Trajectory
	Optimize bool // z-value re-arrangement (order-independent measures)
	// Layout selects the per-partition layout the worker installs:
	// pointer, succinct (two-tier), or compressed (trit-array).
	Layout     rptrie.Layout
	DisableLBt bool
	DisableLBp bool

	// Strategy is the global partitioning strategy of the batch
	// build; the online router mirrors it when assigning trajectories
	// inserted after the build (see partition.OnlineRouter).
	Strategy partition.Strategy

	// Replicas is the replication factor of the remote deployment:
	// each partition is built on this many distinct workers, and the
	// driver fails queries over between them (failover.go). 0 or 1
	// means no replication; BuildRemote rejects a factor exceeding
	// the worker count. BuildInProcess ignores it — its one worker
	// holds a single copy.
	Replicas int

	// DFT knobs.
	DFTC int // threshold sampling factor C

	// DITA knobs.
	DITANL    int
	DITAPivot int
	DITAC     int

	Seed int64
}

// BuildLocal constructs the partition-local index the spec describes.
func (s IndexSpec) BuildLocal(part []*geo.Trajectory) (LocalIndex, error) {
	switch s.Algorithm {
	case REPOSE:
		g, err := grid.New(s.Region, s.Delta)
		if err != nil {
			return nil, fmt.Errorf("cluster: repose grid: %w", err)
		}
		cfg := rptrie.Config{
			Measure:    s.Measure,
			Params:     s.Params,
			Grid:       g,
			Pivots:     s.Pivots,
			Optimize:   s.Optimize && s.Measure.OrderIndependent(),
			DisableLBt: s.DisableLBt,
			DisableLBp: s.DisableLBp,
		}
		return rptrie.BuildLayout(cfg, part, s.Layout)
	case LS:
		return ls.Build(s.Measure, s.Params, part), nil
	case DFT:
		return dft.Build(dft.Config{
			Measure: s.Measure,
			Params:  s.Params,
			C:       s.DFTC,
			Seed:    s.Seed,
		}, part)
	case DITA:
		return dita.Build(dita.Config{
			Measure:   s.Measure,
			Params:    s.Params,
			NL:        s.DITANL,
			PivotSize: s.DITAPivot,
			C:         s.DITAC,
		}, part)
	default:
		return nil, fmt.Errorf("cluster: unknown algorithm %d", int(s.Algorithm))
	}
}
