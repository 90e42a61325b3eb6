package rptrie

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/pivot"
	"repose/internal/storage/failpoint"
)

// The crash-recovery differential harness: a seeded mutation script
// runs against a Durable index on the fault-injecting filesystem,
// crashing at every reachable IO point. After each crash the
// directory is reopened and the recovered index must sit at exactly
// one generation of the script's history — at least the last
// acknowledged one, never past the last attempted one — and answer
// Search / SearchRadius queries bit-identical to internal/oracle
// evaluated over that generation's live set. Failures print the seed
// and crash point, which reproduce the exact dataset, script, fault
// schedule, and tear pattern.

const crashMutSteps = 16

// crashOp is one pre-planned effective mutation. Every planned op
// advances the generation by exactly one, so op k produces
// generation k+1.
type crashOp struct {
	kind byte // 'i' insert, 'd' delete, 'u' upsert, 'c' compact
	trs  []*geo.Trajectory
	ids  []int
	gen  uint64
}

type crashQuery struct {
	q      []geo.Point
	k      int
	radius float64
}

type crashPlan struct {
	cfg     Config
	measure dist.Measure
	params  dist.Params
	ds      []*geo.Trajectory
	ops     []crashOp
	history [][]*geo.Trajectory // history[g] = live set at generation g
	queries []crashQuery
}

// planCrashScript derives the whole experiment from the seed: the
// dataset, the mutation script, the per-generation live sets, and the
// verification queries. The simulation below mirrors the delta
// staging rules exactly (deletes unstage pending inserts, compaction
// is a no-op on an empty delta), so it only plans ops that are
// effective — each one bumps the generation by one.
func planCrashScript(t *testing.T, seed int64) *crashPlan {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 3+rng.Intn(2))
	if err != nil {
		t.Fatal(err)
	}
	ds := randomDataset(rng, 20+rng.Intn(10))
	m := dist.Hausdorff
	if seed%2 == 1 {
		m = dist.Frechet
	}
	p := dist.Params{Epsilon: 0.5}
	var pivots []*geo.Trajectory
	if rng.Intn(2) == 0 {
		pivots = pivot.Select(ds, 2, 4, m, p, seed)
	}
	plan := &crashPlan{
		cfg:     Config{Measure: m, Params: p, Grid: g, Pivots: pivots},
		measure: m,
		params:  p,
		ds:      ds,
	}

	// Simulated index state: the live map plus the staged delta.
	live := make(map[int]*geo.Trajectory, len(ds))
	for _, tr := range ds {
		live[tr.ID] = tr
	}
	core := make(map[int]bool, len(ds)) // ids materialized in the core
	for _, tr := range ds {
		core[tr.ID] = true
	}
	adds := make(map[int]bool) // pending inserts since last compact
	dels := make(map[int]bool) // pending tombstones since last compact

	snapshot := func() []*geo.Trajectory {
		out := make([]*geo.Trajectory, 0, len(live))
		for _, tr := range live {
			out = append(out, tr)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	plan.history = append(plan.history, snapshot()) // generation 0

	stageDel := func(id int) { // mirrors stageDelete for one live id
		if adds[id] {
			delete(adds, id)
		} else {
			dels[id] = true
		}
		delete(live, id)
	}
	liveIDs := func() []int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}

	nextID := 5000
	gen := uint64(0)
	push := func(op crashOp) {
		gen++
		op.gen = gen
		plan.ops = append(plan.ops, op)
		plan.history = append(plan.history, snapshot())
	}
	for step := 0; step < crashMutSteps; step++ {
		switch r := rng.Intn(10); {
		case r < 4: // insert fresh
			n := 1 + rng.Intn(3)
			fresh := randomFresh(rng, nextID, n)
			nextID += n
			for _, tr := range fresh {
				live[tr.ID] = tr
				adds[tr.ID] = true
			}
			push(crashOp{kind: 'i', trs: fresh})
		case r < 7: // delete up to two distinct live ids
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			victims := []int{ids[rng.Intn(len(ids))]}
			if len(ids) > 1 && rng.Intn(2) == 0 {
				other := ids[rng.Intn(len(ids))]
				if other != victims[0] {
					victims = append(victims, other)
				}
			}
			for _, id := range victims {
				stageDel(id)
			}
			push(crashOp{kind: 'd', ids: victims})
		case r < 9: // upsert an existing id with new points
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			repl := randomFresh(rng, id, 1)
			stageDel(id)
			live[id] = repl[0]
			adds[id] = true
			push(crashOp{kind: 'u', trs: repl})
		default: // compact (and checkpoint), when the delta is nonempty
			if len(adds)+len(dels) == 0 {
				continue
			}
			for id := range live {
				core[id] = true
			}
			for id := range core {
				if _, ok := live[id]; !ok {
					delete(core, id)
				}
			}
			adds = make(map[int]bool)
			dels = make(map[int]bool)
			push(crashOp{kind: 'c'})
		}
	}

	for i := 0; i < 4; i++ {
		plan.queries = append(plan.queries, crashQuery{
			q:      randomDataset(rng, 1)[0].Points,
			k:      1 + rng.Intn(8),
			radius: 0.3 + rng.Float64()*2.5,
		})
	}
	return plan
}

func crashOpts(fs *failpoint.FS, layout string) DurableOptions {
	l, err := ParseLayout(layout)
	if err != nil {
		panic(err)
	}
	return DurableOptions{VFS: fs, Layout: l}
}

// runCrashScript drives the plan against a fresh durable index at
// dir. It returns the last acknowledged generation (-1 when not even
// the initial checkpoint was acknowledged) and the last attempted one
// — the upper bound on what recovery may surface, since an
// unacknowledged record can still land durably when the crash
// interrupts its fsync. With crashTolerant false any failure is
// fatal (the dry run counting IO points).
func runCrashScript(t *testing.T, plan *crashPlan, fs *failpoint.FS, dir, layout string, crashTolerant bool) (acked, attempted int) {
	t.Helper()
	fatal := func(format string, args ...any) {
		t.Fatalf("seed=%d layout=%s: %s", fs.Seed(), layout, fmt.Sprintf(format, args...))
	}
	bail := func(err error) bool {
		return crashTolerant && (errors.Is(err, failpoint.ErrCrashed) || errors.Is(err, ErrDurability))
	}
	acked, attempted = -1, 0
	d, err := BuildDurable(dir, plan.cfg, plan.ds, crashOpts(fs, layout))
	if err != nil {
		if !bail(err) {
			fatal("BuildDurable: %v", err)
		}
		return acked, attempted
	}
	defer d.Close()
	acked = 0
	for _, op := range plan.ops {
		attempted = int(op.gen)
		var err error
		switch op.kind {
		case 'i':
			err = d.Insert(op.trs...)
		case 'u':
			err = d.Upsert(op.trs...)
		case 'c':
			err = d.Compact()
		case 'd':
			if n := d.Delete(op.ids...); n != len(op.ids) {
				if derr := d.Err(); derr != nil {
					if !bail(derr) {
						fatal("delete broke the handle: %v", derr)
					}
					return acked, attempted
				}
				fatal("gen %d: delete removed %d of %d planned live ids", op.gen, n, len(op.ids))
			}
		}
		if err != nil {
			if !bail(err) {
				fatal("gen %d op %q: %v", op.gen, op.kind, err)
			}
			return acked, attempted
		}
		if got := d.Generation(); got != op.gen {
			fatal("op %q acknowledged at generation %d, planned %d", op.kind, got, op.gen)
		}
		acked = int(op.gen)
	}
	if err := d.Close(); err != nil && !bail(err) {
		fatal("Close: %v", err)
	}
	return acked, attempted
}

// verifyCrashRecovered reopens the crashed directory and checks the
// durability contract against the plan's history and the oracle.
func verifyCrashRecovered(t *testing.T, plan *crashPlan, fs *failpoint.FS, dir, layout string, crashAt int64, acked, attempted int) {
	t.Helper()
	seed := fs.Seed()
	fatal := func(format string, args ...any) {
		t.Fatalf("seed=%d layout=%s crash@%d: %s", seed, layout, crashAt, fmt.Sprintf(format, args...))
	}
	d, err := OpenDurable(dir, crashOpts(fs, layout))
	if err != nil {
		// The only excusable outcome is a directory that never held an
		// acknowledged checkpoint: creation crashed before BuildDurable
		// returned.
		if errors.Is(err, ErrNoDurable) && acked < 0 {
			return
		}
		fatal("recovery failed with generation %d acknowledged: %v", acked, err)
	}
	defer d.Close()
	if d.Layout().String() != layout {
		fatal("recovered layout %v, want %s", d.Layout(), layout)
	}

	g := int(d.Generation())
	if g < acked {
		fatal("recovered generation %d below acknowledged %d — acknowledged durability violated", g, acked)
	}
	if g > attempted {
		fatal("recovered phantom generation %d, last attempted %d", g, attempted)
	}
	want := plan.history[g]

	gotIDs := d.LiveIDs()
	sort.Ints(gotIDs)
	if len(gotIDs) != len(want) {
		fatal("generation %d recovered %d live ids, history has %d", g, len(gotIDs), len(want))
	}
	for i, tr := range want {
		if gotIDs[i] != tr.ID {
			fatal("generation %d live id[%d] = %d, history has %d", g, i, gotIDs[i], tr.ID)
		}
	}

	mirror := oracle.NewSet(want)
	for qi, cq := range plan.queries {
		ctx := fmt.Sprintf("seed=%d layout=%s crash@%d gen=%d q[%d]", seed, layout, crashAt, g, qi)
		diffAssertTopK(t, ctx, plan.measure, plan.params, mirror, cq.q, cq.k, d.Search(cq.q, cq.k))
		if layout == "pointer" || layout == "compressed" {
			got, err := d.SearchRadiusContext(context.Background(), cq.q, cq.radius, SearchOptions{})
			if err != nil {
				fatal("radius search: %v", err)
			}
			diffAssertRadius(t, ctx, plan.measure, plan.params, mirror, cq.q, cq.radius, got)
		}
	}

	// The recovered handle must stay fully serviceable: accept a fresh
	// durable mutation and expose it.
	fresh := randomFresh(rand.New(rand.NewSource(seed^crashAt)), 900000, 1)
	if err := d.Insert(fresh...); err != nil {
		fatal("post-recovery insert: %v", err)
	}
	if got := int(d.Generation()); got != g+1 {
		fatal("post-recovery insert moved generation %d -> %d", g, got)
	}
	if d.Len() != len(want)+1 {
		fatal("post-recovery Len %d, want %d", d.Len(), len(want)+1)
	}
}

// TestDurableCrashAtEveryIO is the headline tentpole harness: every
// seed × layout first dry-runs the script to count its IO points,
// then replays it once per point with a scheduled crash there.
func TestDurableCrashAtEveryIO(t *testing.T) {
	seeds := []int64{101, 202}
	if v := os.Getenv("CRASH_SEED"); v != "" {
		// CI replays a fixed seed matrix, one seed per job.
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			seeds = []int64{n}
		}
	} else if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, layout := range dynLayouts {
			seed, layout := seed, layout
			t.Run(fmt.Sprintf("seed=%d/%s", seed, layout), func(t *testing.T) {
				t.Parallel()
				plan := planCrashScript(t, seed)
				if len(plan.ops) < crashMutSteps/2 {
					t.Fatalf("seed %d planned only %d effective ops", seed, len(plan.ops))
				}

				// Dry run: no faults, full script, and the final state
				// must already agree with the oracle end-to-end.
				dry := failpoint.New(seed)
				acked, attempted := runCrashScript(t, plan, dry, "part", layout, false)
				last := len(plan.history) - 1
				if acked != last || attempted != last {
					t.Fatalf("seed %d: dry run acked %d attempted %d, want %d", seed, acked, attempted, last)
				}
				total := dry.Ops() // before verify: its reopen does IO of its own
				verifyCrashRecovered(t, plan, dry, "part", layout, 0, acked, attempted)
				if total < 40 {
					t.Fatalf("seed %d: script exercised only %d IO points; too few to be interesting", seed, total)
				}

				stride := int64(1)
				if testing.Short() {
					stride = 7
				}
				for n := int64(1); n <= total; n += stride {
					fs := failpoint.New(seed, failpoint.WithCrashAt(n))
					acked, attempted := runCrashScript(t, plan, fs, "part", layout, true)
					if !fs.Crashed() {
						t.Fatalf("seed %d layout %s: crash point %d never fired (ops=%d)", seed, layout, n, fs.Ops())
					}
					fs.Restart()
					verifyCrashRecovered(t, plan, fs, "part", layout, n, acked, attempted)
				}
			})
		}
	}
}
