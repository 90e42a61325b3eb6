package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repose"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/leakcheck"
	"repose/internal/oracle"
	"repose/internal/topk"
)

func stressData(n int) []*repose.Trajectory {
	return dataset.Generate(dataset.Spec{
		Name: "serve-stress", Cardinality: n, AvgLen: 15,
		SpanX: 4, SpanY: 4, Hotspots: 5, Seed: 11,
	})
}

func stressTraj(rng *rand.Rand, id int) *repose.Trajectory {
	pts := make([]repose.Point, 3+rng.Intn(10))
	for j := range pts {
		pts[j] = repose.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
	}
	return &repose.Trajectory{ID: id, Points: pts}
}

func postSearch(t *testing.T, url string, q *repose.Trajectory, k int) (answerJSON, int) {
	t.Helper()
	pts := make([][2]float64, len(q.Points))
	for i, p := range q.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	body, _ := json.Marshal(map[string]any{"points": pts, "k": k})
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /search: %v", err)
	}
	defer resp.Body.Close()
	var ans answerJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return ans, resp.StatusCode
}

func sameItems(got []resultJSON, want []topk.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Distance != want[i].Dist {
			return false
		}
	}
	return true
}

// TestServeOracleStress is the serving layer's exactness proof under
// -race: concurrent HTTP queries race a mutation stream on a
// single-partition index (so the generation vector is a scalar and
// every reachable index state is a recorded post-mutation state).
// The mutator snapshots the brute-force oracle's answer set after
// every mutation, keyed by the generation it produced. Every served
// answer — cached, coalesced, or fresh — must be
// bit-identical to the oracle at some generation between the
// answer's pinned floor (its reported generation vector) and the
// authoritative generation at response receipt. A served answer
// matching no such state is a stale or torn read and fails the test.
func TestServeOracleStress(t *testing.T) {
	base := leakcheck.Base()
	ds := stressData(160)
	idx, err := repose.Build(ds, repose.Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	gw := New(idx, Config{
		MaxConcurrent: 4,
		CacheEntries:  256,
		QueryTimeout:  30 * time.Second,
	})
	ts := httptest.NewServer(gw.Handler())
	teardown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		http.DefaultClient.CloseIdleConnections()
		ts.Close()
	}
	defer teardown()

	const k = 5
	queries := []*repose.Trajectory{ds[3], ds[47], ds[91]}

	// The oracle ledger: after every mutation, the answer for each
	// probe query at the generation that mutation produced. Hausdorff
	// (the build default) ignores Params, so the zero value is exact.
	type state struct{ answers [][]topk.Item }
	var (
		ledgerMu sync.Mutex
		ledger   = make(map[uint64]state)
		latest   uint64
	)
	mirror := oracle.NewSet(ds)
	snapshot := func(gen uint64) {
		s := state{answers: make([][]topk.Item, len(queries))}
		for i, q := range queries {
			s.answers[i] = mirror.TopK(dist.Hausdorff, dist.Params{}, q.Points, k)
		}
		ledgerMu.Lock()
		ledger[gen] = s
		if gen > latest {
			latest = gen
		}
		ledgerMu.Unlock()
	}
	snapshot(idx.Generations()[0])

	ctx := context.Background()
	stopMut := make(chan struct{})
	mutDone := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(77))
		nextID := 1 << 20
		var inserted []int
		for i := 0; ; i++ {
			select {
			case <-stopMut:
				mutDone <- nil
				return
			default:
			}
			if len(inserted) > 0 && rng.Intn(3) == 0 {
				id := inserted[rng.Intn(len(inserted))]
				if _, err := idx.Delete(ctx, []int{id}); err != nil {
					mutDone <- fmt.Errorf("delete: %w", err)
					return
				}
				mirror.Delete(id)
			} else {
				tr := stressTraj(rng, nextID)
				nextID++
				if err := idx.Insert(ctx, []*repose.Trajectory{tr}); err != nil {
					mutDone <- fmt.Errorf("insert: %w", err)
					return
				}
				inserted = append(inserted, tr.ID)
				mirror.Insert(tr)
			}
			// The mutation is acknowledged: record the oracle state
			// under the generation it produced. A query can observe
			// this generation between the mutation's return and this
			// snapshot; verifiers wait for the ledger to catch up.
			snapshot(idx.Generations()[0])
			time.Sleep(500 * time.Microsecond)
		}
	}()

	const queriers = 4
	const perQuerier = 60
	var wg sync.WaitGroup
	errCh := make(chan error, queriers)
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < perQuerier; i++ {
				qi := rng.Intn(len(queries))
				ans, status := postSearch(t, ts.URL, queries[qi], k)
				if status != http.StatusOK {
					errCh <- fmt.Errorf("querier %d: status %d", w, status)
					return
				}
				if len(ans.Generations) != 1 {
					errCh <- fmt.Errorf("querier %d: generation vector %v, want length 1", w, ans.Generations)
					return
				}
				floor := ans.Generations[0]
				// The answer reflects a state no newer than the
				// authoritative generation right now.
				ceil := idx.Generations()[0]

				// Wait for the ledger to cover [floor, ceil]: the
				// mutator records each generation promptly after the
				// mutation returns.
				deadline := time.Now().Add(5 * time.Second)
				matched := false
				for {
					ledgerMu.Lock()
					covered := latest >= ceil
					for g := floor; g <= ceil; g++ {
						if s, ok := ledger[g]; ok && sameItems(ans.Results, s.answers[qi]) {
							matched = true
							break
						}
					}
					ledgerMu.Unlock()
					if matched || covered || time.Now().After(deadline) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if !matched {
					errCh <- fmt.Errorf("querier %d: answer %v for query %d matches no oracle state in generations [%d, %d] (cached=%v coalesced=%v)",
						w, ans.Results, qi, floor, ceil, ans.Cached, ans.Coalesced)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopMut)
	if err := <-mutDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesced: the next answer must match the final oracle state
	// exactly, and an immediate repeat must come from the cache.
	for qi, q := range queries {
		want := mirror.TopK(dist.Hausdorff, dist.Params{}, q.Points, k)
		ans, status := postSearch(t, ts.URL, q, k)
		if status != http.StatusOK {
			t.Fatalf("quiesced query %d: status %d", qi, status)
		}
		if !sameItems(ans.Results, want) {
			t.Fatalf("quiesced query %d: %v, oracle %v", qi, ans.Results, want)
		}
		again, _ := postSearch(t, ts.URL, q, k)
		if !again.Cached {
			t.Errorf("quiesced repeat %d not cached", qi)
		}
		if !sameItems(again.Results, want) {
			t.Fatalf("cached repeat %d: %v, oracle %v", qi, again.Results, want)
		}
	}

	hits := gw.m.cacheHits.Value()
	coal := gw.m.coalesced.Value()
	t.Logf("stress: %d requests, %d cache hits, %d coalesced, %d ledger states",
		gw.m.searchRequests.Value(), hits, coal, len(ledger))
	teardown()
	leakcheck.Settle(t, base)
}

// TestServeMultiPartitionPhased drives a 3-partition index through
// quiesced mutate→query phases over HTTP: after every phase the
// served answer must equal the oracle exactly, the response's
// generation vector must equal the authoritative one, a repeat must
// hit the cache, and the next mutation must invalidate it.
func TestServeMultiPartitionPhased(t *testing.T) {
	ds := stressData(120)
	idx, err := repose.Build(ds, repose.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	gw := New(idx, Config{MaxConcurrent: 4, CacheEntries: 64})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	defer gw.Shutdown(context.Background())

	mirror := oracle.NewSet(ds)
	q := ds[9]
	const k = 7
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))

	for phase := 0; phase < 6; phase++ {
		switch phase % 3 {
		case 0:
			tr := stressTraj(rng, 2<<20+phase)
			if err := idx.Insert(ctx, []*repose.Trajectory{tr}); err != nil {
				t.Fatal(err)
			}
			mirror.Insert(tr)
		case 1:
			id := mirror.IDs()[rng.Intn(mirror.Len())]
			if _, err := idx.Delete(ctx, []int{id}); err != nil {
				t.Fatal(err)
			}
			mirror.Delete(id)
		case 2:
			if err := idx.CompactNow(ctx); err != nil {
				t.Fatal(err)
			}
		}

		want := mirror.TopK(dist.Hausdorff, dist.Params{}, q.Points, k)
		ans, status := postSearch(t, ts.URL, q, k)
		if status != http.StatusOK {
			t.Fatalf("phase %d: status %d", phase, status)
		}
		if ans.Cached {
			t.Fatalf("phase %d: first post-mutation answer served from cache", phase)
		}
		if !sameItems(ans.Results, want) {
			t.Fatalf("phase %d: answer %v, oracle %v", phase, ans.Results, want)
		}
		if !equalU64(ans.Generations, idx.Generations()) {
			t.Fatalf("phase %d: generations %v, authoritative %v", phase, ans.Generations, idx.Generations())
		}
		again, _ := postSearch(t, ts.URL, q, k)
		if !again.Cached || !sameItems(again.Results, want) {
			t.Fatalf("phase %d: repeat cached=%v results=%v, want cached copy of %v", phase, again.Cached, again.Results, want)
		}
	}
	// Each mutate phase after the first evicted the prior entry.
	if inv := gw.m.cacheInvalidations.Value(); inv < 4 {
		t.Errorf("invalidations = %d, want >= 4 (one per state change after the first)", inv)
	}
}
