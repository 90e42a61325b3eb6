package rptrie

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/topk"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden persist fixtures under testdata/golden")

// goldenIndex builds the fixture state: the paper's running example
// (hand-written, so the fixture does not depend on any PRNG stream)
// with pivots, one insert, and one delete — exercising config, pivot
// ranges, generation, and tombstone folding in the saved image.
func goldenIndex(t *testing.T) (*Trie, *geo.Trajectory) {
	t.Helper()
	ds, q, g := paperDataset()
	cfg := Config{Measure: dist.Hausdorff, Grid: g, Pivots: []*geo.Trajectory{ds[0], ds[2]}, Optimize: true}
	tr, err := Build(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(mkTraj(100, 3.5, 3.5, 4.5, 3.5, 4.5, 5.5)); err != nil {
		t.Fatal(err)
	}
	if tr.Delete(2) != 1 {
		t.Fatal("fixture delete missed")
	}
	return tr, q
}

// checkGolden loads the committed fixture image (regenerating it
// under -update) and pins its leading format-version byte. The
// fixture's gob bytes are not compared against a fresh Save — gob
// embeds process-global type IDs, so identical state does not imply
// identical bytes across runs; what must hold is that an image
// written by an OLD build keeps decoding to the exact same answers.
// When the wire structs change incompatibly, decoding the fixture
// fails (or the semantic assertions below do): bump wireVersion in
// persist.go and regenerate with -update.
func checkGolden(t *testing.T, name string, fresh []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with go test -run Golden -update): %v", err)
	}
	if len(raw) == 0 || raw[0] != wireVersion {
		t.Fatalf("%s: fixture carries format version %d, this build writes %d: regenerate with -update", name, raw[0], wireVersion)
	}
	return raw
}

func TestGoldenTrieImage(t *testing.T) {
	tr, q := goldenIndex(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := checkGolden(t, "trie.img", buf.Bytes())

	back, err := ReadTrie(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding committed fixture: %v", err)
	}
	if back.Generation() != 2 || back.Len() != 5 {
		t.Fatalf("fixture decoded to gen=%d len=%d, want gen=2 len=5", back.Generation(), back.Len())
	}
	validate(t, back)
	res := back.Search(q.Points, 2)
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 4 {
		t.Fatalf("fixture top-2 = %v, want [1 4]", res)
	}
	// The old image must answer exactly like today's build of the same
	// state — identical results AND identical traversal work. Save
	// folds the staged delta, so fold the live index's too before
	// comparing traversal counts (an overlay skews them).
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, probe := range goldenProbes(q) {
		got, gotStats := back.SearchWithStats(probe, 3)
		want, wantStats := tr.SearchWithStats(probe, 3)
		if len(got) != len(want) {
			t.Fatalf("fixture result size %d, fresh %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fixture result %d = %+v, fresh %+v", i, got[i], want[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("fixture traversal %+v, fresh %+v", gotStats, wantStats)
		}
	}
}

// goldenProbes returns fixed query point sets covering the paper
// query, a fixture-inserted region, and an empty corner.
func goldenProbes(q *geo.Trajectory) [][]geo.Point {
	return [][]geo.Point{
		q.Points,
		{{X: 3.5, Y: 3.5}, {X: 4.5, Y: 4.5}},
		{{X: 7.9, Y: 7.9}},
	}
}

func TestGoldenSuccinctImage(t *testing.T) {
	tr, q := goldenIndex(t)
	suc, err := Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := suc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := checkGolden(t, "succinct.img", buf.Bytes())

	back, err := ReadSuccinct(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding committed fixture: %v", err)
	}
	if back.Generation() != 2 || back.Len() != 5 {
		t.Fatalf("fixture decoded to gen=%d len=%d, want gen=2 len=5", back.Generation(), back.Len())
	}
	res := back.Search(q.Points, 2)
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 4 {
		t.Fatalf("fixture top-2 = %v, want [1 4]", res)
	}
	if err := suc.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, probe := range goldenProbes(q) {
		got, gotStats := back.SearchWithStats(probe, 3)
		want, wantStats := suc.SearchWithStats(probe, 3)
		if len(got) != len(want) {
			t.Fatalf("fixture result size %d, fresh %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fixture result %d = %+v, fresh %+v", i, got[i], want[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("fixture traversal %+v, fresh %+v", gotStats, wantStats)
		}
	}
}

func TestGoldenCompressedImage(t *testing.T) {
	tr, q := goldenIndex(t)
	cmp, err := CompressTST(tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cmp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := checkGolden(t, "tstat.img", buf.Bytes())

	back, err := ReadCompressed(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding committed fixture: %v", err)
	}
	if back.Generation() != 2 || back.Len() != 5 {
		t.Fatalf("fixture decoded to gen=%d len=%d, want gen=2 len=5", back.Generation(), back.Len())
	}
	res := back.Search(q.Points, 2)
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 4 {
		t.Fatalf("fixture top-2 = %v, want [1 4]", res)
	}
	if err := cmp.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, probe := range goldenProbes(q) {
		got, gotStats := back.SearchWithStats(probe, 3)
		want, wantStats := cmp.SearchWithStats(probe, 3)
		if len(got) != len(want) {
			t.Fatalf("fixture result size %d, fresh %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fixture result %d = %+v, fresh %+v", i, got[i], want[i])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("fixture traversal %+v, fresh %+v", gotStats, wantStats)
		}
	}
	// Range queries decode from the same fixture.
	gotR, err := back.SearchRadiusContext(nil, q.Points, 2.5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantR := tr.SearchRadius(q.Points, 2.5)
	if len(gotR) != len(wantR) {
		t.Fatalf("fixture radius answer %v, fresh pointer answer %v", gotR, wantR)
	}
	for i := range gotR {
		if gotR[i] != wantR[i] {
			t.Fatalf("fixture radius answer %v, fresh pointer answer %v", gotR, wantR)
		}
	}
}

// TestGoldenLegacyV1Images: version-1 images (written before
// trajectories could carry timestamps) must keep decoding and answer
// exactly like the current build of the same state. The *_v1.img
// fixtures are frozen copies of the last version-1 goldens and are
// never regenerated.
func TestGoldenLegacyV1Images(t *testing.T) {
	tr, q := goldenIndex(t)
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	load := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatalf("missing frozen v1 fixture: %v", err)
		}
		if len(raw) == 0 || raw[0] != 1 {
			t.Fatalf("%s: expected a version-1 image, got version byte %d", name, raw[0])
		}
		return raw
	}
	check := func(name string, res []topk.Item, err error) {
		if err != nil {
			t.Fatalf("%s: decoding frozen v1 fixture: %v", name, err)
		}
		want := tr.Search(q.Points, 2)
		if len(res) != len(want) {
			t.Fatalf("%s: v1 image answered %v, fresh build %v", name, res, want)
		}
		for i := range res {
			if res[i] != want[i] {
				t.Fatalf("%s: v1 image answered %v, fresh build %v", name, res, want)
			}
		}
	}
	back, err := ReadTrie(bytes.NewReader(load("trie_v1.img")))
	if err != nil {
		t.Fatalf("trie_v1.img: %v", err)
	}
	check("trie_v1.img", back.Search(q.Points, 2), nil)
	sback, err := ReadSuccinct(bytes.NewReader(load("succinct_v1.img")))
	if err != nil {
		t.Fatalf("succinct_v1.img: %v", err)
	}
	check("succinct_v1.img", sback.Search(q.Points, 2), nil)
	cback, err := ReadCompressed(bytes.NewReader(load("tstat_v1.img")))
	if err != nil {
		t.Fatalf("tstat_v1.img: %v", err)
	}
	check("tstat_v1.img", cback.Search(q.Points, 2), nil)
}

// TestWireVersionRejected: images from a different format version must
// fail with a version diagnostic, not a gob misdecode.
func TestWireVersionRejected(t *testing.T) {
	tr, _ := goldenIndex(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] ^= 0x80
	if _, err := ReadTrie(bytes.NewReader(raw)); err == nil {
		t.Fatal("future-version image decoded")
	} else if !bytes.Contains([]byte(err.Error()), []byte("format version")) {
		t.Fatalf("want a version diagnostic, got: %v", err)
	}
	raw[0] ^= 0x80

	suc, err := Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := suc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sraw := buf.Bytes()
	sraw[0] ^= 0x80
	if _, err := ReadSuccinct(bytes.NewReader(sraw)); err == nil {
		t.Fatal("future-version succinct image decoded")
	} else if !bytes.Contains([]byte(err.Error()), []byte("format version")) {
		t.Fatalf("want a version diagnostic, got: %v", err)
	}

	cmp, err := CompressTST(tr)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := cmp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	craw := buf.Bytes()
	craw[0] ^= 0x80
	if _, err := ReadCompressed(bytes.NewReader(craw)); err == nil {
		t.Fatal("future-version compressed image decoded")
	} else if !bytes.Contains([]byte(err.Error()), []byte("format version")) {
		t.Fatalf("want a version diagnostic, got: %v", err)
	}
}
