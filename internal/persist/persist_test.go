package persist

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/sf"
	"repro/internal/theap"
	"repro/internal/vec"
)

// search runs the index's one query body at its defaults on a fresh
// scratch, which the results alias.
func search(ix *core.Index, q []float32, k int, ts, te int64) []theap.Neighbor {
	res, _ := ix.Query(context.Background(), core.NewScratch(), core.Request{Q: q, K: k, Ts: ts, Te: te})
	return res
}

func buildMBI(t *testing.T, n int) *core.Index {
	t.Helper()
	opts := core.Options{
		Dim: 6, Metric: vec.Euclidean, LeafSize: 8, Tau: 0.5,
		Builder: nndescent.MustNew(nndescent.DefaultConfig(4)),
		Search:  graph.SearchParams{MC: 16, Eps: 1.2}, Seed: 3,
	}
	ix, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v := make([]float32, 6)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := ix.Append(v, int64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestMBIRoundTrip(t *testing.T) {
	ix := buildMBI(t, 45) // several blocks plus a partial open leaf
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMBI(&buf, ix.Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != ix.Len() {
		t.Fatalf("len %d, want %d", got.Len(), ix.Len())
	}
	// Deep equality of blocks and data.
	a, b := ix.Blocks(), got.Blocks()
	if len(a) != len(b) {
		t.Fatalf("%d blocks, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi || a[i].Height != b[i].Height {
			t.Fatalf("block %d metadata differs", i)
		}
		if !equalInt32(a[i].Graph.Off, b[i].Graph.Off) || !equalInt32(a[i].Graph.Adj, b[i].Graph.Adj) {
			t.Fatalf("block %d graph differs", i)
		}
	}
	if !equalInt(ix.Forest(), got.Forest()) {
		t.Fatal("forest differs")
	}
	if got.OpenLo() != ix.OpenLo() {
		t.Fatalf("openLo %d, want %d", got.OpenLo(), ix.OpenLo())
	}
	for i := 0; i < ix.Len(); i++ {
		av, bv := ix.Store().At(i), got.Store().At(i)
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("vector %d differs", i)
			}
		}
		if ix.Times()[i] != got.Times()[i] {
			t.Fatalf("timestamp %d differs", i)
		}
	}
	// Loaded index keeps working: inserts cross a leaf boundary cleanly.
	v := make([]float32, 6)
	for i := 0; i < 20; i++ {
		if err := got.Append(v, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMBILoadRejectsMismatchedOptions(t *testing.T) {
	ix := buildMBI(t, 20)
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	wrongDim := ix.Options()
	wrongDim.Dim = 7
	if _, err := LoadMBI(bytes.NewReader(buf.Bytes()), wrongDim); err == nil {
		t.Error("dim mismatch accepted")
	}
	wrongMetric := ix.Options()
	wrongMetric.Metric = vec.Angular
	if _, err := LoadMBI(bytes.NewReader(buf.Bytes()), wrongMetric); err == nil {
		t.Error("metric mismatch accepted")
	}
	wrongLeaf := ix.Options()
	wrongLeaf.LeafSize = 9
	if _, err := LoadMBI(bytes.NewReader(buf.Bytes()), wrongLeaf); err == nil {
		t.Error("leaf-size mismatch accepted")
	}
}

func TestMBILoadRejectsCorruption(t *testing.T) {
	ix := buildMBI(t, 20)
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xff
	if _, err := LoadMBI(bytes.NewReader(bad), ix.Options()); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncation at every eighth of the file.
	for cut := 1; cut < 8; cut++ {
		trunc := raw[:len(raw)*cut/8]
		if _, err := LoadMBI(bytes.NewReader(trunc), ix.Options()); err == nil {
			t.Errorf("truncation at %d/8 accepted", cut)
		}
	}
	// SF loader must reject an MBI file.
	if _, err := LoadSF(bytes.NewReader(raw), nndescent.MustNew(nndescent.DefaultConfig(4))); err == nil {
		t.Error("SF loader accepted MBI file")
	}
}

func TestSFRoundTrip(t *testing.T) {
	builder := nndescent.MustNew(nndescent.DefaultConfig(6))
	ix := sf.New(5, vec.Angular, builder)
	rng := rand.New(rand.NewSource(2))
	v := make([]float32, 5)
	for i := 0; i < 120; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vec.Normalize(v)
		if err := ix.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.BuildGraph(9)

	var buf bytes.Buffer
	if err := SaveSF(&buf, ix); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSF(&buf, builder)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 120 || got.Built() != 120 {
		t.Fatalf("len %d built %d", got.Len(), got.Built())
	}
	if !equalInt32(ix.Graph().Adj, got.Graph().Adj) {
		t.Fatal("graph differs after round trip")
	}
	if got.Metric() != vec.Angular {
		t.Fatalf("metric %v", got.Metric())
	}
}

func TestSFRoundTripUnbuilt(t *testing.T) {
	builder := nndescent.MustNew(nndescent.DefaultConfig(4))
	ix := sf.New(3, vec.Euclidean, builder)
	if err := ix.Append([]float32{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSF(&buf, ix); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSF(&buf, builder)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Built() != 0 {
		t.Fatalf("len %d built %d, want 1, 0", got.Len(), got.Built())
	}
}

func TestSizeMatchesEncoding(t *testing.T) {
	ix := buildMBI(t, 30)
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	size, err := SizeMBI(ix)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(buf.Len()) {
		t.Errorf("SizeMBI = %d, encoded %d bytes", size, buf.Len())
	}
	// MBI stores log-many graph levels: size must exceed the raw data.
	raw := int64(ix.Len() * 6 * 4)
	if size <= raw {
		t.Errorf("index size %d not larger than raw data %d", size, raw)
	}
}

func TestSizeMBILargerThanSF(t *testing.T) {
	// Table 4's qualitative claim at matched data: MBI's index is larger
	// than SF's because it stores one graph per level.
	mbi := buildMBI(t, 64)
	builder := nndescent.MustNew(nndescent.DefaultConfig(4))
	sfIx := sf.New(6, vec.Euclidean, builder)
	for i := 0; i < 64; i++ {
		if err := sfIx.Append(mbi.Store().At(i), int64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	sfIx.BuildGraph(1)
	mbiSize, err := SizeMBI(mbi)
	if err != nil {
		t.Fatal(err)
	}
	sfSize, err := SizeSF(sfIx)
	if err != nil {
		t.Fatal(err)
	}
	if mbiSize <= sfSize {
		t.Errorf("MBI size %d <= SF size %d; multi-level graphs should cost more", mbiSize, sfSize)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
