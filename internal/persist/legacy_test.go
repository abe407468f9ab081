package persist

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/sq"
	"repro/internal/vec"
)

// saveMBIOld serializes ix in the pre-v3 MBI format: no per-block codes
// presence byte. It reproduces the old writer byte-for-byte (ver 2 CRC
// footer included, ver 1 footerless), so the legacy-load tests exercise
// exactly the files old binaries produced.
func saveMBIOld(t *testing.T, ix *core.Index, ver uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	cw := &crcWriter{w: bw}
	store := ix.Store()
	times := ix.Times()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(writeInts(cw, uint64(magic), uint64(ver)))
	check(binaryWrite(cw, kindMBI, uint8(ix.Options().Metric), uint32(store.Dim()), uint64(len(times))))
	check(writeData(cw, store, times))
	blocks := ix.Blocks()
	forest := ix.Forest()
	check(writeInts(cw, uint64(ix.Options().LeafSize), uint64(ix.OpenLo()), uint64(len(blocks)), uint64(len(forest))))
	for _, root := range forest {
		check(writeInts(cw, uint64(root)))
	}
	for _, b := range blocks {
		check(writeInts(cw, uint64(b.Lo), uint64(b.Hi), uint64(b.Height)))
		check(writeGraph(cw, b.Graph))
	}
	if ver >= crcVersion {
		check(writeFooter(bw, cw.sum))
	}
	check(bw.Flush())
	return buf.Bytes()
}

// saveMBIv3 serializes ix in the version-3 MBI format: per-block codes
// presence byte, no location byte. Byte-exact with the v3 writer so the
// legacy-load test exercises files v3 binaries produced.
func saveMBIv3(t *testing.T, ix *core.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	cw := &crcWriter{w: bw}
	store := ix.Store()
	times := ix.Times()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(writeInts(cw, uint64(magic), uint64(minCodeVersion)))
	check(binaryWrite(cw, kindMBI, uint8(ix.Options().Metric), uint32(store.Dim()), uint64(len(times))))
	check(writeData(cw, store, times))
	blocks := ix.Blocks()
	forest := ix.Forest()
	check(writeInts(cw, uint64(ix.Options().LeafSize), uint64(ix.OpenLo()), uint64(len(blocks)), uint64(len(forest))))
	for _, root := range forest {
		check(writeInts(cw, uint64(root)))
	}
	for _, b := range blocks {
		check(writeInts(cw, uint64(b.Lo), uint64(b.Hi), uint64(b.Height)))
		check(writeGraph(cw, b.Graph))
		check(writeCodes(cw, b.Codes))
	}
	check(writeFooter(bw, cw.sum))
	check(bw.Flush())
	return buf.Bytes()
}

// buildCompressedMBI is buildMBI with SQ8 compression on every sealed
// block.
func buildCompressedMBI(t *testing.T, n int) *core.Index {
	t.Helper()
	opts := core.Options{
		Dim: 6, Metric: vec.Euclidean, LeafSize: 8, Tau: 0.5,
		Builder: nndescent.MustNew(nndescent.DefaultConfig(4)),
		Search:  graph.SearchParams{MC: 16, Eps: 1.2}, Seed: 3,
		Compression: sq.SQ8,
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

// TestLegacyV2Loads feeds the loader a byte-exact version-2 file (CRC
// footer, no codes sections) and checks it restores and searches flat.
func TestLegacyV2Loads(t *testing.T) {
	ix := buildMBI(t, 45)
	raw := saveMBIOld(t, ix, crcVersion)
	got, err := LoadMBI(bytes.NewReader(raw), ix.Options())
	if err != nil {
		t.Fatalf("LoadMBI rejected a version-2 file: %v", err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, b := range got.Blocks() {
		if b.Codes != nil {
			t.Fatal("version-2 file restored with codes")
		}
	}
	q := make([]float32, 6)
	want := search(ix, q, 5, 0, 1<<40)
	have := search(got, q, 5, 0, 1<<40)
	if len(want) != len(have) {
		t.Fatalf("loaded index found %d results, want %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("result %d: loaded %v, original %v", i, have[i], want[i])
		}
	}
}

// TestLegacyV3Loads feeds the loader a byte-exact version-3 file (codes
// presence bytes, no location bytes) and checks codes and search results
// survive the load.
func TestLegacyV3Loads(t *testing.T) {
	ix := buildCompressedMBI(t, 45)
	raw := saveMBIv3(t, ix)
	got, err := LoadMBI(bytes.NewReader(raw), ix.Options())
	if err != nil {
		t.Fatalf("LoadMBI rejected a version-3 file: %v", err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	orig := ix.Blocks()
	hasCodes := false
	for i, b := range got.Blocks() {
		if b.Spilled {
			t.Fatal("version-3 file restored with spilled blocks")
		}
		if (b.Codes == nil) != (orig[i].Codes == nil) {
			t.Fatalf("block %d: codes presence changed across v3 load", i)
		}
		if b.Codes != nil {
			hasCodes = true
			if !bytes.Equal(b.Codes.Data, orig[i].Codes.Data) {
				t.Fatalf("block %d: codes not byte-identical after v3 load", i)
			}
		}
	}
	if !hasCodes {
		t.Fatal("test index built no codes")
	}
	q := make([]float32, 6)
	want := search(ix, q, 5, 0, 1<<40)
	have := search(got, q, 5, 0, 1<<40)
	if len(want) != len(have) {
		t.Fatalf("loaded index found %d results, want %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("result %d: loaded %v, original %v", i, have[i], want[i])
		}
	}
}

// TestCompressedRoundTrip checks that a compressed index's codes survive
// serialization byte-identically (the CRC footer covers them) and the
// restored index answers compressed queries like the original.
func TestCompressedRoundTrip(t *testing.T) {
	ix := buildCompressedMBI(t, 45)
	orig := ix.Blocks()
	hasCodes := false
	for _, b := range orig {
		if b.Codes != nil {
			hasCodes = true
		}
	}
	if !hasCodes {
		t.Fatal("test index built no codes")
	}

	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	got, err := LoadMBI(bytes.NewReader(raw), ix.Options())
	if err != nil {
		t.Fatal(err)
	}
	loaded := got.Blocks()
	if len(loaded) != len(orig) {
		t.Fatalf("loaded %d blocks, want %d", len(loaded), len(orig))
	}
	for i := range orig {
		a, b := orig[i].Codes, loaded[i].Codes
		if (a == nil) != (b == nil) {
			t.Fatalf("block %d: codes presence changed across round trip", i)
		}
		if a == nil {
			continue
		}
		if a.Dim != b.Dim || a.N != b.N ||
			!bytes.Equal(a.Data, b.Data) ||
			!float32Equal(a.Min, b.Min) || !float32Equal(a.Step, b.Step) ||
			!float32Equal(a.Norms, b.Norms) {
			t.Fatalf("block %d: codes not byte-identical after round trip", i)
		}
	}

	q := make([]float32, 6)
	want := search(ix, q, 5, 0, 1<<40)
	have := search(got, q, 5, 0, 1<<40)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("result %d: loaded %v, original %v", i, have[i], want[i])
		}
	}

	// Corrupting one byte of the last block's codes section (it ends just
	// before the 8-byte footer) must trip the checksum, not load garbage.
	bad := append([]byte{}, raw...)
	bad[len(bad)-20] ^= 0x01
	if _, err := LoadMBI(bytes.NewReader(bad), ix.Options()); err == nil {
		t.Fatal("LoadMBI accepted a corrupted compressed file")
	}
}

func float32Equal(a, b []float32) bool {
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
