package persist

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/sq"
	"repro/internal/vec"
)

// dirSpillConfig wires a core index's tiered storage to segment files
// in dir — the same closures the tknn facade builds.
func dirSpillConfig(dir string, dim, maxHeight int, cacheBytes int64) *core.SpillConfig {
	return &core.SpillConfig{
		Write: func(id, lo, hi, height int, g *graph.CSR, c *sq.Codes) (int64, error) {
			return WriteSegmentFile(dir, id, lo, hi, height, dim, g, c)
		},
		Load: func(ctx context.Context, key uint64) (blockcache.Value, error) {
			g, c, _, _, err := ReadSegmentFile(dir, int(key), dim)
			if err != nil {
				return blockcache.Value{}, err
			}
			return blockcache.Value{Graph: g, Codes: c}, nil
		},
		MaxHeight:  maxHeight,
		CacheBytes: cacheBytes,
	}
}

// buildSpillMBI builds an index with tiered storage into dir and n
// appended vectors, optionally SQ8-compressed.
func buildSpillMBI(t *testing.T, dir string, n int, compress bool) *core.Index {
	t.Helper()
	opts := core.Options{
		Dim: 6, Metric: vec.Euclidean, LeafSize: 8, Tau: 0.5,
		Builder: nndescent.MustNew(nndescent.DefaultConfig(4)),
		Search:  graph.SearchParams{MC: 16, Eps: 1.2}, Seed: 3,
		Spill: dirSpillConfig(dir, 6, 8, 1<<20),
	}
	if compress {
		opts.Compression = sq.SQ8
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

func segPayload(t *testing.T) (*graph.CSR, *sq.Codes) {
	t.Helper()
	store := vec.NewStore(6)
	rng := rand.New(rand.NewSource(7))
	v := make([]float32, 6)
	for i := 0; i < 16; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if _, err := store.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	b := nndescent.MustNew(nndescent.DefaultConfig(4))
	g := b.Build(vec.View{Store: store, Lo: 0, Hi: 16, Metric: vec.Euclidean}, 1)
	codes := sq.Train(store, 0, 16, sq.TrainConfig{})
	return g, codes
}

func TestSegmentRoundTrip(t *testing.T) {
	g, codes := segPayload(t)
	for _, withCodes := range []bool{false, true} {
		var c *sq.Codes
		if withCodes {
			c = codes
		}
		var buf bytes.Buffer
		if err := WriteSegment(&buf, 3, 16, 32, 1, 6, g, c); err != nil {
			t.Fatal(err)
		}
		g2, c2, lo, hi, err := ReadSegment(bytes.NewReader(buf.Bytes()), 3, 6)
		if err != nil {
			t.Fatalf("ReadSegment (codes=%v): %v", withCodes, err)
		}
		if lo != 16 || hi != 32 {
			t.Fatalf("segment range [%d,%d), want [16,32)", lo, hi)
		}
		if !equalInt32(g.Off, g2.Off) || !equalInt32(g.Adj, g2.Adj) {
			t.Fatal("graph not byte-identical after round trip")
		}
		if (c2 != nil) != withCodes {
			t.Fatalf("codes presence = %v, want %v", c2 != nil, withCodes)
		}
		if withCodes && !bytes.Equal(c.Data, c2.Data) {
			t.Fatal("codes not byte-identical after round trip")
		}
	}
}

func TestSegmentRejectsCorruptionAndTruncation(t *testing.T) {
	g, codes := segPayload(t)
	var buf bytes.Buffer
	if err := WriteSegment(&buf, 0, 0, 16, 0, 6, g, codes); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Every single-byte flip must be rejected (header checks or CRC).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 64; trial++ {
		bad := append([]byte{}, raw...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		if _, _, _, _, err := ReadSegment(bytes.NewReader(bad), 0, 6); err == nil {
			t.Fatalf("trial %d: ReadSegment accepted a corrupted segment", trial)
		}
	}
	// A torn write — the file cut at any offset — must be rejected too:
	// this is the kill-at-a-random-offset model for segment spills.
	for trial := 0; trial < 64; trial++ {
		cut := rng.Intn(len(raw))
		if _, _, _, _, err := ReadSegment(bytes.NewReader(raw[:cut]), 0, 6); err == nil {
			t.Fatalf("trial %d: ReadSegment accepted a segment truncated at %d/%d", trial, cut, len(raw))
		}
	}
}

func TestSegmentRejectsWrongIdentity(t *testing.T) {
	g, _ := segPayload(t)
	var buf bytes.Buffer
	if err := WriteSegment(&buf, 5, 0, 16, 0, 6, g, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadSegment(bytes.NewReader(buf.Bytes()), 6, 6); err == nil {
		t.Fatal("ReadSegment accepted a segment for the wrong block id")
	}
	if _, _, _, _, err := ReadSegment(bytes.NewReader(buf.Bytes()), 5, 8); err == nil {
		t.Fatal("ReadSegment accepted a segment with the wrong dimension")
	}
}

func TestWriteSegmentFileDurableAndTornTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	g, codes := segPayload(t)
	size, err := WriteSegmentFile(dir, 2, 0, 16, 0, 6, g, codes)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, SegmentFileName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != size {
		t.Fatalf("reported size %d, file is %d", size, info.Size())
	}
	// A torn temp file from a killed writer must never be read: loads
	// open only the final name.
	torn := filepath.Join(dir, SegmentFileName(3)+".tmp")
	if err := os.WriteFile(torn, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadSegmentFile(dir, 3, 6); err == nil {
		t.Fatal("ReadSegmentFile read a block that was never renamed into place")
	}
	if _, _, _, _, err := ReadSegmentFile(dir, 2, 6); err != nil {
		t.Fatalf("ReadSegmentFile(2): %v", err)
	}
}

// TestSpilledSnapshotRoundTrip is the v4 format test: spill an index,
// snapshot it, reload it, and check that the spilled blocks restore as
// segment references whose queries produce results identical to the
// RAM-resident original.
func TestSpilledSnapshotRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		dir := t.TempDir()
		ix := buildSpillMBI(t, dir, 45, compress)

		q := make([]float32, 6)
		want := search(ix, q, 5, 0, 1<<40)

		n, bytesSpilled, err := ix.SpillCold()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || bytesSpilled == 0 {
			t.Fatal("SpillCold spilled nothing")
		}

		var buf bytes.Buffer
		if err := SaveMBI(&buf, ix); err != nil {
			t.Fatal(err)
		}
		got, err := LoadMBI(bytes.NewReader(buf.Bytes()), ix.Options())
		if err != nil {
			t.Fatal(err)
		}
		spilled := 0
		for _, b := range got.Blocks() {
			if b.Spilled {
				spilled++
				if b.Graph != nil || b.Codes != nil {
					t.Fatal("spilled block restored with a RAM payload")
				}
			}
		}
		if spilled != n {
			t.Fatalf("restored %d spilled blocks, spilled %d", spilled, n)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}

		// Cold queries on the restored index must match the all-RAM
		// results bit-for-bit (same entries, same payload bytes).
		have, out := got.Query(context.Background(), core.NewScratch(), core.Request{Q: q, K: 5, Ts: 0, Te: 1 << 40})
		if out.Partial {
			t.Fatal("cold query reported Partial")
		}
		if len(want) != len(have) {
			t.Fatalf("cold query found %d results, want %d", len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("compress=%v result %d: cold %v, RAM %v", compress, i, have[i], want[i])
			}
		}
	}
}

// TestSpilledLoadRequiresSpillConfig pins the failure mode of loading a
// v4 file with segment references into an index with tiering disabled:
// a load-time error, not a latent nil-graph panic.
func TestSpilledLoadRequiresSpillConfig(t *testing.T) {
	dir := t.TempDir()
	ix := buildSpillMBI(t, dir, 45, false)
	if _, _, err := ix.SpillCold(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	opts := ix.Options()
	opts.Spill = nil
	if _, err := LoadMBI(bytes.NewReader(buf.Bytes()), opts); err == nil {
		t.Fatal("LoadMBI restored spilled blocks without a spill config")
	}
}
