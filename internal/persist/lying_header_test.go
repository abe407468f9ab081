package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/vec"
	"repro/internal/wal"
)

// TestLyingHeaderCostsAtMostAChunk: every decoder that reads a count from
// disk must treat it as untrusted. A well-formed header claiming a huge
// payload, followed by a truncated body, fails with an error having
// allocated at most a read chunk — never the claimed size.
func TestLyingHeaderCostsAtMostAChunk(t *testing.T) {
	const dim, n = 1 << 20, 1 << 12 // n*dim float32s claim 16 GiB

	// A snapshot header, then the n timestamps, then the first few bytes of
	// the n*dim floats it promised.
	snapshot := func(kind uint8) []byte {
		var b bytes.Buffer
		if err := writeHeader(&b, kind, vec.Euclidean, dim, n); err != nil {
			t.Fatal(err)
		}
		b.Write(make([]byte, 8*n+64))
		return b.Bytes()
	}
	// A segment header, then a graph claiming 2^32 offsets and 2^32 edges.
	var segment bytes.Buffer
	if err := writeInts(&segment, segMagic, segVersion, 0, 0, 1, 0, 8, 1<<32, 1<<32); err != nil {
		t.Fatal(err)
	}
	segment.Write(make([]byte, 64))

	cases := []struct {
		name   string
		decode func() error
	}{
		{"LoadMBI", func() error {
			_, err := LoadMBI(bytes.NewReader(snapshot(kindMBI)), core.Options{Dim: dim, Metric: vec.Euclidean})
			return err
		}},
		{"LoadSF", func() error {
			_, err := LoadSF(bytes.NewReader(snapshot(kindSF)), nil)
			return err
		}},
		{"ReadSegment", func() error {
			_, _, _, _, err := ReadSegment(bytes.NewReader(segment.Bytes()), 0, 8)
			return err
		}},
		{"wal.Replay", func() error {
			// A sealed log segment (a later one exists, so its damage is
			// an error, not a torn tail) whose one record claims 1 GiB.
			dir := t.TempDir()
			seg := func(first uint64, records ...byte) {
				hdr := binary.LittleEndian.AppendUint32(nil, 0x5457414c) // "TWAL"
				hdr = binary.LittleEndian.AppendUint32(hdr, 1)
				hdr = binary.LittleEndian.AppendUint64(hdr, first)
				name := filepath.Join(dir, fmt.Sprintf("wal-%020d.seg", first))
				if err := os.WriteFile(name, append(hdr, records...), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			rec := binary.LittleEndian.AppendUint32(nil, 1<<30) // payload length
			rec = binary.LittleEndian.AppendUint32(rec, 0)      // payload CRC
			seg(0, append(rec, make([]byte, 64)...)...)
			seg(1)
			_, err := wal.Replay(dir, 0, func(uint64, int64, []float32) error { return nil })
			return err
		}},
	}
	const budget = 64 << 20
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a truncated body behind a lying header decoded without error", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
			t.Errorf("%s: allocated %d MiB for a truncated body (budget %d MiB)", c.name, grew>>20, budget>>20)
		}
	}
}
