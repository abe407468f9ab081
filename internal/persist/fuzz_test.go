package persist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
)

// TestLoadNeverPanicsOnCorruptInput flips, truncates, and splices random
// bytes into valid index files and asserts the loaders always return an
// error or a valid index — never panic, never hang. This is the safety
// property a durable format must have: a torn write or disk corruption
// must not take the process down.
func TestLoadNeverPanicsOnCorruptInput(t *testing.T) {
	ix := buildMBI(t, 40)
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(99))

	check := func(raw []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("LoadMBI panicked on corrupt input: %v", r)
			}
		}()
		got, err := LoadMBI(bytes.NewReader(raw), ix.Options())
		if err == nil && got != nil {
			// Rarely a mutation leaves the file valid; the result must
			// then be structurally sound.
			if invErr := got.CheckInvariants(); invErr != nil {
				t.Fatalf("loader accepted corrupt file with broken invariants: %v", invErr)
			}
		}
	}

	for trial := 0; trial < 300; trial++ {
		raw := append([]byte{}, valid...)
		switch trial % 4 {
		case 0: // flip 1-8 random bytes
			for f := 0; f <= rng.Intn(8); f++ {
				raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate at a random point
			raw = raw[:rng.Intn(len(raw))]
		case 2: // duplicate a random chunk into a random offset
			lo := rng.Intn(len(raw))
			hi := lo + rng.Intn(len(raw)-lo)
			at := rng.Intn(len(raw))
			raw = append(raw[:at], append(append([]byte{}, raw[lo:hi]...), raw[at:]...)...)
		case 3: // random garbage of the same length
			rng.Read(raw)
		}
		check(raw)
	}
}

// countTarget is the minimal wal.Target for replay fuzzing: it accepts
// everything and counts.
type countTarget struct{ n int }

func (c *countTarget) Add(v []float32, t int64) error { c.n++; return nil }
func (c *countTarget) Save(io.Writer) error           { return nil }
func (c *countTarget) Len() int                       { return c.n }

// TestWALRecordReplayNeverPanics extends the corrupt-input sweep to the
// WAL record format: mutate a valid segment the way torn writes and bit
// rot would and assert wal.Replay always returns an error or a
// self-consistent record count — never panics, never hangs. Durability
// holds only if both layers (snapshot files above, log records here)
// survive arbitrary corruption.
func TestWALRecordReplayNeverPanics(t *testing.T) {
	src := t.TempDir()
	m, err := wal.Open(wal.Config{Dir: src, Sync: wal.SyncNever},
		func(io.Reader) (wal.Target, error) { return &countTarget{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	v := make([]float32, 6)
	for i := 0; i < 40; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := m.Append(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segName := ""
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segName = e.Name()
		}
	}
	if segName == "" {
		t.Fatal("no segment written")
	}
	valid, err := os.ReadFile(filepath.Join(src, segName))
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 300; trial++ {
		raw := append([]byte{}, valid...)
		switch trial % 4 {
		case 0: // flip 1-8 random bytes
			for f := 0; f <= rng.Intn(8); f++ {
				raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate at a random point
			raw = raw[:rng.Intn(len(raw))]
		case 2: // duplicate a random chunk into a random offset
			lo := rng.Intn(len(raw))
			hi := lo + rng.Intn(len(raw)-lo)
			at := rng.Intn(len(raw))
			raw = append(raw[:at], append(append([]byte{}, raw[lo:hi]...), raw[at:]...)...)
		case 3: // random garbage of the same length
			rng.Read(raw)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("wal.Replay panicked on corrupt segment (trial %d): %v", trial, r)
				}
			}()
			var applied uint64
			stats, err := wal.Replay(dir, 0, func(seq uint64, ts int64, v []float32) error {
				applied++
				return nil
			})
			if err == nil && stats.Applied != applied {
				t.Fatalf("trial %d: stats say %d applied, callback saw %d", trial, stats.Applied, applied)
			}
		}()
	}
}

// TestLoadSFNeverPanics mirrors the MBI fuzz for the SF format.
func TestLoadSFNeverPanics(t *testing.T) {
	ix := buildMBI(t, 20) // reuse data via MBI, then save as garbage input source
	var buf bytes.Buffer
	if err := SaveMBI(&buf, ix); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		raw := append([]byte{}, valid...)
		for f := 0; f <= rng.Intn(6); f++ {
			raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadSF panicked: %v", r)
				}
			}()
			// Any outcome but a panic is acceptable; kind mismatch is the
			// common path since this is an MBI file.
			_, _ = LoadSF(bytes.NewReader(raw), nil)
		}()
	}
}

// FuzzReadGraphMatchesValidate is the decoder's differential check:
// readGraph validates offsets and edges as they land, and it must accept
// exactly the bytes that a check-free decode followed by CSR.Validate
// accepts, returning the same graph, and never panic. The seeds are
// encoded graphs, valid and not, including one whose edges span several
// decode windows; the fuzzer mutates their bytes.
//
//	go test -run '^$' -fuzz FuzzReadGraphMatchesValidate ./internal/persist
func FuzzReadGraphMatchesValidate(f *testing.F) {
	// A valid graph of more than one window of edges, with empty nodes.
	lists := make([][]int32, 300)
	for i := range lists {
		for j := 0; i%7 != 0 && j < 20; j++ {
			lists[i] = append(lists[i], int32((i+1+j*13)%len(lists)))
		}
	}
	for _, g := range []*graph.CSR{
		{},                                       // no offsets at all
		{Off: []int32{0}},                        // 0 nodes (an unbuilt SF graph)
		{Off: []int32{0, 0}},                     // 1 node
		{Off: []int32{0, 1}, Adj: []int32{0}},    // self-loop
		{Off: []int32{0, 1, 1}, Adj: []int32{5}}, // out-of-range neighbour
		{Off: []int32{0, 1, 2}, Adj: []int32{-1, 0}}, // negative neighbour
		{Off: []int32{0, 2, 1}, Adj: []int32{1, 0}},  // non-monotone offsets
		{Off: []int32{0, 1}, Adj: []int32{1, 0}},     // last offset != edge count
		{Off: []int32{1, 2}, Adj: []int32{0, 1}},     // first offset != 0
		{Adj: []int32{0}},                            // edges without offsets
		graph.FromLists([][]int32{{1, 2}, {0}, {}}),  // small and valid
		graph.FromLists(lists),
	} {
		var b bytes.Buffer
		if err := writeGraph(&b, g); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := readGraph(newDecoder(bytes.NewReader(raw)))
		want, werr := decodeGraphUnchecked(raw)
		if werr == nil {
			werr = want.Validate()
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("readGraph error %v, check-free decode + Validate error %v", err, werr)
		}
		if err == nil && (!slices.Equal(got.Off, want.Off) || !slices.Equal(got.Adj, want.Adj)) {
			t.Fatalf("readGraph decoded %v / %v, reference %v / %v", got.Off, got.Adj, want.Off, want.Adj)
		}
	})
}

// decodeGraphUnchecked is the reference decode for the fuzzer: the
// writeGraph layout read back with no structural check at all.
func decodeGraphUnchecked(raw []byte) (*graph.CSR, error) {
	if len(raw) < 16 {
		return nil, io.ErrUnexpectedEOF
	}
	nOff, nAdj := binary.LittleEndian.Uint64(raw), binary.LittleEndian.Uint64(raw[8:])
	raw = raw[16:]
	if nOff > uint64(len(raw))/4 || nAdj > uint64(len(raw))/4 || 4*(nOff+nAdj) > uint64(len(raw)) {
		return nil, io.ErrUnexpectedEOF
	}
	g := &graph.CSR{Off: make([]int32, nOff), Adj: make([]int32, nAdj)}
	if err := binary.Read(bytes.NewReader(raw), binary.LittleEndian, g.Off); err != nil {
		return nil, err
	}
	if err := binary.Read(bytes.NewReader(raw[4*nOff:]), binary.LittleEndian, g.Adj); err != nil {
		return nil, err
	}
	return g, nil
}
