// Package persist serializes indexes to a versioned little-endian binary
// format. Besides durability (the satellite example saves and reloads its
// index), serialization is how the experiments measure index size: the
// "Index Sizes" of Table 4 and Figure 7b are the byte counts these
// encoders produce, covering vectors, timestamps, and every block graph.
//
// Format history: version 1 had no integrity check, so a truncated or
// bit-rotted file could deserialize into garbage. Version 2 appends an
// 8-byte footer — magic plus the CRC32C of every preceding byte — which
// the loaders verify before restoring. Version 3 follows each MBI block's
// graph with a presence byte and, when set, the block's SQ8 codes
// (per-dim quantizer parameters, 1-byte codes, cached norms), all inside
// the CRC envelope. Version-1 and version-2 files are still read; they
// simply restore with no codes, searching flat.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sf"
	"repro/internal/sq"
	"repro/internal/vec"
)

// Format constants.
const (
	magic = uint32(0x4d424958) // "MBIX"
	// version 4 added a per-block location byte so spilled blocks persist
	// as segment references instead of inline payloads; version 3 added
	// optional per-block SQ8 codes; version 2 appended the CRC32C footer.
	// All predecessors remain readable.
	version         = uint32(4)
	crcVersion      = uint32(2)
	legacyVersion   = uint32(1)
	minCodeVersion  = uint32(3) // first version carrying per-block codes
	minSpillVersion = uint32(4) // first version carrying per-block location bytes

	// Per-block location byte values (v4+).
	locInline  = uint8(0) // graph (+codes) follow inline
	locSpilled = uint8(1) // payload lives in the block's segment file; u64 size follows

	kindMBI = uint8(0)
	kindSF  = uint8(1)

	footerMagic = uint32(0x4d424946) // "MBIF"
)

var order = binary.LittleEndian

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter hashes everything written through it with CRC32C, so the
// footer can vouch for the exact bytes on disk.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	if fault.Enabled {
		// Injection point persist.write: every snapshot byte funnels
		// through this writer, so an Error/Truncate rule models a disk
		// that gave out mid-serialization.
		if keep, ferr := fault.Cut("persist.write", len(p)); ferr != nil {
			n, _ := c.w.Write(p[:keep])
			c.sum = crc32.Update(c.sum, castagnoli, p[:n])
			return n, ferr
		}
	}
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

// decoder is the one reader every snapshot and segment load goes
// through. It hashes exactly the bytes the parser consumes with CRC32C,
// so it must sit ON TOP of the bufio reader, not under it: bufio reads
// ahead, and read-ahead bytes (including the footer itself) must not
// enter the sum. Payload arrays stream through its fixed window (see
// readSlice).
type decoder struct {
	br  *bufio.Reader
	sum uint32
	win [window]byte
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{br: bufio.NewReader(r)}
}

func (d *decoder) Read(p []byte) (int, error) {
	if fault.Enabled {
		// Injection point persist.read: a failed read while restoring a
		// snapshot — the WAL manager must fall back to an older
		// checkpoint (or the full log) instead of dying.
		if err := fault.Hit("persist.read"); err != nil {
			return 0, err
		}
	}
	n, err := d.br.Read(p)
	d.sum = crc32.Update(d.sum, castagnoli, p[:n])
	return n, err
}

// writeFooter appends the integrity footer: magic + CRC32C of every
// preceding byte. Written past the crcWriter — the footer does not hash
// itself.
func writeFooter(w io.Writer, sum uint32) error {
	return binaryWrite(w, footerMagic, sum)
}

// verifyFooter checks the integrity footer against the bytes the parser
// consumed. Version-1 files predate the footer and are accepted as-is;
// a version-2 file with a missing or mismatched footer was truncated or
// corrupted and fails loudly.
func verifyFooter(ver uint32, r io.Reader, sum uint32) error {
	if ver < 2 {
		return nil
	}
	var m, want uint32
	if err := binaryRead(r, &m, &want); err != nil {
		return fmt.Errorf("persist: reading integrity footer (file truncated?): %w", err)
	}
	if m != footerMagic {
		return fmt.Errorf("persist: bad footer magic %#x (file truncated?)", m)
	}
	if sum != want {
		return fmt.Errorf("persist: checksum mismatch: file says %#x, content hashes to %#x", want, sum)
	}
	return nil
}

// SaveMBI writes ix to w. Outstanding asynchronous merges are flushed
// first so the file is always quiescent (restorable).
func SaveMBI(w io.Writer, ix *core.Index) error {
	ix.Flush()
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	store := ix.Store()
	times := ix.Times()
	if err := writeHeader(cw, kindMBI, ix.Options().Metric, store.Dim(), len(times)); err != nil {
		return err
	}
	if err := writeData(cw, store, times); err != nil {
		return err
	}
	opts := ix.Options()
	blocks := ix.Blocks()
	forest := ix.Forest()
	if err := writeInts(cw, uint64(opts.LeafSize), uint64(ix.OpenLo()), uint64(len(blocks)), uint64(len(forest))); err != nil {
		return err
	}
	for _, root := range forest {
		if err := writeInts(cw, uint64(root)); err != nil {
			return err
		}
	}
	for _, b := range blocks {
		if err := writeInts(cw, uint64(b.Lo), uint64(b.Hi), uint64(b.Height)); err != nil {
			return err
		}
		if b.Spilled {
			// Spilled block: the snapshot records a segment reference,
			// not the payload — recovery composes snapshot + segment
			// files + WAL suffix. The spill happened before this
			// snapshot was cut (checkpoint orders it), so the segment
			// is already durable.
			if err := binaryWrite(cw, locSpilled); err != nil {
				return err
			}
			if err := writeInts(cw, uint64(b.SegBytes)); err != nil {
				return err
			}
			continue
		}
		if err := binaryWrite(cw, locInline); err != nil {
			return err
		}
		if err := writeGraph(cw, b.Graph); err != nil {
			return err
		}
		if err := writeCodes(cw, b.Codes); err != nil {
			return err
		}
	}
	if err := writeFooter(bw, cw.sum); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadMBI reads an MBI index from r. opts supplies everything the format
// does not carry (builder, τ, search defaults, workers, seed); its Dim,
// Metric, and LeafSize must match the file.
func LoadMBI(r io.Reader, opts core.Options) (*core.Index, error) {
	d := newDecoder(r)
	ver, metric, dim, n, err := readHeader(d, kindMBI)
	if err != nil {
		return nil, err
	}
	if opts.Dim != dim {
		return nil, fmt.Errorf("persist: file has dim %d, options say %d", dim, opts.Dim)
	}
	if opts.Metric != metric {
		return nil, fmt.Errorf("persist: file has metric %v, options say %v", metric, opts.Metric)
	}
	store, times, err := readData(d, dim, n)
	if err != nil {
		return nil, err
	}
	var leafSize, openLo, numBlocks, numForest uint64
	if err := readInts(d, &leafSize, &openLo, &numBlocks, &numForest); err != nil {
		return nil, err
	}
	if opts.LeafSize != int(leafSize) {
		return nil, fmt.Errorf("persist: file has leaf size %d, options say %d", leafSize, opts.LeafSize)
	}
	if numBlocks > uint64(n)+1 || numForest > numBlocks {
		return nil, fmt.Errorf("persist: implausible block counts (%d blocks, %d roots, %d vectors)", numBlocks, numForest, n)
	}
	// Grown by append rather than count-sized make: the counts are
	// untrusted (see readSlice).
	forest := make([]int, 0, min(int(numForest), readChunk))
	for i := uint64(0); i < numForest; i++ {
		var v uint64
		if err := readInts(d, &v); err != nil {
			return nil, err
		}
		forest = append(forest, int(v))
	}
	blocks := make([]core.Block, 0, min(int(numBlocks), readChunk))
	for i := uint64(0); i < numBlocks; i++ {
		var lo, hi, height uint64
		if err := readInts(d, &lo, &hi, &height); err != nil {
			return nil, err
		}
		loc := locInline
		if ver >= minSpillVersion {
			if err := binaryRead(d, &loc); err != nil {
				return nil, err
			}
		}
		b := core.Block{Lo: int(lo), Hi: int(hi), Height: int(height)}
		switch loc {
		case locSpilled:
			var segBytes uint64
			if err := readInts(d, &segBytes); err != nil {
				return nil, err
			}
			b.Spilled = true
			b.SegBytes = int64(segBytes)
		case locInline:
			g, err := readGraph(d)
			if err != nil {
				return nil, err
			}
			b.Graph = g
			if ver >= minCodeVersion {
				if b.Codes, err = readCodes(d); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("persist: bad block location byte %d", loc)
		}
		blocks = append(blocks, b)
	}
	// Footer first: don't hand Restore bytes the checksum disowns. Read
	// from d.br, past the hash — the footer does not hash itself.
	if err := verifyFooter(ver, d.br, d.sum); err != nil {
		return nil, err
	}
	return core.Restore(opts, store, times, blocks, forest, int(openLo))
}

// SaveSF writes ix to w. The index must have a built graph.
func SaveSF(w io.Writer, ix *sf.Index) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	store := ix.Store()
	times := ix.Times()
	if err := writeHeader(cw, kindSF, ix.Metric(), store.Dim(), len(times)); err != nil {
		return err
	}
	if err := writeData(cw, store, times); err != nil {
		return err
	}
	if err := writeInts(cw, uint64(ix.Built())); err != nil {
		return err
	}
	g := ix.Graph()
	if g == nil {
		g = &graph.CSR{Off: []int32{0}}
	}
	if err := writeGraph(cw, g); err != nil {
		return err
	}
	if err := writeFooter(bw, cw.sum); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSF reads an SF index from r; builder is re-attached for future
// rebuilds.
func LoadSF(r io.Reader, builder graph.Builder) (*sf.Index, error) {
	d := newDecoder(r)
	ver, metric, dim, n, err := readHeader(d, kindSF)
	if err != nil {
		return nil, err
	}
	store, times, err := readData(d, dim, n)
	if err != nil {
		return nil, err
	}
	ix := sf.New(dim, metric, builder)
	for i := 0; i < n; i++ {
		if err := ix.Append(store.At(i), times[i]); err != nil {
			return nil, err
		}
	}
	var built uint64
	if err := readInts(d, &built); err != nil {
		return nil, err
	}
	g, err := readGraph(d)
	if err != nil {
		return nil, err
	}
	if err := verifyFooter(ver, d.br, d.sum); err != nil {
		return nil, err
	}
	if built > 0 || g.NumNodes() > 0 {
		if err := ix.Restore(g, int(built)); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// SizeMBI returns the serialized byte size of ix without materializing it.
func SizeMBI(ix *core.Index) (int64, error) {
	var c countingWriter
	if err := SaveMBI(&c, ix); err != nil {
		return 0, err
	}
	return c.n, nil
}

// SizeSF returns the serialized byte size of ix without materializing it.
func SizeSF(ix *sf.Index) (int64, error) {
	var c countingWriter
	if err := SaveSF(&c, ix); err != nil {
		return 0, err
	}
	return c.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func writeHeader(w io.Writer, kind uint8, metric vec.Metric, dim, n int) error {
	if err := writeInts(w, uint64(magic), uint64(version)); err != nil {
		return err
	}
	return binaryWrite(w, kind, uint8(metric), uint32(dim), uint64(n))
}

func readHeader(d *decoder, wantKind uint8) (uint32, vec.Metric, int, int, error) {
	var m, v uint64
	if err := readInts(d, &m, &v); err != nil {
		return 0, 0, 0, 0, err
	}
	if uint32(m) != magic {
		return 0, 0, 0, 0, fmt.Errorf("persist: bad magic %#x", m)
	}
	if uint32(v) < legacyVersion || uint32(v) > version {
		return 0, 0, 0, 0, fmt.Errorf("persist: unsupported version %d", v)
	}
	var kind, metric uint8
	var dim uint32
	var n uint64
	if err := binaryRead(d, &kind, &metric, &dim, &n); err != nil {
		return 0, 0, 0, 0, err
	}
	if kind != wantKind {
		return 0, 0, 0, 0, fmt.Errorf("persist: file holds index kind %d, want %d", kind, wantKind)
	}
	if !vec.Metric(metric).Valid() {
		return 0, 0, 0, 0, fmt.Errorf("persist: invalid metric %d", metric)
	}
	if dim == 0 || dim > 1<<20 {
		return 0, 0, 0, 0, fmt.Errorf("persist: implausible dimension %d", dim)
	}
	if n > 1<<40 {
		return 0, 0, 0, 0, fmt.Errorf("persist: implausible vector count %d", n)
	}
	return uint32(v), vec.Metric(metric), int(dim), int(n), nil
}

func writeData(w io.Writer, store *vec.Store, times []int64) error {
	if err := binary.Write(w, order, times); err != nil {
		return err
	}
	return binary.Write(w, order, store.Raw())
}

func readData(d *decoder, dim, n int) (*vec.Store, []int64, error) {
	times, err := readSlice[int64](d, n, nil)
	if err != nil {
		return nil, nil, err
	}
	buf, err := readSlice[float32](d, n*dim, nil)
	if err != nil {
		return nil, nil, err
	}
	store, err := vec.FromRaw(dim, buf)
	if err != nil {
		return nil, nil, err
	}
	return store, times, nil
}

// Counts in a file are untrusted: a corrupt header must not trigger a
// count-sized allocation. readSlice allocates its result once when the
// count is at most readChunk elements; beyond that it grows the result
// as append does, asking for at most readChunk more elements each time
// the bytes already read fill it. So a truncated or garbage file fails at
// the first missing byte, having allocated no more than one chunk beyond
// a constant multiple of the bytes it really holds.
const readChunk = 1 << 20 // elements per chunk

// window is the decoder's fixed byte window: readSlice reads at most this
// many bytes at a time, hashes them, and decodes them into the result
// while they are still in cache.
const window = 16 << 10

// readSlice decodes n little-endian elements of T from d. check, when
// non-nil, sees each window's elements as they land (at is the index of
// got[0] in the result), so a validation pass rides along with the
// decode instead of re-reading the whole payload after it.
func readSlice[T int32 | int64 | float32 | uint8](d *decoder, n int, check func(at int, got []T) error) ([]T, error) {
	var zero T
	size := binary.Size(zero)
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n {
		at := len(out)
		k := min(n-at, window/size)
		if at+k > cap(out) {
			out = slices.Grow(out, min(n-at, readChunk))
		}
		out = out[:at+k]
		if err := readWindow(d, out[at:], size); err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(at, out[at:]); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// readWindow reads dst's size-byte elements through d's window and
// decodes them into dst. It is a call of its own so that the decode loop
// runs with few live values: inlined into readSlice's loop it kept its
// index on the stack, and BenchmarkReadSegment ran about 10% slower.
func readWindow[T int32 | int64 | float32 | uint8](d *decoder, dst []T, size int) error {
	src := d.win[:len(dst)*size]
	if _, err := io.ReadFull(d, src); err != nil {
		return err
	}
	switch dst := any(dst).(type) {
	case []int32:
		for i := range dst {
			dst[i] = int32(order.Uint32(src[4*i:]))
		}
	case []int64:
		for i := range dst {
			dst[i] = int64(order.Uint64(src[8*i:]))
		}
	case []float32:
		for i := range dst {
			dst[i] = math.Float32frombits(order.Uint32(src[4*i:]))
		}
	case []uint8:
		copy(dst, src)
	}
	return nil
}

func writeGraph(w io.Writer, g *graph.CSR) error {
	if err := writeInts(w, uint64(len(g.Off)), uint64(len(g.Adj))); err != nil {
		return err
	}
	if err := binary.Write(w, order, g.Off); err != nil {
		return err
	}
	return binary.Write(w, order, g.Adj)
}

// readGraph decodes a CSR and applies graph.CSR.Validate's two halves
// on the way in: the offsets once they are decoded, then each edge's
// range and self-loop check as its window lands.
func readGraph(d *decoder) (*graph.CSR, error) {
	var nOff, nAdj uint64
	if err := readInts(d, &nOff, &nAdj); err != nil {
		return nil, err
	}
	if nOff > 1<<40 || nAdj > 1<<40 {
		return nil, fmt.Errorf("persist: implausible graph sizes (%d offsets, %d edges)", nOff, nAdj)
	}
	off, err := readSlice[int32](d, int(nOff), nil)
	if err != nil {
		return nil, err
	}
	if err := graph.ValidateOffsets(off, int(nAdj)); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	g := &graph.CSR{Off: off}
	n := g.NumNodes()
	node := 0 // the node whose edges the next window starts in
	g.Adj, err = readSlice(d, int(nAdj), func(at int, got []int32) error {
		// Walk the window node by node: offsets are valid, so every edge
		// has an owner and each node's run is one contiguous slice.
		i, end := node, at+len(got)
		for e := at; e < end; {
			for int(off[i+1]) <= e {
				i++
			}
			stop := min(int(off[i+1]), end)
			if err := graph.CheckEdges(i, got[e-at:stop-at], n); err != nil {
				return fmt.Errorf("persist: %w", err)
			}
			e = stop
		}
		node = i
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// writeCodes serializes a block's optional SQ8 section: a presence byte,
// then — when present — the code dimensions followed by the quantizer
// parameters, the packed codes, and the cached norms. All of it flows
// through the caller's crcWriter, so the existing footer vouches for the
// codes byte-for-byte.
func writeCodes(w io.Writer, c *sq.Codes) error {
	if c == nil {
		return binaryWrite(w, uint8(0))
	}
	if err := binaryWrite(w, uint8(1)); err != nil {
		return err
	}
	if err := writeInts(w, uint64(c.Dim), uint64(c.N)); err != nil {
		return err
	}
	if err := binary.Write(w, order, c.Min); err != nil {
		return err
	}
	if err := binary.Write(w, order, c.Step); err != nil {
		return err
	}
	if _, err := w.Write(c.Data); err != nil {
		return err
	}
	return binary.Write(w, order, c.Norms)
}

// readCodes reads the optional SQ8 section written by writeCodes. The
// counts are untrusted (readSlice bounds the allocations); the decoded
// structure is validated before use so a corrupt-but-CRC-passing section
// still cannot produce an inconsistent quantizer.
func readCodes(d *decoder) (*sq.Codes, error) {
	var present uint8
	if err := binaryRead(d, &present); err != nil {
		return nil, err
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("persist: bad codes presence byte %d", present)
	}
	var dim, n uint64
	if err := readInts(d, &dim, &n); err != nil {
		return nil, err
	}
	if dim == 0 || dim > 1<<20 || n > 1<<40 {
		return nil, fmt.Errorf("persist: implausible code sizes (dim %d, %d rows)", dim, n)
	}
	c := &sq.Codes{Dim: int(dim), N: int(n)}
	var err error
	if c.Min, err = readSlice[float32](d, int(dim), nil); err != nil {
		return nil, err
	}
	if c.Step, err = readSlice[float32](d, int(dim), nil); err != nil {
		return nil, err
	}
	if c.Data, err = readSlice[uint8](d, int(dim)*int(n), nil); err != nil {
		return nil, err
	}
	if c.Norms, err = readSlice[float32](d, int(n), nil); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return c, nil
}

func writeInts(w io.Writer, vs ...uint64) error {
	for _, v := range vs {
		if err := binary.Write(w, order, v); err != nil {
			return err
		}
	}
	return nil
}

// readInts decodes consecutive u64s through d's window.
func readInts(d *decoder, vs ...*uint64) error {
	b := d.win[:8*len(vs)]
	if _, err := io.ReadFull(d, b); err != nil {
		return err
	}
	for i, v := range vs {
		*v = order.Uint64(b[8*i:])
	}
	return nil
}

func binaryWrite(w io.Writer, vs ...any) error {
	for _, v := range vs {
		if err := binary.Write(w, order, v); err != nil {
			return err
		}
	}
	return nil
}

func binaryRead(r io.Reader, vs ...any) error {
	for _, v := range vs {
		if err := binary.Read(r, order, v); err != nil {
			return err
		}
	}
	return nil
}
