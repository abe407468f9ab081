package persist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sq"
)

// Per-block segment files: tiered storage spills one sealed block's
// payload (graph + optional SQ8 codes) into one independently loadable
// file, reusing the v3 block encoding inside its own CRC envelope.
//
// Layout (all little-endian, hashed by the footer's CRC32C):
//
//	u64 segMagic, u64 segVersion
//	u64 blockID, u64 lo, u64 hi, u64 height, u64 dim
//	graph   (writeGraph: u64 offset count, u64 edge count, i32 offsets, i32 edges)
//	codes   (writeCodes: presence byte + payload)
//	u32 footerMagic, u32 crc32c   (past the hash, like the snapshot footer)
//
// ReadSegment decodes it in one pass with the snapshot loaders' decoder:
// each array streams through a fixed byte window that is hashed and
// decoded into a result allocated once (counts are untrusted, so
// readSlice bounds every allocation), the offsets are validated once
// decoded and each edge as its window lands (graph.ValidateOffsets and
// graph.CheckEdges, the two halves of CSR.Validate). The decoded
// structures are then cross-validated against the header (node count ==
// hi-lo) before the payload is accepted, so a corrupt-but-CRC-passing
// segment still cannot reach a kernel.
const (
	segMagic   = uint64(0x4d424953) // "MBIS"
	segVersion = uint64(1)
)

// segFaultWriter routes segment bytes through the persist.segment.write
// injection point: a Truncate rule models the process dying (or the
// disk giving out) partway through a spill. It sits under the
// crcWriter so injected short writes corrupt the file exactly like a
// real torn write would.
type segFaultWriter struct {
	w io.Writer
}

func (s *segFaultWriter) Write(p []byte) (int, error) {
	if fault.Enabled {
		if keep, ferr := fault.Cut("persist.segment.write", len(p)); ferr != nil {
			n, _ := s.w.Write(p[:keep])
			return n, ferr
		}
	}
	return s.w.Write(p)
}

// WriteSegment encodes one block payload to w. id/lo/hi/height identify
// the block; dim is the index dimension (validated on load). g must be
// non-nil; codes may be nil.
func WriteSegment(w io.Writer, id, lo, hi, height, dim int, g *graph.CSR, codes *sq.Codes) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: &segFaultWriter{w: bw}}
	if err := writeInts(cw, segMagic, segVersion); err != nil {
		return err
	}
	if err := writeInts(cw, uint64(id), uint64(lo), uint64(hi), uint64(height), uint64(dim)); err != nil {
		return err
	}
	if err := writeGraph(cw, g); err != nil {
		return err
	}
	if err := writeCodes(cw, codes); err != nil {
		return err
	}
	// Footer past the hash, like the snapshot footer: it vouches for
	// everything before itself.
	if err := writeFooter(bw, cw.sum); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSegment decodes one block payload from r, verifying the CRC
// footer and that the segment describes block wantID of a wantDim
// index. It returns the graph, the optional codes, and the block range
// the segment claims; the caller must check that range against its own
// block table before using the payload.
func ReadSegment(r io.Reader, wantID, wantDim int) (*graph.CSR, *sq.Codes, int, int, error) {
	d := newDecoder(r)
	var m, ver uint64
	if err := readInts(d, &m, &ver); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment header: %w", err)
	}
	if m != segMagic {
		return nil, nil, 0, 0, fmt.Errorf("persist: bad segment magic %#x", m)
	}
	if ver != segVersion {
		return nil, nil, 0, 0, fmt.Errorf("persist: unsupported segment version %d", ver)
	}
	var id, lo, hi, height, dim uint64
	if err := readInts(d, &id, &lo, &hi, &height, &dim); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment header: %w", err)
	}
	if id != uint64(wantID) {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment holds block %d, want %d", id, wantID)
	}
	if dim != uint64(wantDim) {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment has dim %d, want %d", dim, wantDim)
	}
	if lo > hi || hi > 1<<40 || height > 64 {
		return nil, nil, 0, 0, fmt.Errorf("persist: implausible segment range [%d,%d) height %d", lo, hi, height)
	}
	g, err := readGraph(d)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	codes, err := readCodes(d)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := verifyFooter(uint32(crcVersion), d.br, d.sum); err != nil {
		return nil, nil, 0, 0, err
	}
	// Structural cross-checks after the CRC: a valid checksum proves the
	// bytes are what was written, not that what was written matches this
	// block.
	n := int(hi - lo)
	if g.NumNodes() != n {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment graph has %d nodes for range [%d,%d)", g.NumNodes(), lo, hi)
	}
	if codes != nil && (codes.N != n || codes.Dim != wantDim) {
		return nil, nil, 0, 0, fmt.Errorf("persist: segment codes cover %d rows (dim %d) for range [%d,%d)", codes.N, codes.Dim, lo, hi)
	}
	return g, codes, int(lo), int(hi), nil
}

// SegmentFileName is the on-disk name of block id's segment.
func SegmentFileName(id int) string {
	return fmt.Sprintf("block-%08d.seg", id)
}

// WriteSegmentFile durably writes one block's segment into dir using
// the temp-file + fsync + rename + dir-sync discipline: a crash at any
// point leaves either no segment or a complete one — a torn temp file
// is never picked up because loads open only the final name. It
// returns the segment's byte size.
func WriteSegmentFile(dir string, id, lo, hi, height, dim int, g *graph.CSR, codes *sq.Codes) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	final := filepath.Join(dir, SegmentFileName(id))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := WriteSegment(f, id, lo, hi, height, dim, g, codes); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return 0, err
	}
	if err := syncSegDir(dir); err != nil {
		return 0, err
	}
	return size, nil
}

// ReadSegmentFile loads block id's segment from dir, verifying identity
// and integrity, and returns the payload plus the block range the
// segment claims.
func ReadSegmentFile(dir string, id, dim int) (*graph.CSR, *sq.Codes, int, int, error) {
	f, err := os.Open(filepath.Join(dir, SegmentFileName(id)))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	g, codes, lo, hi, err := ReadSegment(f, id, dim)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return g, codes, lo, hi, nil
}

// syncSegDir fsyncs a directory so a just-renamed segment's entry is
// durable (the WAL package keeps its own private copy of this helper).
func syncSegDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}
