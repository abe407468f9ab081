package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	tknn "repro"
	"repro/internal/blockcache"
	"repro/internal/nndescent"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/sq"
	"repro/internal/vec"
	"repro/internal/wal"
)

// Stopwatch loops around one layer's public functions, on the run's own
// inputs. Each is measured from outside: nothing in the program changes.

// sink keeps the compiler from discarding the kernels' results.
var sink float32

// vecLayer scans the base store with the L2 kernel.
func vecLayer(L map[string]float64, in *inputs) {
	const rounds = 100
	store, q := in.data.Train, in.queries[0].vector
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < in.n0; i++ {
			sink += vec.SquaredL2(q, store.At(i))
		}
	}
	d := time.Since(t)
	dists := float64(rounds * in.n0)
	L["vec.l2_ns_per_dist"] = float64(d.Nanoseconds()) / dists
	L["vec.scan_gbps"] = dists * dim * 4 / 1e9 / d.Seconds()
}

// nndescentLayer builds graphs over ranges the size of a height-0, -3 and
// -5 block with the daemon's builder configuration. A height the base is
// too small for stays 0.
func nndescentLayer(L map[string]float64, in *inputs) error {
	b, err := nndescent.New(nndescent.DefaultConfig(24))
	if err != nil {
		return err
	}
	for _, h := range []int{0, 3, 5} {
		size := leafSize << h
		if size > in.n0 {
			continue
		}
		// Four leaves, one tall block: enough vectors either way that the
		// per-vector cost is steady.
		builds := 1
		if h == 0 {
			builds = 4
		}
		t := time.Now()
		for i := 0; i < builds; i++ {
			b.Build(vec.View{Store: in.data.Train, Lo: i * size, Hi: (i + 1) * size, Metric: vec.Euclidean}, 1)
		}
		L[fmt.Sprintf("nndescent.build_us_per_vec.h%d", h)] = us(time.Since(t)) / float64(builds*size)
	}
	return nil
}

// sqLayer trains a quantizer over the largest block of the base and times
// the asymmetric kernel on it.
func sqLayer(L map[string]float64, in *inputs) {
	n := leafSize
	for n*2 <= in.n0 {
		n *= 2
	}
	t := time.Now()
	codes := sq.Train(in.data.Train, 0, n, sq.TrainConfig{})
	L["sq.train_ms_per_kvec"] = ms(time.Since(t)) / (float64(n) / 1000)
	L["sq.bytes_per_vector"] = float64(codes.Bytes()) / float64(n)

	lut := make([]float32, codes.LUTLen())
	var fill []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		codes.FillLUT(vec.Euclidean, in.queries[i%len(in.queries)].vector, lut)
		fill = append(fill, us(time.Since(t)))
	}
	L["sq.fill_lut_us"] = median(fill)

	const rounds = 100
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			sink += codes.LUTDist(vec.Euclidean, lut, 0, i)
		}
	}
	L["sq.lut_ns_per_dist"] = float64(time.Since(t).Nanoseconds()) / float64(rounds*n)
}

// persistLayers saves and reloads the twin's snapshot in memory.
func persistLayers(L map[string]float64, ix *tknn.MBI) {
	var buf bytes.Buffer
	t := time.Now()
	if err := ix.Save(&buf); err != nil {
		return // a bytes.Buffer cannot fail; Save's own error leaves the metrics 0
	}
	mb := float64(buf.Len()) / 1e6
	L["persist.save_mbps"] = mb / time.Since(t).Seconds()
	L["persist.snapshot_bytes_per_vector"] = float64(buf.Len()) / float64(ix.Len())
	t = time.Now()
	if _, err := tknn.LoadMBI(bytes.NewReader(buf.Bytes()), ix.Options()); err == nil {
		L["persist.load_mbps"] = mb / time.Since(t).Seconds()
	}
}

// segmentLayers reads every segment file the daemon spilled, writes each
// back into a scratch dir (fsync and rename included), and pages them
// through a block cache: a miss is a load from disk, a hit is not.
func segmentLayers(ctx context.Context, L map[string]float64, segDir, outDir string) error {
	names, err := filepath.Glob(filepath.Join(segDir, "block-*.seg"))
	if err != nil || len(names) == 0 {
		return fmt.Errorf("no spilled segments under %s (%v)", segDir, err)
	}
	scratch, err := os.MkdirTemp(outDir, "segments-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var ids []int
	var readUs, writeUs, mb float64
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "block-%d.seg", &id); err != nil {
			return err
		}
		t := time.Now()
		g, codes, lo, hi, err := persist.ReadSegmentFile(segDir, id, dim)
		if err != nil {
			return err
		}
		readUs += us(time.Since(t))
		t = time.Now()
		size, err := persist.WriteSegmentFile(scratch, id, lo, hi, 0, dim, g, codes)
		if err != nil {
			return err
		}
		writeUs += us(time.Since(t))
		mb += float64(size) / 1e6
		ids = append(ids, id)
	}
	L["persist.segment_read_us_per_mb"] = readUs / mb
	L["persist.segment_write_us_per_mb"] = writeUs / mb

	cache := blockcache.New(0, func(_ context.Context, key uint64) (blockcache.Value, error) {
		g, codes, _, _, err := persist.ReadSegmentFile(segDir, int(key), dim)
		return blockcache.Value{Graph: g, Codes: codes}, err
	})
	var miss, hit []float64
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			t := time.Now()
			if _, err := cache.Get(ctx, uint64(id)); err != nil {
				return err
			}
			d := time.Since(t)
			cache.Unpin(uint64(id))
			if pass == 0 {
				miss = append(miss, us(d))
			} else {
				hit = append(hit, float64(d.Nanoseconds()))
			}
		}
	}
	L["blockcache.get_miss_us"] = median(miss)
	L["blockcache.get_hit_ns"] = median(hit)
	return nil
}

// discard is a wal.Target that accepts everything, so AppendBatch below
// times the log alone.
type discard struct{ n int }

func (d *discard) Add([]float32, int64) error { d.n++; return nil }
func (d *discard) Save(io.Writer) error       { return nil }
func (d *discard) Len() int                   { return d.n }

// walLayer appends the writer's batches to a fresh log with the daemon's
// fsync policy.
func walLayer(L map[string]float64, outDir string, in *inputs) error {
	dir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := wal.Open(wal.Config{Dir: dir, Sync: wal.SyncAlways}, func(io.Reader) (wal.Target, error) { return &discard{}, nil })
	if err != nil {
		return err
	}
	var perBatch []float64
	vs, ts := make([][]float32, writeBatch), make([]int64, writeBatch)
	for lo := in.n0; lo+writeBatch <= in.n0+writeVectors; lo += writeBatch {
		for i := range vs {
			vs[i], ts[i] = in.data.Train.At(lo+i), int64(lo+i)
		}
		t := time.Now()
		if err := m.AppendBatch(vs, ts); err != nil {
			_ = m.Close()
			return err
		}
		perBatch = append(perBatch, us(time.Since(t)))
	}
	L["wal.append_us_per_batch"] = median(perBatch)
	L["wal.bytes_per_vector"] = float64(m.Stats().WALBytes) / writeVectors
	return m.Close()
}

// searchCodec times encoding/json on /search bodies: decoding the request
// as the handler does, and encoding a k-result response.
func searchCodec(in *inputs) (decodeUs, encodeUs float64) {
	resp := server.SearchResponse{Results: make([]server.SearchResult, kNN)}
	for i := range resp.Results {
		resp.Results[i] = server.SearchResult{ID: 1000 + i, Time: int64(1000 + i), Dist: 1.2345678 * float32(i+1)}
	}
	resp.Stages = server.SearchStages{SelectSeconds: 1.2345e-5, SearchSeconds: 3.4567e-4, MergeSeconds: 1.234e-6}
	var dec, enc []float64
	var body []byte
	for i := 0; i < 500; i++ {
		q := &in.queries[i%len(in.queries)]
		body = appendWindow(body[:0], q.prefix, q.start, q.start+q.length)
		var req server.SearchRequest
		t := time.Now()
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		dec = append(dec, us(time.Since(t)))
		if err != nil {
			panic(err) // the harness wrote the body itself
		}
		t = time.Now()
		err = json.NewEncoder(io.Discard).Encode(resp)
		enc = append(enc, us(time.Since(t)))
		if err != nil {
			panic(err)
		}
	}
	return median(dec), median(enc)
}

// decodeInsert returns the microseconds per vector to decode one
// /vectors body.
func decodeInsert(body []byte) float64 {
	var req server.AddRequest
	t := time.Now()
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		panic(err)
	}
	return us(time.Since(t)) / float64(len(req.Batch))
}
