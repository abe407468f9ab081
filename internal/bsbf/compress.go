package bsbf

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/sq"
	"repro/internal/vec"
)

// Compressed BSBF: the baseline's scan cost is pure memory bandwidth, so it
// is the cleanest place to measure what SQ8 buys. With compression enabled
// the index seals each full ChunkSize-row run of appends into a per-chunk
// scalar quantizer; windowed queries scan sealed chunks through the
// asymmetric code kernel (1 byte/coordinate instead of 4) with an exact
// re-rank, and brute-force only the unsealed tail.

// Config selects the optional compression behavior of a BSBF index.
type Config struct {
	// Compression picks the per-chunk codec. sq.None (the zero value)
	// keeps the index fully float32 — identical to New.
	Compression sq.Kind
	// RerankFactor is the over-fetch multiplier for compressed scans
	// (candidates = k·RerankFactor, clipped to the chunk). 0 uses
	// exec.DefaultRerankFactor.
	RerankFactor int
	// ChunkSize is the number of rows sealed into one quantizer. 0 uses
	// ScanChunk, which matches the executor's scan-subtask granularity.
	ChunkSize int
}

// NewWithConfig returns an empty BSBF index with the given compression
// configuration. NewWithConfig(dim, metric, Config{}) is New(dim, metric).
func NewWithConfig(dim int, metric vec.Metric, cfg Config) (*Index, error) {
	if !cfg.Compression.Valid() {
		return nil, fmt.Errorf("bsbf: unknown compression kind %d", cfg.Compression)
	}
	if cfg.RerankFactor < 0 {
		return nil, fmt.Errorf("bsbf: negative rerank factor %d", cfg.RerankFactor)
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("bsbf: negative chunk size %d", cfg.ChunkSize)
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = ScanChunk
	}
	ix := New(dim, metric)
	ix.cfg = cfg
	return ix, nil
}

// sealChunks trains quantizers for every full chunk of not-yet-sealed rows.
// Called from Append; a no-op unless compression is enabled.
func (ix *Index) sealChunks() {
	if ix.cfg.Compression != sq.SQ8 {
		return
	}
	for ix.store.Len() >= ix.sealed+ix.cfg.ChunkSize {
		lo := ix.sealed
		ix.codes = append(ix.codes, sq.Train(ix.store, lo, lo+ix.cfg.ChunkSize, sq.TrainConfig{}))
		ix.sealed += ix.cfg.ChunkSize
	}
}

// compressedPlanInto appends the window's subtasks to plan, routing rows of
// sealed chunks through the compressed-scan kernel and the unsealed tail
// through the flat scan. Chunk c covers global rows
// [c·ChunkSize, (c+1)·ChunkSize); a window clips into a chunk via
// ScanLo/ScanHi while Lo stays at the chunk base so code row i maps to
// global row Lo+i.
func (ix *Index) compressedPlanInto(plan *exec.Plan, k, lo, hi int) {
	cs := ix.cfg.ChunkSize
	for start := lo; start < hi && start < ix.sealed; {
		c := start / cs
		clo, chi := c*cs, (c+1)*cs
		end := hi
		if end > chi {
			end = chi
		}
		st := exec.Subtask{
			Kind: exec.CompressedScan, Lo: clo, Hi: chi,
			Store: ix.store, Metric: ix.metric,
			ScanLo: start, ScanHi: end,
			Codes:   ix.codes[c],
			RerankK: exec.RerankK(k, ix.cfg.RerankFactor, end-start),
		}
		if len(ix.times) >= end {
			st.WindowStart, st.WindowEnd = ix.times[start], ix.times[end-1]+1
		}
		plan.Subtasks = append(plan.Subtasks, st)
		start = end
	}
	if hi > ix.sealed {
		tail := lo
		if tail < ix.sealed {
			tail = ix.sealed
		}
		scanPlanInto(plan, ix.store, ix.metric, ix.times, tail, hi)
	}
}
