// Package sq implements per-block scalar quantization (SQ8) for sealed MBI
// blocks. A sealed block is immutable, which makes it a perfect training
// unit: Train fits a per-dimension affine quantizer (min + step) over
// exactly the block's vectors and encodes each coordinate into one byte,
// cutting the block's vector payload ~4x and raising effective scan
// bandwidth by the same factor.
//
// Search over codes is asymmetric: the query stays float32 and Dist scores
// a code row directly, decoding min + step·code eight coordinates at a time
// inside vec's SIMD kernels, so a query needs no per-block setup and reads
// only the row, the query and the block's affine map. Distances come out
// exact with respect to the *decoded* vectors; angular distances
// additionally use per-vector code norms precomputed at encode time.
// Compressed results are approximate, so callers over-fetch and re-rank the
// survivors against the float32 store (see exec's compressed kernels).
package sq

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Kind selects the per-block vector codec.
type Kind uint8

const (
	// None stores blocks as raw float32 rows (no codes are trained).
	None Kind = iota
	// SQ8 trains a per-block, per-dimension scalar quantizer at seal time
	// and encodes each coordinate into one byte.
	SQ8
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case SQ8:
		return "sq8"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined codec.
func (k Kind) Valid() bool { return k == None || k == SQ8 }

// TrainConfig tunes quantizer training.
type TrainConfig struct {
	// ClipSigma, when positive, clips each dimension's quantization range
	// to mean ± ClipSigma·σ (intersected with the observed min/max) before
	// fitting the steps. Outlier coordinates then saturate instead of
	// stretching the step for every inlier. Zero fits the plain observed
	// min/max range.
	ClipSigma float64
}

// Codes is one block's quantized payload: a per-dimension affine dequantizer
// (Min + Step·code) plus the row-major byte codes and per-row norms of the
// decoded vectors. Local row i corresponds to global store row Lo+i of the
// block that trained it; the mapping is owned by the caller.
//
// Codes are immutable after Train, like the blocks they compress.
type Codes struct {
	// Dim is the vector dimension; N is the number of encoded rows.
	Dim, N int
	// Min and Step hold the per-dimension dequantization affine map:
	// coordinate d of code c decodes to Min[d] + Step[d]·c. A constant
	// dimension has Step 0 and decodes exactly.
	Min, Step []float32
	// Data holds the codes row-major: row i is Data[i*Dim : (i+1)*Dim].
	Data []uint8
	// Norms[i] is the L2 norm (not squared) of decoded row i, precomputed
	// so the angular kernel needs no per-candidate normalization pass.
	Norms []float32
}

// lutWidth is the entries-per-dimension of the asymmetric lookup table:
// one per possible byte code.
const lutWidth = 256

// maxCode is the largest code value.
const maxCode = 255

// Train fits a quantizer over global rows [lo, hi) of store and encodes
// them. It panics if the range is empty or out of bounds — blocks are never
// empty, so that is always a caller bug. Training is deterministic: the
// same rows always produce byte-identical codes.
func Train(store *vec.Store, lo, hi int, cfg TrainConfig) *Codes {
	if lo < 0 || hi <= lo || hi > store.Len() {
		panic(fmt.Sprintf("sq: training range [%d,%d) invalid for store of %d rows", lo, hi, store.Len()))
	}
	dim := store.Dim()
	n := hi - lo
	c := &Codes{
		Dim:   dim,
		N:     n,
		Min:   make([]float32, dim),
		Step:  make([]float32, dim),
		Data:  make([]uint8, n*dim),
		Norms: make([]float32, n),
	}

	// Pass 1: per-dimension range (and moments, when clipping).
	lov := c.Min // reuse as the lower clip bound during training
	hiv := make([]float32, dim)
	copy(lov, store.At(lo))
	copy(hiv, store.At(lo))
	var mean, m2 []float64
	if cfg.ClipSigma > 0 {
		mean = make([]float64, dim)
		m2 = make([]float64, dim)
	}
	for i := lo; i < hi; i++ {
		row := store.At(i)
		for d, x := range row {
			if x < lov[d] {
				lov[d] = x
			}
			if x > hiv[d] {
				hiv[d] = x
			}
			if mean != nil {
				// Welford's update, numerically stable across block sizes.
				delta := float64(x) - mean[d]
				mean[d] += delta / float64(i-lo+1)
				m2[d] += delta * (float64(x) - mean[d])
			}
		}
	}
	if cfg.ClipSigma > 0 && n > 1 {
		for d := 0; d < dim; d++ {
			sigma := sqrt64(m2[d] / float64(n-1))
			if clipLo := mean[d] - cfg.ClipSigma*sigma; float32(clipLo) > lov[d] {
				lov[d] = float32(clipLo)
			}
			if clipHi := mean[d] + cfg.ClipSigma*sigma; float32(clipHi) < hiv[d] {
				hiv[d] = float32(clipHi)
			}
		}
	}
	for d := 0; d < dim; d++ {
		if span := hiv[d] - lov[d]; span > 0 {
			c.Step[d] = span / maxCode
		}
	}

	// Pass 2: encode, saturating at the clip bounds, and accumulate each
	// decoded row's norm. The decoded coordinate is materialized in
	// float32 — the exact value Decode and vec's code kernels see, the
	// product rounded before the add on every GOARCH — but the squared sum
	// runs in float64: squaring a large-magnitude float32 coordinate
	// overflows float32 even though the coordinate, and the final unsquared
	// norm, fit comfortably.
	for i := 0; i < n; i++ {
		row := store.At(lo + i)
		out := c.Data[i*dim : (i+1)*dim]
		var sq float64
		for d, x := range row {
			code := encode1(x, c.Min[d], c.Step[d])
			out[d] = code
			v := c.Min[d] + float32(c.Step[d]*float32(code))
			sq += float64(v) * float64(v)
		}
		c.Norms[i] = float32(sqrt64(sq))
	}
	return c
}

// encode1 quantizes one coordinate: round((x-min)/step) clamped to a byte.
// A zero step (constant or clipped-flat dimension) encodes everything as 0.
func encode1(x, min, step float32) uint8 {
	if step == 0 {
		return 0
	}
	r := (x - min) / step
	if !(r > 0) { // also catches NaN from inf-inf in degenerate inputs
		return 0
	}
	if r >= maxCode {
		return maxCode
	}
	return uint8(r + 0.5)
}

// Row returns row i's codes, aliasing the payload.
func (c *Codes) Row(i int) []uint8 {
	off := i * c.Dim
	return c.Data[off : off+c.Dim : off+c.Dim]
}

// Decode writes decoded row i into dst (len >= Dim) and returns dst[:Dim].
func (c *Codes) Decode(i int, dst []float32) []float32 {
	row := c.Row(i)
	dst = dst[:c.Dim]
	for d, code := range row {
		dst[d] = c.Min[d] + float32(c.Step[d]*float32(code))
	}
	return dst
}

// Bytes is the payload size of the codes: the byte rows plus the
// per-dimension affine map and the per-row norms. This is what persists and
// what the memory-reduction benchmark compares against Dim·4 bytes/vector.
func (c *Codes) Bytes() int {
	return len(c.Data) + 4*(len(c.Min)+len(c.Step)+len(c.Norms))
}

// Dist is the asymmetric distance every compressed walk and scan runs:
// metric distance between q and decoded row i, computed straight from the
// code row by vec.SquaredL2Codes or vec.DotCodes — no per-query table, no
// decoded copy. qNorm is the query's L2 norm (vec.Norm), used only by the
// angular finish; zero-norm rows keep vec's "maximally distant"
// convention.
//
//tknn:hotpath
func (c *Codes) Dist(metric vec.Metric, q []float32, qNorm float32, i int) float32 {
	row := c.Row(i)
	if metric == vec.Euclidean {
		return vec.SquaredL2Codes(q, c.Min, c.Step, row)
	}
	nb := c.Norms[i]
	if qNorm == 0 || nb == 0 {
		return 1
	}
	return 1 - vec.DotCodes(q, c.Min, c.Step, row)/(qNorm*nb)
}

// The lookup-table kernel below (LUTLen, FillLUT, LUTDist, lutSum) no
// longer runs on any query path; Dist replaced it. It survives only
// because the benchmark harness's sq.fill_lut_us / sq.lut_ns_per_dist
// probe calls it, and goes when that probe is next rewritten.

// LUTLen is the float32 length of the asymmetric lookup table FillLUT
// fills: lutWidth entries per dimension. Benchmark probe only.
func (c *Codes) LUTLen() int { return c.Dim * lutWidth }

// FillLUT builds the per-query asymmetric-distance table into lut
// (len >= LUTLen): entry [d·256+v] scores code v of dimension d against
// q[d]. For Euclidean it holds the squared residual, so a row's distance is
// the plain sum of its lookups; for Angular it holds q[d]·decode(d,v), so
// the sum is the dot product, finished by LUTDist with the precomputed
// norms. Benchmark probe only.
func (c *Codes) FillLUT(metric vec.Metric, q []float32, lut []float32) {
	for d := 0; d < c.Dim; d++ {
		min, step := c.Min[d], c.Step[d]
		qd := q[d]
		row := lut[d*lutWidth : (d+1)*lutWidth]
		if metric == vec.Euclidean {
			for v := range row {
				r := qd - (min + step*float32(v))
				row[v] = r * r
			}
		} else {
			for v := range row {
				row[v] = qd * (min + step*float32(v))
			}
		}
	}
}

// LUTDist scores row i through a table built by FillLUT with the same
// metric, finishing like Dist. Benchmark probe only.
func (c *Codes) LUTDist(metric vec.Metric, lut []float32, qNorm float32, i int) float32 {
	s := lutSum(lut, c.Row(i))
	if metric == vec.Euclidean {
		return s
	}
	nb := c.Norms[i]
	if qNorm == 0 || nb == 0 {
		return 1
	}
	return 1 - s/(qNorm*nb)
}

// lutSum is the table kernel's inner loop: one table load and one add per
// coordinate, 4-wide unrolled. Benchmark probe only.
func lutSum(lut []float32, row []uint8) float32 {
	var s0, s1, s2, s3 float32
	d := 0
	for ; d+4 <= len(row); d += 4 {
		s0 += lut[d*lutWidth+int(row[d])]
		s1 += lut[(d+1)*lutWidth+int(row[d+1])]
		s2 += lut[(d+2)*lutWidth+int(row[d+2])]
		s3 += lut[(d+3)*lutWidth+int(row[d+3])]
	}
	for ; d < len(row); d++ {
		s0 += lut[d*lutWidth+int(row[d])]
	}
	return s0 + s1 + s2 + s3
}

func sqrt64(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Validate checks structural consistency — the shape every other layer
// assumes — and that the affine map and norms are finite. Persist calls it
// on every loaded payload before installing codes into a block.
func (c *Codes) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("sq: non-positive dimension %d", c.Dim)
	}
	if c.N < 0 {
		return fmt.Errorf("sq: negative row count %d", c.N)
	}
	if len(c.Min) != c.Dim || len(c.Step) != c.Dim {
		return fmt.Errorf("sq: affine map has %d/%d entries for dim %d", len(c.Min), len(c.Step), c.Dim)
	}
	if len(c.Data) != c.N*c.Dim {
		return fmt.Errorf("sq: %d code bytes for %d rows of dim %d", len(c.Data), c.N, c.Dim)
	}
	if len(c.Norms) != c.N {
		return fmt.Errorf("sq: %d norms for %d rows", len(c.Norms), c.N)
	}
	if err := vec.CheckFinite(c.Min); err != nil {
		return fmt.Errorf("sq: min: %w", err)
	}
	if err := vec.CheckFinite(c.Step); err != nil {
		return fmt.Errorf("sq: step: %w", err)
	}
	if err := vec.CheckFinite(c.Norms); err != nil {
		return fmt.Errorf("sq: norms: %w", err)
	}
	for d, s := range c.Step {
		if s < 0 {
			return fmt.Errorf("sq: negative step %g at dimension %d", s, d)
		}
	}
	return nil
}
