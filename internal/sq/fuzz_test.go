package sq

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// FuzzTrainRoundtrip feeds arbitrary float payloads through Train and
// checks the quantizer's invariants hold for every finite input the fuzzer
// finds: Validate passes (finite parameters, consistent sizes), every
// decoded coordinate is within half a step of its original, and the cached
// norms match the decoded rows. Non-finite and empty payloads are skipped
// — stores refuse NaN at ingest (vec.Store.Append), so they cannot reach
// Train in the real pipeline.
func FuzzTrainRoundtrip(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, 0, 0, 0x40, 0x40, 0, 0, 0x80, 0x40}, uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, dimByte uint8) {
		dim := int(dimByte)%8 + 1
		vals := make([]float32, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			bits := uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24
			v := math.Float32frombits(bits)
			if v-v != 0 { // NaN or Inf: ingest rejects these
				t.Skip("non-finite payload")
			}
			// Extreme magnitudes overflow float32 squared-norm and span
			// computations exactly as they would overflow real distance
			// kernels; real datasets are nowhere near, so bound the domain.
			if v > 1e15 || v < -1e15 {
				t.Skip("out-of-domain magnitude")
			}
			vals = append(vals, v)
		}
		n := len(vals) / dim
		if n == 0 {
			t.Skip("not enough data for one vector")
		}
		store := vec.NewStore(dim)
		for i := 0; i < n; i++ {
			if _, err := store.Append(vals[i*dim : (i+1)*dim]); err != nil {
				t.Fatal(err)
			}
		}

		c := Train(store, 0, n, TrainConfig{})
		if err := c.Validate(); err != nil {
			t.Fatalf("trained codes fail validation: %v", err)
		}
		dec := make([]float32, dim)
		for i := 0; i < n; i++ {
			c.Decode(i, dec)
			orig := store.At(i)
			for d := 0; d < dim; d++ {
				// Half a step of rounding error, plus float32 slack scaled
				// to the coordinate magnitudes involved.
				slack := float64(c.Step[d])/2 +
					1e-3*math.Max(1, math.Abs(float64(orig[d])))
				if diff := math.Abs(float64(dec[d] - orig[d])); diff > slack {
					t.Fatalf("row %d dim %d: decode error %v exceeds %v (orig %v, min %v, step %v)",
						i, d, diff, slack, orig[d], c.Min[d], c.Step[d])
				}
			}
			if want := vec.Norm(dec); math.Abs(float64(c.Norms[i]-want)) > 1e-2*math.Max(1, float64(want)) {
				t.Fatalf("row %d: cached norm %v, decoded norm %v", i, c.Norms[i], want)
			}
		}
	})
}
