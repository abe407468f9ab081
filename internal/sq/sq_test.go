package sq

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// fillStore appends n random dim-dimensional vectors drawn from rng.
func fillStore(t *testing.T, dim, n int, rng *rand.Rand) *vec.Store {
	t.Helper()
	s := vec.NewStore(dim)
	v := make([]float32, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = float32(rng.NormFloat64()) * float32(1+j%3)
		}
		if _, err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRoundtripError pins the quantizer's defining property: decoding an
// encoded coordinate lands within half a step of the original (nearest-
// value rounding), for every vector and dimension.
func TestRoundtripError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := fillStore(t, 12, 200, rng)
	c := Train(store, 0, store.Len(), TrainConfig{})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	dec := make([]float32, c.Dim)
	for i := 0; i < c.N; i++ {
		c.Decode(i, dec)
		orig := store.At(i)
		for d := 0; d < c.Dim; d++ {
			bound := c.Step[d]/2 + 1e-5
			if diff := float64(dec[d] - orig[d]); math.Abs(diff) > float64(bound) {
				t.Fatalf("vector %d dim %d: decoded %v from %v, error %v exceeds step/2 = %v",
					i, d, dec[d], orig[d], diff, bound)
			}
		}
	}
}

// TestDegenerateBlocks covers the shapes that break naive quantizers:
// a constant dimension (zero span), a single-vector block, and a
// single-dimension store. All must train to finite parameters and decode
// exactly.
func TestDegenerateBlocks(t *testing.T) {
	t.Run("constant-dim", func(t *testing.T) {
		s := vec.NewStore(3)
		for i := 0; i < 10; i++ {
			if _, err := s.Append([]float32{5, float32(i), -2}); err != nil {
				t.Fatal(err)
			}
		}
		c := Train(s, 0, 10, TrainConfig{})
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.Step[0] != 0 || c.Step[2] != 0 {
			t.Fatalf("constant dims got nonzero steps %v, %v", c.Step[0], c.Step[2])
		}
		dec := make([]float32, 3)
		for i := 0; i < 10; i++ {
			c.Decode(i, dec)
			if dec[0] != 5 || dec[2] != -2 {
				t.Fatalf("constant dims decoded to %v, want [5 _ -2]", dec)
			}
		}
	})
	t.Run("single-vector", func(t *testing.T) {
		s := vec.NewStore(4)
		if _, err := s.Append([]float32{1, -3, 0.5, 100}); err != nil {
			t.Fatal(err)
		}
		c := Train(s, 0, 1, TrainConfig{})
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		dec := c.Decode(0, make([]float32, 4))
		want := []float32{1, -3, 0.5, 100}
		for d := range want {
			if dec[d] != want[d] {
				t.Fatalf("single vector decoded to %v, want %v", dec, want)
			}
		}
	})
	t.Run("sub-range", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		store := fillStore(t, 5, 64, rng)
		c := Train(store, 16, 48, TrainConfig{})
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.N != 32 {
			t.Fatalf("sub-range trained %d rows, want 32", c.N)
		}
		// Code row i stands for global row 16+i.
		dec := make([]float32, 5)
		c.Decode(0, dec)
		for d := range dec {
			diff := float64(dec[d] - store.At(16)[d])
			if math.Abs(diff) > float64(c.Step[d]/2+1e-5) {
				t.Fatalf("row 0 decodes against global 16 with error %v", diff)
			}
		}
	})
	t.Run("clip-sigma", func(t *testing.T) {
		// One wild outlier per dimension: with clipping the step shrinks,
		// without it the outlier dictates the range.
		s := vec.NewStore(2)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 99; i++ {
			if _, err := s.Append([]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64())}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Append([]float32{1000, -1000}); err != nil {
			t.Fatal(err)
		}
		wide := Train(s, 0, 100, TrainConfig{})
		tight := Train(s, 0, 100, TrainConfig{ClipSigma: 3})
		if err := tight.Validate(); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 2; d++ {
			if tight.Step[d] >= wide.Step[d] {
				t.Fatalf("dim %d: clipped step %v not tighter than unclipped %v", d, tight.Step[d], wide.Step[d])
			}
		}
	})
}

// TestDistMatchesDecodedDistance checks the asymmetric kernel's contract:
// for both metrics, Dist computes the metric distance between the query
// and the DECODED row — bit for bit for Euclidean (the code kernel sums in
// SquaredL2's order over the values Decode writes), and within float
// slack for Angular, whose finish divides by the cached code norm instead
// of recomputing it. Equality with the decoded-row distance is what makes
// over-fetch + exact re-rank sound: the approximation error is entirely
// the quantizer's, never the kernel's. Dimension 41 runs all three of the
// kernels' loops.
func TestDistMatchesDecodedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	store := fillStore(t, 41, 120, rng)
	c := Train(store, 0, store.Len(), TrainConfig{})
	q := make([]float32, c.Dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	dec := make([]float32, c.Dim)
	qn := vec.Norm(q)
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Angular} {
		for i := 0; i < c.N; i++ {
			got := c.Dist(metric, q, qn, i)
			c.Decode(i, dec)
			want := vec.Distance(metric, q, dec)
			if metric == vec.Euclidean && math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("row %d: Dist %v, SquaredL2 on the decoded row %v", i, got, want)
			}
			if diff := math.Abs(float64(got - want)); diff > 1e-4 {
				t.Fatalf("%v row %d: Dist %v, vec.Distance on decoded %v (diff %v)", metric, i, got, want, diff)
			}
		}
	}
}

// TestAsymmetricMonotonicity checks that code distances preserve the
// ordering of true distances up to quantization resolution: whenever two
// rows' true distances differ by clearly more than the worst-case
// quantization slack, Dist ranks them the same way.
func TestAsymmetricMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	store := fillStore(t, 6, 150, rng)
	c := Train(store, 0, store.Len(), TrainConfig{})
	q := make([]float32, 6)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	qn := vec.Norm(q)

	// Worst-case |sqrt(codeDist) - trueDist| per row is half the step
	// vector's norm; a gap of twice that in unsquared distance can never
	// be inverted by quantization alone.
	var stepSq float64
	for _, s := range c.Step {
		stepSq += float64(s) * float64(s) / 4
	}
	slack := 2*math.Sqrt(stepSq) + 1e-4

	type scored struct{ codeD, trueD float64 }
	rows := make([]scored, c.N)
	for i := range rows {
		rows[i] = scored{
			codeD: math.Sqrt(float64(c.Dist(vec.Euclidean, q, qn, i))),
			trueD: math.Sqrt(float64(vec.Distance(vec.Euclidean, q, store.At(i)))),
		}
	}
	for i := range rows {
		for j := range rows {
			if rows[i].trueD+slack < rows[j].trueD && rows[i].codeD > rows[j].codeD {
				t.Fatalf("rows %d,%d: true dists %v < %v - slack, but Dist ranks them %v > %v",
					i, j, rows[i].trueD, rows[j].trueD, rows[i].codeD, rows[j].codeD)
			}
		}
	}
}

// TestNormsCache checks the trained per-row norms equal the decoded rows'
// norms — the angular finish of Dist divides by them, so a stale cache skews
// every cosine distance.
func TestNormsCache(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	store := fillStore(t, 7, 80, rng)
	c := Train(store, 0, store.Len(), TrainConfig{})
	dec := make([]float32, c.Dim)
	for i := 0; i < c.N; i++ {
		c.Decode(i, dec)
		want := vec.Norm(dec)
		if diff := math.Abs(float64(c.Norms[i] - want)); diff > 1e-4 {
			t.Fatalf("row %d: cached norm %v, decoded norm %v", i, c.Norms[i], want)
		}
	}
}

// TestBytes pins the memory accounting the benchmarks report: 1 byte per
// coordinate plus the per-dim parameters and per-row norms.
func TestBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	store := fillStore(t, 16, 32, rng)
	c := Train(store, 0, 32, TrainConfig{})
	want := 16*32 + 4*(16+16+32)
	if got := c.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}

func TestTrainPanicsOnBadRange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	store := fillStore(t, 3, 10, rng)
	for _, r := range [][2]int{{-1, 5}, {5, 11}, {7, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Train(%d, %d) did not panic", r[0], r[1])
				}
			}()
			Train(store, r[0], r[1], TrainConfig{})
		}()
	}
}
