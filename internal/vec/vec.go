// Package vec provides the dense-vector primitives that every index in this
// repository is built on: a flat float32 store that keeps vectors contiguous
// in memory, distance kernels for the two metrics the paper uses (squared
// Euclidean and angular), and lightweight views over timestamp-contiguous
// ranges of a store.
//
// Vectors are stored back-to-back in a single []float32 so that a block of
// the MBI tree — which is always a contiguous timestamp range — can be
// described by two integer offsets instead of a copy.
package vec

import (
	"fmt"
	"math"
)

// Metric identifies the distance function attached to a dataset.
//
// The paper evaluates on angular datasets (MovieLens, COMS, GloVe-100,
// DEEP1B) and Euclidean datasets (SIFT1M, GIST1M); both are supported.
type Metric uint8

const (
	// Euclidean orders neighbors by squared L2 distance. Squared distance
	// preserves the ordering of true Euclidean distance and avoids a sqrt
	// per comparison.
	Euclidean Metric = iota
	// Angular orders neighbors by cosine distance, 1 - cos(a, b).
	Angular
)

// String returns the lower-case name of the metric.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Angular:
		return "angular"
	default:
		return fmt.Sprintf("metric(%d)", uint8(m))
	}
}

// Valid reports whether m is one of the defined metrics.
func (m Metric) Valid() bool { return m == Euclidean || m == Angular }

// ParseMetric converts a name produced by Metric.String back to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "euclidean", "l2":
		return Euclidean, nil
	case "angular", "cosine":
		return Angular, nil
	}
	return 0, fmt.Errorf("vec: unknown metric %q", s)
}

// Dot returns the inner product of a and b. The slices must have equal
// length; this is the caller's responsibility. A b whose backing array ends
// before len(a) panics here, in Go, before any kernel reads memory.
func Dot(a, b []float32) float32 {
	b = b[:len(a)]
	if hasAVX2 {
		return dotAVX2(a, b)
	}
	return dotGo(a, b)
}

// SquaredL2 returns the squared Euclidean distance between a and b, under
// the same length contract as Dot. The assembly and the Go kernel return
// the same bits, so which one ran is not observable in any result.
func SquaredL2(a, b []float32) float32 {
	b = b[:len(a)]
	if hasAVX2 {
		return squaredL2AVX2(a, b)
	}
	return squaredL2Go(a, b)
}

// SquaredNorm returns the squared L2 norm of a.
func SquaredNorm(a []float32) float32 { return Dot(a, a) }

// Norm returns the L2 norm of a.
func Norm(a []float32) float32 { return sqrt32(SquaredNorm(a)) }

// CosineDistance returns 1 - cos(a, b). Zero vectors are treated as
// maximally distant from everything (distance 1), matching the convention
// used by ann-benchmarks for angular datasets.
func CosineDistance(a, b []float32) float32 {
	dot := Dot(a, b)
	na := SquaredNorm(a)
	nb := SquaredNorm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/sqrt32(na*nb)
}

// Distance evaluates metric m between a and b.
func Distance(m Metric, a, b []float32) float32 {
	if m == Euclidean {
		return SquaredL2(a, b)
	}
	return CosineDistance(a, b)
}

// DistanceStored evaluates metric m between query q and stored vector i,
// using the store's cached squared norm so the angular path computes one
// dot product instead of three. qSqNorm is SquaredNorm(q), hoisted by the
// caller once per scan or walk. Bit-identical to Distance: the cached norm
// is the same SquaredNorm the direct path would recompute.
//
//tknn:hotpath
func DistanceStored(m Metric, q []float32, qSqNorm float32, s *Store, i int) float32 {
	v := s.At(i)
	if m == Euclidean {
		return SquaredL2(q, v)
	}
	nb := s.sqnorms[i]
	if qSqNorm == 0 || nb == 0 {
		return 1
	}
	return 1 - Dot(q, v)/sqrt32(qSqNorm*nb)
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}

// Normalize scales v to unit L2 norm in place. Zero vectors are left
// untouched. Angular datasets are normalized once at generation time so
// that cosine distance reduces to 1 - dot.
func Normalize(v []float32) {
	n := SquaredNorm(v)
	if n == 0 {
		return
	}
	inv := 1 / sqrt32(n)
	for i := range v {
		v[i] *= inv
	}
}
