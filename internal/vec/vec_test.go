package vec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestMetricString(t *testing.T) {
	if Euclidean.String() != "euclidean" {
		t.Errorf("Euclidean.String() = %q", Euclidean.String())
	}
	if Angular.String() != "angular" {
		t.Errorf("Angular.String() = %q", Angular.String())
	}
	if Metric(99).String() != "metric(99)" {
		t.Errorf("Metric(99).String() = %q", Metric(99).String())
	}
}

func TestParseMetric(t *testing.T) {
	cases := []struct {
		in   string
		want Metric
		ok   bool
	}{
		{"euclidean", Euclidean, true},
		{"l2", Euclidean, true},
		{"angular", Angular, true},
		{"cosine", Angular, true},
		{"manhattan", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseMetric(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMetric(%q) succeeded, want error", c.in)
		}
	}
}

func TestMetricValid(t *testing.T) {
	if !Euclidean.Valid() || !Angular.Valid() {
		t.Error("defined metrics should be valid")
	}
	if Metric(7).Valid() {
		t.Error("Metric(7) should be invalid")
	}
}

func TestDotKnownValues(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Errorf("Dot = %g, want 35", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil, nil) = %g, want 0", got)
	}
}

func TestSquaredL2KnownValues(t *testing.T) {
	a := []float32{0, 0, 0}
	b := []float32{3, 4, 0}
	if got := SquaredL2(a, b); got != 25 {
		t.Errorf("SquaredL2 = %g, want 25", got)
	}
	if got := SquaredL2(a, a); got != 0 {
		t.Errorf("SquaredL2(a, a) = %g, want 0", got)
	}
}

// TestDistanceAgainstFloat64 cross-checks the float32 kernels (whichever
// of the assembly and the Go twin this build dispatches to) against a
// straightforward float64 computation.
func TestDistanceAgainstFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(300)
		a, b := randVec(rng, dim), randVec(rng, dim)

		var dot, l2, na, nb float64
		for i := range a {
			dot += float64(a[i]) * float64(b[i])
			d := float64(a[i]) - float64(b[i])
			l2 += d * d
			na += float64(a[i]) * float64(a[i])
			nb += float64(b[i]) * float64(b[i])
		}
		if got := Dot(a, b); math.Abs(float64(got)-dot) > 1e-3*(1+math.Abs(dot)) {
			t.Fatalf("dim %d: Dot = %g, want %g", dim, got, dot)
		}
		if got := SquaredL2(a, b); math.Abs(float64(got)-l2) > 1e-3*(1+l2) {
			t.Fatalf("dim %d: SquaredL2 = %g, want %g", dim, got, l2)
		}
		wantCos := 1 - dot/math.Sqrt(na*nb)
		if got := CosineDistance(a, b); math.Abs(float64(got)-wantCos) > 1e-3 {
			t.Fatalf("dim %d: CosineDistance = %g, want %g", dim, got, wantCos)
		}
	}
}

func TestSquaredL2Properties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(64)
		a, b := randVec(r, dim), randVec(r, dim)
		// Symmetry and non-negativity.
		return SquaredL2(a, b) == SquaredL2(b, a) && SquaredL2(a, b) >= 0 && SquaredL2(a, a) == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCosineDistanceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(64)
		a, b := randVec(rng, dim), randVec(rng, dim)
		d := CosineDistance(a, b)
		if d < -1e-5 || d > 2+1e-5 {
			t.Fatalf("cosine distance %g outside [0, 2]", d)
		}
		if self := CosineDistance(a, a); self > 1e-5 {
			t.Fatalf("self cosine distance %g, want ~0", self)
		}
	}
}

func TestCosineDistanceZeroVector(t *testing.T) {
	zero := []float32{0, 0, 0}
	v := []float32{1, 2, 3}
	if got := CosineDistance(zero, v); got != 1 {
		t.Errorf("CosineDistance(zero, v) = %g, want 1", got)
	}
	if got := CosineDistance(v, zero); got != 1 {
		t.Errorf("CosineDistance(v, zero) = %g, want 1", got)
	}
}

func TestNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		v := randVec(rng, 1+rng.Intn(128))
		Normalize(v)
		n := SquaredNorm(v)
		if math.Abs(float64(n)-1) > 1e-4 {
			t.Fatalf("normalized squared norm = %g, want 1", n)
		}
	}
	zero := []float32{0, 0}
	Normalize(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("Normalize(zero) should be a no-op")
	}
}

func TestNormalizeScaleInvariance(t *testing.T) {
	// After normalization, cosine distance equals 1 - dot.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a, b := randVec(rng, 32), randVec(rng, 32)
		Normalize(a)
		Normalize(b)
		want := 1 - Dot(a, b)
		got := CosineDistance(a, b)
		if math.Abs(float64(got-want)) > 1e-4 {
			t.Fatalf("normalized cosine %g != 1-dot %g", got, want)
		}
	}
}

func TestDistanceDispatch(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := Distance(Euclidean, a, b); got != 2 {
		t.Errorf("Distance(Euclidean) = %g, want 2", got)
	}
	if got := Distance(Angular, a, b); math.Abs(float64(got)-1) > 1e-6 {
		t.Errorf("Distance(Angular) = %g, want 1", got)
	}
}

func TestStoreAppendAt(t *testing.T) {
	s := NewStore(3)
	if s.Dim() != 3 || s.Len() != 0 {
		t.Fatalf("fresh store: dim %d len %d", s.Dim(), s.Len())
	}
	id, err := s.Append([]float32{1, 2, 3})
	if err != nil || id != 0 {
		t.Fatalf("first append: id %d err %v", id, err)
	}
	id, err = s.Append([]float32{4, 5, 6})
	if err != nil || id != 1 {
		t.Fatalf("second append: id %d err %v", id, err)
	}
	if got := s.At(1); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Errorf("At(1) = %v", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestStoreAppendWrongDim(t *testing.T) {
	s := NewStore(3)
	if _, err := s.Append([]float32{1, 2}); err == nil {
		t.Error("appending 2-dim vector to 3-dim store should fail")
	}
	if s.Len() != 0 {
		t.Error("failed append must not grow the store")
	}
}

// TestStoreAppendNonFinite: a refused vector leaves no trace — the rows and
// cached norms of its neighbours are what they would be without it — and
// finite coordinates whose squares overflow are not the refused case.
func TestStoreAppendNonFinite(t *testing.T) {
	s := NewStore(3)
	if _, err := s.Append([]float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	inf := float32(math.Inf(1))
	for _, bad := range [][]float32{{float32(math.NaN()), 0, 0}, {0, inf, 0}, {0, 0, -inf}} {
		if _, err := s.Append(bad); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Append(%v) error = %v, want ErrNonFinite", bad, err)
		}
		if err := CheckFinite(bad); !errors.Is(err, ErrNonFinite) {
			t.Errorf("CheckFinite(%v) = %v, want ErrNonFinite", bad, err)
		}
	}
	id, err := s.Append([]float32{3e38, 4, 5})
	if err != nil || id != 1 || s.Len() != 2 {
		t.Fatalf("Append(finite, norm overflows) = %d, %v, Len %d; want row 1", id, err, s.Len())
	}
	if got := s.At(1); got[0] != 3e38 || got[1] != 4 || got[2] != 5 || s.SqNorm(0) != 14 {
		t.Errorf("rows after refusals: At(1) = %v, SqNorm(0) = %v", got, s.SqNorm(0))
	}
}

func TestNewStorePanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStore(0) should panic")
		}
	}()
	NewStore(0)
}

func TestFromRaw(t *testing.T) {
	buf := []float32{1, 2, 3, 4, 5, 6}
	s, err := FromRaw(3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if got := s.At(1)[2]; got != 6 {
		t.Errorf("At(1)[2] = %g, want 6", got)
	}
	if _, err := FromRaw(4, buf); err == nil {
		t.Error("FromRaw with non-multiple length should fail")
	}
	if _, err := FromRaw(0, buf); err == nil {
		t.Error("FromRaw with dim 0 should fail")
	}
}

func TestViewIndexing(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 5; i++ {
		if _, err := s.Append([]float32{float32(i), float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	v := View{Store: s, Lo: 1, Hi: 4, Metric: Euclidean}
	if v.Len() != 3 {
		t.Fatalf("view len %d, want 3", v.Len())
	}
	if got := v.At(0)[0]; got != 1 {
		t.Errorf("view At(0) = %g, want 1", got)
	}
	if got := v.At(2)[0]; got != 3 {
		t.Errorf("view At(2) = %g, want 3", got)
	}
	// Dist between local 0 (global 1) and local 2 (global 3): (3-1)^2 * 2 = 8.
	if got := v.Dist(0, 2); got != 8 {
		t.Errorf("view Dist = %g, want 8", got)
	}
	if got := v.DistTo([]float32{0, 0}, 1); got != 8 {
		t.Errorf("view DistTo = %g, want 8", got)
	}
}

func TestStoreNewStoreCap(t *testing.T) {
	s := NewStoreCap(4, 100)
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
	if _, err := s.Append(make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// TestViewDistUsesCachedNorms: View.Dist reads both norms from the store's
// cache and must return exactly what Distance computes from scratch, zero
// vectors (distance 1 to everything, themselves included) among them.
func TestViewDistUsesCachedNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim, n = 37, 24
	s := NewStore(dim)
	for i := 0; i < n; i++ {
		v := randVec(rng, dim)
		if i%8 == 3 {
			v = make([]float32, dim)
		}
		if _, err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []Metric{Euclidean, Angular} {
		v := View{Store: s, Lo: 2, Hi: n, Metric: m}
		for i := 0; i < v.Len(); i++ {
			for j := 0; j < v.Len(); j++ {
				got, want := v.Dist(i, j), Distance(m, v.At(i), v.At(j))
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%v Dist(%d, %d) = %g, Distance = %g", m, i, j, got, want)
				}
			}
		}
	}
}
