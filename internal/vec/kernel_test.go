package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// kernelPair names one assembly kernel and its Go twin.
type kernelPair struct {
	name     string
	asm, ref func(a, b []float32) float32
}

var kernelPairs = []kernelPair{
	{"SquaredL2", squaredL2AVX2, squaredL2Go},
	{"Dot", dotAVX2, dotGo},
}

// TestKernelsBitIdentical is the differential test of the assembly against
// its Go twin: every length the three loops (32-wide, 8-wide, scalar) can
// combine into, at every float offset from a 16-byte boundary.
func TestKernelsBitIdentical(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 kernel in this build or on this CPU; SquaredL2 and Dot already run the Go kernel")
	}
	rng := rand.New(rand.NewSource(6))
	bufA, bufB := randVec(rng, 304), randVec(rng, 304)
	for _, k := range kernelPairs {
		for n := 0; n <= 300; n++ {
			for off := 0; off < 4; off++ {
				a, b := bufA[off:off+n], bufB[3-off:3-off+n]
				got, want := k.asm(a, b), k.ref(a, b)
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s len %d offset %d: asm %g (%#x) != go %g (%#x)",
						k.name, n, off, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

// TestGoKernelSummationOrder pins the canonical order itself, independent
// of the assembly (so it also holds where the differential test skips):
// with values whose float32 sums depend on association, the Go kernels
// must equal the order written out longhand.
func TestGoKernelSummationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []struct {
		name   string
		kernel func(a, b []float32) float32
		term   func(x, y float32) float32
	}{
		{"squaredL2Go", squaredL2Go, func(x, y float32) float32 { d := x - y; return float32(d * d) }},
		{"dotGo", dotGo, func(x, y float32) float32 { return float32(x * y) }},
	} {
		for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 47, 71, 100, 128, 300} {
			a, b := randVec(rng, n), randVec(rng, n)
			for i := range a {
				a[i] *= float32(math.Exp(4 * rng.NormFloat64()))
			}
			var acc [4][8]float32
			i := 0
			for ; i+32 <= n; i += 32 {
				for g := 0; g < 4; g++ {
					for j := 0; j < 8; j++ {
						acc[g][j] += k.term(a[i+8*g+j], b[i+8*g+j])
					}
				}
			}
			for ; i+8 <= n; i += 8 {
				for j := 0; j < 8; j++ {
					acc[0][j] += k.term(a[i+j], b[i+j])
				}
			}
			var x [4]float32
			for j := range x {
				lo := (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j])
				hi := (acc[0][j+4] + acc[1][j+4]) + (acc[2][j+4] + acc[3][j+4])
				x[j] = lo + hi
			}
			want := (x[0] + x[2]) + (x[1] + x[3])
			for ; i < n; i++ {
				want += k.term(a[i], b[i])
			}
			if got := k.kernel(a, b); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("%s len %d: got %g, canonical order gives %g", k.name, n, got, want)
			}
		}
	}
}

// TestKernelsPanicOnShortB: a b whose backing array ends before len(a)
// must panic in Go on both paths instead of being read past.
func TestKernelsPanicOnShortB(t *testing.T) {
	a, b := make([]float32, 40), make([]float32, 40)
	for _, tc := range []struct {
		name string
		f    func(a, b []float32) float32
	}{
		{"SquaredL2", SquaredL2},
		{"Dot", Dot},
	} {
		for _, n := range []int{1, 8, 33, 40} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(a[:%d], b[:%d]) did not panic", tc.name, n, n-1)
					}
				}()
				tc.f(a[:n], b[:n-1:n-1])
			}()
		}
	}
}

// floatsFromBytes reinterprets raw bytes as float32s, so a fuzzer reaches
// NaN payloads, infinities and denormals that no arithmetic generator does.
func floatsFromBytes(p []byte) []float32 {
	out := make([]float32, len(p)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

// bits is the inverse of floatsFromBytes over raw bit patterns.
func bits(vals ...uint32) []byte {
	p := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		p = binary.LittleEndian.AppendUint32(p, v)
	}
	return p
}

// FuzzKernelsAgree: on arbitrary bit patterns the assembly and the Go twin
// return the same bits, or both return NaN (x86 and Go may propagate
// different NaN payloads; no caller distinguishes them).
func FuzzKernelsAgree(f *testing.F) {
	// Short inputs that stay in the scalar tail; testdata/fuzz holds the
	// 79-float corpus (NaN payloads, Inf-Inf, denormals, lane overflow,
	// signed zeros) that runs all three loops.
	f.Add([]byte{}, []byte{})
	f.Add(bits(0x3f800000, 0x80000000, 0x00000001), bits(0x007fffff, 0x3f800000, 0x7f7fffff))
	f.Add(bits(0x7f800000, 0xff800000, 0x7fc00000), bits(0x7f800000, 0x3f800000, 0x7f800001))
	f.Fuzz(func(t *testing.T, pa, pb []byte) {
		if !hasAVX2 {
			t.Skip("no AVX2 kernel in this build or on this CPU")
		}
		a, b := floatsFromBytes(pa), floatsFromBytes(pb)
		if len(a) > len(b) {
			a = a[:len(b)]
		}
		b = b[:len(a)]
		for _, k := range kernelPairs {
			got, want := k.asm(a, b), k.ref(a, b)
			if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
				t.Fatalf("%s len %d: asm %g (%#x) != go %g (%#x)",
					k.name, len(a), got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	})
}

var benchSink float32

// benchKernel reports ns per distance for the assembly and the Go kernel
// at the paper's dataset dimensions (MovieLens 32, GloVe 100, SIFT and COMS 128,
// GIST 960); DESIGN.md's "Distance kernels" table quotes these rows.
func benchKernel(b *testing.B, k kernelPair) {
	rng := rand.New(rand.NewSource(8))
	for _, dim := range []int{32, 100, 128, 960} {
		x, y := randVec(rng, dim), randVec(rng, dim)
		run := func(name string, f func(a, b []float32) float32) {
			b.Run(name+"/dim="+strconv.Itoa(dim), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += f(x, y)
				}
			})
		}
		if hasAVX2 {
			run("asm", k.asm)
		}
		run("go", k.ref)
	}
}

func BenchmarkSquaredL2(b *testing.B) { benchKernel(b, kernelPairs[0]) }
func BenchmarkDot(b *testing.B)       { benchKernel(b, kernelPairs[1]) }
