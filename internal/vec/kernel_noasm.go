//go:build !amd64 || purego

package vec

// No assembly in this build: every kernel always takes its Go twin. The
// declarations below only keep the dispatch and the differential tests
// compiling on every platform.
const hasAVX2 = false

func squaredL2AVX2(a, b []float32) float32 { panic("vec: no assembly kernel in this build") }

func dotAVX2(a, b []float32) float32 { panic("vec: no assembly kernel in this build") }

func squaredL2CodesAVX2(q, mins, steps []float32, codes []uint8) float32 {
	panic("vec: no assembly kernel in this build")
}

func dotCodesAVX2(q, mins, steps []float32, codes []uint8) float32 {
	panic("vec: no assembly kernel in this build")
}
