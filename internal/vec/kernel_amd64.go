//go:build amd64 && !purego

package vec

// hasAVX2 selects the assembly kernels, once, at package init.
var hasAVX2 = cpuHasAVX2()

// The kernels in kernel_amd64.s read len(a) floats from both slices and
// use AVX2: SquaredL2 and Dot reslice b to len(a) and check hasAVX2 before
// calling them.

//go:noescape
func squaredL2AVX2(a, b []float32) float32

//go:noescape
func dotAVX2(a, b []float32) float32

func cpuHasAVX2() bool
