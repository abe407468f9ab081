//go:build amd64 && !purego

package vec

// hasAVX2 selects the assembly kernels, once, at package init.
var hasAVX2 = cpuHasAVX2()

// The kernels in kernel_amd64.s read len(a) floats from both slices (the
// code kernels: len(codes) from each) and use AVX2: the exported wrappers
// reslice the other operands to that length and check hasAVX2 before
// calling them.

//go:noescape
func squaredL2AVX2(a, b []float32) float32

//go:noescape
func dotAVX2(a, b []float32) float32

//go:noescape
func squaredL2CodesAVX2(q, mins, steps []float32, codes []uint8) float32

//go:noescape
func dotCodesAVX2(q, mins, steps []float32, codes []uint8) float32

func cpuHasAVX2() bool
