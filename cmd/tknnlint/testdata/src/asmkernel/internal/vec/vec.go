// Package vec mirrors the real kernel dispatch: a hot-path function in a
// float32-kernel package whose callee is declared without a body because
// its code lives in assembly. Both hotpath-alloc and float32-kernel have
// no body to walk there and must skip it silently — treat it as a leaf
// that neither allocates nor widens — rather than crash or report.
package vec

// dotAsm is assembly-backed (kernel.s).
//
//go:noescape
func dotAsm(a, b []float32) float32

// Dot is the corpus's hot root: it reslices a caller buffer and calls the
// body-less declaration, the exact shape of the real vec.Dot.
//
//tknn:hotpath
func Dot(a, b []float32) float32 {
	b = b[:len(a)]
	return dotAsm(a, b)
}

// Norm reaches the body-less callee transitively, through a hot callee
// that has a body.
//
//tknn:hotpath
func Norm(a []float32) float32 { return Dot(a, a) }
