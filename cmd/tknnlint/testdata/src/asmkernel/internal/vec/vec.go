// Package vec mirrors the real kernel dispatch: a hot-path function whose
// callee is declared without a body because its code lives in assembly.
// hotpath-alloc has no body to walk there and must skip it silently —
// treat it as a leaf that does not allocate — rather than crash or report.
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
