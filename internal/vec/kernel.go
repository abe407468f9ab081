package vec

// The pure-Go distance kernels: what SquaredL2 and Dot run when AVX2 is
// absent, on other GOARCH and under -tags purego, and the bit-for-bit
// differential reference of the assembly in kernel_amd64.s. Both sum in
// one canonical order, chosen so an 8-lane SIMD unit without FMA computes
// it naturally:
//
//	acc[g][j]  sums elements 32·i + 8·g + j        (g in 0..3, j in 0..7)
//	acc[0][j]  also takes the leftover 8-blocks, element 8·k + j
//	t[j]  = (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j])
//	x[j]  = t[j] + t[j+4]                           (j in 0..3)
//	sum   = (x[0] + x[2]) + (x[1] + x[3])
//	then the last len%8 elements are added to sum in order.
//
// Every product is wrapped in float32(...) so a compiler that may fuse
// multiply-add (arm64, amd64 under GOAMD64=v3) must round it before the
// add, as VMULPS does.
//
// The kernels make one pass per accumulator, and the eight lanes of a pass
// travel through squaredL2Lanes/dotLanes as eight scalar parameters and
// results: that keeps them in registers (an [8]float32 would live in
// memory), which is what holds this order to the speed of the 4-accumulator
// loop it replaced.

// squaredL2Go returns Σ (a[i]-b[i])² in the canonical order.
// len(b) must be at least len(a).
func squaredL2Go(a, b []float32) float32 {
	n32, n8 := len(a)&^31, len(a)&^7
	p0, p1, p2, p3, p4, p5, p6, p7 := squaredL2Lanes(a, b, 0, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	p0, p1, p2, p3, p4, p5, p6, p7 = squaredL2Lanes(a, b, n32, n8, 8, p0, p1, p2, p3, p4, p5, p6, p7)
	q0, q1, q2, q3, q4, q5, q6, q7 := squaredL2Lanes(a, b, 8, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	r0, r1, r2, r3, r4, r5, r6, r7 := squaredL2Lanes(a, b, 16, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	u0, u1, u2, u3, u4, u5, u6, u7 := squaredL2Lanes(a, b, 24, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	t0, t1, t2, t3 := (p0+q0)+(r0+u0), (p1+q1)+(r1+u1), (p2+q2)+(r2+u2), (p3+q3)+(r3+u3)
	t4, t5, t6, t7 := (p4+q4)+(r4+u4), (p5+q5)+(r5+u5), (p6+q6)+(r6+u6), (p7+q7)+(r7+u7)
	s := ((t0 + t4) + (t2 + t6)) + ((t1 + t5) + (t3 + t7))
	for i := n8; i < len(a); i++ {
		d := a[i] - b[i]
		s += float32(d * d)
	}
	return s
}

// dotGo returns Σ a[i]·b[i] in the canonical order.
// len(b) must be at least len(a).
func dotGo(a, b []float32) float32 {
	n32, n8 := len(a)&^31, len(a)&^7
	p0, p1, p2, p3, p4, p5, p6, p7 := dotLanes(a, b, 0, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	p0, p1, p2, p3, p4, p5, p6, p7 = dotLanes(a, b, n32, n8, 8, p0, p1, p2, p3, p4, p5, p6, p7)
	q0, q1, q2, q3, q4, q5, q6, q7 := dotLanes(a, b, 8, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	r0, r1, r2, r3, r4, r5, r6, r7 := dotLanes(a, b, 16, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	u0, u1, u2, u3, u4, u5, u6, u7 := dotLanes(a, b, 24, n32, 32, 0, 0, 0, 0, 0, 0, 0, 0)
	t0, t1, t2, t3 := (p0+q0)+(r0+u0), (p1+q1)+(r1+u1), (p2+q2)+(r2+u2), (p3+q3)+(r3+u3)
	t4, t5, t6, t7 := (p4+q4)+(r4+u4), (p5+q5)+(r5+u5), (p6+q6)+(r6+u6), (p7+q7)+(r7+u7)
	s := ((t0 + t4) + (t2 + t6)) + ((t1 + t5) + (t3 + t7))
	for i := n8; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// squaredL2Lanes adds (a[i+j]-b[i+j])² to lane sj for i = from, from+step,
// ... while i < to, and returns the eight lanes.
func squaredL2Lanes(a, b []float32, from, to, step int, s0, s1, s2, s3, s4, s5, s6, s7 float32) (_, _, _, _, _, _, _, _ float32) {
	for i := from; i < to; i += step {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		d0, d1, d2, d3 := x[0]-y[0], x[1]-y[1], x[2]-y[2], x[3]-y[3]
		d4, d5, d6, d7 := x[4]-y[4], x[5]-y[5], x[6]-y[6], x[7]-y[7]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
		s4 += float32(d4 * d4)
		s5 += float32(d5 * d5)
		s6 += float32(d6 * d6)
		s7 += float32(d7 * d7)
	}
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// dotLanes is squaredL2Lanes for the product a[i+j]·b[i+j].
func dotLanes(a, b []float32, from, to, step int, s0, s1, s2, s3, s4, s5, s6, s7 float32) (_, _, _, _, _, _, _, _ float32) {
	for i := from; i < to; i += step {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		s0 += float32(x[0] * y[0])
		s1 += float32(x[1] * y[1])
		s2 += float32(x[2] * y[2])
		s3 += float32(x[3] * y[3])
		s4 += float32(x[4] * y[4])
		s5 += float32(x[5] * y[5])
		s6 += float32(x[6] * y[6])
		s7 += float32(x[7] * y[7])
	}
	return s0, s1, s2, s3, s4, s5, s6, s7
}
