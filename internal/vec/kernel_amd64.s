//go:build amd64 && !purego

#include "textflag.h"

// AVX2 distance kernels. Both follow the canonical summation order that
// squaredL2Go/dotGo (kernel.go) spell out in scalar Go, using only
// VSUBPS/VMULPS/VADDPS — no FMA — so every intermediate is rounded to
// float32 exactly as the Go twin rounds it and the two agree bit for bit:
//
//	Y0..Y3   lane j of Yg sums elements 32·i + 8·g + j
//	Y0       also takes the leftover 8-blocks
//	reduce   (Y0+Y1)+(Y2+Y3) → t[j]+t[j+4] → (x0+x2)+(x1+x3)
//	tail     the last < 8 elements, added in order
//
// Loads are unaligned and never wider than what is left in the slice: the
// 8-wide loop stops with fewer than 8 elements to go and the tail loads
// one float at a time (kernel_guard_linux_test.go proves it against a
// PROT_NONE page).

// func squaredL2AVX2(a, b []float32) float32
TEXT ·squaredL2AVX2(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ   CX, $32
	JB     l2tail8

l2loop32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VSUBPS  (DI), Y4, Y4
	VSUBPS  32(DI), Y5, Y5
	VSUBPS  64(DI), Y6, Y6
	VSUBPS  96(DI), Y7, Y7
	VMULPS  Y4, Y4, Y4
	VMULPS  Y5, Y5, Y5
	VMULPS  Y6, Y6, Y6
	VMULPS  Y7, Y7, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JAE     l2loop32

l2tail8:
	CMPQ CX, $8
	JB   l2reduce

l2loop8:
	VMOVUPS (SI), Y4
	VSUBPS  (DI), Y4, Y4
	VMULPS  Y4, Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     l2loop8

l2reduce:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VADDPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0
	TESTQ        CX, CX
	JZ           l2done

l2loop1:
	VMOVSS (SI), X1
	VSUBSS (DI), X1, X1
	VMULSS X1, X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    l2loop1

l2done:
	VZEROUPPER
	VMOVSS X0, ret+48(FP)
	RET

// func dotAVX2(a, b []float32) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ   CX, $32
	JB     dottail8

dotloop32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VMULPS  (DI), Y4, Y4
	VMULPS  32(DI), Y5, Y5
	VMULPS  64(DI), Y6, Y6
	VMULPS  96(DI), Y7, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JAE     dotloop32

dottail8:
	CMPQ CX, $8
	JB   dotreduce

dotloop8:
	VMOVUPS (SI), Y4
	VMULPS  (DI), Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     dotloop8

dotreduce:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VADDPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0
	TESTQ        CX, CX
	JZ           dotdone

dotloop1:
	VMOVSS (SI), X1
	VMULSS (DI), X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    dotloop1

dotdone:
	VZEROUPPER
	VMOVSS X0, ret+48(FP)
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU reports it (leaf 7 EBX bit 5) and the OS
// saves the YMM state: leaf 1 ECX OSXSAVE (bit 27) and AVX (bit 28), and
// XCR0 bits 1-2 (SSE and AVX state) both set.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   noavx2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX
	JZ   noavx2
	MOVB $1, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET
