package vec

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats is guardedBytes as a float32 slice.
func guardedFloats(t *testing.T) []float32 {
	t.Helper()
	p := guardedBytes(t)
	return unsafe.Slice((*float32)(unsafe.Pointer(&p[0])), len(p)/4)
}

// guardedBytes maps two pages, makes the second inaccessible, and returns
// the first: reading one byte past its end faults.
func guardedBytes(t *testing.T) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return mem[:page]
}

// TestKernelsDoNotOverRead ends every operand — a and b, and the code
// kernels' query, affine map and code row — on the last byte before a
// PROT_NONE page, for every length that mixes the 32-wide, 8-wide and
// scalar loops: a tail that loads a whole vector (or 8 codes) past the
// slice faults here and nowhere else.
func TestKernelsDoNotOverRead(t *testing.T) {
	pa, pb, pm, pc := guardedFloats(t), guardedFloats(t), guardedFloats(t), guardedBytes(t)
	for i := range pa {
		pa[i], pb[i], pm[i] = float32(i%7), float32(i%5), float32(i%3)
	}
	for i := range pc {
		pc[i] = uint8(i * 37)
	}
	for n := 1; n <= 70; n++ {
		a, b := pa[len(pa)-n:], pb[len(pb)-n:]
		for _, k := range kernelPairs {
			want := k.ref(a, b)
			if hasAVX2 {
				if got := k.asm(a, b); math.Float32bits(got) != math.Float32bits(want) {
					t.Errorf("%s len %d at the page end: asm %g != go %g", k.name, n, got, want)
				}
			}
		}
		q, mins, steps, codes := pa[len(pa)-n:], pb[len(pb)-n:], pm[len(pm)-n:], pc[len(pc)-n:]
		for _, k := range codeKernelPairs {
			want := k.ref(q, mins, steps, codes)
			if hasAVX2 {
				if got := k.asm(q, mins, steps, codes); math.Float32bits(got) != math.Float32bits(want) {
					t.Errorf("%s len %d at the page end: asm %g != go %g", k.name, n, got, want)
				}
			}
		}
	}
}
