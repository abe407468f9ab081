package vec

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats maps two pages, makes the second inaccessible, and returns
// the first as a float32 slice: reading one byte past its end faults.
func guardedFloats(t *testing.T) []float32 {
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
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), page/4)
}

// TestKernelsDoNotOverRead ends a and b on the last byte before a
// PROT_NONE page, for every length that mixes the 32-wide, 8-wide and
// scalar loops: a tail that loads a whole vector past the slice faults
// here and nowhere else.
func TestKernelsDoNotOverRead(t *testing.T) {
	pa, pb := guardedFloats(t), guardedFloats(t)
	for i := range pa {
		pa[i], pb[i] = float32(i%7), float32(i%5)
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
	}
}
