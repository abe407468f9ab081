package persist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// benchGraph is a deterministic n-node graph with the out-degree of a
// sealed NNDescent block (about 34 edges a node, no self-loops).
func benchGraph(n int) *graph.CSR {
	rng := rand.New(rand.NewSource(int64(n)))
	lists := make([][]int32, n)
	for i := range lists {
		deg := 30 + rng.Intn(9)
		for j := 0; j < deg; j++ {
			lists[i] = append(lists[i], int32((i+1+rng.Intn(n-1))%n))
		}
	}
	return graph.FromLists(lists)
}

// BenchmarkReadSegment pages one spilled block's segment file in, the
// fetch a cold block costs a query: open, decode, verify, close. MB/s is
// over the file's bytes; allocs/op counts the decoder's allocations.
//
//	go test -run '^$' -bench ReadSegment -benchmem ./internal/persist
func BenchmarkReadSegment(b *testing.B) {
	const dim = 128
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			g := benchGraph(n)
			size, err := WriteSegmentFile(dir, 0, 0, n, 0, dim, g, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, _, err := ReadSegmentFile(dir, 0, dim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
