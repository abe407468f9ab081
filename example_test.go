package tknn_test

import (
	"bytes"
	"fmt"
	"log"

	tknn "repro"
)

// Example demonstrates the core workflow: create an MBI index, add
// timestamped vectors, and run a time-restricted kNN query.
func Example() {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 2, LeafSize: 4})
	if err != nil {
		log.Fatal(err)
	}
	// Vectors arrive in timestamp order.
	points := [][]float32{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {1, 1}, {6, 5}}
	for i, p := range points {
		if err := ix.Add(p, int64(i*10)); err != nil {
			log.Fatal(err)
		}
	}
	// The 2 nearest neighbors of (0.2, 0.2) with timestamps in [0, 35).
	res, err := ix.Search(tknn.Query{Vector: []float32{0.2, 0.2}, K: 2, Start: 0, End: 35})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res {
		fmt.Printf("id=%d time=%d\n", r.ID, r.Time)
	}
	// Output:
	// id=0 time=0
	// id=1 time=10
}

// ExampleMBI_Explain shows the query planner: which blocks a window
// would touch, without searching.
func ExampleMBI_Explain() {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 1, LeafSize: 2})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := ix.Add([]float32{float32(i)}, int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	plan := ix.Explain(0, 8) // the whole timeline: one root block
	fmt.Printf("blocks searched: %d\n", len(plan.Blocks))
	fmt.Printf("vectors in window: %d\n", plan.TotalInWindow)
	// Output:
	// blocks searched: 1
	// vectors in window: 8
}

// ExampleNewBSBF shows the exact baseline, useful as a ground-truth
// oracle or for small datasets.
func ExampleNewBSBF() {
	ix, err := tknn.NewBSBF(1, tknn.Euclidean)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ix.Add([]float32{float32(i)}, int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	res, err := ix.Search(tknn.Query{Vector: []float32{4.2}, K: 3, Start: 0, End: 10})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res {
		fmt.Println(r.ID)
	}
	// Output:
	// 4
	// 5
	// 3
}

// ExampleMBI_TreeHeight shows the merge cascade (§4.4): every filled leaf
// is sealed as a block, and whenever two sibling blocks are complete their
// parent is built too, so the sealed blocks form a postorder-numbered
// binary tree.
func ExampleMBI_TreeHeight() {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 1, LeafSize: 2})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := ix.Add([]float32{float32(i)}, int64(i)); err != nil {
			log.Fatal(err)
		}
		if i%2 == 1 {
			fmt.Printf("%d vectors: %d blocks, height %d\n", ix.Len(), ix.BlockCount(), ix.TreeHeight())
		}
	}
	// Output:
	// 2 vectors: 1 blocks, height 0
	// 4 vectors: 3 blocks, height 1
	// 6 vectors: 4 blocks, height 1
	// 8 vectors: 7 blocks, height 2
}

// ExampleMBIOptions_angular indexes embeddings compared by cosine: with
// Metric Angular a result's Dist is 1 − cos θ, so the vector's length does
// not matter, only its direction.
func ExampleMBIOptions_angular() {
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 2, LeafSize: 4, Metric: tknn.Angular})
	if err != nil {
		log.Fatal(err)
	}
	points := [][]float32{{1, 0}, {0, 1}, {10, 1}, {-1, 0}, {3, 3}, {0, -2}}
	for i, p := range points {
		if err := ix.Add(p, int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	res, err := ix.Search(tknn.Query{Vector: []float32{2, 0}, K: 3, Start: 0, End: 6})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res {
		fmt.Printf("id=%d dist=%.3f\n", r.ID, r.Dist)
	}
	// Output:
	// id=0 dist=0.000
	// id=2 dist=0.005
	// id=4 dist=0.293
}

// ExampleLoadMBI round-trips an index through its snapshot format: Save
// writes the vectors, timestamps and every sealed block's graph, and
// LoadMBI, given the same options, restores an index that answers
// identically.
func ExampleLoadMBI() {
	opts := tknn.MBIOptions{Dim: 1, LeafSize: 4}
	ix, err := tknn.NewMBI(opts)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ix.Add([]float32{float32(i)}, int64(i)); err != nil {
			log.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		log.Fatal(err)
	}
	restored, err := tknn.LoadMBI(&snap, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %d vectors in %d blocks\n", restored.Len(), restored.BlockCount())
	q := tknn.Query{Vector: []float32{6.2}, K: 2, Start: 0, End: 10}
	for _, m := range []*tknn.MBI{ix, restored} {
		res, err := m.Search(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res[0].ID, res[1].ID)
	}
	// Output:
	// restored 10 vectors in 3 blocks
	// 6 7
	// 6 7
}
