// Package graph holds the proximity-graph machinery shared by every
// graph-backed index in this repository: a compact CSR adjacency
// representation, the Builder interface that NNDescent implements (§4.1's
// pluggable per-block index, and the seam tests substitute a fake
// through), and the time-filtered best-first search of the paper's
// Algorithm 2 ("Graph-based SF Query Process"). MBI runs this search
// inside each selected block; the SF baseline runs it over the whole
// database.
package graph

import (
	"fmt"

	"repro/internal/vec"
)

// CSR is a directed adjacency list in compressed sparse row form.
// Node i's out-neighbors are Adj[Off[i]:Off[i+1]]. Node ids are local to
// the view the graph was built over.
type CSR struct {
	Off []int32
	Adj []int32
}

// NumNodes returns the number of nodes in the graph.
func (g *CSR) NumNodes() int {
	if len(g.Off) == 0 {
		return 0
	}
	return len(g.Off) - 1
}

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() int { return len(g.Adj) }

// Neighbors returns node i's out-neighbor slice (aliasing the CSR memory).
func (g *CSR) Neighbors(i int32) []int32 {
	return g.Adj[g.Off[i]:g.Off[i+1]]
}

// FromLists converts per-node adjacency lists to CSR form.
func FromLists(lists [][]int32) *CSR {
	off := make([]int32, len(lists)+1)
	total := 0
	for i, l := range lists {
		total += len(l)
		off[i+1] = int32(total)
	}
	adj := make([]int32, 0, total)
	for _, l := range lists {
		adj = append(adj, l...)
	}
	return &CSR{Off: off, Adj: adj}
}

// Validate checks structural sanity: monotone offsets and in-range
// neighbor ids with no self-loops. It is used by tests and by the
// deserializer to reject corrupt input.
func (g *CSR) Validate() error {
	n := g.NumNodes()
	if len(g.Off) == 0 {
		if len(g.Adj) != 0 {
			return fmt.Errorf("graph: edges without offsets")
		}
		return nil
	}
	if g.Off[0] != 0 {
		return fmt.Errorf("graph: first offset is %d, want 0", g.Off[0])
	}
	// Bound-check every offset before any slicing: Validate runs on
	// deserialized input, where offsets can be arbitrary garbage.
	for i := 0; i < n; i++ {
		if g.Off[i+1] < g.Off[i] {
			return fmt.Errorf("graph: offsets not monotone at node %d", i)
		}
		if int(g.Off[i+1]) > len(g.Adj) {
			return fmt.Errorf("graph: offset %d exceeds %d edges", g.Off[i+1], len(g.Adj))
		}
	}
	if int(g.Off[n]) != len(g.Adj) {
		return fmt.Errorf("graph: last offset %d != len(adj) %d", g.Off[n], len(g.Adj))
	}
	for i := 0; i < n; i++ {
		for _, nb := range g.Adj[g.Off[i]:g.Off[i+1]] {
			if nb < 0 || int(nb) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d (n=%d)", i, nb, n)
			}
			if int(nb) == i {
				return fmt.Errorf("graph: node %d has a self-loop", i)
			}
		}
	}
	return nil
}

// ValidateDegree checks that every node's out-degree is at most maxDeg.
// Builders call it (under the invariant gate) on their raw output before
// EnsureConnected, which may legitimately push a few bridge endpoints past
// the construction cap.
func (g *CSR) ValidateDegree(maxDeg int) error {
	for i := 0; i < g.NumNodes(); i++ {
		if d := int(g.Off[i+1] - g.Off[i]); d > maxDeg {
			return fmt.Errorf("graph: node %d has out-degree %d, cap %d", i, d, maxDeg)
		}
	}
	return nil
}

// Builder constructs a proximity graph over the vectors of a view.
// Implementations must be safe for concurrent use by multiple goroutines —
// MBI's bottom-up block merging builds sibling blocks in parallel with the
// same Builder value.
type Builder interface {
	// Build returns a proximity graph over view. seed drives any internal
	// randomization so that index construction is reproducible.
	Build(view vec.View, seed int64) *CSR
}
