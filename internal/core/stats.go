package core

import (
	"fmt"
	"sort"

	"repro/internal/vec"
)

// Stats summarizes the shape of an MBI index.
type Stats struct {
	// NumVectors is the total number of indexed vectors, including the
	// open leaf.
	NumVectors int
	// NumBlocks is the number of sealed blocks (graphs built).
	NumBlocks int
	// TreeHeight is the height of the tallest complete subtree.
	TreeHeight int
	// BlocksPerLevel[h] counts sealed blocks of height h.
	BlocksPerLevel []int
	// GraphEdges is the total directed edge count across all block graphs.
	GraphEdges int64
	// ForestHeights lists the heights of the complete-subtree roots,
	// left to right.
	ForestHeights []int
	// OpenLeafFill is the number of vectors in the open (non-full) leaf.
	OpenLeafFill int
	// CompressedBlocks counts sealed blocks carrying SQ8 codes.
	CompressedBlocks int
	// CodeBytes is the total memory of all blocks' SQ8 codes (codes,
	// per-dim parameters, and cached norms).
	CodeBytes int64
	// SpilledBlocks counts blocks whose payload lives in a segment file
	// instead of RAM; SpilledBytes is their total on-disk size.
	SpilledBlocks int
	SpilledBytes  int64
}

// Stats returns a snapshot of the index shape.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := Stats{
		NumVectors:   ix.store.Len(),
		NumBlocks:    len(ix.blocks),
		OpenLeafFill: ix.store.Len() - ix.openLo,
	}
	for _, b := range ix.blocks {
		for len(s.BlocksPerLevel) <= b.Height {
			s.BlocksPerLevel = append(s.BlocksPerLevel, 0)
		}
		s.BlocksPerLevel[b.Height]++
		if b.Graph != nil {
			s.GraphEdges += int64(b.Graph.NumEdges())
		}
		if b.Height > s.TreeHeight {
			s.TreeHeight = b.Height
		}
		if b.Codes != nil {
			s.CompressedBlocks++
			s.CodeBytes += int64(b.Codes.Bytes())
		}
		if b.Spilled {
			s.SpilledBlocks++
			s.SpilledBytes += b.SegBytes
		}
	}
	for _, root := range ix.forest {
		s.ForestHeights = append(s.ForestHeights, ix.blocks[root].Height)
	}
	return s
}

// CheckInvariants verifies every structural invariant the design relies
// on. It is called by tests after randomized insertion sequences and is
// cheap enough to run after restores.
//
// Invariants checked:
//  1. times is sorted ascending and matches the store length.
//  2. Postorder numbering: a height-h block at index i has its right child
//     at i-1 and its left child at i-2^h, children are one level lower and
//     split the parent's range at its midpoint.
//  3. Every sealed block covers exactly S_L * 2^height vectors and carries
//     a structurally valid graph with one node per vector.
//  4. The forest roots have strictly decreasing heights and tile
//     [0, openLo) contiguously from the left, short of openLo only by
//     whole sealed leaves whose builds are in flight.
//  5. The open leaf holds fewer than S_L vectors.
func (ix *Index) CheckInvariants() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.checkInvariantsLocked()
}

// checkInvariantsLocked is CheckInvariants for callers already holding mu
// (read or write) — processSeal's install step and the spill release run it
// under the invariant gate while still inside their write-lock critical
// section.
func (ix *Index) checkInvariantsLocked() error {
	n := ix.store.Len()
	if len(ix.times) != n {
		return fmt.Errorf("mbi: %d timestamps for %d vectors", len(ix.times), n)
	}
	times := ix.times
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		return fmt.Errorf("mbi: timestamps not sorted")
	}

	for i, b := range ix.blocks {
		want := ix.opts.LeafSize << uint(b.Height)
		if b.Len() != want {
			return fmt.Errorf("mbi: block %d (height %d) covers %d vectors, want %d", i, b.Height, b.Len(), want)
		}
		if b.Spilled {
			// A spilled block's payload lives in its segment; the RAM side
			// must be fully released and tiered storage configured to page
			// it back. Its range/child structure is still checked below.
			if b.Graph != nil || b.Codes != nil {
				return fmt.Errorf("mbi: spilled block %d still holds a RAM payload", i)
			}
			if ix.opts.Spill == nil {
				return fmt.Errorf("mbi: block %d is spilled but no spill config is set", i)
			}
		} else {
			if b.Graph == nil {
				return fmt.Errorf("mbi: block %d has no graph", i)
			}
			if err := b.Graph.Validate(); err != nil {
				return fmt.Errorf("mbi: block %d: %w", i, err)
			}
			if b.Graph.NumNodes() != b.Len() {
				return fmt.Errorf("mbi: block %d graph has %d nodes for %d vectors", i, b.Graph.NumNodes(), b.Len())
			}
			if b.Codes != nil {
				if err := b.Codes.Validate(); err != nil {
					return fmt.Errorf("mbi: block %d: %w", i, err)
				}
				if b.Codes.Dim != ix.opts.Dim {
					return fmt.Errorf("mbi: block %d codes have dim %d, want %d", i, b.Codes.Dim, ix.opts.Dim)
				}
				if b.Codes.N != b.Len() {
					return fmt.Errorf("mbi: block %d codes cover %d vectors, want %d", i, b.Codes.N, b.Len())
				}
			}
		}
		if b.Height > 0 {
			li := i - (1 << uint(b.Height))
			ri := i - 1
			if li < 0 || ri < 0 {
				return fmt.Errorf("mbi: block %d (height %d) has out-of-range children %d, %d", i, b.Height, li, ri)
			}
			l, r := ix.blocks[li], ix.blocks[ri]
			if l.Height != b.Height-1 || r.Height != b.Height-1 {
				return fmt.Errorf("mbi: block %d children heights %d, %d, want %d", i, l.Height, r.Height, b.Height-1)
			}
			if l.Lo != b.Lo || l.Hi != r.Lo || r.Hi != b.Hi {
				return fmt.Errorf("mbi: block %d range [%d,%d) not split by children [%d,%d) [%d,%d)",
					i, b.Lo, b.Hi, l.Lo, l.Hi, r.Lo, r.Hi)
			}
		}
	}

	prevHeight := int(^uint(0) >> 1) // max int
	cursor := 0
	for _, root := range ix.forest {
		if root < 0 || root >= len(ix.blocks) {
			return fmt.Errorf("mbi: forest references missing block %d", root)
		}
		b := ix.blocks[root]
		if b.Height >= prevHeight {
			return fmt.Errorf("mbi: forest heights not strictly decreasing (%d after %d)", b.Height, prevHeight)
		}
		prevHeight = b.Height
		if b.Lo != cursor {
			return fmt.Errorf("mbi: forest root at %d starts at %d, want %d", root, b.Lo, cursor)
		}
		cursor = b.Hi
	}
	// Builds may trail: the gap [cursor, openLo) is sealed data whose
	// blocks are still in flight, and must be leaf-aligned.
	if cursor > ix.openLo {
		return fmt.Errorf("mbi: forest covers [0,%d) past open leaf at %d", cursor, ix.openLo)
	}
	if gap := ix.openLo - cursor; gap%ix.opts.LeafSize != 0 {
		return fmt.Errorf("mbi: pending region [%d,%d) is not whole leaves", cursor, ix.openLo)
	}
	if fill := n - ix.openLo; fill < 0 || fill >= ix.opts.LeafSize {
		return fmt.Errorf("mbi: open leaf holds %d vectors with S_L = %d", fill, ix.opts.LeafSize)
	}
	return nil
}

// SetRerankFactor changes the compressed-block over-fetch multiplier on a
// live index (0 restores the default). Benchmarks sweep it per query batch;
// the write lock orders the change against in-flight searches.
func (ix *Index) SetRerankFactor(f int) {
	if f < 0 {
		f = 0
	}
	ix.mu.Lock()
	ix.opts.RerankFactor = f
	ix.mu.Unlock()
}

// Store exposes the backing vector store for persistence. The returned
// store must be treated as read-only.
func (ix *Index) Store() *vec.Store {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.store
}

// Times returns the timestamp slice for persistence. Read-only.
func (ix *Index) Times() []int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.times
}

// Blocks returns a copy of the sealed-block metadata in creation order.
// The graphs alias index memory and must be treated as read-only.
func (ix *Index) Blocks() []Block {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]Block, len(ix.blocks))
	copy(out, ix.blocks)
	return out
}

// Forest returns a copy of the complete-subtree root indices.
func (ix *Index) Forest() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]int, len(ix.forest))
	copy(out, ix.forest)
	return out
}

// OpenLo returns the global index where the open leaf begins.
func (ix *Index) OpenLo() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.openLo
}

// Restore reconstructs an index from persisted state. The inputs are
// adopted, not copied; the caller must not reuse them. CheckInvariants is
// run before accepting the state.
func Restore(opts Options, store *vec.Store, times []int64, blocks []Block, forest []int, openLo int) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if store.Dim() != opts.Dim {
		return nil, fmt.Errorf("mbi: store dimension %d != options dimension %d", store.Dim(), opts.Dim)
	}
	ix := &Index{
		opts:   opts,
		store:  store,
		times:  times,
		blocks: blocks,
		forest: forest,
		openLo: openLo,
	}
	ix.entrySalt = entrySalt(opts)
	ix.cache = newBlockCache(opts)
	if err := ix.CheckInvariants(); err != nil {
		return nil, err
	}
	// Restored state must be quiescent: a sealed-but-unbuilt gap has no
	// queued job to build it (SaveMBI flushes, so valid files never have
	// one).
	if got := ix.installedHiLocked(); got != openLo {
		return nil, fmt.Errorf("mbi: restored blocks cover [0,%d) but open leaf starts at %d", got, openLo)
	}
	ix.startMergeWorker()
	return ix, nil
}
