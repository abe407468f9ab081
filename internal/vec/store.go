package vec

import (
	"fmt"

	"repro/internal/invariant"
)

// Store holds vectors of a fixed dimension back-to-back in one []float32.
// Index i's coordinates live at data[i*dim : (i+1)*dim].
//
// A Store is append-only: vectors are never mutated or removed once added,
// which is what lets MBI blocks reference ranges of the store instead of
// copying. Append is not safe for concurrent use; reads of already-appended
// vectors are safe concurrently with a single appender as long as readers
// obtained their length bound before the append (the MBI index enforces
// this with its own lock).
// Besides the coordinates, the store caches each vector's squared L2 norm
// at append time (4 bytes/vector), so angular-distance hot paths never
// renormalize stored vectors per call — DistanceStored reads the cache.
type Store struct {
	dim     int
	data    []float32
	sqnorms []float32 // sqnorms[i] == SquaredNorm(At(i)), maintained by every ingest path
}

// NewStore returns an empty store for dim-dimensional vectors.
// It panics if dim <= 0: a zero-dimensional store is always a caller bug.
func NewStore(dim int) *Store {
	if dim <= 0 {
		panic(fmt.Sprintf("vec: non-positive dimension %d", dim))
	}
	return &Store{dim: dim}
}

// NewStoreCap is NewStore with capacity pre-allocated for n vectors.
func NewStoreCap(dim, n int) *Store {
	s := NewStore(dim)
	s.data = make([]float32, 0, dim*n)
	s.sqnorms = make([]float32, 0, n)
	return s
}

// Dim returns the vector dimension.
func (s *Store) Dim() int { return s.dim }

// Len returns the number of vectors currently stored.
func (s *Store) Len() int { return len(s.data) / s.dim }

// CheckFinite returns an error if any coordinate of v is NaN or ±Inf.
// A non-finite coordinate poisons every distance computed against the
// vector, so ingest paths assert finiteness under the invariant gate.
// The x-x != 0 test is NaN for both NaN and infinite inputs and keeps
// this file inside the float32-only kernel rule (no math.IsNaN/IsInf).
func CheckFinite(v []float32) error {
	for i, x := range v {
		if x-x != 0 {
			return fmt.Errorf("vec: coordinate %d is not finite (%v)", i, x)
		}
	}
	return nil
}

// Append adds a copy of v and returns its index.
// It returns an error if len(v) does not match the store dimension.
func (s *Store) Append(v []float32) (int, error) {
	if len(v) != s.dim {
		return 0, fmt.Errorf("vec: appending %d-dim vector to %d-dim store", len(v), s.dim)
	}
	if invariant.Enabled {
		invariant.NoError(CheckFinite(v), "vec: ingest")
	}
	id := s.Len()
	s.data = append(s.data, v...)
	s.sqnorms = append(s.sqnorms, SquaredNorm(v))
	return id, nil
}

// SqNorm returns the cached squared L2 norm of vector i.
func (s *Store) SqNorm(i int) float32 { return s.sqnorms[i] }

// At returns the vector at index i as a slice aliasing the store's memory.
// Callers must not modify the returned slice.
func (s *Store) At(i int) []float32 {
	off := i * s.dim
	return s.data[off : off+s.dim : off+s.dim]
}

// Raw exposes the underlying flat buffer, e.g. for serialization.
// Callers must not modify it.
func (s *Store) Raw() []float32 { return s.data }

// Snapshot returns a read-only view of the store's current contents that
// stays valid while the original keeps growing: the returned store shares
// the backing array but has a fixed length, and appends to the original
// either write past that length or reallocate — either way they never
// touch the snapshot's [0, Len) range. Used by MBI's seal routine to
// build block graphs without holding the index lock.
func (s *Store) Snapshot() *Store {
	n := s.Len()
	return &Store{
		dim:     s.dim,
		data:    s.data[:len(s.data):len(s.data)],
		sqnorms: s.sqnorms[:n:n],
	}
}

// FromRaw constructs a store that adopts buf as its backing memory.
// len(buf) must be a multiple of dim.
func FromRaw(dim int, buf []float32) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vec: non-positive dimension %d", dim)
	}
	if len(buf)%dim != 0 {
		return nil, fmt.Errorf("vec: buffer length %d is not a multiple of dim %d", len(buf), dim)
	}
	s := &Store{dim: dim, data: buf}
	n := s.Len()
	s.sqnorms = make([]float32, n)
	for i := 0; i < n; i++ {
		s.sqnorms[i] = SquaredNorm(s.At(i))
	}
	return s, nil
}

// View is a read-only window over the contiguous range [Lo, Hi) of a store,
// with local indices 0..Len()-1 mapping to global indices Lo..Hi-1.
// MBI blocks, the BSBF baseline, and the graph builders all operate on
// Views so they are agnostic to where in the timeline their data sits.
type View struct {
	Store  *Store
	Lo, Hi int
	Metric Metric
}

// Len returns the number of vectors in the view.
func (v View) Len() int { return v.Hi - v.Lo }

// At returns the vector at local index i.
func (v View) At(i int) []float32 { return v.Store.At(v.Lo + i) }

// Dist returns the metric distance between the vectors at local indices i
// and j. Both norms come from the store's cache, so an angular graph build
// (NNDescent, NSW, connectivity repair) pays one dot product per pair, not
// three. Bit-identical to Distance over the two vectors.
func (v View) Dist(i, j int) float32 {
	s := v.Store
	return DistanceStored(v.Metric, s.At(v.Lo+i), s.sqnorms[v.Lo+i], s, v.Lo+j)
}

// DistTo returns the metric distance between query q and the vector at
// local index i.
func (v View) DistTo(q []float32, i int) float32 {
	return Distance(v.Metric, q, v.Store.At(v.Lo+i))
}

// DistToCached is DistTo with the query's squared norm hoisted by the
// caller (once per scan or walk), so the angular path reads the store's
// cached vector norm instead of recomputing both norms per candidate.
//
//tknn:hotpath
func (v View) DistToCached(q []float32, qSqNorm float32, i int) float32 {
	return DistanceStored(v.Metric, q, qSqNorm, v.Store, v.Lo+i)
}
