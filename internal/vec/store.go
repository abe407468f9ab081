package vec

import (
	"errors"
	"fmt"
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

// ErrNonFinite is the error CheckFinite and Store.Append wrap when a
// coordinate is NaN or ±Inf.
var ErrNonFinite = errors.New("vec: non-finite coordinate")

// CheckFinite returns an error wrapping ErrNonFinite if any coordinate of
// v is NaN or ±Inf. A non-finite coordinate poisons every distance
// computed against the vector, so queries are checked here and stored
// vectors by Store.Append.
//
// Squares are never negative, so a finite sum of squares has only finite
// terms: the squared norm — which Append needs anyway, so the check costs
// the insert path no pass of its own — settles the common case, and only a
// non-finite sum (a bad coordinate, or finite ones whose squares overflow)
// takes the coordinate-by-coordinate look of firstNonFinite.
func CheckFinite(v []float32) error {
	if sq := SquaredNorm(v); sq-sq == 0 {
		return nil
	}
	return firstNonFinite(v)
}

// firstNonFinite names v's first NaN or ±Inf coordinate, if it has one.
// The x-x != 0 test is NaN for both NaN and infinite inputs and keeps this
// file inside the float32-only kernel rule (no math.IsNaN/IsInf).
func firstNonFinite(v []float32) error {
	for i, x := range v {
		if x-x != 0 {
			return fmt.Errorf("%w: coordinate %d is %v", ErrNonFinite, i, x)
		}
	}
	return nil
}

// Append adds a copy of v and returns its index. It returns an error, and
// stores nothing, if len(v) does not match the store dimension or a
// coordinate is not finite (ErrNonFinite).
func (s *Store) Append(v []float32) (int, error) {
	if len(v) != s.dim {
		return 0, fmt.Errorf("vec: appending %d-dim vector to %d-dim store", len(v), s.dim)
	}
	id := s.Len()
	s.data = append(s.data, v...)
	// Norm after the copy, undone on refusal: the copy streams a cold v
	// into cache and the kernel then reads it hot — the other order is
	// measurably slower per insert.
	sq := SquaredNorm(v)
	if sq-sq != 0 {
		if err := firstNonFinite(v); err != nil {
			s.data = s.data[:id*s.dim]
			return 0, err
		}
	}
	s.sqnorms = append(s.sqnorms, sq)
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
// (NNDescent and graph.EnsureConnected) pays one dot product per pair, not
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
