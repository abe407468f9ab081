package core

import (
	"math/rand"
	"testing"
)

// refSelect is an independent reference implementation of Algorithm 4's
// BlockSelection that walks the literal virtual-completed tree: leaf slots
// are laid out in a perfect binary tree of the next power of two, nodes
// whose subtree is not fully sealed are virtual blocks with time window
// (-inf, +inf) and therefore always recurse (case 3), and the partially
// filled open-leaf slot behaves as a non-full leaf (case 2 whenever it
// overlaps). The production implementation walks the forest of complete
// subtrees instead; DESIGN.md claims the two are equivalent, and
// TestSelectionMatchesVirtualTreeWalk checks it.
func refSelect(ix *Index, ts, te int64, tau float64) [][2]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := ix.store.Len()
	if n == 0 {
		return nil
	}
	sl := ix.opts.LeafSize
	slots := (n + sl - 1) / sl
	span := 1
	for span < slots {
		span *= 2
	}
	var out [][2]int
	var walk func(slotLo, slotHi int)
	walk = func(slotLo, slotHi int) {
		lo := slotLo * sl
		hi := slotHi * sl
		if lo >= n {
			return // entirely in the future: nothing real beneath
		}
		if hi > n {
			hi = n
		}
		sealed := hi <= ix.openLo && hi == slotHi*sl
		if sealed {
			// A real block: apply the three cases.
			bts, bte := ix.blockWindowLocked(lo, hi)
			if !overlaps(bts, bte, ts, te) {
				return
			}
			ro := 1.0
			if bte > bts {
				ro = float64(min64(bte, te)-max64(bts, ts)) / float64(bte-bts)
			}
			if slotHi-slotLo == 1 || ro > tau {
				out = append(out, [2]int{lo, hi})
				return
			}
			mid := (slotLo + slotHi) / 2
			walk(slotLo, mid)
			walk(mid, slotHi)
			return
		}
		if slotHi-slotLo == 1 {
			// The open (non-full) leaf: a leaf block, case 2 on overlap.
			bts, bte := ix.blockWindowLocked(ix.openLo, n)
			if overlaps(bts, bte, ts, te) {
				out = append(out, [2]int{ix.openLo, n})
			}
			return
		}
		// Virtual block: time window extends to +inf, so r_o ~ 0 < tau —
		// always case 3.
		mid := (slotLo + slotHi) / 2
		walk(slotLo, mid)
		walk(mid, slotHi)
	}
	walk(0, span)
	return out
}

func TestSelectionMatchesVirtualTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sl := range []int{2, 4, 7} {
		for _, n := range []int{1, 3, sl, sl + 1, 5 * sl, 8*sl - 1, 8 * sl, 13*sl + 2} {
			ix, err := New(testOptions(sl))
			if err != nil {
				t.Fatal(err)
			}
			v := make([]float32, 8)
			for i := 0; i < n; i++ {
				for j := range v {
					v[j] = float32(rng.NormFloat64())
				}
				// Occasionally repeat timestamps to cover duplicates.
				tstamp := int64(i)
				if i > 0 && rng.Intn(10) == 0 {
					tstamp = int64(i - 1)
				}
				_ = tstamp
				if err := ix.Append(v, int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, tau := range []float64{0.2, 0.5, 0.8, 1.0} {
				for trial := 0; trial < 60; trial++ {
					a := rng.Intn(n)
					b := a + 1 + rng.Intn(n-a)
					got := ix.SelectedRanges(int64(a), int64(b), tau)
					want := refSelect(ix, int64(a), int64(b), tau)
					if len(got) != len(want) {
						t.Fatalf("sl=%d n=%d tau=%g [%d,%d): got %v, reference %v",
							sl, n, tau, a, b, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("sl=%d n=%d tau=%g [%d,%d): got %v, reference %v",
								sl, n, tau, a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLemma43OneBlockPerLevel checks Lemma 4.3's structure: for a query
// whose window starts exactly at the root block's earliest timestamp (an
// ILAQ block at the root) and tau > 0.5, selection uses at most one block
// per level, except possibly two at the leaf level.
func TestLemma43OneBlockPerLevel(t *testing.T) {
	const sl = 4
	ix, err := New(testOptions(sl))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, ix, 43, 128) // perfect tree: 32 leaves, height 5
	if got := len(ix.Forest()); got != 1 {
		t.Fatalf("setup: %d forest roots", got)
	}
	sizeToLevel := map[int]int{}
	for _, b := range ix.Blocks() {
		sizeToLevel[b.Len()] = b.Height
	}
	for _, tau := range []float64{0.6, 0.75, 0.9} {
		for wlen := 1; wlen <= 128; wlen++ {
			ranges := ix.SelectedRanges(0, int64(wlen), tau)
			perLevel := map[int]int{}
			for _, r := range ranges {
				lvl, ok := sizeToLevel[r[1]-r[0]]
				if !ok {
					t.Fatalf("selected range %v has no block size", r)
				}
				perLevel[lvl]++
			}
			for lvl, count := range perLevel {
				limit := 1
				if lvl == 0 {
					limit = 2
				}
				if count > limit {
					t.Fatalf("tau=%g window [0,%d): %d blocks at level %d (ranges %v)",
						tau, wlen, count, lvl, ranges)
				}
			}
		}
	}
}

// TestDuplicateTimestamps exercises the degenerate-window handling: many
// vectors share one timestamp, so block windows can be zero-length.
func TestDuplicateTimestamps(t *testing.T) {
	ix, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	vs := make([][]float32, 40)
	for i := range vs {
		v := make([]float32, 8)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		vs[i] = v
		// Timestamps: 0,0,0,0,1,1,1,1,2,... — whole leaves share one stamp.
		if err := ix.Append(v, int64(i/4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Query for a single shared timestamp: the half-open window [3, 4)
	// holds exactly vectors 12..15.
	res := queryWith(ix, vs[13], 4, 3, 4, ix.opts.Search, rng)
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	for _, r := range res {
		if r.ID < 12 || r.ID > 15 {
			t.Errorf("result %d outside the shared-timestamp group", r.ID)
		}
	}
	// A window covering nothing between stamps returns nothing... there
	// are no gaps with integer consecutive stamps, so query before time 0.
	if got := queryWith(ix, vs[0], 3, -10, 0, ix.opts.Search, rng); len(got) != 0 {
		t.Errorf("pre-history window returned %v", got)
	}
}

// TestExhaustiveEpsIsExact: with an effectively unbounded frontier and
// epsilon, MBI's answers must equal brute force exactly — the graph
// connectivity guarantee.
func TestExhaustiveEpsIsExact(t *testing.T) {
	ix, err := New(testOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	vs := fill(t, ix, 47, 300)
	rng := rand.New(rand.NewSource(48))
	big := graphParamsExhaustive()
	for trial := 0; trial < 40; trial++ {
		a := rng.Intn(300)
		b := a + 1 + rng.Intn(300-a)
		q := vs[rng.Intn(len(vs))]
		got := queryWith(ix, q, 5, int64(a), int64(b), big, rng)
		want := bruteForce(ix, q, 5, int64(a), int64(b))
		if len(got) != len(want) {
			t.Fatalf("[%d,%d): %d results, want %d", a, b, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d): result %d = %v, want %v", a, b, i, got[i], want[i])
			}
		}
	}
}

// TestExactnessPropertyAcrossShapes is a randomized campaign: for random
// (S_L, n, window, k) combinations, exhaustive-parameter MBI must equal
// brute force exactly. It subsumes many hand-picked edge cases (windows
// inside one leaf, spanning the open leaf, covering everything).
func TestExactnessPropertyAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 12; trial++ {
		sl := 2 + rng.Intn(12)
		n := 1 + rng.Intn(sl*10)
		ix, err := New(testOptions(sl))
		if err != nil {
			t.Fatal(err)
		}
		vs := fill(t, ix, int64(trial), n)
		p := graphParamsExhaustive()
		for q := 0; q < 25; q++ {
			a := rng.Intn(n)
			b := a + 1 + rng.Intn(n-a)
			k := 1 + rng.Intn(8)
			probe := vs[rng.Intn(len(vs))]
			got := queryWith(ix, probe, k, int64(a), int64(b), p, rng)
			want := bruteForce(ix, probe, k, int64(a), int64(b))
			if len(got) != len(want) {
				t.Fatalf("sl=%d n=%d k=%d [%d,%d): %d results, want %d", sl, n, k, a, b, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sl=%d n=%d k=%d [%d,%d): result %d = %v, want %v", sl, n, k, a, b, i, got[i], want[i])
				}
			}
		}
	}
}
