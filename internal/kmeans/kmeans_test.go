package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// blobs generates k well-separated 2-d blobs of m points each.
func blobs(seed int64, k, m int) (vec.View, [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	s := vec.NewStore(2)
	centers := make([][]float32, k)
	for c := range centers {
		centers[c] = []float32{float32(c * 100), float32(c % 3 * 100)}
		for i := 0; i < m; i++ {
			v := []float32{
				centers[c][0] + float32(rng.NormFloat64()),
				centers[c][1] + float32(rng.NormFloat64()),
			}
			if _, err := s.Append(v); err != nil {
				panic(err)
			}
		}
	}
	return vec.View{Store: s, Lo: 0, Hi: s.Len(), Metric: vec.Euclidean}, centers
}

func TestRunRecoversBlobs(t *testing.T) {
	view, centers := blobs(1, 4, 100)
	res, err := Run(view, Config{K: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Len() != 4 {
		t.Fatalf("%d centroids", res.Centroids.Len())
	}
	// Every true center should have a centroid within a couple of noise
	// standard deviations.
	for _, c := range centers {
		best := float32(1e30)
		for i := 0; i < 4; i++ {
			if d := vec.SquaredL2(c, res.Centroids.At(i)); d < best {
				best = d
			}
		}
		if best > 4 { // (2 sigma)^2
			t.Errorf("center %v has nearest centroid at squared distance %g", c, best)
		}
	}
	// Balanced assignment: each blob has 100 points.
	for c, size := range res.Sizes {
		if size < 80 || size > 120 {
			t.Errorf("cluster %d has %d members, want ~100", c, size)
		}
	}
}

func TestRunAssignmentsConsistent(t *testing.T) {
	view, _ := blobs(2, 3, 60)
	res, err := Run(view, Config{K: 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != view.Len() {
		t.Fatalf("%d assignments for %d points", len(res.Assign), view.Len())
	}
	counts := make([]int, 3)
	for i, a := range res.Assign {
		if a < 0 || int(a) >= 3 {
			t.Fatalf("point %d assigned to %d", i, a)
		}
		counts[a]++
		// Each point's assigned centroid is its nearest.
		p := view.At(i)
		own := vec.SquaredL2(p, res.Centroids.At(int(a)))
		for c := 0; c < 3; c++ {
			if d := vec.SquaredL2(p, res.Centroids.At(c)); d < own-1e-4 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, a, c)
			}
		}
	}
	for c, got := range counts {
		if got != res.Sizes[c] {
			t.Errorf("cluster %d size mismatch: %d vs %d", c, got, res.Sizes[c])
		}
	}
}

// TestRunDeterministic: one seed, one answer, to the bit. Unstructured
// points have many local optima, so a draw from anywhere but the seeded
// generator changes the centroids, not just the cluster labels.
func TestRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := vec.NewStore(4)
	for i := 0; i < 300; i++ {
		v := []float32{float32(rng.Float64()), float32(rng.Float64()), float32(rng.Float64()), float32(rng.Float64())}
		if _, err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	blobView, _ := blobs(3, 3, 50)
	for _, view := range []vec.View{blobView, {Store: s, Lo: 0, Hi: s.Len(), Metric: vec.Euclidean}} {
		a, err := Run(view, Config{K: 12}, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(view, Config{K: 12}, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Assign {
			if a.Assign[i] != b.Assign[i] {
				t.Fatalf("assignment %d differs between same-seed runs", i)
			}
		}
		for i, x := range a.Centroids.Raw() {
			if math.Float32bits(x) != math.Float32bits(b.Centroids.Raw()[i]) {
				t.Fatalf("centroid coordinate %d differs between same-seed runs", i)
			}
		}
	}
}

func TestRunEdgeCases(t *testing.T) {
	s := vec.NewStore(2)
	empty := vec.View{Store: s, Lo: 0, Hi: 0, Metric: vec.Euclidean}
	if _, err := Run(empty, Config{K: 2}, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Run(empty, Config{K: 0}, 1); err == nil {
		t.Error("K=0 accepted")
	}
	// K > n clamps to n.
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]float32{float32(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	view := vec.View{Store: s, Lo: 0, Hi: 3, Metric: vec.Euclidean}
	res, err := Run(view, Config{K: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Len() != 3 {
		t.Errorf("K>n gave %d centroids, want 3", res.Centroids.Len())
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	s := vec.NewStore(2)
	for i := 0; i < 20; i++ {
		if _, err := s.Append([]float32{5, 5}); err != nil {
			t.Fatal(err)
		}
	}
	view := vec.View{Store: s, Lo: 0, Hi: 20, Metric: vec.Euclidean}
	res, err := Run(view, Config{K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, size := range res.Sizes {
		total += size
	}
	if total != 20 {
		t.Errorf("sizes sum to %d, want 20", total)
	}
}
