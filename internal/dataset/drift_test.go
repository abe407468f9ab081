package dataset

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// centerSpread is a cheap, model-free drift indicator: the Euclidean
// distance between the centroids of the first and last quartiles of the
// training data. Stationary data gives sampling noise (~sqrt(8/n) for
// unit vectors); drifting data grows with the drift rate. Euclidean is
// used regardless of the profile metric because cosine distance between
// near-zero centroids (random cluster directions cancel) is meaningless.
func centerSpread(d *Data) float32 {
	n := d.Train.Len()
	if n < 20 {
		return 0
	}
	dim := d.Train.Dim()
	first := make([]float32, dim)
	last := make([]float32, dim)
	quarter := n / 4
	for i := 0; i < quarter; i++ {
		a, b := d.Train.At(i), d.Train.At(n-1-i)
		for j := 0; j < dim; j++ {
			first[j] += a[j] / float32(quarter)
			last[j] += b[j] / float32(quarter)
		}
	}
	return float32(math.Sqrt(float64(vec.SquaredL2(first, last))))
}

func driftProfile() Profile {
	p, _ := ProfileByName("DEEP1B")
	p.TrainN, p.TestN = 2000, 20
	return p
}

func TestGenerateDriftingDeterministic(t *testing.T) {
	p := driftProfile()
	cfg := DriftConfig{Rate: 1e-3, Renormalize: true}
	a := GenerateDrifting(p, cfg, 9)
	b := GenerateDrifting(p, cfg, 9)
	if a.Train.Len() != p.TrainN || len(a.Test) != p.TestN {
		t.Fatalf("sizes %d/%d", a.Train.Len(), len(a.Test))
	}
	for i := 0; i < a.Train.Len(); i += 97 {
		av, bv := a.Train.At(i), b.Train.At(i)
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("vector %d differs between same-seed generations", i)
			}
		}
	}
}

func TestDriftIncreasesSpread(t *testing.T) {
	p := driftProfile()
	var prev float32 = -1
	for _, rate := range []float64{0, 5e-3, 2e-2} {
		d := GenerateDrifting(p, DriftConfig{Rate: rate, Renormalize: true}, 11)
		spread := centerSpread(d)
		if spread < 0 {
			t.Fatalf("negative spread %g", spread)
		}
		if rate > 0 && spread <= prev {
			t.Errorf("rate %g: spread %g not larger than previous %g", rate, spread, prev)
		}
		prev = spread
	}
}

func TestDriftZeroMatchesStationaryShape(t *testing.T) {
	// Rate 0 should behave like the stationary generator statistically:
	// tiny first/last decile centroid distance.
	p := driftProfile()
	d := GenerateDrifting(p, DriftConfig{Rate: 0}, 13)
	// Sampling noise for 500-vector centroids of ~unit vectors is about
	// sqrt(2/500)*||x|| ~ 0.07; anything near that means no drift.
	if spread := centerSpread(d); spread > 0.2 {
		t.Errorf("zero-drift spread %g, want sampling noise only", spread)
	}
	// Angular profile data is normalized.
	for i := 0; i < d.Train.Len(); i += 211 {
		n := vec.SquaredNorm(d.Train.At(i))
		if n < 0.99 || n > 1.01 {
			t.Fatalf("vector %d squared norm %g", i, n)
		}
	}
}

func TestCenterSpreadTinyData(t *testing.T) {
	p := driftProfile()
	p.TrainN, p.TestN = 10, 2
	d := GenerateDrifting(p, DriftConfig{Rate: 1}, 15)
	if got := centerSpread(d); got != 0 {
		t.Errorf("tiny-data spread = %g, want 0 sentinel", got)
	}
}
