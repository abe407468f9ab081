package dataset

import (
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Time-accumulating data rarely stays stationary: photo styles, music
// genres, and weather regimes drift, so vectors from 2024 occupy a
// different region of the space than vectors from 2008. GenerateDrifting
// produces such a workload by random-walking the cluster centers as time
// advances; the SQ8 and tiered-storage experiments and the benchmark
// harness draw their workloads from it.

// DriftConfig controls GenerateDrifting.
type DriftConfig struct {
	// Rate is the standard deviation of each center's per-step random
	// walk, as a fraction of the unit center norm, applied once per
	// emitted vector. Typical interesting values: 1e-4 .. 1e-3 (over n
	// steps the centers move ~Rate*sqrt(n)).
	Rate float64
	// Renormalize keeps centers on the unit sphere as they walk, so
	// drift changes direction rather than magnitude. Recommended for
	// angular profiles.
	Renormalize bool
}

// GenerateDrifting draws profile p's workload with cluster centers that
// drift over time. Test queries are drawn against the *final* state of
// the centers, mimicking "current" probes against historical data. The
// same (p, cfg, seed) triple always yields identical data.
func GenerateDrifting(p Profile, cfg DriftConfig, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, p.Clusters)
	for c := range centers {
		v := make([]float32, p.Dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		vec.Normalize(v)
		centers[c] = v
	}

	noiseScale := p.ClusterStd / math.Sqrt(float64(p.Dim))
	bgScale := 0.7 / math.Sqrt(float64(p.Dim))
	stepScale := cfg.Rate / math.Sqrt(float64(p.Dim))

	drift := func() {
		for _, c := range centers {
			for i := range c {
				c[i] += float32(rng.NormFloat64() * stepScale)
			}
			if cfg.Renormalize {
				vec.Normalize(c)
			}
		}
	}
	sample := func() []float32 {
		v := make([]float32, p.Dim)
		if rng.Float64() < p.Background {
			for i := range v {
				v[i] = float32(rng.NormFloat64() * bgScale)
			}
		} else {
			c := centers[rng.Intn(p.Clusters)]
			for i := range v {
				v[i] = c[i] + float32(rng.NormFloat64()*noiseScale)
			}
		}
		if p.Metric == vec.Angular {
			vec.Normalize(v)
		}
		return v
	}

	train := vec.NewStoreCap(p.Dim, p.TrainN)
	times := make([]int64, p.TrainN)
	for i := 0; i < p.TrainN; i++ {
		if _, err := train.Append(sample()); err != nil {
			panic(err) // dimensions are internally consistent
		}
		times[i] = int64(i)
		drift()
	}
	queries := make([][]float32, p.TestN)
	for i := range queries {
		queries[i] = sample()
	}
	return &Data{Profile: p, Train: train, Times: times, Test: queries}
}
