package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/graph"
)

// The paper's §5.4.2 closes with: "If possible, one can compute the
// optimal τ for each query interval experimentally beforehand, and use
// the pre-computed τ at run-time." This file implements that suggestion:
// TuneTau measures query throughput across a τ grid for a ladder of
// window fractions, producing a TauTable that Request.TauTable consults per
// query based on how much of the database the window covers.

// TauTable maps a query window's coverage fraction to the τ that measured
// fastest for that regime.
type TauTable struct {
	// Fractions are ascending bucket upper bounds in (0, 1]; a window
	// covering fraction f uses the first bucket with Fractions[i] >= f.
	Fractions []float64
	// Taus[i] is the tuned threshold for bucket i.
	Taus []float64
}

// TauFor returns the tuned τ for a window covering fraction f of the
// database. It must only be called on a table returned by TuneTau.
func (t *TauTable) TauFor(f float64) float64 {
	i := sort.SearchFloat64s(t.Fractions, f)
	if i >= len(t.Taus) {
		i = len(t.Taus) - 1
	}
	return t.Taus[i]
}

// TunerConfig controls TuneTau's measurement grid.
type TunerConfig struct {
	// Taus is the candidate grid. Empty means {0.1 ... 0.9} by 0.2.
	Taus []float64
	// Fractions are the window-coverage bucket bounds. Empty means
	// {0.02, 0.1, 0.3, 0.6, 1.0}.
	Fractions []float64
	// QueriesPerBucket is the number of sampled (query, window) pairs per
	// bucket per τ. Zero means 30.
	QueriesPerBucket int
	// K is the result count to tune for. Zero means 10.
	K int
	// Search supplies the Algorithm 2 parameters used while measuring.
	// A zero value uses the index defaults.
	Search graph.SearchParams
	// Seed drives query sampling. Zero means 1.
	Seed int64
}

func (c *TunerConfig) applyDefaults(ix *Index) error {
	if len(c.Taus) == 0 {
		c.Taus = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	if len(c.Fractions) == 0 {
		c.Fractions = []float64{0.02, 0.1, 0.3, 0.6, 1.0}
	}
	if !sort.Float64sAreSorted(c.Fractions) {
		return fmt.Errorf("mbi: tuner fractions must be ascending, got %v", c.Fractions)
	}
	for _, tau := range c.Taus {
		if tau <= 0 || tau > 1 {
			return fmt.Errorf("mbi: tuner tau %g out of (0, 1]", tau)
		}
	}
	if c.QueriesPerBucket == 0 {
		c.QueriesPerBucket = 30
	}
	if c.QueriesPerBucket < 0 {
		return fmt.Errorf("mbi: negative QueriesPerBucket")
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.K < 0 {
		return fmt.Errorf("mbi: negative K")
	}
	if c.Search == (graph.SearchParams{}) {
		c.Search = ix.opts.Search
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// TuneTau measures, for each window-fraction bucket, which τ answers
// sampled queries fastest on this index, and returns the resulting table.
// Query vectors are sampled from the indexed data itself; windows are
// sampled uniformly at each bucket's fraction. The index must hold data.
//
// Tuning runs real searches and therefore takes time proportional to
// len(Taus) × len(Fractions) × QueriesPerBucket queries.
func (ix *Index) TuneTau(cfg TunerConfig) (*TauTable, error) {
	if err := cfg.applyDefaults(ix); err != nil {
		return nil, err
	}
	n := ix.Len()
	if n == 0 {
		return nil, fmt.Errorf("mbi: cannot tune an empty index")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	table := &TauTable{Fractions: cfg.Fractions}
	scr := NewScratch()

	for _, frac := range cfg.Fractions {
		// Pre-sample the workload once per bucket so every τ measures the
		// same queries.
		type workItem struct {
			q      []float32
			ts, te int64
		}
		items := make([]workItem, cfg.QueriesPerBucket)
		ix.mu.RLock()
		for i := range items {
			wlen := int(frac * float64(n))
			if wlen < 1 {
				wlen = 1
			}
			start := 0
			if n > wlen {
				start = rng.Intn(n - wlen + 1)
			}
			ts := ix.times[start]
			var te int64
			if start+wlen < n {
				te = ix.times[start+wlen]
			} else {
				te = ix.times[n-1] + 1
			}
			items[i] = workItem{q: ix.store.At(rng.Intn(n)), ts: ts, te: te}
		}
		ix.mu.RUnlock()

		// Two repetitions per τ, scored by the faster one: a single pass is
		// vulnerable to GC pauses and cache effects, and a wrong τ choice
		// persists for the index's lifetime.
		bestTau, bestTime := cfg.Taus[0], time.Duration(1<<62)
		for _, tau := range cfg.Taus {
			var fastest time.Duration = 1 << 62
			for rep := 0; rep < 2; rep++ {
				qrng := rand.New(rand.NewSource(cfg.Seed + int64(tau*1000) + int64(rep)))
				start := time.Now()
				for _, it := range items {
					ix.Query(context.Background(), scr, Request{Q: it.q, K: cfg.K, Ts: it.ts, Te: it.te, Tau: tau, Params: cfg.Search, Rng: qrng})
				}
				if elapsed := time.Since(start); elapsed < fastest {
					fastest = elapsed
				}
			}
			if fastest < bestTime {
				bestTau, bestTime = tau, fastest
			}
		}
		table.Taus = append(table.Taus, bestTau)
	}
	return table, nil
}
