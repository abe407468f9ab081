package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/persist"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// TierPoint is one cache-budget operating point of the tiered-storage
// experiment: the whole sealed forest on disk, the block cache bounded
// to SpilledBytes/Overcommit, measured against the all-RAM baseline on
// the same queries.
type TierPoint struct {
	// Overcommit is the memory overcommit factor: spilled payload bytes
	// divided by the cache budget (1 = everything fits, 16 = heavy
	// thrash).
	Overcommit int `json:"overcommit"`
	// CacheBytes is the resulting cache budget.
	CacheBytes int64 `json:"cache_bytes"`
	// Recall is recall@k against brute-force ground truth.
	Recall float64 `json:"recall_vs_exact"`
	// P50Ns / P99Ns are per-query latency percentiles in nanoseconds.
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
	// HitRate is hits/(hits+misses) over the measured (second) pass of
	// the query stream — steady-state paging, after one warm-up pass
	// from an empty cache.
	HitRate float64 `json:"hit_rate"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	// Evictions counts payloads dropped to stay under the budget.
	Evictions uint64 `json:"evictions"`
	// HitRateTrajectory is the cumulative hit rate sampled after each
	// quarter of the query stream — how fast the cache warms (or fails
	// to) at this budget.
	HitRateTrajectory []float64 `json:"hit_rate_trajectory"`
}

// TierReport is the experiment output, serialized to BENCH_tier.json:
// recall and latency of disk-resident blocks behind the bounded LRU
// block cache at increasing memory overcommit, on the drifting-cluster
// workload.
type TierReport struct {
	Dim      int `json:"dim"`
	TrainN   int `json:"train_n"`
	LeafSize int `json:"leaf_size"`
	K        int `json:"k"`
	Queries  int `json:"queries"`
	// SpilledBlocks / SpilledBytes describe what SpillCold moved to
	// disk: every sealed block at or below the spill height (the bulk of
	// the block count; the tall roots stay RAM-resident).
	SpilledBlocks int   `json:"spilled_blocks"`
	SpilledBytes  int64 `json:"spilled_bytes"`
	// RAMRecall / RAMP50Ns / RAMP99Ns are the all-RAM baseline, measured
	// on the identical index before spilling.
	RAMRecall float64     `json:"ram_recall_vs_exact"`
	RAMP50Ns  float64     `json:"ram_p50_ns"`
	RAMP99Ns  float64     `json:"ram_p99_ns"`
	Points    []TierPoint `json:"points"`
}

// tierK is the result count; the paper's headline recall operating point.
const tierK = 10

// tierOvercommits is the cache-pressure sweep; the acceptance gates read
// the 4x point.
var tierOvercommits = []int{1, 4, 16}

// Acceptance gates, checked at 4x overcommit (cache bounded to a quarter
// of the spilled bytes): paging through the cache must not cost recall
// (cold results are bit-identical to RAM results by construction), and
// tail latency must stay within 3x of the all-RAM median.
const (
	tierGateOvercommit   = 4
	tierMaxRecallLoss    = 0.01
	tierMaxP99OverRAMP50 = 3.0
)

// TierExperiment measures the tiered query path on a drifting-cluster
// workload: build the index, take the all-RAM baseline, spill the cold
// short blocks to per-block segment files (the shipped policy — tall
// roots stay in RAM), then sweep the block-cache budget from
// "everything fits" to 16x overcommit, reporting recall, latency
// percentiles, and the cache hit-rate trajectory at each budget.
func TierExperiment(c Config, w io.Writer, jsonPath string) (TierReport, error) {
	leaves := 48
	sl := int(96*c.Scale + 0.5)
	if sl < 32 {
		sl = 32
	}
	p := dataset.Profile{
		Name: "tier-drift", Dim: 64, Metric: vec.Angular,
		TrainN: leaves * sl, TestN: c.QueriesPerPoint,
		Clusters: 24, ClusterStd: 0.9, Background: 0.1,
		LeafSize: sl, Tau: 0.5, GraphK: 12, MC: 36,
	}
	drift := dataset.DriftConfig{Rate: 5e-4, Renormalize: true}
	d := dataset.GenerateDrifting(p, drift, c.Seed)

	report := TierReport{Dim: p.Dim, TrainN: p.TrainN, LeafSize: sl, K: tierK}

	segDir, err := os.MkdirTemp("", "tknn-tier-")
	if err != nil {
		return report, fmt.Errorf("tier experiment: %w", err)
	}
	defer os.RemoveAll(segDir)

	sp := graph.SearchParams{MC: effMC(p.MC, tierK), Eps: 1.1}
	ix, err := core.New(core.Options{
		Dim: p.Dim, Metric: p.Metric, LeafSize: sl, Tau: p.Tau,
		Builder: nndescent.MustNew(nndescent.DefaultConfig(p.GraphK)),
		Search:  sp, Workers: c.Workers, Seed: c.Seed,
		Spill: &core.SpillConfig{
			Write: func(id, lo, hi, height int, g *graph.CSR, codes *sq.Codes) (int64, error) {
				return persist.WriteSegmentFile(segDir, id, lo, hi, height, p.Dim, g, codes)
			},
			Load: func(ctx context.Context, key uint64) (blockcache.Value, error) {
				g, codes, _, _, err := persist.ReadSegmentFile(segDir, int(key), p.Dim)
				if err != nil {
					return blockcache.Value{}, err
				}
				return blockcache.Value{Graph: g, Codes: codes}, nil
			},
			// Height <= 3 mirrors the shipped policy: short blocks (the
			// bulk of the block count) spill, the tall roots that answer
			// most of every window stay RAM-resident.
			MaxHeight:  3,
			CacheBytes: 1 << 40,
		},
	})
	if err != nil {
		return report, fmt.Errorf("tier experiment: %w", err)
	}
	for i := 0; i < d.Train.Len(); i++ {
		if err := ix.Append(d.Train.At(i), d.Times[i]); err != nil {
			return report, fmt.Errorf("tier experiment: append: %w", err)
		}
	}

	rng := rand.New(rand.NewSource(c.Seed + 2))
	qs := dataset.MakeQueries(rng, d, tierK, 0.5)
	if len(qs) > c.QueriesPerPoint {
		qs = qs[:c.QueriesPerPoint]
	}
	exact := dataset.GroundTruth(d.Train, d.Times, p.Metric, qs, c.Workers)
	report.Queries = len(qs)

	// run answers the full query stream sequentially, sampling the
	// cumulative cache hit rate after each quarter, and returns answers
	// plus sorted per-query latencies.
	run := func() ([][]theap.Neighbor, []time.Duration, []float64) {
		qrng := rand.New(rand.NewSource(c.Seed + 3))
		answers := make([][]theap.Neighbor, len(qs))
		lats := make([]time.Duration, len(qs))
		var traj []float64
		quarter := (len(qs) + 3) / 4
		scr := core.NewScratch()
		for i, q := range qs {
			start := time.Now()
			answers[i], _ = mbiQuery(ix, scr, core.Request{Q: q.W, K: q.K, Ts: q.Ts, Te: q.Te, Tau: p.Tau, Params: sp, Rng: qrng})
			lats[i] = time.Since(start)
			if (i+1)%quarter == 0 || i == len(qs)-1 {
				if st, ok := ix.CacheStats(); ok && st.Hits+st.Misses > 0 {
					traj = append(traj, float64(st.Hits)/float64(st.Hits+st.Misses))
				}
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return answers, lats, traj
	}
	pct := func(sorted []time.Duration, p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return float64(sorted[i].Nanoseconds())
	}

	// --- all-RAM baseline, before anything is spilled -------------------
	ramAnswers, ramLats, _ := run()
	report.RAMRecall, err = dataset.MeanRecall(ramAnswers, exact, tierK)
	if err != nil {
		return report, fmt.Errorf("tier experiment: %w", err)
	}
	report.RAMP50Ns = pct(ramLats, 0.50)
	report.RAMP99Ns = pct(ramLats, 0.99)

	blocks, bytes, err := ix.SpillCold()
	if err != nil {
		return report, fmt.Errorf("tier experiment: spill: %w", err)
	}
	if blocks == 0 {
		return report, fmt.Errorf("tier experiment: nothing spilled (S_L %d, %d vectors)", sl, p.TrainN)
	}
	report.SpilledBlocks = blocks
	report.SpilledBytes = bytes

	header(w, "tiered storage experiment (drifting clusters)",
		fmt.Sprintf("n=%d, S_L=%d (%d leaves), dim=%d, k=%d, %d queries, %d cores",
			p.TrainN, sl, leaves, p.Dim, tierK, len(qs), runtime.NumCPU()))
	fmt.Fprintf(w, "spilled %d blocks, %d bytes; all-RAM baseline: recall@%d %.3f, p50 %.0f ns, p99 %.0f ns\n\n",
		blocks, bytes, tierK, report.RAMRecall, report.RAMP50Ns, report.RAMP99Ns)
	fmt.Fprintf(w, "%-10s %12s %8s %12s %12s %9s %10s\n",
		"overcommit", "cache bytes", "recall", "p50 ns", "p99 ns", "hit rate", "evictions")

	for _, oc := range tierOvercommits {
		budget := bytes / int64(oc)
		// A fresh cache per budget: each point warms from empty, so the
		// hit-rate trajectory is the budget's own, not the previous
		// sweep's leftovers.
		ix.SetCacheBytes(budget)
		// First pass warms the cache (and records how fast it warms);
		// the second pass is the measured one, so the latency gates read
		// steady-state paging behavior, not one-time first-touch misses.
		_, _, traj := run()
		warm, _ := ix.CacheStats()
		answers, lats, _ := run()
		recall, err := dataset.MeanRecall(answers, exact, tierK)
		if err != nil {
			return report, fmt.Errorf("tier experiment: %w", err)
		}
		st, _ := ix.CacheStats()
		pt := TierPoint{
			Overcommit:        oc,
			CacheBytes:        budget,
			Recall:            recall,
			P50Ns:             pct(lats, 0.50),
			P99Ns:             pct(lats, 0.99),
			Hits:              st.Hits - warm.Hits,
			Misses:            st.Misses - warm.Misses,
			Evictions:         st.Evictions,
			HitRateTrajectory: traj,
		}
		if lookups := pt.Hits + pt.Misses; lookups > 0 {
			pt.HitRate = float64(pt.Hits) / float64(lookups)
		}
		report.Points = append(report.Points, pt)
		fmt.Fprintf(w, "%-10d %12d %8.3f %12.0f %12.0f %9.3f %10d\n",
			pt.Overcommit, pt.CacheBytes, pt.Recall, pt.P50Ns, pt.P99Ns, pt.HitRate, pt.Evictions)
	}

	if jsonPath != "" {
		if err := writeTierJSON(jsonPath, report); err != nil {
			return report, err
		}
		fmt.Fprintf(w, "\nwrote %s\n", jsonPath)
	}
	for _, pt := range report.Points {
		if pt.Overcommit != tierGateOvercommit {
			continue
		}
		if pt.Recall < report.RAMRecall-tierMaxRecallLoss {
			return report, fmt.Errorf("tier experiment: recall@%d %.3f at %dx overcommit more than %.2f below the all-RAM %.3f",
				tierK, pt.Recall, pt.Overcommit, tierMaxRecallLoss, report.RAMRecall)
		}
		if pt.P99Ns > tierMaxP99OverRAMP50*report.RAMP50Ns && pt.P99Ns > report.RAMP99Ns {
			return report, fmt.Errorf("tier experiment: p99 %.0f ns at %dx overcommit exceeds %gx the all-RAM p50 (%.0f ns)",
				pt.P99Ns, pt.Overcommit, tierMaxP99OverRAMP50, report.RAMP50Ns)
		}
	}
	return report, nil
}

func writeTierJSON(path string, report TierReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tier experiment: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		_ = f.Close()
		return fmt.Errorf("tier experiment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("tier experiment: %w", err)
	}
	return nil
}
