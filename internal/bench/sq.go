package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/sq"
	"repro/internal/theap"
	"repro/internal/vec"
)

// SQPoint is one rerank-factor operating point of the compression
// experiment: the compressed index's answers scored against the flat
// index's answers on the same queries.
type SQPoint struct {
	// RerankFactor is the over-fetch multiplier: each compressed block
	// contributes its k·RerankFactor best code-space candidates, re-ranked
	// exactly against the float32 store.
	RerankFactor int `json:"rerank_factor"`
	// RecallVsFlat is recall@k of the compressed index against the flat
	// index — quantization loss in isolation, since both walk identical
	// graphs.
	RecallVsFlat float64 `json:"recall_vs_flat"`
	// RecallVsExact is recall@k against brute-force ground truth.
	RecallVsExact float64 `json:"recall_vs_exact"`
	// NsPerQuery is mean per-query latency in nanoseconds.
	NsPerQuery float64 `json:"ns_per_query"`
}

// SQReport is the experiment output, serialized to BENCH_sq.json: the
// memory and throughput profile of SQ8-compressed blocks, plus the
// recall cost of quantization at increasing rerank factors on the
// drifting-cluster workload.
type SQReport struct {
	Dim      int     `json:"dim"`
	TrainN   int     `json:"train_n"`
	LeafSize int     `json:"leaf_size"`
	K        int     `json:"k"`
	Queries  int     `json:"queries"`
	Drift    float64 `json:"drift_rate"`
	// FloatBytesPerVector is the raw float32 payload (Dim·4).
	FloatBytesPerVector int `json:"float_bytes_per_vector"`
	// CodeBytesPerVector is the SQ8 payload per vector: 1 byte per
	// coordinate plus the amortized affine map and the per-row norm.
	CodeBytesPerVector float64 `json:"code_bytes_per_vector"`
	// MemoryReduction is FloatBytesPerVector / CodeBytesPerVector.
	MemoryReduction float64 `json:"memory_reduction"`
	// CompressedBlocks and CodeBytes describe the built MBI index: every
	// sealed block of the forest carries codes (CompressMinHeight 0), so
	// CodeBytes spans all tree levels, not one copy of the data.
	CompressedBlocks int   `json:"compressed_blocks"`
	CodeBytes        int64 `json:"code_bytes"`
	// ScanGBps is asymmetric-kernel throughput in code bytes per second:
	// Codes.Dist over every row, as the compressed scans and walks run it.
	ScanGBps float64 `json:"scan_gbps"`
	// NsPerDistance is the cost of one Codes.Dist.
	NsPerDistance float64 `json:"ns_per_distance"`
	// FlatRecall is the flat index's recall@k against brute force — the
	// ceiling the compressed points are chasing.
	FlatRecall float64   `json:"flat_recall_vs_exact"`
	Points     []SQPoint `json:"points"`
}

// sqK is the result count; the paper's headline recall operating point.
const sqK = 10

// sqRerankFactors is the over-fetch sweep; the acceptance gate reads the
// last (largest) factor.
var sqRerankFactors = []int{1, 2, 4}

// Acceptance gates for the compression experiment, checked on the
// drifting-cluster workload: SQ8 must shrink the vector payload at least
// 3.5x and, at the largest rerank factor, must track the flat index's
// answers at recall@10 >= 0.95.
const (
	sqMinReduction = 3.5
	sqMinRecall    = 0.95
)

// SQExperiment measures the SQ8 compressed query path on a drifting-
// cluster workload — the regime the paper targets, where each sealed
// block covers a temporally coherent (hence spatially tight) slice, which
// is exactly what makes per-block quantizers accurate. It reports
// bytes/vector and memory reduction versus float32, asymmetric-kernel
// scan throughput, and recall@10 against the flat index at rerank factors
// 1/2/4, and fails if the memory-reduction or recall gate is missed.
func SQExperiment(c Config, w io.Writer, jsonPath string) (SQReport, error) {
	leaves := 48
	sl := int(96*c.Scale + 0.5)
	if sl < 32 {
		sl = 32
	}
	p := dataset.Profile{
		Name: "sq-drift", Dim: 64, Metric: vec.Angular,
		TrainN: leaves * sl, TestN: c.QueriesPerPoint,
		Clusters: 24, ClusterStd: 0.9, Background: 0.1,
		LeafSize: sl, Tau: 0.5, GraphK: 12, MC: 36,
	}
	drift := dataset.DriftConfig{Rate: 5e-4, Renormalize: true}
	d := dataset.GenerateDrifting(p, drift, c.Seed)

	report := SQReport{
		Dim: p.Dim, TrainN: p.TrainN, LeafSize: sl, K: sqK,
		Drift:               drift.Rate,
		FloatBytesPerVector: p.Dim * 4,
	}

	// --- payload size and kernel throughput on one trained block --------
	// One quantizer over the full store gives the clean bytes/vector
	// number (the per-block affine overhead amortizes the same way at any
	// realistic block size) and a large enough row count to time the
	// asymmetric kernel meaningfully.
	codes := sq.Train(d.Train, 0, d.Train.Len(), sq.TrainConfig{})
	report.CodeBytesPerVector = float64(codes.Bytes()) / float64(codes.N)
	report.MemoryReduction = float64(report.FloatBytesPerVector) / report.CodeBytesPerVector

	scanQueries := d.Test
	if len(scanQueries) > 32 {
		scanQueries = scanQueries[:32]
	}
	var sink float32
	start := time.Now()
	for _, q := range scanQueries {
		qn := vec.Norm(q)
		for i := 0; i < codes.N; i++ {
			sink += codes.Dist(p.Metric, q, qn, i)
		}
	}
	elapsed := time.Since(start)
	distances := float64(len(scanQueries)) * float64(codes.N)
	scanned := distances * float64(p.Dim) // one code byte per coordinate
	report.ScanGBps = scanned / elapsed.Seconds() / 1e9
	report.NsPerDistance = float64(elapsed.Nanoseconds()) / distances
	_ = sink

	// --- flat vs compressed index recall -------------------------------
	sp := graph.SearchParams{MC: effMC(p.MC, sqK), Eps: 1.1}
	build := func(kind sq.Kind) (*core.Index, error) {
		ix, err := core.New(core.Options{
			Dim: p.Dim, Metric: p.Metric, LeafSize: sl, Tau: p.Tau,
			Builder: nndescent.MustNew(nndescent.DefaultConfig(p.GraphK)),
			Search:  sp, Workers: c.Workers, Seed: c.Seed,
			Compression: kind,
		})
		if err != nil {
			return nil, fmt.Errorf("sq experiment: %w", err)
		}
		for i := 0; i < d.Train.Len(); i++ {
			if err := ix.Append(d.Train.At(i), d.Times[i]); err != nil {
				return nil, fmt.Errorf("sq experiment: append: %w", err)
			}
		}
		return ix, nil
	}
	flat, err := build(sq.None)
	if err != nil {
		return report, err
	}
	comp, err := build(sq.SQ8)
	if err != nil {
		return report, err
	}
	st := comp.Stats()
	report.CompressedBlocks = st.CompressedBlocks
	report.CodeBytes = st.CodeBytes

	rng := rand.New(rand.NewSource(c.Seed + 2))
	qs := dataset.MakeQueries(rng, d, sqK, 0.5)
	if len(qs) > c.QueriesPerPoint {
		qs = qs[:c.QueriesPerPoint]
	}
	exact := dataset.GroundTruth(d.Train, d.Times, p.Metric, qs, c.Workers)
	report.Queries = len(qs)

	run := func(ix *core.Index) ([][]theap.Neighbor, time.Duration) {
		qrng := rand.New(rand.NewSource(c.Seed + 3))
		answers := make([][]theap.Neighbor, len(qs))
		scr := core.NewScratch()
		start := time.Now()
		for i, q := range qs {
			answers[i] = mbiQuery(ix, scr, core.Request{Q: q.W, K: q.K, Ts: q.Ts, Te: q.Te, Tau: p.Tau, Params: sp, Rng: qrng})
		}
		return answers, time.Since(start)
	}

	flatAnswers, _ := run(flat)
	report.FlatRecall, err = dataset.MeanRecall(flatAnswers, exact, sqK)
	if err != nil {
		return report, fmt.Errorf("sq experiment: %w", err)
	}

	header(w, "SQ8 compression experiment (drifting clusters)",
		fmt.Sprintf("n=%d, S_L=%d (%d leaves), dim=%d, k=%d, drift=%g, %d queries, %d cores",
			p.TrainN, sl, leaves, p.Dim, sqK, drift.Rate, len(qs), runtime.NumCPU()))
	fmt.Fprintf(w, "payload: %.1f B/vector vs %d float32 (%.2fx reduction); index: %d compressed blocks, %d code bytes\n",
		report.CodeBytesPerVector, report.FloatBytesPerVector, report.MemoryReduction,
		report.CompressedBlocks, report.CodeBytes)
	fmt.Fprintf(w, "asymmetric kernel: %.2f GB/s over codes, %.1f ns/distance\n",
		report.ScanGBps, report.NsPerDistance)
	fmt.Fprintf(w, "flat recall@%d vs exact: %.3f\n\n", sqK, report.FlatRecall)
	fmt.Fprintf(w, "%-8s %14s %15s %12s\n", "rerank", "recall(flat)", "recall(exact)", "ns/query")

	for _, rf := range sqRerankFactors {
		comp.SetRerankFactor(rf)
		answers, dur := run(comp)
		vsFlat, err := dataset.MeanRecall(answers, flatAnswers, sqK)
		if err != nil {
			return report, fmt.Errorf("sq experiment: %w", err)
		}
		vsExact, err := dataset.MeanRecall(answers, exact, sqK)
		if err != nil {
			return report, fmt.Errorf("sq experiment: %w", err)
		}
		pt := SQPoint{
			RerankFactor:  rf,
			RecallVsFlat:  vsFlat,
			RecallVsExact: vsExact,
			NsPerQuery:    float64(dur.Nanoseconds()) / float64(len(qs)),
		}
		report.Points = append(report.Points, pt)
		fmt.Fprintf(w, "%-8d %14.3f %15.3f %12.0f\n",
			pt.RerankFactor, pt.RecallVsFlat, pt.RecallVsExact, pt.NsPerQuery)
	}

	if jsonPath != "" {
		if err := writeSQJSON(jsonPath, report); err != nil {
			return report, err
		}
		fmt.Fprintf(w, "\nwrote %s\n", jsonPath)
	}
	if report.MemoryReduction < sqMinReduction {
		return report, fmt.Errorf("sq experiment: memory reduction %.2fx below the %.1fx gate",
			report.MemoryReduction, sqMinReduction)
	}
	if last := report.Points[len(report.Points)-1]; last.RecallVsFlat < sqMinRecall {
		return report, fmt.Errorf("sq experiment: recall@%d %.3f vs flat at rerank factor %d below the %.2f gate",
			sqK, last.RecallVsFlat, last.RerankFactor, sqMinRecall)
	}
	return report, nil
}

func writeSQJSON(path string, report SQReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sq experiment: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		_ = f.Close()
		return fmt.Errorf("sq experiment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sq experiment: %w", err)
	}
	return nil
}
