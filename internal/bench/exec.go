package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/theap"
	"repro/internal/vec"
)

// ExecPoint is one measured operating point of the executor experiment: the
// same index, the same queries, the same block selection — executed once on
// the sequential executor and once on the parallel one.
type ExecPoint struct {
	// Blocks is the number of blocks top-down selection chose for the
	// window (the experiment's independent variable).
	Blocks int `json:"blocks"`
	// WindowStart, WindowEnd is the query time window that produced the
	// selection.
	WindowStart int64 `json:"window_start"`
	WindowEnd   int64 `json:"window_end"`
	// InWindow is how many indexed vectors the window covers.
	InWindow int `json:"in_window"`
	// SeqSeconds and ParSeconds are mean per-query latencies on the
	// 1-worker and parallel executors (best of several passes).
	SeqSeconds float64 `json:"seq_seconds"`
	ParSeconds float64 `json:"par_seconds"`
	// Speedup is SeqSeconds / ParSeconds as measured on this host.
	Speedup float64 `json:"speedup"`
	// CriticalSeconds is the mean per-query critical path: the largest
	// single block subtask duration, i.e. the wall-clock floor a parallel
	// executor converges to given enough cores.
	CriticalSeconds float64 `json:"critical_seconds"`
	// IdealSpeedup is the mean of (sum of block durations) / (max block
	// duration) — the hardware-independent parallelizability of the plan.
	IdealSpeedup float64 `json:"ideal_speedup"`
	// Equivalent reports that both executors returned identical results
	// (same IDs, same distances, same order) for every query.
	Equivalent bool `json:"equivalent"`
}

// ExecReport is the full experiment output, serialized to BENCH_exec.json
// as the first point of the executor perf trajectory.
type ExecReport struct {
	Dim        int         `json:"dim"`
	TrainN     int         `json:"train_n"`
	LeafSize   int         `json:"leaf_size"`
	Leaves     int         `json:"leaves"`
	K          int         `json:"k"`
	Queries    int         `json:"queries"`
	ParWorkers int         `json:"par_workers"`
	NumCPU     int         `json:"num_cpu"`
	Tau        float64     `json:"tau"`
	Points     []ExecPoint `json:"points"`
}

// execTau is the block-selection threshold the experiment queries with. It
// must exceed the largest partial overlap a leaf-aligned window can have
// with any block — (2^h - 1)/2^h ≤ 511/512 for the 512-leaf tree — so that
// selection descends through partially covered ancestors instead of
// absorbing them, letting the window scan reach high block counts.
const execTau = 0.999

// execK is the result count; recall is not at stake here, so one paper
// value suffices.
const execK = 10

// ExecExperiment measures the plan/execute split: sequential versus
// parallel intra-query execution on windows whose top-down selection yields
// 1, 4, and 16 blocks (aligned-subtree windows collapse into one ancestor,
// so the window for each target count is found by scanning leaf-aligned
// candidates against SelectedBlockCount). Both executors must return
// identical results — entry points are drawn at plan time from the
// query-hash entropy source, so the answer is worker-count independent and
// the experiment asserts it.
//
// Measured speedup is hardware-bound (a single-core host cannot run two
// subtasks at once, and the report says so via NumCPU); IdealSpeedup — the
// sum/max ratio of the per-block durations the executor records — is the
// machine-independent parallelizability of the same plans.
func ExecExperiment(c Config, w io.Writer, jsonPath string) (ExecReport, error) {
	leaves := 512
	if c.Scale < 0.5 {
		leaves = 128 // smoke scale: depth 7 still yields multi-block windows
	}
	sl := int(64*c.Scale + 0.5)
	if sl < 24 {
		sl = 24
	}

	p := dataset.Profile{
		Name: "exec-synth", Dim: 32, Metric: vec.Euclidean,
		TrainN: leaves * sl, TestN: c.QueriesPerPoint,
		Clusters: 16, ClusterStd: 0.9, Background: 0.1,
		LeafSize: sl, Tau: execTau, GraphK: 8, MC: 24,
	}
	d := dataset.Generate(p, c.Seed)

	ix, err := core.New(core.Options{
		Dim: p.Dim, Metric: p.Metric, LeafSize: sl, Tau: execTau,
		Builder: nndescent.MustNew(nndescent.DefaultConfig(p.GraphK)),
		Search:  graph.SearchParams{MC: effMC(p.MC, execK), Eps: 1.1},
		Workers: c.Workers, Seed: c.Seed,
	})
	if err != nil {
		return ExecReport{}, fmt.Errorf("exec experiment: %w", err)
	}
	for i := 0; i < d.Train.Len(); i++ {
		if err := ix.Append(d.Train.At(i), d.Times[i]); err != nil {
			return ExecReport{}, fmt.Errorf("exec experiment: append: %w", err)
		}
	}

	parWorkers := c.Workers
	if parWorkers <= 1 {
		// A 1-worker "parallel" executor is the sequential one; keep the
		// comparison meaningful even when -workers defaults to a small
		// NumCPU by always running the parallel side with real fan-out.
		parWorkers = 4
	}

	report := ExecReport{
		Dim: p.Dim, TrainN: p.TrainN, LeafSize: sl, Leaves: leaves,
		K: execK, Queries: len(d.Test), ParWorkers: parWorkers,
		NumCPU: runtime.NumCPU(), Tau: execTau,
	}

	header(w, "Exec experiment (plan/execute split)",
		fmt.Sprintf("MBI, n=%d, S_L=%d (%d leaves), dim=%d, k=%d, tau=%.3f, %d queries/point, parallel workers=%d, host CPUs=%d",
			p.TrainN, sl, leaves, p.Dim, execK, execTau, len(d.Test), parWorkers, report.NumCPU))
	fmt.Fprintf(w, "%-7s %-18s %10s %10s %9s %11s %7s  %s\n",
		"blocks", "window", "seq/query", "par/query", "speedup", "crit.path", "ideal", "equivalent")

	sp := graph.SearchParams{MC: effMC(p.MC, execK), Eps: 1.1}
	for _, target := range []int{1, 4, 16} {
		ts, te, ok := findExecWindow(ix, leaves, sl, target)
		if !ok {
			fmt.Fprintf(w, "%-7d no window with this selection count at %d leaves; skipped\n", target, leaves)
			continue
		}
		pt := measureExecPoint(ix, d.Test, ts, te, sp, parWorkers)
		report.Points = append(report.Points, pt)
		fmt.Fprintf(w, "%-7d [%7d,%7d) %10s %10s %8.2fx %11s %6.2fx  %v\n",
			pt.Blocks, pt.WindowStart, pt.WindowEnd,
			fmtSeconds(pt.SeqSeconds), fmtSeconds(pt.ParSeconds), pt.Speedup,
			fmtSeconds(pt.CriticalSeconds), pt.IdealSpeedup, pt.Equivalent)
	}
	if report.NumCPU == 1 {
		fmt.Fprintf(w, "\nnote: single-CPU host — measured speedup cannot exceed 1; the ideal column\nis the plan's parallelizability from the executor's per-block timings.\n")
	}

	if jsonPath != "" {
		if err := writeExecJSON(jsonPath, report); err != nil {
			return report, err
		}
		fmt.Fprintf(w, "\nwrote %s\n", jsonPath)
	}
	return report, nil
}

// findExecWindow scans leaf-aligned windows, widest first, for one whose
// top-down selection yields exactly target blocks. Widest-first maximizes
// per-block work, which is what the executor comparison wants to time.
func findExecWindow(ix *core.Index, leaves, sl, target int) (ts, te int64, ok bool) {
	for wlen := leaves; wlen >= 1; wlen-- {
		for start := 0; start+wlen <= leaves; start++ {
			ts = int64(start * sl)
			te = int64((start + wlen) * sl)
			if ix.SelectedBlockCount(ts, te, execTau) == target {
				return ts, te, true
			}
		}
	}
	return 0, 0, false
}

// measureExecPoint times one window on both executors and checks result
// equivalence. Timing passes repeat and keep the fastest total, the usual
// guard against scheduler noise.
func measureExecPoint(ix *core.Index, queries [][]float32, ts, te int64, sp graph.SearchParams, parWorkers int) ExecPoint {
	const repeats = 3
	scr := core.NewScratch()
	run := func(workers int) ([][]theap.Neighbor, float64) {
		ix.SetQueryWorkers(workers)
		res := make([][]theap.Neighbor, len(queries))
		for i, q := range queries { // warmup, also the equivalence answer set
			res[i] = mbiQuery(ix, scr, core.Request{Q: q, K: execK, Ts: ts, Te: te, Tau: execTau, Params: sp})
		}
		best := time.Duration(1<<63 - 1)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			for _, q := range queries {
				ix.Query(context.Background(), scr, core.Request{Q: q, K: execK, Ts: ts, Te: te, Tau: execTau, Params: sp})
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return res, best.Seconds() / float64(len(queries))
	}

	seqRes, seqSec := run(1)
	parRes, parSec := run(parWorkers)

	equivalent := true
	for i := range seqRes {
		if !sameNeighbors(seqRes[i], parRes[i]) {
			equivalent = false
			break
		}
	}

	// Per-block durations from the executed plan, on the sequential
	// executor so subtasks don't time-slice each other: sum is the serial
	// cost, max the critical path.
	ix.SetQueryWorkers(1)
	var critSum, idealSum float64
	var plan core.Plan
	for _, q := range queries {
		ix.Query(context.Background(), scr, core.Request{Q: q, K: execK, Ts: ts, Te: te, Tau: execTau, Params: sp, Explain: &plan})
		var sum, max time.Duration
		for _, b := range plan.Blocks {
			sum += b.Duration
			if b.Duration > max {
				max = b.Duration
			}
		}
		if max > 0 {
			critSum += max.Seconds()
			idealSum += sum.Seconds() / max.Seconds()
		}
	}

	return ExecPoint{
		Blocks:      len(plan.Blocks),
		WindowStart: ts, WindowEnd: te,
		InWindow:        plan.TotalInWindow,
		SeqSeconds:      seqSec,
		ParSeconds:      parSec,
		Speedup:         seqSec / parSec,
		CriticalSeconds: critSum / float64(len(queries)),
		IdealSpeedup:    idealSum / float64(len(queries)),
		Equivalent:      equivalent,
	}
}

func sameNeighbors(a, b []theap.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func writeExecJSON(path string, report ExecReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("exec experiment: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		_ = f.Close()
		return fmt.Errorf("exec experiment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("exec experiment: %w", err)
	}
	return nil
}
