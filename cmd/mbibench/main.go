// Command mbibench regenerates the tables and figures of the paper's
// evaluation (§5) on the synthetic dataset stand-ins.
//
// Usage:
//
//	mbibench [flags] <experiment>
//
// Experiments:
//
//	table2    dataset summary (paper vs stand-ins)
//	table3    default parameters
//	table4    index sizes of MBI and SF
//	fig5      QPS vs window fraction at the recall target (all profiles)
//	fig6      recall/QPS Pareto curves (COMS)
//	fig7      indexing time and index size scalability (SIFT)
//	fig8      leaf-size sweep, incremental insertion (MovieLens)
//	fig9      tau sweep (MovieLens, COMS)
//	ivf       quantization-family comparator (IVF-Flat vs SF vs MBI)
//	async     insert-latency profile: synchronous vs background merging
//	wal       ingestion throughput: no WAL vs fsync=interval vs fsync=always
//	sq        SQ8 compression: bytes/vector, asymmetric-kernel scan
//	          throughput, recall vs flat at rerank factors 1/2/4 on
//	          drifting clusters (writes BENCH_sq.json)
//	tier      tiered storage: spill cold blocks to disk, then
//	          recall/p50/p99 and cache hit rate at 1x/4x/16x memory
//	          overcommit vs the all-RAM baseline (writes BENCH_tier.json)
//	chaos     overload resilience: open-loop insert+search traffic at
//	          multiples of capacity against the admission-controlled
//	          server, with a deterministic fault schedule when built
//	          with -tags tknn_fault (writes BENCH_chaos.json; gated)
//	all       everything above, in order (chaos excluded: it enforces
//	          hard gates and wants the tknn_fault build tag)
//
// Flags:
//
//	-scale f     multiply dataset sizes (default 1.0; 0.1 for a fast pass)
//	-seed n      RNG seed (default 1)
//	-queries n   queries per measured point (default 100)
//	-workers n   goroutines for ground truth / parallel builds (default NumCPU)
//	-profiles s  comma-separated profile subset for fig5/fig9/table4
//	-quick       preset: -scale 0.12 with a reduced sweep
//	-out path    JSON report path for the report-writing experiments
//	             (default BENCH_<experiment>.json)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/dataset"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mbibench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mbibench", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale factor")
	seed := fs.Int64("seed", 1, "rng seed")
	queries := fs.Int("queries", 100, "queries per measured point")
	workers := fs.Int("workers", runtime.NumCPU(), "worker goroutines")
	profileList := fs.String("profiles", "", "comma-separated profile subset (default: all)")
	quick := fs.Bool("quick", false, "fast preset (scale 0.12, coarse sweep)")
	out := fs.String("out", "", "JSON report path (default per experiment: BENCH_<experiment>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment, got %d", fs.NArg())
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *scale != 1.0 {
		cfg.Scale = *scale
	}
	cfg.Seed = *seed
	cfg.QueriesPerPoint = *queries
	cfg.Workers = *workers

	profiles, err := selectProfiles(*profileList)
	if err != nil {
		return err
	}

	// Each JSON-writing experiment has its own default report name so
	// `mbibench all` never overwrites one report with another; -out
	// overrides it for a single-experiment run.
	outPath := func(def string) string {
		if *out != "" {
			return *out
		}
		return def
	}

	w := os.Stdout
	switch cmd := fs.Arg(0); cmd {
	case "table2":
		bench.Table2(cfg, profiles, w)
	case "table3":
		bench.Table3(cfg, profiles, w)
	case "table4":
		bench.Table4(cfg, profiles, w)
	case "fig5":
		bench.Fig5(cfg, profiles, w)
	case "fig6":
		bench.Fig6(cfg, w)
	case "fig7":
		bench.Fig7(cfg, w)
	case "fig8":
		bench.Fig8(cfg, w)
	case "fig9":
		fig9Profiles, err := selectProfiles(fig9Default(*profileList))
		if err != nil {
			return err
		}
		bench.Fig9(cfg, fig9Profiles, w)
	case "ivf":
		bench.IVFExperiment(cfg, profiles, w)
	case "async":
		bench.AsyncMergeExperiment(cfg, w)
	case "wal":
		bench.WALExperiment(cfg, w)
	case "sq":
		if _, err := bench.SQExperiment(cfg, w, outPath("BENCH_sq.json")); err != nil {
			return err
		}
	case "tier":
		if _, err := bench.TierExperiment(cfg, w, outPath("BENCH_tier.json")); err != nil {
			return err
		}
	case "chaos":
		if _, err := bench.ChaosExperiment(cfg, w, outPath("BENCH_chaos.json")); err != nil {
			return err
		}
	case "all":
		bench.Table2(cfg, profiles, w)
		bench.Table3(cfg, profiles, w)
		bench.Table4(cfg, profiles, w)
		bench.Fig5(cfg, profiles, w)
		bench.Fig6(cfg, w)
		bench.Fig7(cfg, w)
		bench.Fig8(cfg, w)
		fig9Profiles, err := selectProfiles(fig9Default(*profileList))
		if err != nil {
			return err
		}
		bench.Fig9(cfg, fig9Profiles, w)
		bench.IVFExperiment(cfg, profiles, w)
		bench.AsyncMergeExperiment(cfg, w)
		bench.WALExperiment(cfg, w)
		if _, err := bench.SQExperiment(cfg, w, outPath("BENCH_sq.json")); err != nil {
			return err
		}
		if _, err := bench.TierExperiment(cfg, w, outPath("BENCH_tier.json")); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return nil
}

// fig9Default narrows Figure 9 to the paper's two datasets unless the
// user chose a subset explicitly.
func fig9Default(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	return "MovieLens,COMS"
}

func selectProfiles(list string) ([]dataset.Profile, error) {
	if list == "" {
		return dataset.Profiles(), nil
	}
	var out []dataset.Profile
	for _, name := range strings.Split(list, ",") {
		p, err := dataset.ProfileByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
