// Command benchmark measures the whole system from outside: four named
// workloads through the built tknnd and the tknn library, end-to-end
// metrics with bounds (BENCHMARK.json), and a per-layer ledger from a
// traced run. See README.md.
//
//	go run ./benchmark --workload serve-long --seed 1 --seconds 10 --trace 0
//	go run ./benchmark trace --workload serve-mixed
//	go run ./benchmark compare out/a out/b
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	traceDefault := 0
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], os.Stdout)
		case "trace":
			traceDefault, args = 1, args[1:]
		case "run":
			args = args[1:]
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "serve-long, serve-short, serve-mixed or embed-sq8")
	seed := fs.Int64("seed", 1, "every input derives from it")
	seconds := fs.Float64("seconds", 10, "measured seconds: the closed loop then the open loop")
	trace := fs.Int("trace", traceDefault, "1 = the traced run that prints the per-layer metrics")
	scale := fs.Float64("scale", 1, "multiplies the base's leaf count; 4 is a 16 640-vector base")
	outDir := fs.String("out", "benchmark/out", "directory for the built daemon, logs, data dirs and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if _, err := os.Stat("cmd/tknnd"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root:", err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	// SIGINT and SIGTERM cancel the context; every daemon is started under
	// it and every set-up is closed by a defer, so no exit path leaves a
	// process or a data dir behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := options{workload: wl, seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir}
	var rep *report
	if *trace == 1 {
		rep, err = traceWorkload(ctx, opt)
	} else {
		rep, err = runWorkload(ctx, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := rep.write(*outDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
