package main

import (
	"fmt"
	"math"
	"runtime"
)

// Scale of the recorded benchmark. The contract the driver enforces gives
// a run about 35 s including three set-ups, and a graph build costs about
// 0.2 ms per vector per tree level on the reference box, so the base is 8
// full leaves (one height-3 tree, 15 sealed blocks) plus a half-full open
// leaf. -scale multiplies the leaf count only; -scale 4 is the 16 640
// vector base ISSUE 11 describes.
const (
	dim        = 128
	leafSize   = 512
	baseLeaves = 8
	kNN        = 10
	numQueries = 2000
	minWindow  = 216 // vectors; the shortest window of a -scale 1 run is 217

	loadBatch    = 64   // vectors per POST /vectors during the base load
	writeBatch   = 16   // vectors per POST /vectors in the serve-mixed writer
	writeVectors = 2048 // serve-mixed writer total: 4 seals, cascades h0, h0-h1, h0, h0-h1-h2

	setupRepeats = 3    // set-ups per untraced run; setup_s is their median
	warmup       = 0.5  // seconds of closed loop before each measured pass, discarded
	closedShare  = 0.45 // of -seconds spent in the closed loop; the rest is the open loop

	// genLagShare is the share of the inter-arrival gap the open-loop
	// generator's p95 lateness may reach before the run is refused: past
	// it the box, not the program, set the latencies.
	genLagShare  = 0.05
	openAttempts = 3 // open-loop phases tried on a read-only workload before a late generator refuses the run
)

// Daemon flags common to every served workload; the rest are tknnd's
// defaults (-degree 24 -eps 1.2 -tau 0.5, QueryWorkers = GOMAXPROCS).
var daemonFlags = []string{"-dim", fmt.Sprint(dim), "-metric", "euclidean", "-leaf", fmt.Sprint(leafSize)}

// durableFlags are serve-mixed's additions. The cache is about a fifth of
// the 3.4 MB of graph payload spilled by the end of a run at scale 1 (the
// "larger than the cache" case: a third of cold lookups hit);
// -checkpoint-every 1536 puts exactly one automatic checkpoint + spill
// inside the measured 2 048 writes.
var durableFlags = []string{"-fsync", "always", "-spill", "-cache-bytes", "655360", "-checkpoint-every", "1536"}

type windowKind int

const (
	windowLong  windowKind = iota // length U[30 %, 95 %] of the base, uniform position
	windowShort                   // the newest U[32, 320] vectors
	windowMixed                   // a third recent (last 5 %, ending at the watermark), two thirds historical U[10 %, 50 %]
	windowEmbed                   // length U[10 %, 95 %] of the base, uniform position
)

// workload is one traffic mix. Names are final: later issues cite them.
type workload struct {
	name    string
	served  bool // through the built tknnd; false drives the tknn library in-process
	durable bool // -data-dir, WAL, spill and a concurrent writer
	windows windowKind
	// rate is the open-loop read rate in requests/s: a constant, never
	// derived at run time. ISSUE 11 asked for 60 % of the closed loop's
	// search_qps. On a two-core box that the load generator shares with the
	// daemon that does not repeat: p95 is then mostly the queue's own
	// variance, and a generator cannot pace sub-millisecond gaps to within
	// genLagShare while a neighbour is busy. At 300-400 req/s the open loop
	// measures the latency of a lightly loaded system (7-45 % of capacity)
	// and the closed loop measures capacity.
	rate float64
	// recallFloor is the recall_at_10 the seed commit clears with margin;
	// a run below it is incorrect.
	recallFloor float64
}

var workloads = []workload{
	{name: "serve-long", served: true, windows: windowLong, rate: 400, recallFloor: 0.93},
	{name: "serve-short", served: true, windows: windowShort, rate: 400, recallFloor: 0.99},
	{name: "serve-mixed", served: true, durable: true, windows: windowMixed, rate: 300, recallFloor: 0.93},
	{name: "embed-sq8", windows: windowEmbed, rate: 400, recallFloor: 0.93},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// readers is the number of connections (goroutines on embed-sq8) that
// search: nproc, less the writer's connection on serve-mixed.
func (w *workload) readers() int {
	n := runtime.NumCPU()
	if w.durable && n > 1 {
		n--
	}
	return n
}

func (w *workload) flags() []string {
	if w.durable {
		return append(append([]string{}, daemonFlags...), durableFlags...)
	}
	return daemonFlags
}

// baseVectors is N0 at the given scale: whole leaves plus a half-full open one.
func baseVectors(scale float64) int {
	leaves := int(math.Round(baseLeaves * scale))
	if leaves < 1 {
		leaves = 1
	}
	return leaves*leafSize + leafSize/2
}
