package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
)

const smokeScale = 1.0 / 8

func streamBytes(in *inputs) []byte {
	var b bytes.Buffer
	for i := range in.queries {
		q := &in.queries[i]
		b.Write(appendWindow(nil, q.prefix, q.start, q.end))
		if q.recent {
			b.WriteString("recent")
		}
	}
	for _, body := range append(in.loadBodies, in.writeBodies...) {
		b.Write(body)
	}
	return b.Bytes()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b, c := generate(wl, 1, smokeScale), generate(wl, 1, smokeScale), generate(wl, 2, smokeScale)
		if !bytes.Equal(streamBytes(a), streamBytes(b)) {
			t.Errorf("%s: the same seed gave two different request streams", wl.name)
		}
		if bytes.Equal(streamBytes(a), streamBytes(c)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", wl.name)
		}
		for _, q := range a.queries {
			if q.start < 0 || q.length < 1 || (!q.recent && q.end > int64(a.n0)) {
				t.Fatalf("%s: window [%d,%d) of length %d leaves the base of %d", wl.name, q.start, q.end, q.length, a.n0)
			}
		}
	}
}

func TestSearchBodyMatchesTheServersShape(t *testing.T) {
	v := []float32{0.25, -1.5, 3e-7}
	got := appendWindow(nil, searchPrefix(v), 7, 4352)
	want, err := json.Marshal(server.SearchRequest{Vector: v, K: kNN, Start: 7, End: 4352})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("body %s, json.Marshal gives %s", got, want)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := sortedCopy([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; of [1, 2] == [0.75, 1.5, 2.25].
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

// A slow operation delays the ones due behind it; their latency must run
// from when they were due, not from when a worker got to them.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const gap, work = 10 * time.Millisecond, 35 * time.Millisecond
	ts := paced(context.Background(), 1, 3, gap, func(_, seq int) {
		if seq == 0 {
			time.Sleep(work)
		}
	})
	if ts[1].due != gap || ts[2].due != 2*gap {
		t.Fatalf("due times %v %v", ts[1].due, ts[2].due)
	}
	if lat := ts[1].done - ts[1].due; lat < work-gap {
		t.Errorf("operation 1 was due at %v behind a %v operation but reports latency %v", gap, work, lat)
	}
	if ts[1].waited || ts[2].waited {
		t.Error("operations that started late are not the generator's lateness")
	}
	if lag := genLagP95(ts); lag != 0 {
		t.Errorf("generator lag %v ms with no operation that waited", lag)
	}
	on := paced(context.Background(), 1, 2, gap, func(_, _ int) {})
	if !on[1].waited || on[1].sent < gap {
		t.Errorf("operation 1 sent at %v, before it was due at %v", on[1].sent, gap)
	}
}

// A neighbour's burst slows some slices of a phase; the best slice is the
// one it left alone, and a change to the program moves that one too.
func TestBestSliceIgnoresADisturbedInterval(t *testing.T) {
	var at []time.Duration
	var lat []float64
	for i := 0; i < 300; i++ { // 100 samples in each of three 0.5 s slices
		at = append(at, time.Duration(i)*5*time.Millisecond)
		v := 1.0 + float64(i%10)/100 // 1.00 .. 1.09
		if i >= 100 && i < 200 {
			v *= 3 // the middle slice is disturbed
		}
		lat = append(lat, v)
	}
	if got := bestSlice(at, lat, sliceLen, 0.5); got != 1.04 {
		t.Errorf("best-slice p50 = %v, want 1.04", got)
	}
	for i := range lat {
		lat[i] *= 2 // the program itself got slower
	}
	if got := bestSlice(at, lat, sliceLen, 0.5); got != 2.08 {
		t.Errorf("best-slice p50 of a program twice as slow = %v, want 2.08", got)
	}
	if got := bestSlice(at[:10], lat[:10], sliceLen, 0.5); got != 2.08 {
		t.Errorf("a phase shorter than one full slice falls back to all its samples: got %v", got)
	}

	m := &measured{closedElapsed: 1500 * time.Millisecond}
	for i := 0; i < 250; i++ { // 100, 50 and 100 completions in the three slices
		done := time.Duration(i) * 5 * time.Millisecond
		if i >= 100 {
			done = 500*time.Millisecond + time.Duration(i-100)*10*time.Millisecond
		}
		if i >= 150 {
			done = time.Second + time.Duration(i-150)*5*time.Millisecond
		}
		m.closed = append(m.closed, sample{done: done})
	}
	if got := (parts{m}).bestThroughput(); got != 200 {
		t.Errorf("best-slice throughput = %v/s, want 200", got)
	}
}

func TestResponseChecks(t *testing.T) {
	good := func() *sample {
		s := &sample{start: 100, end: 200}
		for i := 0; i < kNN; i++ {
			s.add(100+i, int64(100+i), float32(i))
		}
		return s
	}
	cases := map[string]func(*sample){
		"":                    func(*sample) {},
		"outside window":      func(s *sample) { s.ids[3] = 200 },
		"not sorted":          func(s *sample) { s.dists[4] = 0.5 },
		"returned twice":      func(s *sample) { s.ids[9] = s.ids[0] },
		"holds enough for 10": func(s *sample) { s.n = 9 },
	}
	for want, breakIt := range cases {
		s := good()
		breakIt(s)
		s.check()
		if (want == "") != (s.fail == "") || !bytes.Contains([]byte(s.fail), []byte(want)) {
			t.Errorf("want a failure containing %q, got %q", want, s.fail)
		}
	}
	short := &sample{start: 0, end: 4}
	for i := 0; i < 4; i++ {
		short.add(i, int64(i), float32(i))
	}
	if short.check(); short.fail != "" {
		t.Errorf("a window of 4 answered with 4: %s", short.fail)
	}
	wrong := &sample{start: 0, end: 50}
	wrong.add(3, 4, 0)
	if wrong.fail == "" {
		t.Error("a result whose time is not its row passed")
	}
}

func TestUnexplainedShare(t *testing.T) {
	if got := unexplained(100, 20, 30, 45); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("unexplained(100; 95) = %v, want 0.05", got)
	}
	if got := unexplained(100, 80, 40); math.Abs(got-0.20) > 1e-12 {
		t.Errorf("parts over the whole count too: got %v, want 0.20", got)
	}
	if got := unexplained(0, 1); got != 0 {
		t.Errorf("nothing measured must not divide by zero, got %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		want     string
	}{
		{"same", base, base, "lower", "unchanged"},
		{"within the bound", base, scale(1.04), "lower", "unchanged"},
		{"slower latency", base, scale(1.2), "lower", "regressed"},
		{"faster latency", base, scale(0.8), "lower", "improved"},
		{"lower throughput", base, scale(0.8), "higher", "regressed"},
		{"higher throughput", base, scale(1.2), "higher", "improved"},
		{"noisy", []float64{60, 100, 140, 90, 120}, scale(1.2), "lower", "unresolved"},
		{"one run", base[:1], base, "lower", "unresolved"},
	} {
		if got, _ := verdict(c.old, c.new, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func writeRuns(t *testing.T, dir string, p50 []float64, failed int) {
	t.Helper()
	for i, v := range p50 {
		rep := report{Workload: "serve-long", result: result{Correct: failed == 0, Attempted: 1000, Failed: failed,
			Metrics: map[string]metric{"search_p50_ms": {v, "ms"}}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "run-serve-long-seed1-"+string(rune('a'+i))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	chdirRoot(t)
	a, b, c, d := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	writeRuns(t, a, []float64{1.00, 1.01, 0.99}, 0)
	writeRuns(t, b, []float64{1.01, 1.00, 1.02}, 0)
	writeRuns(t, c, []float64{1.50, 1.51, 1.49}, 0)
	writeRuns(t, d, []float64{1.00, 1.01, 0.99}, 3)
	for _, tc := range []struct {
		name     string
		old, new string
		want     int
	}{{"same commit", a, b, 0}, {"regression", a, c, 1}, {"improvement", c, a, 0}, {"more failures", a, d, 1}, {"no runs", a, t.TempDir(), 2}} {
		if got := compareMain([]string{tc.old, tc.new}, io.Discard); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The names, units and workloads the harness prints are the ones
// BENCHMARK.json promises.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	chdirRoot(t)
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, listed []bound, printed []struct{ name, unit string }) {
		if len(listed) != len(printed) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(listed), kind, len(printed))
		}
		for i, m := range listed {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s metric %d is %s (%s) in BENCHMARK.json, %s (%s) in the harness", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func chdirRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// The whole pipeline at 1/8 scale with one-second phases: the daemon is
// built and driven, the durable workload writes, spills, checkpoints and
// recovers, the library workload runs in-process, and a traced run fills
// every per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives tknnd")
	}
	chdirRoot(t)
	out := t.TempDir()
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"embed-sq8", false}, {"serve-mixed", false}, {"serve-mixed", true}} {
		wl, err := lookupWorkload(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		opt := options{workload: wl, seed: 1, seconds: 2, scale: smokeScale, outDir: out}
		run, want := runWorkload, len(endToEnd)
		if c.trace {
			run, want = traceWorkload, len(perLayer)
		}
		rep, err := run(context.Background(), opt)
		if errors.Is(err, errLate) {
			t.Skipf("%s: %v", c.workload, err) // a loaded test machine, not a defect
		}
		if err != nil {
			t.Fatalf("%s (trace %v): %v", c.workload, c.trace, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s (trace %v): correct=%v, %d of %d failed: %v", c.workload, c.trace, rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
		}
		if len(rep.Metrics) != want {
			t.Errorf("%s (trace %v): %d metrics, want %d", c.workload, c.trace, len(rep.Metrics), want)
		}
		for name, m := range rep.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!c.trace && m.Value <= 0) {
				t.Errorf("%s (trace %v): %s = %v", c.workload, c.trace, name, m.Value)
			}
		}
		if err := rep.write(out, io.Discard); err != nil {
			t.Error(err)
		}
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}
}
