package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSet is the untraced result files of one directory, by workload.
type runSet struct {
	values    map[string]map[string][]float64 // workload -> metric -> one value per run
	attempted map[string]int
	failed    map[string]int
}

func loadRunSet(dir string) (*runSet, error) {
	names, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no run-*.json result files in %s", dir)
	}
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if rs.values[rep.Workload] == nil {
			rs.values[rep.Workload] = map[string][]float64{}
		}
		for m, v := range rep.Metrics {
			rs.values[rep.Workload][m] = append(rs.values[rep.Workload][m], v.Value)
		}
		rs.attempted[rep.Workload] += rep.Attempted
		rs.failed[rep.Workload] += rep.Failed
	}
	return rs, nil
}

// verdict compares two sets of runs of one metric on one workload under
// its bound b (a share of the old median). A spread wider than the bound
// on either side cannot resolve a change of that size.
func verdict(old, new []float64, better string, b float64) (v string, change float64) {
	if len(old) < 2 || len(new) < 2 {
		return "unresolved", 0
	}
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(new)
	change = (nm - om) / om // positive = worse
	if better == "higher" {
		change = -change
	}
	switch {
	case (oq3-oq1)/om > b || (nq3-nq1)/nm > b:
		return "unresolved", change
	case change > b:
		return "regressed", change
	case change < -b:
		return "improved", change
	}
	return "unchanged", change
}

// compareMain is `benchmark compare <old-dir> <new-dir>`: one row per
// workload and end-to-end metric, judged by the bounds in BENCHMARK.json.
// It returns 1 on any regression or a higher fail ratio.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <old-dir> <new-dir>  (directories of run-*.json files, see -out)")
		return 2
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	var old, new *runSet
	if err == nil {
		old, err = loadRunSet(args[0])
	}
	if err == nil {
		new, err = loadRunSet(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}

	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tworse by\tbound\tverdict")
	for _, wl := range workloads {
		if old.values[wl.name] == nil || new.values[wl.name] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			o, n := old.values[wl.name][m.Name], new.values[wl.name][m.Name]
			v, change := verdict(o, n, m.Better, m.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.1f%%\t%s\n", wl.name, m.Name, m.Unit, quartileText(o), quartileText(n), 100*change, 100*m.Bound, v)
		}
		of := float64(old.failed[wl.name]) / float64(max(old.attempted[wl.name], 1))
		nf := float64(new.failed[wl.name]) / float64(max(new.attempted[wl.name], 1))
		v := "unchanged"
		if nf > of {
			v, code = "regressed", 1
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%.6f\t%.6f\t\t0.0%%\t%s\n", wl.name, of, nf, v)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	return code
}

func quartileText(v []float64) string {
	if len(v) < 2 {
		return fmt.Sprintf("%d run(s)", len(v))
	}
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", m, q1, q3)
}
