package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. The value keeps every digit measured.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's result file: the result line plus where, how and on
// how many samples it was measured.
type report struct {
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Trace    bool        `json:"trace"`
	result
	// Info holds numbers reported for context only: no bound applies.
	Info map[string]metric `json:"info,omitempty"`
	// Phases records each phase's wall clock and sample count, which is
	// what the percentiles rest on.
	Phases []phaseInfo `json:"phases"`
	// Failures lists the first few failed checks verbatim.
	Failures []string `json:"failures,omitempty"`
}

type phaseInfo struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Samples int     `json:"samples"`
}

// environment is the header every result file carries.
type environment struct {
	GitSHA      string   `json:"git_sha"`
	GitDirty    bool     `json:"git_dirty"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	NumCPU      int      `json:"nproc"`
	CPUModel    string   `json:"cpu_model"`
	Kernel      string   `json:"kernel"`
	Seed        int64    `json:"seed"`
	Scale       float64  `json:"scale"`
	Seconds     float64  `json:"seconds"`
	BaseVectors int      `json:"base_vectors"`
	DaemonFlags []string `json:"daemon_flags,omitempty"`
	OpenRate    float64  `json:"open_loop_rate_per_s"`
	Readers     int      `json:"readers"`
	Started     string   `json:"started"`
}

func captureEnv(opt options) environment {
	env := environment{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown",
		Seed: opt.seed, Scale: opt.scale, Seconds: opt.seconds,
		BaseVectors: baseVectors(opt.scale),
		OpenRate:    opt.workload.rate, Readers: opt.workload.readers(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if opt.workload.served {
		env.DaemonFlags = opt.workload.flags()
	}
	// The driver's checkout is not a git repository; the header says so.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env.GitDirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

func newReport(opt options, trace bool) *report {
	return &report{Env: captureEnv(opt), Workload: opt.workload.name, Trace: trace, Info: map[string]metric{}}
}

// write stores the report under outDir, prints every metric by name and
// unit, and ends standard output with the result line.
func (r *report) write(outDir string, stdout io.Writer) error {
	kind := "run"
	if r.Trace {
		kind = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%s.json", kind, r.Workload, r.Env.Seed, time.Now().UTC().Format("20060102T150405.000"))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	printMetrics(stdout, "", r.Metrics)
	printMetrics(stdout, "info ", r.Info)
	for _, f := range r.Failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-36s %14.6g %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}
