package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// buildDaemon compiles ./cmd/tknnd at the current commit into outDir: the
// system under test is always a built binary, never `go run`.
func buildDaemon(ctx context.Context, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "tknnd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/tknnd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building tknnd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running tknnd and the client side of its connections.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once cmd.Wait returned
	base    string
	dataDir string // removed by stop; empty on an all-RAM daemon
	hc      *http.Client
	scratch []connScratch // one per search worker
}

type connScratch struct {
	req  []byte
	resp bytes.Buffer
	out  server.SearchResponse
}

// startDaemon launches bin on a free loopback port with the workload's
// flags, its output appended to logPath, and waits for /readyz. dataDir is
// the durable workloads' -data-dir; it may hold a finished run to recover.
func startDaemon(ctx context.Context, bin, logPath string, wl *workload, dataDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor

	args := append([]string{"-addr", addr}, wl.flags()...)
	if wl.durable {
		args = append(args, "-data-dir", dataDir)
	}
	d := &daemon{
		cmd:     exec.CommandContext(ctx, bin, args...),
		exited:  make(chan struct{}),
		base:    "http://" + addr,
		dataDir: dataDir,
		scratch: make([]connScratch, wl.readers()),
	}
	conns := wl.readers() + 1
	d.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	if err := d.waitReady(ctx, 60*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("tknnd exited before it was ready (see its log)")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if status, _, err := d.get("/readyz"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("tknnd not ready after %v", limit)
}

// stop kills the daemon, waits for it and removes its data dir. The index
// is disposable, so there is no graceful shutdown to pay for.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill() // already-exited is the only failure and is fine
		<-d.exited
	}
	d.hc.CloseIdleConnections()
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir) // best effort; the out dir is scratch
	}
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end above; nothing left to fail
	return resp.StatusCode, body, err
}

// post sends body and reads the whole reply into buf.
func (d *daemon) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, err
}

// search is the served workloads' searchFunc.
func (d *daemon) search(worker int, q *query, start, end int64, s *sample) {
	sc := &d.scratch[worker]
	sc.req = appendWindow(sc.req[:0], q.prefix, start, end)
	status, err := d.post("/search", sc.req, &sc.resp)
	s.reqBytes, s.respBytes = len(sc.req), sc.resp.Len()
	switch {
	case err != nil:
		s.fail = "transport: " + err.Error()
		return
	case status != http.StatusOK:
		s.fail = "status " + strconv.Itoa(status)
		return
	}
	sc.out = server.SearchResponse{Results: sc.out.Results[:0]}
	if err := json.Unmarshal(sc.resp.Bytes(), &sc.out); err != nil {
		s.fail = "decoding reply: " + err.Error()
		return
	}
	st := sc.out.Stages
	s.stages = stageTimes{st.SelectSeconds * 1e6, st.SearchSeconds * 1e6, st.MergeSeconds * 1e6, st.RerankSeconds * 1e6, st.FetchSeconds * 1e6}
	if sc.out.Partial {
		s.fail = "partial answer"
	}
	for _, r := range sc.out.Results {
		s.add(r.ID, r.Time, r.Dist)
	}
}

// insert posts one pre-encoded /vectors batch and reports how many vectors
// the daemon acknowledged.
func (d *daemon) insert(body []byte, buf *bytes.Buffer) (int, error) {
	status, err := d.post("/vectors", body, buf)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST /vectors: status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	var out server.AddResponse
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return 0, fmt.Errorf("POST /vectors: decoding reply: %w", err)
	}
	return out.Count, nil
}

func (d *daemon) checkpoint() error {
	var buf bytes.Buffer
	status, err := d.post("/admin/checkpoint", nil, &buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	if err != nil {
		return fmt.Errorf("POST /admin/checkpoint: %w", err)
	}
	return nil
}

func (d *daemon) stats() (server.StatsResponse, error) {
	var out server.StatsResponse
	status, body, err := d.get("/stats")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &out)
	}
	if err != nil {
		return out, fmt.Errorf("GET /stats: %w", err)
	}
	return out, nil
}

// peakRSSMB reads a process's high-water resident set from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
