package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// TestStorageFlagsNeedTheirMode: a storage flag the daemon would ignore
// refuses the start, and the message names the flag.
func TestStorageFlagsNeedTheirMode(t *testing.T) {
	// The benchmark's serve-mixed daemon, less its -addr.
	serveMixed := []string{"-dim", "128", "-metric", "euclidean", "-leaf", "512",
		"-fsync", "always", "-spill", "-cache-bytes", "655360", "-checkpoint-every", "1536"}
	cases := []struct {
		name string
		args []string
		flag string // the flag the error names; empty when the flags are accepted
	}{
		{"in-memory", []string{"-dim", "4", "-leaf", "8"}, ""},
		{"serve-mixed", append(slices.Clone(serveMixed), "-data-dir", "d"), ""},
		{"durable defaults", []string{"-data-dir", "d"}, ""},
		{"durable fsync never", []string{"-data-dir", "d", "-fsync", "never", "-segment-bytes", "4096"}, ""},
		{"spill with cache", []string{"-data-dir", "d", "-spill", "-cache-bytes", "1024"}, ""},
		{"serve-mixed without data dir", serveMixed, "-fsync"},
		{"fsync and checkpoints", []string{"-fsync", "always", "-checkpoint-every", "1000"}, "-fsync"},
		{"fsync interval", []string{"-fsync-interval", "1s"}, "-fsync-interval"},
		{"checkpoint every", []string{"-checkpoint-every", "1000"}, "-checkpoint-every"},
		{"segment bytes", []string{"-segment-bytes", "4096"}, "-segment-bytes"},
		{"spill", []string{"-spill"}, "-spill"},
		{"spill false", []string{"-spill=false"}, "-spill"},
		{"cache without spill", []string{"-data-dir", "d", "-cache-bytes", "1024"}, "-cache-bytes"},
		{"cache in memory", []string{"-cache-bytes", "1024"}, "-cache-bytes"},
	}
	for _, c := range cases {
		_, err := parseFlags(c.args)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: accepted, want %s refused", c.name, c.flag)
		case c.flag != "" && !strings.HasPrefix(err.Error(), c.flag+" "):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.flag)
		}
	}
}

// daemon is one tknnd process started by a test.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    bytes.Buffer // stderr; read only after exited
	exited chan struct{}
	err    error // Wait's; set before exited closes
}

// startDaemon runs bin on a free loopback port with dir as its -data-dir
// and waits for /readyz to answer 200.
func startDaemon(t *testing.T, bin, dir string) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-dim", "4", "-leaf", "8", "-data-dir", dir)
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill() // fails only once the daemon has exited, which is the aim
		<-d.exited
	})
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case <-d.exited:
			t.Fatalf("tknnd exited before it was ready: %v\n%s", d.err, d.log.String())
		default:
		}
		if resp, err := http.Get(d.base + "/readyz"); err == nil {
			_ = resp.Body.Close() // the status is the whole answer
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
	}
	t.Fatal("tknnd not ready after 30s")
	return nil
}

// post sends req as JSON to path, wants 200, and decodes the reply into out.
func (d *daemon) post(t *testing.T, path string, req, out any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// terminate sends SIGTERM and returns the log and the exit error.
func (d *daemon) terminate(t *testing.T) (string, error) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		return d.log.String(), d.err
	case <-time.After(30 * time.Second):
		t.Fatal("tknnd still running 30s after SIGTERM")
		return "", nil
	}
}

// TestRestartKeepsAcknowledgedVectors drives the daemon's shutdown and
// restart path: vectors acknowledged before SIGTERM are in the final
// checkpoint, and a daemon restarted on the same -data-dir serves them.
func TestRestartKeepsAcknowledgedVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := filepath.Join(t.TempDir(), "tknnd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()

	// 20 vectors cross two leaves of 8: the checkpoint holds sealed,
	// merged blocks and the open leaf.
	const n = 20
	var add server.AddRequest
	for i := 0; i < n; i++ {
		add.Batch = append(add.Batch, server.AddEntry{Vector: []float32{float32(i), float32(i % 3), 1, 0}, Time: int64(i)})
	}
	d := startDaemon(t, bin, dir)
	var added server.AddResponse
	d.post(t, "/vectors", add, &added)
	if added.Count != n || len(added.IDs) != n {
		t.Fatalf("acknowledged %d vectors (ids %v), want %d", added.Count, added.IDs, n)
	}
	out, err := d.terminate(t)
	if err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, out)
	}
	if !regexp.MustCompile(fmt.Sprintf(`final checkpoint \S+: %d vectors`, n)).MatchString(out) {
		t.Fatalf("no final checkpoint of %d vectors in the log:\n%s", n, out)
	}

	d = startDaemon(t, bin, dir)
	resp, err := http.Get(d.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats server.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	_ = resp.Body.Close() // decoded above; nothing left to fail
	if err != nil {
		t.Fatal(err)
	}
	if stats.Vectors != n {
		t.Errorf("/stats after restart: %d vectors, %d acknowledged", stats.Vectors, n)
	}
	var found server.SearchResponse
	d.post(t, "/search", server.SearchRequest{Vector: add.Batch[7].Vector, K: n, Start: 0, End: n}, &found)
	var ids []int
	for _, r := range found.Results {
		ids = append(ids, r.ID)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, added.IDs) {
		t.Errorf("search after restart returned ids %v, acknowledged %v", ids, added.IDs)
	}
	if out, err := d.terminate(t); err != nil {
		t.Fatalf("exit after the second SIGTERM: %v\n%s", err, out)
	}
}
