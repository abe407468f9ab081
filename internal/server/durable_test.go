package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	tknn "repro"
	"repro/internal/wal"
)

func newDurableTestServer(t *testing.T, dir string) (*Server, *httptest.Server, *wal.Manager) {
	t.Helper()
	opts := tknn.MBIOptions{Dim: 4, LeafSize: 8, GraphDegree: 4}
	d, err := wal.Open(wal.Config{Dir: dir, Sync: wal.SyncNever}, func(snapshot io.Reader) (wal.Target, error) {
		if snapshot == nil {
			return tknn.NewMBI(opts)
		}
		return tknn.LoadMBI(snapshot, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("closing manager: %v", err)
		}
	})
	ix := d.Index().(*tknn.MBI)
	s := NewDurable(ix, d)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, d
}

// TestDurableInsertsSurviveRestart drives inserts through the HTTP API,
// drops the server without a checkpoint, and verifies a fresh manager
// over the same dir replays every acknowledged insert.
func TestDurableInsertsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts, d := newDurableTestServer(t, dir)

	tm := int64(0)
	resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Vector: []float32{1, 0, 0, 0}, Time: &tm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status %d: %s", resp.StatusCode, body)
	}
	batch := make([]AddEntry, 10)
	for i := range batch {
		batch[i] = AddEntry{Vector: []float32{float32(i), 1, 0, 0}, Time: int64(i + 1)}
	}
	resp, body = postJSON(t, ts.URL+"/vectors", AddRequest{Batch: batch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var ar AddResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Count != 10 || len(ar.IDs) != 10 || ar.IDs[0] != 1 {
		t.Fatalf("batch response %+v", ar)
	}

	ts.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	opts := tknn.MBIOptions{Dim: 4, LeafSize: 8, GraphDegree: 4}
	d2, err := wal.Open(wal.Config{Dir: dir, Sync: wal.SyncNever}, func(snapshot io.Reader) (wal.Target, error) {
		if snapshot == nil {
			return tknn.NewMBI(opts)
		}
		return tknn.LoadMBI(snapshot, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d2.Close(); err != nil {
			t.Errorf("closing manager: %v", err)
		}
	}()
	if got := d2.Index().Len(); got != 11 {
		t.Fatalf("recovered %d vectors, want 11", got)
	}
}

// TestDurableBatchRejectionCommitsPrefix mirrors the non-durable
// partial-failure contract: entries before the rejected one stay
// committed (and logged), later ones are untouched.
func TestDurableBatchRejectionCommitsPrefix(t *testing.T) {
	s, ts, _ := newDurableTestServer(t, t.TempDir())
	batch := []AddEntry{
		{Vector: []float32{1, 0, 0, 0}, Time: 10},
		{Vector: []float32{2, 0, 0, 0}, Time: 11},
		{Vector: []float32{3, 0, 0, 0}, Time: 5}, // timestamp regression
		{Vector: []float32{4, 0, 0, 0}, Time: 12},
	}
	resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Batch: batch})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "after 2 inserted") {
		t.Fatalf("error should report the committed prefix: %s", body)
	}
	if got := s.ix.Len(); got != 2 {
		t.Fatalf("index holds %d vectors, want 2", got)
	}
}

// TestCheckpointEndpoint exercises POST /admin/checkpoint end to end.
func TestCheckpointEndpoint(t *testing.T) {
	_, ts, d := newDurableTestServer(t, t.TempDir())
	tm := int64(0)
	resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Vector: []float32{1, 0, 0, 0}, Time: &tm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/admin/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", resp.StatusCode, body)
	}
	var info wal.CheckpointInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 {
		t.Fatalf("checkpoint covers %d records, want 1", info.Seq)
	}
	if st := d.Stats(); st.Checkpoints != 1 || st.LastCheckpointSeq != 1 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}

	// GET is rejected.
	getResp, err := http.Get(ts.URL + "/admin/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", getResp.StatusCode)
	}
}

// TestCheckpointWithoutDataDirIs404 pins the in-memory behavior.
func TestCheckpointWithoutDataDirIs404(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/admin/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// TestWALMetricsExposed asserts the durability counters appear on
// /metrics in durable mode and are absent otherwise.
func TestWALMetricsExposed(t *testing.T) {
	_, ts, _ := newDurableTestServer(t, t.TempDir())
	tm := int64(0)
	if resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Vector: []float32{1, 0, 0, 0}, Time: &tm}); resp.StatusCode != http.StatusOK {
		t.Fatalf("add status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"tknn_wal_appended_records_total 1",
		"tknn_wal_fsyncs_total",
		"tknn_wal_replayed_records 0",
		"tknn_wal_checkpoints_total 0",
		"tknn_wal_last_checkpoint_age_seconds -1",
		"tknn_wal_segments 1",
		"tknn_wal_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	_, inMemory := newTestServer(t)
	resp2, err := http.Get(inMemory.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw2), "tknn_wal_") {
		t.Error("an in-memory server should not expose WAL metrics")
	}
}
