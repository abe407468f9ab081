package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	tknn "repro"
)

// newMemServer wraps a small in-memory MBI (dim 4, leaf 8) in a Server.
func newMemServer(tb testing.TB) *Server {
	tb.Helper()
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 4, LeafSize: 8, GraphDegree: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return New(ix)
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newMemServer(t)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestAddAndSearch(t *testing.T) {
	_, ts := newTestServer(t)

	// Single insert.
	tm := int64(0)
	resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Vector: []float32{1, 0, 0, 0}, Time: &tm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status %d: %s", resp.StatusCode, body)
	}
	var ar AddResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.ID != 0 || ar.Count != 1 {
		t.Errorf("add response %+v", ar)
	}

	// Batch insert.
	batch := make([]AddEntry, 20)
	for i := range batch {
		batch[i] = AddEntry{Vector: []float32{float32(i), 1, 0, 0}, Time: int64(i + 1)}
	}
	resp, body = postJSON(t, ts.URL+"/vectors", AddRequest{Batch: batch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Count != 20 || len(ar.IDs) != 20 || ar.IDs[0] != 1 {
		t.Errorf("batch response %+v", ar)
	}

	// Search.
	resp, body = postJSON(t, ts.URL+"/search", SearchRequest{
		Vector: []float32{5, 1, 0, 0}, K: 3, Start: 0, End: 100,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("%d results", len(sr.Results))
	}
	if sr.Results[0].ID != 6 || sr.Results[0].Dist != 0 { // vector {5,1,0,0} was batch[5] = id 6
		t.Errorf("nearest = %+v", sr.Results[0])
	}

	// Windowed search respects times.
	resp, body = postJSON(t, ts.URL+"/search", SearchRequest{
		Vector: []float32{5, 1, 0, 0}, K: 5, Start: 10, End: 15,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("windowed search status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, r := range sr.Results {
		if r.Time < 10 || r.Time >= 15 {
			t.Errorf("result time %d outside window", r.Time)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t)
	tm := int64(0)
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"empty add", "/vectors", AddRequest{}, http.StatusBadRequest},
		{"missing time", "/vectors", AddRequest{Vector: []float32{1, 2, 3, 4}}, http.StatusBadRequest},
		{"wrong dim", "/vectors", AddRequest{Vector: []float32{1}, Time: &tm}, http.StatusBadRequest},
		{"both forms", "/vectors", AddRequest{Vector: []float32{1, 2, 3, 4}, Time: &tm,
			Batch: []AddEntry{{Vector: []float32{1, 2, 3, 4}}}}, http.StatusBadRequest},
		{"bad k", "/search", SearchRequest{Vector: []float32{1, 2, 3, 4}, K: 0, Start: 0, End: 1}, http.StatusBadRequest},
		{"empty window", "/search", SearchRequest{Vector: []float32{1, 2, 3, 4}, K: 1, Start: 5, End: 5}, http.StatusBadRequest},
		{"bad search dim", "/search", SearchRequest{Vector: []float32{1}, K: 1, Start: 0, End: 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: missing error body: %s", c.name, body)
		}
	}
}

func TestOutOfOrderTimestampRejected(t *testing.T) {
	_, ts := newTestServer(t)
	t10 := int64(10)
	resp, _ := postJSON(t, ts.URL+"/vectors", AddRequest{Vector: []float32{1, 2, 3, 4}, Time: &t10})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("setup insert failed")
	}
	t5 := int64(5)
	resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Vector: []float32{1, 2, 3, 4}, Time: &t5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-order insert: status %d (%s)", resp.StatusCode, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/vectors")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /vectors: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats: %d", resp.StatusCode)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	batch := make([]AddEntry, 30)
	for i := range batch {
		batch[i] = AddEntry{Vector: []float32{float32(i), 0, 0, 0}, Time: int64(i)}
	}
	if resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Batch: batch}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", body)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Vectors != 30 || st.Dim != 4 || st.LeafSize != 8 || st.Blocks == 0 {
		t.Errorf("stats %+v", st)
	}
	if st.Metric != "euclidean" {
		t.Errorf("metric %q", st.Metric)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// TestConcurrentClients hammers the server from parallel writers and
// readers (writers use distinct time ranges so ordering is valid).
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t)

	// One writer (MBI is single-writer; the server serializes anyway, but
	// timestamps must still be globally non-decreasing, so a single
	// writer keeps the test deterministic).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tm := int64(i)
			resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{
				Vector: []float32{float32(i), 0, 0, 0}, Time: &tm,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("writer: %s", body)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				resp, body := postJSON(t, ts.URL+"/search", SearchRequest{
					Vector: []float32{float32(rng.Intn(200)), 0, 0, 0},
					K:      3, Start: 0, End: 1 << 40,
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
}

func TestBatchPartialFailureReportsProgress(t *testing.T) {
	_, ts := newTestServer(t)
	batch := []AddEntry{
		{Vector: []float32{1, 2, 3, 4}, Time: 5},
		{Vector: []float32{1, 2, 3, 4}, Time: 3}, // goes backwards: rejected
	}
	resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Batch: batch})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("entry %d (after %d inserted)", 1, 1)
	if !bytes.Contains(body, []byte(want)) {
		t.Errorf("error %q does not report progress (%q)", eb.Error, want)
	}
}

// spaces is an endless stream of JSON whitespace, so an oversized body
// never has to exist in the client's memory.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedBodyIs413: both decoding endpoints stop reading at
// maxBodyBytes and answer 413, instead of buffering whatever a client
// sends.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/vectors", "/search"} {
		resp, err := http.Post(ts.URL+path, "application/json", io.LimitReader(spaces{}, maxBodyBytes+1))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Errorf("%s: missing error body (%v)", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestTrailingDataIs400: a body holds exactly one JSON value. A decoder
// that stops after the first one would apply the first record of
// `{…}{…}` and drop the second without an error.
func TestTrailingDataIs400(t *testing.T) {
	s := newMemServer(t)
	for _, c := range []struct{ path, body string }{
		{"/vectors", `{"vector":[1,2,3,4],"time":1}{"vector":[5,6,7,8],"time":2}`},
		{"/search", `{"vector":[1,0,0,0],"k":3,"start":0,"end":100} garbage`},
	} {
		if rec := serve(s, http.MethodPost, c.path, []byte(c.body)); rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.path, c.body, rec.Code, rec.Body)
		}
	}
	if n := s.ix.Len(); n != 0 {
		t.Errorf("index holds %d vectors after refused inserts", n)
	}
}

// TestHugeKFromTheWire: k arrives unchecked from the JSON body and used to
// size the result heaps directly, so 2^62 panicked in makeslice — inside
// an executor worker goroutine when the plan had several subtasks, which
// took the daemon down. The index clamps k to its vector count, so the
// answer is the whole window.
func TestHugeKFromTheWire(t *testing.T) {
	// Four procs put the plan's subtasks on worker goroutines.
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	_, ts := newTestServer(t)
	batch := make([]AddEntry, 200)
	for i := range batch {
		batch[i] = AddEntry{Vector: []float32{float32(i), 1, 0, 0}, Time: int64(i)}
	}
	if resp, body := postJSON(t, ts.URL+"/vectors", AddRequest{Batch: batch}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", body)
	}
	raw := `{"vector":[5,1,0,0],"k":4611686018427387904,"start":20,"end":180}`
	resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 160 {
		t.Errorf("%d results, want the 160 vectors in the window", len(sr.Results))
	}
}
