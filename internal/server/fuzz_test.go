package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
)

// wireSeeds are request bodies at the edges of what the /search and
// /vectors decoders accept. Both fuzzers start from all of them: a body
// meant for one endpoint is still a body the other must answer.
var wireSeeds = []string{
	`{"vector":[5,1,0,0],"k":4611686018427387904,"start":20,"end":180}`, // TestHugeKFromTheWire
	`{"vector":[1e999,0,0,0],"k":3,"start":0,"end":100}`,
	`{"vector":[1e999,0,0,0],"time":1}`,
	`{"vector":[1,2,3,4],"time":1,"batch":[{"vector":[1,2,3,4],"time":2}]}`,
	`{"vector":[1,2,3,4]}`,
	`{"vector":[1,0,0,0],"k":3,"start":50,"end":10}`,
	`{"vector":[1,0,0,0],"k":-1,"start":0,"end":100}`,
	`{"batch":[{"vector":[1,2,3,4],"time":1},{"vector":[1,2],"time":2}]}`,
	`{"batch":[{"vector":[1,2,3,4],"time":7},{"vector":[0,1,0,0],"time":9}]}`,
	`{"vector":[1,0,0,0],"k":3,"start":0,"end":100}`,
	`{"vector":[3e19,0,0,0],"k":3,"start":0,"end":100}`, // finite, but every distance overflows float32
	`{"vector":[3e19,0,0,0],"time":1}`,
	`{"vector":[1,2,3,4],"time":1}{"vector":[5,6,7,8],"time":2}`, // TestTrailingDataIs400
	`{"vector":[1,0,0,0],"k":3,"start":0,"end":100} garbage`,
}

func serve(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// checkStatus holds a decoder to its three answers: 200, 400 for a body
// it refuses, 413 for one too large to read. 499 needs a cancelled
// request context, which a fuzz request never has, and anything else is
// a server fault.
func checkStatus(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
	}
}

// FuzzSearchBody drives arbitrary bytes through POST /search on a server
// holding 40 vectors (five leaves, so the plan has sealed blocks and
// graph walks), and requires every 200 to carry a search response.
func FuzzSearchBody(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	s := newMemServer(f)
	for i := 0; i < 40; i++ {
		if err := s.ix.Add([]float32{float32(i), 1, 0, 0}, int64(i)); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(s, http.MethodPost, "/search", body)
		checkStatus(t, rec, body)
		if rec.Code != http.StatusOK {
			return
		}
		var sr SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("200 body %q for request %q: %v", rec.Body, body, err)
		}
	})
}

// partialInsert matches the 400 a batch answers when an entry is refused
// after earlier ones were applied: appends are not transactional, so the
// error is how the server acknowledges those.
var partialInsert = regexp.MustCompile(`^entry \d+ \(after (\d+) inserted\)`)

// acked returns how many vectors a /vectors response acknowledges and,
// for a 200, the ids it assigned them.
func acked(t *testing.T, rec *httptest.ResponseRecorder) (int, []int) {
	t.Helper()
	if rec.Code == http.StatusOK {
		var ar AddResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
			t.Fatalf("200 body %q: %v", rec.Body, err)
		}
		if ar.Count == 1 {
			return 1, []int{ar.ID}
		}
		return ar.Count, ar.IDs
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("%d body %q: %v", rec.Code, rec.Body, err)
	}
	m := partialInsert.FindStringSubmatch(eb.Error)
	if m == nil {
		return 0, nil
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n, nil
}

// FuzzVectorsBody drives arbitrary bytes through POST /vectors twice on a
// fresh server — the second time against the state the first left, so
// timestamps and ids meet their predecessors — and after each call
// requires /stats to count exactly the vectors acknowledged so far, with
// a 200's ids continuing from them.
func FuzzVectorsBody(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newMemServer(t)
		total := 0
		for round := 0; round < 2; round++ {
			rec := serve(s, http.MethodPost, "/vectors", body)
			checkStatus(t, rec, body)
			n, ids := acked(t, rec)
			for i, id := range ids {
				if id != total+i {
					t.Fatalf("round %d: ids %v, want them to start at %d", round, ids, total)
				}
			}
			total += n
			var st StatsResponse
			if err := json.Unmarshal(serve(s, http.MethodGet, "/stats", nil).Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Vectors != total {
				t.Fatalf("round %d: /stats counts %d vectors, %d acknowledged (body %q, answer %d %s)",
					round, st.Vectors, total, body, rec.Code, rec.Body)
			}
		}
	})
}
