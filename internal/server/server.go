// Package server implements the HTTP API of the tknnd daemon: a small
// JSON service exposing one MBI index for ingestion and time-restricted
// kNN search. It exists to give downstream users a network-facing
// deployment surface and to demonstrate the library under concurrent
// load; cmd/tknnd wires it to flags.
//
// Endpoints:
//
//	POST /vectors   {"vector": [...], "time": 123}          -> {"id": 0}
//	POST /vectors   {"batch": [{"vector": ..., "time": ...}, ...]}
//	POST /search    {"vector": [...], "k": 10,
//	                 "start": 0, "end": 1000}               -> {"results": [...]}
//	GET  /stats                                             -> index shape
//	GET  /healthz                                           -> 200 ok (liveness)
//	GET  /readyz                                            -> 200/503 (readiness)
//	POST /admin/checkpoint                                  -> snapshot now
//	                (404 unless the daemon runs with a WAL data dir)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	tknn "repro"
	"repro/internal/fault"
	"repro/internal/wal"
)

// statusClientClosedRequest is the de-facto (nginx) status for a request
// whose client went away before the response.
const statusClientClosedRequest = 499

// Server handles the HTTP API around one MBI index.
type Server struct {
	ix *tknn.MBI
	// durable, when set, write-ahead-logs every insert and serves
	// /admin/checkpoint; nil means the legacy snapshot-on-exit mode.
	durable *wal.Manager
	// addMu serializes ingestion: tknn.MBI.Add is single-writer.
	addMu   sync.Mutex
	mux     *http.ServeMux
	metrics metrics
	// searchTimeout, when positive, caps each /search request's execution;
	// on expiry the executor returns what it has, tagged partial. Set
	// before serving.
	searchTimeout time.Duration
	// searchLim/insertLim, when set, gate the corresponding handler behind
	// bounded in-flight slots with a short wait queue (see SetLimits); nil
	// means unlimited.
	searchLim *limiter
	insertLim *limiter
	// ready is the /readyz state: true while the daemon should receive
	// traffic, false during startup recovery and shutdown drain.
	ready atomic.Bool
}

// New wraps an index in a Server.
func New(ix *tknn.MBI) *Server {
	s := &Server{ix: ix, mux: http.NewServeMux()}
	s.mux.HandleFunc("/vectors", s.handleVectors)
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/admin/checkpoint", s.handleCheckpoint)
	s.ready.Store(true)
	return s
}

// NewDurable wraps the index managed by d in a Server whose inserts go
// through the write-ahead log: every acknowledged /vectors request is on
// disk before the response leaves. ix must be d.Index().
func NewDurable(ix *tknn.MBI, d *wal.Manager) *Server {
	s := New(ix)
	s.durable = d
	return s
}

// SetSearchTimeout caps per-request search execution: a query still
// running after d returns the partial results gathered so far (tagged in
// the response) instead of holding the connection. d <= 0 disables the
// cap. Call before serving; the value is read concurrently afterwards.
func (s *Server) SetSearchTimeout(d time.Duration) { s.searchTimeout = d }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// AddRequest is the /vectors request body: either a single timestamped
// vector or a batch.
type AddRequest struct {
	Vector []float32  `json:"vector,omitempty"`
	Time   *int64     `json:"time,omitempty"`
	Batch  []AddEntry `json:"batch,omitempty"`
}

// AddEntry is one element of a batch insert.
type AddEntry struct {
	Vector []float32 `json:"vector"`
	Time   int64     `json:"time"`
}

// AddResponse reports the ids assigned to the inserted vectors.
type AddResponse struct {
	ID    int   `json:"id,omitempty"`
	IDs   []int `json:"ids,omitempty"`
	Count int   `json:"count"`
}

func (s *Server) handleVectors(w http.ResponseWriter, r *http.Request) {
	s.metrics.insertReqs.Add(1)
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if _, ok := s.admit(w, r, s.insertLim, &s.metrics.shedInserts); !ok {
		return
	} else if s.insertLim != nil {
		defer s.insertLim.release()
	}
	if fault.Enabled {
		// Injection point server.insert: the request was admitted but the
		// handler fails before touching the index — the client-visible
		// shape of a crash between accept and apply.
		if err := fault.Hit("server.insert"); err != nil {
			s.error(w, http.StatusInternalServerError, err)
			return
		}
	}
	var req AddRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	switch {
	case len(req.Batch) > 0 && req.Vector != nil:
		s.error(w, http.StatusBadRequest, errors.New("provide either vector or batch, not both"))
	case len(req.Batch) > 0:
		s.addBatch(w, r.Context(), req.Batch)
	case req.Vector != nil:
		if req.Time == nil {
			s.error(w, http.StatusBadRequest, errors.New("missing time"))
			return
		}
		s.addBatch(w, r.Context(), []AddEntry{{Vector: req.Vector, Time: *req.Time}})
	default:
		s.error(w, http.StatusBadRequest, errors.New("empty request"))
	}
}

func (s *Server) addBatch(w http.ResponseWriter, ctx context.Context, batch []AddEntry) {
	start := time.Now()
	s.addMu.Lock()
	defer func() {
		s.addMu.Unlock()
		s.metrics.insertLatency.observe(time.Since(start))
	}()
	ids := make([]int, 0, len(batch))
	if err := ctx.Err(); err != nil {
		// The client was gone before any work: nothing inserted.
		s.error(w, statusClientClosedRequest, fmt.Errorf("request canceled: %w", err))
		return
	}
	if s.durable != nil {
		// One AppendBatch call: the whole batch is logged and fsynced
		// (policy permitting) before any response. On a mid-batch
		// rejection the earlier entries are committed, matching the
		// non-durable path.
		before := s.ix.Len()
		vs := make([][]float32, len(batch))
		ts := make([]int64, len(batch))
		for i, e := range batch {
			vs[i], ts[i] = e.Vector, e.Time
		}
		err := s.durable.AppendBatch(vs, ts)
		for id := before; id < s.ix.Len(); id++ {
			ids = append(ids, id)
		}
		if err != nil {
			s.metrics.inserts.Add(int64(len(ids)))
			s.error(w, statusFor(err), fmt.Errorf("after %d inserted: %w", len(ids), err))
			return
		}
	} else {
		for i, e := range batch {
			// An aborted request stops consuming the batch between
			// entries; what was already inserted stays (appends are not
			// transactional) and the error reports how far we got.
			if err := ctx.Err(); err != nil {
				s.metrics.inserts.Add(int64(len(ids)))
				s.error(w, statusClientClosedRequest, fmt.Errorf("request canceled after %d inserted: %w", len(ids), err))
				return
			}
			id := s.ix.Len()
			if err := s.ix.Add(e.Vector, e.Time); err != nil {
				// Report how far we got: earlier entries are committed
				// (appends are not transactional).
				s.metrics.inserts.Add(int64(len(ids)))
				s.error(w, statusFor(err), fmt.Errorf("entry %d (after %d inserted): %w", i, len(ids), err))
				return
			}
			ids = append(ids, id)
		}
	}
	s.metrics.inserts.Add(int64(len(ids)))
	resp := AddResponse{IDs: ids, Count: len(ids)}
	if len(ids) == 1 {
		resp = AddResponse{ID: ids[0], Count: 1}
	}
	writeJSON(w, http.StatusOK, resp)
}

// SearchRequest is the /search request body.
type SearchRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
	Start  int64     `json:"start"`
	End    int64     `json:"end"`
}

// SearchResult is one neighbor in a SearchResponse.
type SearchResult struct {
	ID   int     `json:"id"`
	Time int64   `json:"time"`
	Dist float32 `json:"dist"`
}

// SearchStages reports one query's per-stage wall-clock seconds: block
// selection/planning, per-block subtask execution, and the final merge.
type SearchStages struct {
	SelectSeconds float64 `json:"selectSeconds"`
	SearchSeconds float64 `json:"searchSeconds"`
	MergeSeconds  float64 `json:"mergeSeconds"`
	// RerankSeconds is the exact re-scoring of compressed-block
	// candidates, contained in SearchSeconds; zero on uncompressed
	// indexes.
	RerankSeconds float64 `json:"rerankSeconds,omitempty"`
	// FetchSeconds is the time cold (spilled) blocks spent paging their
	// payloads through the block cache. It overlaps SearchSeconds and is
	// zero on all-RAM indexes.
	FetchSeconds float64 `json:"fetchSeconds,omitempty"`
}

// SearchResponse is the /search response body.
type SearchResponse struct {
	Results []SearchResult `json:"results"`
	// Partial reports that the request was canceled or timed out mid-plan:
	// the results cover only the blocks that executed.
	Partial bool `json:"partial,omitempty"`
	// Stages breaks the query's execution time down per stage.
	Stages SearchStages `json:"stages"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	waited, ok := s.admit(w, r, s.searchLim, &s.metrics.shedSearches)
	if !ok {
		return
	}
	if s.searchLim != nil {
		defer s.searchLim.release()
	}
	if fault.Enabled {
		// Injection point server.search: an admitted query that fails
		// before execution. The chaos harness tells these from genuine
		// failures by the X-Tknn-Injected marker s.error attaches.
		if err := fault.Hit("server.search"); err != nil {
			s.error(w, http.StatusInternalServerError, err)
			return
		}
	}
	var req SearchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The request context flows into the executor: an aborted connection
	// or an expired -search-timeout stops launching per-block subtasks and
	// the response carries whatever completed, tagged partial. A query
	// that had to queue for its admission slot runs degraded — a shrunken
	// deadline that trades completeness for bounded latency.
	ctx := r.Context()
	timeout := s.searchTimeout
	if waited {
		s.metrics.degraded.Add(1)
		w.Header().Set("X-Tknn-Degraded", "1")
		timeout = s.degradedTimeout()
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, info, err := s.ix.SearchDetailed(ctx, tknn.Query{Vector: req.Vector, K: req.K, Start: req.Start, End: req.End})
	if err != nil {
		s.error(w, statusFor(err), err)
		return
	}
	s.metrics.searchLatency.observe(time.Since(start))
	s.metrics.searches.Add(1)
	s.metrics.stageSelect.observe(info.Select)
	s.metrics.stageSearch.observe(info.Search)
	s.metrics.stageMerge.observe(info.Merge)
	s.metrics.stageRerank.observe(info.Rerank)
	s.metrics.stageFetch.observe(info.Fetch)
	if info.Partial {
		s.metrics.searchPartials.Add(1)
	}
	out := SearchResponse{
		Results: make([]SearchResult, len(res)),
		Partial: info.Partial,
		Stages: SearchStages{
			SelectSeconds: info.Select.Seconds(),
			SearchSeconds: info.Search.Seconds(),
			MergeSeconds:  info.Merge.Seconds(),
			RerankSeconds: info.Rerank.Seconds(),
			FetchSeconds:  info.Fetch.Seconds(),
		},
	}
	for i, n := range res {
		out.Results[i] = SearchResult{ID: n.ID, Time: n.Time, Dist: wireDist(n.Dist)}
	}
	writeJSON(w, http.StatusOK, out)
}

// wireDist is the form of a distance JSON can carry. A finite query or
// stored vector can still overflow float32 in the kernel (a coordinate of
// 3e19 squares past MaxFloat32), and encoding/json refuses ±Inf and NaN
// after the status line is out, which would leave a 200 with no body. ±Inf
// becomes ±MaxFloat32, which keeps the order; NaN, which has none, becomes
// MaxFloat32.
func wireDist(d float32) float32 {
	switch {
	case d < -math.MaxFloat32:
		return -math.MaxFloat32
	case !(d <= math.MaxFloat32):
		return math.MaxFloat32
	}
	return d
}

// StatsResponse is the /stats response body.
type StatsResponse struct {
	Vectors    int    `json:"vectors"`
	Blocks     int    `json:"blocks"`
	TreeHeight int    `json:"treeHeight"`
	Dim        int    `json:"dim"`
	Metric     string `json:"metric"`
	LeafSize   int    `json:"leafSize"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.error(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	o := s.ix.Options()
	writeJSON(w, http.StatusOK, StatsResponse{
		Vectors:    s.ix.Len(),
		Blocks:     s.ix.BlockCount(),
		TreeHeight: s.ix.TreeHeight(),
		Dim:        o.Dim,
		Metric:     o.Metric.String(),
		LeafSize:   o.LeafSize,
	})
}

// handleCheckpoint serializes a snapshot covering every logged record
// and prunes fully-covered WAL segments. Inserts block for the duration;
// searches proceed.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.durable == nil {
		s.error(w, http.StatusNotFound, errors.New("checkpointing requires the daemon to run with a WAL data dir (-data-dir)"))
		return
	}
	info, err := s.durable.Checkpoint()
	if err != nil {
		s.error(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// error is httpError plus client-error accounting. In fault-injection
// builds, injected failures are tagged with an X-Tknn-Injected header so
// load harnesses can separate deliberate errors from genuine ones.
func (s *Server) error(w http.ResponseWriter, status int, err error) {
	if fault.Enabled {
		if errors.Is(err, fault.ErrInjected) {
			w.Header().Set("X-Tknn-Injected", "1")
		}
	}
	if status >= 400 && status < 500 {
		s.metrics.clientErrors.Add(1)
	}
	httpError(w, status, err)
}

// maxBodyBytes bounds a request body: without it one client could make
// the JSON decoder buffer an arbitrarily large value. The largest body the
// benchmark sends (a 64-vector, dim-128 batch) is ~100 KB.
const maxBodyBytes = 32 << 20

// decodeBody decodes r's JSON body, at most maxBodyBytes of it, into v.
// On failure it answers the request — 413 for an oversized body, 400 for a
// malformed one — and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	s.error(w, status, fmt.Errorf("decoding body: %w", err))
	return false
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, tknn.ErrBadQuery),
		errors.Is(err, tknn.ErrDimension),
		errors.Is(err, tknn.ErrNonFinite),
		errors.Is(err, tknn.ErrTimestampOrder):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header write can only be logged; the
	// status line is already on the wire.
	_ = json.NewEncoder(w).Encode(v)
}
