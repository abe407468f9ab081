package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// metrics tracks request counters and a search-latency histogram with
// atomic counters only — no locks on the hot path, no dependencies.
// The /metrics endpoint exposes them in the Prometheus text format so a
// standard scraper can watch a tknnd deployment.
type metrics struct {
	inserts        atomic.Int64 // vectors successfully inserted
	insertReqs     atomic.Int64 // /vectors requests
	searches       atomic.Int64 // /search requests answered OK
	searchPartials atomic.Int64 // searches cut short by cancel/timeout
	clientErrors   atomic.Int64 // 4xx responses
	shedSearches   atomic.Int64 // searches rejected 429 by admission control
	shedInserts    atomic.Int64 // inserts rejected 429 by admission control
	degraded       atomic.Int64 // searches run under a shrunken deadline
	searchLatency  histogram
	insertLatency  histogram
	// Per-stage search breakdown, exposed as one histogram family with a
	// stage label
	// (tknn_search_stage_seconds{stage="select"|"search"|"merge"|"rerank"|"fetch"}).
	// Rerank is contained in the search stage and stays at zero on
	// uncompressed indexes; fetch is cold-block cache page-in time,
	// overlapping search, and stays at zero on all-RAM indexes.
	stageSelect histogram
	stageSearch histogram
	stageMerge  histogram
	stageRerank histogram
	stageFetch  histogram
}

// histogram is a fixed-bucket latency histogram. Bounds are cumulative
// (le semantics) in microseconds.
type histogram struct {
	counts [len(latencyBounds) + 1]atomic.Int64
	sumUs  atomic.Int64
	total  atomic.Int64
}

// latencyBounds are the bucket upper bounds in microseconds, spanning the
// sub-millisecond graph searches up to multi-second merge stalls.
var latencyBounds = [...]int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000, 5000000}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	h.sumUs.Add(us)
	h.total.Add(1)
	for i, bound := range latencyBounds {
		if us <= bound {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(latencyBounds)].Add(1)
}

// write emits the histogram in Prometheus exposition format.
func (h *histogram) write(w http.ResponseWriter, name string) {
	h.writeLabeled(w, name, "")
}

// writeLabeled is write with an extra fixed label rendered into every
// sample (e.g. `stage="select"`), letting several histograms form one
// labeled family. An empty label emits the plain form.
func (h *histogram) writeLabeled(w http.ResponseWriter, name, label string) {
	sep := ""
	if label != "" {
		sep = label + ","
		label = "{" + label + "}"
	}
	cumulative := int64(0)
	for i, bound := range latencyBounds {
		cumulative += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, sep, float64(bound)/1e6, cumulative)
	}
	cumulative += h.counts[len(latencyBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cumulative)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, label, float64(h.sumUs.Load())/1e6)
	fmt.Fprintf(w, "%s_count%s %d\n", name, label, h.total.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := &s.metrics
	fmt.Fprintf(w, "# HELP tknn_vectors_total Vectors currently indexed.\n")
	fmt.Fprintf(w, "# TYPE tknn_vectors_total gauge\n")
	fmt.Fprintf(w, "tknn_vectors_total %d\n", s.ix.Len())
	fmt.Fprintf(w, "# HELP tknn_blocks_total Sealed MBI blocks.\n")
	fmt.Fprintf(w, "# TYPE tknn_blocks_total gauge\n")
	fmt.Fprintf(w, "tknn_blocks_total %d\n", s.ix.BlockCount())
	fmt.Fprintf(w, "# HELP tknn_pending_build_vectors Vectors in filled leaves whose block builds are in flight (searches brute-force them).\n")
	fmt.Fprintf(w, "# TYPE tknn_pending_build_vectors gauge\n")
	fmt.Fprintf(w, "tknn_pending_build_vectors %d\n", s.ix.PendingBuilds())
	fmt.Fprintf(w, "# HELP tknn_inserts_total Vectors inserted since start.\n")
	fmt.Fprintf(w, "# TYPE tknn_inserts_total counter\n")
	fmt.Fprintf(w, "tknn_inserts_total %d\n", m.inserts.Load())
	fmt.Fprintf(w, "# HELP tknn_insert_requests_total /vectors requests.\n")
	fmt.Fprintf(w, "# TYPE tknn_insert_requests_total counter\n")
	fmt.Fprintf(w, "tknn_insert_requests_total %d\n", m.insertReqs.Load())
	fmt.Fprintf(w, "# HELP tknn_searches_total Successful searches.\n")
	fmt.Fprintf(w, "# TYPE tknn_searches_total counter\n")
	fmt.Fprintf(w, "tknn_searches_total %d\n", m.searches.Load())
	fmt.Fprintf(w, "# HELP tknn_client_errors_total 4xx responses.\n")
	fmt.Fprintf(w, "# TYPE tknn_client_errors_total counter\n")
	fmt.Fprintf(w, "tknn_client_errors_total %d\n", m.clientErrors.Load())
	fmt.Fprintf(w, "# HELP tknn_inflight Requests currently holding an admission slot.\n")
	fmt.Fprintf(w, "# TYPE tknn_inflight gauge\n")
	fmt.Fprintf(w, "tknn_inflight{op=\"search\"} %d\n", s.searchLim.Inflight())
	fmt.Fprintf(w, "tknn_inflight{op=\"insert\"} %d\n", s.insertLim.Inflight())
	fmt.Fprintf(w, "# HELP tknn_shed_total Requests rejected 429 by admission control.\n")
	fmt.Fprintf(w, "# TYPE tknn_shed_total counter\n")
	fmt.Fprintf(w, "tknn_shed_total{op=\"search\"} %d\n", m.shedSearches.Load())
	fmt.Fprintf(w, "tknn_shed_total{op=\"insert\"} %d\n", m.shedInserts.Load())
	fmt.Fprintf(w, "# HELP tknn_degraded_total Searches run under the shrunken degraded-mode deadline.\n")
	fmt.Fprintf(w, "# TYPE tknn_degraded_total counter\n")
	fmt.Fprintf(w, "tknn_degraded_total %d\n", m.degraded.Load())
	fmt.Fprintf(w, "# HELP tknn_search_partials_total Searches cut short by cancellation or -search-timeout.\n")
	fmt.Fprintf(w, "# TYPE tknn_search_partials_total counter\n")
	fmt.Fprintf(w, "tknn_search_partials_total %d\n", m.searchPartials.Load())
	fmt.Fprintf(w, "# HELP tknn_search_latency_seconds Search latency.\n")
	fmt.Fprintf(w, "# TYPE tknn_search_latency_seconds histogram\n")
	m.searchLatency.write(w, "tknn_search_latency_seconds")
	fmt.Fprintf(w, "# HELP tknn_search_stage_seconds Per-stage search time: planning/selection, per-block execution, merge, and the compressed-candidate exact re-rank (contained in search).\n")
	fmt.Fprintf(w, "# TYPE tknn_search_stage_seconds histogram\n")
	m.stageSelect.writeLabeled(w, "tknn_search_stage_seconds", `stage="select"`)
	m.stageSearch.writeLabeled(w, "tknn_search_stage_seconds", `stage="search"`)
	m.stageMerge.writeLabeled(w, "tknn_search_stage_seconds", `stage="merge"`)
	m.stageRerank.writeLabeled(w, "tknn_search_stage_seconds", `stage="rerank"`)
	m.stageFetch.writeLabeled(w, "tknn_search_stage_seconds", `stage="fetch"`)
	if cs, ok := s.ix.CacheStats(); ok {
		fmt.Fprintf(w, "# HELP tknn_block_cache_hits_total Block cache lookups served from RAM.\n")
		fmt.Fprintf(w, "# TYPE tknn_block_cache_hits_total counter\n")
		fmt.Fprintf(w, "tknn_block_cache_hits_total %d\n", cs.Hits)
		fmt.Fprintf(w, "# HELP tknn_block_cache_misses_total Block cache lookups that loaded a segment from disk.\n")
		fmt.Fprintf(w, "# TYPE tknn_block_cache_misses_total counter\n")
		fmt.Fprintf(w, "tknn_block_cache_misses_total %d\n", cs.Misses)
		fmt.Fprintf(w, "# HELP tknn_block_cache_evictions_total Block payloads evicted to stay under the byte bound.\n")
		fmt.Fprintf(w, "# TYPE tknn_block_cache_evictions_total counter\n")
		fmt.Fprintf(w, "tknn_block_cache_evictions_total %d\n", cs.Evictions)
		fmt.Fprintf(w, "# HELP tknn_block_cache_bytes Resident block payload bytes in the cache.\n")
		fmt.Fprintf(w, "# TYPE tknn_block_cache_bytes gauge\n")
		fmt.Fprintf(w, "tknn_block_cache_bytes %d\n", cs.Bytes)
	}
	fmt.Fprintf(w, "# HELP tknn_insert_latency_seconds Per-request insert latency.\n")
	fmt.Fprintf(w, "# TYPE tknn_insert_latency_seconds histogram\n")
	m.insertLatency.write(w, "tknn_insert_latency_seconds")
	if s.durable != nil {
		s.writeWALMetrics(w)
	}
}

// writeWALMetrics exposes the durability counters when the daemon runs
// with a WAL data dir.
func (s *Server) writeWALMetrics(w http.ResponseWriter) {
	st := s.durable.Stats()
	fmt.Fprintf(w, "# HELP tknn_wal_appended_records_total Records written to the WAL since start.\n")
	fmt.Fprintf(w, "# TYPE tknn_wal_appended_records_total counter\n")
	fmt.Fprintf(w, "tknn_wal_appended_records_total %d\n", st.Appended)
	fmt.Fprintf(w, "# HELP tknn_wal_fsyncs_total Fsync syscalls issued on WAL segments.\n")
	fmt.Fprintf(w, "# TYPE tknn_wal_fsyncs_total counter\n")
	fmt.Fprintf(w, "tknn_wal_fsyncs_total %d\n", st.Fsyncs)
	fmt.Fprintf(w, "# HELP tknn_wal_replayed_records Records replayed into the index at startup.\n")
	fmt.Fprintf(w, "# TYPE tknn_wal_replayed_records gauge\n")
	fmt.Fprintf(w, "tknn_wal_replayed_records %d\n", st.Replayed)
	fmt.Fprintf(w, "# HELP tknn_wal_checkpoints_total Snapshots written since start.\n")
	fmt.Fprintf(w, "# TYPE tknn_wal_checkpoints_total counter\n")
	fmt.Fprintf(w, "tknn_wal_checkpoints_total %d\n", st.Checkpoints)
	fmt.Fprintf(w, "# HELP tknn_wal_last_checkpoint_age_seconds Seconds since the newest snapshot; -1 when none exists.\n")
	fmt.Fprintf(w, "# TYPE tknn_wal_last_checkpoint_age_seconds gauge\n")
	age := float64(-1)
	if !st.LastCheckpointTime.IsZero() {
		age = time.Since(st.LastCheckpointTime).Seconds()
	}
	fmt.Fprintf(w, "tknn_wal_last_checkpoint_age_seconds %g\n", age)
	fmt.Fprintf(w, "# HELP tknn_wal_segments Segment files on disk.\n")
	fmt.Fprintf(w, "# TYPE tknn_wal_segments gauge\n")
	fmt.Fprintf(w, "tknn_wal_segments %d\n", st.Segments)
	fmt.Fprintf(w, "# HELP tknn_wal_bytes Bytes of log on disk.\n")
	fmt.Fprintf(w, "# TYPE tknn_wal_bytes gauge\n")
	fmt.Fprintf(w, "tknn_wal_bytes %d\n", st.WALBytes)
}
