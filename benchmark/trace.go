package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	tknn "repro"
)

// perLayer names every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. A traced run reports every one; a layer the
// workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"server.other_us", "us"}, {"server.decode_us", "us"}, {"server.encode_us", "us"},
	{"server.http_floor_us", "us"}, {"server.req_bytes", "bytes"}, {"server.resp_bytes", "bytes"},
	{"server.insert_decode_us_per_vec", "us"}, {"server.shed", "count"}, {"server.degraded", "count"},
	{"server.partial", "count"},
	{"core.select_us", "us"}, {"core.blocks_per_query", "count"}, {"core.graph_blocks_per_query", "count"},
	{"core.inwindow_per_query", "count"}, {"core.append_us", "us"}, {"core.seal_stall_ms_max", "ms"},
	{"core.seal_stall_share", "ratio"},
	{"exec.search_us", "us"}, {"exec.merge_us", "us"}, {"exec.rerank_us", "us"}, {"exec.fetch_us", "us"},
	{"exec.parallel_speedup", "ratio"},
	{"graph.block_us.h0", "us"}, {"graph.block_us.h1", "us"}, {"graph.block_us.h2", "us"},
	{"graph.block_us.h3", "us"}, {"graph.block_us.h4", "us"}, {"graph.block_us.h5", "us"},
	{"graph.found_per_block", "count"},
	{"vec.l2_ns_per_dist", "ns"}, {"vec.scan_gbps", "GB/s"},
	{"sq.lut_ns_per_dist", "ns"}, {"sq.fill_lut_us", "us"}, {"sq.train_ms_per_kvec", "ms"},
	{"sq.bytes_per_vector", "bytes"},
	{"blockcache.hit_rate", "ratio"}, {"blockcache.misses_per_query", "count"}, {"blockcache.evictions", "count"},
	{"blockcache.get_hit_ns", "ns"}, {"blockcache.get_miss_us", "us"},
	{"persist.segment_read_us_per_mb", "us/MB"}, {"persist.segment_write_us_per_mb", "us/MB"},
	{"persist.save_mbps", "MB/s"}, {"persist.load_mbps", "MB/s"}, {"persist.snapshot_bytes_per_vector", "bytes"},
	{"persist.disk_bytes_per_user_byte", "ratio"},
	{"wal.append_us_per_batch", "us"}, {"wal.fsyncs_per_batch", "count"}, {"wal.bytes_per_vector", "bytes"},
	{"wal.checkpoint_ms", "ms"}, {"wal.recover_ms", "ms"},
	{"nndescent.build_us_per_vec.h0", "us"}, {"nndescent.build_us_per_vec.h3", "us"},
	{"nndescent.build_us_per_vec.h5", "us"},
	{"ledger.read_unexplained_share", "ratio"}, {"ledger.write_unexplained_share", "ratio"},
	{"ledger.trace_overhead_share", "ratio"},
}

// scrape reads the daemon's /metrics into name{labels} -> value.
func (d *daemon) scrape() (map[string]float64, error) {
	status, body, err := d.get("/metrics")
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, nil
}

// traceRun carries one traced run's state between its steps.
type traceRun struct {
	opt   options
	in    *inputs
	sys   *system
	bin   string
	rep   *report
	tr    *tracer
	L     map[string]float64 // per-layer metrics by name; a name never set reports 0
	setup setupStats

	acked     int64   // vectors acknowledged over every pass
	clientP50 float64 // ledger pass: median client service time, us
	insertP50 float64 // serve-mixed: median insert service time, us
}

// traceWorkload is the traced run. It sets up once, measures an untraced
// and a traced pass of half the time each (their p50 difference is the
// tracing overhead) and a single-caller ledger pass, then times each
// layer's public functions on the same inputs and reconciles the parts
// against what the client saw.
func traceWorkload(ctx context.Context, opt options) (*report, error) {
	wl := opt.workload
	t := &traceRun{opt: opt, L: map[string]float64{}, tr: newTracer(wl.readers()), rep: newReport(opt, true)}
	t.in = generate(wl, opt.seed, opt.scale)
	var err error
	if wl.served {
		if t.bin, err = buildDaemon(ctx, opt.outDir); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if t.sys, t.setup, err = setUp(ctx, opt, t.in, t.bin); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { t.sys.close() }() // durableLayers replaces the daemon
	t.rep.Phases = append(t.rep.Phases, phaseInfo{"set-up", time.Since(t0).Seconds(), len(t.setup.batchMs)})

	for _, step := range []func(context.Context) error{t.passes, t.durableLayers, t.indexLayers} {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}

	// The ledger: the parts timed layer by layer against the whole the
	// client saw. Above 0.10 unexplained the attribution is not to be
	// trusted, and the run says so.
	L := t.L
	L["ledger.read_unexplained_share"] = unexplained(t.clientP50, L["server.decode_us"], L["server.encode_us"],
		L["server.http_floor_us"], L["core.select_us"], L["exec.search_us"], L["exec.merge_us"])
	L["ledger.write_unexplained_share"] = unexplained(t.insertP50, L["server.insert_decode_us_per_vec"]*writeBatch,
		L["wal.append_us_per_batch"], L["core.append_us"]*writeBatch, L["server.http_floor_us"])
	for _, name := range []string{"ledger.read_unexplained_share", "ledger.write_unexplained_share"} {
		if L[name] > 0.10 {
			fmt.Fprintf(os.Stderr, "benchmark: warning: %s is %.3f, above 0.10\n", name, L[name])
		}
	}
	t.rep.Metrics = make(map[string]metric, len(perLayer))
	for _, def := range perLayer {
		t.rep.Metrics[def.name] = metric{L[def.name], def.unit}
	}
	if err := t.tr.writeFile(filepath.Join(opt.outDir, "trace-"+wl.name+".jsonl")); err != nil {
		return nil, err
	}
	return t.rep, nil
}

// passes runs the untraced, traced and ledger passes over the system,
// gates every response, and fills what the responses and the daemon's
// counters show: stage medians, server and cache counters, overhead.
func (t *traceRun) passes(ctx context.Context) error {
	wl, in, sys, L := t.opt.workload, t.in, t.sys, t.L
	var before map[string]float64
	if sys.d != nil {
		var err error
		if before, err = sys.d.scrape(); err != nil {
			return err
		}
	}

	half, writes := t.opt.seconds/2, len(in.writeBodies)
	plain := measure(ctx, t.opt, sys, in, sys.searchFunc(), half, 0, writes/2)
	traced := measure(ctx, t.opt, sys, in, t.tr.wrap(sys.searchFunc()), half, writes/2, writes)
	if err := ctx.Err(); err != nil {
		return err
	}
	t.rep.Phases = append(append(t.rep.Phases, plain.phases...), traced.phases...)
	if err := (parts{plain, traced}).refuseIfLate(wl); err != nil {
		return err
	}

	// The ledger pass: one caller, one request at a time, nothing else in
	// flight. Only then do a request's parts add up to what its client saw;
	// under load the rest of the client's time is waiting for a core.
	quiet := &stream{in: in, search: t.tr.wrap(sys.searchFunc())}
	quiet.watermark.Store(traced.acked)
	ledger, elapsed := closedLoop(ctx, quiet, 1, ledgerPass)
	t.rep.Phases = append(t.rep.Phases, phaseInfo{"ledger", elapsed.Seconds(), len(ledger)})
	for i := range ledger {
		ledger[i].check()
	}
	t.clientP50 = stageMetrics(L, ledger, sys.d != nil)
	if sys.d != nil {
		q := &in.queries[0]
		L["server.http_floor_us"] = httpFloor(sys.d, appendWindow(nil, q.prefix, q.start, q.end), time.Duration(t.clientP50*float64(time.Microsecond)))
	}

	// The correctness gate covers every pass; the traced pass's own
	// end-to-end numbers are context only.
	t.acked = traced.acked
	recall := (parts{plain, traced, {closed: ledger, acked: traced.acked}}).gate(wl, in, t.rep)
	for name, m := range (parts{traced}).endToEnd(wl, in, []setupStats{t.setup}, recall, t.rep) {
		t.rep.Info["traced."+name] = m
	}
	t.rep.Info["client.service_p50_us"] = metric{t.clientP50, "us"}
	t.rep.Info["client.loaded_service_p50_us"] = metric{loadedP50(traced), "us"}

	plainP50, _ := (parts{plain}).searchLatency(wl)
	tracedP50, _ := (parts{traced}).searchLatency(wl)
	L["ledger.trace_overhead_share"] = (tracedP50 - plainP50) / plainP50

	if sys.d == nil {
		return nil
	}
	after, err := sys.d.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	L["server.shed"] = delta(`tknn_shed_total{op="search"}`) + delta(`tknn_shed_total{op="insert"}`)
	L["server.degraded"] = delta("tknn_degraded_total")
	L["server.partial"] = delta("tknn_search_partials_total")
	serverCodec(L, in)
	if wl.durable {
		hits, misses := delta("tknn_block_cache_hits_total"), delta("tknn_block_cache_misses_total")
		L["blockcache.hit_rate"] = hits / math.Max(hits+misses, 1)
		L["blockcache.misses_per_query"] = misses / math.Max(delta("tknn_searches_total"), 1)
		L["blockcache.evictions"] = delta("tknn_block_cache_evictions_total")
		L["wal.fsyncs_per_batch"] = delta("tknn_wal_fsyncs_total") / math.Max(delta("tknn_insert_requests_total"), 1)
		var service []float64
		for _, w := range append(plain.writes, traced.writes...) {
			service = append(service, us(w.done-w.sent))
		}
		t.insertP50 = median(service)
		t.rep.Info["client.insert_service_p50_us"] = metric{t.insertP50, "us"}
	}
	return nil
}

// indexLayers times the layers below the server on an in-process index:
// the library workload's own, or a twin of the daemon's built from the
// same inputs with the daemon's parameters.
func (t *traceRun) indexLayers(ctx context.Context) error {
	in, L := t.in, t.L
	ix, addUs := t.sys.ix, t.setup.addUs
	if ix == nil {
		var err error
		if ix, addUs, err = buildIndex(ctx, tknn.MBIOptions{Dim: dim, LeafSize: leafSize, Epsilon: 1.2}, in, in.n0); err != nil {
			return err
		}
	}
	L["core.append_us"] = median(addUs)
	if t.opt.workload.durable {
		if err := sealStalls(L, t.tr, ix, in, t.opt.seconds); err != nil {
			return err
		}
		persistLayers(L, ix)
	}
	if err := explainLayers(ctx, L, t.tr, ix, in); err != nil {
		return err
	}
	vecLayer(L, in)
	if !t.opt.workload.served {
		sqLayer(L, in)
	}
	return nndescentLayer(L, in)
}

// loadedP50 is the client's p50 service time, in microseconds, with every
// reader busy: what it exceeds the ledger pass's p50 by is waiting.
func loadedP50(m *measured) float64 {
	var service []float64
	for i := range m.closed {
		service = append(service, us(m.closed[i].service()))
	}
	return median(service)
}

// unexplained is the share of a whole that its separately timed parts
// leave over, or overshoot.
func unexplained(whole float64, parts ...float64) float64 {
	if whole == 0 {
		return 0
	}
	rest := whole
	for _, p := range parts {
		rest -= p
	}
	return math.Abs(rest) / whole
}

// stageMetrics fills the per-stage medians from the traced samples and
// returns the client's p50 service time in microseconds. fetch is a mean:
// most queries touch no cold block, so its median is 0 by construction.
func stageMetrics(L map[string]float64, samples []sample, served bool) float64 {
	var client, other, sel, search, merge, rerank, fetch, req, resp []float64
	for i := range samples {
		s := &samples[i]
		if s.fail != "" {
			continue
		}
		c := us(s.service())
		client = append(client, c)
		other = append(other, c-s.stages.sel-s.stages.search-s.stages.merge)
		sel, search, merge = append(sel, s.stages.sel), append(search, s.stages.search), append(merge, s.stages.merge)
		rerank, fetch = append(rerank, s.stages.rerank), append(fetch, s.stages.fetch)
		req, resp = append(req, float64(s.reqBytes)), append(resp, float64(s.respBytes))
	}
	L["core.select_us"] = median(sel)
	L["exec.search_us"] = median(search)
	L["exec.merge_us"] = median(merge)
	L["exec.rerank_us"] = median(rerank)
	L["exec.fetch_us"] = mean(fetch)
	if served {
		L["server.other_us"] = median(other)
		L["server.req_bytes"] = mean(req)
		L["server.resp_bytes"] = mean(resp)
	}
	return median(client)
}

// httpFloor is the median round trip, in microseconds, of a /search-sized
// body posted to /healthz: HTTP on both sides with no JSON and no index
// work. The probes are spaced like the ledger pass's own requests, because
// a peer that has sat idle for a millisecond takes tens of microseconds
// longer to wake than one probed in a tight loop, and the workload's
// requests find it as idle as that.
func httpFloor(d *daemon, body []byte, spacing time.Duration) float64 {
	var rtt []float64
	var buf bytes.Buffer
	for i := 0; i < 400; i++ {
		t := time.Now()
		status, err := d.post("/healthz", body, &buf)
		took := time.Since(t)
		if err == nil && status == 200 {
			rtt = append(rtt, us(took))
		}
		if spacing > took {
			sleepFor(spacing - took)
		}
	}
	return median(rtt)
}

// buildIndex adds rows [0, n) to a fresh index, timing every Add.
func buildIndex(ctx context.Context, opts tknn.MBIOptions, in *inputs, n int) (*tknn.MBI, []float64, error) {
	ix, err := tknn.NewMBI(opts)
	if err != nil {
		return nil, nil, err
	}
	addUs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := ix.Add(in.data.Train.At(i), int64(i)); err != nil {
			return nil, nil, err
		}
		addUs = append(addUs, us(time.Since(t)))
		if i%loadBatch == 0 && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
	}
	return ix, addUs, nil
}

// sealStalls replays the writer's rows through Add on the twin. An Add
// over 10 ms sealed a leaf and built its cascade under the index lock:
// searches and inserts both wait for it.
func sealStalls(L map[string]float64, tr *tracer, ix *tknn.MBI, in *inputs, seconds float64) error {
	var stalled, worst time.Duration
	for i := in.n0; i < in.n0+writeVectors; i++ {
		blocks := ix.BlockCount()
		t := time.Now()
		if err := ix.Add(in.data.Train.At(i), int64(i)); err != nil {
			return err
		}
		if d := time.Since(t); d > 10*time.Millisecond {
			stalled += d
			if d > worst {
				worst = d
			}
			tr.add("core.seal", t, t.Add(d), 0, ix.BlockCount()-blocks)
		}
	}
	L["core.seal_stall_ms_max"] = ms(worst)
	L["core.seal_stall_share"] = stalled.Seconds() / seconds
	return nil
}

// ledgerPass is how long the single-caller pass runs.
const ledgerPass = 1500 * time.Millisecond

// explainQueries is how many queries of the stream are re-run through
// SearchExplain for the per-block numbers.
const explainQueries = 500

// explainLayers runs the head of the query stream through SearchExplain:
// which blocks each plan touches (counts that repeat exactly for a seed)
// and how long each executed block took, by height.
func explainLayers(ctx context.Context, L map[string]float64, tr *tracer, ix *tknn.MBI, in *inputs) error {
	var blocks, graphBlocks, inWindow, found, blockTime, searchTime float64
	var byHeight [6]struct{ us, n float64 }
	n := explainQueries
	if n > len(in.queries) {
		n = len(in.queries)
	}
	for i := 0; i < n; i++ {
		q := &in.queries[i]
		start, end := q.start, q.end
		if q.recent {
			end = int64(ix.Len())
			start = end - q.length
		}
		t := time.Now()
		_, plan, err := ix.SearchExplain(ctx, tknn.Query{Vector: q.vector, K: kNN, Start: start, End: end})
		if err != nil {
			return err
		}
		root := tr.add("core.explain", t, time.Now(), 0, len(plan.Blocks))
		blocks += float64(len(plan.Blocks))
		inWindow += float64(plan.TotalInWindow)
		searchTime += us(plan.Search)
		at := t.Add(plan.Select)
		for _, b := range plan.Blocks {
			blockTime += us(b.Duration)
			// Blocks of one plan run in parallel; each span starts where
			// the search stage did.
			tr.add("exec.block", at, at.Add(b.Duration), root, b.Found)
			if b.BruteForce {
				continue
			}
			graphBlocks++
			found += float64(b.Found)
			if b.Height >= 0 && b.Height < len(byHeight) {
				byHeight[b.Height].us += us(b.Duration)
				byHeight[b.Height].n++
			}
		}
	}
	L["core.blocks_per_query"] = blocks / float64(n)
	L["core.graph_blocks_per_query"] = graphBlocks / float64(n)
	L["core.inwindow_per_query"] = inWindow / float64(n)
	if graphBlocks > 0 {
		L["graph.found_per_block"] = found / graphBlocks
	}
	if searchTime > 0 {
		L["exec.parallel_speedup"] = blockTime / searchTime
	}
	for h, b := range byHeight {
		if b.n > 0 {
			L[fmt.Sprintf("graph.block_us.h%d", h)] = b.us / b.n
		}
	}
	return nil
}

// durableLayers measures what only serve-mixed has: the checkpoint, the
// bytes on disk, recovery of the finished data dir by a restarted daemon,
// and the segment, cache and WAL functions on that dir's own files.
func (t *traceRun) durableLayers(ctx context.Context) error {
	wl, L, d := t.opt.workload, t.L, t.sys.d
	if !wl.durable {
		return nil
	}
	at := time.Now()
	if err := d.checkpoint(); err != nil {
		return err
	}
	t.tr.add("wal.checkpoint", at, time.Now(), 0, 0)
	L["wal.checkpoint_ms"] = ms(time.Since(at))
	disk, err := dirBytes(d.dataDir)
	if err != nil {
		return err
	}
	L["persist.disk_bytes_per_user_byte"] = float64(disk) / float64(t.acked*dim*4)

	// Kill, not shut down: recovery must compose the snapshot, the segment
	// files and the WAL from what is on disk.
	dataDir := d.dataDir
	d.dataDir = "" // keep the files for the restart
	d.stop()
	at = time.Now()
	again, err := startDaemon(ctx, t.bin, filepath.Join(t.opt.outDir, "tknnd-"+wl.name+".log"), wl, dataDir)
	if err != nil {
		_ = os.RemoveAll(dataDir)
		return fmt.Errorf("restarting on the finished data dir: %w", err)
	}
	t.tr.add("wal.recover", at, time.Now(), 0, 0)
	L["wal.recover_ms"] = ms(time.Since(at))
	t.sys.d = again // the deferred close stops it and removes the dir
	st, err := again.stats()
	if err != nil {
		return err
	}
	if int64(st.Vectors) != t.acked {
		return fmt.Errorf("recovered %d vectors, %d were acknowledged", st.Vectors, t.acked)
	}
	if err := segmentLayers(ctx, L, filepath.Join(dataDir, "segments"), t.opt.outDir); err != nil {
		return err
	}
	return walLayer(L, t.opt.outDir, t.in)
}

// serverCodec times encoding/json on the bodies the server decodes and
// encodes: the same SearchRequest, SearchResponse and AddRequest shapes.
func serverCodec(L map[string]float64, in *inputs) {
	L["server.decode_us"], L["server.encode_us"] = searchCodec(in)
	var perVec []float64
	bodies := in.writeBodies
	if len(bodies) == 0 {
		bodies = in.loadBodies
	}
	for i := 0; i < len(bodies) && i < 64; i++ {
		perVec = append(perVec, decodeInsert(bodies[i]))
	}
	L["server.insert_decode_us_per_vec"] = median(perVec)
}
