package main

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// The box is shared. A neighbour's burst slows some seconds of a run and
// never speeds any up, so every timed metric is taken per slice of its
// phase and the best slice is reported: the one the neighbours left alone.
// A change to the program moves every slice, the best one included.
const (
	sliceLen      = 500 * time.Millisecond
	writeSliceLen = 2 * time.Second // the writer sends a batch every 80 ms or so
	sliceMin      = 20              // samples a slice needs for its percentiles to count
)

// bestSlice cuts observations v, made at offsets at, into slices and
// returns the lowest per-slice q-quantile.
func bestSlice(at []time.Duration, v []float64, slice time.Duration, q float64) float64 {
	bySlice := map[int][]float64{}
	for i, t := range at {
		bySlice[int(t/slice)] = append(bySlice[int(t/slice)], v[i])
	}
	best := math.Inf(1)
	for _, vals := range bySlice {
		if len(vals) >= sliceMin {
			best = math.Min(best, percentile(sortedCopy(vals), q))
		}
	}
	if math.IsInf(best, 1) { // a phase too short for one full slice
		return percentile(sortedCopy(v), q)
	}
	return best
}

// parts are the measured passes of one run: one per set-up on the
// read-only workloads, so the slices span the whole run's wall clock and a
// neighbour's burst of several seconds cannot cover them all.
type parts []*measured

// bestThroughput is the highest per-slice completion rate of the closed loops.
func (ps parts) bestThroughput() float64 {
	best := 0.0
	for _, m := range ps {
		counts := make([]float64, int(m.closedElapsed/sliceLen))
		for i := range m.closed {
			if j := int(m.closed[i].done / sliceLen); j < len(counts) {
				counts[j]++
			}
		}
		for _, c := range counts {
			best = math.Max(best, c/sliceLen.Seconds())
		}
	}
	if best == 0 { // phases too short for one full slice
		n, elapsed := 0, 0.0
		for _, m := range ps {
			n, elapsed = n+len(m.closed), elapsed+m.closedElapsed.Seconds()
		}
		best = float64(n) / elapsed
	}
	return best
}

// searchLatency returns the open loops' best-slice p50 and p95 in ms. On
// serve-mixed the slow slices are the program's own seal stalls and p95 is
// where they reach a reader, so there it is taken over the whole phase.
func (ps parts) searchLatency(wl *workload) (p50, p95 float64) {
	p50, p95 = math.Inf(1), math.Inf(1)
	for _, m := range ps {
		at, lat := make([]time.Duration, len(m.open)), make([]float64, len(m.open))
		for i := range m.open {
			at[i], lat[i] = m.open[i].due, ms(m.open[i].latency())
		}
		p50 = math.Min(p50, bestSlice(at, lat, sliceLen, 0.50))
		if wl.durable {
			p95 = math.Min(p95, percentile(sortedCopy(lat), 0.95))
		} else {
			p95 = math.Min(p95, bestSlice(at, lat, sliceLen, 0.95))
		}
	}
	return p50, p95
}

// latencies returns the samples' due-to-done latencies in ms, sorted.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = ms(samples[i].latency())
	}
	return sortedCopy(out)
}

// errLate marks a run refused because its load generator ran late.
var errLate = errors.New("refusing the run")

// refuseIfLate rejects a run whose open-loop generators ran late: past
// genLagShare of the gap the box, not the program, was the bottleneck.
func (ps parts) refuseIfLate(wl *workload) error {
	check := func(what string, ts []timing, gapMs float64) error {
		if lag := genLagP95(ts); lag > genLagShare*gapMs {
			return fmt.Errorf("%w: the %s generator ran %.3f ms late at p95, over %.0f%% of its %.3f ms gap", errLate, what, lag, 100*genLagShare, gapMs)
		}
		return nil
	}
	for _, m := range ps {
		if err := check("search", m.openTimings, 1000/wl.rate); err != nil {
			return err
		}
		if n := len(m.writes); n > 1 {
			if err := check("insert", m.writes, ms(m.writes[n-1].due)/float64(n-1)); err != nil {
				return err
			}
		}
	}
	return nil
}

// gate is the correctness gate over everything a run sent: every response
// passed its checks, every write was acknowledged in full, a strided
// sample matches brute force to the workload's recall floor, and each
// daemon held exactly the acknowledged vectors. It fills the report's
// verdict and counts and returns the recall.
func (ps parts) gate(wl *workload, in *inputs, rep *report) float64 {
	var all []sample
	for _, m := range ps {
		all = append(append(all, m.closed...), m.open...)
		rep.Attempted += len(m.writes)
		rep.Failed += len(m.writeFails)
		rep.Failures = append(rep.Failures, m.writeFails...)
		if m.stateFail != "" {
			rep.Failed++
			rep.Failures = append(rep.Failures, m.stateFail)
		}
		rep.Info["client.acked_vectors"] = metric{float64(m.acked), "count"}
	}
	recall, scored := scoreRecall(in, all)
	rep.Attempted += len(all)
	for i := range all {
		if all[i].fail != "" {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("query %d window [%d,%d): %s", all[i].q, all[i].start, all[i].end, all[i].fail))
		}
	}
	rep.Correct = rep.Failed == 0
	if recall < wl.recallFloor {
		rep.Correct = false
		rep.Failures = append(rep.Failures, fmt.Sprintf("recall_at_10 %.4f is below the floor %.2f", recall, wl.recallFloor))
	}
	if len(rep.Failures) > 10 {
		rep.Failures = rep.Failures[:10]
	}
	rep.Info["client.fail_ratio"] = metric{float64(rep.Failed) / float64(rep.Attempted), "ratio"}
	rep.Info["client.recall_samples"] = metric{float64(scored), "count"}
	return recall
}

// endToEnd derives the end-to-end metrics and adds the numbers that give
// them context to the report.
func (ps parts) endToEnd(wl *workload, in *inputs, setups []setupStats, recall float64, rep *report) map[string]metric {
	var setupS, ingest, loadP50, loadP95 []float64
	for _, st := range setups {
		setupS = append(setupS, st.seconds)
		ingest = append(ingest, float64(in.n0)/st.loadSeconds)
		b := sortedCopy(st.batchMs)
		loadP50, loadP95 = append(loadP50, percentile(b, 0.50)), append(loadP95, percentile(b, 0.95))
	}
	var lat, writeLat []float64
	var writeDue []time.Duration
	var closed, closedSeconds, rss float64
	var timings []timing
	for _, m := range ps {
		lat = append(lat, latencies(m.open)...)
		timings = append(timings, m.openTimings...)
		closed, closedSeconds = closed+float64(len(m.closed)), closedSeconds+m.closedElapsed.Seconds()
		rss = math.Max(rss, m.rssMB)
		for _, t := range m.writes {
			writeDue, writeLat = append(writeDue, t.due), append(writeLat, ms(t.done-t.due))
		}
	}
	// Insert latency is per batch: the measured 16-vector writer timed from
	// due on serve-mixed, the base load's 64-vector batches (the best of the
	// set-ups) where nothing writes during the measurement.
	insertP50, insertP95 := sortedCopy(loadP50)[0], sortedCopy(loadP95)[0]
	if len(writeLat) > 0 {
		insertP50, insertP95 = bestSlice(writeDue, writeLat, writeSliceLen, 0.50), percentile(sortedCopy(writeLat), 0.95)
	}
	lat = sortedCopy(lat)
	for name, v := range map[string]metric{
		"client.ingest_vps":     {median(ingest), "1/s"},
		"client.insert_p95_ms":  {insertP95, "ms"},
		"client.insert_samples": {float64(len(writeLat)), "count"},
		"client.rss_mb":         {rss, "MB"},
		"client.search_p99_ms":  {percentile(lat, 0.99), "ms"},
		"client.open_p50_ms":    {percentile(lat, 0.50), "ms"},
		"client.open_p95_ms":    {percentile(lat, 0.95), "ms"},
		"client.open_samples":   {float64(len(lat)), "count"},
		"client.closed_qps":     {closed / closedSeconds, "1/s"},
		"client.closed_samples": {closed, "count"},
		"client.gen_lag_ms_p95": {genLagP95(timings), "ms"},
	} {
		rep.Info[name] = v
	}
	p50, p95 := ps.searchLatency(wl)
	values := map[string]float64{
		"setup_s":       median(setupS),
		"search_qps":    ps.bestThroughput(),
		"search_p50_ms": p50,
		"search_p95_ms": p95,
		"insert_p50_ms": insertP50,
		"recall_at_10":  recall,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, def := range endToEnd {
		out[def.name] = metric{values[def.name], def.unit}
	}
	return out
}
