package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one measured search and what it returned.
type sample struct {
	q          int32
	start, end int64
	// due, sent and done are offsets from the start of the phase. In a
	// closed loop due == sent; in the open loop latency runs from due.
	due, sent, done     time.Duration
	n                   int
	ids                 [kNN]int32
	dists               [kNN]float32
	stages              stageTimes
	reqBytes, respBytes int
	fail                string // first check the response failed; empty = passed
}

// stageTimes are the per-query stage durations the system itself reports,
// in microseconds.
type stageTimes struct{ sel, search, merge, rerank, fetch float64 }

func (s *sample) latency() time.Duration { return s.done - s.due }
func (s *sample) service() time.Duration { return s.done - s.sent }

// searchFunc runs one search on the system under test and fills in the
// sample's results, stages, sizes and fail fields.
type searchFunc func(worker int, q *query, start, end int64, s *sample)

// stream hands out the query sequence shared by every phase of a run and
// resolves recent windows against the acknowledged watermark.
type stream struct {
	in        *inputs
	next      atomic.Int64
	watermark atomic.Int64 // vectors acknowledged so far; timestamps are row numbers
	search    searchFunc
}

func (st *stream) one(worker int, s *sample) {
	i := int(st.next.Add(1)-1) % len(st.in.queries)
	q := &st.in.queries[i]
	s.q, s.start, s.end = int32(i), q.start, q.end
	if q.recent {
		s.end = st.watermark.Load()
		s.start = s.end - q.length
	}
	st.search(worker, q, s.start, s.end, s)
}

// closedLoop keeps `workers` callers busy for dur: each sends its next
// search as soon as the previous one returned.
func closedLoop(ctx context.Context, st *stream, workers int, dur time.Duration) (samples []sample, elapsed time.Duration) {
	per := make([][]sample, workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				var s sample
				if s.sent = time.Since(t0); s.sent >= dur {
					return
				}
				s.due = s.sent
				st.one(w, &s)
				s.done = time.Since(t0)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(t0)
	for _, p := range per {
		samples = append(samples, p...)
	}
	return samples, elapsed
}

// timing is when one paced operation was due, sent and finished.
type timing struct {
	due, sent, done time.Duration
	waited          bool
}

// paced is the open loop: operation seq is due seq*gap after the start
// whatever happened to the ones before it. A free worker takes the next
// sequence number and waits for its due time; when every worker is busy
// past a due time the operation starts late and that wait is part of its
// latency, which is timed from due.
func paced(ctx context.Context, workers, n int, gap time.Duration, do func(worker, seq int)) []timing {
	out := make([]timing, n)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				seq := int(next.Add(1) - 1)
				if seq >= n {
					return
				}
				t := &out[seq]
				t.due = time.Duration(seq) * gap
				due := t0.Add(t.due)
				if t.waited = time.Now().Before(due); t.waited {
					waitUntil(due)
				}
				t.sent = time.Since(t0)
				do(w, seq)
				t.done = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// waitUntil returns at t to within a few microseconds on an idle core: it
// sleeps to a millisecond before t (long sleeps overshoot most), then to
// spinWindow before, then spins. The p95 overshoot of a short nanosleep on
// the reference box is 75 µs idle and about 300 µs with both cores busy.
func waitUntil(t time.Time) {
	const (
		coarse     = time.Millisecond
		spinWindow = 300 * time.Microsecond
	)
	for d := time.Until(t); d > 0; d = time.Until(t) {
		switch {
		case d > 2*coarse:
			sleepFor(d - coarse)
		case d > spinWindow:
			sleepFor(d - spinWindow)
		}
	}
}

// openLoop sends n searches at a fixed gap from `workers` callers.
func openLoop(ctx context.Context, st *stream, workers, n int, gap time.Duration) ([]sample, []timing) {
	samples := make([]sample, n)
	ts := paced(ctx, workers, n, gap, func(w, seq int) { st.one(w, &samples[seq]) })
	for i, t := range ts {
		samples[i].due, samples[i].sent, samples[i].done = t.due, t.sent, t.done
	}
	return samples, ts
}

// genLagP95 is how late the generator itself ran, in ms: the p95 of
// sent-due over the operations whose worker was waiting for the due time.
func genLagP95(ts []timing) float64 {
	var lag []float64
	for _, t := range ts {
		if t.waited {
			lag = append(lag, ms(t.sent-t.due))
		}
	}
	return percentile(sortedCopy(lag), 0.95)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
