package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// measured is what the phases of one pass produced.
type measured struct {
	closed        []sample
	closedElapsed time.Duration
	open          []sample
	openTimings   []timing
	writes        []timing // serve-mixed writer batches
	writeFails    []string
	acked         int64 // vectors acknowledged by the end, base included
	phases        []phaseInfo
	// Read off the system before it is closed: its peak RSS, and whether
	// it holds exactly the acknowledged vectors.
	rssMB     float64
	stateFail string
}

// measure warms the system up, then runs the closed loop and the open loop
// for `seconds` in total; on serve-mixed the writer streams writeBodies[lo:hi]
// evenly across both.
func measure(ctx context.Context, opt options, sys *system, in *inputs, search searchFunc, seconds float64, firstWrite, lastWrite int) *measured {
	wl := opt.workload
	st := &stream{in: in, search: search}
	st.watermark.Store(int64(in.n0 + firstWrite*writeBatch))
	m := &measured{}
	readers := wl.readers()

	closedLoop(ctx, st, readers, time.Duration(warmup*float64(time.Second)))

	var writer sync.WaitGroup
	if n := lastWrite - firstWrite; wl.durable && n > 0 {
		writer.Add(1)
		go func() {
			defer writer.Done()
			var buf bytes.Buffer
			gap := time.Duration(seconds / float64(n) * float64(time.Second))
			m.writes = paced(ctx, 1, n, gap, func(_, seq int) {
				// One connection and one batch in flight keep timestamps ordered.
				got, err := sys.d.insert(in.writeBodies[firstWrite+seq], &buf)
				if err == nil && got != writeBatch {
					err = fmt.Errorf("%d of %d vectors acknowledged", got, writeBatch)
				}
				if err != nil {
					m.writeFails = append(m.writeFails, fmt.Sprintf("write batch %d: %v", firstWrite+seq, err))
					return
				}
				st.watermark.Add(writeBatch)
			})
		}()
	}

	closedDur := time.Duration(closedShare * seconds * float64(time.Second))
	m.closed, m.closedElapsed = closedLoop(ctx, st, readers, closedDur)
	m.phases = append(m.phases, phaseInfo{"closed-loop", m.closedElapsed.Seconds(), len(m.closed)})

	openDur := (1 - closedShare) * seconds
	gap := time.Duration(float64(time.Second) / wl.rate)
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		m.open, m.openTimings = openLoop(ctx, st, readers, int(wl.rate*openDur), gap)
		m.phases = append(m.phases, phaseInfo{"open-loop", time.Since(t0).Seconds(), len(m.open)})
		// A read-only open loop whose generator ran late is run again
		// before the run is refused: nothing else is in flight, and one
		// noisy interval on a shared box should not cost the whole run.
		if wl.durable || attempt == openAttempts || genLagP95(m.openTimings) <= genLagShare*ms(gap) {
			break
		}
	}

	writer.Wait()
	if len(m.writes) > 0 {
		m.phases = append(m.phases, phaseInfo{"writer", m.writes[len(m.writes)-1].done.Seconds(), len(m.writes)})
	}
	m.acked = st.watermark.Load()
	for i := range m.closed {
		m.closed[i].check()
	}
	for i := range m.open {
		m.open[i].check()
	}
	m.readSystem(sys)
	return m
}

// readSystem records the peak RSS of the process holding the index (the
// daemon, or this process on embed-sq8) and checks that a daemon holds
// every acknowledged insert and nothing else.
func (m *measured) readSystem(sys *system) {
	pid := os.Getpid()
	if sys.d != nil {
		pid = sys.d.cmd.Process.Pid
		if st, err := sys.d.stats(); err != nil {
			m.stateFail = err.Error()
		} else if int64(st.Vectors) != m.acked {
			m.stateFail = fmt.Sprintf("/stats reports %d vectors, %d were acknowledged", st.Vectors, m.acked)
		}
	}
	m.rssMB, _ = peakRSSMB(pid) // 0 where /proc is missing; context only
}
