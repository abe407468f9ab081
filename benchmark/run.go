package main

import (
	"context"
	"fmt"
	"time"
)

type options struct {
	workload *workload
	seed     int64
	seconds  float64
	scale    float64
	outDir   string
}

// endToEnd names every end-to-end metric with its unit, in the order
// BENCHMARK.json lists them; every workload reports every one.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"search_qps", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p95_ms", "ms"},
	{"insert_p50_ms", "ms"},
	{"recall_at_10", "ratio"},
}

// runWorkload is the untraced run: three set-ups, a third of the measured
// time on each (all of it on the last one for serve-mixed, whose writer
// needs the whole run), the correctness gate, the end-to-end metrics.
func runWorkload(ctx context.Context, opt options) (*report, error) {
	wl := opt.workload
	rep := newReport(opt, false)
	in := generate(wl, opt.seed, opt.scale)
	bin := ""
	if wl.served {
		var err error
		if bin, err = buildDaemon(ctx, opt.outDir); err != nil {
			return nil, err
		}
	}

	var ps parts
	var setups []setupStats
	// one sets the system up, measures on it where this workload measures,
	// and closes it on every path out.
	one := func(i int) error {
		t0 := time.Now()
		sys, st, err := setUp(ctx, opt, in, bin)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		defer sys.close()
		setups = append(setups, st)
		rep.Phases = append(rep.Phases, phaseInfo{"set-up", time.Since(t0).Seconds(), len(st.batchMs)})
		seconds := opt.seconds / setupRepeats
		if wl.durable {
			if i < setupRepeats-1 {
				return nil
			}
			seconds = opt.seconds
		}
		m := measure(ctx, opt, sys, in, sys.searchFunc(), seconds, 0, len(in.writeBodies))
		ps = append(ps, m)
		rep.Phases = append(rep.Phases, m.phases...)
		return ctx.Err()
	}
	for i := 0; i < setupRepeats; i++ {
		if err := one(i); err != nil {
			return nil, err
		}
	}
	if err := ps.refuseIfLate(wl); err != nil {
		return nil, err
	}
	rep.Metrics = ps.endToEnd(wl, in, setups, ps.gate(wl, in, rep), rep)
	return rep, nil
}
