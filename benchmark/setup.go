package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	tknn "repro"
)

// system is what the phases drive: a running tknnd or the in-process index.
type system struct {
	d  *daemon   // served workloads
	ix *tknn.MBI // embed-sq8
}

func (s *system) close() {
	if s.d != nil {
		s.d.stop()
	}
}

// setupStats is one set-up: starting the system, loading the base and, on
// serve-mixed, checkpointing (which spills every sealed block).
type setupStats struct {
	seconds     float64
	loadSeconds float64
	batchMs     []float64 // latency of each loadBatch-vector insert
	addUs       []float64 // embed-sq8 only: every Add, in microseconds
}

func setUp(ctx context.Context, opt options, in *inputs, bin string) (*system, setupStats, error) {
	if opt.workload.served {
		return setUpDaemon(ctx, opt, in, bin)
	}
	return setUpLibrary(ctx, in)
}

func setUpDaemon(ctx context.Context, opt options, in *inputs, bin string) (*system, setupStats, error) {
	var st setupStats
	wl := opt.workload
	dataDir := ""
	if wl.durable {
		var err error
		if dataDir, err = os.MkdirTemp(opt.outDir, "data-"); err != nil {
			return nil, st, err
		}
	}
	t0 := time.Now()
	d, err := startDaemon(ctx, bin, filepath.Join(opt.outDir, "tknnd-"+wl.name+".log"), wl, dataDir)
	if err != nil {
		if dataDir != "" {
			_ = os.RemoveAll(dataDir)
		}
		return nil, st, err
	}
	sys := &system{d: d}
	load := func() error {
		var buf bytes.Buffer
		loadStart := time.Now()
		for _, body := range in.loadBodies {
			t := time.Now()
			n, err := d.insert(body, &buf)
			if err == nil && n != loadBatch {
				err = fmt.Errorf("base load: %d of %d vectors acknowledged", n, loadBatch)
			}
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				return err
			}
			st.batchMs = append(st.batchMs, ms(time.Since(t)))
		}
		st.loadSeconds = time.Since(loadStart).Seconds()
		if wl.durable {
			return d.checkpoint()
		}
		return nil
	}
	if err := load(); err != nil {
		sys.close()
		return nil, st, err
	}
	st.seconds = time.Since(t0).Seconds()
	return sys, st, nil
}

// libraryOptions is the embed-sq8 index: the library's defaults with SQ8
// codes on every sealed block and both cores building graphs.
func libraryOptions() tknn.MBIOptions {
	return tknn.MBIOptions{Dim: dim, LeafSize: leafSize, Compression: tknn.CompressionSQ8, Workers: runtime.NumCPU()}
}

func setUpLibrary(ctx context.Context, in *inputs) (*system, setupStats, error) {
	var st setupStats
	t0 := time.Now()
	ix, addUs, err := buildIndex(ctx, libraryOptions(), in, in.n0)
	if err != nil {
		return nil, st, err
	}
	st.seconds = time.Since(t0).Seconds()
	st.loadSeconds, st.addUs = st.seconds, addUs
	for lo := 0; lo < len(addUs); lo += loadBatch {
		batch := 0.0
		for _, u := range addUs[lo:min(lo+loadBatch, len(addUs))] {
			batch += u
		}
		st.batchMs = append(st.batchMs, batch/1000)
	}
	return &system{ix: ix}, st, nil
}

// searchLibrary is embed-sq8's searchFunc.
func (s *system) searchLibrary(_ int, q *query, start, end int64, smp *sample) {
	res, info, err := s.ix.SearchDetailed(context.Background(), tknn.Query{Vector: q.vector, K: kNN, Start: start, End: end})
	if err != nil {
		smp.fail = err.Error()
		return
	}
	smp.stages = stageTimes{us(info.Select), us(info.Search), us(info.Merge), us(info.Rerank), us(info.Fetch)}
	if info.Partial {
		smp.fail = "partial answer"
	}
	for _, r := range res {
		smp.add(r.ID, r.Time, r.Dist)
	}
}

func (s *system) searchFunc() searchFunc {
	if s.d != nil {
		return s.d.search
	}
	return s.searchLibrary
}
