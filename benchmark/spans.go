package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are microseconds
// since the tracer started; Parent is the causing span's ID (0 = none);
// spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	// N carries the span's count where it has one: blocks sealed by a
	// core.seal, neighbours found by an exec.block.
	N int `json:"n,omitempty"`
}

// tracer keeps spans in memory, one slice per worker so recording takes no
// lock, and writes them out when the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	per    [][]span
}

func newTracer(workers int) *tracer {
	return &tracer{t0: time.Now(), per: make([][]span, workers)}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// wrap records, around every search, the client's span and under it the
// stages the system reported. Only the stages' durations are measured
// from outside: they are laid end to end in the middle of the client span,
// and what surrounds them is the server's (or the call's) own time.
func (t *tracer) wrap(search searchFunc) searchFunc {
	return func(worker int, q *query, start, end int64, s *sample) {
		begin := time.Now()
		search(worker, q, start, end, s)
		finish := time.Now()
		req := t.nextID.Add(4) - 3
		root := span{Name: "client.search", Start: t.since(begin), End: t.since(finish), ID: req, Req: req}
		stages := []struct {
			name string
			us   float64
		}{{"core.select", s.stages.sel}, {"exec.search", s.stages.search}, {"exec.merge", s.stages.merge}}
		at := float64(root.Start) + (float64(root.End-root.Start)-s.stages.sel-s.stages.search-s.stages.merge)/2
		spans := append(t.per[worker], root)
		for i, st := range stages {
			spans = append(spans, span{Name: st.name, Start: int64(at), End: int64(at + st.us), ID: req + int64(i) + 1, Parent: req, Req: req})
			at += st.us
		}
		t.per[worker] = spans
	}
}

// add records a span made outside the search path (worker 0's slice; the
// callers are sequential). A span with a parent belongs to its request.
func (t *tracer) add(name string, begin, finish time.Time, parent int64, n int) int64 {
	id := t.nextID.Add(1)
	req := parent
	if req == 0 {
		req = id
	}
	t.per[0] = append(t.per[0], span{Name: name, Start: t.since(begin), End: t.since(finish), ID: id, Parent: parent, Req: req, N: n})
	return id
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, spans := range t.per {
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				_ = f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
