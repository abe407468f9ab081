package main

import (
	"encoding/json"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/vec"
)

// query is one pre-generated search. Recent queries (serve-mixed) carry a
// window length only: their window ends at whatever the acknowledged
// watermark is when they are sent.
type query struct {
	vector     []float32
	start, end int64
	recent     bool
	length     int64
	// prefix is the /search body up to and including `"start":`; the
	// sender appends the window.
	prefix []byte
}

// inputs is everything a run feeds the system, derived from the seed alone.
type inputs struct {
	n0          int
	data        *dataset.Data // Train: n0 base rows then writeVectors writer rows, timestamp = row; Test: query vectors
	queries     []query
	loadBodies  [][]byte // base load, loadBatch vectors each
	writeBodies [][]byte // serve-mixed writer stream, writeBatch vectors each
}

func generate(wl *workload, seed int64, scale float64) *inputs {
	n0 := baseVectors(scale)
	profile := dataset.Profile{
		Name: "benchmark", Dim: dim, Metric: vec.Euclidean,
		TrainN: n0 + writeVectors, TestN: numQueries,
		Clusters: 64, ClusterStd: 1.0, Background: 0.1,
	}
	in := &inputs{n0: n0, data: dataset.GenerateDrifting(profile, dataset.DriftConfig{Rate: 5e-4}, seed)}

	rng := rand.New(rand.NewSource(seed))
	uniform := func(lo, hi float64) int64 { return int64(lo + rng.Float64()*(hi-lo)) }
	in.queries = make([]query, numQueries)
	for i := range in.queries {
		q := &in.queries[i]
		q.vector = in.data.Test[i]
		n := float64(n0)
		switch wl.windows {
		case windowLong:
			q.length = uniform(0.30*n, 0.95*n)
		case windowEmbed:
			q.length = uniform(0.10*n, 0.95*n)
		case windowShort:
			q.length = uniform(32, 320)
			q.start = int64(n0) - q.length
		case windowMixed:
			// One in three: at one in two, p50 would sit in the gap
			// between the recent and the historical latency modes.
			if q.recent = i%3 == 0; q.recent {
				q.length = int64(0.05 * n)
			} else {
				q.length = uniform(0.10*n, 0.50*n)
			}
		}
		// At -scale 1 every window is longer than this already. Below it the
		// shares above would give windows of a few dozen vectors inside one
		// sealed leaf, and a filtered graph walk over a leaf that holds so few
		// in-window vectors returns fewer than k of them: a property of the
		// index the smoke test met at 1/8 scale, not one this harness's
		// workloads are about.
		if wl.windows != windowShort && q.length < minWindow {
			q.length = minWindow
		}
		if q.length > int64(n0) {
			q.length = int64(n0)
		}
		if wl.windows != windowShort && !q.recent {
			q.start = rng.Int63n(int64(n0) - q.length + 1)
		}
		q.end = q.start + q.length
		q.prefix = searchPrefix(q.vector)
	}

	if wl.served {
		in.loadBodies = insertBodies(in.data, 0, n0, loadBatch)
	}
	if wl.durable {
		in.writeBodies = insertBodies(in.data, n0, n0+writeVectors, writeBatch)
	}
	return in
}

// searchPrefix and appendWindow together produce exactly what
// json.Marshal(server.SearchRequest{...}) would; a test holds them to it.
func searchPrefix(v []float32) []byte {
	vj, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated vectors are finite
	}
	b := append([]byte(`{"vector":`), vj...)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, kNN, 10)
	return append(b, `,"start":`...)
}

func appendWindow(dst, prefix []byte, start, end int64) []byte {
	dst = append(dst, prefix...)
	dst = strconv.AppendInt(dst, start, 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, end, 10)
	return append(dst, '}')
}

// insertBodies encodes rows [lo, hi) as POST /vectors batches.
func insertBodies(d *dataset.Data, lo, hi, batch int) [][]byte {
	var out [][]byte
	for ; lo < hi; lo += batch {
		end := lo + batch
		if end > hi {
			end = hi
		}
		req := server.AddRequest{Batch: make([]server.AddEntry, 0, end-lo)}
		for i := lo; i < end; i++ {
			req.Batch = append(req.Batch, server.AddEntry{Vector: d.Train.At(i), Time: int64(i)})
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}
