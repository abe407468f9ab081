package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// plainAdd and plainSearch are the request types stripped of any methods,
// so json.Unmarshal into them is encoding/json's reflective decoder — the
// reference the wire decoders must match — whatever methods the request
// types ever grow.
type (
	plainAdd    AddRequest
	plainSearch SearchRequest
)

// floatsKey renders a decoded vector exactly: nil apart from empty, and
// each float by the shortest text that parses back to its bits ("-0"
// apart from "0"; JSON has no NaN).
func floatsKey(v []float32) string {
	if v == nil {
		return "nil"
	}
	b := []byte{'['}
	for _, f := range v {
		b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
		b = append(b, ' ')
	}
	return string(append(b, ']'))
}

func addKey(r *AddRequest) string {
	s := "vector=" + floatsKey(r.Vector) + " time="
	if r.Time == nil {
		s += "nil"
	} else {
		s += strconv.FormatInt(*r.Time, 10)
	}
	if r.Batch == nil {
		return s + " batch=nil"
	}
	s += " batch=["
	for _, e := range r.Batch {
		s += fmt.Sprintf("{%s %d}", floatsKey(e.Vector), e.Time)
	}
	return s + "]"
}

func searchKey(r *SearchRequest) string {
	return fmt.Sprintf("vector=%s k=%d start=%d end=%d", floatsKey(r.Vector), r.K, r.Start, r.End)
}

// FuzzWireMatchesEncodingJSON holds both wire decoders to json.Unmarshal
// on every input: both refuse it, or both accept it with identical
// structs. The corpus under testdata/fuzz has one file per quirk the
// decoders reproduce (see wire.go).
func FuzzWireMatchesEncodingJSON(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var add, wantAdd AddRequest
		err, wantErr := decodeAddRequest(body, &add), json.Unmarshal(body, (*plainAdd)(&wantAdd))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("/vectors body %q: wire error %v, encoding/json error %v", body, err, wantErr)
		}
		if got, want := addKey(&add), addKey(&wantAdd); err == nil && got != want {
			t.Fatalf("/vectors body %q:\nwire          %s\nencoding/json %s", body, got, want)
		}
		var search, wantSearch SearchRequest
		err, wantErr = decodeSearchRequest(body, &search), json.Unmarshal(body, (*plainSearch)(&wantSearch))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("/search body %q: wire error %v, encoding/json error %v", body, err, wantErr)
		}
		if got, want := searchKey(&search), searchKey(&wantSearch); err == nil && got != want {
			t.Fatalf("/search body %q:\nwire          %s\nencoding/json %s", body, got, want)
		}
	})
}

// randomVector returns dim floats drawn the way the benchmark's dataset
// draws them, so their text is as long as the benchmark's.
func randomVector(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// batchBody is a /vectors body shaped like the benchmark's base load:
// n entries of dim floats, as encoding/json writes them.
func batchBody(tb testing.TB, n, dim int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	req := AddRequest{Batch: make([]AddEntry, n)}
	for i := range req.Batch {
		req.Batch[i] = AddEntry{Vector: randomVector(rng, dim), Time: int64(1000 + i)}
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func searchBody(tb testing.TB, dim int) []byte {
	tb.Helper()
	b, err := json.Marshal(SearchRequest{Vector: randomVector(rand.New(rand.NewSource(2)), dim), K: 10, Start: 1234, End: 5678})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestDecodeAllocs bounds the decoders' allocations: a /search body costs
// only its vector, and a batch one allocation per entry plus the batch's
// own growth — the same for 4 floats per entry as for 128.
func TestDecodeAllocs(t *testing.T) {
	search := searchBody(t, 128)
	if n := testing.AllocsPerRun(100, func() {
		var r SearchRequest
		if err := decodeSearchRequest(search, &r); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("decoding a 128-dim /search body allocates %v times, want 1 (the vector)", n)
	}
	const entries = 64
	batchAllocs := func(dim int) float64 {
		body := batchBody(t, entries, dim)
		return testing.AllocsPerRun(20, func() {
			var r AddRequest
			if err := decodeAddRequest(body, &r); err != nil {
				t.Fatal(err)
			}
		})
	}
	wide, narrow := batchAllocs(128), batchAllocs(4)
	if wide != narrow || wide > 2*entries {
		t.Errorf("a %d-entry batch allocates %v times at dim 128 and %v at dim 4, want equal and at most %d",
			entries, wide, narrow, 2*entries)
	}
}

// BenchmarkDecodeBody times the request decoders against what the handlers
// ran before them, json.Decoder over the body, on a benchmark-shaped 64 ×
// 128 batch and a 128-dim /search body. ns/vector is the per-vector cost
// the write ledger charges (server.insert_decode_us_per_vec, in ns).
func BenchmarkDecodeBody(b *testing.B) {
	for _, c := range []struct {
		name    string
		body    []byte
		vectors int
		wire    func([]byte) error
		std     func([]byte) error
	}{
		{"batch", batchBody(b, 64, 128), 64,
			func(body []byte) error { var r AddRequest; return decodeAddRequest(body, &r) },
			func(body []byte) error { var r AddRequest; return json.NewDecoder(bytes.NewReader(body)).Decode(&r) }},
		{"search", searchBody(b, 128), 1,
			func(body []byte) error { var r SearchRequest; return decodeSearchRequest(body, &r) },
			func(body []byte) error { var r SearchRequest; return json.NewDecoder(bytes.NewReader(body)).Decode(&r) }},
	} {
		for _, dec := range []struct {
			name   string
			decode func([]byte) error
		}{{"encoding-json", c.std}, {"wire", c.wire}} {
			b.Run(c.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(c.body)))
				for i := 0; i < b.N; i++ {
					if err := dec.decode(c.body); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.vectors), "ns/vector")
			})
		}
	}
}
