package tknn_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	tknn "repro"
)

// answerDigests pins the exact answers of six indexes to one seeded query
// set: a change that should not move any answer — a faster walk, a new
// frontier, a different schedule — must leave every constant as it is.
// The constants hold on the AVX2 kernels and on the pure-Go twins alike
// (the two are bit-identical), and at every GOMAXPROCS.
var answerDigests = map[string]uint64{
	"mbi-flat":   0x2e6efed5282e1626,
	"mbi-sq8":    0x4d1ac4b68d50f089,
	"mbi-cold":   0x2e6efed5282e1626,
	"mbi-loaded": 0x2e6efed5282e1626,
	"sf":         0x87f64430956dab53,
	"bsbf":       0x9bf40b4ce024b0e4,
}

// digestAnswers hashes the (id, time, distance bits) of every result of
// every query, with each query's result count as a separator.
func digestAnswers(t *testing.T, ix tknn.Index, queries []tknn.Query) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [20]byte
	for qi, q := range queries {
		res, err := ix.Search(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(res)))
		h.Write(buf[:4])
		for _, r := range res {
			binary.LittleEndian.PutUint64(buf[0:], uint64(r.ID))
			binary.LittleEndian.PutUint64(buf[8:], uint64(r.Time))
			binary.LittleEndian.PutUint32(buf[16:], math.Float32bits(r.Dist))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestAnswerDigest: MBI (flat, SQ8 from height 1, after SpillCold, after
// Save/Load), SF and BSBF answer a seeded query set with exactly the
// digests recorded in answerDigests, at one and at four procs.
func TestAnswerDigest(t *testing.T) {
	const dim, n = 16, 2400
	vs := randClustered(41, n, dim)

	mbiOpts := tknn.MBIOptions{Dim: dim, LeafSize: 64, GraphDegree: 12}
	newMBI := func(o tknn.MBIOptions) *tknn.MBI {
		ix, err := tknn.NewMBI(o)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	flat := newMBI(mbiOpts)
	sq8Opts := mbiOpts
	sq8Opts.Compression, sq8Opts.CompressMinHeight = tknn.CompressionSQ8, 1
	sq8 := newMBI(sq8Opts)
	coldOpts := mbiOpts
	coldOpts.SpillDir, coldOpts.CacheBytes = t.TempDir(), 1<<15
	cold := newMBI(coldOpts)
	sfIx, err := tknn.NewSF(tknn.SFOptions{Dim: dim, GraphDegree: 12})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tknn.NewBSBF(dim, tknn.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	const built = n - 100 // SF keeps an unbuilt, brute-scanned tail
	for i, v := range vs {
		for _, ix := range []tknn.Index{flat, sq8, cold, sfIx, bs} {
			if err := ix.Add(v, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if i == built-1 {
			sfIx.Build()
		}
	}
	if blocks, _, err := cold.SpillCold(); err != nil || blocks == 0 {
		t.Fatalf("SpillCold = %d blocks, %v", blocks, err)
	}
	var snap bytes.Buffer
	if err := flat.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := tknn.LoadMBI(&snap, mbiOpts)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	queries := make([]tknn.Query, 120)
	for i := range queries {
		q := make([]float32, dim)
		base := vs[rng.Intn(n)]
		for j := range q {
			q[j] = base[j] + float32(rng.NormFloat64()*0.3)
		}
		start := rng.Int63n(n)
		end := start + 1 + rng.Int63n(n-start)
		queries[i] = tknn.Query{Vector: q, K: []int{1, 10, 25}[i%3], Start: start, End: end}
	}

	indexes := []struct {
		name string
		ix   tknn.Index
	}{
		{"mbi-flat", flat}, {"mbi-sq8", sq8}, {"mbi-cold", cold},
		{"mbi-loaded", loaded}, {"sf", sfIx}, {"bsbf", bs},
	}
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		for _, c := range indexes {
			if got := digestAnswers(t, c.ix, queries); got != answerDigests[c.name] {
				t.Errorf("%s at GOMAXPROCS %d: digest %#016x, want %#016x", c.name, procs, got, answerDigests[c.name])
			}
		}
	}
}
