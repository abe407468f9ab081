package tknn_test

import (
	"context"
	"errors"
	"testing"

	tknn "repro"
)

var _ tknn.Index = (*tknn.IVF)(nil)

func TestIVFOptionsDefaults(t *testing.T) {
	o := tknn.IVFOptions{Dim: 8}
	if err := o.ApplyDefaults(); err != nil {
		t.Fatal(err)
	}
	if o.Probes != 8 || o.Seed != 1 {
		t.Errorf("defaults %+v", o)
	}
	bad := []tknn.IVFOptions{
		{},
		{Dim: 4, Lists: -1},
		{Dim: 4, Probes: -2},
		{Dim: 4, RebuildEvery: -1},
		{Dim: 4, Metric: tknn.Metric(7)},
	}
	for i, o := range bad {
		if err := o.ApplyDefaults(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestIVFEndToEnd(t *testing.T) {
	ix, err := tknn.NewIVF(tknn.IVFOptions{Dim: 8, Lists: 12, Probes: 12})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(41, 400, 8)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
	if ix.Built() != 400 || ix.Lists() != 12 {
		t.Fatalf("built %d lists %d", ix.Built(), ix.Lists())
	}
	// All-probe searches are exact: the self-query must hit.
	res, err := ix.Search(tknn.Query{Vector: vs[123], K: 1, Start: 100, End: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 123 || res[0].Time != 123 || res[0].Dist != 0 {
		t.Errorf("self-query = %v", res)
	}
	// Window restriction holds for few probes too.
	res, _, err = ix.SearchDetailed(context.Background(), tknn.Query{Vector: vs[50], K: 5, Start: 40, End: 60}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Time < 40 || r.Time >= 60 {
			t.Errorf("result time %d outside window", r.Time)
		}
	}
	if _, _, err := ix.SearchDetailed(context.Background(), tknn.Query{Vector: vs[0], K: 1, Start: 0, End: 10}, 0); !errors.Is(err, tknn.ErrBadQuery) {
		t.Errorf("nprobe=0 error = %v", err)
	}
}

func TestIVFAutoRebuild(t *testing.T) {
	ix, err := tknn.NewIVF(tknn.IVFOptions{Dim: 8, Lists: 6, RebuildEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	vs := randClustered(43, 250, 8)
	for i, v := range vs {
		if err := ix.Add(v, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Built() < 200 {
		t.Errorf("Built = %d, want >= 200 after automatic rebuilds", ix.Built())
	}
}

func TestIVFErrorPaths(t *testing.T) {
	ix, err := tknn.NewIVF(tknn.IVFOptions{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add([]float32{1}, 0); !errors.Is(err, tknn.ErrDimension) {
		t.Errorf("wrong-dim error = %v", err)
	}
	if err := ix.Add([]float32{1, 2, 3, 4}, 10); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add([]float32{1, 2, 3, 4}, 5); !errors.Is(err, tknn.ErrTimestampOrder) {
		t.Errorf("order error = %v", err)
	}
	if err := ix.Build(); err != nil {
		t.Fatal(err)
	}
}
