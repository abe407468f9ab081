package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	tknn "repro"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/wal"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ix, err := tknn.NewMBI(tknn.MBIOptions{Dim: 4, LeafSize: 8, GraphDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(ix))
	t.Cleanup(ts.Close)
	return ts
}

func TestRunCheckpoint(t *testing.T) {
	opts := tknn.MBIOptions{Dim: 4, LeafSize: 8, GraphDegree: 4}
	d, err := wal.Open(wal.Config{Dir: t.TempDir(), Sync: wal.SyncNever}, func(snapshot io.Reader) (wal.Target, error) {
		if snapshot == nil {
			return tknn.NewMBI(opts)
		}
		return tknn.LoadMBI(snapshot, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("closing manager: %v", err)
		}
	})
	ts := httptest.NewServer(server.NewDurable(d.Index().(*tknn.MBI), d))
	t.Cleanup(ts.Close)

	if err := run([]string{"-server", ts.URL, "add", "-time", "1", "-vector", "1,0,0,0"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-server", ts.URL, "checkpoint"}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Checkpoints != 1 {
		t.Fatalf("stats after ctl checkpoint: %+v", st)
	}

	// Against an in-memory server the command fails with the server's
	// explanation rather than succeeding vacuously.
	inMemory := testServer(t)
	if err := run([]string{"-server", inMemory.URL, "checkpoint"}); err == nil {
		t.Fatal("checkpoint against a non-durable server should fail")
	}
}

func TestParseVector(t *testing.T) {
	v, err := parseVector("1, 2.5,-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || v[0] != 1 || v[1] != 2.5 || v[2] != -3 {
		t.Errorf("parsed %v", v)
	}
	if _, err := parseVector(""); err == nil {
		t.Error("empty vector accepted")
	}
	if _, err := parseVector("1,x,3"); err == nil {
		t.Error("garbage coordinate accepted")
	}
}

func TestRunHealthStatsAddSearch(t *testing.T) {
	ts := testServer(t)
	base := []string{"-server", ts.URL}

	if err := run(append(base, "health")); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := run(append(base, "add", "-time", "1", "-vector", "1,0,0,0")); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := run(append(base, "add", "-time", "2", "-vector", "0,1,0,0")); err != nil {
		t.Fatalf("add 2: %v", err)
	}
	if err := run(append(base, "search", "-k", "1", "-start", "0", "-end", "10", "-vector", "1,0,0,0")); err != nil {
		t.Fatalf("search: %v", err)
	}
	if err := run(append(base, "stats")); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestRunLoadFVecs(t *testing.T) {
	ts := testServer(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "base.fvecs")
	store := vec.NewStore(4)
	for i := 0; i < 50; i++ {
		if _, err := store.Append([]float32{float32(i), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteFVecs(f, store); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = run([]string{"-server", ts.URL, "load", "-fvecs", path, "-batch", "16"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// The data is queryable afterwards.
	if err := run([]string{"-server", ts.URL, "search", "-k", "3", "-start", "0", "-end", "50", "-vector", "25,0,0,0"}); err != nil {
		t.Fatalf("post-load search: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	ts := testServer(t)
	cases := [][]string{
		{"-server", ts.URL},                         // missing command
		{"-server", ts.URL, "bogus"},                // unknown command
		{"-server", ts.URL, "add", "-time", "1"},    // missing vector
		{"-server", ts.URL, "load"},                 // missing fvecs
		{"-server", ts.URL, "search", "-k", "1"},    // missing vector
		{"-server", "http://127.0.0.1:1", "health"}, // unreachable
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
