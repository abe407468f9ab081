package wal

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestCloseReleasesFDs: a Manager that rotated segments, checkpointed and
// pruned, then one that recovered from that directory (snapshot load and
// segment replay), each hold no file descriptor once closed.
func TestCloseReleasesFDs(t *testing.T) {
	dir := t.TempDir()
	before := leakcheck.OpenFDs(t)
	cfg := Config{Sync: SyncInterval, SegmentBytes: 256}

	m, _ := openTestManager(t, dir, cfg)
	appendN(t, m, 0, 40)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendN(t, m, 40, 60)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if after := leakcheck.OpenFDs(t); after != before {
		t.Fatalf("%d file descriptors open after Close, %d before Open", after, before)
	}

	m, tgt := openTestManager(t, dir, cfg)
	assertRecords(t, tgt, 60)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if after := leakcheck.OpenFDs(t); after != before {
		t.Fatalf("%d file descriptors open after a recovered Manager's Close, %d before", after, before)
	}
}
