// Command tknnd serves one MBI index over HTTP.
//
//	tknnd -addr :8080 -dim 128 -metric angular -leaf 4096 -data-dir /var/lib/tknn
//
// Endpoints (JSON):
//
//	POST /vectors           insert one timestamped vector or a batch
//	POST /search            time-restricted kNN search
//	GET  /stats             index shape
//	GET  /healthz           liveness
//	GET  /readyz            readiness: 503 during startup recovery and drain
//	POST /admin/checkpoint  snapshot now and prune the WAL (durable mode)
//
// Durability. With -data-dir the daemon runs a write-ahead log: every
// acknowledged insert is logged (fsync per -fsync) before it is applied,
// background checkpoints bound replay time (-checkpoint-every), and a
// crashed process recovers its exact acknowledged state on restart.
//
// Tiered storage. Adding -spill moves cold sealed blocks into per-block
// segment files under <data-dir>/segments at every checkpoint; queries
// page them back through a bounded LRU block cache (-cache-bytes).
// Recovery composes the newest snapshot, the segment files it
// references, and the WAL suffix.
//
// Without -data-dir the index lives in memory and keeps nothing: the
// daemon refuses to start if a storage flag is set that only -data-dir
// (or, for -cache-bytes, -spill) would honor.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	tknn "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// holdingHandler answers probes while the daemon recovers its WAL:
// liveness is green (the process is up and making progress), readiness —
// and every API route — is 503 with a Retry-After so well-behaved
// clients back off instead of erroring.
func holdingHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "starting: recovery in progress", http.StatusServiceUnavailable)
	}
}

// options is tknnd's command line.
type options struct {
	addr, metric, dataDir, fsync                              string
	dim, leaf, degree, maxInflight, maxQueue, checkpointEvery int
	tau, eps                                                  float64
	searchTimeout, shutdownTimeout, fsyncInterval             time.Duration
	segmentBytes, cacheBytes                                  int64
	spill                                                     bool
}

// parseFlags parses args (the command line without the program name); a
// malformed flag exits with usage, a storage flag the daemon would ignore
// is an error.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.dim, "dim", 128, "vector dimension")
	fs.StringVar(&o.metric, "metric", "euclidean", "distance metric: euclidean or angular")
	fs.IntVar(&o.leaf, "leaf", 4096, "MBI leaf size S_L")
	fs.Float64Var(&o.tau, "tau", 0.5, "block-selection threshold")
	fs.IntVar(&o.degree, "degree", 24, "per-block graph degree")
	fs.Float64Var(&o.eps, "eps", 1.2, "search range-extension factor")
	fs.DurationVar(&o.searchTimeout, "search-timeout", 0, "per-request search deadline; expired queries return partial results (0 = none)")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "admission control: concurrent /search (and, separately, /vectors) requests before queuing and 429s (0 = unlimited)")
	fs.IntVar(&o.maxQueue, "max-queue", 0, "admission control: queued requests beyond -max-inflight before shedding (0 = same as -max-inflight)")
	fs.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 10*time.Second, "bound on draining in-flight requests at shutdown; /readyz flips to 503 before the drain starts")
	fs.StringVar(&o.dataDir, "data-dir", "", "directory for the write-ahead log and checkpoints (durable mode)")
	fs.StringVar(&o.fsync, "fsync", "interval", "WAL fsync policy: always, interval, or never")
	fs.DurationVar(&o.fsyncInterval, "fsync-interval", 100*time.Millisecond, "background fsync period for -fsync=interval")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 100000, "checkpoint after this many appended records (0 = manual only)")
	fs.Int64Var(&o.segmentBytes, "segment-bytes", 64<<20, "WAL segment rotation threshold")
	fs.BoolVar(&o.spill, "spill", false, "tiered storage: spill cold sealed blocks to segment files under <data-dir>/segments at every checkpoint (requires -data-dir)")
	fs.Int64Var(&o.cacheBytes, "cache-bytes", 256<<20, "block cache byte bound for -spill; spilled blocks page through this cache")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return o, storageFlagError(o, set)
}

// storageFlagError refuses a storage flag the daemon would silently
// ignore, so no operator mistakes an in-memory index for a durable one:
// the WAL flags and -spill configure <data-dir>, and -cache-bytes sizes
// the cache that only spilled blocks page through. set holds the names of
// the flags given on the command line.
func storageFlagError(o options, set map[string]bool) error {
	if o.dataDir == "" {
		for _, name := range []string{"fsync", "fsync-interval", "checkpoint-every", "segment-bytes", "spill"} {
			if set[name] {
				return fmt.Errorf("-%s needs -data-dir: without it the index lives in memory and keeps nothing", name)
			}
		}
	}
	if set["cache-bytes"] && !o.spill {
		return errors.New("-cache-bytes needs -spill: only spilled blocks page through the block cache")
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	var metric tknn.Metric
	switch o.metric {
	case "euclidean", "l2":
		metric = tknn.Euclidean
	case "angular", "cosine":
		metric = tknn.Angular
	default:
		log.Fatalf("unknown metric %q", o.metric)
	}

	opts := tknn.MBIOptions{
		Dim:         o.dim,
		Metric:      metric,
		LeafSize:    o.leaf,
		Tau:         o.tau,
		GraphDegree: o.degree,
		Epsilon:     o.eps,
	}
	if o.spill {
		opts.SpillDir = filepath.Join(o.dataDir, "segments")
		opts.CacheBytes = o.cacheBytes
	}

	// Bind the listener before recovery so load balancers can probe the
	// daemon while it replays its WAL: /healthz answers 200 (the process
	// is alive), everything else — /readyz included — answers 503 until
	// the real handler is swapped in below.
	// The box keeps the stored concrete type constant across the swap —
	// atomic.Value rejects storing a different dynamic type.
	type handlerBox struct{ h http.Handler }
	var active atomic.Value
	active.Store(handlerBox{holdingHandler()})
	srv := &http.Server{
		Addr: o.addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			active.Load().(handlerBox).h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	log.Printf("tknnd listening on %s (dim %d, %s, S_L %d); not ready until recovery completes", o.addr, o.dim, metric, o.leaf)

	var ix *tknn.MBI
	var manager *wal.Manager
	if o.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(o.fsync)
		if err != nil {
			log.Fatal(err)
		}
		manager, err = wal.Open(wal.Config{
			Dir:             o.dataDir,
			Sync:            policy,
			SyncInterval:    o.fsyncInterval,
			SegmentBytes:    o.segmentBytes,
			CheckpointEvery: o.checkpointEvery,
			Logf:            log.Printf,
		}, func(snapshot io.Reader) (wal.Target, error) {
			if snapshot == nil {
				return tknn.NewMBI(opts)
			}
			return tknn.LoadMBI(snapshot, opts)
		})
		if err != nil {
			log.Fatalf("opening data dir %s: %v", o.dataDir, err)
		}
		ix = manager.Index().(*tknn.MBI)
		log.Printf("durable mode: %d vectors recovered from %s (fsync=%s)", ix.Len(), o.dataDir, policy)
	} else if ix, err = tknn.NewMBI(opts); err != nil {
		log.Fatalf("creating index: %v", err)
	}

	var handler *server.Server
	if manager != nil {
		handler = server.NewDurable(ix, manager)
	} else {
		handler = server.New(ix)
	}
	handler.SetSearchTimeout(o.searchTimeout)
	if o.maxInflight > 0 {
		handler.SetLimits(server.Limits{MaxInflight: o.maxInflight, MaxQueue: o.maxQueue})
		log.Printf("admission control: %d in-flight slots per class", o.maxInflight)
	}
	// Recovery is done: swap the real handler in. /readyz flips to 200
	// here and back to 503 the moment a drain begins.
	active.Store(handlerBox{handler})
	log.Printf("ready: serving %d vectors", ix.Len())

	// Shut down from the main goroutine: Shutdown blocks until in-flight
	// requests drain (bounded by -shutdown-timeout), so no insert can
	// race the final checkpoint below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Flip readiness first so load balancers stop routing new work,
		// then drain what is already in flight.
		handler.SetReady(false)
		log.Printf("received %s; draining connections (bound %v)", s, o.shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), o.shutdownTimeout)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("shutdown: %v", err)
		}
		if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			log.Printf("serve: %v", serveErr)
		}
	case err := <-errCh:
		// The listener failed outright (bad addr, port in use).
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}

	// Writes are drained; checkpoint and seal. An in-memory index keeps
	// nothing.
	if manager != nil {
		start := time.Now()
		info, err := manager.Checkpoint()
		if err != nil {
			log.Printf("final checkpoint: %v (the WAL still holds every acknowledged insert)", err)
		} else {
			log.Printf("final checkpoint %s: %d vectors, %d bytes in %v", info.Path, ix.Len(), info.Bytes, time.Since(start).Round(time.Millisecond))
		}
		if err := manager.Close(); err != nil {
			log.Fatalf("sealing WAL: %v", err)
		}
	}
}
