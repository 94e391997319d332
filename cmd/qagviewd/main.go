// Command qagviewd serves interactive exploration sessions over HTTP/JSON:
// load tables, run aggregate queries, open (query, L) sessions, and read
// (k, D) solutions, guidance series, and solution diffs — the serving face
// of the paper's interactive mode (Section 6), sized for many concurrent
// users by the session LRU and background precompute.
//
// Tables are live: POST /v1/tables/{id}/rows appends rows and bumps the
// table's data generation, and stale sessions refresh lazily on their next
// read through the incremental-maintenance subsystem (internal/delta) —
// delta-maintained cluster index, warm-started sweeps, generation-stamped
// stores — instead of rebuilding. Every session response carries the
// data_version it reflects; DELETE /v1/sessions/{id} evicts explicitly.
//
// Usage examples:
//
//	qagviewd -addr :8080 -sample movielens
//	qagviewd -addr :8080 -sample tpcds -execpar 4 -max-sessions 128 -max-mb 512
//	qagviewd -addr :8080 -wal /var/lib/qagviewd -wal-checkpoint-mb 64
//
// -execpar bounds the morsel worker pool of the vectorized query executor
// used by session builds, refreshes, and /v1/queries (0 = GOMAXPROCS);
// results are bit-identical at every setting.
//
// -wal names the server's one data directory: WAL segments, tables/ (table
// snapshots) and stores/ (precompute-store snapshots). Table creates and row
// appends are written to the write-ahead log and fsynced before the request
// is acknowledged; on startup the log replays on top of the newest table
// snapshots, so a crash — even kill -9 — never loses an acknowledged write.
// Finished session stores are written there too, so a restarted server
// decodes them instead of re-sweeping. Without -wal nothing is written.
// SIGTERM drains gracefully: writes get 503 + Retry-After, in-flight
// requests finish, background builds are cancelled and awaited, and the WAL
// is flushed and checkpointed before exit. See README.md ("Durability and
// fault tolerance") and docs/FAULTS.md.
//
// See README.md ("Serving", "Live tables") for the endpoint table and curl
// walkthroughs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qagview/internal/movielens"
	"qagview/internal/relation"
	"qagview/internal/server"
	"qagview/internal/tpcds"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qagviewd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	sample := flag.String("sample", "", "preload a sample dataset: movielens or tpcds")
	sampleRatings := flag.Int("sample-ratings", 0, "override the sample's row count (0 = dataset default)")
	maxSessions := flag.Int("max-sessions", 64, "maximum live sessions (LRU beyond)")
	maxMB := flag.Int64("max-mb", 256, "session-cache byte budget in MiB (0 = unlimited)")
	execPar := flag.Int("execpar", 0, "morsel workers per query execution (0 = GOMAXPROCS); results are identical at any setting")
	walDir := flag.String("wal", "", "write-ahead-log directory: makes live tables durable across crashes (empty = disabled)")
	walCheckpointMB := flag.Int64("wal-checkpoint-mb", 64, "checkpoint (snapshot tables, prune the log) when the WAL exceeds this size; 0 disables automatic checkpoints")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline; expired queries return 503 (0 = none)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: full request read, headers and body (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout: full response write (0 = none)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout for keep-alive connections (0 = none)")
	maxInflightBuilds := flag.Int("max-inflight-builds", 0, "concurrently admitted session builds before 429 (0 = 2xGOMAXPROCS, negative = unlimited)")
	traceOn := flag.Bool("trace", false, "trace every request into the /debug/traces ring (off: only ?trace=1 and slow-query capture trace)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "retain and log traces of requests at or above this duration in milliseconds (0 = disabled)")
	traceRing := flag.Int("trace-ring", 0, "retained traces per ring at /debug/traces (0 = default 256)")
	debugAddr := flag.String("debug-addr", "", "separate listener for pprof and /debug/traces (empty = disabled); never expose publicly")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	cfg := server.Config{
		MaxSessions:       *maxSessions,
		ExecParallelism:   *execPar,
		WALDir:            *walDir,
		RequestTimeout:    *requestTimeout,
		MaxInflightBuilds: *maxInflightBuilds,
		TraceEnabled:      *traceOn,
		TraceRing:         *traceRing,
		SlowQuery:         time.Duration(*slowQueryMS) * time.Millisecond,
		Logger:            logger,
	}
	if *maxMB == 0 {
		cfg.MaxCacheBytes = -1
	} else {
		cfg.MaxCacheBytes = *maxMB << 20
	}
	if *walCheckpointMB == 0 {
		cfg.WALCheckpointBytes = -1
	} else {
		cfg.WALCheckpointBytes = *walCheckpointMB << 20
	}
	srv := server.New(cfg)
	defer srv.Close()

	if *sample != "" {
		mlCfg := movielens.DefaultConfig()
		if *sampleRatings > 0 {
			mlCfg.Ratings = *sampleRatings
		}
		rels, err := sampleTables(*sample, mlCfg, tpcds.DefaultConfig())
		if err != nil {
			return err
		}
		for _, rel := range rels {
			if err := srv.Register(rel); err != nil {
				return err
			}
			logger.Info("loaded sample table", "table", rel.Name(), "rows", rel.NumRows())
		}
	}

	// Recovery runs after sample preloads (samples are regenerated
	// deterministically each boot and are not logged; WAL records replay on
	// top) and before the listener opens, so nothing is served or
	// acknowledged against un-recovered state.
	if *walDir != "" {
		stats, err := srv.Recover()
		if err != nil {
			return fmt.Errorf("recovering %s: %w", *walDir, err)
		}
		logger.Info("recovered WAL",
			"dir", *walDir,
			"snapshots", stats.SnapshotsLoaded,
			"records_replayed", stats.RecordsReplayed,
			"records_skipped", stats.RecordsSkipped,
			"torn_bytes_truncated", stats.TruncatedBytes,
			"stale_temps_removed", stats.StaleTempsRemoved)
	}

	// The debug listener carries pprof and the trace ring on its own port:
	// profiling endpoints stay off the service address entirely.
	if *debugAddr != "" {
		ds := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener (pprof, /debug/traces)", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		defer ds.Close()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("qagviewd listening", "addr", *addr)
		errc <- hs.ListenAndServe()
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		// Graceful drain: refuse new writes immediately, let in-flight
		// requests finish, then stop background builds and make everything
		// acknowledged durable (WAL flush + checkpoint) before exiting.
		logger.Info("draining on signal", "signal", sig.String())
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if err := srv.Drain(); err != nil {
			return fmt.Errorf("draining: %w", err)
		}
		logger.Info("drained cleanly")
		return nil
	}
}

// sampleTables generates the -sample preload: the denormalized table for
// the paper's single-table queries (RatingTable, store_sales) plus the
// star's base tables, so multi-table SQL (FROM ratings JOIN users ...,
// FROM store_sales_fact JOIN item ...) works out of the box. Every table
// name is distinct, so registering them all loses none.
func sampleTables(sample string, mlCfg movielens.Config, tpCfg tpcds.Config) ([]*relation.Relation, error) {
	switch sample {
	case "movielens":
		star, err := movielens.GenerateStar(mlCfg)
		if err != nil {
			return nil, err
		}
		flat, err := movielens.Denormalize(star)
		if err != nil {
			return nil, err
		}
		return append(star.Tables(), flat), nil
	case "tpcds":
		flat, err := tpcds.Generate(tpCfg)
		if err != nil {
			return nil, err
		}
		star, err := tpcds.GenerateStar(tpCfg)
		if err != nil {
			return nil, err
		}
		return append(star.Tables(), flat), nil
	default:
		return nil, fmt.Errorf("unknown -sample %q (want movielens or tpcds)", sample)
	}
}
