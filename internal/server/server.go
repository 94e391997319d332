// Package server implements qagviewd: an HTTP/JSON service hosting
// concurrent interactive-exploration sessions over the qagview engine — the
// serving face of the paper's system (Section 7.1's client/server split).
//
// A session is a (query, L) Summarizer plus a (k, D) precompute Store. The
// store builds lazily in one background goroutine per session; solution and
// diff reads fall back to live summarization until it is ready, so no read
// path ever blocks on a build. Sessions live in a byte-accounted LRU;
// evicting one cancels its in-flight sweep through the context threaded
// into Precompute. Identical concurrent session requests are deduplicated
// with a singleflight group, and finished stores are snapshotted with
// Store.Encode so a warm restart decodes instead of re-sweeping.
//
// With a WAL directory configured the live tables are durable: every table
// create and row append is written to a write-ahead log and fsynced before
// the request is acknowledged, and Recover rebuilds the exact acknowledged
// state — snapshots plus log replay — after a crash. See durable.go.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qagview"
	"qagview/internal/obs"
)

// Config sizes the server.
type Config struct {
	// MaxSessions caps the number of live sessions (LRU-evicted beyond it).
	// 0 means the default of 64.
	MaxSessions int
	// MaxCacheBytes caps the summed approximate bytes of live sessions
	// (summarizer + store). 0 means the default of 256 MiB; negative means
	// unlimited.
	MaxCacheBytes int64
	// ExecParallelism bounds the morsel worker pool of query execution
	// (session builds, refreshes, and /v1/queries). 0 means GOMAXPROCS;
	// results are bit-identical at any setting.
	ExecParallelism int
	// WALDir, when non-empty, is the server's data directory: live tables
	// are durable (creates and appends are logged and fsynced before
	// acknowledgement, and Recover replays the log on startup), and finished
	// precompute stores persist so warm restarts skip the sweep. Created if
	// missing.
	WALDir string
	// WALCheckpointBytes triggers a checkpoint (snapshot tables, prune the
	// log) once the WAL exceeds this size. 0 means the default of 64 MiB;
	// negative disables automatic checkpoints (Drain still checkpoints).
	WALCheckpointBytes int64
	// MaxInflightBuilds bounds concurrently admitted session builds; excess
	// POST /v1/sessions requests get 429 + Retry-After. 0 means the default
	// of 2×GOMAXPROCS (min 4); negative means unlimited.
	MaxInflightBuilds int
	// RequestTimeout bounds each request's handler; queries observe the
	// deadline between morsels and the response is 503. 0 disables.
	RequestTimeout time.Duration
	// TraceEnabled turns on request tracing for every request. Off, traces
	// still start for ?trace=1 requests and — when SlowQuery is set — to
	// detect slow ones; everything else runs the nil-span zero-cost path.
	TraceEnabled bool
	// TraceRing caps the recent- and slow-trace rings at /debug/traces.
	// 0 means obs.DefaultRingSize.
	TraceRing int
	// SlowQuery, when positive, retains traces of requests at or above this
	// duration in the slow ring and logs them through the structured logger.
	SlowQuery time.Duration
	// Logger receives the server's structured logs (panics, checkpoint
	// failures, slow traces). nil means slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	switch {
	case c.MaxCacheBytes == 0:
		c.MaxCacheBytes = 256 << 20
	case c.MaxCacheBytes < 0:
		c.MaxCacheBytes = 0 // lruCache treats 0 as unlimited
	}
	switch {
	case c.WALCheckpointBytes == 0:
		c.WALCheckpointBytes = 64 << 20
	case c.WALCheckpointBytes < 0:
		c.WALCheckpointBytes = 0 // durability treats 0 as "never auto-checkpoint"
	}
	switch {
	case c.MaxInflightBuilds == 0:
		c.MaxInflightBuilds = 2 * runtime.GOMAXPROCS(0)
		if c.MaxInflightBuilds < 4 {
			c.MaxInflightBuilds = 4
		}
	case c.MaxInflightBuilds < 0:
		c.MaxInflightBuilds = 0 // 0 after defaults means unlimited
	}
	return c
}

// db wraps qagview.DB with the lock the HTTP surface needs — table loads
// write the catalog while queries read it — and a per-table data generation,
// bumped on every load or row append, that drives session staleness.
type db struct {
	mu   sync.RWMutex
	db   *qagview.DB
	gens map[string]uint64
	// execOpts are applied to every query run through this catalog (session
	// builds, session refreshes, and ad-hoc /v1/queries alike), so an
	// ExecParallelism setting covers all execution paths uniformly.
	execOpts []qagview.QueryOption
}

func newServerDB(execOpts ...qagview.QueryOption) *db {
	return &db{db: qagview.NewDB(), gens: make(map[string]uint64), execOpts: execOpts}
}

// register installs a relation and bumps its data generation. A non-nil
// stage hook runs under the catalog lock right after the generation is
// assigned — write-ahead-log staging, which must see generations in
// assignment order — and returns a wait that runs after the lock drops;
// registration only counts as durable once that wait returns nil. The
// returned generation is valid either way (the caller may already have
// applied the data in memory).
func (d *db) register(r *qagview.Relation, stage func(gen uint64) func() error) (uint64, error) {
	d.mu.Lock()
	if err := d.db.Register(r); err != nil {
		d.mu.Unlock()
		return 0, err
	}
	d.gens[r.Name()]++
	g := d.gens[r.Name()]
	var wait func() error
	if stage != nil {
		wait = stage(g)
	}
	d.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return g, fmt.Errorf("%w: %v", errDurability, err)
		}
	}
	return g, nil
}

// restore installs a relation at an explicit data generation — recovery
// replay, where the generation must match what the record was acknowledged
// with, not a fresh increment.
func (d *db) restore(r *qagview.Relation, gen uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.db.Register(r); err != nil {
		return err
	}
	if gen > d.gens[r.Name()] {
		d.gens[r.Name()] = gen
	}
	return nil
}

// update replaces the named table with fn's result and returns the new data
// generation. The expensive part — fn's copy-on-write rebuild, O(table) per
// append — runs outside the catalog lock against a snapshot, so queries are
// never blocked behind it; the swap then re-checks the generation and
// retries from the newer snapshot if a concurrent update won the race
// (appends compose, so re-applying fn is correct, and each retry means
// someone else made progress). A nil next from fn is a no-op: the table and
// its generation stay untouched (an empty append must not mark every
// session over the table stale). A non-nil stage hook behaves as in
// register: staged under the lock in generation order, awaited outside it.
func (d *db) update(name string, fn func(*qagview.Relation) (*qagview.Relation, error), stage func(gen uint64) func() error) (uint64, error) {
	for {
		d.mu.RLock()
		rel, err := d.db.Table(name)
		gen := d.gens[name]
		d.mu.RUnlock()
		if err != nil {
			return 0, err
		}
		next, err := fn(rel)
		if err != nil {
			return 0, err
		}
		if next == nil {
			return gen, nil
		}
		d.mu.Lock()
		if d.gens[name] != gen {
			d.mu.Unlock()
			continue // lost the race: rebuild from the newer snapshot
		}
		if err := d.db.Register(next); err != nil {
			d.mu.Unlock()
			return 0, err
		}
		d.gens[name]++
		g := d.gens[name]
		var wait func() error
		if stage != nil {
			wait = stage(g)
		}
		d.mu.Unlock()
		if wait != nil {
			if err := wait(); err != nil {
				return g, fmt.Errorf("%w: %v", errDurability, err)
			}
		}
		return g, nil
	}
}

// table returns the named relation under the read lock.
func (d *db) table(name string) (*qagview.Relation, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.db.Table(name)
}

// tableWithGen returns a relation together with its data generation, read
// atomically so a checkpoint never pairs a table with a stale generation.
func (d *db) tableWithGen(name string) (*qagview.Relation, uint64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rel, err := d.db.Table(name)
	if err != nil {
		return nil, 0, err
	}
	return rel, d.gens[name], nil
}

// execOptions returns the catalog's query options, extended with ctx when
// one is supplied. The base slice is never appended to in place — handlers
// run concurrently and share it.
func (d *db) execOptions(ctx context.Context) []qagview.QueryOption {
	if ctx == nil {
		return d.execOpts
	}
	opts := make([]qagview.QueryOption, 0, len(d.execOpts)+1)
	opts = append(opts, d.execOpts...)
	return append(opts, qagview.ExecContext(ctx))
}

func (d *db) query(ctx context.Context, sql string, extra ...qagview.QueryOption) (*qagview.Result, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	opts := d.execOptions(ctx)
	if len(extra) > 0 {
		// Full-slice append: execOptions may return the shared base slice.
		opts = append(opts[:len(opts):len(opts)], extra...)
	}
	return d.db.Query(sql, opts...)
}

// queryVersioned runs sql and reports the summed generation of every FROM
// table as of (at latest) the start of the query, under one read lock so no
// append can slip between the generation read and the scan.
func (d *db) queryVersioned(ctx context.Context, sql string) (*qagview.Result, uint64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	res, err := d.db.Query(sql, d.execOptions(ctx)...)
	if err != nil {
		return nil, 0, err
	}
	return res, d.genSumLocked(res.Tables), nil
}

// generation returns the table's current data generation (0 for unknown
// tables).
func (d *db) generation(table string) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gens[table]
}

// generationSum sums the data generations of the given tables. Each
// per-table generation only ever increments, so the sum is a monotonic
// staleness clock for a session reading all of them: any append to any
// joined table moves it forward.
func (d *db) generationSum(tables []string) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.genSumLocked(tables)
}

func (d *db) genSumLocked(tables []string) uint64 {
	var sum uint64
	for _, t := range tables {
		sum += d.gens[t]
	}
	return sum
}

func (d *db) tables() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.db.Tables()
}

// Server is the qagviewd HTTP service.
type Server struct {
	cfg      Config
	db       *db
	sessions *sessionManager
	metrics  *obs.Registry // declared in declareMetrics (metrics.go)
	tracer   *obs.Tracer
	logger   *slog.Logger
	mux      *http.ServeMux
	dur      *durability // nil when Config.WALDir is empty
	// buildSlots is the session-build admission semaphore (nil = unlimited).
	buildSlots chan struct{}
	draining   atomic.Bool
	start      time.Time
	// Middleware counters (middleware.go).
	panics, admissionRejects obs.Counter
}

// New returns a server with an empty catalog. With Config.WALDir set, call
// Recover after preloading samples and before serving.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var execOpts []qagview.QueryOption
	if cfg.ExecParallelism > 0 {
		execOpts = append(execOpts, qagview.ExecParallelism(cfg.ExecParallelism))
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		cfg:      cfg,
		db:       newServerDB(execOpts...),
		sessions: newSessionManager(cfg.MaxSessions, cfg.MaxCacheBytes),
		metrics:  new(obs.Registry),
		tracer:   obs.NewTracer(cfg.TraceRing, logger),
		logger:   logger,
		start:    time.Now(),
	}
	s.tracer.SetEnabled(cfg.TraceEnabled)
	s.tracer.SetSlowThreshold(cfg.SlowQuery)
	// Background store builds start their own traces (no request to attach
	// to); the manager needs the tracer for that.
	s.sessions.tracer = s.tracer
	s.sessions.logger = logger
	if cfg.WALDir != "" {
		s.dur = newDurability(cfg.WALDir, cfg.WALCheckpointBytes)
		s.sessions.dur = s.dur
	}
	if cfg.MaxInflightBuilds > 0 {
		s.buildSlots = make(chan struct{}, cfg.MaxInflightBuilds)
	}
	s.declareMetrics()
	s.mux = http.NewServeMux()
	// Middleware order, outermost first: instrument (counts every response,
	// including 429/500/503 from inner layers) → panic recovery → deadline.
	// Write endpoints additionally refuse while draining; session creation
	// passes admission control.
	route := func(pattern, label string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(label, s.recoverPanics(s.withDeadline(h))))
	}
	route("POST /v1/tables", "POST /v1/tables", s.gateWrites(s.handleCreateTable))
	route("GET /v1/tables", "GET /v1/tables", s.handleListTables)
	route("POST /v1/tables/{id}/rows", "POST /v1/tables/{id}/rows", s.gateWrites(s.handleAppendRows))
	route("POST /v1/queries", "POST /v1/queries", s.handleQuery)
	route("POST /v1/sessions", "POST /v1/sessions", s.gateWrites(s.admitBuild(s.handleCreateSession)))
	route("GET /v1/sessions/{id}", "GET /v1/sessions/{id}", s.handleSessionInfo)
	route("DELETE /v1/sessions/{id}", "DELETE /v1/sessions/{id}", s.handleDeleteSession)
	route("GET /v1/sessions/{id}/solution", "GET /v1/sessions/{id}/solution", s.handleSolution)
	route("GET /v1/sessions/{id}/guidance", "GET /v1/sessions/{id}/guidance", s.handleGuidance)
	route("GET /v1/sessions/{id}/diff", "GET /v1/sessions/{id}/diff", s.handleDiff)
	// Ops endpoints skip the metrics middleware (scrapes should not dominate
	// the request counters) but still get a request id on every response.
	s.mux.HandleFunc("GET /healthz", s.stampRequestID(s.recoverPanics(s.handleHealthz)))
	s.mux.HandleFunc("GET /metrics", s.stampRequestID(s.recoverPanics(s.handleMetrics)))
	s.mux.HandleFunc("GET /debug/traces", s.stampRequestID(s.recoverPanics(s.handleTraces)))
	s.mux.HandleFunc("GET /debug/traces/{id}", s.stampRequestID(s.recoverPanics(s.handleTrace)))
	return s
}

// stampRequestID wraps ops endpoints outside the instrument middleware so
// every response still carries X-Request-Id (and error bodies a request_id).
func (s *Server) stampRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(newStatusWriter(w), r) }
}

// Handler returns the HTTP surface, ready to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Register preloads a relation into the catalog (sample datasets; tests).
// Preloads are not write-ahead logged: samples are regenerated
// deterministically at boot, and WAL appends replay on top of them.
func (s *Server) Register(r *qagview.Relation) error {
	_, err := s.db.register(r, nil)
	return err
}

// Close cancels all background session work and waits for it to stop.
// In-flight requests finish. For a durable server prefer Drain, which also
// flushes and checkpoints the WAL.
func (s *Server) Close() { s.sessions.close() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	walStatus := "disabled"
	if s.dur != nil {
		walStatus = "ok"
		if s.dur.broken() {
			walStatus = "broken"
		}
	}
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"wal":            walStatus,
	})
}

// handleMetrics renders the metrics registry: JSON by default, the
// Prometheus text exposition format (version 0.0.4) for
// ?format=prometheus, the branch scrape configs point at.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") != "prometheus" {
		writeJSON(w, http.StatusOK, s.metrics.JSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(s.metrics.Prometheus()))
}

// handleTraces serves the retained-trace index: ring stats plus summaries,
// newest first (slow traces that outlived the recent ring included).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ring":   s.tracer.Stats(),
		"traces": s.tracer.Recent(),
	})
}

// handleTrace serves one retained trace's full span tree by id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.tracer.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "trace %q not retained (expired from the ring, or never existed)", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// DebugHandler returns the debug surface — pprof plus the trace ring — for
// a separate listener (qagviewd -debug-addr), so profiling endpoints are
// never exposed on the service port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.stampRequestID(s.recoverPanics(s.handleTraces)))
	mux.HandleFunc("GET /debug/traces/{id}", s.stampRequestID(s.recoverPanics(s.handleTrace)))
	return mux
}

// String renders the bind hint for logs.
func (s *Server) String() string {
	return fmt.Sprintf("qagviewd{sessions<=%d, bytes<=%d}", s.cfg.MaxSessions, s.cfg.MaxCacheBytes)
}
