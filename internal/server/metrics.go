package server

import (
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"qagview/internal/obs"
)

// declareMetrics is the server's one metrics list: every number GET
// /metrics reports, as JSON and as Prometheus text alike, is declared here
// once. Per-route request metrics follow in newRouteMetrics, declared as
// each route is wired.
func (s *Server) declareMetrics() {
	reg := s.metrics
	gauge := func(name, key, help string, f func() float64, labels ...string) {
		reg.Gauge(f, obs.Opts{Name: name, Help: help, Labels: labels, JSON: key})
	}
	counter := func(c *obs.Counter, name, key, help string, labels ...string) {
		reg.Counter(c, obs.Opts{Name: name, Help: help, Labels: labels, JSON: key})
	}
	gauge("qagviewd_uptime_seconds", "uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	m := s.sessions
	gauge("qagviewd_sessions_live", "sessions.live", "Live sessions in the LRU cache.",
		func() float64 { n, _ := m.occupancy(); return float64(n) })
	gauge("qagviewd_sessions_bytes", "sessions.bytes", "Approximate bytes held by live sessions.",
		func() float64 { _, b := m.occupancy(); return float64(b) })
	gauge("qagviewd_sessions_max_entries", "sessions.max_entries", "Session cap of the LRU cache.",
		func() float64 { return float64(s.cfg.MaxSessions) })
	gauge("qagviewd_sessions_max_bytes", "sessions.max_bytes", "Byte budget of the LRU cache (0 = unlimited).",
		func() float64 { return float64(s.cfg.MaxCacheBytes) })
	ev := &m.events
	for _, e := range []struct {
		name string
		c    *obs.Counter
	}{
		{"builds", &ev.builds}, {"build_errors", &ev.buildErrors},
		{"deduped", &ev.deduped}, {"evictions", &ev.evictions},
		{"deletes", &ev.deletes}, {"refreshes", &ev.refreshes},
		{"refresh_noops", &ev.refreshNoops}, {"refresh_errors", &ev.refreshErrors},
		{"snapshot_loads", &ev.snapshotLoads}, {"snapshot_saves", &ev.snapshotSaves},
		{"snapshot_save_errors", &ev.snapshotSaveErrors},
	} {
		counter(e.c, "qagviewd_session_events_total", "sessions.events."+e.name, "Session-manager lifecycle events.", "event", e.name)
	}

	counter(&s.panics, "qagviewd_panics_recovered_total", "panics_recovered", "Handler panics converted to 500s.")
	counter(&s.admissionRejects, "qagviewd_admission_rejects_total", "admission_rejects", "Session builds refused with 429.")
	gauge("qagviewd_inflight_builds", "inflight_builds", "Session builds currently admitted.",
		func() float64 { return float64(len(s.buildSlots)) })
	gauge("qagviewd_draining", "draining", "1 while the server refuses writes for drain.",
		func() float64 { return boolGauge(s.draining.Load()) })
	gauge("qagviewd_goroutines", "goroutines", "Goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	gauge("qagviewd_heap_alloc_bytes", "heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})

	tr := s.tracer
	gauge("qagviewd_tracing_enabled", "traces.enabled", "1 when the global tracing gate is on.",
		func() float64 { return boolGauge(tr.Enabled()) })
	gauge("qagviewd_trace_ring_occupancy", "traces.recent", "Retained traces, by ring.",
		func() float64 { return float64(tr.Stats().Recent) }, "ring", "recent")
	gauge("qagviewd_trace_ring_occupancy", "traces.slow", "Retained traces, by ring.",
		func() float64 { return float64(tr.Stats().Slow) }, "ring", "slow")
	counter(&tr.Finished, "qagviewd_traces_total", "traces.total", "Traces finished, by kind.", "kind", "all")
	counter(&tr.FinishedSlow, "qagviewd_traces_total", "traces.slow_total", "Traces finished, by kind.", "kind", "slow")

	d := s.dur
	if d == nil {
		return
	}
	counter(&d.wal.Appends, "qagviewd_wal_appends_total", "wal.appends", "Acknowledged WAL appends.")
	counter(&d.wal.Batches, "qagviewd_wal_batches_total", "wal.batches", "WAL group commits written.")
	counter(&d.wal.Fsyncs, "qagviewd_wal_fsyncs_total", "wal.fsyncs", "WAL fsyncs (one per group commit).")
	counter(&d.wal.Bytes, "qagviewd_wal_bytes_total", "wal.bytes", "Bytes appended to the WAL this process.")
	reg.Histogram(&d.wal.FsyncMs, obs.Opts{Name: "qagviewd_wal_fsync_ms", Help: "WAL fsync latency in milliseconds.", JSON: "wal.fsync_"})
	gauge("qagviewd_wal_size_bytes", "wal.size_bytes", "On-disk bytes across live WAL segments.", func() float64 {
		if l := d.openLog(); l != nil {
			return float64(l.SizeBytes())
		}
		return 0
	})
	gauge("qagviewd_wal_broken", "wal.broken", "1 after the WAL went fail-stop.",
		func() float64 { return boolGauge(d.broken()) })
	counter(&d.recoveries, "qagviewd_recoveries_total", "recovery.recoveries", "Completed Recover runs.")
	counter(&d.recordsReplayed, "qagviewd_recovery_records_replayed_total", "recovery.records_replayed", "WAL records replayed by Recover.")
	counter(&d.recordsSkipped, "qagviewd_recovery_records_skipped_total", "recovery.records_skipped", "WAL records Recover skipped as covered by a snapshot.")
	counter(&d.snapshotsLoaded, "qagviewd_recovery_snapshots_loaded_total", "recovery.snapshots_loaded", "Table snapshots Recover loaded.")
	counter(&d.truncatedBytes, "qagviewd_recovery_truncated_bytes_total", "recovery.truncated_bytes", "Torn-tail WAL bytes Recover cut.")
	counter(&d.checkpoints, "qagviewd_checkpoints_total", "recovery.checkpoints", "Completed WAL checkpoints.")
	counter(&d.checkpointErrors, "qagviewd_checkpoint_errors_total", "recovery.checkpoint_errors", "Background checkpoints that failed.")
	counter(&d.snapshotsWritten, "qagviewd_checkpoint_snapshots_written_total", "recovery.snapshots_written", "Table snapshots written by checkpoints.")
}

// routeMetrics are one route's request metrics: a latency histogram,
// declared when the route is wired, and a counter per status code, declared
// on the code's first response. Observing takes no lock and reads no map.
type routeMetrics struct {
	reg     *obs.Registry
	route   string
	latency obs.Histogram
	codes   [1000]atomic.Pointer[obs.Counter] // net/http allows codes 100-999
}

func (s *Server) newRouteMetrics(route string) *routeMetrics {
	rm := &routeMetrics{reg: s.metrics, route: route}
	s.metrics.Histogram(&rm.latency, obs.Opts{
		Name: "qagviewd_request_latency_ms", Help: "Request latency in milliseconds, by route.",
		Labels: []string{"route", route}, JSON: "requests." + route + ".",
	})
	return rm
}

func (rm *routeMetrics) observe(code int, d time.Duration) {
	rm.latency.Observe(d)
	c := rm.codes[code].Load()
	if c == nil {
		c = rm.declareCode(code)
	}
	c.Inc()
}

// declareCode declares the route's counter for a status code seen for the
// first time; a racing first response for the same code shares it.
func (rm *routeMetrics) declareCode(code int) *obs.Counter {
	c := new(obs.Counter)
	if !rm.codes[code].CompareAndSwap(nil, c) {
		return rm.codes[code].Load()
	}
	rm.reg.Counter(c, obs.Opts{
		Name: "qagviewd_requests_total", Help: "Requests served, by route and status code.",
		Labels: []string{"route", rm.route, "code", strconv.Itoa(code)},
		JSON:   "requests." + rm.route + ".by_code." + strconv.Itoa(code),
	})
	return c
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// statusWriter captures the response code for the metrics middleware, and
// whether anything was written — the panic middleware only synthesizes a
// 500 body when the handler had not started responding. It also carries the
// request id and the request's trace (when one is active) inward, so
// writeErr can stamp error bodies and handlers can inline ?trace=1 trees
// without re-deriving either.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	rid   string
	trace *obs.Trace
}

// newStatusWriter assigns the request its id, stamped on the response as
// X-Request-Id.
func newStatusWriter(w http.ResponseWriter) *statusWriter {
	rid := obs.NewRequestID()
	w.Header().Set("X-Request-Id", rid)
	return &statusWriter{ResponseWriter: w, code: http.StatusOK, rid: rid}
}

// requestID extracts the request id stamped by the instrument middleware;
// "" outside it (e.g. a handler under test without the middleware stack).
func requestID(w http.ResponseWriter) string {
	if sw, ok := w.(*statusWriter); ok {
		return sw.rid
	}
	return ""
}

// requestTrace extracts the in-flight trace started by instrument, or nil.
func requestTrace(w http.ResponseWriter) *obs.Trace {
	if sw, ok := w.(*statusWriter); ok {
		return sw.trace
	}
	return nil
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the route's request metrics, a response
// request id, and — when tracing is enabled, ?trace=1 is set, or a
// slow-query threshold is armed — a request-scoped trace named by the
// request id and rooted at the route label. The trace context flows through
// r.Context() into the engine, lattice, precompute, and WAL layers; Finish
// records it in the tracer's ring (and the slow ring + log past the
// threshold).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.newRouteMetrics(route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := newStatusWriter(w)
		// ?trace=1 forces a trace for this request even with the global gate
		// off; an armed slow-query threshold forces one too, since slowness
		// is only known at Finish time.
		force := r.URL.Query().Get("trace") == "1" || s.tracer.SlowThreshold() > 0
		ctx, trace := s.tracer.StartTrace(r.Context(), sw.rid, route, force)
		if trace != nil {
			sw.trace = trace
			r = r.WithContext(ctx)
		}
		t0 := time.Now()
		h(sw, r)
		if trace != nil {
			trace.Root.SetInt("status", int64(sw.code))
		}
		s.tracer.Finish(trace)
		rm.observe(sw.code, time.Since(t0))
	}
}
