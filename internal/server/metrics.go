package server

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"qagview/internal/obs"
)

// latencySampleCap bounds the per-route latency reservoir: quantiles are
// computed over the most recent samples in a fixed ring, so /metrics stays
// O(1) memory under sustained traffic.
const latencySampleCap = 2048

// metrics aggregates per-route request counters and latency samples. All
// methods are goroutine-safe.
type metrics struct {
	mu     sync.Mutex
	start  time.Time
	routes map[string]*routeMetrics
	// robustness counters (see middleware.go).
	panics           int64
	admissionRejects int64
}

type routeMetrics struct {
	count   int64
	byCode  map[int]int64
	samples []float64 // milliseconds, ring buffer
	next    int
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), routes: make(map[string]*routeMetrics)}
}

func (m *metrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm := m.routes[route]
	if rm == nil {
		rm = &routeMetrics{
			byCode:  make(map[int]int64),
			samples: make([]float64, 0, 64),
		}
		m.routes[route] = rm
	}
	rm.count++
	rm.byCode[code]++
	ms := float64(d) / float64(time.Millisecond)
	if len(rm.samples) < latencySampleCap {
		rm.samples = append(rm.samples, ms)
	} else {
		rm.samples[rm.next] = ms
	}
	rm.next = (rm.next + 1) % latencySampleCap
}

// RouteStats is one route's aggregate in the /metrics report.
type RouteStats struct {
	Count  int64            `json:"count"`
	ByCode map[string]int64 `json:"by_code"`
	P50Ms  float64          `json:"p50_ms"`
	P99Ms  float64          `json:"p99_ms"`
}

func (m *metrics) snapshot() (uptime time.Duration, routes map[string]RouteStats) {
	// Copy counters and latency rings under the lock, sort outside it: the
	// sort is O(n log n) over up to latencySampleCap samples per route, and
	// holding mu through it would stall every in-flight request's observe.
	type rawRoute struct {
		rs      RouteStats
		samples []float64
	}
	m.mu.Lock()
	raw := make(map[string]rawRoute, len(m.routes))
	for name, rm := range m.routes {
		rs := RouteStats{Count: rm.count, ByCode: make(map[string]int64, len(rm.byCode))}
		for code, n := range rm.byCode {
			rs.ByCode[strconv.Itoa(code)] = n
		}
		raw[name] = rawRoute{rs: rs, samples: append([]float64(nil), rm.samples...)}
	}
	uptime = time.Since(m.start)
	m.mu.Unlock()
	routes = make(map[string]RouteStats, len(raw))
	for name, rr := range raw {
		sort.Float64s(rr.samples)
		rr.rs.P50Ms = quantile(rr.samples, 0.50)
		rr.rs.P99Ms = quantile(rr.samples, 0.99)
		routes[name] = rr.rs
	}
	return uptime, routes
}

func (m *metrics) countPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

func (m *metrics) countAdmissionReject() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admissionRejects++
}

// robustnessStats reports the middleware counters for /metrics.
type robustnessStats struct {
	PanicsRecovered  int64
	AdmissionRejects int64
}

func (m *metrics) robustness() robustnessStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return robustnessStats{PanicsRecovered: m.panics, AdmissionRejects: m.admissionRejects}
}

// quantile reads q from an ascending sample list (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
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

// instrument wraps a handler with request counting, latency sampling, a
// response request id, and — when tracing is enabled, ?trace=1 is set, or a
// slow-query threshold is armed — a request-scoped trace rooted at the route
// label. The trace context flows through r.Context() into the engine,
// lattice, precompute, and WAL layers; Finish records it in the tracer's ring
// (and the slow ring + log past the threshold).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := obs.NewRequestID()
		w.Header().Set("X-Request-Id", rid)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, rid: rid}
		// ?trace=1 forces a trace for this request even with the global gate
		// off; an armed slow-query threshold forces one too, since slowness
		// is only known at Finish time.
		force := r.URL.Query().Get("trace") == "1" || s.tracer.SlowThreshold() > 0
		ctx, trace := s.tracer.StartTrace(r.Context(), route, force)
		if trace != nil {
			trace.Root.SetAttr("request_id", rid)
			sw.trace = trace
			r = r.WithContext(ctx)
		}
		t0 := time.Now()
		h(sw, r)
		if trace != nil {
			trace.Root.SetInt("status", int64(sw.code))
		}
		s.tracer.Finish(trace)
		s.metrics.observe(route, sw.code, time.Since(t0))
	}
}
