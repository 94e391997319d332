package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// withSpan returns a context carrying sp as the current span.
func withSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// Trace is one completed (or in-flight) request-scoped span tree.
type Trace struct {
	ID    string
	Name  string
	Start time.Time
	Root  *Span

	dur time.Duration // set by Tracer.Finish
}

// Snapshot renders the trace as a JSON-ready tree.
func (tr *Trace) Snapshot() TraceSnapshot {
	if tr == nil {
		return TraceSnapshot{}
	}
	root := tr.Root.Snapshot(tr.Start)
	dur := tr.dur
	if dur == 0 {
		dur = time.Since(tr.Start)
	}
	return TraceSnapshot{
		ID:         tr.ID,
		Name:       tr.Name,
		Start:      tr.Start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(dur) / float64(time.Millisecond),
		Spans:      root.spanCount(),
		Root:       root,
	}
}

// TraceSnapshot is the wire form of a trace served at /debug/traces/{id}
// and inlined by ?trace=1.
type TraceSnapshot struct {
	ID         string       `json:"id"`
	Name       string       `json:"name"`
	Start      string       `json:"start"`
	DurationMS float64      `json:"duration_ms"`
	Spans      int          `json:"spans"`
	Root       SpanSnapshot `json:"root"`
}

// TraceSummary is the index form served at /debug/traces.
type TraceSummary struct {
	ID         string  `json:"id"`
	Name       string  `json:"name"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Slow       bool    `json:"slow,omitempty"`
}

// Tracer owns the enabled gate and two fixed-size rings: recent completed
// traces (overwritten in arrival order) and slow traces (retained past ring
// churn, and logged through slog).
type Tracer struct {
	enabled   atomic.Bool
	slowNanos atomic.Int64
	logger    *slog.Logger

	// Finished and FinishedSlow count finished traces, all and those at or
	// past the slow threshold.
	Finished, FinishedSlow Counter

	mu           sync.Mutex
	recent, slow traceRing
	ringSize     int
}

// traceRing keeps the last ringSize traces, overwriting the oldest.
type traceRing struct {
	buf  []*Trace
	next int // slot of the next push (the oldest entry once full)
}

func (r *traceRing) push(tr *Trace, size int) {
	if len(r.buf) < size {
		r.buf = append(r.buf, tr)
	} else {
		r.buf[r.next] = tr
	}
	r.next = (r.next + 1) % size
}

// newestFirst lists the ring's traces, newest first.
func (r *traceRing) newestFirst() []*Trace {
	n := len(r.buf)
	out := make([]*Trace, n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+n)%n]
	}
	return out
}

// DefaultRingSize is the per-ring trace capacity when none is configured.
const DefaultRingSize = 256

// NewTracer returns a disabled tracer with the given ring capacity
// (DefaultRingSize if size <= 0). logger may be nil; slow-trace logging
// then uses slog.Default().
func NewTracer(size int, logger *slog.Logger) *Tracer {
	if size <= 0 {
		size = DefaultRingSize
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &Tracer{logger: logger, ringSize: size}
}

// SetEnabled flips the global tracing gate.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether tracing is globally on. One atomic load: this
// is the per-request fast path.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSlowThreshold sets the duration at or above which a finished trace
// is retained in the slow ring and logged. Zero disables slow capture.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNanos.Store(int64(d)) }

// SlowThreshold returns the armed slow-capture threshold (0 = disarmed).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slowNanos.Load())
}

// StartTrace begins a new trace with the given id (a request's
// X-Request-Id, or NewRequestID for background work) rooted at name, and
// returns a context carrying the root span. When tracing is disabled and
// force is false it returns (ctx, nil); Finish(nil) is a no-op, so callers
// need no branches. force starts the trace regardless of the gate (the
// ?trace=1 opt-in).
func (t *Tracer) StartTrace(ctx context.Context, id, name string, force bool) (context.Context, *Trace) {
	if t == nil || (!t.enabled.Load() && !force) {
		return ctx, nil
	}
	now := time.Now()
	tr := &Trace{
		ID:    id,
		Name:  name,
		Start: now,
		Root:  &Span{name: name, start: now},
	}
	return withSpan(ctx, tr.Root), tr
}

// Finish ends the trace's root span, records the trace in the recent
// ring, and — when it crossed the slow threshold — in the slow ring plus
// the structured log. Finish(nil) is a no-op.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.Root.End()
	tr.dur = time.Since(tr.Start)

	slowAt := time.Duration(t.slowNanos.Load())
	isSlow := slowAt > 0 && tr.dur >= slowAt

	t.mu.Lock()
	t.recent.push(tr, t.ringSize)
	if isSlow {
		t.slow.push(tr, t.ringSize)
	}
	t.mu.Unlock()
	t.Finished.Inc()

	if isSlow {
		t.FinishedSlow.Inc()
		t.logger.Warn("slow trace",
			"trace_id", tr.ID,
			"name", tr.Name,
			"duration_ms", float64(tr.dur)/float64(time.Millisecond),
			"threshold_ms", float64(slowAt)/float64(time.Millisecond))
	}
}

// Recent returns summaries of retained traces, newest first. Slow-ring
// traces that have already churned out of the recent ring are appended
// after the recent ones, also newest first.
func (t *Tracer) Recent() []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recent, slow := t.recent.newestFirst(), t.slow.newestFirst()
	t.mu.Unlock()

	churned := make(map[*Trace]bool, len(slow)) // slow, and not in recent
	for _, tr := range slow {
		churned[tr] = true
	}
	out := make([]TraceSummary, 0, len(recent)+len(slow))
	for _, tr := range recent {
		out = append(out, summarize(tr, churned[tr]))
		delete(churned, tr)
	}
	for _, tr := range slow {
		if churned[tr] {
			out = append(out, summarize(tr, true))
		}
	}
	return out
}

func summarize(tr *Trace, slow bool) TraceSummary {
	return TraceSummary{
		ID:         tr.ID,
		Name:       tr.Name,
		Start:      tr.Start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(tr.dur) / float64(time.Millisecond),
		Slow:       slow,
	}
}

// Get returns the full snapshot of a retained trace by ID.
func (t *Tracer) Get(id string) (TraceSnapshot, bool) {
	if t == nil {
		return TraceSnapshot{}, false
	}
	var found *Trace
	t.mu.Lock()
	for _, tr := range append(t.recent.buf[:len(t.recent.buf):len(t.recent.buf)], t.slow.buf...) {
		if tr.ID == id {
			found = tr
			break
		}
	}
	t.mu.Unlock()
	if found == nil {
		return TraceSnapshot{}, false
	}
	return found.Snapshot(), true
}

// RingStats describes ring occupancy for /debug/traces.
type RingStats struct {
	Enabled   bool   `json:"enabled"`
	Capacity  int    `json:"capacity"`
	Recent    int    `json:"recent"`
	Slow      int    `json:"slow"`
	Total     uint64 `json:"total"`
	SlowTotal uint64 `json:"slow_total"`
}

// Stats reports ring occupancy and lifetime totals.
func (t *Tracer) Stats() RingStats {
	if t == nil {
		return RingStats{}
	}
	t.mu.Lock()
	st := RingStats{
		Enabled:   t.enabled.Load(),
		Capacity:  t.ringSize,
		Recent:    len(t.recent.buf),
		Slow:      len(t.slow.buf),
		Total:     uint64(t.Finished.Load()),
		SlowTotal: uint64(t.FinishedSlow.Load()),
	}
	t.mu.Unlock()
	return st
}
