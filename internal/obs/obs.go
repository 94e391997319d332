// Package obs is qagview's stdlib-only observability layer: request-scoped
// span trees carried through context.Context, a fixed-size ring of recent
// traces, and one metrics registry (counters, gauges, histograms) rendered
// as JSON and as Prometheus text.
//
// The design goal is near-zero cost when tracing is off: every entry point
// is nil-safe, StartSpan returns (ctx, nil) without allocating when the
// context carries no parent span, and callers hold plain *Span pointers so
// the disabled path is a nil check, not an interface dispatch.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is a single key/value annotation on a span. Attrs preserve insertion
// order so rendered traces are stable.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed node in a trace tree. The zero value is unusable;
// spans are created via Tracer.StartTrace and Span.Child / StartSpan.
// All methods are safe on a nil receiver, which is how the disabled
// path costs nothing: untraced requests thread nil spans everywhere.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// ctxKey carries the current *Span through context.Context. A zero-size
// key type keeps context.WithValue lookups allocation-free on miss.
type ctxKey struct{}

// StartSpan creates a child of the span carried by ctx and returns a
// derived context carrying the child. When ctx carries no span (tracing
// disabled, or an untraced request) it returns (ctx, nil) without
// allocating; the nil *Span absorbs all subsequent calls.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		// The engine accepts a nil execution context (ExecContext unset).
		return nil, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Child(name)
	return withSpan(ctx, sp), sp
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Child adds and returns a new child span. Safe for concurrent use: the
// vectorized executor creates per-worker spans from worker goroutines.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span complete. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr annotates the span with a string attribute.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, val int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(val, 10))
}

// SpanSnapshot is an immutable, JSON-ready copy of a span subtree.
// Times are microseconds: StartUS is the offset from the trace root's
// start, DurUS the span's duration (measured to "now" if still open).
type SpanSnapshot struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Open     bool           `json:"open,omitempty"`
	Attrs    []Attr         `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies the subtree rooted at s. base is the trace start used
// for relative offsets; pass s's own start to snapshot a detached span.
func (s *Span) Snapshot(base time.Time) SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	now := time.Now()
	return s.snapshot(base, now)
}

func (s *Span) snapshot(base, now time.Time) SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:    s.name,
		StartUS: s.start.Sub(base).Microseconds(),
	}
	if s.end.IsZero() {
		snap.Open = true
		snap.DurUS = now.Sub(s.start).Microseconds()
	} else {
		snap.DurUS = s.end.Sub(s.start).Microseconds()
	}
	if len(s.attrs) > 0 {
		snap.Attrs = append([]Attr(nil), s.attrs...)
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		snap.Children = append(snap.Children, c.snapshot(base, now))
	}
	return snap
}

// spanCount reports the number of spans in the snapshot tree.
func (s SpanSnapshot) spanCount() int {
	n := 1
	for _, c := range s.Children {
		n += c.spanCount()
	}
	return n
}

// Request IDs: a per-boot random prefix plus an atomic counter. Unique
// within a process lifetime and cheap enough for the per-request path.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is effectively fatal elsewhere; fall back
			// to a fixed prefix rather than take a time-based dependency.
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// NewRequestID returns a process-unique request identifier, e.g.
// "3fa9c1d2-1f". It is stamped on responses as X-Request-Id, names the
// request's trace, and goes into slog records, so client reports correlate
// with server logs and traces.
func NewRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridSeq.Add(1), 16)
}
