package obs

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartSpanNoParentIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatalf("expected nil span without a parent, got %v", sp)
	}
	if ctx2 != ctx {
		t.Fatalf("expected the same context back on the disabled path")
	}
	// All nil-receiver methods must be safe.
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.Child("child").End()
	sp.End()
	if got := FromContext(ctx2); got != nil {
		t.Fatalf("FromContext on untraced ctx = %v, want nil", got)
	}
}

// TestDisabledPathZeroAlloc pins the tentpole guarantee: with tracing
// off, the instrumentation points allocate nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	tr := NewTracer(8, discardLogger())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, trace := tr.StartTrace(ctx, "3fa9c1d2-1f", "req", false)
		ctx3, sp := StartSpan(ctx2, "engine.execute")
		sp.SetInt("rows", 1)
		_, sp2 := StartSpan(ctx3, "merge")
		sp2.End()
		sp.End()
		tr.Finish(trace)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f per op, want 0", allocs)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTracer(8, discardLogger())
	tr.SetEnabled(true)
	ctx, trace := tr.StartTrace(context.Background(), NewRequestID(), "req", false)
	if trace == nil {
		t.Fatal("enabled tracer returned nil trace")
	}
	ctx, a := StartSpan(ctx, "a")
	a.SetAttr("table", "ratings")
	_, b := StartSpan(ctx, "b")
	b.SetInt("rows", 42)
	b.End()
	a.End()
	tr.Finish(trace)

	snap, ok := tr.Get(trace.ID)
	if !ok {
		t.Fatalf("trace %s not retained", trace.ID)
	}
	if snap.Root.Name != "req" {
		t.Fatalf("root name %q", snap.Root.Name)
	}
	if len(snap.Root.Children) != 1 || snap.Root.Children[0].Name != "a" {
		t.Fatalf("want root->a, got %+v", snap.Root.Children)
	}
	ac := snap.Root.Children[0]
	if len(ac.Children) != 1 || ac.Children[0].Name != "b" {
		t.Fatalf("want a->b, got %+v", ac.Children)
	}
	if ac.Attrs[0] != (Attr{Key: "table", Val: "ratings"}) {
		t.Fatalf("attr %+v", ac.Attrs)
	}
	if ac.Children[0].Attrs[0] != (Attr{Key: "rows", Val: "42"}) {
		t.Fatalf("int attr %+v", ac.Children[0].Attrs)
	}
	if snap.Spans != 3 {
		t.Fatalf("span count %d, want 3", snap.Spans)
	}
	if snap.Root.Open || ac.Open || ac.Children[0].Open {
		t.Fatal("all spans ended; none should be open")
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer(8, discardLogger())
	tr.SetEnabled(true)
	_, trace := tr.StartTrace(context.Background(), NewRequestID(), "req", false)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := trace.Root.Child(fmt.Sprintf("worker-%d", i))
			c.SetInt("i", int64(i))
			c.End()
		}(i)
	}
	wg.Wait()
	tr.Finish(trace)
	snap, _ := tr.Get(trace.ID)
	if len(snap.Root.Children) != 16 {
		t.Fatalf("children %d, want 16", len(snap.Root.Children))
	}
}

// TestRingWraparound fills the ring past capacity and checks the oldest
// traces are evicted, newest retained, in order.
func TestRingWraparound(t *testing.T) {
	const size = 4
	tr := NewTracer(size, discardLogger())
	tr.SetEnabled(true)
	var ids []string
	for i := 0; i < 11; i++ {
		_, trace := tr.StartTrace(context.Background(), NewRequestID(), fmt.Sprintf("t%d", i), false)
		tr.Finish(trace)
		ids = append(ids, trace.ID)
	}
	got := tr.Recent()
	if len(got) != size {
		t.Fatalf("ring holds %d, want %d", len(got), size)
	}
	// Newest first: t10, t9, t8, t7.
	for i := 0; i < size; i++ {
		want := fmt.Sprintf("t%d", 10-i)
		if got[i].Name != want {
			t.Fatalf("slot %d = %s, want %s", i, got[i].Name, want)
		}
	}
	// Evicted traces are gone; retained ones resolvable by ID.
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	if _, ok := tr.Get(ids[10]); !ok {
		t.Fatal("newest trace should be retained")
	}
	st := tr.Stats()
	if st.Total != 11 || st.Recent != size || st.Capacity != size {
		t.Fatalf("stats %+v", st)
	}
}

// TestSlowRingRetention: slow traces outlive recent-ring churn and are
// logged through slog.
func TestSlowRingRetention(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(2, logger)
	tr.SetEnabled(true)
	tr.SetSlowThreshold(time.Nanosecond) // everything is slow

	_, slow := tr.StartTrace(context.Background(), NewRequestID(), "slowone", false)
	time.Sleep(time.Millisecond)
	tr.Finish(slow)

	tr.SetSlowThreshold(time.Hour) // subsequent traces are fast
	for i := 0; i < 5; i++ {
		_, fast := tr.StartTrace(context.Background(), NewRequestID(), "fast", false)
		tr.Finish(fast)
	}

	// The slow trace has churned out of the recent ring but must still
	// resolve via the slow ring.
	if _, ok := tr.Get(slow.ID); !ok {
		t.Fatal("slow trace evicted; slow ring must retain it")
	}
	var found bool
	for _, s := range tr.Recent() {
		if s.ID == slow.ID {
			found = true
			if !s.Slow {
				t.Fatal("slow trace not flagged in listing")
			}
		}
	}
	if !found {
		t.Fatal("slow trace missing from listing")
	}
	if !strings.Contains(buf.String(), "slow trace") || !strings.Contains(buf.String(), slow.ID) {
		t.Fatalf("slow trace not logged: %q", buf.String())
	}
	if st := tr.Stats(); st.SlowTotal != 1 {
		t.Fatalf("slow total %d, want 1", st.SlowTotal)
	}
}

func TestForcedTraceWhileDisabled(t *testing.T) {
	tr := NewTracer(8, discardLogger())
	if tr.Enabled() {
		t.Fatal("tracer should start disabled")
	}
	ctx, trace := tr.StartTrace(context.Background(), NewRequestID(), "forced", true)
	if trace == nil {
		t.Fatal("force=true must start a trace even when disabled")
	}
	_, sp := StartSpan(ctx, "child")
	sp.End()
	tr.Finish(trace)
	if snap, ok := tr.Get(trace.ID); !ok || snap.Spans != 2 {
		t.Fatalf("forced trace not retained correctly: %+v ok=%v", snap, ok)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	ctx, trace := tr.StartTrace(context.Background(), NewRequestID(), "x", true)
	if trace != nil {
		t.Fatal("nil tracer must not trace")
	}
	_ = ctx
	tr.Finish(nil)
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if got := tr.Recent(); got != nil {
		t.Fatalf("nil tracer Recent = %v", got)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("malformed id %s", id)
		}
	}
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discard{}, nil))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
