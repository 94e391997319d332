package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailPerMilleLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 500}, {19, 500}, {99, 500}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999}, {50000, 999},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := pctName(990) + " " + pctName(999); got != "p99 p99.9" {
		t.Errorf("pctName = %q", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// A stall on the only connection must be charged to every op scheduled
// behind it: latency runs from the due time, not from when a worker got
// to the op.
func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	const step, stall = 10 * time.Millisecond, 150 * time.Millisecond
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * step
	}
	lat, lag, ok := openLoop(due, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i := range due {
		if !ok[i] {
			t.Fatalf("op %d not ok", i)
		}
		// Op i can start only once the stall ends at `stall`.
		if want := stall - due[i]; lat[i] < want {
			t.Errorf("op %d latency %v, want at least %v (queued behind the stall)", i, lat[i], want)
		}
		if lag[i] > 50*time.Millisecond {
			t.Errorf("op %d dispatched %v late: the dispatcher must not wait for workers", i, lag[i])
		}
	}
}

// The closed loop keeps every worker busy until the window ends, cycles
// through the ops, and counts each failed op.
func TestClosedLoopCyclesOpsUntilTheWindowEnds(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	start := time.Now()
	sent, failed := closedLoop(3, 2, 50*time.Millisecond, func(i int) bool {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return i != 1
	})
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Errorf("returned after %v, before the window ended", el)
	}
	if sent < 6 || len(seen) != 3 || seen[0]+seen[1]+seen[2] != sent {
		t.Fatalf("sent %d, ops seen %v", sent, seen)
	}
	if failed != seen[1] {
		t.Errorf("failed %d, want %d (every call of op 1)", failed, seen[1])
	}
}

// The open-loop run is invalid when the dispatcher lag p99 passes lagBound.
func TestCheckLagMarksLateRunInvalid(t *testing.T) {
	onTime := make([]time.Duration, 200)
	r := newReport()
	r.checkLag(onTime)
	if r.invalid != "" {
		t.Errorf("on-time run marked invalid: %s", r.invalid)
	}
	late := append(onTime, make([]time.Duration, 10)...)
	for i := 200; i < len(late); i++ {
		late[i] = 2 * lagBound
	}
	r = newReport()
	r.checkLag(late)
	if r.invalid == "" || r.layer["bench.gen_lag_p99_ms"] != 40 {
		t.Errorf("late run: invalid %q, lag p99 %v ms", r.invalid, r.layer["bench.gen_lag_p99_ms"])
	}
}

// compare must fail a head with wrong answers or a larger failed share even
// when every median is within its bound, and must leave invalid runs out of
// the medians.
func TestCompareGatesCorrectnessAndSkipsInvalidRuns(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "cpu_ms_per_op", "better": "lower", "bound": 0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := func(seed int, valid, correct bool, failed int, cpu float64) string {
		b, _ := json.Marshal(map[string]any{
			"stamp": map[string]any{"workload": "live", "seed": seed}, "trace": false, "valid": valid,
			"result": map[string]any{"correct": correct, "attempted": 1000, "failed": failed,
				"metrics": map[string]any{"cpu_ms_per_op": map[string]any{"value": cpu, "unit": "ms"}}},
		})
		return string(b)
	}
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.jsonl", rec(1, true, true, 0, 5), rec(2, true, true, 0, 5))
	for _, c := range []struct {
		name string
		head []string
		want int
	}{
		{"same", []string{rec(3, true, true, 0, 5), rec(4, true, true, 0, 5)}, 0},
		{"wrong answers", []string{rec(3, true, false, 3, 5), rec(4, true, true, 0, 5)}, 3},
		{"more failures", []string{rec(3, true, true, 2, 5), rec(4, true, true, 0, 5)}, 3},
		{"slower", []string{rec(3, true, true, 0, 9), rec(4, true, true, 0, 9)}, 3},
		{"invalid slow run left out", []string{rec(3, true, true, 0, 5), rec(4, true, true, 0, 5), rec(5, false, true, 0, 90), rec(6, false, true, 0, 90)}, 0},
	} {
		head := write("head.jsonl", c.head...)
		if got := compareMain([]string{"-spec", spec, base, head}); got != c.want {
			t.Errorf("%s: compare exited %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "op.x", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "engine.a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "lattice.b", Start: 30 * ms, End: 60 * ms}, // overlaps span 1
		{ID: 3, Parent: 1, Name: "relation.c", Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * ms, 25 * ms, 30 * ms, 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	tr.setOp(7)
	tr.do("op.y", func() {
		tr.do("engine.q", func() { tr.do("relation.r", func() {}) })
		tr.do("lattice.s", func() {})
	})
	parents := []int{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d in op 7", i, s, parents[i])
		}
	}
	var none *tracer
	ran := false
	none.do("engine.q", func() { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the call")
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	minSize := []map[int]int{{1: 1, 2: 1, 3: 2}, {1: 1, 2: 2, 3: 3}}
	d1, o1 := exploreSchedule(5, 2*time.Second, minSize)
	d2, o2 := exploreSchedule(5, 2*time.Second, minSize)
	if len(d1) == 0 || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("explore: one seed gave two schedules")
	}
	if d3, _ := exploreSchedule(6, 2*time.Second, minSize); reflect.DeepEqual(d1, d3) {
		t.Error("explore: seeds 5 and 6 gave the same arrivals")
	}
	for _, o := range o1 {
		if o.k < minSize[o.s][o.d] || o.k > kMax {
			t.Fatalf("explore op %+v asks for a k the store does not hold", o)
		}
	}

	la, lo := liveArrivals(5, 2*time.Second)
	lb, lo2 := liveArrivals(5, 2*time.Second)
	assignReads(5, lo, minSize)
	assignReads(5, lo2, minSize)
	if !reflect.DeepEqual(la, lb) || !reflect.DeepEqual(lo, lo2) {
		t.Fatal("live: one seed gave two schedules")
	}

	family := []sessSpec{{M: 6, L: 100}, {M: 7, L: 100}, {M: 8, L: 300, Join: true}}
	if !reflect.DeepEqual(coldSchedule(5, family), coldSchedule(5, family)) {
		t.Fatal("cold: one seed gave two schedules")
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics the
// program reports.
func TestBenchmarkDescriptionMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads %v, program has %v", names, have)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
