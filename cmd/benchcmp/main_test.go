package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

func TestCompareDetectsRegressions(t *testing.T) {
	baseline := map[string]result{
		"BenchmarkFast":   {NsPerOp: 1000, AllocsPerOp: fp(100), Runs: 3},
		"BenchmarkSteady": {NsPerOp: 5000, AllocsPerOp: fp(50), Runs: 3},
		"BenchmarkGone":   {NsPerOp: 10, Runs: 1},
	}

	t.Run("clean", func(t *testing.T) {
		candidate := map[string]result{
			"BenchmarkFast":   {NsPerOp: 1200, AllocsPerOp: fp(100), Runs: 3}, // +20% < 30%
			"BenchmarkSteady": {NsPerOp: 4000, AllocsPerOp: fp(50), Runs: 3},  // improved
			"BenchmarkNew":    {NsPerOp: 7, Runs: 1},
		}
		report, _, regressed := compare(baseline, candidate, 0.30)
		if regressed {
			t.Fatalf("clean run flagged as regression:\n%s", report)
		}
		if !strings.Contains(report, "only in baseline") || !strings.Contains(report, "new benchmark") {
			t.Fatalf("membership changes not reported:\n%s", report)
		}
	})

	t.Run("ns regression", func(t *testing.T) {
		candidate := map[string]result{
			"BenchmarkFast":   {NsPerOp: 1400, AllocsPerOp: fp(100), Runs: 3}, // +40%
			"BenchmarkSteady": {NsPerOp: 5000, AllocsPerOp: fp(50), Runs: 3},
		}
		report, _, regressed := compare(baseline, candidate, 0.30)
		if !regressed {
			t.Fatalf("+40%% ns/op not flagged:\n%s", report)
		}
		if !strings.Contains(report, "BenchmarkFast") || !strings.Contains(report, "REGRESSED") {
			t.Fatalf("report does not name the regressed benchmark:\n%s", report)
		}
	})

	t.Run("alloc regression", func(t *testing.T) {
		candidate := map[string]result{
			"BenchmarkFast":   {NsPerOp: 1000, AllocsPerOp: fp(200), Runs: 3}, // 2x allocs
			"BenchmarkSteady": {NsPerOp: 5000, AllocsPerOp: fp(50), Runs: 3},
		}
		_, _, regressed := compare(baseline, candidate, 0.30)
		if !regressed {
			t.Fatal("2x allocs/op not flagged")
		}
	})

	t.Run("tiny alloc jitter tolerated", func(t *testing.T) {
		base := map[string]result{"BenchmarkTiny": {NsPerOp: 100, AllocsPerOp: fp(2), Runs: 3}}
		candidate := map[string]result{"BenchmarkTiny": {NsPerOp: 100, AllocsPerOp: fp(3), Runs: 3}}
		if _, _, regressed := compare(base, candidate, 0.30); regressed {
			t.Fatal("2 -> 3 allocs/op must not fail the gate")
		}
	})

	t.Run("boundary is exclusive", func(t *testing.T) {
		candidate := map[string]result{
			"BenchmarkFast":   {NsPerOp: 1300, AllocsPerOp: fp(100), Runs: 3}, // exactly +30%
			"BenchmarkSteady": {NsPerOp: 5000, AllocsPerOp: fp(50), Runs: 3},
		}
		if _, _, regressed := compare(baseline, candidate, 0.30); regressed {
			t.Fatal("exactly +30% must pass a 30% threshold")
		}
	})
}

// TestCompareReportsCandidateOnly pins the new-benchmark path: entries
// present only in the candidate are returned (sorted) and reported, never
// fail the gate, and the printed note carries refresh instructions naming
// the actual file paths.
func TestCompareReportsCandidateOnly(t *testing.T) {
	baseline := map[string]result{
		"BenchmarkSteady": {NsPerOp: 5000, AllocsPerOp: fp(50), Runs: 3},
	}
	candidate := map[string]result{
		"BenchmarkSteady": {NsPerOp: 5100, AllocsPerOp: fp(50), Runs: 3},
		"BenchmarkZNew":   {NsPerOp: 7, Runs: 1},
		"BenchmarkANew":   {NsPerOp: 9, Runs: 1},
	}
	report, extras, regressed := compare(baseline, candidate, 0.30)
	if regressed {
		t.Fatalf("candidate-only benchmarks must not fail the gate:\n%s", report)
	}
	if len(extras) != 2 || extras[0] != "BenchmarkANew" || extras[1] != "BenchmarkZNew" {
		t.Fatalf("extras = %v, want sorted [BenchmarkANew BenchmarkZNew]", extras)
	}
	for _, name := range extras {
		if !strings.Contains(report, "+ "+name) {
			t.Fatalf("report does not list %s as new:\n%s", name, report)
		}
	}
	note := refreshNote(extras, "BENCH_7.json", "bench_baseline.json")
	for _, want := range []string{"BenchmarkANew", "BenchmarkZNew", "cp BENCH_7.json bench_baseline.json", "NOT yet"} {
		if !strings.Contains(note, want) {
			t.Fatalf("refresh note missing %q:\n%s", want, note)
		}
	}
}

// TestCompareNoExtras checks the empty-extras shape (no note triggered).
func TestCompareNoExtras(t *testing.T) {
	m := map[string]result{"BenchmarkSteady": {NsPerOp: 5000, Runs: 3}}
	_, extras, _ := compare(m, m, 0.30)
	if len(extras) != 0 {
		t.Fatalf("extras = %v, want none", extras)
	}
}

// TestLineCountsNeverGate pins the "loc" entry of a BENCH json: load splits
// it from the benchmarks, locReport prints every candidate package with its
// change from the baseline, and a large growth in lines fails nothing.
func TestLineCountsNeverGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := write("base.json", `{
  "BenchmarkSteady": {"ns_per_op": 5000, "allocs_per_op": 50, "runs": 3},
  "loc": {"./internal/lattice": {"prod": 1556, "test": 1058}, "total": {"prod": 21963, "test": 15073}}
}`)
	candPath := write("cand.json", `{
  "BenchmarkSteady": {"ns_per_op": 5000, "allocs_per_op": 50, "runs": 3},
  "loc": {"./internal/lattice": {"prod": 9000, "test": 536}, "./cmd/new": {"prod": 40, "test": 0}, "total": {"prod": 29500, "test": 14500}}
}`)
	baseline, baseLoc, err := load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	candidate, candLoc, err := load(candPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 1 || len(candidate) != 1 {
		t.Fatalf("line counts leaked into the benchmarks: %v / %v", baseline, candidate)
	}
	report, extras, regressed := compare(baseline, candidate, 0.30)
	if regressed || len(extras) != 0 {
		t.Fatalf("line counts affected the gate (regressed=%v, extras=%v):\n%s", regressed, extras, report)
	}
	got := locReport(baseLoc, candLoc)
	for _, want := range []string{
		"./internal/lattice                          9000     536  (+7444, -522)",
		"./cmd/new                                     40       0\n",
		"total                                      29500   14500  (+7537, -573)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("line-count report missing %q:\n%s", want, got)
		}
	}
	if locReport(baseLoc, nil) != "" {
		t.Fatal("a candidate without line counts must print no line-count table")
	}
}
