package server

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qagview/internal/obs"
)

// promSeriesFor maps a JSON metric path to the Prometheus series carrying
// the same number, written as the scrape writes it (name{labels}), and
// whether the two must agree in value: gauges that move between two
// scrapes and the quantiles (read from the buckets) are checked for
// presence only. ok is false for a JSON metric with no Prometheus twin.
func promSeriesFor(path string) (series string, compare, ok bool) {
	static := map[string]string{
		"uptime_seconds":             "qagviewd_uptime_seconds",
		"sessions.live":              "qagviewd_sessions_live",
		"sessions.bytes":             "qagviewd_sessions_bytes",
		"sessions.max_entries":       "qagviewd_sessions_max_entries",
		"sessions.max_bytes":         "qagviewd_sessions_max_bytes",
		"panics_recovered":           "qagviewd_panics_recovered_total",
		"admission_rejects":          "qagviewd_admission_rejects_total",
		"inflight_builds":            "qagviewd_inflight_builds",
		"draining":                   "qagviewd_draining",
		"goroutines":                 "qagviewd_goroutines",
		"heap_alloc_bytes":           "qagviewd_heap_alloc_bytes",
		"traces.enabled":             "qagviewd_tracing_enabled",
		"traces.recent":              `qagviewd_trace_ring_occupancy{ring="recent"}`,
		"traces.slow":                `qagviewd_trace_ring_occupancy{ring="slow"}`,
		"traces.total":               `qagviewd_traces_total{kind="all"}`,
		"traces.slow_total":          `qagviewd_traces_total{kind="slow"}`,
		"wal.appends":                "qagviewd_wal_appends_total",
		"wal.batches":                "qagviewd_wal_batches_total",
		"wal.fsyncs":                 "qagviewd_wal_fsyncs_total",
		"wal.bytes":                  "qagviewd_wal_bytes_total",
		"wal.size_bytes":             "qagviewd_wal_size_bytes",
		"wal.broken":                 "qagviewd_wal_broken",
		"wal.fsync_count":            "qagviewd_wal_fsync_ms_count",
		"wal.fsync_p50_ms":           `qagviewd_wal_fsync_ms_bucket{le="+Inf"}`,
		"wal.fsync_p99_ms":           `qagviewd_wal_fsync_ms_bucket{le="+Inf"}`,
		"recovery.recoveries":        "qagviewd_recoveries_total",
		"recovery.records_replayed":  "qagviewd_recovery_records_replayed_total",
		"recovery.records_skipped":   "qagviewd_recovery_records_skipped_total",
		"recovery.snapshots_loaded":  "qagviewd_recovery_snapshots_loaded_total",
		"recovery.truncated_bytes":   "qagviewd_recovery_truncated_bytes_total",
		"recovery.checkpoints":       "qagviewd_checkpoints_total",
		"recovery.checkpoint_errors": "qagviewd_checkpoint_errors_total",
		"recovery.snapshots_written": "qagviewd_checkpoint_snapshots_written_total",
	}
	moving := map[string]bool{"uptime_seconds": true, "goroutines": true, "heap_alloc_bytes": true,
		"wal.fsync_p50_ms": true, "wal.fsync_p99_ms": true}
	if s, ok := static[path]; ok {
		return s, !moving[path], true
	}
	p := strings.Split(path, ".")
	switch {
	case len(p) == 3 && p[0] == "sessions" && p[1] == "events":
		return `qagviewd_session_events_total{event="` + p[2] + `"}`, true, true
	case len(p) == 4 && p[0] == "requests" && p[2] == "by_code":
		return `qagviewd_requests_total{route="` + p[1] + `",code="` + p[3] + `"}`, true, true
	case len(p) == 3 && p[0] == "requests" && p[2] == "count":
		return `qagviewd_request_latency_ms_count{route="` + p[1] + `"}`, true, true
	case len(p) == 3 && p[0] == "requests" && (p[2] == "p50_ms" || p[2] == "p99_ms"):
		return `qagviewd_request_latency_ms_bucket{route="` + p[1] + `",le="+Inf"}`, false, true
	}
	return "", false, false
}

// flattenJSON lists a decoded JSON report's leaves by dot-separated path.
func flattenJSON(prefix string, v any, out map[string]any) {
	m, ok := v.(map[string]any)
	if !ok {
		out[prefix] = v
		return
	}
	for k, c := range m {
		if prefix != "" {
			k = prefix + "." + k
		}
		flattenJSON(k, c, out)
	}
}

// TestMetricsJSONMatchesPrometheus pins the one-registry contract on a
// durable server: every JSON metric has its Prometheus series, every
// Prometheus family has a JSON metric, and the two renderings agree on
// every value that does not move between scrapes.
func TestMetricsJSONMatchesPrometheus(t *testing.T) {
	srv, ts, _ := durableServer(t, t.TempDir(), Config{TraceEnabled: true})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	waitReady(t, ts, openSession(t, ts))
	if r := get(t, ts, "/v1/sessions/nope"); r.code != http.StatusNotFound {
		t.Fatalf("unknown session: %d", r.code)
	}
	srv.sessions.wg.Wait() // the store build's snapshot save and trace are done

	asJSON := get(t, ts, "/metrics")
	leaves := map[string]any{}
	flattenJSON("", asJSON.body, leaves)
	scrape := get(t, ts, "/metrics?format=prometheus")
	fams, err := obs.ParseExposition(scrape.raw)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, scrape.raw)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(scrape.raw, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil && line[i+1:] != "+Inf" {
				t.Fatalf("sample %q: %v", line, err)
			}
			samples[line[:i]] = v
		}
	}

	paths := make([]string, 0, len(leaves))
	for p := range leaves {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	covered := map[string]bool{}
	for _, path := range paths {
		series, compare, ok := promSeriesFor(path)
		if !ok {
			t.Errorf("JSON metric %s has no Prometheus series", path)
			continue
		}
		pv, ok := samples[series]
		if !ok {
			t.Errorf("JSON metric %s: no Prometheus series %s in the scrape", path, series)
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		for _, suf := range []string{"_bucket", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		covered[name] = true
		jv, ok := leaves[path].(float64)
		if !ok {
			t.Errorf("JSON metric %s is %T, not a number", path, leaves[path])
		} else if compare && jv != pv {
			t.Errorf("JSON metric %s = %v, Prometheus %s = %v", path, jv, series, pv)
		}
	}
	for _, f := range fams {
		if !covered[f.Name] {
			t.Errorf("Prometheus family %s has no JSON metric", f.Name)
		}
	}
	if !covered["qagviewd_request_latency_ms"] || leaves["wal.batches"] == nil {
		t.Fatalf("the report has no request histogram or wal.batches:\n%s", asJSON.raw)
	}
}
