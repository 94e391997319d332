package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qagview/internal/movielens"
	"qagview/internal/obs"
)

// findSpanJSON walks a decoded SpanSnapshot tree for a span name.
func findSpanJSON(node map[string]any, name string) (map[string]any, bool) {
	if node["name"] == name {
		return node, true
	}
	kids, _ := node["children"].([]any)
	for _, k := range kids {
		if child, ok := k.(map[string]any); ok {
			if got, ok := findSpanJSON(child, name); ok {
				return got, true
			}
		}
	}
	return nil, false
}

// TestRequestIDOnResponses pins the satellite: every response carries
// X-Request-Id, and error bodies echo it as request_id.
func TestRequestIDOnResponses(t *testing.T) {
	_, ts := testServer(t, Config{})
	req, err := http.NewRequest("POST", ts.URL+"/v1/queries", strings.NewReader(`{"sql":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("no X-Request-Id on query response")
	}
	bad := post(t, ts, "/v1/queries", map[string]any{"sql": ""})
	if bad.code != http.StatusBadRequest {
		t.Fatalf("empty sql: %d %s", bad.code, bad.raw)
	}
	if got, _ := bad.body["request_id"].(string); got == "" {
		t.Fatalf("error body carries no request_id: %s", bad.raw)
	}
	for _, path := range []string{"/healthz", "/metrics", "/debug/traces"} {
		r := get(t, ts, path)
		if r.code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, r.code, r.raw)
		}
	}
}

// TestTracedJoinQueryOverHTTP is the acceptance check: a ?trace=1 join query
// returns an inline span tree covering server route → engine (per-operator
// join and scan spans) → merge, even with the global tracing gate off.
func TestTracedJoinQueryOverHTTP(t *testing.T) {
	_, ts := joinTestServer(t)
	resp := post(t, ts, "/v1/queries?trace=1", map[string]any{"sql": joinSQL})
	if resp.code != http.StatusOK {
		t.Fatalf("traced query: %d %s", resp.code, resp.raw)
	}
	tr, ok := resp.body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no inline trace in %s", resp.raw)
	}
	root, ok := tr["root"].(map[string]any)
	if !ok {
		t.Fatalf("trace has no root: %v", tr)
	}
	if root["name"] != "POST /v1/queries" {
		t.Fatalf("root span is %v, want the route", root["name"])
	}
	for _, name := range []string{"engine.execute", "join", "join.build", "join.probe", "vexec", "scan", "merge", "finalize"} {
		if _, ok := findSpanJSON(root, name); !ok {
			t.Fatalf("span %q missing from inline trace: %s", name, resp.raw)
		}
	}
}

// TestQueryProfile pins the EXPLAIN ANALYZE surface over HTTP: "profile":
// true returns per-operator rows/batches/wall-time plus a rendered table.
func TestQueryProfile(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL, "profile": true})
	if resp.code != http.StatusOK {
		t.Fatalf("profiled query: %d %s", resp.code, resp.raw)
	}
	ops, ok := resp.body["profile"].([]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("no profile in %s", resp.raw)
	}
	names := map[string]bool{}
	for _, op := range ops {
		names[op.(map[string]any)["op"].(string)] = true
	}
	for _, want := range []string{"plan", "scan", "merge", "finalize"} {
		if !names[want] {
			t.Fatalf("profile missing operator %q: %s", want, resp.raw)
		}
	}
	text, _ := resp.body["profile_text"].(string)
	if !strings.Contains(text, "operator") {
		t.Fatalf("profile_text missing header: %q", text)
	}
	// Without the flag the response stays clean.
	plain := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL})
	if _, leaked := plain.body["profile"]; leaked {
		t.Fatal("profile leaked into an unprofiled response")
	}
}

// TestDebugTraces exercises the ring endpoints: with tracing enabled every
// request is retained, listable, and retrievable by id.
func TestDebugTraces(t *testing.T) {
	_, ts := testServer(t, Config{TraceEnabled: true, TraceRing: 16})
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.raw)
	}
	list := get(t, ts, "/debug/traces")
	if list.code != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d %s", list.code, list.raw)
	}
	ring := list.body["ring"].(map[string]any)
	if ring["enabled"] != true {
		t.Fatalf("ring reports disabled: %s", list.raw)
	}
	traces := list.body["traces"].([]any)
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	var queryTrace map[string]any
	for _, tr := range traces {
		if m := tr.(map[string]any); m["name"] == "POST /v1/queries" {
			queryTrace = m
			break
		}
	}
	if queryTrace == nil {
		t.Fatalf("query trace not in ring: %s", list.raw)
	}
	one := get(t, ts, "/debug/traces/"+queryTrace["id"].(string))
	if one.code != http.StatusOK {
		t.Fatalf("GET trace by id: %d %s", one.code, one.raw)
	}
	root := one.body["root"].(map[string]any)
	if _, ok := findSpanJSON(root, "engine.execute"); !ok {
		t.Fatalf("retained trace has no engine span: %s", one.raw)
	}
	missing := get(t, ts, "/debug/traces/nope")
	if missing.code != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d", missing.code)
	}
	if rid, _ := missing.body["request_id"].(string); rid == "" {
		t.Fatalf("404 body carries no request_id: %s", missing.raw)
	}
}

// TestSlowQueryCapture: with a zero-ish threshold armed, ordinary requests
// land in the slow ring and are flagged in the index.
func TestSlowQueryCapture(t *testing.T) {
	srv, ts := testServer(t, Config{SlowQuery: time.Nanosecond})
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.raw)
	}
	st := srv.tracer.Stats()
	if st.SlowTotal == 0 {
		t.Fatalf("no slow traces captured: %+v", st)
	}
	list := get(t, ts, "/debug/traces")
	if !strings.Contains(list.raw, `"slow": true`) && !strings.Contains(list.raw, `"slow":true`) {
		t.Fatalf("no trace flagged slow: %s", list.raw)
	}
}

// TestPromMetrics scrapes /metrics?format=prometheus and validates it with
// the exposition parser — the same check the e2e smoke runs.
func TestPromMetrics(t *testing.T) {
	_, ts := testServer(t, Config{TraceEnabled: true})
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.raw)
	}
	scrape := get(t, ts, "/metrics?format=prometheus")
	if scrape.code != http.StatusOK {
		t.Fatalf("scrape: %d %s", scrape.code, scrape.raw)
	}
	fams, err := obs.ParseExposition(scrape.raw)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, scrape.raw)
	}
	have := map[string]bool{}
	for _, f := range fams {
		have[f.Name] = true
	}
	for _, want := range []string{
		"qagviewd_uptime_seconds", "qagviewd_requests_total", "qagviewd_request_latency_ms",
		"qagviewd_sessions_live", "qagviewd_goroutines", "qagviewd_heap_alloc_bytes",
		"qagviewd_trace_ring_occupancy", "qagviewd_traces_total",
	} {
		if !have[want] {
			t.Fatalf("missing family %q in scrape:\n%s", want, scrape.raw)
		}
	}
	s, ok := obs.FindSample(fams, "qagviewd_requests_total", map[string]string{"route": "POST /v1/queries", "code": "200"})
	if !ok || s.Value < 1 {
		t.Fatalf("no request counter for the query route: %s", scrape.raw)
	}
	// JSON stays the default rendering.
	asJSON := get(t, ts, "/metrics")
	if asJSON.body == nil || asJSON.body["requests"] == nil {
		t.Fatalf("default /metrics no longer JSON: %s", asJSON.raw)
	}
}

// TestTraceParamPerRoute pins what ?trace=1 does on each of the ten
// instrumented routes: every one records a trace (retrievable at
// /debug/traces, named by the route) with the global gate off, and only
// POST /v1/queries and GET .../solution also inline the span tree in the
// response body under "trace".
func TestTraceParamPerRoute(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := openSession(t, ts)
	waitReady(t, ts, id)
	sess := "/v1/sessions/" + id
	traceIDs := func() map[string]string {
		list := get(t, ts, "/debug/traces")
		out := map[string]string{}
		for _, tr := range list.body["traces"].([]any) {
			m := tr.(map[string]any)
			out[m["id"].(string)] = m["name"].(string)
		}
		return out
	}
	cases := []struct {
		route  string // the instrumented route label (and trace name)
		method string
		path   string // without the ?trace=1 parameter
		body   any
		code   int
		inline bool
	}{
		{"POST /v1/tables", "POST", "/v1/tables", map[string]any{"name": "u", "csv": "a,v\nx,1\n"}, http.StatusCreated, false},
		{"GET /v1/tables", "GET", "/v1/tables", nil, http.StatusOK, false},
		{"POST /v1/tables/{id}/rows", "POST", "/v1/tables/u/rows", map[string]any{"rows": [][]string{{"y", "2"}}}, http.StatusOK, false},
		{"POST /v1/queries", "POST", "/v1/queries", map[string]any{"sql": testSQL}, http.StatusOK, true},
		{"POST /v1/sessions", "POST", "/v1/sessions", map[string]any{"sql": testSQL, "l": 8, "kmin": 1, "kmax": 6, "ds": []int{0, 1, 2}}, http.StatusOK, false},
		{"GET /v1/sessions/{id}", "GET", sess, nil, http.StatusOK, false},
		{"GET /v1/sessions/{id}/solution", "GET", sess + "/solution?k=3&d=1", nil, http.StatusOK, true},
		{"GET /v1/sessions/{id}/guidance", "GET", sess + "/guidance", nil, http.StatusOK, false},
		{"GET /v1/sessions/{id}/diff", "GET", sess + "/diff?k1=2&d1=1&k2=3&d2=1", nil, http.StatusOK, false},
		{"DELETE /v1/sessions/{id}", "DELETE", sess, nil, http.StatusOK, false},
	}
	for _, c := range cases {
		before := traceIDs()
		path := c.path + "?trace=1"
		if strings.Contains(c.path, "?") {
			path = c.path + "&trace=1"
		}
		var resp response
		switch c.method {
		case "GET":
			resp = get(t, ts, path)
		case "POST":
			resp = post(t, ts, path, c.body)
		case "DELETE":
			resp = del(t, ts, path)
		}
		if resp.code != c.code {
			t.Fatalf("%s: status %d, want %d: %s", c.route, resp.code, c.code, resp.raw)
		}
		if _, ok := resp.body["trace"]; ok != c.inline {
			t.Fatalf("%s: trace inlined = %v, want %v: %s", c.route, ok, c.inline, resp.raw)
		}
		recorded := false
		for tid, name := range traceIDs() {
			if _, old := before[tid]; !old && name == c.route {
				recorded = true
			}
		}
		if !recorded {
			t.Fatalf("%s: ?trace=1 recorded no trace named after the route", c.route)
		}
	}
}

// TestPromMetricsStableOrder scrapes the exposition repeatedly after traffic
// on several routes and status codes: the series must come out in the same
// order every time (routes, then codes, sorted), so scrapes diff cleanly.
func TestPromMetricsStableOrder(t *testing.T) {
	_, ts := testServer(t, Config{})
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL}); r.code != http.StatusOK {
		t.Fatalf("query: %d %s", r.code, r.raw)
	}
	if r := post(t, ts, "/v1/queries", map[string]any{"sql": ""}); r.code != http.StatusBadRequest {
		t.Fatalf("empty query: %d %s", r.code, r.raw)
	}
	if r := get(t, ts, "/v1/tables"); r.code != http.StatusOK {
		t.Fatalf("list tables: %d %s", r.code, r.raw)
	}
	if r := get(t, ts, "/v1/sessions/nope"); r.code != http.StatusNotFound {
		t.Fatalf("unknown session: %d %s", r.code, r.raw)
	}
	// series strips the values, which (uptime, heap) move between scrapes.
	series := func() string {
		scrape := get(t, ts, "/metrics?format=prometheus")
		if scrape.code != http.StatusOK {
			t.Fatalf("scrape: %d %s", scrape.code, scrape.raw)
		}
		var sb strings.Builder
		for _, line := range strings.Split(scrape.raw, "\n") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 && !strings.HasPrefix(line, "#") {
				line = line[:i]
			}
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	first := series()
	for i := 0; i < 10; i++ {
		if got := series(); got != first {
			t.Fatalf("scrape %d lists series in a different order:\nfirst:\n%s\nnow:\n%s", i+2, first, got)
		}
	}
	var requests []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, "qagviewd_requests_total{") {
			requests = append(requests, line)
		}
	}
	want := []string{
		`qagviewd_requests_total{route="GET /v1/sessions/{id}",code="404"}`,
		`qagviewd_requests_total{route="GET /v1/tables",code="200"}`,
		`qagviewd_requests_total{route="POST /v1/queries",code="200"}`,
		`qagviewd_requests_total{route="POST /v1/queries",code="400"}`,
		`qagviewd_requests_total{route="POST /v1/tables",code="201"}`,
	}
	if strings.Join(requests, "\n") != strings.Join(want, "\n") {
		t.Fatalf("request counters not in sorted order:\ngot\n%s\nwant\n%s", strings.Join(requests, "\n"), strings.Join(want, "\n"))
	}
}

// TestMetricsScrapeObserveRace pins the satellite fix: quantile sorting must
// not mutate or hold the ring under concurrent observes. Run under -race.
func TestMetricsScrapeObserveRace(t *testing.T) {
	m := newMetrics()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.observe(fmt.Sprintf("route-%d", g%2), 200, time.Duration(i)*time.Microsecond)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_, routes := m.snapshot()
		for _, rs := range routes {
			if rs.P99Ms < rs.P50Ms {
				t.Errorf("p99 %v < p50 %v", rs.P99Ms, rs.P50Ms)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRefreshSpansCoverSessionRefresh pins the refresh's span tree: a traced
// stale read on a fresh session traces as session.refresh → the re-run
// query's engine.execute and live.refresh → lattice.build + sweeper.warm,
// and leaves at most 10% of session.refresh outside its child spans.
func TestRefreshSpansCoverSessionRefresh(t *testing.T) {
	rel, err := movielens.Generate(movielens.Config{Users: 943, Movies: 1682, Ratings: 40_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(rel); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	sql, err := movielens.Query(6, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	created := post(t, ts, "/v1/sessions", map[string]any{"sql": sql, "l": 300, "kmin": 1, "kmax": 12, "ds": []int{1, 2, 3}})
	if created.code != http.StatusCreated {
		t.Fatalf("creating session: %d %s", created.code, created.raw)
	}
	id := created.body["session"].(string)
	waitReady(t, ts, id)

	// Twenty five-star ratings cloned from existing rows shift the averages.
	rating := rel.ColumnIndex("rating")
	rows := make([][]string, 20)
	for i := range rows {
		src := i * 997
		rows[i] = make([]string, rel.NumCols())
		for c := range rows[i] {
			rows[i][c] = rel.StringAt(c, src)
		}
		rows[i][rating] = "5"
	}
	if resp := appendRows(t, ts, rel.Name(), rows); resp.code != http.StatusOK {
		t.Fatalf("append: %d %s", resp.code, resp.raw)
	}
	sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=5&d=2&trace=1")
	if sol.code != http.StatusOK || sol.body["data_version"].(float64) != 2 {
		t.Fatalf("stale read: %d %s", sol.code, sol.raw)
	}
	raw, err := json.Marshal(sol.body["trace"].(map[string]any)["root"])
	if err != nil {
		t.Fatal(err)
	}
	var root obs.SpanSnapshot
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatal(err)
	}
	refresh, ok := findSpan(root, "session.refresh")
	if !ok {
		t.Fatalf("no session.refresh span in %s", raw)
	}
	for _, name := range []string{"engine.execute", "live.refresh", "lattice.build", "sweeper.warm"} {
		if _, ok := findSpan(refresh, name); !ok {
			t.Fatalf("span %q missing under session.refresh: %+v", name, refresh)
		}
	}
	self := selfUS(refresh)
	t.Logf("session.refresh %d µs, %d µs outside its child spans", refresh.DurUS, self)
	if self*10 > refresh.DurUS {
		t.Fatalf("%d of %d µs of session.refresh are outside its child spans:\n%+v", self, refresh.DurUS, refresh)
	}
}

// findSpan walks a span tree for a span name.
func findSpan(s obs.SpanSnapshot, name string) (obs.SpanSnapshot, bool) {
	if s.Name == name {
		return s, true
	}
	for _, c := range s.Children {
		if got, ok := findSpan(c, name); ok {
			return got, true
		}
	}
	return obs.SpanSnapshot{}, false
}

// selfUS is a span's duration minus the union of its children's intervals.
func selfUS(s obs.SpanSnapshot) int64 {
	kids := append([]obs.SpanSnapshot(nil), s.Children...)
	sort.Slice(kids, func(a, b int) bool { return kids[a].StartUS < kids[b].StartUS })
	covered, end := int64(0), s.StartUS
	for _, k := range kids {
		lo, hi := max(k.StartUS, end), min(k.StartUS+k.DurUS, s.StartUS+s.DurUS)
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return s.DurUS - covered
}
