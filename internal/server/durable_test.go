package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qagview/internal/wal"
)

// durableServer starts a server with a WAL in dir and recovers it.
func durableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, RecoverStats) {
	t.Helper()
	cfg.WALDir = dir
	srv := New(cfg)
	stats, err := srv.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, stats
}

// closeWAL flushes and closes the server's log without checkpointing — the
// in-process stand-in for kill -9 right after the last acknowledgement (the
// real SIGKILL harness is crash_test.go, under -tags qagfault). Recovery
// then runs against snapshots + WAL exactly as after a crash.
func closeWAL(t *testing.T, srv *Server) {
	t.Helper()
	if err := srv.dur.openLog().Close(); err != nil {
		t.Fatalf("closing WAL: %v", err)
	}
}

// mustAppend posts rows (via delta_test's appendRows) and fails on non-200.
func mustAppend(t *testing.T, ts *httptest.Server, table string, rows [][]string) response {
	t.Helper()
	resp := appendRows(t, ts, table, rows)
	if resp.code != http.StatusOK {
		t.Fatalf("append: %d %s", resp.code, resp.raw)
	}
	return resp
}

// queryBody runs the standard query and returns the raw response JSON — raw
// bytes, so bit-identity means byte-identity.
func queryBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL, "limit": 50})
	if resp.code != http.StatusOK {
		t.Fatalf("query: %d %s", resp.code, resp.raw)
	}
	return resp.raw
}

// solutionBody opens the standard session, waits for its store, and reads a
// solution, returning the raw JSON.
func solutionBody(t *testing.T, ts *httptest.Server, k, d int) string {
	t.Helper()
	id := openSession(t, ts)
	waitReady(t, ts, id)
	resp := get(t, ts, fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=%d&expand=1", id, k, d))
	if resp.code != http.StatusOK {
		t.Fatalf("solution: %d %s", resp.code, resp.raw)
	}
	return resp.raw
}

// createTestTable posts the synthetic table.
func createTestTable(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp := post(t, ts, "/v1/tables", map[string]any{
		"name":  "t",
		"csv":   makeCSV(3, 3, 2),
		"kinds": map[string]string{"v": "float"},
	})
	if resp.code != http.StatusCreated {
		t.Fatalf("creating table: %d %s", resp.code, resp.raw)
	}
}

// testAppendBatches is the standard mutation sequence: three batches, the
// last introducing new group values (A9/B9/C9) so the answer set genuinely
// changes across generations.
var testAppendBatches = [][][]string{
	{{"A0", "B0", "C0", "100"}, {"A1", "B1", "C1", "90"}},
	{{"A2", "B2", "C0", "80"}},
	{{"A9", "B9", "C9", "70"}, {"A9", "B9", "C9", "71"}},
}

// TestDurableRecoveryBitIdentity is the heart of the tentpole: a server that
// loses its process right after the last acknowledged write recovers to a
// state byte-identical to a server that never crashed — same query bodies,
// same data versions, same session solutions (cluster ids and members).
func TestDurableRecoveryBitIdentity(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	var lastGen float64
	for _, batch := range testAppendBatches {
		resp := mustAppend(t, ts, "t", batch)
		lastGen = resp.body["data_version"].(float64)
	}
	if lastGen != 4 {
		t.Fatalf("data_version after create+3 appends = %v, want 4", lastGen)
	}
	wantQuery := queryBody(t, ts)
	wantSolution := solutionBody(t, ts, 4, 2)
	closeWAL(t, srv)
	ts.Close()

	// Reference: a fresh non-durable server fed the same requests live.
	_, ref := testServer(t, Config{})
	for _, batch := range testAppendBatches {
		mustAppend(t, ref, "t", batch)
	}
	if got := queryBody(t, ref); got != wantQuery {
		t.Fatalf("durable and non-durable servers disagree before any crash:\n%s\nvs\n%s", got, wantQuery)
	}

	// Crash recovery: new process over the same WAL dir.
	srv2, ts2, stats := durableServer(t, dir, Config{})
	if stats.RecordsReplayed != 4 || stats.SnapshotsLoaded != 0 {
		t.Fatalf("recover stats: %+v, want 4 records replayed from the log", stats)
	}
	if g := srv2.db.generation("t"); g != 4 {
		t.Fatalf("recovered generation = %d, want 4", g)
	}
	if got := queryBody(t, ts2); got != wantQuery {
		t.Fatalf("recovered query body differs:\n%s\nvs\n%s", got, wantQuery)
	}
	if got := solutionBody(t, ts2, 4, 2); got != wantSolution {
		t.Fatalf("recovered solution differs:\n%s\nvs\n%s", got, wantSolution)
	}
}

// TestCreateTableKeepsEmptyStringRow: an inline create whose one-column
// row holds an empty string keeps that row, live and after WAL replay.
func TestCreateTableKeepsEmptyStringRow(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	resp := post(t, ts, "/v1/tables", map[string]any{
		"name": "e", "attrs": []string{"g"}, "rows": [][]string{{"a"}, {""}, {"b"}},
	})
	if resp.code != http.StatusCreated || resp.body["rows"] != 3.0 {
		t.Fatalf("create: %d %s", resp.code, resp.raw)
	}
	check := func(srv *Server, when string) {
		t.Helper()
		rel, err := srv.db.table("e")
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		var got []string
		for row := 0; row < rel.NumRows(); row++ {
			got = append(got, rel.StringAt(0, row))
		}
		if strings.Join(got, "|") != "a||b" || len(got) != 3 {
			t.Fatalf("%s table holds %q, want [a  b]", when, got)
		}
	}
	check(srv, "live")
	closeWAL(t, srv)
	ts.Close()
	srv2, _, stats := durableServer(t, dir, Config{})
	if stats.RecordsReplayed != 1 {
		t.Fatalf("recover stats: %+v, want the create record replayed", stats)
	}
	check(srv2, "recovered")
}

// TestRecoverEmptyWAL boots durably over an empty directory.
func TestRecoverEmptyWAL(t *testing.T) {
	srv, ts, stats := durableServer(t, t.TempDir(), Config{})
	if stats.RecordsReplayed != 0 || stats.SnapshotsLoaded != 0 || stats.TruncatedBytes != 0 {
		t.Fatalf("empty-dir recovery reported work: %+v", stats)
	}
	createTestTable(t, ts)
	if g := srv.db.generation("t"); g != 1 {
		t.Fatalf("generation = %d", g)
	}
}

// TestRecoverWithoutRecoverRefusesWrites pins the ack contract: a durable
// server that has not recovered yet must refuse writes (503), not silently
// acknowledge into a log that is not open.
func TestRecoverWithoutRecoverRefusesWrites(t *testing.T) {
	srv := New(Config{WALDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	resp := post(t, ts, "/v1/tables", map[string]any{"name": "t", "csv": "a,v\nx,1\n"})
	if resp.code != http.StatusServiceUnavailable {
		t.Fatalf("write before Recover: %d %s, want 503", resp.code, resp.raw)
	}
}

// TestCheckpointAndRecoverFromSnapshot exercises the rotate → snapshot →
// prune path: after a checkpoint, recovery loads the snapshot, replays only
// the post-checkpoint records, and still matches the no-crash state.
func TestCheckpointAndRecoverFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	if err := srv.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mustAppend(t, ts, "t", testAppendBatches[1])
	mustAppend(t, ts, "t", testAppendBatches[2])
	want := queryBody(t, ts)
	closeWAL(t, srv)
	ts.Close()

	srv2, ts2, stats := durableServer(t, dir, Config{})
	if stats.SnapshotsLoaded != 1 {
		t.Fatalf("recover stats: %+v, want 1 snapshot loaded", stats)
	}
	if stats.RecordsReplayed != 2 {
		t.Fatalf("recover stats: %+v, want exactly the 2 post-checkpoint appends replayed", stats)
	}
	if g := srv2.db.generation("t"); g != 4 {
		t.Fatalf("recovered generation = %d, want 4", g)
	}
	if got := queryBody(t, ts2); got != want {
		t.Fatalf("recovered-from-snapshot query differs:\n%s\nvs\n%s", got, want)
	}
}

// TestRecoverRemovesStaleSnapshotTemps plants the temp files a crash
// between a snapshot's create and its rename leaves behind, in both
// snapshot directories: recovery deletes exactly those, counts them, and
// still restores from the real snapshot.
func TestRecoverRemovesStaleSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	if err := srv.checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := queryBody(t, ts)
	closeWAL(t, srv)
	ts.Close()

	stale := []string{
		filepath.Join(srv.dur.tableSnapDir(), "snap-123.tmp"),
		filepath.Join(srv.dur.storeDir(), "snap-456.tmp"),
	}
	keep := filepath.Join(srv.dur.storeDir(), "notes.txt")
	if err := os.MkdirAll(srv.dur.storeDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range append(stale, keep) {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, ts2, stats := durableServer(t, dir, Config{})
	if stats.StaleTempsRemoved != 2 || stats.SnapshotsLoaded != 1 {
		t.Fatalf("recover stats: %+v, want 2 stale temps removed and 1 snapshot loaded", stats)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale temp %s survived recovery (stat err %v)", p, err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("recovery removed a file that is not a snapshot temp: %v", err)
	}
	if got := queryBody(t, ts2); got != want {
		t.Fatalf("recovered query differs:\n%s\nvs\n%s", got, want)
	}
}

// TestRecoverySnapshotNewerThanWALTail covers a crash between a
// checkpoint's snapshot step and its prune step: stale segments — every
// record at or below the snapshot generation — must replay as skips, not
// double-applies.
func TestRecoverySnapshotNewerThanWALTail(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	mustAppend(t, ts, "t", testAppendBatches[1])
	want := queryBody(t, ts)
	if err := srv.checkpoint(); err != nil { // snapshot at gen 3, WAL pruned
		t.Fatalf("checkpoint: %v", err)
	}
	closeWAL(t, srv)
	ts.Close()

	// Re-create the pruned situation's inverse: append a stale record (gen 2,
	// already inside the snapshot) to the log tail, as if prune had not run.
	l, _, err := wal.Open(dir, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatalf("reopening WAL: %v", err)
	}
	stale := wal.Record{Op: walOpAppend, Table: "t", Gen: 2,
		Data: []byte(`{"rows":[["A0","B0","C0","100"],["A1","B1","C1","90"]]}`)}
	if err := l.Append(stale); err != nil {
		t.Fatalf("appending stale record: %v", err)
	}
	l.Close()

	srv2, ts2, stats := durableServer(t, dir, Config{})
	if stats.SnapshotsLoaded != 1 || stats.RecordsSkipped != 1 || stats.RecordsReplayed != 0 {
		t.Fatalf("recover stats: %+v, want the stale record skipped", stats)
	}
	if g := srv2.db.generation("t"); g != 3 {
		t.Fatalf("recovered generation = %d, want the snapshot's 3", g)
	}
	if got := queryBody(t, ts2); got != want {
		t.Fatalf("stale-tail recovery double-applied:\n%s\nvs\n%s", got, want)
	}
}

// TestReplayAcrossCodecOverflow replays a WAL whose appends straddle a
// packed-codec overflow: the first batches stay inside attribute a's
// 2-bit dictionary (A0..A2), the last introduces a 4th value. The recovered
// server's session — whose lattice re-derives its codec from the recovered
// table — must produce solutions byte-identical to the live server's.
func TestReplayAcrossCodecOverflow(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts) // a has card 3: A0..A2 fill a 2-bit field
	mustAppend(t, ts, "t", [][]string{{"A2", "B2", "C1", "55"}})
	// A3 is the overflowing 4th value of attribute a.
	mustAppend(t, ts, "t", [][]string{{"A3", "B0", "C0", "60"}, {"A3", "B1", "C1", "61"}})
	want := solutionBody(t, ts, 5, 2)
	closeWAL(t, srv)
	ts.Close()

	_, ts2, stats := durableServer(t, dir, Config{})
	if stats.RecordsReplayed != 3 {
		t.Fatalf("recover stats: %+v, want 3 records", stats)
	}
	if got := solutionBody(t, ts2, 5, 2); got != want {
		t.Fatalf("solution across codec-overflow boundary differs:\n%s\nvs\n%s", got, want)
	}
}

// TestRecoverTornTailTruncates pins torn-write repair at the server level: a
// record the crash cut mid-write was never acknowledged, so recovery
// truncates it and serves the prefix.
func TestRecoverTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	want := queryBody(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[2])
	closeWAL(t, srv)
	ts.Close()

	// Tear the final record: cut 3 bytes off the segment tail.
	seg := walSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, stats := durableServer(t, dir, Config{})
	if stats.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", stats)
	}
	if stats.RecordsReplayed != 2 {
		t.Fatalf("recover stats: %+v, want the 2 intact records", stats)
	}
	if g := srv2.db.generation("t"); g != 2 {
		t.Fatalf("recovered generation = %d, want 2 (torn record dropped)", g)
	}
	if got := queryBody(t, ts2); got != want {
		t.Fatalf("torn-tail recovery state differs:\n%s\nvs\n%s", got, want)
	}
}

// TestRecoverCorruptCRCFailsStop pins fail-stop: flipping a payload byte of
// an interior record must refuse recovery with an explicit error, never
// skip-and-continue.
func TestRecoverCorruptCRCFailsStop(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	mustAppend(t, ts, "t", testAppendBatches[1])
	closeWAL(t, srv)
	ts.Close()

	seg := walSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff // interior byte: later records stay intact
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{WALDir: dir})
	defer srv2.Close()
	_, err = srv2.Recover()
	if err == nil {
		t.Fatal("Recover succeeded over a corrupt WAL")
	}
	if !strings.Contains(err.Error(), "refusing to skip") {
		t.Fatalf("corruption error should state fail-stop, got: %v", err)
	}
}

// walSegment returns the single WAL segment in dir.
func walSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, dir+"/"+e.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, have %v", segs)
	}
	return segs[0]
}

// TestDrainRefusesWritesKeepsReads covers graceful shutdown semantics.
func TestDrainRefusesWritesKeepsReads(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	want := queryBody(t, ts)

	srv.BeginDrain()
	resp := appendRows(t, ts, "t", testAppendBatches[1])
	if resp.code != http.StatusServiceUnavailable {
		t.Fatalf("append while draining: %d, want 503", resp.code)
	}
	if got := queryBody(t, ts); got != want {
		t.Fatal("reads must keep serving while draining")
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Drain checkpointed: a fresh process recovers purely from snapshots.
	ts.Close()
	_, ts2, stats := durableServer(t, dir, Config{})
	if stats.SnapshotsLoaded != 1 || stats.RecordsReplayed != 0 {
		t.Fatalf("post-drain recovery: %+v, want snapshot-only", stats)
	}
	if got := queryBody(t, ts2); got != want {
		t.Fatal("post-drain recovery state differs")
	}
}

// TestRequestDeadline pins the 503 mapping: an already-expired deadline
// fails the query at its first morsel check.
func TestRequestDeadline(t *testing.T) {
	_, ts := testServer(t, Config{RequestTimeout: time.Nanosecond})
	resp := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL})
	if resp.code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: %d %s, want 503", resp.code, resp.raw)
	}
}

// TestPanicMiddleware pins panic containment: a panicking handler yields a
// 500 JSON error and a metrics count, not a dropped connection.
func TestPanicMiddleware(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.instrument("GET /boom", srv.recoverPanics(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/boom", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "panicked") {
		t.Fatalf("panic body: %s", rr.Body.String())
	}
	if got := srv.panics.Load(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
}

// TestAdmissionControl pins the 429 + Retry-After path when every build
// slot is taken.
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{MaxInflightBuilds: 1})
	defer srv.Close()
	release := make(chan struct{})
	entered := make(chan struct{})
	h := srv.admitBuild(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})
	firstDone := make(chan struct{})
	go func() {
		h(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sessions", nil))
		close(firstDone)
	}()
	<-entered

	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("POST", "/v1/sessions", nil))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("full semaphore: %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if got := srv.admissionRejects.Load(); got != 1 {
		t.Fatalf("admission_rejects = %d, want 1", got)
	}
	close(release)
	<-firstDone // the slot is freed when the first handler returns

	// The slot frees up: the next request is admitted again.
	rr = httptest.NewRecorder()
	done := make(chan struct{})
	h2 := srv.admitBuild(func(http.ResponseWriter, *http.Request) { close(done) })
	h2(rr, httptest.NewRequest("POST", "/v1/sessions", nil))
	<-done
}

// TestMetricsDurabilityFields asserts the new /metrics surface.
func TestMetricsDurabilityFields(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", testAppendBatches[0])
	resp := get(t, ts, "/metrics")
	if resp.code != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.code)
	}
	walBody, ok := resp.body["wal"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing wal section: %s", resp.raw)
	}
	if walBody["appends"].(float64) < 2 || walBody["fsyncs"].(float64) == 0 || walBody["bytes"].(float64) == 0 {
		t.Fatalf("wal stats implausible: %v", walBody)
	}
	for _, key := range []string{"fsync_p50_ms", "fsync_p99_ms", "size_bytes"} {
		if _, ok := walBody[key]; !ok {
			t.Fatalf("wal stats missing %q: %v", key, walBody)
		}
	}
	rec, ok := resp.body["recovery"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing recovery section: %s", resp.raw)
	}
	if rec["recoveries"].(float64) != 1 {
		t.Fatalf("recoveries = %v, want 1", rec["recoveries"])
	}
	for _, key := range []string{"panics_recovered", "admission_rejects", "inflight_builds", "draining"} {
		if _, ok := resp.body[key]; !ok {
			t.Fatalf("metrics missing %q: %s", key, resp.raw)
		}
	}
	// Non-durable servers omit the wal/recovery sections.
	_, plain := testServer(t, Config{})
	resp = get(t, plain, "/metrics")
	if _, ok := resp.body["wal"]; ok {
		t.Fatalf("non-durable metrics should omit wal: %s", resp.raw)
	}
}

// TestCloseWaitsForBuilds pins satellite 2: Close (and Drain) must not
// return while a cancelled store build still runs.
func TestCloseWaitsForBuilds(t *testing.T) {
	srv, ts := testServer(t, Config{})
	openSession(t, ts)
	// Close immediately: the background sweep may be mid-flight; close must
	// cancel it AND wait. The -race build turns a violated wait into a
	// detected race on the session manager.
	srv.Close()
	srv.sessions.wg.Wait() // returns instantly if close really waited
}
