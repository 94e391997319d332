//go:build qagfault

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"qagview/internal/faultinject"
)

// The crash harness re-execs this test binary as a child running only
// TestCrashChildProcess with a QAGFAULT crash directive armed, so the child
// dies by SIGKILL at a registered fault point mid-operation — true kill -9
// semantics: no deferred cleanup, no buffered flushes. The parent then
// recovers the child's WAL directory in-process and proves the recovered
// state is byte-identical to a never-crashed server fed the same
// acknowledged operations.

// childBatches is the child's append sequence: generations 2..5 on top of
// the create (generation 1). A checkpoint runs between generations 3 and 4,
// so crash points in the rotate/snapshot/prune path fire mid-sequence.
// After the final checkpoint the child opens a session and waits for its
// store snapshot to be saved, so the store crash points fire last.
var childBatches = [][][]string{
	{{"A0", "B0", "C0", "100"}, {"A1", "B1", "C1", "90"}},
	{{"A2", "B2", "C0", "80"}},
	{{"A9", "B9", "C9", "70"}, {"A9", "B9", "C9", "71"}},
	{{"A1", "B2", "C1", "60"}},
}

// TestCrashChildProcess is the child half of the harness: it only runs when
// QAGCRASH_DIR is set (the parent's re-exec), serves a durable server, and
// appends an fsynced ack line to QAGCRASH_ACKS after every acknowledged
// write. Somewhere along the way the armed crash point SIGKILLs it.
func TestCrashChildProcess(t *testing.T) {
	dir := os.Getenv("QAGCRASH_DIR")
	if dir == "" {
		t.Skip("not a crash-harness child (QAGCRASH_DIR unset)")
	}
	ackPath := os.Getenv("QAGCRASH_ACKS")
	ackFile, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("opening ack file: %v", err)
	}
	ack := func(gen float64) {
		// The ack line is itself fsynced: the parent trusts it as "the client
		// saw this generation acknowledged".
		fmt.Fprintf(ackFile, "%d\n", uint64(gen))
		if err := ackFile.Sync(); err != nil {
			t.Fatalf("syncing ack file: %v", err)
		}
	}

	// Explicit checkpoints only: determinism about which operation each
	// crash point fires under.
	srv := New(Config{WALDir: dir, WALCheckpointBytes: -1})
	if _, err := srv.Recover(); err != nil {
		t.Fatalf("child Recover: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp := post(t, ts, "/v1/tables", map[string]any{
		"name":  "t",
		"csv":   makeCSV(3, 3, 2),
		"kinds": map[string]string{"v": "float"},
	})
	if resp.code != http.StatusCreated {
		t.Fatalf("child create: %d %s", resp.code, resp.raw)
	}
	ack(resp.body["data_version"].(float64))
	for i, batch := range childBatches {
		if i == 2 {
			if err := srv.checkpoint(); err != nil {
				t.Fatalf("child checkpoint: %v", err)
			}
		}
		resp := appendRows(t, ts, "t", batch)
		if resp.code != http.StatusOK {
			t.Fatalf("child append %d: %d %s", i, resp.code, resp.raw)
		}
		ack(resp.body["data_version"].(float64))
	}
	if err := srv.checkpoint(); err != nil {
		t.Fatalf("child final checkpoint: %v", err)
	}
	crashSolutionBody(t, ts)
	srv.Close() // waits for the store save
}

// crashSpec is one harness run: a crash point and the 1-based hit that
// fires.
type crashSpec struct {
	point string
	nth   int
}

// TestCrashRecoveryBitIdentity is the parent half: for every registered
// crash point (plus a couple of later-hit variants), kill a child server at
// that point, recover its WAL directory, and assert
//
//	acked ⊆ recovered ⊆ attempted,
//
// with the recovered state byte-identical — query bodies and session
// solutions — to a never-crashed server fed exactly the recovered prefix.
func TestCrashRecoveryBitIdentity(t *testing.T) {
	if os.Getenv("QAGCRASH_DIR") != "" {
		t.Skip("crash-harness child must not recurse")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]crashSpec, 0, len(faultinject.CrashPoints)+2)
	for _, p := range faultinject.CrashPoints {
		specs = append(specs, crashSpec{p, 1})
	}
	// Later hits land mid-append-sequence rather than on the create.
	specs = append(specs,
		crashSpec{faultinject.CrashWALFsyncAfter, 3},
		crashSpec{faultinject.CrashWALAppendStaged, 4},
	)
	for _, spec := range specs {
		t.Run(fmt.Sprintf("%s-hit%d", spec.point, spec.nth), func(t *testing.T) {
			dir := t.TempDir()
			acks := dir + "/.acks" // dotfile: ignored by segment and snapshot scans
			directive := fmt.Sprintf("crash:%s", spec.point)
			if spec.nth > 1 {
				directive = fmt.Sprintf("%s:%d", directive, spec.nth)
			}
			cmd := exec.Command(exe, "-test.run=^TestCrashChildProcess$", "-test.v")
			cmd.Env = append(os.Environ(),
				"QAGCRASH_DIR="+dir,
				"QAGCRASH_ACKS="+acks,
				"QAGFAULT="+directive,
			)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("child survived crash point %s (hit %d); harness bug — every spec must kill the child:\n%s",
					spec.point, spec.nth, out)
			}
			if cmd.ProcessState.ExitCode() != -1 {
				// Killed-by-signal reports -1; any real exit code means the
				// child failed for a different reason.
				t.Fatalf("child exited %d instead of dying by SIGKILL:\n%s", cmd.ProcessState.ExitCode(), out)
			}
			lastAcked := readAcks(t, acks)

			srv := New(Config{WALDir: dir})
			stats, err := srv.Recover()
			if err != nil {
				t.Fatalf("recovery after crash at %s: %v", spec.point, err)
			}
			defer srv.Close()
			recovered := srv.db.generation("t")
			attempted := uint64(1 + len(childBatches))
			if recovered < lastAcked {
				t.Fatalf("LOST ACKNOWLEDGED DATA: recovered gen %d < last acked %d (stats %+v)", recovered, lastAcked, stats)
			}
			if recovered > attempted {
				t.Fatalf("recovered gen %d beyond the %d attempted operations", recovered, attempted)
			}
			t.Logf("point %s hit %d: acked %d, recovered %d (replayed %d, snapshots %d, truncated %d bytes)",
				spec.point, spec.nth, lastAcked, recovered, stats.RecordsReplayed, stats.SnapshotsLoaded, stats.TruncatedBytes)
			if recovered == 0 {
				if len(srv.db.tables()) != 0 {
					t.Fatalf("generation 0 but tables exist: %v", srv.db.tables())
				}
				return
			}

			// Reference: a never-crashed, non-durable server fed exactly the
			// recovered prefix.
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			refSrv := New(Config{})
			ref := httptest.NewServer(refSrv.Handler())
			defer ref.Close()
			defer refSrv.Close()
			if resp := post(t, ref, "/v1/tables", map[string]any{
				"name":  "t",
				"csv":   makeCSV(3, 3, 2),
				"kinds": map[string]string{"v": "float"},
			}); resp.code != http.StatusCreated {
				t.Fatalf("reference create: %d %s", resp.code, resp.raw)
			}
			for i := uint64(0); i+2 <= recovered; i++ {
				if resp := appendRows(t, ref, "t", childBatches[i]); resp.code != http.StatusOK {
					t.Fatalf("reference append %d: %d %s", i, resp.code, resp.raw)
				}
			}
			wantQ, gotQ := crashQueryBody(t, ref), crashQueryBody(t, ts)
			if gotQ != wantQ {
				t.Fatalf("recovered query body differs from never-crashed reference:\n%s\nvs\n%s", gotQ, wantQ)
			}
			wantS, _ := crashSolutionBody(t, ref)
			gotS, loaded := crashSolutionBody(t, ts)
			if gotS != wantS {
				t.Fatalf("recovered solution differs from never-crashed reference:\n%s\nvs\n%s", gotS, wantS)
			}
			// Only a store the child published may be decoded; a temp file
			// cut off before its rename is never read, so the session
			// re-sweeps.
			if want := spec.point == faultinject.CrashStoreRenameAfter; loaded != want {
				t.Fatalf("session store from_snapshot = %v after a crash at %s, want %v", loaded, spec.point, want)
			}
		})
	}
}

// readAcks returns the highest generation the child saw acknowledged.
func readAcks(t *testing.T, path string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	var last uint64
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		g, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("bad ack line %q: %v", line, err)
		}
		if g > last {
			last = g
		}
	}
	return last
}

// crashQueryBody runs the standard query, 6-group sessions being too small
// to matter here; raw JSON so equality is byte equality.
func crashQueryBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := post(t, ts, "/v1/queries", map[string]any{"sql": testSQL, "limit": 50})
	if resp.code != http.StatusOK {
		t.Fatalf("query: %d %s", resp.code, resp.raw)
	}
	return resp.raw
}

// crashSolutionBody opens a small session and reads one expanded solution,
// reporting whether the session's store was decoded from a snapshot.
func crashSolutionBody(t *testing.T, ts *httptest.Server) (string, bool) {
	t.Helper()
	resp := post(t, ts, "/v1/sessions", map[string]any{
		"sql": testSQL, "l": 6, "kmin": 1, "kmax": 4, "ds": []int{1, 2},
	})
	if resp.code != http.StatusCreated && resp.code != http.StatusOK {
		t.Fatalf("session: %d %s", resp.code, resp.raw)
	}
	id := resp.body["session"].(string)
	info := waitReady(t, ts, id)
	sol := get(t, ts, "/v1/sessions/"+id+"/solution?k=3&d=2&expand=1")
	if sol.code != http.StatusOK {
		t.Fatalf("solution: %d %s", sol.code, sol.raw)
	}
	return sol.raw, info.body["from_snapshot"] == true
}

// TestInjectedFsyncErrorFailsStop pins fsyncgate semantics: an injected
// fsync failure 503s the request, leaves the log sticky-broken (every later
// write refuses fast), and a restart recovers cleanly.
func TestInjectedFsyncErrorFailsStop(t *testing.T) {
	if os.Getenv("QAGCRASH_DIR") != "" {
		t.Skip("crash-harness child")
	}
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)

	if err := faultinject.Arm("err:wal.sync:enospc"); err != nil {
		t.Fatal(err)
	}
	resp := appendRows(t, ts, "t", [][]string{{"A0", "B0", "C0", "1"}})
	if resp.code != http.StatusServiceUnavailable {
		t.Fatalf("append with failing fsync: %d %s, want 503", resp.code, resp.raw)
	}
	// Sticky: the next write fails fast even though the disk "recovered".
	faultinject.Reset()
	resp = appendRows(t, ts, "t", [][]string{{"A1", "B1", "C1", "2"}})
	if resp.code != http.StatusServiceUnavailable {
		t.Fatalf("append after fsync failure: %d %s, want sticky 503", resp.code, resp.raw)
	}
	health := get(t, ts, "/healthz")
	if health.body["wal"] != "broken" {
		t.Fatalf("healthz wal = %v, want broken", health.body["wal"])
	}
	srv.dur.mu.Lock()
	l := srv.dur.log
	srv.dur.mu.Unlock()
	_ = l.Close() // returns the sticky error; the file still closes
	ts.Close()

	// Restart: recovery yields only durable state; the refused appends are
	// gone, the acknowledged create is intact or ahead (an un-acked record
	// that reached the OS may legally survive).
	srv2, ts2, _ := durableServer(t, dir, Config{})
	g := srv2.db.generation("t")
	if g < 1 || g > 2 {
		t.Fatalf("recovered generation = %d, want 1 (acked) or 2 (written, un-acked)", g)
	}
	if resp := appendRows(t, ts2, "t", [][]string{{"A2", "B2", "C1", "3"}}); resp.code != http.StatusOK {
		t.Fatalf("append after restart: %d %s", resp.code, resp.raw)
	}
}

// TestInjectedShortWriteTornTail pins torn-write repair with a genuinely
// half-written batch: the failed append is refused, and recovery truncates
// the torn bytes rather than refusing to start.
func TestInjectedShortWriteTornTail(t *testing.T) {
	if os.Getenv("QAGCRASH_DIR") != "" {
		t.Skip("crash-harness child")
	}
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir, Config{})
	createTestTable(t, ts)
	mustAppend(t, ts, "t", [][]string{{"A0", "B0", "C0", "1"}})
	if err := faultinject.Arm("err:wal.write:short"); err != nil {
		t.Fatal(err)
	}
	resp := appendRows(t, ts, "t", [][]string{{"A1", "B1", "C1", "2"}})
	if resp.code != http.StatusServiceUnavailable {
		t.Fatalf("short-written append: %d %s, want 503", resp.code, resp.raw)
	}
	faultinject.Reset()
	srv.dur.mu.Lock()
	l := srv.dur.log
	srv.dur.mu.Unlock()
	_ = l.Close()
	ts.Close()

	srv2, _, stats := durableServer(t, dir, Config{})
	if stats.TruncatedBytes == 0 {
		t.Fatalf("short write left no torn tail to repair: %+v", stats)
	}
	if g := srv2.db.generation("t"); g != 2 {
		t.Fatalf("recovered generation = %d, want 2 (torn record dropped)", g)
	}
}
