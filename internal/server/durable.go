package server

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"qagview"
	"qagview/internal/faultinject"
	"qagview/internal/obs"
	"qagview/internal/wal"
)

// WAL record ops. The payload is the original request JSON, so replay runs
// the exact same parse-and-apply code as the live write path — the root of
// the crash-recovery bit-identity guarantee.
const (
	walOpCreate byte = 1 // tableRequest: POST /v1/tables
	walOpAppend byte = 2 // appendRequest: POST /v1/tables/{id}/rows
)

// errDurability marks write failures of the durability layer; handlers map
// it to 503 (the data may be applied in memory but could not be made
// durable, and the log has gone fail-stop).
var errDurability = errors.New("durability failure")

// durability owns the server's data directory: the write-ahead log, table
// snapshots, and the session store snapshots the session manager writes.
//
// Layout under dir (the server's one data directory):
//
//	wal-00000001.log ...   record segments (internal/wal)
//	tables/t-<hex>.snap    one snapshot per table, named by hex(table name)
//	stores/<session>-<fp>.store
//	                       one precompute store per session, keyed by the
//	                       fingerprint of the answer set it was swept over
//
// Invariant: at every instant, snapshot(table) + WAL records with
// gen > snapshot gen reproduce the in-memory table byte-for-byte. The
// in-memory state may run ahead of disk only by records whose appends have
// not yet been acknowledged.
type durability struct {
	dir             string
	checkpointBytes int64

	mu            sync.Mutex
	log           *wal.Log // nil until Recover
	snapGens      map[string]uint64
	checkpointing bool

	// Counters for /metrics (declared in declareMetrics). The log counts
	// its traffic into wal.
	wal                                             wal.Metrics
	recoveries, recordsReplayed, recordsSkipped     obs.Counter
	snapshotsLoaded, truncatedBytes                 obs.Counter
	checkpoints, checkpointErrors, snapshotsWritten obs.Counter
}

func newDurability(dir string, checkpointBytes int64) *durability {
	return &durability{dir: dir, checkpointBytes: checkpointBytes, snapGens: make(map[string]uint64)}
}

// openLog returns the log, or nil before Recover.
func (d *durability) openLog() *wal.Log {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log
}

// broken reports whether the log has gone fail-stop.
func (d *durability) broken() bool {
	l := d.openLog()
	return l != nil && l.Broken()
}

// ready returns the open log, or an error when Recover has not run yet —
// with a WAL configured, nothing may be acknowledged before recovery has
// replayed what the last process acknowledged.
func (d *durability) ready() (*wal.Log, error) {
	if l := d.openLog(); l != nil {
		return l, nil
	}
	return nil, fmt.Errorf("%w: write-ahead log not recovered yet (call Recover before serving)", errDurability)
}

// stageFunc returns the hook db.register/db.update invoke under the catalog
// lock once the data generation is assigned: it stages the record in the
// WAL's commit buffer (cheap, non-blocking — ordering records in exactly
// the generation order) and hands back the durable-wait the caller runs
// after releasing the lock.
func (d *durability) stageFunc(l *wal.Log, op byte, table string, payload []byte) func(gen uint64) func() error {
	return func(gen uint64) func() error {
		return l.Stage(wal.Record{Op: op, Table: table, Gen: gen, Data: payload})
	}
}

// snapGen returns the generation the on-disk snapshot covers for a table.
func (d *durability) snapGen(table string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapGens[table]
}

// tableSnapDir is where table snapshots live inside the WAL directory.
func (d *durability) tableSnapDir() string { return filepath.Join(d.dir, "tables") }

// snapPath names a table's snapshot file. The hex encoding makes any table
// name filesystem-safe.
func (d *durability) snapPath(table string) string {
	return filepath.Join(d.tableSnapDir(), "t-"+hex.EncodeToString([]byte(table))+".snap")
}

// storePath names a session's store snapshot. The key is the answer-set
// fingerprint, not the data generation: the in-memory generation may run
// ahead of disk by unacknowledged records, so after a crash a different
// append can reuse a generation number, but never a fingerprint.
func (d *durability) storePath(session, fp string) string {
	return filepath.Join(d.storeDir(), session+"-"+fp+".store")
}

// storeDir is where session store snapshots live inside the WAL directory.
func (d *durability) storeDir() string { return filepath.Join(d.dir, "stores") }

// removeStaleTemps deletes the snap-*.tmp files that a crash between
// writeSnapshotFile's create and rename left in the snapshot directories.
// Recover runs before any snapshot writer starts, so every one is
// orphaned.
func (d *durability) removeStaleTemps() (int, error) {
	removed := 0
	for _, dir := range []string{d.tableSnapDir(), d.storeDir()} {
		tmps, err := filepath.Glob(filepath.Join(dir, "snap-*.tmp"))
		if err != nil {
			return removed, err
		}
		for _, p := range tmps {
			if err := os.Remove(p); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}

// RecoverStats reports what Recover rebuilt.
type RecoverStats struct {
	// SnapshotsLoaded is the number of table snapshots restored.
	SnapshotsLoaded int
	// RecordsReplayed is the number of WAL records applied on top of them.
	RecordsReplayed int
	// RecordsSkipped is the number of WAL records already covered by a
	// newer snapshot.
	RecordsSkipped int
	// TruncatedBytes counts torn-tail bytes repaired (a record the crash
	// cut mid-write; it was never acknowledged).
	TruncatedBytes int64
	// WALSizeBytes is the log size after recovery.
	WALSizeBytes int64
	// StaleTempsRemoved counts the orphaned snapshot temp files (a crash
	// before their rename) that recovery deleted.
	StaleTempsRemoved int
}

// Recover rebuilds the catalog from the WAL directory and opens the log
// for appends: it deletes snapshot temp files a crash left behind, loads
// the table snapshots, then replays every WAL record not covered by a
// snapshot, in append order, through the same parse-and-apply code as the
// live write path. The result is bit-identical to the no-crash run —
// same column contents, same data generations, and therefore the same
// query results, cluster ids, and solutions.
//
// With no WAL configured it is a no-op. Call it after preloading sample
// tables (their appends replay on top) and before serving. Errors are
// fail-stop: a corrupt snapshot or mid-log corruption refuses to start
// rather than silently serving partial data.
func (s *Server) Recover() (RecoverStats, error) {
	if s.dur == nil {
		return RecoverStats{}, nil
	}
	d := s.dur
	if d.openLog() != nil {
		return RecoverStats{}, fmt.Errorf("already recovered")
	}

	var stats RecoverStats
	var err error
	if stats.StaleTempsRemoved, err = d.removeStaleTemps(); err != nil {
		return stats, err
	}
	// 1. Newest table snapshots: each carries the generation it covers.
	tdir := d.tableSnapDir()
	entries, err := os.ReadDir(tdir)
	if err != nil && !os.IsNotExist(err) {
		return stats, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		path := filepath.Join(tdir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return stats, err
		}
		rel, gen, err := qagview.ReadRelationSnapshot(f)
		f.Close()
		if err != nil {
			return stats, fmt.Errorf("table snapshot %s: %w", path, err)
		}
		if err := s.db.restore(rel, gen); err != nil {
			return stats, fmt.Errorf("restoring table snapshot %s: %w", path, err)
		}
		d.mu.Lock()
		d.snapGens[rel.Name()] = gen
		d.mu.Unlock()
		stats.SnapshotsLoaded++
	}

	// 2. WAL replay on top, torn tail truncated, corruption fail-stop.
	walLog, info, err := wal.OpenMetered(d.dir, &d.wal, func(rec wal.Record) error {
		applied, err := s.applyWALRecord(rec)
		if err != nil {
			return err
		}
		if applied {
			stats.RecordsReplayed++
		} else {
			stats.RecordsSkipped++
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	stats.TruncatedBytes = info.TruncatedBytes
	stats.WALSizeBytes = info.SizeBytes

	d.mu.Lock()
	d.log = walLog
	d.mu.Unlock()
	d.recoveries.Inc()
	d.recordsReplayed.Add(int64(stats.RecordsReplayed))
	d.recordsSkipped.Add(int64(stats.RecordsSkipped))
	d.snapshotsLoaded.Add(int64(stats.SnapshotsLoaded))
	d.truncatedBytes.Add(stats.TruncatedBytes)
	return stats, nil
}

// applyWALRecord applies one replayed record through the live write path's
// parse-and-apply code, restoring the exact data generation the record was
// acknowledged with. Records at or below the table's snapshot generation
// are already covered and skip.
func (s *Server) applyWALRecord(rec wal.Record) (applied bool, err error) {
	if rec.Gen <= s.dur.snapGen(rec.Table) {
		return false, nil
	}
	switch rec.Op {
	case walOpCreate:
		var req tableRequest
		if err := json.Unmarshal(rec.Data, &req); err != nil {
			return false, fmt.Errorf("create record for %q: %w", rec.Table, err)
		}
		rel, err := buildRelation(req)
		if err != nil {
			return false, fmt.Errorf("create record for %q: %w", rec.Table, err)
		}
		return true, s.db.restore(rel, rec.Gen)
	case walOpAppend:
		var req appendRequest
		if err := json.Unmarshal(rec.Data, &req); err != nil {
			return false, fmt.Errorf("append record for %q: %w", rec.Table, err)
		}
		rel, err := s.db.table(rec.Table)
		if err != nil {
			return false, fmt.Errorf("append record gen %d: %w (its create record or snapshot is missing)", rec.Gen, err)
		}
		next, _, err := appendToRelation(rel, req)
		if err != nil {
			return false, fmt.Errorf("append record for %q gen %d: %w", rec.Table, rec.Gen, err)
		}
		if next == nil {
			// Zero-row batches are never logged; a record like this means a
			// writer bug, not a crash artifact.
			return false, fmt.Errorf("append record for %q gen %d carries no rows", rec.Table, rec.Gen)
		}
		return true, s.db.restore(next, rec.Gen)
	default:
		return false, fmt.Errorf("unknown WAL op %d for table %q", rec.Op, rec.Table)
	}
}

// maybeCheckpoint starts a background checkpoint when the WAL has outgrown
// its budget. At most one checkpoint runs at a time; appends continue
// concurrently (they land in the newly rotated segment).
func (s *Server) maybeCheckpoint() {
	d := s.dur
	if d == nil {
		return
	}
	d.mu.Lock()
	walLog := d.log
	if walLog == nil || d.checkpointing || d.checkpointBytes <= 0 {
		d.mu.Unlock()
		return
	}
	if walLog.SizeBytes() < d.checkpointBytes {
		d.mu.Unlock()
		return
	}
	d.checkpointing = true
	d.mu.Unlock()
	go func() {
		defer func() {
			d.mu.Lock()
			d.checkpointing = false
			d.mu.Unlock()
		}()
		if err := s.checkpoint(); err != nil {
			d.checkpointErrors.Inc()
			s.logger.Warn("checkpoint failed (WAL keeps covering all tables)", "error", err)
		}
	}()
}

// checkpoint makes the WAL prunable: rotate the log (records staged from
// here land in the new segment), snapshot every table whose generation has
// moved past its on-disk snapshot, then delete the sealed segments. A crash
// at any point is safe: replay skips records a snapshot already covers, and
// un-pruned segments merely replay as skips.
func (s *Server) checkpoint() error {
	d := s.dur
	walLog := d.openLog()
	if walLog == nil {
		return nil
	}
	sealed, err := walLog.Rotate()
	if err != nil {
		return err
	}
	for _, name := range s.db.tables() {
		rel, gen, err := s.db.tableWithGen(name)
		if err != nil {
			continue // tables cannot be dropped today; belt and suspenders
		}
		if gen <= d.snapGen(name) {
			continue
		}
		err = writeSnapshotFile(d.snapPath(name), faultinject.CrashSnapshotRenameBefore, faultinject.CrashSnapshotRenameAfter,
			func(w io.Writer) error { return qagview.WriteRelationSnapshot(w, rel, gen) })
		if err != nil {
			// Abort without pruning: the sealed segments keep covering every
			// table, so nothing is lost — the next checkpoint retries.
			return fmt.Errorf("snapshot %q: %w", name, err)
		}
		d.mu.Lock()
		d.snapGens[name] = gen
		d.mu.Unlock()
		d.snapshotsWritten.Inc()
	}
	if err := walLog.Prune(sealed); err != nil {
		return err
	}
	d.checkpoints.Inc()
	return nil
}

// writeSnapshotFile is how the server writes every snapshot file: temp
// file, encode, fsync, rename over path, directory fsync. Readers see the
// old complete file or the new complete file, never a partial one. Table
// and store snapshots both go through it; each passes its own crash points
// (before and after the rename) so the harness kills the process there.
func writeSnapshotFile(path, crashBefore, crashAfter string, encode func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := faultinject.Err(faultinject.ErrSnapshotWrite); err != nil {
		tmp.Close()
		return err
	}
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	faultinject.Crash(crashBefore)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncParentDir(dir); err != nil {
		return err
	}
	faultinject.Crash(crashAfter)
	return nil
}

// syncParentDir fsyncs a directory so renames inside it survive a crash.
func syncParentDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// BeginDrain flips the server into drain mode: mutating endpoints return
// 503 + Retry-After immediately, read endpoints keep serving. Call it when
// SIGTERM arrives, before http.Server.Shutdown stops the listener.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain gracefully stops the server's background work and makes all
// acknowledged state durable: cancels in-flight session builds and waits
// for them to return, flushes the WAL, snapshots every table, prunes the
// log, and closes it. Call after http.Server.Shutdown has drained in-flight
// requests; the process can exit when Drain returns.
func (s *Server) Drain() error {
	s.BeginDrain()
	s.sessions.close() // cancels builds and waits for the goroutines
	if s.dur == nil {
		return nil
	}
	walLog := s.dur.openLog()
	if walLog == nil {
		return nil
	}
	var firstErr error
	if err := walLog.Sync(); err != nil {
		firstErr = err
	}
	if err := s.checkpoint(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := walLog.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
