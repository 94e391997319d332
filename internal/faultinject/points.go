// Package faultinject is the deterministic fault-injection registry behind
// the crash-recovery harness (docs/FAULTS.md). Production binaries compile
// the no-op half (fault_off.go): every Crash and Err site reduces to nothing
// and the registry costs zero. Building with -tags qagfault swaps in the
// live half (fault_on.go), which arms named fault points from the QAGFAULT
// environment variable (or Arm, for in-process tests):
//
//	QAGFAULT=crash:wal.fsync.after        SIGKILL the process at the point
//	QAGFAULT=crash:wal.fsync.after:3      ... on its 3rd hit
//	QAGFAULT=err:wal.sync:enospc          inject ENOSPC at the point
//	QAGFAULT=err:wal.write:short          inject a short write + error
//
// Directives are comma-separated. Crash means SIGKILL — no deferred
// functions, no buffered flushes — so an armed run is byte-for-byte the
// kill -9 the recovery path must survive.
package faultinject

// Registered crash points, in the order the durable write path reaches
// them. The qagfault harness iterates this list and asserts crash-recovery
// bit-identity at every entry; adding a fault site means adding its name
// here (and to docs/FAULTS.md) so the harness covers it.
const (
	// CrashWALAppendStaged fires with the record staged in the in-memory
	// commit buffer, before any byte reaches the segment file: the record is
	// lost, and it was never acked.
	CrashWALAppendStaged = "wal.append.staged"
	// CrashWALFsyncBefore fires with the batch written to the segment file
	// but not yet fsynced: the records may or may not survive, and none were
	// acked.
	CrashWALFsyncBefore = "wal.fsync.before"
	// CrashWALFsyncAfter fires with the batch durable but the acks not yet
	// delivered: recovery must apply the records even though no client saw a
	// 2xx.
	CrashWALFsyncAfter = "wal.fsync.after"
	// CrashWALRotateSealed fires during checkpoint with the old segment
	// sealed and the new one created, before any table snapshot is written.
	CrashWALRotateSealed = "wal.rotate.sealed"
	// CrashSnapshotRenameBefore fires with a table snapshot written and
	// fsynced under its temp name, before the atomic rename publishes it.
	CrashSnapshotRenameBefore = "snapshot.rename.before"
	// CrashSnapshotRenameAfter fires with the table snapshot published,
	// before the WAL segments it covers are pruned.
	CrashSnapshotRenameAfter = "snapshot.rename.after"
	// CrashWALPruneBefore fires with every table snapshot durable, before
	// the sealed segments are deleted.
	CrashWALPruneBefore = "wal.prune.before"
	// CrashWALPruneAfter fires with the sealed segments deleted — the
	// checkpoint fully committed.
	CrashWALPruneAfter = "wal.prune.after"
	// CrashStoreRenameBefore fires with a session's precompute store written
	// and fsynced under its temp name, before the rename publishes it: the
	// next open of the session re-sweeps.
	CrashStoreRenameBefore = "store.rename.before"
	// CrashStoreRenameAfter fires with the store published and its directory
	// fsynced: the next open of the session decodes it instead of sweeping.
	CrashStoreRenameAfter = "store.rename.after"
)

// CrashPoints enumerates every registered crash point for harnesses that
// iterate them.
var CrashPoints = []string{
	CrashWALAppendStaged,
	CrashWALFsyncBefore,
	CrashWALFsyncAfter,
	CrashWALRotateSealed,
	CrashSnapshotRenameBefore,
	CrashSnapshotRenameAfter,
	CrashWALPruneBefore,
	CrashWALPruneAfter,
	CrashStoreRenameBefore,
	CrashStoreRenameAfter,
}

// Registered error-injection points (err: directives).
const (
	// ErrWALWrite makes the segment write deliver roughly half the batch and
	// then fail — a torn tail the next open must truncate.
	ErrWALWrite = "wal.write"
	// ErrWALSync makes the batch fsync fail with ENOSPC; the log goes
	// fail-stop (sticky broken) because a failed fsync may have dropped
	// arbitrary dirty pages.
	ErrWALSync = "wal.sync"
	// ErrSnapshotWrite makes a snapshot write fail before the rename: a table
	// snapshot aborts the checkpoint (the WAL keeps covering the table), a
	// store snapshot is counted as a save error (the session keeps serving
	// from memory).
	ErrSnapshotWrite = "snapshot.write"
)
