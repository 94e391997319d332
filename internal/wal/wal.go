// Package wal implements the write-ahead log behind qagviewd's durable live
// tables: a directory of length-prefixed, CRC32-checksummed segment files
// with group commit — concurrent appends share one fsync — torn-tail
// truncation on replay, and checkpoint-driven segment rotation and pruning.
//
// Durability contract: Append (or the wait function returned by Stage)
// returns nil only after the record's batch has been fsynced to the current
// segment. A crash at any instant loses at most the records whose appends
// had not yet returned — never an acknowledged one, and never a prefix gap:
// records become durable in exactly the order they were staged.
//
// Fail-stop: a failed write or fsync marks the log broken and every
// subsequent append fails immediately. After a failed fsync the kernel may
// have dropped arbitrary dirty pages, so "retry and hope" would turn a
// reported error into silent loss; the process must restart and recover.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qagview/internal/faultinject"
	"qagview/internal/obs"
)

const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

// Metrics count a log's traffic. The caller owns them, so a server can
// declare them in its metrics registry before the log is opened.
type Metrics struct {
	Appends obs.Counter // records staged
	Batches obs.Counter // group commits written
	Fsyncs  obs.Counter
	Bytes   obs.Counter // frame bytes staged by this process
	FsyncMs obs.Histogram
}

// Log is an append-only record log over numbered segment files. All methods
// are goroutine-safe.
type Log struct {
	dir string

	// ioMu serializes file operations (batch commits, rotation); mu guards
	// the staging state and is never held across I/O, so appends stage — and
	// pile into the next group commit — while an fsync is in flight.
	ioMu sync.Mutex
	mu   sync.Mutex

	f        *os.File // current segment (swapped under ioMu+mu)
	seq      uint64   // current segment sequence number
	pending  []byte   // staged frames awaiting the next commit
	waiters  []chan error
	flushing bool
	broken   error // sticky first failure; all later appends return it
	size     int64 // on-disk bytes across live segments

	m *Metrics
}

// segName renders a segment filename; the fixed-width sequence keeps
// lexicographic order equal to numeric order for directory listings.
func segName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// segSeq parses a segment filename, reporting ok=false for foreign files.
func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(digits) == 0 {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the directory's segment paths in sequence order.
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type seg struct {
		path string
		seq  uint64
	}
	var segs []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := segSeq(e.Name()); ok {
			segs = append(segs, seg{filepath.Join(dir, e.Name()), seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	paths := make([]string, len(segs))
	seqs := make([]uint64, len(segs))
	for i, s := range segs {
		paths[i] = s.path
		seqs[i] = s.seq
	}
	return paths, seqs, nil
}

// syncDir fsyncs the directory so segment creations, renames, and removals
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Stage appends the record to the in-memory commit buffer and returns a
// wait function that blocks until the record's batch is durable (or fails).
// Staging is cheap and non-blocking — callers that must order records
// against other state may stage under their own lock and wait outside it.
// Records staged in sequence become durable in the same sequence.
func (l *Log) Stage(rec Record) func() error {
	frame := appendFrame(nil, rec)
	ch := make(chan error, 1)
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return func() error { return err }
	}
	l.pending = append(l.pending, frame...)
	l.waiters = append(l.waiters, ch)
	l.size += int64(len(frame))
	start := !l.flushing
	if start {
		l.flushing = true
	}
	l.mu.Unlock()
	l.m.Appends.Inc()
	l.m.Bytes.Add(int64(len(frame)))
	faultinject.Crash(faultinject.CrashWALAppendStaged)
	if start {
		go l.flushLoop()
	}
	return func() error { return <-ch }
}

// Append stages the record and waits for it to be durable.
func (l *Log) Append(rec Record) error { return l.Stage(rec)() }

// Sync waits until everything staged before the call is durable (graceful
// drain). It returns the sticky error if the log is broken.
func (l *Log) Sync() error {
	ch := make(chan error, 1)
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return err
	}
	if !l.flushing && len(l.pending) == 0 {
		l.mu.Unlock()
		return nil
	}
	l.waiters = append(l.waiters, ch)
	start := !l.flushing
	if start {
		l.flushing = true
	}
	l.mu.Unlock()
	if start {
		go l.flushLoop()
	}
	return <-ch
}

// flushLoop drains the staging buffer in batches: each iteration takes
// everything staged so far, writes it with one write call, and fsyncs once
// — the group commit. It exits when the buffer is empty.
func (l *Log) flushLoop() {
	for {
		l.ioMu.Lock()
		l.mu.Lock()
		if len(l.pending) == 0 && len(l.waiters) == 0 {
			l.flushing = false
			l.mu.Unlock()
			l.ioMu.Unlock()
			return
		}
		buf := l.pending
		ws := l.waiters
		l.pending = nil
		l.waiters = nil
		f := l.f
		l.mu.Unlock()
		err := l.commit(f, buf)
		l.ioMu.Unlock()
		if err != nil {
			l.mu.Lock()
			if l.broken == nil {
				l.broken = err
			}
			l.mu.Unlock()
		}
		for _, ch := range ws {
			ch <- err
		}
	}
}

// commit writes one batch and makes it durable with a single fsync.
func (l *Log) commit(f *os.File, buf []byte) error {
	if len(buf) > 0 {
		if err := faultinject.Err(faultinject.ErrWALWrite); err != nil {
			if faultinject.ShortWrite(faultinject.ErrWALWrite) {
				_, _ = f.Write(buf[:len(buf)/2]) // leave a genuinely torn tail
			}
			return fmt.Errorf("wal: write: %w", err)
		}
		n, err := f.Write(buf)
		if err != nil {
			return fmt.Errorf("wal: write: %w", err)
		}
		if n != len(buf) {
			return fmt.Errorf("wal: short write: %d of %d bytes", n, len(buf))
		}
	}
	faultinject.Crash(faultinject.CrashWALFsyncBefore)
	if err := faultinject.Err(faultinject.ErrWALSync); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.m.FsyncMs.Observe(time.Since(t0))
	faultinject.Crash(faultinject.CrashWALFsyncAfter)
	l.m.Batches.Inc()
	l.m.Fsyncs.Inc()
	return nil
}

// Rotate seals the current segment and starts a new one, returning the
// paths of all sealed segments (every segment but the new one). Checkpoints
// call it first: records staged after Rotate land in the new segment, so
// once the checkpoint's table snapshots are durable the sealed segments are
// fully covered and can be handed to Prune.
func (l *Log) Rotate() ([]string, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return nil, err
	}
	seq := l.seq + 1
	l.mu.Unlock()

	nf, err := os.OpenFile(filepath.Join(l.dir, segName(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: rotate: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		return nil, fmt.Errorf("wal: rotate: sync dir: %w", err)
	}

	l.mu.Lock()
	old := l.f
	l.f = nf
	l.seq = seq
	l.mu.Unlock()
	if err := old.Close(); err != nil {
		return nil, fmt.Errorf("wal: rotate: close sealed segment: %w", err)
	}
	faultinject.Crash(faultinject.CrashWALRotateSealed)

	paths, seqs, err := listSegments(l.dir)
	if err != nil {
		return nil, err
	}
	sealed := make([]string, 0, len(paths))
	for i, p := range paths {
		if seqs[i] < seq {
			sealed = append(sealed, p)
		}
	}
	return sealed, nil
}

// Prune deletes sealed segments (from a previous Rotate) whose records are
// covered by durable snapshots, and reclaims their bytes from SizeBytes.
func (l *Log) Prune(sealed []string) error {
	faultinject.Crash(faultinject.CrashWALPruneBefore)
	var freed int64
	for _, p := range sealed {
		if fi, err := os.Stat(p); err == nil {
			freed += fi.Size()
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: prune: %w", err)
		}
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: prune: sync dir: %w", err)
	}
	faultinject.Crash(faultinject.CrashWALPruneAfter)
	l.mu.Lock()
	l.size -= freed
	l.mu.Unlock()
	return nil
}

// SizeBytes returns the on-disk byte total across live segments (staged
// bytes included): the checkpoint trigger.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Broken reports whether the log has gone fail-stop (or was closed).
func (l *Log) Broken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken != nil
}

// Close flushes staged records and closes the current segment. Appends
// after Close fail.
func (l *Log) Close() error {
	syncErr := l.Sync()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.broken == nil {
		l.broken = fmt.Errorf("wal: closed")
	}
	f := l.f
	l.f = nil
	l.mu.Unlock()
	if f != nil {
		if err := f.Close(); err != nil && syncErr == nil {
			return err
		}
	}
	return syncErr
}
