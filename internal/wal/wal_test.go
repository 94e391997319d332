package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// collect opens dir and gathers every replayed record.
func collect(t *testing.T, dir string) (*Log, []Record, *ReplayInfo) {
	t.Helper()
	return collectInto(t, dir, nil)
}

// collectInto is collect counting the log's traffic into m.
func collectInto(t *testing.T, dir string, m *Metrics) (*Log, []Record, *ReplayInfo) {
	t.Helper()
	var recs []Record
	if m == nil {
		m = new(Metrics)
	}
	l, info, err := OpenMetered(dir, m, func(r Record) error {
		// Table/Data alias the scan buffer; copy for later comparison.
		recs = append(recs, Record{Op: r.Op, Table: r.Table, Gen: r.Gen, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs, info
}

func rec(i int) Record {
	return Record{Op: 2, Table: "t", Gen: uint64(i + 1), Data: []byte(fmt.Sprintf("row-%d", i))}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var m Metrics
	l, recs, info := collectInto(t, dir, &m)
	if len(recs) != 0 || info.Segments != 0 {
		t.Fatalf("fresh dir: got %d records, %d segments", len(recs), info.Segments)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if m.Appends.Load() != n || m.Fsyncs.Load() == 0 || m.Bytes.Load() == 0 {
		t.Fatalf("metrics after appends: appends %d, fsyncs %d, bytes %d", m.Appends.Load(), m.Fsyncs.Load(), m.Bytes.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, got, info := collect(t, dir)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	if info.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", info.TruncatedBytes)
	}
	for i, r := range got {
		want := rec(i)
		if r.Op != want.Op || r.Table != want.Table || r.Gen != want.Gen || !bytes.Equal(r.Data, want.Data) {
			t.Fatalf("record %d: got %+v want %+v", i, r, want)
		}
	}
}

func TestEmptyLogAndEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l, recs, _ := collect(t, dir)
	if len(recs) != 0 {
		t.Fatalf("empty dir replayed %d records", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Reopen over the zero-length segment Close left behind.
	l2, recs, info := collect(t, dir)
	if len(recs) != 0 || info.Segments != 1 || info.SizeBytes != 0 {
		t.Fatalf("empty segment: records=%d segments=%d size=%d", len(recs), info.Segments, info.SizeBytes)
	}
	if err := l2.Append(rec(0)); err != nil {
		t.Fatalf("append after empty reopen: %v", err)
	}
	l2.Close()
	_, recs, _ = collect(t, dir)
	if len(recs) != 1 {
		t.Fatalf("got %d records after append to reopened empty log", len(recs))
	}
}

// seg1 returns the path of the first segment.
func seg1(t *testing.T, dir string) string {
	t.Helper()
	paths, _, err := listSegments(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return paths[0]
}

func TestTornFinalRecordTruncated(t *testing.T) {
	for _, cut := range []int{1, 4, 7, 11} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := collect(t, dir)
			for i := 0; i < 3; i++ {
				if err := l.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			p := seg1(t, dir)
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(p, fi.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			l2, recs, info := collect(t, dir)
			if len(recs) != 2 {
				t.Fatalf("torn tail: replayed %d records, want 2", len(recs))
			}
			if info.TruncatedBytes == 0 {
				t.Fatalf("torn tail not reported: %+v", info)
			}
			// The log must keep working after the repair, and the repaired
			// tail must replay cleanly.
			if err := l2.Append(rec(9)); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			l2.Close()
			_, recs, info = collect(t, dir)
			if len(recs) != 3 || info.TruncatedBytes != 0 {
				t.Fatalf("after repair+append: %d records, truncated=%d", len(recs), info.TruncatedBytes)
			}
			if recs[2].Gen != rec(9).Gen {
				t.Fatalf("appended record lost after repair: %+v", recs[2])
			}
		})
	}
}

func TestZeroPaddedTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir)
	for i := 0; i < 2; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	f, err := os.OpenFile(seg1(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 37)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, recs, info := collect(t, dir)
	if len(recs) != 2 || info.TruncatedBytes != 37 {
		t.Fatalf("zero tail: records=%d truncated=%d", len(recs), info.TruncatedBytes)
	}
}

func TestCorruptCRCMidLogFailsStop(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir)
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	p := seg1(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST record: later records are intact,
	// so this cannot be a torn tail and replay must refuse to continue.
	data[frameHeaderSize+3] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, func(Record) error { return nil })
	if err == nil {
		t.Fatal("Open succeeded over a mid-log CRC corruption")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") || !strings.Contains(err.Error(), "refusing to skip") {
		t.Fatalf("corruption error should be explicit about fail-stop, got: %v", err)
	}
}

func TestTornRecordInSealedSegmentFailsStop(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir)
	if err := l.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	p := seg1(t, dir)
	fi, _ := os.Stat(p)
	if err := os.Truncate(p, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "sealed segment") {
		t.Fatalf("torn sealed segment must fail-stop, got: %v", err)
	}
}

func TestRotateAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir)
	for i := 0; i < 4; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 1 {
		t.Fatalf("sealed %d segments, want 1", len(sealed))
	}
	for i := 4; i < 6; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Both segments replay, in order, before any prune.
	_, recs, info := collect(t, dir)
	if len(recs) != 6 || info.Segments != 2 {
		t.Fatalf("pre-prune: %d records over %d segments", len(recs), info.Segments)
	}
	for i, r := range recs {
		if r.Gen != uint64(i+1) {
			t.Fatalf("record %d out of order: gen %d", i, r.Gen)
		}
	}

	l2, _, _ := collect(t, dir)
	if err := l2.Prune(sealed); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, info = collect(t, dir)
	if len(recs) != 2 || info.Segments != 1 {
		t.Fatalf("post-prune: %d records over %d segments", len(recs), info.Segments)
	}
	if recs[0].Gen != 5 || recs[1].Gen != 6 {
		t.Fatalf("post-prune records: %+v", recs)
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var m Metrics
	l, _, _ := collectInto(t, dir, &m)
	const writers, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers*per)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				errs <- l.Append(Record{Op: 2, Table: "t", Gen: 1, Data: []byte(fmt.Sprintf("w%d-%d", w, i))})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent append: %v", err)
		}
	}
	appends, batches := m.Appends.Load(), m.Batches.Load()
	if appends != writers*per {
		t.Fatalf("appends = %d, want %d", appends, writers*per)
	}
	// Group commit: batches can never exceed appends, and with 8 goroutines
	// racing one fsync the batch count is essentially always lower; assert
	// only the invariant to stay deterministic.
	if batches > appends || batches == 0 {
		t.Fatalf("batches = %d vs appends = %d", batches, appends)
	}
	l.Close()
	_, recs, _ := collect(t, dir)
	if len(recs) != writers*per {
		t.Fatalf("replayed %d, want %d", len(recs), writers*per)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := collect(t, dir)
	l.Close()
	if err := l.Append(rec(0)); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "tables"), 0o755); err != nil {
		t.Fatal(err)
	}
	l, recs, info := collect(t, dir)
	if len(recs) != 0 || info.Segments != 0 {
		t.Fatalf("foreign files treated as segments: %+v", info)
	}
	l.Close()
}
