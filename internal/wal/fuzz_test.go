package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALSegment feeds arbitrary bytes to scanSegment as both the final and
// a sealed segment: it must never panic, a clean scan accounts for every
// byte it accepts, and the valid prefix it reports rescans to the same
// records. Appending a freshly framed record to that prefix — what Open
// does after truncating a torn tail — must round-trip the record exactly.
// Seeds are real segment files written by Log.
func FuzzWALSegment(f *testing.F) {
	dir := f.TempDir()
	l, _, err := Open(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(rec(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, byte(2), uint64(4), "t", []byte("row-3"))
	f.Add(seg[:len(seg)-3], byte(1), uint64(1), "", []byte(nil)) // torn tail
	f.Add(append(seg, make([]byte, 16)...), byte(0), uint64(0), "x", []byte("{}"))
	f.Add([]byte{}, byte(255), ^uint64(0), "table", []byte("data"))

	f.Fuzz(func(t *testing.T, data []byte, op byte, gen uint64, table string, payload []byte) {
		path := filepath.Join(t.TempDir(), segName(1))
		write := func(b []byte) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(data)
		if valid, _, size, err := scanSegment(path, false, nil); err == nil && valid != size {
			t.Fatalf("sealed scan accepted %d of %d bytes without an error", valid, size)
		}
		valid, n, size, err := scanSegment(path, true, nil)
		if err != nil {
			return // corruption: fail-stop is the contract
		}
		if valid < 0 || valid > size || size != int64(len(data)) {
			t.Fatalf("scan reported valid %d, size %d for %d bytes", valid, size, len(data))
		}
		prefix := data[:valid]
		write(prefix)
		if v2, n2, _, err := scanSegment(path, true, nil); err != nil || v2 != valid || n2 != n {
			t.Fatalf("valid prefix rescans to (%d, %d, %v), want (%d, %d, nil)", v2, n2, err, valid, n)
		}

		want := Record{Op: op, Table: table, Gen: gen, Data: payload}
		write(appendFrame(append([]byte(nil), prefix...), want))
		var got []Record
		_, n3, _, err := scanSegment(path, true, func(r Record) error {
			got = append(got, Record{Op: r.Op, Table: r.Table, Gen: r.Gen, Data: append([]byte(nil), r.Data...)})
			return nil
		})
		if err != nil || n3 != n+1 {
			t.Fatalf("appended record: scanned %d records (err %v), want %d", n3, err, n+1)
		}
		last := got[len(got)-1]
		if last.Op != want.Op || last.Table != want.Table || last.Gen != want.Gen || !bytes.Equal(last.Data, want.Data) {
			t.Fatalf("record round trip: got %+v, want %+v", last, want)
		}
	})
}
