package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ReplayInfo reports what Open found and repaired.
type ReplayInfo struct {
	// Segments is the number of pre-existing segment files scanned.
	Segments int
	// Records is the number of records replayed.
	Records int
	// TruncatedBytes counts torn-tail bytes cut from the final segment (a
	// record the crash interrupted mid-write; it was never acknowledged).
	TruncatedBytes int64
	// SizeBytes is the on-disk byte total after repair.
	SizeBytes int64
}

// Open replays every record in dir through fn, in append order, repairs the
// final segment's torn tail if the last crash left one, and returns a Log
// appending to the end of the repaired tail.
//
// Corruption semantics are fail-stop: a record whose bytes are all present
// but whose CRC disagrees is a storage fault, not a crash artifact — Open
// returns an error rather than skipping it, because every later record may
// depend on the lost one. Only an *incomplete* final record (the file ends
// before the declared payload does, or the tail is all zeroes) is a torn
// write, and only in the final segment; a torn record in a sealed segment
// is corruption too.
//
// fn must be side-effect-safe against a later Open error only in the sense
// the caller defines; Open itself stops at the first fn error.
func Open(dir string, fn func(Record) error) (*Log, *ReplayInfo, error) {
	return OpenMetered(dir, new(Metrics), fn)
}

// OpenMetered is Open with the log counting its traffic into m, which the
// caller owns: a server declares m in its metrics registry before the log
// exists.
func OpenMetered(dir string, m *Metrics, fn func(Record) error) (*Log, *ReplayInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	paths, seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	info := &ReplayInfo{Segments: len(paths)}
	for i, p := range paths {
		last := i == len(paths)-1
		valid, n, size, err := scanSegment(p, last, fn)
		if err != nil {
			return nil, nil, err
		}
		info.Records += n
		if valid < size {
			if err := os.Truncate(p, valid); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", p, err)
			}
			info.TruncatedBytes += size - valid
		}
		info.SizeBytes += valid
	}

	l := &Log{dir: dir, m: m}
	if len(paths) == 0 {
		l.seq = 1
		f, err := os.OpenFile(filepath.Join(dir, segName(l.seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, err
		}
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.f = f
	} else {
		l.seq = seqs[len(seqs)-1]
		f, err := os.OpenFile(paths[len(paths)-1], os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		l.f = f
	}
	l.size = info.SizeBytes
	return l, info, nil
}

// scanSegment replays one segment, returning the offset of the last valid
// frame boundary, the record count, and the file size. A torn tail is
// reported via valid < size; corruption is an error.
func scanSegment(path string, last bool, fn func(Record) error) (valid int64, n int, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	size = int64(len(data))
	off := 0
	torn := func(reason string) (int64, int, int64, error) {
		if !last {
			return 0, 0, 0, fmt.Errorf("wal: %s: %s at offset %d in a sealed segment — corruption, not a crash tail", path, reason, off)
		}
		return int64(off), n, size, nil
	}
	for off < len(data) {
		rem := data[off:]
		if len(rem) < frameHeaderSize {
			return torn("incomplete frame header")
		}
		ln := binary.LittleEndian.Uint32(rem)
		crc := binary.LittleEndian.Uint32(rem[4:])
		if ln == 0 || ln > MaxRecordBytes {
			if allZero(rem) {
				return torn("zero tail")
			}
			return 0, 0, 0, fmt.Errorf("wal: %s: implausible record length %d at offset %d: corrupt log (refusing to skip records)", path, ln, off)
		}
		if frameHeaderSize+int(ln) > len(rem) {
			return torn(fmt.Sprintf("record of %d bytes cut off by end of file", ln))
		}
		payload := rem[frameHeaderSize : frameHeaderSize+int(ln)]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return 0, 0, 0, fmt.Errorf("wal: %s: checksum mismatch at offset %d (stored %08x, computed %08x): corrupt log (refusing to skip records)", path, off, crc, got)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("wal: %s: undecodable record at offset %d: %w", path, off, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return 0, 0, 0, fmt.Errorf("wal: %s: applying record at offset %d: %w", path, off, err)
			}
		}
		off += frameHeaderSize + int(ln)
		n++
	}
	return int64(off), n, size, nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
