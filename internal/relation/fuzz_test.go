package relation

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzCSVLoad throws adversarial CSV at the loader, with the first input
// byte selecting the kind mapping applied to the (up to) first four header
// columns. The loader must never panic: every input either errors cleanly or
// produces a well-formed relation whose values round-trip — through the
// dictionary encoding the cluster space is built on for text columns, and
// through WriteCSV + ReadCSV for the whole relation.
func FuzzCSVLoad(f *testing.F) {
	f.Add([]byte("\x00a,b,c\n1,2,3\n4,5,6\n"))
	f.Add([]byte("\x01a,b\n1,x\n2,y\n"))
	f.Add([]byte("\x02v\n1.5\n-2e9\nNaN\n"))
	f.Add([]byte("\x03\"q,uoted\",plain\n\"a\"\"b\",c\n"))
	f.Add([]byte("\x00a,a\n1,2\n"))                                    // duplicate header
	f.Add([]byte("\x00a,b\n1\n"))                                      // short record
	f.Add([]byte("\x00a,,b\nx,y,z\n"))                                 // empty column name
	f.Add([]byte("\x01n\n9223372036854775807\n9223372036854775808\n")) // int overflow
	f.Add([]byte("\x00\xff\xfe,b\n\x00,\n"))                           // junk bytes
	f.Add([]byte("\x02only_header\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, csvText := data[0], string(data[1:])

		// Derive a kind mapping from the selector byte: two bits per column
		// position over whatever the header turns out to name.
		kinds := map[string]Kind{}
		if header, _, ok := strings.Cut(csvText, "\n"); ok || header != "" {
			cols := strings.Split(header, ",")
			for i, c := range cols {
				if i >= 4 {
					break
				}
				switch (sel >> (2 * i)) & 3 {
				case 1:
					kinds[strings.Trim(c, "\" ")] = KindInt
				case 2:
					kinds[strings.Trim(c, "\" ")] = KindFloat
				}
			}
		}

		rel, err := ReadCSV(strings.NewReader(csvText), "fuzz", kinds)
		if err != nil {
			return // rejected cleanly
		}

		// Accepted inputs produce a rectangular relation...
		for i := 0; i < rel.NumCols(); i++ {
			if rel.Column(i).Len() != rel.NumRows() {
				t.Fatalf("column %q has %d rows, relation has %d", rel.Column(i).Name, rel.Column(i).Len(), rel.NumRows())
			}
		}

		// ...whose text values round-trip through the dictionary encoding
		// (the exact path the cluster space uses for categorical columns).
		for ci := 0; ci < rel.NumCols(); ci++ {
			col := rel.Column(ci)
			if col.Kind != KindString {
				continue
			}
			d := NewDict()
			for row := 0; row < rel.NumRows(); row++ {
				v := col.Str[row]
				id := d.ID(v)
				if got := d.Value(id); got != v {
					t.Fatalf("dictionary round-trip: %q -> %d -> %q", v, id, got)
				}
				if again := d.ID(v); again != id {
					t.Fatalf("interning %q twice gave ids %d and %d", v, id, again)
				}
			}
		}

		// ...and survive a full write/read cycle with identical rendering.
		// One documented encoding/csv asymmetry is excluded: a single-column
		// row holding an empty string serializes as a blank line, which
		// csv.Reader skips on the way back in.
		if rel.NumCols() == 1 {
			for row := 0; row < rel.NumRows(); row++ {
				if rel.StringAt(0, row) == "" {
					return
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatalf("WriteCSV on accepted relation: %v", err)
		}
		kinds2 := map[string]Kind{}
		for i := 0; i < rel.NumCols(); i++ {
			kinds2[rel.Column(i).Name] = rel.Column(i).Kind
		}
		back, err := ReadCSV(&buf, "fuzz2", kinds2)
		if err != nil {
			t.Fatalf("re-reading written CSV: %v", err)
		}
		if back.NumRows() != rel.NumRows() || back.NumCols() != rel.NumCols() {
			t.Fatalf("round-trip shape (%d, %d) vs (%d, %d)", back.NumRows(), back.NumCols(), rel.NumRows(), rel.NumCols())
		}
		for col := 0; col < rel.NumCols(); col++ {
			for row := 0; row < rel.NumRows(); row++ {
				if rel.StringAt(col, row) != back.StringAt(col, row) {
					t.Fatalf("round-trip cell (%d, %d): %q vs %q", col, row, rel.StringAt(col, row), back.StringAt(col, row))
				}
			}
		}
	})
}
