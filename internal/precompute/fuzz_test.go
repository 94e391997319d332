package precompute

import (
	"bytes"
	"testing"
)

// FuzzDecodeStore decodes arbitrary bytes against a fixed small index — the
// warm-restart path reads whatever sits in the data directory. Decode may
// reject the input, but a store it accepts must serve its whole grid
// (Solution, Value, Guidance) without panicking. Seeds are real encoded
// stores.
func FuzzDecodeStore(f *testing.F) {
	ix := randomIndex(f, 5, 60, 4, 4, 15)
	for _, ds := range [][]int{{1}, {0, 2}, {1, 2, 3}} {
		st, err := Run(ix, 15, 1, 8, ds)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(bytes.NewReader(data), ix)
		if err != nil {
			return
		}
		g := st.Guidance()
		for _, d := range st.Ds {
			if len(g.Series[d]) != st.KMax-st.KMin+1 {
				t.Fatalf("guidance series for D = %d has %d values, grid has %d", d, len(g.Series[d]), st.KMax-st.KMin+1)
			}
			for k := st.KMin; k <= st.KMax; k++ {
				_, _ = st.Solution(k, d)
				_, _ = st.Value(k, d)
			}
		}
		_ = st.StoredIntervals()
		_ = st.SizeBytes()
	})
}
