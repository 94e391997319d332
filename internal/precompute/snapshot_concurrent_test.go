package precompute

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
)

// solutionFingerprint renders a solution into a comparable string (cluster
// ids plus the exact objective bits).
func solutionFingerprint(t *testing.T, st *Store, k, d int) string {
	t.Helper()
	sol, err := st.Solution(k, d)
	if err != nil {
		t.Fatalf("Solution(%d, %d): %v", k, d, err)
	}
	var sb bytes.Buffer
	for _, c := range sol.Clusters {
		fmt.Fprintf(&sb, "%d,", c.ID)
	}
	fmt.Fprintf(&sb, "|%x", math.Float64bits(sol.AvgValue()))
	return sb.String()
}

// TestEncodeDecodeConcurrentReaders checks the snapshot round trip under
// load: a decoded store must serve exactly the original's solutions to many
// goroutines at once (Solution reconstructs state per call, so concurrent
// reads share only immutable data), report zero ReplayStats by design, and
// concurrent Encode calls on the shared original must be race-free.
func TestEncodeDecodeConcurrentReaders(t *testing.T) {
	ix := randomIndex(t, 31, 120, 4, 4, 30)
	const kMin, kMax = 1, 8
	ds := []int{0, 1, 2, 3}
	orig, err := Run(ix, 30, kMin, kMax, ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()), ix)
	if err != nil {
		t.Fatal(err)
	}
	if rs := dec.ReplayStats(); rs.Replays != 0 || rs.PooledReuses != 0 || rs.LCAMemoHits != 0 {
		t.Fatalf("decoded store must report zero ReplayStats (the sweep ran elsewhere), got %+v", rs)
	}
	if got, want := dec.SizeBytes(), orig.SizeBytes(); got != want {
		t.Fatalf("decoded SizeBytes = %d, want %d", got, want)
	}
	if orig.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", orig.SizeBytes())
	}

	// Reference fingerprints from the original, sequentially.
	want := map[[2]int]string{}
	for _, d := range ds {
		for k := kMin; k <= kMax; k++ {
			want[[2]int{k, d}] = solutionFingerprint(t, orig, k, d)
		}
	}

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger start points so goroutines hit different entries at
			// the same time.
			for i := 0; i < 3*len(want); i++ {
				d := ds[(g+i)%len(ds)]
				k := kMin + (g*7+i)%(kMax-kMin+1)
				sol, err := dec.Solution(k, d)
				if err != nil {
					errs <- fmt.Errorf("reader %d: Solution(%d, %d): %v", g, k, d, err)
					return
				}
				var sb bytes.Buffer
				for _, c := range sol.Clusters {
					fmt.Fprintf(&sb, "%d,", c.ID)
				}
				fmt.Fprintf(&sb, "|%x", math.Float64bits(sol.AvgValue()))
				if sb.String() != want[[2]int{k, d}] {
					errs <- fmt.Errorf("reader %d: Solution(%d, %d) diverged from original", g, k, d)
					return
				}
				if v, err := dec.Value(k, d); err != nil {
					errs <- fmt.Errorf("reader %d: Value(%d, %d): %v", g, k, d, err)
					return
				} else if ov, _ := orig.Value(k, d); math.Float64bits(v) != math.Float64bits(ov) {
					errs <- fmt.Errorf("reader %d: Value(%d, %d) = %v, want %v", g, k, d, v, ov)
					return
				}
				if g := dec.Guidance(); !g.Stored(d, k) {
					errs <- fmt.Errorf("Guidance.Stored(%d, %d) = false on decoded store", d, k)
					return
				}
			}
		}(g)
	}
	// Two concurrent encoders on the shared original store, racing the
	// readers above (Encode only reads).
	encoded := make([][]byte, 2)
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			var b bytes.Buffer
			if err := orig.Encode(&b); err != nil {
				errs <- fmt.Errorf("encoder %d: %v", e, err)
				return
			}
			encoded[e] = b.Bytes()
		}(e)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Concurrent encodes must agree byte for byte and decode to stores
	// serving the original solutions.
	for e, raw := range encoded {
		if len(raw) == 0 {
			continue // errored above
		}
		if !bytes.Equal(raw, buf.Bytes()) {
			t.Fatalf("concurrent encode %d differs from the sequential encode", e)
		}
		st, err := Decode(bytes.NewReader(raw), ix)
		if err != nil {
			t.Fatalf("decoding concurrent encode %d: %v", e, err)
		}
		if got := solutionFingerprint(t, st, kMax/2, ds[1]); got != want[[2]int{kMax / 2, ds[1]}] {
			t.Fatalf("concurrent encode %d decoded to a diverged store", e)
		}
	}
}
