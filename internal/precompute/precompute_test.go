package precompute

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qagview/internal/lattice"
	"qagview/internal/summarize"
)

func randomIndex(t testing.TB, seed int64, n, m, dom, L int) *lattice.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]string, 0, n)
	vals := make([]float64, 0, n)
	seen := map[string]bool{}
	for len(rows) < n {
		row := make([]string, m)
		key := ""
		boost := 0.0
		for j := range row {
			v := rng.Intn(dom)
			row[j] = fmt.Sprintf("v%d_%d", j, v)
			key += row[j] + "|"
			if v == 0 && j < 2 {
				boost++
			}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, row)
		vals = append(vals, rng.Float64()*2+boost)
	}
	attrs := make([]string, m)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	s, err := lattice.NewSpace(attrs, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := lattice.BuildIndex(s, L)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestRunValidation(t *testing.T) {
	ix := randomIndex(t, 1, 60, 4, 4, 15)
	if _, err := Run(ix, 15, 0, 5, []int{1}); err == nil {
		t.Error("kMin=0: want error")
	}
	if _, err := Run(ix, 15, 6, 5, []int{1}); err == nil {
		t.Error("kMin>kMax: want error")
	}
	if _, err := Run(ix, 15, 1, 5, nil); err == nil {
		t.Error("no Ds: want error")
	}
	if _, err := Run(ix, 15, 1, 5, []int{2, 2}); err == nil {
		t.Error("duplicate D: want error")
	}
	if _, err := Run(ix, 99, 1, 5, []int{1}); err == nil {
		t.Error("L beyond index: want error")
	}
}

// TestRetrievedSolutionsAreFeasible checks that every (k, D) retrieval is a
// feasible solution and its stored value matches the reconstruction.
func TestRetrievedSolutionsAreFeasible(t *testing.T) {
	ix := randomIndex(t, 2, 150, 4, 4, 30)
	kMin, kMax := 2, 12
	ds := []int{1, 2, 3}
	st, err := Run(ix, 30, kMin, kMax, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		for k := kMin; k <= kMax; k++ {
			sol, err := st.Solution(k, d)
			if err != nil {
				t.Fatalf("Solution(%d, %d): %v", k, d, err)
			}
			if err := summarize.Validate(ix, summarize.Params{K: k, L: 30, D: d}, sol); err != nil {
				t.Errorf("Solution(%d, %d) infeasible: %v", k, d, err)
			}
			v, err := st.Value(k, d)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(v-sol.AvgValue()) > 1e-9 {
				t.Errorf("Value(%d,%d) = %v but retrieved solution avg = %v", k, d, v, sol.AvgValue())
			}
		}
	}
}

// TestMatchesUnbatchedSweep cross-checks retrieval against running the
// sweeper directly for each D.
func TestMatchesUnbatchedSweep(t *testing.T) {
	ix := randomIndex(t, 3, 120, 4, 4, 25)
	kMin, kMax := 1, 10
	st, err := Run(ix, 25, kMin, kMax, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := summarize.NewSweeper(ix, 25, kMax)
	if err != nil {
		t.Fatal(err)
	}
	states, err := sw.RunD(2, kMin)
	if err != nil {
		t.Fatal(err)
	}
	for k := kMin; k <= kMax; k++ {
		want, ok := states.SolutionFor(k)
		if !ok {
			t.Fatalf("sweep has no state for k=%d", k)
		}
		got, err := st.Solution(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != len(want.Clusters) {
			t.Errorf("k=%d: retrieved %d clusters, sweep has %d", k, got.Size(), len(want.Clusters))
			continue
		}
		ids := map[int32]bool{}
		for _, c := range got.Clusters {
			ids[c.ID] = true
		}
		for _, id := range want.Clusters {
			if !ids[id] {
				t.Errorf("k=%d: cluster %d missing from retrieval", k, id)
			}
		}
	}
}

func TestGuidanceSeries(t *testing.T) {
	ix := randomIndex(t, 4, 100, 4, 4, 20)
	kMin, kMax := 1, 8
	ds := []int{1, 3}
	st, err := Run(ix, 20, kMin, kMax, ds)
	if err != nil {
		t.Fatal(err)
	}
	g := st.Guidance()
	if g.KMin != kMin || g.KMax != kMax {
		t.Fatalf("guidance range = [%d, %d]", g.KMin, g.KMax)
	}
	for _, d := range ds {
		series := g.Series[d]
		if len(series) != kMax-kMin+1 {
			t.Fatalf("D=%d series length %d", d, len(series))
		}
		// Larger k never hurts the greedy objective within one D replay:
		// the value for k comes from an earlier (less merged) state.
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1]-1e-9 {
				t.Errorf("D=%d: value decreased from k=%d (%v) to k=%d (%v)",
					d, kMin+i-1, series[i-1], kMin+i, series[i])
			}
		}
	}
}

func TestStorageIsCompact(t *testing.T) {
	ix := randomIndex(t, 5, 150, 4, 4, 30)
	kMin, kMax := 1, 15
	st, err := Run(ix, 30, kMin, kMax, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := st.NaiveStoredClusters()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.StoredIntervals(); got >= naive {
		t.Errorf("interval storage %d not smaller than naive %d", got, naive)
	}
}

func TestSolutionErrors(t *testing.T) {
	ix := randomIndex(t, 6, 60, 4, 4, 10)
	st, err := Run(ix, 10, 2, 5, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Solution(3, 9); err == nil {
		t.Error("unknown D: want error")
	}
	if _, err := st.Solution(1, 1); err == nil {
		t.Error("k below range: want error")
	}
	if _, err := st.Solution(6, 1); err == nil {
		t.Error("k above range: want error")
	}
	if _, err := st.Value(3, 9); err == nil {
		t.Error("Value unknown D: want error")
	}
	if _, err := st.Value(99, 1); err == nil {
		t.Error("Value k out of range: want error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ix := randomIndex(t, 7, 120, 4, 4, 25)
	st, err := Run(ix, 25, 2, 10, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2} {
		for k := 2; k <= 10; k++ {
			a, err := st.Solution(k, d)
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.Solution(k, d)
			if err != nil {
				t.Fatal(err)
			}
			if a.Size() != b.Size() || math.Abs(a.AvgValue()-b.AvgValue()) > 1e-12 {
				t.Fatalf("round trip diverged at k=%d D=%d", k, d)
			}
			ids := map[int32]bool{}
			for _, c := range a.Clusters {
				ids[c.ID] = true
			}
			for _, c := range b.Clusters {
				if !ids[c.ID] {
					t.Fatalf("cluster %d missing after round trip", c.ID)
				}
			}
		}
	}
}

func TestDecodeRejectsWrongIndex(t *testing.T) {
	ix := randomIndex(t, 8, 100, 4, 4, 20)
	st, err := Run(ix, 20, 1, 5, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	other := randomIndex(t, 9, 90, 4, 4, 15)
	if _, err := Decode(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("snapshot accepted against a different index")
	}
	if _, err := Decode(bytes.NewReader([]byte("garbage")), ix); err == nil {
		t.Error("garbage accepted")
	}
}

// TestDecodeRejectsMalformedGrid doctors a real snapshot into each shape the
// retrieval paths would index out of bounds on — the truncated objective
// series used to decode and then panic in Value — and requires Decode to
// refuse it.
func TestDecodeRejectsMalformedGrid(t *testing.T) {
	ix := randomIndex(t, 11, 80, 4, 4, 20)
	st, err := Run(ix, 20, 1, 12, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	doctor := func(edit func(*snapshot)) []byte {
		var snap snapshot
		if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		edit(&snap)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	withEntry := func(i int, edit func(*snapshotEntry)) func(*snapshot) {
		return func(snap *snapshot) { edit(&snap.PerD[i]) }
	}
	cases := map[string]func(*snapshot){
		"avg truncated":    withEntry(0, func(e *snapshotEntry) { e.Avg = e.Avg[:1] }),
		"avg too long":     withEntry(1, func(e *snapshotEntry) { e.Avg = append(e.Avg, 1) }),
		"kmin above kmax":  func(snap *snapshot) { snap.KMin, snap.KMax = snap.KMax, snap.KMin },
		"kmin zero":        func(snap *snapshot) { snap.KMin = 0 },
		"d without entry":  func(snap *snapshot) { snap.Ds = append(snap.Ds, 4) },
		"entry without d":  func(snap *snapshot) { snap.Ds = snap.Ds[:2] },
		"entry missing":    func(snap *snapshot) { snap.PerD = snap.PerD[:2] },
		"duplicate d":      func(snap *snapshot) { snap.Ds = []int{1, 1, 2} },
		"min size zero":    withEntry(2, func(e *snapshotEntry) { e.MinSize = 0 }),
		"min size too big": withEntry(2, func(e *snapshotEntry) { e.MinSize = 13 }),
	}
	for name, edit := range cases {
		if _, err := Decode(bytes.NewReader(doctor(edit)), ix); err == nil {
			t.Errorf("%s: doctored snapshot decoded", name)
		}
	}
	// The untouched snapshot still decodes and serves its whole grid.
	back, err := Decode(bytes.NewReader(doctor(func(*snapshot) {})), ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range back.Ds {
		for k := back.KMin; k <= back.KMax; k++ {
			want, werr := st.Value(k, d)
			got, gerr := back.Value(k, d)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("Value(%d, %d) = %v, %v after the round trip, want %v, %v", k, d, got, gerr, want, werr)
			}
		}
	}
}
