package summarize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qagview/internal/lattice"
)

// assertTracesEqual compares two per-D sweep traces bit for bit: state
// sizes, cluster id sets, exact sum bits, and counts.
func assertTracesEqual(t *testing.T, label string, got, want *SweepStates) {
	t.Helper()
	if got.D != want.D || len(got.States) != len(want.States) {
		t.Fatalf("%s: trace shape (D=%d, %d states) vs (D=%d, %d states)",
			label, got.D, len(got.States), want.D, len(want.States))
	}
	for i := range got.States {
		g, w := &got.States[i], &want.States[i]
		if g.Size != w.Size || g.Count != w.Count {
			t.Fatalf("%s: state %d is (size %d, count %d) vs (size %d, count %d)",
				label, i, g.Size, g.Count, w.Size, w.Count)
		}
		if math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			t.Fatalf("%s: state %d sum %v vs %v", label, i, g.Sum, w.Sum)
		}
		for j := range g.Clusters {
			if g.Clusters[j] != w.Clusters[j] {
				t.Fatalf("%s: state %d cluster[%d] = %d vs %d", label, i, j, g.Clusters[j], w.Clusters[j])
			}
		}
	}
}

// rebuildEdited returns the index BuildIndex makes over the answer set behind
// ix after an edit: the two lowest-ranked rows dropped and six rows appended,
// drawn from the active domains (one of them a new leader that reorders the
// top L when leader is set) with values below the top L otherwise.
func rebuildEdited(t *testing.T, ix *lattice.Index, seed int64, leader bool) *lattice.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := ix.Space
	rows := make([][]string, 0, s.N()+4)
	vals := make([]float64, 0, s.N()+4)
	for i := 0; i < s.N()-2; i++ {
		rows = append(rows, s.Render(s.Tuples[i]))
		vals = append(vals, s.Vals[i])
	}
	for i := 0; i < 6; i++ {
		row := make([]string, s.M())
		for j := range row {
			dom := s.Dicts[j].Values()
			row[j] = dom[rng.Intn(len(dom))]
		}
		rows = append(rows, row)
		if leader && i == 0 {
			vals = append(vals, s.Vals[0]+1)
		} else {
			vals = append(vals, s.Vals[ix.L-1]-1-rng.Float64())
		}
	}
	ns, err := lattice.NewSpace(s.Attrs, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	nix, err := lattice.BuildIndex(ns, ix.L)
	if err != nil {
		t.Fatal(err)
	}
	return nix
}

// TestWarmSweeperMatchesCold pins the warm-start contract: a sweeper warmed
// onto a rebuilt index — reusing the previous generation's replay states —
// replays every (k, D) trace bit-identically to a cold sweeper built from
// scratch, across a chain of edits with and without top-L churn.
func TestWarmSweeperMatchesCold(t *testing.T) {
	ix := randomIndex(t, 555, 120, 4, 4, 30)
	const L, kMax = 30, 12
	sw, err := NewSweeper(ix, L, kMax)
	if err != nil {
		t.Fatal(err)
	}
	// Populate the pool so Warm has states to migrate.
	for d := 0; d <= ix.Space.M(); d++ {
		if _, err := sw.RunD(d, 1); err != nil {
			t.Fatal(err)
		}
	}
	for step, leader := range []bool{false, true, false} {
		nix := rebuildEdited(t, ix, 600+int64(step), leader)
		warm, err := sw.Warm(nix)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewSweeper(nix, L, kMax)
		if err != nil {
			t.Fatal(err)
		}
		if warm.PoolSize() != cold.PoolSize() {
			t.Fatalf("step %d: warm pool %d vs cold %d", step, warm.PoolSize(), cold.PoolSize())
		}
		for d := 0; d <= nix.Space.M(); d++ {
			wt, err := warm.RunD(d, 1)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := cold.RunD(d, 1)
			if err != nil {
				t.Fatal(err)
			}
			assertTracesEqual(t, fmt.Sprintf("step%d/D%d", step, d), wt, ct)
		}
		if reuses := warm.Stats().PooledReuses; reuses == 0 {
			t.Fatalf("step %d: warm sweeper never reused a migrated replay state", step)
		}
		ix, sw = nix, warm
	}
}

// TestWarmSweeperRejectsBadIndex pins Warm's validation: an index whose L is
// below the sweeper's shared-phase L cannot host the replays.
func TestWarmSweeperRejectsBadIndex(t *testing.T) {
	ix := randomIndex(t, 556, 60, 3, 5, 20)
	sw, err := NewSweeper(ix, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	small := randomIndex(t, 557, 60, 3, 5, 10) // L = 10 < 20
	if _, err := sw.Warm(small); err == nil {
		t.Fatal("want an error warming onto an index with smaller L")
	}
}
