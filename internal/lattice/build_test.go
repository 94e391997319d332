package lattice

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qagview/internal/pattern"
)

// assertIndexBitIdentical compares every observable of two indexes: cluster
// ids and patterns, coverage lists, exact value-sum bits, singleton and
// all-star wiring, and the arena length.
func assertIndexBitIdentical(t *testing.T, label string, a, b *Index) {
	t.Helper()
	if a.NumClusters() != b.NumClusters() {
		t.Fatalf("%s: %d clusters vs %d", label, a.NumClusters(), b.NumClusters())
	}
	for i := range a.Clusters {
		ca, cb := &a.Clusters[i], &b.Clusters[i]
		if ca.ID != cb.ID || !pattern.Equal(ca.Pat, cb.Pat) {
			t.Fatalf("%s: cluster %d is (%d, %v) vs (%d, %v)", label, i, ca.ID, ca.Pat, cb.ID, cb.Pat)
		}
		if len(ca.Cov) != len(cb.Cov) {
			t.Fatalf("%s: cluster %d coverage %d vs %d", label, i, len(ca.Cov), len(cb.Cov))
		}
		for j := range ca.Cov {
			if ca.Cov[j] != cb.Cov[j] {
				t.Fatalf("%s: cluster %d cov[%d] = %d vs %d", label, i, j, ca.Cov[j], cb.Cov[j])
			}
		}
		if math.Float64bits(ca.Sum) != math.Float64bits(cb.Sum) {
			t.Fatalf("%s: cluster %d sum %v (%x) vs %v (%x)",
				label, i, ca.Sum, math.Float64bits(ca.Sum), cb.Sum, math.Float64bits(cb.Sum))
		}
	}
	for rank := 0; rank < a.L; rank++ {
		if a.Singleton(rank).ID != b.Singleton(rank).ID {
			t.Fatalf("%s: singleton %d is %d vs %d", label, rank, a.Singleton(rank).ID, b.Singleton(rank).ID)
		}
	}
	if a.AllStar().ID != b.AllStar().ID {
		t.Fatalf("%s: all-star %d vs %d", label, a.AllStar().ID, b.AllStar().ID)
	}
	if a.CoverageArenaLen() != b.CoverageArenaLen() {
		t.Fatalf("%s: arena %d vs %d", label, a.CoverageArenaLen(), b.CoverageArenaLen())
	}
}

// TestBuildIndexPackedMatchesSlice pins the packed fast path against the
// slice-keyed fallback: the same space must build a bit-identical index
// either way (the packed representation is an encoding change, not a
// semantic one).
func TestBuildIndexPackedMatchesSlice(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s := randomSpace(t, 40+seed, 150, 5, 4)
		packed, pstats, err := BuildIndexStats(context.Background(), s, 25, true)
		if err != nil {
			t.Fatal(err)
		}
		if !pstats.PackedKeys || !packed.PackedKeys() {
			t.Fatal("packed fast path should engage on a small-domain space")
		}
		slice, sstats, err := BuildIndexStats(context.Background(), s, 25, true, WithSliceKeys())
		if err != nil {
			t.Fatal(err)
		}
		if sstats.PackedKeys || slice.PackedKeys() {
			t.Fatal("WithSliceKeys should force the fallback")
		}
		if pstats.MappingOps != sstats.MappingOps || pstats.Generated != sstats.Generated {
			t.Fatalf("work counters differ: %+v vs %+v", pstats, sstats)
		}
		assertIndexBitIdentical(t, fmt.Sprintf("seed%d", seed), packed, slice)
	}
}

// TestBuildIndexParallelismDeterministic pins the parallel phase-2 build:
// every worker count, on both key representations, must produce the
// sequential index bit for bit.
func TestBuildIndexParallelismDeterministic(t *testing.T) {
	s := randomSpace(t, 50, 300, 5, 3)
	for _, keyOpts := range [][]BuildOption{nil, {WithSliceKeys()}} {
		base, err := BuildIndex(s, 40, append([]BuildOption{BuildParallelism(1)}, keyOpts...)...)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 3, 4, 8, 1000} {
			ix, err := BuildIndex(s, 40, append([]BuildOption{BuildParallelism(par)}, keyOpts...)...)
			if err != nil {
				t.Fatal(err)
			}
			assertIndexBitIdentical(t, fmt.Sprintf("packed=%v/par=%d", base.PackedKeys(), par), base, ix)
		}
	}
}

// TestBuildIndexIdOpsMatchPatternOps: the id-based Distance/Covers accessors
// must agree with the slice pattern algebra on both representations.
func TestBuildIndexIdOpsMatchPatternOps(t *testing.T) {
	s := randomSpace(t, 51, 80, 4, 3)
	for _, opts := range [][]BuildOption{nil, {WithSliceKeys()}} {
		ix, err := BuildIndex(s, 15, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(52))
		for i := 0; i < 2000; i++ {
			a := int32(rng.Intn(ix.NumClusters()))
			b := int32(rng.Intn(ix.NumClusters()))
			pa, pb := ix.Clusters[a].Pat, ix.Clusters[b].Pat
			if got, want := ix.Distance(a, b), pattern.Distance(pa, pb); got != want {
				t.Fatalf("packed=%v Distance(%v, %v) = %d, want %d", ix.PackedKeys(), pa, pb, got, want)
			}
			if got, want := ix.Covers(a, b), pa.Covers(pb); got != want {
				t.Fatalf("packed=%v Covers(%v, %v) = %v, want %v", ix.PackedKeys(), pa, pb, got, want)
			}
		}
	}
}

// TestBuildIndexAttributeBoundary exercises both sides of the shared
// pattern.MaxAttrs bound end to end: a MaxAttrs-wide space builds, one more
// attribute is rejected.
func TestBuildIndexAttributeBoundary(t *testing.T) {
	row := make([]string, pattern.MaxAttrs)
	for j := range row {
		row[j] = "v"
	}
	s, err := NewSpace(attrNames(pattern.MaxAttrs), [][]string{row}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(s, 1)
	if err != nil {
		t.Fatalf("m = MaxAttrs should build: %v", err)
	}
	if want := 1 << pattern.MaxAttrs; ix.NumClusters() != want {
		t.Fatalf("m = MaxAttrs generated %d clusters, want %d", ix.NumClusters(), want)
	}

	wideRow := make([]string, pattern.MaxAttrs+1)
	for j := range wideRow {
		wideRow[j] = "v"
	}
	wide, err := NewSpace(attrNames(pattern.MaxAttrs+1), [][]string{wideRow}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndex(wide, 1); err == nil {
		t.Fatal("m = MaxAttrs+1 should be rejected")
	}
}

// TestBuildStatsPhases sanity-checks the new BuildStats fields: phases are
// timed, the worker count is clamped and honored, and the naive path reports
// a single worker.
func TestBuildStatsPhases(t *testing.T) {
	s := randomSpace(t, 53, 120, 4, 3)
	_, st, err := BuildIndexStats(context.Background(), s, 20, true, BuildParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	if st.GenerateMs < 0 || st.MapMs < 0 || st.AssembleMs < 0 {
		t.Errorf("negative phase timing: %+v", st)
	}
	_, st, err = BuildIndexStats(context.Background(), s, 20, true, BuildParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Errorf("parallelism 0 clamps to 1 worker, got %d", st.Workers)
	}
	_, st, err = BuildIndexStats(context.Background(), s, 20, false, BuildParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Errorf("naive path reports %d workers, want 1", st.Workers)
	}
}
