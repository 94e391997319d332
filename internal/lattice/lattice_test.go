package lattice

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qagview/internal/pattern"
)

// tinySpace builds the 4-attribute example of Figure 3a.
func tinySpace(t *testing.T) *Space {
	t.Helper()
	rows := [][]string{
		{"a1", "b2", "c1", "d1"},
		{"a1", "b3", "c1", "d1"},
		{"a1", "b4", "c1", "d1"},
		{"a2", "b1", "c1", "d1"},
		{"a2", "b1", "c4", "d1"},
	}
	vals := []float64{5, 4, 3, 2, 1}
	s, err := NewSpace([]string{"A", "B", "C", "D"}, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomSpace(t *testing.T, seed int64, n, m, dom int) *Space {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]string, n)
	vals := make([]float64, n)
	for i := range rows {
		row := make([]string, m)
		for j := range row {
			row[j] = fmt.Sprintf("v%d_%d", j, rng.Intn(dom))
		}
		rows[i] = row
		vals[i] = rng.Float64() * 5
	}
	s, err := NewSpace(attrNames(m), rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func attrNames(m int) []string {
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i)
	}
	return names
}

func TestNewSpaceSortsByValueDesc(t *testing.T) {
	s, err := NewSpace([]string{"x"}, [][]string{{"low"}, {"high"}, {"mid"}}, []float64{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(s.Vals))) {
		t.Errorf("vals not descending: %v", s.Vals)
	}
	if got := s.Render(s.Tuples[0])[0]; got != "high" {
		t.Errorf("rank 1 tuple = %q, want high", got)
	}
}

func TestNewSpaceErrors(t *testing.T) {
	if _, err := NewSpace(nil, [][]string{{"a"}}, []float64{1}); err == nil {
		t.Error("no attributes: want error")
	}
	if _, err := NewSpace([]string{"x"}, [][]string{{"a"}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := NewSpace([]string{"x"}, nil, nil); err == nil {
		t.Error("empty set: want error")
	}
	if _, err := NewSpace([]string{"x", "y"}, [][]string{{"a"}}, []float64{1}); err == nil {
		t.Error("ragged row: want error")
	}
}

func TestRenderAndEncodeRoundTrip(t *testing.T) {
	s := tinySpace(t)
	for _, tup := range s.Tuples {
		row := s.Render(tup)
		back, ok := s.Encode(row)
		if !ok || !pattern.Equal(back, tup) {
			t.Errorf("round trip failed for %v", row)
		}
	}
	if _, ok := s.Encode([]string{"zzz", "b1", "c1", "d1"}); ok {
		t.Error("Encode of unknown value should fail")
	}
	if _, ok := s.Encode([]string{"a1"}); ok {
		t.Error("Encode of wrong arity should fail")
	}
	p, ok := s.Encode([]string{"*", "b1", "*", "d1"})
	if !ok || p[0] != pattern.Star || p[2] != pattern.Star {
		t.Errorf("Encode with stars = %v, %v", p, ok)
	}
	if got := s.FormatPattern(p); got != "(*, b1, *, d1)" {
		t.Errorf("FormatPattern = %q", got)
	}
}

func TestBuildIndexFigure3aCoverage(t *testing.T) {
	s := tinySpace(t)
	ix, err := BuildIndex(s, s.N())
	if err != nil {
		t.Fatal(err)
	}
	// C1 = (*, *, c1, d1) covers the four c1/d1 tuples.
	c1pat, _ := s.Encode([]string{"*", "*", "c1", "d1"})
	c1, ok := ix.Lookup(c1pat)
	if !ok {
		t.Fatal("C1 not generated")
	}
	if c1.Size() != 4 {
		t.Errorf("|cov(C1)| = %d, want 4", c1.Size())
	}
	// C2 = (a2, b1, *, d1) covers two tuples, overlapping C1 on one.
	c2pat, _ := s.Encode([]string{"a2", "b1", "*", "d1"})
	c2, ok := ix.Lookup(c2pat)
	if !ok {
		t.Fatal("C2 not generated")
	}
	if c2.Size() != 2 {
		t.Errorf("|cov(C2)| = %d, want 2", c2.Size())
	}
}

func TestBuildIndexBounds(t *testing.T) {
	s := tinySpace(t)
	if _, err := BuildIndex(s, 0); err == nil {
		t.Error("L=0: want error")
	}
	if _, err := BuildIndex(s, s.N()+1); err == nil {
		t.Error("L>N: want error")
	}
	wide, err := NewSpace(attrNames(17), [][]string{make([]string, 17)}, []float64{1})
	if err == nil {
		if _, err := BuildIndex(wide, 1); err == nil {
			t.Error("m=17: want error")
		}
	}
}

func TestBuildIndexEveryClusterCoversATopLTuple(t *testing.T) {
	s := randomSpace(t, 11, 60, 4, 3)
	L := 10
	ix, err := BuildIndex(s, L)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ix.Clusters {
		found := false
		for _, ti := range c.Cov {
			if int(ti) < L {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("cluster %v covers no top-%d tuple", s.FormatPattern(c.Pat), L)
		}
	}
}

func TestBuildIndexCoverageIsExact(t *testing.T) {
	s := randomSpace(t, 12, 80, 4, 3)
	ix, err := BuildIndex(s, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ix.Clusters {
		var want []int32
		var sum float64
		for ti, tup := range s.Tuples {
			if c.Pat.CoversTuple(tup) {
				want = append(want, int32(ti))
				sum += s.Vals[ti]
			}
		}
		if !reflect.DeepEqual(c.Cov, want) {
			t.Fatalf("cluster %v cov = %v, want %v", c.Pat, c.Cov, want)
		}
		if diff := c.Sum - sum; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cluster %v sum = %v, want %v", c.Pat, c.Sum, sum)
		}
	}
}

func TestNaiveBuildMatchesOptimized(t *testing.T) {
	s := randomSpace(t, 13, 100, 5, 3)
	opt, err := BuildIndex(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := BuildIndexNaive(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumClusters() != naive.NumClusters() {
		t.Fatalf("cluster counts differ: %d vs %d", opt.NumClusters(), naive.NumClusters())
	}
	for i := range opt.Clusters {
		a, b := opt.Clusters[i], naive.Clusters[i]
		if !pattern.Equal(a.Pat, b.Pat) || !reflect.DeepEqual(a.Cov, b.Cov) {
			t.Fatalf("cluster %d differs: %v/%v vs %v/%v", i, a.Pat, a.Cov, b.Pat, b.Cov)
		}
	}
}

func TestBuildStatsShowOptimizationAdvantage(t *testing.T) {
	s := randomSpace(t, 14, 200, 4, 3)
	_, optStats, err := BuildIndexStats(context.Background(), s, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	_, naiveStats, err := BuildIndexStats(context.Background(), s, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if optStats.Generated != naiveStats.Generated {
		t.Errorf("generated differ: %d vs %d", optStats.Generated, naiveStats.Generated)
	}
	// Optimized probing is N * 2^m; naive is |C| * N. With |C| >> 2^m the
	// naive mapping must do strictly more work.
	if naiveStats.MappingOps <= optStats.MappingOps {
		t.Errorf("naive ops %d not greater than optimized ops %d", naiveStats.MappingOps, optStats.MappingOps)
	}
}

func TestSingletonAndAllStar(t *testing.T) {
	s := tinySpace(t)
	ix, err := BuildIndex(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		c := ix.Singleton(rank)
		if !pattern.Equal(c.Pat, s.Tuples[rank]) {
			t.Errorf("Singleton(%d) = %v, want %v", rank, c.Pat, s.Tuples[rank])
		}
		if c.Size() < 1 {
			t.Errorf("singleton %d covers nothing", rank)
		}
	}
	all := ix.AllStar()
	if all.Size() != s.N() {
		t.Errorf("all-star covers %d, want %d", all.Size(), s.N())
	}
	if all.Pat.Level() != s.M() {
		t.Errorf("all-star level = %d", all.Pat.Level())
	}
}

func TestLCAClusterClosure(t *testing.T) {
	s := randomSpace(t, 15, 50, 4, 3)
	ix, err := BuildIndex(s, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		a := ix.Cluster(int32(rng.Intn(ix.NumClusters())))
		b := ix.Cluster(int32(rng.Intn(ix.NumClusters())))
		l, err := ix.LCACluster(a, b)
		if err != nil {
			t.Fatalf("LCA closure violated: %v", err)
		}
		if !l.Pat.Covers(a.Pat) || !l.Pat.Covers(b.Pat) {
			t.Fatalf("LCA %v does not cover inputs", l.Pat)
		}
	}
}

func TestLCAClusterForeign(t *testing.T) {
	s := tinySpace(t)
	ix, err := BuildIndex(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A cluster whose pattern is not in this index (built from rank 4 tuple
	// only, which is outside top-2 and has c4 that no top-2 tuple has).
	foreignPat, _ := s.Encode([]string{"a2", "b1", "c4", "d1"})
	foreign := &Cluster{ID: 999, Pat: foreignPat}
	if _, err := ix.LCACluster(foreign, foreign); err == nil {
		t.Error("want error for foreign cluster")
	}
}

func TestClusterAvg(t *testing.T) {
	c := &Cluster{Cov: []int32{0, 1}, Sum: 7}
	if c.Avg() != 3.5 {
		t.Errorf("Avg = %v", c.Avg())
	}
	empty := &Cluster{}
	if empty.Avg() != 0 {
		t.Errorf("empty Avg = %v", empty.Avg())
	}
}
