package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qagview/internal/movielens"
	"qagview/internal/relation"
	"qagview/internal/tpcds"
)

// assertBitIdentical fails unless got is bit-for-bit the same result as want:
// rendered rows compare by string equality, values by their float64 bit
// patterns (so +0 vs -0 or differently-ordered float sums are caught).
func assertBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.GroupBy, got.GroupBy) || want.ValName != got.ValName || want.Table != got.Table {
		t.Fatalf("%s: header mismatch: want (%v, %q, %q), got (%v, %q, %q)",
			label, want.GroupBy, want.ValName, want.Table, got.GroupBy, got.ValName, got.Table)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("%s: rows mismatch:\nwant %v\ngot  %v", label, want.Rows, got.Rows)
	}
	if len(want.Vals) != len(got.Vals) {
		t.Fatalf("%s: %d vals, want %d", label, len(got.Vals), len(want.Vals))
	}
	for i := range want.Vals {
		if math.Float64bits(want.Vals[i]) != math.Float64bits(got.Vals[i]) {
			t.Fatalf("%s: val[%d] = %v (bits %x), want %v (bits %x)",
				label, i, got.Vals[i], math.Float64bits(got.Vals[i]),
				want.Vals[i], math.Float64bits(want.Vals[i]))
		}
	}
}

// execGrid runs sql through the reference executor and through the
// vectorized one at worker counts 1, 2, and 8, on both key paths, asserting
// every combination reproduces the reference bit for bit.
func execGrid(t *testing.T, cat Catalog, sql string) {
	t.Helper()
	want, err := referenceSQL(cat, sql)
	if err != nil {
		t.Fatalf("reference: %v (query %s)", err, sql)
	}
	for _, par := range []int{1, 2, 8} {
		for _, strKeys := range []bool{false, true} {
			opts := []ExecOption{ExecParallelism(par)}
			if strKeys {
				opts = append(opts, execStringKeys())
			}
			got, err := ExecuteSQL(cat, sql, opts...)
			if err != nil {
				t.Fatalf("vectorized par=%d strKeys=%v: %v (query %s)", par, strKeys, err, sql)
			}
			assertBitIdentical(t, fmt.Sprintf("par=%d strKeys=%v query=%s", par, strKeys, sql), want, got)
		}
	}
}

// syntheticCatalog builds a multi-morsel relation engineered to hit the
// executor's edge cases: NUL bytes inside group values, NaN and ±0 in both
// group and aggregate columns, int values past 2^53 (lossy float conversion
// in predicates), and five row-id-like columns whose combined dictionary
// widths overflow 64 bits (forcing the automatic string-key fallback).
func syntheticCatalog(rows int) catalog {
	rng := rand.New(rand.NewSource(42))
	a := make([]string, rows)  // small vocabulary, some values contain NUL
	b := make([]string, rows)  // small vocabulary
	g := make([]int64, rows)   // 0/1 flag
	big := make([]int64, rows) // huge ints: float64(v) is lossy
	x := make([]float64, rows) // agg values with NaN and ±0
	u := make([][]int64, 5)    // 5 near-unique columns -> widths > 64 bits
	for j := range u {
		u[j] = make([]int64, rows)
	}
	avoc := []string{"red", "re\x00d", "\x00", "", "blue"}
	bvoc := []string{"s", "t", "u\x00", "v"}
	for i := 0; i < rows; i++ {
		a[i] = avoc[rng.Intn(len(avoc))]
		b[i] = bvoc[rng.Intn(len(bvoc))]
		g[i] = int64(rng.Intn(2))
		big[i] = (1 << 53) + int64(rng.Intn(4)) // 2^53..2^53+3: adjacent values collide as float64
		switch rng.Intn(10) {
		case 0:
			x[i] = math.NaN()
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = 0
		default:
			x[i] = math.Floor(rng.Float64()*1000) / 8
		}
		for j := range u {
			u[j][i] = int64((i*(j+3) + j) % (rows - 1))
		}
	}
	rel := relation.MustFromColumns("t",
		relation.StringCol("a", a),
		relation.StringCol("b", b),
		relation.IntCol("g", g),
		relation.IntCol("big", big),
		relation.FloatCol("x", x),
		relation.IntCol("u0", u[0]),
		relation.IntCol("u1", u[1]),
		relation.IntCol("u2", u[2]),
		relation.IntCol("u3", u[3]),
		relation.IntCol("u4", u[4]),
	)
	return catalog{"t": rel}
}

// TestExecuteVecMatchesReferenceSynthetic is the core bit-identity grid:
// every query shape the parser accepts, on a relation spanning multiple
// morsels, across worker counts and key paths.
func TestExecuteVecMatchesReferenceSynthetic(t *testing.T) {
	cat := syntheticCatalog(3*morselRows + 123)
	queries := []string{
		"select a, count(*) as c from t group by a order by c desc",
		"select a, b, avg(x) as val from t group by a, b order by val desc",
		"select a, b, sum(x) as val from t group by a, b order by val asc",
		"select a, min(x) as val from t where g = 1 group by a order by val desc",
		"select a, max(x) as val from t where g = 1 and b <> 's' group by a order by val desc",
		"select b, avg(x) as val from t where x > 10.5 group by b order by val desc limit 2",
		"select a, b, avg(x) as val from t group by a, b having count(*) > 100 order by val desc",
		"select a, sum(g) as val from t group by a having sum(x) < 100000 order by val desc",
		"select a, avg(x) as val from t where a <> 're\x00d' group by a order by val desc",
		"select a, a, count(*) as c from t group by a, a order by c desc",
		"select g, count(x) as c from t group by g order by c asc",
		"select a, avg(x) as val from t where big > 9007199254740992 group by a order by val desc",
		"select x, count(*) as c from t group by x order by c desc limit 5",
		"select big, avg(x) as val from t group by big order by val desc",
		"select a, b, g, avg(x) as val from t group by a, b, g having count(*) > 10 and max(x) >= 1 order by val desc limit 7",
		"select a, avg(x) as val from t group by a limit 3",
		// Five near-unique group columns: dictionary widths overflow one
		// word, so even without execStringKeys this exercises the fallback.
		"select u0, u1, u2, u3, u4, sum(x) as val from t group by u0, u1, u2, u3, u4 order by val desc limit 20",
	}
	for _, sql := range queries {
		execGrid(t, cat, sql)
	}
}

// TestExecuteVecEmptyRelation pins the degenerate shapes: zero rows and a
// WHERE rejecting every row must produce the same (empty) result everywhere.
func TestExecuteVecEmptyRelation(t *testing.T) {
	empty := catalog{"t": relation.MustFromColumns("t",
		relation.StringCol("a", nil),
		relation.FloatCol("x", nil),
	)}
	execGrid(t, empty, "select a, avg(x) as val from t group by a order by val desc")

	cat := syntheticCatalog(morselRows + 7)
	execGrid(t, cat, "select a, avg(x) as val from t where g = 7 group by a order by val desc")
}

// TestExecuteGroupKeyNulSeparator is the regression test for the group-key
// collision bug: the executor used to join group values with a '\x00'
// separator, so ("a\x00", "b") and ("a", "\x00b") collapsed into one group.
// The length-prefixed encoding keeps them apart, in both executors.
func TestExecuteGroupKeyNulSeparator(t *testing.T) {
	cat := catalog{"t": relation.MustFromColumns("t",
		relation.StringCol("s1", []string{"a\x00", "a", "a\x00", "a"}),
		relation.StringCol("s2", []string{"b", "\x00b", "b", "\x00b"}),
	)}
	sql := "select s1, s2, count(*) as c from t group by s1, s2 order by c desc"
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return referenceSQL(cat, sql) },
		func() (*Result, error) { return ExecuteSQL(cat, sql, ExecParallelism(1)) },
		func() (*Result, error) { return ExecuteSQL(cat, sql, ExecParallelism(1), execStringKeys()) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.N() != 2 {
			t.Fatalf("got %d groups, want 2 (NUL-containing values merged): %v", res.N(), res.Rows)
		}
		for _, v := range res.Vals {
			if v != 2 {
				t.Fatalf("got counts %v, want [2 2]", res.Vals)
			}
		}
	}
	execGrid(t, cat, sql)
}

// TestExecuteVecMovieLens proves bit-identity on the paper's MovieLens
// workload (the hot path of session builds and refreshes).
func TestExecuteVecMovieLens(t *testing.T) {
	cfg := movielens.DefaultConfig()
	cfg.Ratings = 30_000
	rel, err := movielens.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog{"RatingTable": rel}
	type tpl struct {
		m, minCount int
		where       string
	}
	for _, c := range []tpl{
		{4, 50, "genre_adventure = 1"},
		{4, 0, ""},
		{6, 20, ""},
		{1, 10, "rating >= 3"},
	} {
		sql, err := movielens.Query(c.m, c.minCount, c.where)
		if err != nil {
			t.Fatal(err)
		}
		execGrid(t, cat, sql)
	}
}

// TestExecuteVecTPCDS proves bit-identity on the TPC-DS-style catalog.
func TestExecuteVecTPCDS(t *testing.T) {
	rel, err := tpcds.Generate(tpcds.Config{Rows: 60_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog{"store_sales": rel}
	for _, c := range [][2]int{{3, 100}, {8, 0}, {1, 500}} {
		sql, err := tpcds.Query(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		execGrid(t, cat, sql)
	}
}

// TestExecuteVecContextCancel checks that cancellation is observed between
// morsels on both the sequential and the parallel dispatch paths.
func TestExecuteVecContextCancel(t *testing.T) {
	cat := syntheticCatalog(2*morselRows + 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 8} {
		_, err := ExecuteSQL(cat, "select a, avg(x) as val from t group by a order by val desc",
			ExecParallelism(par), ExecContext(ctx))
		if err != context.Canceled {
			t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
		}
	}
	// An un-cancelled context must not interfere.
	res, err := ExecuteSQL(cat, "select a, count(*) as c from t group by a order by c desc",
		ExecParallelism(8), ExecContext(context.Background()))
	if err != nil || res.N() == 0 {
		t.Fatalf("live context: res=%v err=%v", res, err)
	}
}

// TestExecuteVecPooledReuse runs many executions back to back (the refresh
// steady state) to confirm pooled buffers reset correctly between queries of
// different shapes.
func TestExecuteVecPooledReuse(t *testing.T) {
	cat := syntheticCatalog(morselRows + 100)
	queries := []string{
		"select a, b, avg(x) as val from t group by a, b having count(*) > 5 order by val desc",
		"select g, count(*) as c from t group by g order by c desc",
		"select a, sum(x) as val from t where g = 0 group by a order by val asc limit 2",
	}
	wants := make([]*Result, len(queries))
	for i, sql := range queries {
		w, err := referenceSQL(cat, sql)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	for round := 0; round < 20; round++ {
		i := round % len(queries)
		got, err := ExecuteSQL(cat, queries[i], ExecParallelism(1+round%3))
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("round %d query %d", round, i), wants[i], got)
	}
}
