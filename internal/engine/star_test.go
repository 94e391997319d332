package engine

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"qagview/internal/movielens"
	"qagview/internal/relation"
	"qagview/internal/tpcds"
)

// assertSameAnswers compares the answer space of two results bit for bit,
// ignoring the FROM-shape headers (Table differs between flat and star).
func assertSameAnswers(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.GroupBy, got.GroupBy) || want.ValName != got.ValName {
		t.Fatalf("%s: header mismatch: (%v, %q) vs (%v, %q)", label, want.GroupBy, want.ValName, got.GroupBy, got.ValName)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("%s: rows mismatch:\nwant %v\ngot  %v", label, want.Rows, got.Rows)
	}
	if len(want.Vals) != len(got.Vals) {
		t.Fatalf("%s: %d vals, want %d", label, len(got.Vals), len(want.Vals))
	}
	for i := range want.Vals {
		if math.Float64bits(want.Vals[i]) != math.Float64bits(got.Vals[i]) {
			t.Fatalf("%s: val[%d] bits differ: %v vs %v", label, i, want.Vals[i], got.Vals[i])
		}
	}
}

// starFlatGrid checks that the star join jq reproduces the flat query fq
// bit for bit: the reference executor over the star against the flat
// answers, then every parallelism × key path × join mode against the
// reference (joinGrid).
func starFlatGrid(t *testing.T, label string, flatCat, starCat Catalog, fq, jq string) {
	t.Helper()
	want, err := ExecuteSQL(flatCat, fq)
	if err != nil {
		t.Fatal(err)
	}
	if want.N() == 0 {
		t.Fatalf("%s: flat query returned no groups", label)
	}
	ref, err := referenceSQL(starCat, jq)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, label+" reference", want, ref)
	joinGrid(t, starCat, jq)
}

// TestStarJoinMatchesFlatMovieLens: aggregates over the MovieLens star
// schema's SQL join reproduce the denormalized RatingTable's, on the
// reference and on every production and forced join path.
func TestStarJoinMatchesFlatMovieLens(t *testing.T) {
	star, err := movielens.GenerateStar(movielens.Config{Users: 60, Movies: 80, Ratings: 900, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := movielens.Denormalize(star)
	if err != nil {
		t.Fatal(err)
	}
	flatCat := catalog{"RatingTable": flat}
	starCat := catalog{}
	for _, r := range star.Tables() {
		starCat[r.Name()] = r
	}
	for _, m := range []int{2, 4} {
		fq, err := movielens.Query(m, 0, "genre_adventure = 1")
		if err != nil {
			t.Fatal(err)
		}
		jq, err := movielens.JoinQuery(m, 0, "genre_adventure = 1")
		if err != nil {
			t.Fatal(err)
		}
		starFlatGrid(t, fmt.Sprintf("m=%d", m), flatCat, starCat, fq, jq)
	}
}

// coldWheres are the WHERE clauses of the cold benchmark workload's query
// family: none, a genre on the movies dimension, and an hour-of-day range
// on the ratings fact table.
var coldWheres = []string{"", "genre_drama = 1", "genre_comedy = 1", "genre_action = 0", "hourofday >= 12", "hourofday < 12"}

// TestStarJoinPushdownMovieLens runs the cold benchmark's star joins — every
// WHERE above × m 6–9 — against the flat table and the nested-loop oracle on
// every worker count, key path and join mode. The WHERE is pushed into the
// join (filtered per base table) and the aggregation keys on base-table
// codes; the oracle filters after the join and re-encodes.
func TestStarJoinPushdownMovieLens(t *testing.T) {
	star, err := movielens.GenerateStar(movielens.Config{Users: 60, Movies: 80, Ratings: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := movielens.Denormalize(star)
	if err != nil {
		t.Fatal(err)
	}
	flatCat := catalog{"RatingTable": flat}
	starCat := catalog{}
	for _, r := range star.Tables() {
		starCat[r.Name()] = r
	}
	for m := 6; m <= 9; m++ {
		for _, w := range coldWheres {
			fq, err := movielens.Query(m, 0, w)
			if err != nil {
				t.Fatal(err)
			}
			jq, err := movielens.JoinQuery(m, 0, w)
			if err != nil {
				t.Fatal(err)
			}
			starFlatGrid(t, fmt.Sprintf("m=%d where=%q", m, w), flatCat, starCat, fq, jq)
		}
	}
}

// TestStarJoinMatchesFlatTPCDS: the four-dimension TPC-DS star join
// reproduces the flat store_sales aggregates, on the reference and on every
// production and forced join path.
func TestStarJoinMatchesFlatTPCDS(t *testing.T) {
	cfg := tpcds.Config{Rows: 400, Seed: 5}
	star, err := tpcds.GenerateStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tpcds.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flatCat := catalog{flat.Name(): flat}
	starCat := catalog{}
	for _, r := range star.Tables() {
		starCat[r.Name()] = r
	}
	for _, m := range []int{3, 6} {
		fq, err := tpcds.Query(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		jq, err := tpcds.JoinQuery(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		starFlatGrid(t, fmt.Sprintf("m=%d", m), flatCat, starCat, fq, jq)
	}
}

// TestServerRefreshRowsMatchReference runs the serving loop's refresh case
// (internal/server's TestRefreshBitIdenticalAcrossExecParallelism) at the
// engine level: the session query over the server test table, before and
// after its three-row append, on the reference executor and every worker
// count and key path.
func TestServerRefreshRowsMatchReference(t *testing.T) {
	const sql = "SELECT a, b, c, avg(v) AS val FROM t GROUP BY a, b, c ORDER BY val DESC"
	// The server test table: every (A_i, B_j, C_l) for a 3×3×2 grid, twice,
	// with values base and base+1.
	var a, b, c []string
	var v []float64
	add := func(ai, bj, cl string, val float64) {
		a, b, c, v = append(a, ai), append(b, bj), append(c, cl), append(v, val)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for l := 0; l < 2; l++ {
				base := float64(i*3*2 + j*2 + l)
				ai, bj, cl := "A"+strconv.Itoa(i), "B"+strconv.Itoa(j), "C"+strconv.Itoa(l)
				add(ai, bj, cl, base)
				add(ai, bj, cl, base+1)
			}
		}
	}
	table := func() catalog {
		return catalog{"t": relation.MustFromColumns("t",
			relation.StringCol("a", append([]string(nil), a...)),
			relation.StringCol("b", append([]string(nil), b...)),
			relation.StringCol("c", append([]string(nil), c...)),
			relation.FloatCol("v", append([]float64(nil), v...)),
		)}
	}
	execGrid(t, table(), sql)
	add("A2", "B2", "C1", 500)
	add("A2", "B2", "C1", 500)
	add("A0", "B1", "C0", 250)
	execGrid(t, table(), sql)
}
