package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"qagview/internal/relation"
)

// fuzzCatalog resolves every table name to one tiny relation, so accepted
// queries exercise the executor (WHERE, GROUP BY, HAVING, ORDER BY, LIMIT)
// against real columns; unknown columns and type mismatches must surface as
// errors, never panics.
type fuzzCatalog struct{ rel *relation.Relation }

func (c fuzzCatalog) Table(string) (*relation.Relation, error) { return c.rel, nil }

// emptyCatalog rejects every table, the exec-on-empty-catalog contract.
type emptyCatalog struct{}

func (emptyCatalog) Table(name string) (*relation.Relation, error) {
	return nil, errUnknownTable(name)
}

func errUnknownTable(name string) error {
	return &unknownTableError{name}
}

type unknownTableError struct{ name string }

func (e *unknownTableError) Error() string { return "fuzz: unknown table " + e.name }

// FuzzParse feeds arbitrary SQL through the lexer and parser, and runs every
// accepted query through the executor against both an empty catalog and a
// small populated one. The front end must never panic: malformed input,
// unknown tables/columns, and degenerate literals must all come back as
// errors.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT gender, occupation, avg(rating) AS val FROM ratings WHERE adventure = 1 AND gender != 'X' GROUP BY gender, occupation HAVING count(*) > 1 ORDER BY val DESC LIMIT 10",
		"select a, sum(x) from t group by a",
		"select a, sum(x) as v from t group by a order by v asc",
		"select a, b, min(x) as v from t where a >= 2 group by a, b having max(x) < 9 order by v desc",
		"select a, count(*) as c from t group by a order by c desc limit 0",
		"select a, avg(x) from t where s = 'it''s' group by a",
		"select a, sum(x) from t where a < -1.5e3 group by a",
		"SELECT",
		"select from t group by a",
		"select a, sum(*) from t group by a",
		"select a, sum(x) from t where a ~ 3 group by a",
		"select a, sum(x) from t where a = 'oops group by a",
		"select a, sum(x), avg(y) from t group by a",
		"select a, sum(x) from t group by a limit -3",
		"\x00\xff(*)',",
		"select a, sum(x) from t group by a having count(*) > 184467440737095516150",
		"select a, count(gender) as c from ratings group by a",
		"select a, sum(rating) as v from ratings group by a having count(gender) > 0",
		"select u.a, avg(x) as v from t join u on t.a = u.a group by u.a",
		"SELECT r.gender, avg(r.rating) AS val FROM ratings r JOIN users u ON r.a = u.a JOIN movies m ON r.a = m.a GROUP BY r.gender",
		"select a, sum(x) from t join u on t.a = u.a and u.b = t.b group by a",
		"select a, sum(x) from t join t on t.a = t.a group by a",
		"select a, sum(x) from t join u group by a",
		"select a, sum(x) from t join u on t.a = 3 group by a",
		"select a, sum(x) from t join u on a = u.a group by a",
		"select q.a, sum(x) from t join u on t.a = u.a group by q.a",
		"select t.a.b, sum(x) from t join u on t.a = u.a group by t.a.b",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	rel, err := relation.FromColumns("ratings",
		relation.StringCol("a", []string{"x", "y", "x", "z"}),
		relation.StringCol("gender", []string{"M", "F", "M", "F"}),
		relation.IntCol("adventure", []int64{1, 0, 1, 1}),
		relation.FloatCol("rating", []float64{5, 3, 4, 2}),
	)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			if q != nil {
				t.Fatalf("Parse returned both a query and an error for %q", sql)
			}
			return
		}
		if q == nil {
			t.Fatalf("Parse returned neither a query nor an error for %q", sql)
		}
		// Accepted queries must round-trip through execution without
		// crashing, on an empty catalog and on a populated one.
		if _, err := Execute(emptyCatalog{}, q); err == nil {
			t.Fatalf("Execute on empty catalog succeeded for %q", sql)
		}
		_, _ = Execute(fuzzCatalog{rel}, q)
		// The combined entry point must agree with Parse on acceptance.
		_, _ = ExecuteSQL(fuzzCatalog{rel}, sql)
	})
}

// fuzzExecCatalog is the multi-table catalog for FuzzExec: a fact table
// reachable as both "t" and "ratings" (the single-table seeds use either), a
// string-keyed dimension sharing key values with the fact's "a" column, a
// float-keyed dimension whose keys include NaN and -0, and a tiny edge table
// so fuzzed self-joins can form cyclic graphs and reach the leapfrog path.
func fuzzExecCatalog(f *testing.F) catalog {
	f.Helper()
	fact, err := relation.FromColumns("ratings",
		relation.StringCol("a", []string{"x", "y\x00", "x", "\x00y", "", "y\x00"}),
		relation.StringCol("gender", []string{"M", "F", "M", "F", "F", "M"}),
		relation.IntCol("adventure", []int64{1, 0, 1, 1, 0, 1}),
		relation.FloatCol("rating", []float64{5, math.NaN(), 4, math.Copysign(0, -1), 0, 4}),
	)
	if err != nil {
		f.Fatal(err)
	}
	dim, err := relation.FromColumns("dim",
		relation.StringCol("a", []string{"x", "\x00y", "z", ""}),
		relation.StringCol("region", []string{"east", "west", "east", "north"}),
	)
	if err != nil {
		f.Fatal(err)
	}
	fdim, err := relation.FromColumns("fdim",
		relation.FloatCol("rating", []float64{5, math.NaN(), math.Copysign(0, -1), 0, 4}),
		relation.IntCol("stars", []int64{2, -1, 0, 0, 1}),
	)
	if err != nil {
		f.Fatal(err)
	}
	edges, err := relation.FromColumns("edges",
		relation.IntCol("src", []int64{1, 2, 3, 1, 2, 4}),
		relation.IntCol("dst", []int64{2, 3, 1, 3, 4, 1}),
	)
	if err != nil {
		f.Fatal(err)
	}
	return catalog{"t": fact, "ratings": fact, "dim": dim, "fdim": fdim, "edges": edges}
}

// FuzzExec is the differential fuzzer for the executors: every accepted
// query runs through the row-at-a-time (nested-loop) reference and through
// the vectorized pipeline at several worker counts, on both key paths and
// every join strategy, and all of them must agree bit for bit (or all fail
// with the same error). The fuzz relations include NUL-bearing strings, NaN,
// and -0 to stress the key encodings, and the catalog has joinable
// dimension/edge tables so fuzzed FROM clauses exercise the hash and
// worst-case-optimal join paths against the nested-loop reference.
func FuzzExec(f *testing.F) {
	seeds := []string{
		"SELECT gender, occupation, avg(rating) AS val FROM ratings WHERE adventure = 1 AND gender != 'X' GROUP BY gender, occupation HAVING count(*) > 1 ORDER BY val DESC LIMIT 10",
		"select a, sum(rating) as v from t group by a order by v asc",
		"select a, gender, min(rating) as v from t where adventure >= 1 group by a, gender having max(rating) < 9 order by v desc",
		"select a, count(*) as c from t group by a order by c desc limit 1",
		"select rating, count(*) as c from t group by rating order by c desc",
		"select a, a, avg(adventure) as v from t group by a, a order by v desc",
		"select region, avg(rating) as v from t join dim on t.a = dim.a group by region order by v desc",
		"select region, gender, count(*) as c from t join dim on t.a = dim.a group by region, gender order by c desc",
		"select region, sum(stars) as v from t join dim on t.a = dim.a join fdim on t.rating = fdim.rating group by region order by v desc",
		"select stars, count(*) as c from t join fdim on t.rating = fdim.rating group by stars",
		"select e1.src, count(*) as c from edges e1 join e2 on e1.dst = e2.src group by e1.src",
		"select e1.src, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src group by e1.src order by c desc",
		"select d1.region, d2.region, count(*) as c from dim d1 join dim d2 on d1.a = d2.a group by d1.region, d2.region",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := fuzzExecCatalog(f)
	joinModes := []struct {
		name string
		opt  []ExecOption
	}{
		{"auto", nil},
		{"hash", []ExecOption{execHashJoin()}},
		{"generic", []ExecOption{execGenericJoin()}},
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			return
		}
		want, refErr := executeReference(context.Background(), cat, q)
		for _, par := range []int{1, 8} {
			for _, strKeys := range []bool{false, true} {
				for _, mode := range joinModes {
					opts := append([]ExecOption{ExecParallelism(par)}, mode.opt...)
					if strKeys {
						opts = append(opts, execStringKeys())
					}
					got, err := Execute(cat, q, opts...)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("par=%d strKeys=%v join=%s: err = %v, reference err = %v (query %q)", par, strKeys, mode.name, err, refErr, sql)
					}
					if err != nil {
						if err.Error() != refErr.Error() {
							t.Fatalf("par=%d strKeys=%v join=%s: err %q, reference err %q (query %q)", par, strKeys, mode.name, err, refErr, sql)
						}
						continue
					}
					if !reflect.DeepEqual(want.GroupBy, got.GroupBy) || want.ValName != got.ValName ||
						want.Table != got.Table || !reflect.DeepEqual(want.Tables, got.Tables) ||
						!reflect.DeepEqual(want.Rows, got.Rows) {
						t.Fatalf("par=%d strKeys=%v join=%s: result mismatch for %q:\nwant %+v\ngot  %+v", par, strKeys, mode.name, sql, want, got)
					}
					if len(want.Vals) != len(got.Vals) {
						t.Fatalf("par=%d strKeys=%v join=%s: %d vals, want %d (query %q)", par, strKeys, mode.name, len(got.Vals), len(want.Vals), sql)
					}
					for i := range want.Vals {
						if math.Float64bits(want.Vals[i]) != math.Float64bits(got.Vals[i]) {
							t.Fatalf("par=%d strKeys=%v join=%s: val[%d] bits differ: %v vs %v (query %q)", par, strKeys, mode.name, i, got.Vals[i], want.Vals[i], sql)
						}
					}
				}
			}
		}
	})
}
