package qagview_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qagview"
	"qagview/internal/movielens"
	"qagview/internal/relation"
)

// TestLiveFacade drives the public live-table surface end to end: build a
// summarizer, wrap it in a Live, refresh it from re-run query results, and
// check data versioning on the precomputed stores — with every generation's
// output equal to a cold rebuild over the same rows.
func TestLiveFacade(t *testing.T) {
	attrs := []string{"x", "y"}
	rows := [][]string{
		{"a", "p"}, {"b", "p"}, {"a", "q"}, {"b", "q"}, {"c", "p"}, {"c", "q"},
	}
	vals := []float64{9, 8, 7, 6, 5, 4}
	sum, err := qagview.NewSummarizerFromRows(attrs, rows, vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	live := qagview.NewLive(sum)
	if live.DataVersion() != 1 {
		t.Fatalf("fresh data version %d", live.DataVersion())
	}
	st, err := live.Precompute(1, 3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 1 {
		t.Fatalf("store generation %d, want 1", st.Generation())
	}

	// One row appended below the top L, the lowest-ranked one gone.
	stats, changed, err := live.Refresh(&qagview.Result{
		GroupBy: attrs,
		Rows:    [][]string{{"a", "p"}, {"b", "p"}, {"a", "q"}, {"b", "q"}, {"c", "p"}, {"d", "p"}},
		Vals:    []float64{9, 8, 7, 6, 5, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !changed || stats.Generated != live.Summarizer().NumClusters() {
		t.Fatalf("append refresh: changed=%v stats=%+v", changed, stats)
	}
	if live.DataVersion() != 2 || live.Summarizer().N() != 6 {
		t.Fatalf("after append: version %d, n %d", live.DataVersion(), live.Summarizer().N())
	}

	// Refresh from a "re-run query": crown a new leader (top-L churn) and
	// change one value.
	res := &qagview.Result{
		GroupBy: attrs,
		Rows: [][]string{
			{"e", "q"}, {"a", "p"}, {"b", "p"}, {"a", "q"}, {"b", "q"}, {"c", "p"}, {"d", "p"},
		},
		Vals: []float64{11, 9, 8, 7, 6, 5.5, 1},
	}
	if _, changed, err = live.Refresh(res); err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("leader refresh reported no change")
	}
	if live.DataVersion() != 3 {
		t.Fatalf("version after refresh %d", live.DataVersion())
	}
	st, err = live.Precompute(1, 3, []int{1}, qagview.WithStoreGeneration(99))
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 99 {
		t.Fatalf("explicit store generation %d, want 99", st.Generation())
	}

	// The refreshed state must match a cold build over the same result.
	cold, err := qagview.NewSummarizer(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	coldStore, err := cold.Precompute(1, 3, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		warmSol, werr := st.Solution(k, 1)
		coldSol, cerr := coldStore.Solution(k, 1)
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("k=%d: error mismatch %v vs %v", k, werr, cerr)
		}
		if werr != nil {
			continue
		}
		if math.Float64bits(warmSol.AvgValue()) != math.Float64bits(coldSol.AvgValue()) {
			t.Fatalf("k=%d: objective %v vs %v", k, warmSol.AvgValue(), coldSol.AvgValue())
		}
		wr := live.Summarizer().Format(warmSol, true)
		cr := cold.Format(coldSol, true)
		if wr != cr {
			t.Fatalf("k=%d rendered solutions differ:\n%s\nvs\n%s", k, wr, cr)
		}
	}

	// An unchanged refresh is a no-op.
	if _, changed, err := live.Refresh(res); err != nil || changed {
		t.Fatalf("no-op refresh: changed=%v err=%v", changed, err)
	}
	if live.DataVersion() != 3 {
		t.Fatalf("no-op refresh bumped the version to %d", live.DataVersion())
	}
}

// TestLiveRefreshMatchesRebuild chains refreshes over a synthetic answer
// set — deleted rows, a changed value, appended rows with fresh vocabulary,
// and on the last step a new leader — and after every generation checks the
// refreshed state against a cold build over the same rows: the store over
// the full (k, D) grid encodes to the same bytes, and every greedy
// algorithm's solution renders identically.
func TestLiveRefreshMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const m, L, kMax = 4, 25, 8
	attrs := make([]string, m)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("A%d", j)
	}
	rows, vals := randomAnswers(rng, 100, m, 4)
	sum, err := qagview.NewSummarizerFromRows(attrs, rows, vals, L)
	if err != nil {
		t.Fatal(err)
	}
	live := qagview.NewLive(sum)
	ds := []int{1, 2}
	if _, err := live.Precompute(1, kMax, ds); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		// Drop two rows, change one value, add three rows (one leading the
		// ranking on the last step).
		next := make([][]string, 0, len(rows)+3)
		nextVals := make([]float64, 0, len(vals)+3)
		for i := range rows {
			if i == 7 || i == len(rows)-1 {
				continue
			}
			v := vals[i]
			if i == 12 {
				v += 0.25
			}
			next = append(next, rows[i])
			nextVals = append(nextVals, v)
		}
		add, addVals := randomAnswers(rng, 3, m, 4)
		for i := range add {
			add[i][0] = fmt.Sprintf("s%d_%d", step, i) // fresh vocabulary
			if step == 2 && i == 0 {
				addVals[i] = 99 // a new leader churns the top L
			}
		}
		rows, vals = append(next, add...), append(nextVals, addVals...)

		stats, changed, err := live.Refresh(&qagview.Result{GroupBy: attrs, Rows: rows, Vals: vals})
		if err != nil {
			t.Fatal(err)
		}
		if !changed || stats.Generated != live.Summarizer().NumClusters() {
			t.Fatalf("step %d: changed=%v stats=%+v", step, changed, stats)
		}
		if want := uint64(step + 2); live.DataVersion() != want {
			t.Fatalf("step %d: data version %d, want %d", step, live.DataVersion(), want)
		}
		warm, err := live.Precompute(1, kMax, ds)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Generation() != live.DataVersion() {
			t.Fatalf("step %d: store generation %d vs data version %d", step, warm.Generation(), live.DataVersion())
		}
		cold, err := qagview.NewSummarizerFromRows(attrs, rows, vals, L)
		if err != nil {
			t.Fatal(err)
		}
		coldStore, err := cold.Precompute(1, kMax, ds, qagview.WithStoreGeneration(live.DataVersion()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeStore(t, warm), encodeStore(t, coldStore)) {
			t.Fatalf("step %d: refreshed store encodes differently from a cold build", step)
		}
		for _, algo := range []qagview.Algorithm{qagview.BottomUp, qagview.FixedOrder, qagview.Hybrid} {
			p := qagview.Params{K: 5, L: L, D: 2}
			wsol, err := live.Summarizer().Summarize(algo, p)
			if err != nil {
				t.Fatal(err)
			}
			csol, err := cold.Summarize(algo, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(wsol.AvgValue()) != math.Float64bits(csol.AvgValue()) ||
				live.Summarizer().Format(wsol, true) != cold.Format(csol, true) {
				t.Fatalf("step %d: %s solutions differ:\n%s\nvs\n%s", step, algo,
					live.Summarizer().Format(wsol, true), cold.Format(csol, true))
			}
		}
	}
	// An identical refresh is a no-op that keeps the version.
	version := live.DataVersion()
	if _, changed, err := live.Refresh(&qagview.Result{GroupBy: attrs, Rows: rows, Vals: vals}); err != nil || changed {
		t.Fatalf("no-op refresh: changed=%v err=%v", changed, err)
	}
	if live.DataVersion() != version {
		t.Fatalf("no-op refresh bumped the version to %d", live.DataVersion())
	}
}

// randomAnswers returns n distinct random rows over m attributes with dom
// values each; rows with value 0 in the first two attributes score higher,
// so the top answers share patterns worth summarizing.
func randomAnswers(rng *rand.Rand, n, m, dom int) ([][]string, []float64) {
	rows := make([][]string, 0, n)
	vals := make([]float64, 0, n)
	seen := map[string]bool{}
	for len(rows) < n {
		row := make([]string, m)
		boost := 0.0
		for j := range row {
			v := rng.Intn(dom)
			row[j] = fmt.Sprintf("v%d_%d", j, v)
			if v == 0 && j < 2 {
				boost++
			}
		}
		if key := fmt.Sprint(row); !seen[key] {
			seen[key] = true
			rows = append(rows, row)
			vals = append(vals, rng.Float64()*3+boost)
		}
	}
	return rows, vals
}

// headRelation returns the first n rows of rel under the same name: the
// table as it stood before its later rows were appended.
func headRelation(t testing.TB, rel *relation.Relation, n int) *relation.Relation {
	t.Helper()
	cols := make([]relation.Column, rel.NumCols())
	for i := range cols {
		c := rel.Column(i)
		cols[i] = relation.Column{Name: c.Name, Kind: c.Kind}
		switch c.Kind {
		case relation.KindString:
			cols[i].Str = c.Str[:n:n]
		case relation.KindInt:
			cols[i].Int = c.Int[:n:n]
		case relation.KindFloat:
			cols[i].Float = c.Float[:n:n]
		}
	}
	out, err := relation.FromColumns(rel.Name(), cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// liveTables is a MovieLens dataset whose ratings arrive in batches: db(n)
// registers the flat RatingTable and the star schema with their first n
// ratings loaded.
type liveTables struct {
	flat *relation.Relation
	star *movielens.Star
}

func newLiveTables(t testing.TB, ratings int) *liveTables {
	t.Helper()
	star, err := movielens.GenerateStar(movielens.Config{Users: 943, Movies: 1682, Ratings: ratings, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := movielens.Denormalize(star)
	if err != nil {
		t.Fatal(err)
	}
	return &liveTables{flat: flat, star: star}
}

func (lt *liveTables) db(t testing.TB, n int) *qagview.DB {
	t.Helper()
	db := qagview.NewDB()
	for _, r := range []*relation.Relation{headRelation(t, lt.flat, n), headRelation(t, lt.star.Ratings, n), lt.star.Users, lt.star.Movies} {
		if err := db.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func liveSQL(t testing.TB, join bool, m int) string {
	t.Helper()
	q, err := movielens.Query(m, 10, "")
	if join {
		q, err = movielens.JoinQuery(m, 10, "")
	}
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// encodeStore returns a store's Store.Encode bytes.
func encodeStore(t testing.TB, st *qagview.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveRefreshMatchesCold drives Live.Refresh through a chain of 20-row
// rating appends on the MovieLens flat table and on its star join, at m = 6
// and m = 8. After every step the store Live.Precompute builds over the warm
// sweeper chain must encode to the same bytes as a cold NewSummarizer +
// Precompute over the same result, and the data version must bump exactly
// when the ranked answer set changed.
func TestLiveRefreshMatchesCold(t *testing.T) {
	const base, batch, steps, kMax = 50_000, 20, 20, 8
	ds := []int{1, 2, 3}
	lt := newLiveTables(t, base+batch*steps)
	for _, join := range []bool{false, true} {
		for _, c := range []struct{ m, L int }{{6, 200}, {8, 400}} {
			t.Run(fmt.Sprintf("join=%v/m=%d", join, c.m), func(t *testing.T) {
				sql := liveSQL(t, join, c.m)
				res, err := lt.db(t, base).Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				sum, err := qagview.NewSummarizer(res, c.L)
				if err != nil {
					t.Fatal(err)
				}
				live := qagview.NewLive(sum)
				if _, err := live.Precompute(1, kMax, ds); err != nil {
					t.Fatal(err)
				}
				prev, changes := res, 0
				for step := 1; step <= steps; step++ {
					res, err := lt.db(t, base+batch*step).Query(sql)
					if err != nil {
						t.Fatal(err)
					}
					version := live.DataVersion()
					_, changed, err := live.Refresh(res)
					if err != nil {
						t.Fatal(err)
					}
					if differs := !sameResult(prev, res); changed != differs {
						t.Fatalf("step %d: changed = %v, but the result differs = %v", step, changed, differs)
					}
					if changed {
						version++
						changes++
					}
					if live.DataVersion() != version {
						t.Fatalf("step %d: data version %d, want %d", step, live.DataVersion(), version)
					}
					warm, err := live.Precompute(1, kMax, ds)
					if err != nil {
						t.Fatal(err)
					}
					cold, err := qagview.NewSummarizer(res, c.L)
					if err != nil {
						t.Fatal(err)
					}
					coldStore, err := cold.Precompute(1, kMax, ds, qagview.WithStoreGeneration(live.DataVersion()))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encodeStore(t, warm), encodeStore(t, coldStore)) {
						t.Fatalf("step %d: refreshed store encodes differently from a cold build", step)
					}
					prev = res
				}
				t.Logf("%d of %d appends changed the answer set", changes, steps)
				if changes == 0 {
					t.Fatal("no append changed the answer set: the chain exercised nothing")
				}
				// Re-running the same data is a no-op that keeps the version.
				version := live.DataVersion()
				if _, changed, err := live.Refresh(prev); err != nil || changed || live.DataVersion() != version {
					t.Fatalf("no-op refresh: changed=%v err=%v version %d -> %d", changed, err, version, live.DataVersion())
				}
			})
		}
	}
}

// sameResult reports whether two query results rank the same rows with the
// same value bits.
func sameResult(a, b *qagview.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) || fmt.Sprint(a.Rows[i]) != fmt.Sprint(b.Rows[i]) {
			return false
		}
	}
	return true
}
