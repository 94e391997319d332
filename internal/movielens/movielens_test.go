package movielens

import (
	"fmt"
	"strings"
	"testing"

	"qagview/internal/engine"
	"qagview/internal/relation"
)

type catalog map[string]*relation.Relation

func (c catalog) Table(name string) (*relation.Relation, error) {
	r, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return r, nil
}

func smallTable(t *testing.T) *relation.Relation {
	t.Helper()
	r, err := Generate(Config{Users: 200, Movies: 300, Ratings: 20_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGenerateShape(t *testing.T) {
	r := smallTable(t)
	if r.NumRows() != 20_000 {
		t.Errorf("rows = %d", r.NumRows())
	}
	if r.NumCols() != 33 {
		t.Errorf("cols = %d, want 33 (paper's RatingTable width)", r.NumCols())
	}
	for _, name := range []string{"hdec", "agegrp", "gender", "occupation", "genre_adventure", "rating"} {
		if _, ok := r.ColumnByName(name); !ok {
			t.Errorf("missing column %q", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Users: 50, Movies: 60, Ratings: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Users: 50, Movies: 60, Ratings: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < a.NumCols(); col++ {
		for row := 0; row < a.NumRows(); row++ {
			if a.StringAt(col, row) != b.StringAt(col, row) {
				t.Fatalf("nondeterministic at (%d,%d)", col, row)
			}
		}
	}
	c, err := Generate(Config{Users: 50, Movies: 60, Ratings: 500, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for row := 0; row < 50 && same; row++ {
		if a.StringAt(a.ColumnIndex("rating"), row) != c.StringAt(c.ColumnIndex("rating"), row) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical ratings prefix")
	}
}

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(Config{Users: 0, Movies: 1, Ratings: 1}); err == nil {
		t.Error("zero users accepted")
	}
}

func TestRatingsInRange(t *testing.T) {
	r := smallTable(t)
	col, _ := r.ColumnByName("rating")
	for i, v := range col.Float {
		if v < 1 || v > 5 || v != float64(int(v)) {
			t.Fatalf("rating[%d] = %v not an integer star in [1,5]", i, v)
		}
	}
}

func TestPlantedStructureVisibleInAggregates(t *testing.T) {
	// The planted affinity must surface in the paper's running query: young
	// male students should rate adventure higher than the overall adventure
	// average.
	r, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog{"RatingTable": r}
	all, err := engine.ExecuteSQL(cat,
		"SELECT gender, avg(rating) AS val FROM RatingTable WHERE genre_adventure = 1 GROUP BY gender")
	if err != nil {
		t.Fatal(err)
	}
	overall := 0.0
	for _, v := range all.Vals {
		overall += v
	}
	overall /= float64(len(all.Vals))

	strata, err := engine.ExecuteSQL(cat, `SELECT agegrp, gender, occupation, avg(rating) AS val
		FROM RatingTable WHERE genre_adventure = 1
		GROUP BY agegrp, gender, occupation HAVING count(*) > 30 ORDER BY val DESC`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range strata.Rows {
		row := strata.Rows[i]
		if row[0] == "20s" && row[1] == "M" && row[2] == "student" {
			found = true
			if strata.Vals[i] <= overall {
				t.Errorf("young male students rate adventure %v, not above overall %v", strata.Vals[i], overall)
			}
		}
	}
	if !found {
		t.Error("(20s, M, student) stratum missing from adventure aggregate")
	}
}

func TestRunningExampleQueryProducesEnoughGroups(t *testing.T) {
	r, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := Query(4, 50, "genre_adventure = 1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteSQL(catalog{"RatingTable": r}, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.N() < 10 {
		t.Errorf("running-example query yields only %d groups; generator too sparse", res.N())
	}
	// Descending order.
	for i := 1; i < res.N(); i++ {
		if res.Vals[i] > res.Vals[i-1] {
			t.Fatal("result not sorted descending")
		}
	}
}

func TestQueryTemplate(t *testing.T) {
	q, err := Query(4, 50, "genre_adventure = 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"hdec, agegrp, gender, occupation", "HAVING count(*) > 50", "WHERE genre_adventure = 1", "ORDER BY val DESC"} {
		if !strings.Contains(q, frag) {
			t.Errorf("query missing %q: %s", frag, q)
		}
	}
	if _, err := Query(0, 1, ""); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Query(99, 1, ""); err == nil {
		t.Error("huge m accepted")
	}
	noHaving, err := Query(2, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(noHaving, "HAVING") || strings.Contains(noHaving, "WHERE") {
		t.Errorf("unexpected clauses: %s", noHaving)
	}
}

// TestStarReferentialIntegrity checks every fact row references a real
// dimension row (the join loses no rows: same count as the flat table).
func TestStarReferentialIntegrity(t *testing.T) {
	star, err := GenerateStar(Config{Users: 30, Movies: 40, Ratings: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	uid, _ := star.Ratings.ColumnByName("user_id")
	mid, _ := star.Ratings.ColumnByName("movie_id")
	for i := range uid.Int {
		if uid.Int[i] < 1 || uid.Int[i] > int64(star.Users.NumRows()) {
			t.Fatalf("rating %d: user_id %d out of range", i, uid.Int[i])
		}
		if mid.Int[i] < 1 || mid.Int[i] > int64(star.Movies.NumRows()) {
			t.Fatalf("rating %d: movie_id %d out of range", i, mid.Int[i])
		}
	}
}
