package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"qagview/internal/movielens"
	"qagview/internal/server"
	"qagview/internal/tpcds"
)

// queryAnswer is the answer part of a POST /v1/queries reply.
type queryAnswer struct {
	GroupBy []string   `json:"group_by"`
	N       int        `json:"n"`
	Rows    [][]string `json:"rows"`
	Vals    []float64  `json:"vals"`
	Error   string     `json:"error"`
}

// TestSampleFlatAndStarQueriesAgree loads each -sample preload into a server
// and runs the dataset's flat query and its star-join twin through
// POST /v1/queries: both must succeed against the one catalog and return
// bit-identical answers. This pins that no sample table shadows another: a
// shared name would let the later registration replace the earlier table,
// and star joins would fail on the fact table's surrogate keys.
func TestSampleFlatAndStarQueriesAgree(t *testing.T) {
	mlFlat, err := movielens.Query(4, 0, "genre_adventure = 1")
	if err != nil {
		t.Fatal(err)
	}
	mlJoin, err := movielens.JoinQuery(4, 0, "genre_adventure = 1")
	if err != nil {
		t.Fatal(err)
	}
	tpFlat, err := tpcds.Query(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	tpJoin, err := tpcds.JoinQuery(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	mlCfg := movielens.Config{Users: 60, Movies: 80, Ratings: 900, Seed: 3}
	tpCfg := tpcds.Config{Rows: 2000, Seed: 7}
	for _, c := range []struct {
		sample     string
		flat, join string
	}{
		{"movielens", mlFlat, mlJoin},
		{"tpcds", tpFlat, tpJoin},
	} {
		t.Run(c.sample, func(t *testing.T) {
			rels, err := sampleTables(c.sample, mlCfg, tpCfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(server.Config{})
			t.Cleanup(srv.Close)
			names := map[string]bool{}
			for _, rel := range rels {
				if names[rel.Name()] {
					t.Fatalf("sample %s registers table %q twice", c.sample, rel.Name())
				}
				names[rel.Name()] = true
				if err := srv.Register(rel); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			flat := runQuery(t, ts, c.flat)
			join := runQuery(t, ts, c.join)
			if flat.N == 0 {
				t.Fatalf("flat query returned no groups: %s", c.flat)
			}
			if !reflect.DeepEqual(flat.GroupBy, join.GroupBy) || flat.N != join.N || !reflect.DeepEqual(flat.Rows, join.Rows) {
				t.Fatalf("star join differs from flat query:\nflat %+v\njoin %+v", flat, join)
			}
			for i := range flat.Vals {
				if math.Float64bits(flat.Vals[i]) != math.Float64bits(join.Vals[i]) {
					t.Fatalf("val[%d] bits differ: flat %v, join %v", i, flat.Vals[i], join.Vals[i])
				}
			}
		})
	}
	if _, err := sampleTables("nope", mlCfg, tpCfg); err == nil {
		t.Fatal("unknown sample should fail")
	}
}

// runQuery posts sql to /v1/queries asking for every result row.
func runQuery(t *testing.T, ts *httptest.Server, sql string) queryAnswer {
	t.Helper()
	body, err := json.Marshal(map[string]any{"sql": sql, "limit": math.MaxInt32})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryAnswer
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d: %s", sql, resp.StatusCode, out.Error)
	}
	if len(out.Rows) != out.N {
		t.Fatalf("query %q: %d rows echoed of %d", sql, len(out.Rows), out.N)
	}
	return out
}
