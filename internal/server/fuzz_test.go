package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"qagview"
)

// FuzzTableBodies sends arbitrary bytes as the JSON body of the table,
// row-append and session endpoints. No body may produce a 5xx or a
// recovered panic, and every accepted inline create or append must report
// exactly the number of rows it sent.
func FuzzTableBodies(f *testing.F) {
	srv := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	f.Cleanup(srv.Close)
	if _, err := srv.Recover(); err != nil {
		f.Fatal(err)
	}
	base, err := qagview.FromColumns("t",
		qagview.Column{Name: "g", Kind: qagview.KindString, Str: []string{"a", "b"}},
		qagview.Column{Name: "v", Kind: qagview.KindInt, Int: []int64{1, 2}})
	if err != nil {
		f.Fatal(err)
	}
	if err := srv.Register(base); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Add(uint8(0), []byte(`{"name":"e","attrs":["g"],"rows":[["a"],[""],["b"]]}`))
	f.Add(uint8(0), []byte(`{"name":"c","csv":"g,v\nx,1\n","kinds":{"v":"int"}}`))
	f.Add(uint8(1), []byte(`{"rows":[["",""]]}`))
	f.Add(uint8(1), []byte(`{"rows":[["c","3"],["d","x"]]}`))
	f.Add(uint8(1), []byte(`{"csv":"g,v\nz,9\n"}`))
	f.Add(uint8(2), []byte(`{"sql":"SELECT g, sum(v) AS val FROM t GROUP BY g ORDER BY val DESC","l":1,"kmax":2,"ds":[0]}`))
	f.Add(uint8(2), []byte(`{"sql":"SELECT","l":-1}`))
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := [...]string{"/v1/tables", "/v1/tables/t/rows", "/v1/sessions"}[endpoint%3]
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("POST %s %q: %d %s", path, body, rr.Code, rr.Body)
		}
		if n := srv.panics.Load(); n != 0 {
			t.Fatalf("POST %s %q: %d handler panics recovered", path, body, n)
		}
		if rr.Code != http.StatusCreated && rr.Code != http.StatusOK || endpoint%3 == 2 {
			return
		}
		var sent struct {
			Rows [][]string `json:"rows"`
			CSV  string     `json:"csv"`
		}
		var got map[string]any
		if json.Unmarshal(body, &sent) != nil || sent.CSV != "" || json.Unmarshal(rr.Body.Bytes(), &got) != nil {
			return
		}
		key := "rows" // a create reports the table's rows, an append the rows it added
		if endpoint%3 == 1 {
			key = "appended"
		}
		if got[key] != float64(len(sent.Rows)) {
			t.Fatalf("POST %s %q sent %d rows, reports %s = %v", path, body, len(sent.Rows), key, got[key])
		}
	})
}
