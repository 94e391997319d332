package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"

	"qagview"
	"qagview/internal/movielens"
	"qagview/internal/relation"
)

// Every session the benchmark opens uses the same (k, D) grid and HAVING
// threshold; only the query and L vary.
const (
	kMax     = 12
	minCount = 10
)

var dsGrid = []int{1, 2, 3}

// dataset is the generated MovieLens catalog in the form the server
// receives it: one create-table request body per table. full holds the
// typed fact tables including the rows past the loaded prefix, which the
// live workload appends.
type dataset struct {
	order  []string
	bodies map[string][]byte
	csv    map[string][]byte
	kinds  map[string]map[string]qagview.Kind
	full   map[string]*qagview.Relation
	loaded int // rows of ratings and RatingTable in the create requests
}

// genData generates the MovieLens data: ratings rows are loaded, and extra
// further rows stay in full for appends. The data is the same for every
// benchmark seed, as a real dataset would be; the seed varies the ops. Data
// drawn per seed moved the medians by 20% between seeds (group counts, and
// with them build and query costs, vary with the data), more than the
// bounds allow.
func genData(ratings, extra int) (*dataset, error) {
	cfg := movielens.DefaultConfig()
	cfg.Ratings = ratings + extra
	star, err := movielens.GenerateStar(cfg)
	if err != nil {
		return nil, err
	}
	flat, err := movielens.Denormalize(star)
	if err != nil {
		return nil, err
	}
	d := &dataset{
		bodies: map[string][]byte{}, csv: map[string][]byte{},
		kinds:  map[string]map[string]qagview.Kind{},
		full:   map[string]*qagview.Relation{"ratings": star.Ratings, "RatingTable": flat},
		loaded: ratings,
	}
	for _, rel := range []*qagview.Relation{star.Users, star.Movies, star.Ratings, flat} {
		if _, fact := d.full[rel.Name()]; fact {
			if rel, err = gather(rel, nil, seq(0, ratings)); err != nil {
				return nil, err
			}
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, rel); err != nil {
			return nil, err
		}
		kinds, names := map[string]qagview.Kind{}, map[string]string{}
		for i := 0; i < rel.NumCols(); i++ {
			switch c := rel.Column(i); c.Kind {
			case qagview.KindInt:
				kinds[c.Name], names[c.Name] = c.Kind, "int"
			case qagview.KindFloat:
				kinds[c.Name], names[c.Name] = c.Kind, "float"
			}
		}
		body, err := json.Marshal(map[string]any{"name": rel.Name(), "csv": buf.String(), "kinds": names})
		if err != nil {
			return nil, err
		}
		d.order = append(d.order, rel.Name())
		d.bodies[rel.Name()], d.csv[rel.Name()], d.kinds[rel.Name()] = body, buf.Bytes(), kinds
	}
	return d, nil
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// gather returns a new relation holding base's rows followed by src's rows
// at idx (base may be nil), copying every column: the copy-on-write append
// the server performs.
func gather(src, base *qagview.Relation, idx []int) (*qagview.Relation, error) {
	cols := make([]qagview.Column, src.NumCols())
	for i := range cols {
		s := src.Column(i)
		c := qagview.Column{Name: s.Name, Kind: s.Kind}
		var b *qagview.Column
		if base != nil {
			b = base.Column(i)
		}
		switch s.Kind {
		case qagview.KindString:
			if b != nil {
				c.Str = append(c.Str, b.Str...)
			}
			for _, r := range idx {
				c.Str = append(c.Str, s.Str[r])
			}
		case qagview.KindInt:
			if b != nil {
				c.Int = append(c.Int, b.Int...)
			}
			for _, r := range idx {
				c.Int = append(c.Int, s.Int[r])
			}
		case qagview.KindFloat:
			if b != nil {
				c.Float = append(c.Float, b.Float...)
			}
			for _, r := range idx {
				c.Float = append(c.Float, s.Float[r])
			}
		}
		cols[i] = c
	}
	return qagview.FromColumns(src.Name(), cols...)
}

// rowsOf renders src's rows at idx as strings, the form an append request
// carries.
func rowsOf(src *qagview.Relation, idx []int) [][]string {
	out := make([][]string, len(idx))
	for j, r := range idx {
		row := make([]string, src.NumCols())
		for i := range row {
			row[i] = src.StringAt(i, r)
		}
		out[j] = row
	}
	return out
}

// sessSpec is one exploration session: the paper's aggregate template over
// the first m grouping attributes, on the flat table or the star join.
type sessSpec struct {
	M     int
	Where string
	Join  bool
	L     int
}

func (s sessSpec) sql() string {
	q, err := movielens.Query(s.M, minCount, s.Where)
	if s.Join {
		q, err = movielens.JoinQuery(s.M, minCount, s.Where)
	}
	if err != nil {
		panic(err) // m comes from the benchmark's own constants
	}
	return q
}

func (s sessSpec) body() []byte {
	b, _ := json.Marshal(map[string]any{"sql": s.sql(), "l": s.L, "kmin": 1, "kmax": kMax, "ds": dsGrid})
	return b
}

// table is the table whose appends make the session stale.
func (s sessSpec) table() string {
	if s.Join {
		return "ratings"
	}
	return "RatingTable"
}

// model is the benchmark's own in-process copy of the server's state, built
// from the same inputs through the layers' public functions. It is the
// oracle for replies; in the traced replay its calls are the layer spans.
type model struct {
	tr   *tracer
	db   *qagview.DB
	gens map[string]int // appends applied per table

	clusters, rowsPerGroup, storeBytes []float64
	lcaHits, lcaMisses                 int
}

func newModel(tr *tracer) *model {
	return &model{tr: tr, db: qagview.NewDB(), gens: map[string]int{}}
}

// load parses every table from the same CSV the server receives.
func (m *model) load(d *dataset) error {
	for _, name := range d.order {
		var rel *qagview.Relation
		var err error
		m.tr.do("relation.csv_load", func() {
			rel, err = qagview.ReadCSV(bytes.NewReader(d.csv[name]), name, d.kinds[name])
		})
		if err != nil {
			return err
		}
		m.register(rel)
	}
	return nil
}

// register installs rel and builds the dictionary codes of the columns the
// queries group or join by, as the engine does on a fresh relation.
func (m *model) register(rel *qagview.Relation) {
	m.tr.do("relation.dict_encode", func() {
		for _, name := range append([]string{"user_id", "movie_id"}, movielens.GroupingAttrs...) {
			if i := rel.ColumnIndex(name); i >= 0 {
				rel.DictCodes(i)
			}
		}
	})
	_ = m.db.Register(rel) // non-nil and named by construction
}

// appendRows appends full's rows at idx to table, copy-on-write.
func (m *model) appendRows(table string, full *qagview.Relation, idx []int) error {
	cur, err := m.db.Table(table)
	if err != nil {
		return err
	}
	var next *qagview.Relation
	m.tr.do("relation.append", func() { next, err = gather(full, cur, idx) })
	if err != nil {
		return err
	}
	m.register(next)
	m.gens[table]++
	return nil
}

// msess is the model's copy of one server session.
type msess struct {
	spec  sessSpec
	live  *qagview.Live
	store *qagview.Store // nil until a store is needed for the current data
	gen   int            // model generation of spec.table() the session reflects
	n     int
}

func (m *model) query(s sessSpec) (*qagview.Result, error) {
	name := "engine.exec.flat"
	if s.Join {
		name = "engine.exec.join"
	}
	var res *qagview.Result
	var err error
	m.tr.do(name, func() { res, err = m.db.Query(s.sql()) })
	if err != nil {
		return nil, err
	}
	if res.N() > 0 {
		fact, _ := m.db.Table(s.table())
		m.rowsPerGroup = append(m.rowsPerGroup, float64(fact.NumRows())/float64(res.N()))
	}
	return res, nil
}

// open builds a session from scratch: query, then cluster space. L is
// capped at the query's group count.
func (m *model) open(s sessSpec) (*msess, error) {
	res, err := m.query(s)
	if err != nil {
		return nil, err
	}
	s.L = min(s.L, res.N())
	var sum *qagview.Summarizer
	m.tr.do("lattice.build", func() { sum, err = qagview.NewSummarizer(res, s.L) })
	if err != nil {
		return nil, err
	}
	m.clusters = append(m.clusters, float64(sum.NumClusters()))
	return &msess{spec: s, live: qagview.NewLive(sum), gen: m.gens[s.table()], n: res.N()}, nil
}

// openAll opens every spec and returns the specs with L capped.
func (m *model) openAll(specs []sessSpec) ([]sessSpec, []*msess, error) {
	out, sess := make([]sessSpec, len(specs)), make([]*msess, len(specs))
	for i, s := range specs {
		ms, err := m.open(s)
		if err != nil {
			return nil, nil, err
		}
		out[i], sess[i] = ms.spec, ms
	}
	return out, sess, nil
}

// report sets the per-layer counts the model gathered.
func (m *model) report(r *report) {
	r.layer["lattice.clusters"] = median(m.clusters)
	r.layer["engine.rows_per_group"] = median(m.rowsPerGroup)
	r.layer["precompute.store_bytes"] = median(m.storeBytes)
	r.layer["precompute.lca_hit_ratio"] = ratio(m.lcaHits, m.lcaHits+m.lcaMisses)
}

// refresh brings a session up to the model's data, incrementally.
func (m *model) refresh(ms *msess) error {
	if ms.gen == m.gens[ms.spec.table()] {
		return nil
	}
	res, err := m.query(ms.spec)
	if err != nil {
		return err
	}
	var changed bool
	m.tr.do("lattice.refresh", func() { _, changed, err = ms.live.RefreshCtx(context.Background(), res) })
	if err != nil {
		return err
	}
	if changed {
		ms.store = nil
	}
	ms.gen = m.gens[ms.spec.table()]
	return nil
}

func (m *model) storeOf(ms *msess) (*qagview.Store, error) {
	if ms.store != nil {
		return ms.store, nil
	}
	var err error
	m.tr.do("precompute.sweep", func() { ms.store, err = ms.live.Precompute(1, kMax, dsGrid) })
	if err != nil {
		return nil, err
	}
	m.storeBytes = append(m.storeBytes, float64(ms.store.SizeBytes()))
	rs := ms.store.ReplayStats()
	m.lcaHits += rs.LCAMemoHits
	m.lcaMisses += rs.LCAMemoMisses
	return ms.store, nil
}

// solution computes the (k, d) solution the way the server does for the
// given reply source: retrieval from the store, or a live Hybrid run.
func (m *model) solution(ms *msess, source string, k, d int) (*qagview.Solution, error) {
	var sol *qagview.Solution
	var err error
	if source == "store" {
		st, err := m.storeOf(ms)
		if err != nil {
			return nil, err
		}
		m.tr.do("precompute.retrieve", func() { sol, err = st.Solution(k, d) })
		return sol, err
	}
	m.tr.do("summarize.hybrid", func() {
		sol, err = ms.live.Summarizer().Summarize(qagview.Hybrid, qagview.Params{K: k, L: ms.spec.L, D: d})
	})
	return sol, err
}

func clustersJSON(sum *qagview.Summarizer, sol *qagview.Solution) []map[string]any {
	var out []map[string]any
	for _, r := range sum.Rows(sol) {
		out = append(out, map[string]any{"pattern": r.Pattern, "avg": r.Avg, "size": r.Size})
	}
	return out
}

// wantSolution is the expected solution reply for the given source.
func (m *model) wantSolution(ms *msess, source string, k, d int) (map[string]any, error) {
	sol, err := m.solution(ms, source, k, d)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"k": k, "d": d, "source": source,
		"objective": sol.AvgValue(), "covered": len(sol.Covered),
		"clusters": clustersJSON(ms.live.Summarizer(), sol),
	}, nil
}

// wantDiff is the expected diff reply between two store solutions.
func (m *model) wantDiff(ms *msess, k1, d1, k2, d2 int) (map[string]any, error) {
	prev, err := m.solution(ms, "store", k1, d1)
	if err != nil {
		return nil, err
	}
	next, err := m.solution(ms, "store", k2, d2)
	if err != nil {
		return nil, err
	}
	sum := ms.live.Summarizer()
	var diff *qagview.Diff
	m.tr.do("sankey.diff", func() { diff, err = sum.Compare(prev, next) })
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"from": map[string]any{"k": k1, "d": d1, "source": "store"},
		"to":   map[string]any{"k": k2, "d": d2, "source": "store"},
		"left": clustersJSON(sum, prev), "right": clustersJSON(sum, next),
		"overlap": diff.M, "left_top": diff.LeftTop, "right_top": diff.RightTop,
	}, nil
}

// wantGuidance is the expected guidance reply.
func (m *model) wantGuidance(ms *msess) (map[string]any, error) {
	st, err := m.storeOf(ms)
	if err != nil {
		return nil, err
	}
	var g *qagview.Guidance
	m.tr.do("precompute.guidance", func() { g = st.Guidance() })
	series, minSizes := map[string]any{}, map[string]any{}
	for d, vals := range g.Series {
		series[strconv.Itoa(d)] = vals
	}
	for d, ms := range g.MinSizes {
		minSizes[strconv.Itoa(d)] = ms
	}
	return map[string]any{"kmin": g.KMin, "kmax": g.KMax, "series": series, "min_sizes": minSizes}, nil
}

// matches reports whether every field of want equals the reply's field of
// the same name after a JSON round trip. Go encodes float64 in the shortest
// form that parses back to the same bits, so equal decoded values mean
// bit-identical answers.
func matches(reply []byte, want map[string]any) bool {
	var got map[string]any
	if err := json.Unmarshal(reply, &got); err != nil {
		return false
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return false
	}
	var w map[string]any
	if err := json.Unmarshal(wb, &w); err != nil {
		return false
	}
	for k, v := range w {
		if !reflect.DeepEqual(got[k], v) {
			return false
		}
	}
	return true
}

// sourceOf returns a solution reply's "source" field.
func sourceOf(reply []byte) string {
	var r struct {
		Source string `json:"source"`
	}
	_ = json.Unmarshal(reply, &r)
	return r.Source
}
