package engine

import (
	"context"
	"encoding/binary"
	"math"

	"qagview/internal/relation"
)

// This file holds the two differential-testing oracles the production paths
// are proven bit-identical to: the row-at-a-time reference executor
// (executeRef) and the FROM-order nested-loop join (nestedLoopTuples). They
// live in the test binary only; executeReference wires them together
// through the same planners Execute uses, so oracle and production accept
// and reject exactly the same queries with the same errors.

// referenceSQL parses sql and runs it through the oracle path.
func referenceSQL(cat Catalog, sql string) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return executeReference(context.Background(), cat, q)
}

// executeReference runs q through the oracles: single-table queries go
// straight to executeRef; join queries are planned and validated exactly
// like executeJoin, joined by nested loops over every row, materialized, and
// filtered and aggregated by executeRef. ctx is observed between first-table morsels of the nested
// loop, as on the production join paths.
func executeReference(ctx context.Context, cat Catalog, q *Query) (*Result, error) {
	if len(q.Joins) == 0 {
		rel, err := cat.Table(q.Table)
		if err != nil {
			return nil, err
		}
		p, err := planQuery(rel, q)
		if err != nil {
			return nil, err
		}
		return executeRef(p)
	}
	jp, err := planJoin(cat, q)
	if err != nil {
		return nil, err
	}
	srel, err := jp.schemaRel()
	if err != nil {
		return nil, err
	}
	if _, err := planQuery(srel, q); err != nil {
		return nil, err
	}
	tuples, err := jp.nestedLoopTuples(ctx)
	if err != nil {
		return nil, err
	}
	jrel, err := jp.materialize(tuples)
	if err != nil {
		return nil, err
	}
	p, err := planQuery(jrel, q)
	if err != nil {
		return nil, err
	}
	return executeRef(p)
}

// materialize gathers the referenced columns through the row-id tuples into
// an anonymous joined relation for executeRef to filter and aggregate.
// Column names are the exact reference texts, so planQuery resolves them by
// direct lookup. The production join never builds this relation: it pushes
// WHERE into the join and aggregates over base-table codes (join.go), so the
// oracle stays independent of both.
func (jp *joinPlan) materialize(tuples [][]int32) (*relation.Relation, error) {
	n := len(tuples[0])
	cols := make([]relation.Column, len(jp.refs))
	for i, rf := range jp.refs {
		src := jp.rels[rf.tab].Column(rf.col)
		rows := tuples[rf.tab]
		switch src.Kind {
		case relation.KindString:
			vals := make([]string, n)
			for k, r := range rows {
				vals[k] = src.Str[r]
			}
			cols[i] = relation.StringCol(rf.name, vals)
		case relation.KindInt:
			vals := make([]int64, n)
			for k, r := range rows {
				vals[k] = src.Int[r]
			}
			cols[i] = relation.IntCol(rf.name, vals)
		default:
			vals := make([]float64, n)
			for k, r := range rows {
				vals[k] = src.Float[r]
			}
			cols[i] = relation.FloatCol(rf.name, vals)
		}
	}
	return relation.FromColumns(jp.joinedName(), cols...)
}

// nestedLoopTuples is the reference join: FROM-order nested loops over
// ascending row ids, evaluating every ON conjunct as a per-row comparison
// at the step that binds its later table. Its output order — lexicographic
// by the FROM-position row-id tuple — is the canonical order the optimized
// paths are proven bit-identical to.
func (jp *joinPlan) nestedLoopTuples(ctx context.Context) ([][]int32, error) {
	nt := len(jp.rels)
	tuples := make([][]int32, nt)
	cur := make([]int32, nt)
	var rec func(depth int) error
	rec = func(depth int) error {
		if depth == nt {
			for t := range cur {
				tuples[t] = append(tuples[t], cur[t])
			}
			return nil
		}
		var conds []int
		if depth >= 1 {
			conds = jp.steps[depth-1]
		}
		n := jp.rels[depth].NumRows()
		for r := 0; r < n; r++ {
			if depth == 0 && r%morselRows == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			ok := true
			for _, ci := range conds {
				c := &jp.conds[ci]
				if !jp.match(c, cur[c.lt], int32(r)) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur[depth] = int32(r)
			if err := rec(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return tuples, nil
}

// match evaluates condition c between one row of each side under the
// class's key domain.
func (jp *joinPlan) match(c *boundCond, lrow, rrow int32) bool {
	rcol := jp.rels[c.rt].Column(c.rc)
	switch c.key {
	case kkString:
		return c.lcol.Str[lrow] == rcol.Str[rrow]
	case kkInt:
		return c.lcol.Int[lrow] == rcol.Int[rrow]
	default:
		return numKeyBits(c.lcol, lrow) == numKeyBits(rcol, rrow)
	}
}

// aggState accumulates one group's aggregate and HAVING aggregates in the
// reference executor.
type aggState struct {
	row  []string
	sum  float64
	cnt  int64
	min  float64
	max  float64
	hsum []float64
	hcnt []int64
	hmin []float64
	hmax []float64
}

// executeRef is the row-at-a-time reference executor: per-row predicate
// closures, a rendered string key per row, and a Go map of group states. The
// vectorized pipeline (executeVec) is proven bit-identical to it.
func executeRef(p *execPlan) (*Result, error) {
	q := p.q
	preds := compilePredicates(p.preds)

	// Group. Keys are length-prefixed rendered values: a plain separator
	// byte would merge distinct groups whose values contain the separator
	// (see TestExecuteGroupKeyNulSeparator).
	groups := make(map[string]*aggState)
	var order []string // group keys in first-seen order, for determinism
	var kb []byte      // reused key scratch
	for row := 0; row < p.rel.NumRows(); row++ {
		match := true
		for _, pr := range preds {
			if !pr(row) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		kb = kb[:0]
		for _, c := range p.groupCols {
			s := c.StringAt(row)
			kb = binary.AppendUvarint(kb, uint64(len(s)))
			kb = append(kb, s...)
		}
		st, ok := groups[string(kb)]
		if !ok {
			vals := make([]string, len(p.groupCols))
			for i, c := range p.groupCols {
				vals[i] = c.StringAt(row)
			}
			st = &aggState{
				row:  vals,
				min:  math.Inf(1),
				max:  math.Inf(-1),
				hsum: make([]float64, len(q.Having)),
				hcnt: make([]int64, len(q.Having)),
				hmin: make([]float64, len(q.Having)),
				hmax: make([]float64, len(q.Having)),
			}
			for i := range st.hmin {
				st.hmin[i] = math.Inf(1)
				st.hmax[i] = math.Inf(-1)
			}
			key := string(kb)
			groups[key] = st
			order = append(order, key)
		}
		st.cnt++
		if p.aggCol != nil {
			v, err := p.aggCol.FloatAt(row)
			if err != nil {
				return nil, err
			}
			st.sum += v
			if v < st.min {
				st.min = v
			}
			if v > st.max {
				st.max = v
			}
		}
		for i := range q.Having {
			if p.havingCols[i] == nil {
				st.hcnt[i]++
				continue
			}
			v, err := p.havingCols[i].FloatAt(row)
			if err != nil {
				return nil, err
			}
			st.hcnt[i]++
			st.hsum[i] += v
			if v < st.hmin[i] {
				st.hmin[i] = v
			}
			if v > st.hmax[i] {
				st.hmax[i] = v
			}
		}
	}

	// HAVING filter and final value.
	res := &Result{GroupBy: append([]string(nil), q.GroupBy...), ValName: q.Agg.Alias, Table: q.Table, Tables: q.Tables()}
	for _, key := range order {
		st := groups[key]
		keep := true
		for i, h := range q.Having {
			v := finalize(h.Agg.Fn, st.hsum[i], st.hcnt[i], st.hmin[i], st.hmax[i])
			if !cmpFloat(v, h.Op, h.Num) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		res.Rows = append(res.Rows, st.row)
		res.Vals = append(res.Vals, finalize(q.Agg.Fn, st.sum, st.cnt, st.min, st.max))
	}
	orderAndLimit(q, res)
	return res, nil
}

// compilePredicates turns resolved WHERE conjuncts into per-row closures.
// Numeric literals compare numerically against numeric columns; string
// literals compare against string columns.
func compilePredicates(preds []predBind) []func(int) bool {
	out := make([]func(int) bool, 0, len(preds))
	for _, p := range preds {
		p := p
		if p.lit.IsNum {
			col := p.col
			out = append(out, func(row int) bool {
				v, _ := col.FloatAt(row)
				return cmpFloat(v, p.op, p.lit.Num)
			})
			continue
		}
		col := p.col
		out = append(out, func(row int) bool {
			eq := col.Str[row] == p.lit.Str
			if p.op == OpEq {
				return eq
			}
			return !eq
		})
	}
	return out
}
