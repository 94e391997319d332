package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"qagview/internal/obs"
	"qagview/internal/relation"
)

// This file implements multi-table execution. A join query runs in four
// stages and never builds a joined relation: planJoin resolves the FROM
// relations, ON conditions and column references (producing every
// name-resolution error), and the aggregation is planned once over the
// join's zero-row output schema; filter pushes WHERE down, evaluating each
// conjunct once over the one base table it reads; a join algorithm computes
// the matching row-id tuples over the surviving rows in the canonical order
// — lexicographic by FROM-position row ids, the order the nested-loop
// reference produces naturally; and gather aggregates over the tuples with
// the single-table pipeline, keying groups on the base tables' cached
// dictionary codes read through the tuples. Two production algorithms
// produce the same tuples, bit for bit, as the FROM-order nested-loop
// oracle (nestedLoopTuples, in reference_test.go), which joins every row
// and filters after the join:
//
//   - hashTuples: a left-deep binary hash-join plan over flat CSR build
//     indexes with a morsel-parallel probe (chosen for acyclic join graphs);
//   - leapfrogTuples (wcoj.go): the worst-case-optimal generic join (chosen
//     for cyclic graphs, where binary plans can materialize
//     asymptotically larger intermediates).
//
// Join keys use value identity per equivalence class of equated columns:
// text classes compare strings, all-int classes compare exact int64s, and
// classes containing a float column compare float64 bit patterns with every
// NaN collapsed to one key (so NaN joins NaN and ±0 stay distinct, matching
// GROUP BY semantics; see docs/SQL.md).

// ErrAmbiguousColumn reports an unqualified column reference that resolves
// in more than one FROM relation.
var ErrAmbiguousColumn = errors.New("ambiguous column")

// joinKeyKind is the key domain of one equivalence class of equated columns.
type joinKeyKind int

const (
	kkString joinKeyKind = iota
	kkInt
	kkFloat
)

// boundCond is one resolved ON conjunct, normalized so rt is the newly
// joined (higher FROM position) table.
type boundCond struct {
	lt, lc int // earlier table and column index
	rt, rc int // newly joined table and column index
	lcol   *relation.Column
	key    joinKeyKind
}

// joinRef is one distinct column reference the query reads, in first-use
// order; its name is the exact reference text, which names its column in
// schemaRel.
type joinRef struct {
	name     string
	tab, col int
}

// joinPlan is a multi-table query resolved and validated against the
// catalog.
type joinPlan struct {
	q      *Query
	rels   []*relation.Relation // FROM order
	names  []string             // display name per FROM entry (alias or table)
	conds  []boundCond          // all ON conjuncts, clause order
	steps  [][]int              // conds evaluated when joining table i+1
	refs   []joinRef
	cyclic bool

	// Variable classes (connected components of equated columns), filled by
	// assignKeyKinds for the worst-case-optimal path: per-class occurrence
	// lists in first-appearance order and the class key domain.
	varOccs [][][2]int // per class: (table, column) occurrences
	varKind []joinKeyKind
}

var canonNaNBits = math.Float64bits(math.NaN())

// floatKeyBits is the float join-key domain: the value's bit pattern with
// every NaN payload collapsed, so NaN = NaN holds and -0 stays distinct
// from +0 — value identity, exactly as GROUP BY groups floats.
func floatKeyBits(v float64) uint64 {
	if v != v {
		return canonNaNBits
	}
	return math.Float64bits(v)
}

// numKeyBits renders a numeric column value into the float key domain; int
// columns convert exactly like Column.FloatAt.
func numKeyBits(c *relation.Column, row int32) uint64 {
	if c.Kind == relation.KindInt {
		return floatKeyBits(float64(c.Int[row]))
	}
	return floatKeyBits(c.Float[row])
}

// planJoin resolves a multi-table query: FROM relations through the
// catalog, ON conditions into normalized bound conjuncts with key domains,
// and every column reference the aggregation reads.
func planJoin(cat Catalog, q *Query) (*joinPlan, error) {
	jp := &joinPlan{q: q}
	addTable := func(tr TableRef) error {
		name := tr.Name()
		for _, n := range jp.names {
			if n == name {
				return fmt.Errorf("engine: duplicate table name or alias %q in FROM; alias one of the uses", name)
			}
		}
		rel, err := cat.Table(tr.Table)
		if err != nil {
			return err
		}
		jp.rels = append(jp.rels, rel)
		jp.names = append(jp.names, name)
		return nil
	}
	if err := addTable(q.From()); err != nil {
		return nil, err
	}
	for _, j := range q.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}

	jp.steps = make([][]int, len(q.Joins))
	for i, j := range q.Joins {
		newT := i + 1
		scope := newT + 1
		for _, on := range j.On {
			lt, lc, err := jp.resolveRef(on.Left, scope)
			if err != nil {
				return nil, err
			}
			rt, rc, err := jp.resolveRef(on.Right, scope)
			if err != nil {
				return nil, err
			}
			if lt == rt {
				return nil, fmt.Errorf("engine: ON condition %s = %s relates table %q to itself", on.Left, on.Right, jp.names[lt])
			}
			if lt == newT {
				lt, lc, rt, rc = rt, rc, lt, lc
			}
			if rt != newT {
				return nil, fmt.Errorf("engine: ON condition %s = %s for JOIN %q must reference the joined table", on.Left, on.Right, jp.names[newT])
			}
			jp.steps[i] = append(jp.steps[i], len(jp.conds))
			jp.conds = append(jp.conds, boundCond{
				lt: lt, lc: lc, rt: rt, rc: rc,
				lcol: jp.rels[lt].Column(lc),
			})
		}
	}
	if err := jp.assignKeyKinds(); err != nil {
		return nil, err
	}
	jp.cyclic = jp.computeCyclic()
	if err := jp.collectRefs(); err != nil {
		return nil, err
	}
	return jp, nil
}

// resolveRef resolves a (possibly qualified) column reference against the
// first scope FROM entries.
func (jp *joinPlan) resolveRef(ref string, scope int) (int, int, error) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		qual, bare := ref[:i], ref[i+1:]
		for t := 0; t < scope; t++ {
			if jp.names[t] == qual {
				c := jp.rels[t].ColumnIndex(bare)
				if c < 0 {
					return 0, 0, fmt.Errorf("engine: unknown column %q in table %q", bare, qual)
				}
				return t, c, nil
			}
		}
		return 0, 0, fmt.Errorf("engine: unknown table or alias %q in column reference %q (tables in scope: %s)",
			qual, ref, strings.Join(jp.names[:scope], ", "))
	}
	ft, fc := -1, -1
	var in []string
	for t := 0; t < scope; t++ {
		if c := jp.rels[t].ColumnIndex(ref); c >= 0 {
			in = append(in, jp.names[t])
			ft, fc = t, c
		}
	}
	switch len(in) {
	case 0:
		return 0, 0, fmt.Errorf("engine: unknown column %q (tables in scope: %s)", ref, strings.Join(jp.names[:scope], ", "))
	case 1:
		return ft, fc, nil
	default:
		return 0, 0, fmt.Errorf("engine: %w %q: present in tables %s; qualify it", ErrAmbiguousColumn, ref, strings.Join(in, ", "))
	}
}

// assignKeyKinds unions the (table, column) occurrences of all ON
// conditions into equivalence classes — equality is transitive, so every
// column in a class must share one key domain — and assigns each condition
// its class's domain: text, exact int64, or float bit identity when any
// member is a float column. Equating text with numeric columns is a plan
// error. The class structure is also recorded for the worst-case-optimal
// path, which enumerates classes as join variables.
func (jp *joinPlan) assignKeyKinds() error {
	id := make(map[[2]int]int)
	var occs [][2]int
	var kinds []relation.Kind
	var parent []int
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	occ := func(t, c int) int {
		k := [2]int{t, c}
		if i, ok := id[k]; ok {
			return i
		}
		i := len(parent)
		id[k] = i
		occs = append(occs, k)
		kinds = append(kinds, jp.rels[t].Column(c).Kind)
		parent = append(parent, i)
		return i
	}
	condOcc := make([][2]int, len(jp.conds))
	for i := range jp.conds {
		a := occ(jp.conds[i].lt, jp.conds[i].lc)
		b := occ(jp.conds[i].rt, jp.conds[i].rc)
		condOcc[i] = [2]int{a, b}
		parent[find(a)] = find(b)
	}
	n := len(parent)
	strAt := make([]int, n)
	numAt := make([]int, n)
	hasFloat := make([]bool, n)
	for i := range strAt {
		strAt[i], numAt[i] = -1, -1
	}
	for i := 0; i < n; i++ {
		r := find(i)
		if kinds[i] == relation.KindString {
			if strAt[r] < 0 {
				strAt[r] = i
			}
		} else {
			if numAt[r] < 0 {
				numAt[r] = i
			}
			if kinds[i] == relation.KindFloat {
				hasFloat[r] = true
			}
		}
	}
	colName := func(i int) string {
		return jp.names[occs[i][0]] + "." + jp.rels[occs[i][0]].Column(occs[i][1]).Name
	}
	classOf := make([]int, n) // root -> class id in first-cond order
	for i := range classOf {
		classOf[i] = -1
	}
	for ci := range jp.conds {
		r := find(condOcc[ci][0])
		if strAt[r] >= 0 && numAt[r] >= 0 {
			return fmt.Errorf("engine: ON equates text column %s with %s column %s",
				colName(strAt[r]), kinds[numAt[r]], colName(numAt[r]))
		}
		switch {
		case strAt[r] >= 0:
			jp.conds[ci].key = kkString
		case hasFloat[r]:
			jp.conds[ci].key = kkFloat
		default:
			jp.conds[ci].key = kkInt
		}
		if classOf[r] < 0 {
			classOf[r] = len(jp.varOccs)
			jp.varOccs = append(jp.varOccs, nil)
			jp.varKind = append(jp.varKind, jp.conds[ci].key)
		}
	}
	for i := 0; i < n; i++ {
		v := classOf[find(i)]
		jp.varOccs[v] = append(jp.varOccs[v], occs[i])
	}
	return nil
}

// computeCyclic reports whether the join graph — FROM entries as nodes,
// distinct condition pairs as edges — contains a cycle. Connectivity is
// guaranteed by construction (every ON conjunct relates the joined table to
// an earlier one), so cyclic means #distinct edges > #nodes - 1.
func (jp *joinPlan) computeCyclic() bool {
	parent := make([]int, len(jp.rels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	seen := make(map[[2]int]bool, len(jp.conds))
	cyclic := false
	for _, c := range jp.conds {
		a, b := c.lt, c.rt
		if a > b {
			a, b = b, a
		}
		e := [2]int{a, b}
		if seen[e] {
			continue
		}
		seen[e] = true
		ra, rb := find(a), find(b)
		if ra == rb {
			cyclic = true
		} else {
			parent[ra] = rb
		}
	}
	return cyclic
}

// collectRefs resolves every column reference the aggregation reads, in
// first-use order, deduplicated by reference text.
func (jp *joinPlan) collectRefs() error {
	seen := make(map[string]bool)
	add := func(ref string) error {
		if ref == "" || ref == "*" || seen[ref] {
			return nil
		}
		t, c, err := jp.resolveRef(ref, len(jp.rels))
		if err != nil {
			return err
		}
		seen[ref] = true
		jp.refs = append(jp.refs, joinRef{name: ref, tab: t, col: c})
		return nil
	}
	for _, g := range jp.q.GroupBy {
		if err := add(g); err != nil {
			return err
		}
	}
	if err := add(jp.q.Agg.Arg); err != nil {
		return err
	}
	for _, w := range jp.q.Where {
		if err := add(w.Column); err != nil {
			return err
		}
	}
	for _, h := range jp.q.Having {
		if err := add(h.Agg.Arg); err != nil {
			return err
		}
	}
	return nil
}

func (jp *joinPlan) joinedName() string { return strings.Join(jp.names, "+") }

// schemaRel is the join's output shape with zero rows: one column per
// distinct reference, named by its exact text. The aggregation is planned
// once against it, before the join runs, so type and ORDER BY errors surface
// identically on every path; each planned column then names its base column
// through refOf.
func (jp *joinPlan) schemaRel() (*relation.Relation, error) {
	cols := make([]relation.Column, len(jp.refs))
	for i, rf := range jp.refs {
		cols[i] = relation.Column{Name: rf.name, Kind: jp.rels[rf.tab].Column(rf.col).Kind}
	}
	return relation.FromColumns(jp.joinedName(), cols...)
}

// refOf returns the reference behind a column of p, which was planned over
// schemaRel.
func (jp *joinPlan) refOf(p *execPlan, c *relation.Column) joinRef {
	return jp.refs[p.rel.ColumnIndex(c.Name)]
}

// executeJoin plans and runs a multi-table query end to end: filter each
// base table, join the survivors into row-id tuples, and aggregate over the
// base tables' dictionary codes read through the tuples.
func executeJoin(cat Catalog, q *Query, cfg execConfig) (*Result, error) {
	ctx, jsp := obs.StartSpan(cfg.ctx, "join")
	if jsp != nil {
		cfg.ctx = ctx
	}
	defer jsp.End()

	plSt := cfg.prof.op("join.plan")
	t0 := profNow(plSt)
	_, psp := obs.StartSpan(cfg.ctx, "join.plan")
	var p *execPlan
	jp, err := planJoin(cat, q)
	if err == nil {
		var srel *relation.Relation
		if srel, err = jp.schemaRel(); err == nil {
			p, err = planQuery(srel, q)
		}
	}
	psp.End()
	plSt.addWall(t0)
	if err != nil {
		return nil, err
	}
	sel := jp.filter(p, cfg)
	var tuples [][]int32
	if cfg.joins == joinGeneric || (cfg.joins == joinAuto && jp.cyclic) {
		tuples, err = jp.leapfrogOp(sel, cfg)
	} else {
		tuples, err = jp.hashTuples(sel, cfg)
	}
	if err != nil {
		return nil, err
	}
	return executeVec(jp.gather(p, tuples, cfg), cfg)
}

// filter pushes WHERE down to the base tables: every conjunct reads one
// FROM position, so it runs once over that table's rows with the vectorized
// predicate kernels. sel[t] lists table t's surviving rows ascending, or is
// nil when no conjunct reads t. The joins then see only survivors, so their
// tuples are the nested-loop tuples that pass WHERE, in the same order.
func (jp *joinPlan) filter(p *execPlan, cfg execConfig) [][]int32 {
	sel := make([][]int32, len(jp.rels))
	parent := obs.FromContext(cfg.ctx)
	for t, rel := range jp.rels {
		var st *opStats
		if cfg.prof != nil {
			st = cfg.prof.op("join.filter(" + jp.names[t] + ")")
		}
		t0 := profNow(st)
		sp := parent.Child("join.filter")
		n := rel.NumRows()
		for _, pb := range p.preds {
			rf := jp.refOf(p, pb.col)
			if rf.tab != t {
				continue
			}
			pb.col = rel.Column(rf.col)
			if sel[t] == nil {
				sel[t] = filterRange(pb, 0, int32(n), make([]int32, 0, n))
			} else {
				sel[t] = filterSel(pb, sel[t])
			}
		}
		out := n
		if sel[t] != nil {
			out = len(sel[t])
		}
		sp.SetAttr("table", jp.names[t])
		sp.SetInt("rows_in", int64(n))
		sp.SetInt("rows_out", int64(out))
		sp.End()
		st.observe(int64(n), int64(out), t0)
	}
	return sel
}

// gather sets up the aggregation over the join's tuples without building a
// joined relation. Each group column keys on its base table's cached
// dictionary codes, read through the tuples (the base cardinality sets the
// packed width; two tuples share a code exactly when they share the
// rendered value), and finalize renders it from the base column at the
// group's first tuple. The aggregate and HAVING arguments are gathered into
// float columns, ints converting exactly like FloatAt.
func (jp *joinPlan) gather(p *execPlan, tuples [][]int32, cfg execConfig) *vecPlan {
	st := cfg.prof.op("join.gather")
	t0 := profNow(st)
	_, sp := obs.StartSpan(cfg.ctx, "join.gather")
	n := len(tuples[0])
	m := len(p.groupCols)
	gp := &execPlan{rel: p.rel, q: p.q, groupCols: make([]*relation.Column, m), havingCols: make([]*relation.Column, len(p.havingCols))}
	vp := &vecPlan{execPlan: gp, n: n, codes: make([][]int32, m), rowOf: make([][]int32, m)}
	dicts := make([]*relation.ColDict, m)
	dsp := dictSpan(cfg.ctx, m)
	for j, c := range p.groupCols {
		rf := jp.refOf(p, c)
		dicts[j] = jp.rels[rf.tab].DictCodes(rf.col)
		gp.groupCols[j], vp.rowOf[j] = jp.rels[rf.tab].Column(rf.col), tuples[rf.tab]
	}
	dsp.End()
	cards := make([]int, m)
	for j, d := range dicts {
		codes := make([]int32, n)
		for k, r := range vp.rowOf[j] {
			codes[k] = d.Codes[r]
		}
		vp.codes[j], cards[j] = codes, d.Card
	}
	num := func(c *relation.Column) *relation.Column {
		if c == nil {
			return nil // count(*)
		}
		rf := jp.refOf(p, c)
		vals := make([]float64, n)
		gather(jp.rels[rf.tab].Column(rf.col), tuples[rf.tab], vals)
		return &relation.Column{Name: c.Name, Kind: relation.KindFloat, Float: vals}
	}
	gp.aggCol = num(p.aggCol)
	for h, c := range p.havingCols {
		gp.havingCols[h] = num(c)
	}
	vp.layoutKeys(cards, cfg.stringKeys)
	sp.SetInt("tuples", int64(n))
	sp.End()
	st.observe(int64(n), int64(n), t0)
	return vp
}

// leapfrogOp runs the worst-case-optimal join under a span and profile
// operator.
func (jp *joinPlan) leapfrogOp(sel [][]int32, cfg execConfig) ([][]int32, error) {
	st := cfg.prof.op("join.leapfrog")
	t0 := profNow(st)
	_, sp := obs.StartSpan(cfg.ctx, "join.leapfrog")
	tuples, err := jp.leapfrogTuples(cfg.ctx, sel)
	sp.End()
	st.addWall(t0)
	if err != nil {
		return nil, err
	}
	n := len(tuples[0])
	st.addRows(0, int64(n))
	sp.SetInt("tuples", int64(n))
	return tuples, nil
}

// tupleBuf returns empty tuple columns sized for n tuples: a foreign-key
// probe emits at most one tuple per probe row, so appends rarely regrow.
func tupleBuf(width, n int) [][]int32 {
	buf := make([][]int32, width)
	for t := range buf {
		buf[t] = make([]int32, 0, n)
	}
	return buf
}

// allRows returns the row ids 0..n-1, the row list of an unfiltered table.
func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// ---- binary hash join ----

// valIndex maps join-key values to dense build-side codes, in one of the
// three key domains.
type valIndex struct {
	kind joinKeyKind
	s    map[string]int32
	i    map[int64]int32
	f    map[uint64]int32
}

// lookup returns the build code of the value at (c, row), or -1 when the
// value does not occur on the build side.
func (v *valIndex) lookup(c *relation.Column, row int32) int32 {
	switch v.kind {
	case kkString:
		if code, ok := v.s[c.Str[row]]; ok {
			return code
		}
	case kkInt:
		if code, ok := v.i[c.Int[row]]; ok {
			return code
		}
	default:
		if code, ok := v.f[numKeyBits(c, row)]; ok {
			return code
		}
	}
	return -1
}

// buildJoinCodes recodes one build-side column into a dense join-key
// domain. The column's native dictionary already is that domain for text
// and exact-int classes (and for float columns under float identity, since
// float dictionaries key on canonical-NaN bit patterns); only an int column
// joining under float equality needs a fresh dictionary, because distinct
// int64s beyond 2^53 can collapse to one float key.
func buildJoinCodes(rel *relation.Relation, col int, kind joinKeyKind) ([]int32, int, *valIndex) {
	c := rel.Column(col)
	if kind == kkFloat && c.Kind == relation.KindInt {
		vi := &valIndex{kind: kkFloat, f: make(map[uint64]int32, 64)}
		codes := make([]int32, len(c.Int))
		for i, v := range c.Int {
			b := floatKeyBits(float64(v))
			id, ok := vi.f[b]
			if !ok {
				id = int32(len(vi.f))
				vi.f[b] = id
			}
			codes[i] = id
		}
		return codes, len(vi.f), vi
	}
	d := rel.DictCodes(col)
	g := rel.CodeGroups(col)
	vi := &valIndex{kind: kind}
	switch kind {
	case kkString:
		vi.s = make(map[string]int32, d.Card)
		for code := 0; code < d.Card; code++ {
			vi.s[c.Str[g.Rep(int32(code))]] = int32(code)
		}
	case kkInt:
		vi.i = make(map[int64]int32, d.Card)
		for code := 0; code < d.Card; code++ {
			vi.i[c.Int[g.Rep(int32(code))]] = int32(code)
		}
	default:
		vi.f = make(map[uint64]int32, d.Card)
		for code := 0; code < d.Card; code++ {
			vi.f[floatKeyBits(c.Float[g.Rep(int32(code))])] = int32(code)
		}
	}
	return d.Codes, d.Card, vi
}

// hashTuples runs the left-deep binary plan: tuples over the first table
// start as its surviving rows, ascending, and every JOIN step builds an
// index over the new table's surviving rows keyed by its ON columns' join
// codes and probes it with the current tuples, morsel-parallel with a
// shard-ordered merge. Probing tuples in order and listing build rows
// ascending per key keeps the output in canonical lexicographic order at
// every worker count.
func (jp *joinPlan) hashTuples(sel [][]int32, cfg execConfig) ([][]int32, error) {
	base := sel[0]
	if base == nil {
		base = allRows(jp.rels[0].NumRows())
	}
	cur := [][]int32{base}
	for step := range jp.steps {
		next, err := jp.hashStep(cur, step, sel[step+1], cfg)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// hashStep joins table step+1, restricted to its surviving rows keep (nil:
// every row), onto the tuples cur.
func (jp *joinPlan) hashStep(cur [][]int32, step int, keep []int32, cfg execConfig) ([][]int32, error) {
	newT := step + 1
	nProbe := len(cur[0])
	if nProbe == 0 {
		return make([][]int32, newT+1), nil
	}
	build := jp.rels[newT]
	condIdx := jp.steps[step]
	nc := len(condIdx)

	// Instrumentation handles for this step; nil (and alloc-free) when
	// neither profiling nor tracing is on.
	var bSt, prSt *opStats
	if cfg.prof != nil {
		bSt = cfg.prof.op("join.build(" + jp.names[newT] + ")")
		prSt = cfg.prof.op("join.probe(" + jp.names[newT] + ")")
	}
	stepParent := obs.FromContext(cfg.ctx)
	bsp := stepParent.Child("join.build")
	bsp.SetAttr("table", jp.names[newT])
	tBuild := profNow(bSt)

	// Build-side join codes and probe-side translations, one per condition:
	// trans[k] maps the probe column's native dictionary codes to build
	// codes (-1 = value absent from the build side), resolved once per
	// distinct probe value through one representative row.
	codes := make([][]int32, nc)
	cards := make([]int, nc)
	trans := make([][]int32, nc)
	probeCodes := make([][]int32, nc)
	probeTab := make([]int, nc)
	for k, ci := range condIdx {
		c := &jp.conds[ci]
		bCodes, bCard, vi := buildJoinCodes(build, c.rc, c.key)
		codes[k], cards[k] = bCodes, bCard
		pd := jp.rels[c.lt].DictCodes(c.lc)
		pg := jp.rels[c.lt].CodeGroups(c.lc)
		tr := make([]int32, pd.Card)
		for pc := 0; pc < pd.Card; pc++ {
			tr[pc] = vi.lookup(c.lcol, pg.Rep(int32(pc)))
		}
		trans[k] = tr
		probeCodes[k] = pd.Codes
		probeTab[k] = c.lt
	}

	// Key ids: a single condition's id is its build code. A composite key
	// is numbered once, here, one condition at a time: each (id so far,
	// next condition's code) pair present on the build side gets a dense
	// first-seen id, so every level is one word.
	if keep == nil {
		keep = allRows(build.NumRows())
	}
	ids := make([]int32, len(keep))
	for i, r := range keep {
		ids[i] = codes[0][r]
	}
	nKeys := cards[0]
	pairs := make([]map[uint64]int32, nc) // pairs[k], k >= 1: (id, code k) -> id
	for k := 1; k < nc; k++ {
		pairs[k] = make(map[uint64]int32)
		for i, r := range keep {
			pk := uint64(uint32(ids[i]))<<32 | uint64(uint32(codes[k][r]))
			id, ok := pairs[k][pk]
			if !ok {
				id = int32(len(pairs[k]))
				pairs[k][pk] = id
			}
			ids[i] = id
		}
		nKeys = len(pairs[k])
	}

	// Build index in CSR form: key id k's rows are rows[off[k]:off[k+1]],
	// placed by a stable counting sort, so ascending within each key.
	off := make([]int32, nKeys+1)
	for _, id := range ids {
		off[id+1]++
	}
	for k := 1; k <= nKeys; k++ {
		off[k] += off[k-1]
	}
	rows := make([]int32, len(keep))
	fill := append([]int32(nil), off[:nKeys]...)
	for i, id := range ids {
		rows[fill[id]] = keep[i]
		fill[id]++
	}

	bsp.SetInt("rows", int64(len(keep)))
	bsp.End()
	bSt.observe(int64(build.NumRows()), int64(len(keep)), tBuild)
	psp := stepParent.Child("join.probe")
	psp.SetAttr("table", jp.names[newT])

	// probe translates one morsel of tuples and appends every match to dst.
	// A probe code of -1 (value absent from the build side) never forms a
	// build pair, so it misses at its level.
	probe := func(lo, hi int, dst [][]int32) [][]int32 {
		for i := lo; i < hi; i++ {
			id := trans[0][probeCodes[0][cur[probeTab[0]][i]]]
			for k := 1; k < nc && id >= 0; k++ {
				bc := trans[k][probeCodes[k][cur[probeTab[k]][i]]]
				if pid, ok := pairs[k][uint64(uint32(id))<<32|uint64(uint32(bc))]; ok {
					id = pid
				} else {
					id = -1
				}
			}
			if id < 0 {
				continue
			}
			for _, br := range rows[off[id]:off[id+1]] {
				for t := 0; t < newT; t++ {
					dst[t] = append(dst[t], cur[t][i])
				}
				dst[newT] = append(dst[newT], br)
			}
		}
		return dst
	}

	nM := (nProbe + morselRows - 1) / morselRows
	workers := cfg.par
	if workers > nM {
		workers = nM
	}
	if workers <= 1 {
		dst := tupleBuf(newT+1, nProbe)
		for m := 0; m < nM; m++ {
			if cfg.ctx != nil && cfg.ctx.Err() != nil {
				psp.End()
				return nil, cfg.ctx.Err()
			}
			lo := m * morselRows
			hi := min(lo+morselRows, nProbe)
			t0 := profNow(prSt)
			before := len(dst[newT])
			dst = probe(lo, hi, dst)
			prSt.observe(int64(hi-lo), int64(len(dst[newT])-before), t0)
		}
		psp.SetInt("tuples", int64(len(dst[newT])))
		psp.End()
		return dst, nil
	}

	// Morsel-parallel probe, mirroring vexec's runPar: workers pull probe
	// morsels off a shared counter, the merge consumes them strictly in
	// shard order — concatenation order, and therefore the tuple order, is
	// identical at every worker count.
	results := make([][][]int32, nM)
	done := make([]chan struct{}, nM)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nM {
					return
				}
				if cfg.ctx != nil && cfg.ctx.Err() != nil {
					cancelled.Store(true)
					close(done[i])
					continue
				}
				lo := i * morselRows
				hi := min(lo+morselRows, nProbe)
				t0 := profNow(prSt)
				out := probe(lo, hi, tupleBuf(newT+1, hi-lo))
				prSt.observe(int64(hi-lo), int64(len(out[newT])), t0)
				results[i] = out
				close(done[i])
			}
		}()
	}
	out := tupleBuf(newT+1, nProbe)
	for i := 0; i < nM; i++ {
		<-done[i]
		if results[i] == nil {
			continue // claimed after cancellation
		}
		if !cancelled.Load() {
			for t := range out {
				out[t] = append(out[t], results[i][t]...)
			}
		}
	}
	wg.Wait() // probe counters and any enclosing trace stay complete
	psp.SetInt("tuples", int64(len(out[newT])))
	psp.End()
	if cancelled.Load() {
		return nil, cfg.ctx.Err()
	}
	return out, nil
}
