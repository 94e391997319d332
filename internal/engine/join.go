package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"qagview/internal/obs"
	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// This file implements multi-table execution. A join query runs in three
// stages: planJoin resolves the FROM relations, ON conditions and column
// references (producing every name-resolution error); a join algorithm
// computes the matching row-id tuples in the canonical order — lexicographic
// by FROM-position row ids, the order the nested-loop reference produces
// naturally; and materialize gathers the referenced columns into an
// anonymous joined relation that the unchanged single-table executors
// aggregate over. Two production algorithms produce the same tuples, bit
// for bit, as the FROM-order nested-loop oracle (nestedLoopTuples, in
// reference_test.go):
//
//   - hashTuples: a left-deep binary hash-join plan with a morsel-parallel
//     probe (chosen for acyclic join graphs);
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

// joinRef is one distinct column reference the aggregation reads, in
// first-use order; its name is the exact reference text, which becomes the
// materialized column name planQuery resolves against.
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

// schemaRel is the joined relation's shape with zero rows, used to validate
// the aggregation before paying for the join.
func (jp *joinPlan) schemaRel() (*relation.Relation, error) {
	cols := make([]relation.Column, len(jp.refs))
	for i, rf := range jp.refs {
		cols[i] = relation.Column{Name: rf.name, Kind: jp.rels[rf.tab].Column(rf.col).Kind}
	}
	return relation.FromColumns(jp.joinedName(), cols...)
}

// materialize gathers the referenced columns through the row-id tuples into
// the anonymous joined relation the aggregation runs over. Column names are
// the exact reference texts, so planQuery resolves them by direct lookup.
func (jp *joinPlan) materialize(tuples [][]int32) (*relation.Relation, error) {
	n := 0
	if len(tuples) > 0 {
		n = len(tuples[0])
	}
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

// executeJoin plans and runs a multi-table query end to end.
func executeJoin(cat Catalog, q *Query, cfg execConfig) (*Result, error) {
	ctx, jsp := obs.StartSpan(cfg.ctx, "join")
	if jsp != nil {
		cfg.ctx = ctx
	}
	defer jsp.End()

	plSt := cfg.prof.op("join.plan")
	t0 := profNow(plSt)
	_, psp := obs.StartSpan(cfg.ctx, "join.plan")
	jp, err := planJoin(cat, q)
	if err == nil {
		// Validate the aggregation against the join's output schema before
		// paying for the join: planQuery over the zero-row shape surfaces
		// type and ORDER BY errors up front, identically on every path.
		var srel *relation.Relation
		if srel, err = jp.schemaRel(); err == nil {
			_, err = planQuery(srel, q)
		}
	}
	psp.End()
	plSt.addWall(t0)
	if err != nil {
		return nil, err
	}
	var tuples [][]int32
	if cfg.joins == joinGeneric || (cfg.joins == joinAuto && jp.cyclic) {
		tuples, err = jp.leapfrogOp(cfg)
	} else {
		tuples, err = jp.hashTuples(cfg)
	}
	if err != nil {
		return nil, err
	}
	mSt := cfg.prof.op("join.materialize")
	t1 := profNow(mSt)
	_, msp := obs.StartSpan(cfg.ctx, "join.materialize")
	jrel, err := jp.materialize(tuples)
	msp.End()
	mSt.addWall(t1)
	if err != nil {
		return nil, err
	}
	nTuples := 0
	if len(tuples) > 0 {
		nTuples = len(tuples[0])
	}
	mSt.addRows(int64(nTuples), int64(jrel.NumRows()))
	msp.SetInt("rows", int64(jrel.NumRows()))
	pSt := cfg.prof.op("plan")
	t2 := profNow(pSt)
	_, qsp := obs.StartSpan(cfg.ctx, "plan")
	p, err := planQuery(jrel, q)
	qsp.End()
	pSt.addWall(t2)
	if err != nil {
		return nil, err
	}
	return executeVec(p, cfg)
}

// leapfrogOp runs the worst-case-optimal join under a span and profile
// operator.
func (jp *joinPlan) leapfrogOp(cfg execConfig) ([][]int32, error) {
	st := cfg.prof.op("join.leapfrog")
	t0 := profNow(st)
	_, sp := obs.StartSpan(cfg.ctx, "join.leapfrog")
	tuples, err := jp.leapfrogTuples(cfg.ctx)
	sp.End()
	st.addWall(t0)
	if err != nil {
		return nil, err
	}
	n := 0
	if len(tuples) > 0 {
		n = len(tuples[0])
	}
	st.addRows(0, int64(n))
	sp.SetInt("tuples", int64(n))
	return tuples, nil
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
// start as its ascending row ids, and every JOIN step builds a hash table
// over the new table keyed by its ON columns' join codes — packed into one
// uint64 via pattern.NewCodec when the dictionary widths fit, concatenated
// little-endian bytes otherwise — and probes it with the current tuples,
// morsel-parallel with a shard-ordered merge. Probing tuples in order and
// storing build rows ascending keeps the output in canonical lexicographic
// order at every worker count.
func (jp *joinPlan) hashTuples(cfg execConfig) ([][]int32, error) {
	base := make([]int32, jp.rels[0].NumRows())
	for i := range base {
		base[i] = int32(i)
	}
	cur := [][]int32{base}
	for step := range jp.steps {
		next, err := jp.hashStep(cur, step, cfg)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func (jp *joinPlan) hashStep(cur [][]int32, step int, cfg execConfig) ([][]int32, error) {
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

	// Key layout: packed when the per-condition code widths fit one word.
	var shifts []uint
	packed := false
	if !cfg.stringKeys {
		if codec, ok := pattern.NewCodec(cards); ok {
			packed = true
			shifts = make([]uint, nc)
			for k := range shifts {
				shifts[k] = uint(bits.TrailingZeros64(codec.Field(k)))
			}
		}
	}

	// Build table: rows scanned ascending, so every key's row list is
	// ascending and probe output stays in canonical order.
	nb := build.NumRows()
	var hmap map[uint64][]int32
	var smap map[string][]int32
	if packed {
		hmap = make(map[uint64][]int32, nb)
		for r := 0; r < nb; r++ {
			var key uint64
			for k := range codes {
				key |= uint64(uint32(codes[k][r])) << shifts[k]
			}
			hmap[key] = append(hmap[key], int32(r))
		}
	} else {
		smap = make(map[string][]int32, nb)
		var kb []byte
		for r := 0; r < nb; r++ {
			kb = kb[:0]
			for k := range codes {
				c := uint32(codes[k][r])
				kb = append(kb, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
			}
			smap[string(kb)] = append(smap[string(kb)], int32(r))
		}
	}

	bsp.SetInt("rows", int64(nb))
	bsp.End()
	bSt.observe(int64(nb), int64(nb), tBuild)
	psp := stepParent.Child("join.probe")
	psp.SetAttr("table", jp.names[newT])

	// probe translates one morsel of tuples and appends every match to dst.
	probe := func(lo, hi int, dst [][]int32) [][]int32 {
		var kb []byte
		for i := lo; i < hi; i++ {
			var rows []int32
			if packed {
				var key uint64
				miss := false
				for k := range trans {
					bc := trans[k][probeCodes[k][cur[probeTab[k]][i]]]
					if bc < 0 {
						miss = true
						break
					}
					key |= uint64(uint32(bc)) << shifts[k]
				}
				if miss {
					continue
				}
				rows = hmap[key]
			} else {
				kb = kb[:0]
				miss := false
				for k := range trans {
					bc := trans[k][probeCodes[k][cur[probeTab[k]][i]]]
					if bc < 0 {
						miss = true
						break
					}
					c := uint32(bc)
					kb = append(kb, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
				}
				if miss {
					continue
				}
				rows = smap[string(kb)]
			}
			for _, br := range rows {
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
		dst := make([][]int32, newT+1)
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
				out := probe(lo, hi, make([][]int32, newT+1))
				prSt.observe(int64(hi-lo), int64(len(out[newT])), t0)
				results[i] = out
				close(done[i])
			}
		}()
	}
	out := make([][]int32, newT+1)
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
