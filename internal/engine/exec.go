package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"qagview/internal/obs"
	"qagview/internal/relation"
)

// Result is the output relation S of an aggregate query: ranked group-by
// tuples, each with a numeric value. Rows are in the query's ORDER BY order
// (for the paper's template, descending value), so row i has rank i+1.
type Result struct {
	// GroupBy holds the m group-by attribute names.
	GroupBy []string
	// ValName is the alias of the aggregate output column.
	ValName string
	// Table is the first FROM relation the query ran against, kept for
	// callers that predate joins.
	Table string
	// Tables lists every distinct base table the query read, in FROM order
	// (len 1 for single-table queries); serving layers use it to tie
	// sessions to all tables whose updates invalidate them.
	Tables []string
	// Rows holds one rendered group-by tuple per output row.
	Rows [][]string
	// Vals holds the aggregate value per output row, aligned with Rows.
	Vals []float64
	// Profile holds the per-operator execution profile when the query ran
	// with ExecProfile; nil otherwise. Profiles observe, they never alter
	// output: the equivalence suites compare result fields with profiling
	// on and off.
	Profile Profile `json:"profile,omitempty"`
}

// N returns the number of result tuples.
func (r *Result) N() int { return len(r.Rows) }

// Catalog resolves table names for Execute. The root qagview.DB type
// implements it.
type Catalog interface {
	// Table returns the named relation, or an error if unknown.
	Table(name string) (*relation.Relation, error)
}

// joinMode selects the multi-table execution path.
type joinMode int

const (
	// joinAuto picks the hash path for acyclic join graphs and the
	// worst-case-optimal generic path for cyclic ones; production always
	// runs it.
	joinAuto joinMode = iota
	// joinHash forces the left-deep binary hash-join plan everywhere.
	joinHash
	// joinGeneric forces the worst-case-optimal leapfrog path everywhere.
	joinGeneric
)

// execConfig collects execution options. stringKeys and joins are set only
// by the test-only overrides in export_test.go, which force each key and
// join path so the equivalence suites can cover all of them.
type execConfig struct {
	par        int
	ctx        context.Context
	stringKeys bool
	joins      joinMode
	profile    bool
	prof       *execProf // non-nil iff profile
}

// ExecOption customizes query execution. The zero configuration runs the
// vectorized executor with GOMAXPROCS morsel workers; every option produces
// bit-identical results (see the equivalence tests), so options tune cost,
// never output.
type ExecOption func(*execConfig)

// ExecParallelism bounds the morsel worker pool of the vectorized executor
// (default GOMAXPROCS). n <= 1 runs the same pipeline on the calling
// goroutine; output is bit-identical at every setting.
func ExecParallelism(n int) ExecOption {
	return func(c *execConfig) { c.par = n }
}

// ExecContext attaches a context to the execution: cancellation is observed
// between morsels and Execute returns ctx.Err(). Serving layers use it to
// abandon scans for evicted sessions.
func ExecContext(ctx context.Context) ExecOption {
	return func(c *execConfig) { c.ctx = ctx }
}

// ExecProfile collects a per-operator execution profile (rows in/out,
// batches, wall time) into Result.Profile. Profiling observes only — the
// result rows and values are bit-identical with it on or off.
func ExecProfile() ExecOption {
	return func(c *execConfig) { c.profile = true }
}

// Execute runs a parsed query against the catalog. Multi-table queries join
// their FROM relations first (see join.go) and aggregate over the joined
// rows; both forms run the same vectorized pipeline and stay bit-identical
// to the reference executor (reference_test.go) at every parallelism.
func Execute(cat Catalog, q *Query, opts ...ExecOption) (*Result, error) {
	cfg := execConfig{par: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.profile {
		cfg.prof = newExecProf()
	}
	ctx, sp := obs.StartSpan(cfg.ctx, "engine.execute")
	if sp != nil {
		sp.SetAttr("table", q.From().Table)
		sp.SetInt("parallelism", int64(cfg.par))
		cfg.ctx = ctx
	}
	res, err := execute(cat, q, cfg)
	sp.End()
	if err == nil && cfg.prof != nil {
		res.Profile = cfg.prof.snapshot()
	}
	return res, err
}

func execute(cat Catalog, q *Query, cfg execConfig) (*Result, error) {
	if len(q.Joins) > 0 {
		return executeJoin(cat, q, cfg)
	}
	rel, err := cat.Table(q.Table)
	if err != nil {
		return nil, err
	}
	pSt := cfg.prof.op("plan")
	t0 := profNow(pSt)
	_, psp := obs.StartSpan(cfg.ctx, "plan")
	p, err := planQuery(rel, q)
	psp.End()
	pSt.addWall(t0)
	if err != nil {
		return nil, err
	}
	return executeVec(p, cfg)
}

// ExecuteSQL parses and runs sql against the catalog.
func ExecuteSQL(cat Catalog, sql string, opts ...ExecOption) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Execute(cat, q, opts...)
}

// predBind is a WHERE conjunct resolved against a column, ready for either
// executor to compile (closures for the reference, batch kernels for the
// vectorized pipeline).
type predBind struct {
	col *relation.Column
	op  CmpOp
	lit Literal
}

// execPlan is a query resolved and validated against one relation: both
// executors run from the same plan, so they accept and reject exactly the
// same queries with the same errors.
type execPlan struct {
	rel        *relation.Relation
	q          *Query
	groupCols  []*relation.Column
	aggCol     *relation.Column   // nil for count(*)
	havingCols []*relation.Column // nil entries are count(*)
	preds      []predBind
}

// lookupCol resolves a (possibly qualified) column reference against the
// plan's relation. Materialized join relations name their columns with the
// query's exact reference text, so the direct probe hits; for single-table
// queries a qualifier naming the FROM table (or its alias) is stripped.
func lookupCol(rel *relation.Relation, q *Query, name string) (*relation.Column, bool) {
	if c, ok := rel.ColumnByName(name); ok {
		return c, true
	}
	if len(q.Joins) > 0 {
		return nil, false
	}
	if i := strings.IndexByte(name, '.'); i >= 0 && name[:i] == q.From().Name() {
		return rel.ColumnByName(name[i+1:])
	}
	return nil, false
}

// planQuery resolves the query's columns and validates types.
func planQuery(rel *relation.Relation, q *Query) (*execPlan, error) {
	p := &execPlan{rel: rel, q: q}
	p.groupCols = make([]*relation.Column, len(q.GroupBy))
	for i, name := range q.GroupBy {
		c, ok := lookupCol(rel, q, name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown group-by column %q in table %q", name, rel.Name())
		}
		p.groupCols[i] = c
	}
	if q.Agg.Arg != "*" {
		c, ok := lookupCol(rel, q, q.Agg.Arg)
		if !ok {
			return nil, fmt.Errorf("engine: unknown aggregate column %q in table %q", q.Agg.Arg, rel.Name())
		}
		if c.Kind == relation.KindString {
			// count(textcol) is rejected too: this dialect has no NULLs, so it
			// could only mean count(*) — and letting it through would make the
			// executors gather float values from a text column.
			return nil, fmt.Errorf("engine: aggregate %s over text column %q (use count(*) to count rows)", q.Agg.Fn, c.Name)
		}
		p.aggCol = c
	} else if q.Agg.Fn != AggCount {
		return nil, fmt.Errorf("engine: %s(*) is not supported", q.Agg.Fn)
	}
	for _, pr := range q.Where {
		c, ok := lookupCol(rel, q, pr.Column)
		if !ok {
			return nil, fmt.Errorf("engine: unknown WHERE column %q in table %q", pr.Column, rel.Name())
		}
		if pr.Lit.IsNum {
			if c.Kind == relation.KindString {
				return nil, fmt.Errorf("engine: numeric comparison against text column %q", c.Name)
			}
		} else {
			if c.Kind != relation.KindString {
				return nil, fmt.Errorf("engine: string comparison against %s column %q", c.Kind, c.Name)
			}
			if pr.Op != OpEq && pr.Op != OpNe {
				return nil, fmt.Errorf("engine: operator %s is not supported for text column %q", pr.Op, c.Name)
			}
		}
		p.preds = append(p.preds, predBind{col: c, op: pr.Op, lit: pr.Lit})
	}
	p.havingCols = make([]*relation.Column, len(q.Having))
	for i, h := range q.Having {
		if h.Agg.Arg == "*" {
			if h.Agg.Fn != AggCount {
				return nil, fmt.Errorf("engine: %s(*) is not supported in HAVING", h.Agg.Fn)
			}
			continue
		}
		c, ok := lookupCol(rel, q, h.Agg.Arg)
		if !ok {
			return nil, fmt.Errorf("engine: unknown HAVING column %q", h.Agg.Arg)
		}
		if c.Kind == relation.KindString {
			return nil, fmt.Errorf("engine: aggregate %s over text column %q in HAVING (use count(*) to count rows)", h.Agg.Fn, c.Name)
		}
		p.havingCols[i] = c
	}
	if q.OrderBy != "" && q.OrderBy != q.Agg.Alias {
		return nil, fmt.Errorf("engine: ORDER BY %q must reference the aggregate alias %q", q.OrderBy, q.Agg.Alias)
	}
	return p, nil
}

// orderAndLimit applies ORDER BY and LIMIT in place. Sorting is stable so
// first-seen group order breaks ties deterministically; both executors
// produce that order, so their sorted output is bit-identical too.
func orderAndLimit(q *Query, res *Result) {
	if q.OrderBy != "" {
		idx := make([]int, len(res.Rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if q.Desc {
				return res.Vals[idx[a]] > res.Vals[idx[b]]
			}
			return res.Vals[idx[a]] < res.Vals[idx[b]]
		})
		rows := make([][]string, len(idx))
		vals := make([]float64, len(idx))
		for i, j := range idx {
			rows[i], vals[i] = res.Rows[j], res.Vals[j]
		}
		res.Rows, res.Vals = rows, vals
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
		res.Vals = res.Vals[:q.Limit]
	}
}

func finalize(fn AggFunc, sum float64, cnt int64, min, max float64) float64 {
	switch fn {
	case AggAvg:
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	case AggSum:
		return sum
	case AggCount:
		return float64(cnt)
	case AggMin:
		return min
	case AggMax:
		return max
	default:
		return 0
	}
}

func cmpFloat(a float64, op CmpOp, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	default:
		return false
	}
}
