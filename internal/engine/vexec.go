package engine

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"qagview/internal/obs"
	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// This file implements the vectorized, morsel-parallel executor behind
// Execute. The relation is cut into fixed-size morsels of consecutive rows;
// workers pull morsels from a shared counter and run the per-row work that
// parallelizes — predicate kernels producing selection vectors, dictionary
// codes packed into uint64 group keys, per-morsel grouping into a local
// open-addressing table, and gathers of the aggregate columns — while one
// deterministic merge consumes the morsels in shard order and folds them
// into the global group table.
//
// The merge is what makes the output bit-identical to the row-at-a-time
// reference (executeRef, a test-only oracle) at every worker count: morsels
// are contiguous ascending row ranges merged in order, so groups appear in
// the reference's first-seen order, and all float accumulation (sums,
// HAVING aggregates) happens inside the merge, row by row in global row
// order — workers never add two floats. The merge's hash-probe cost is one
// global-table probe per morsel-local group (not per row); its per-row cost
// is array arithmetic.
//
// Morsel buffers and the global table are pooled and reset across calls, so
// steady-state execution (session refreshes re-running their query on every
// data-generation bump) allocates only the output.

// morselRows is the shard size: big enough to amortize per-morsel overhead,
// small enough that a morsel's selection and key vectors stay cache-resident.
const morselRows = 4096

// fibHash is 2^64/phi, the multiplicative-hash constant of
// lattice.packedMap; packed group keys have the same low-entropy shape as
// packed patterns (few fields vary), which this spreads well.
const fibHash = 0x9E3779B97F4A7C15

// vecPlan extends the resolved plan with the vectorized execution state:
// per-group-column dictionary codes and the packed-key layout.
type vecPlan struct {
	*execPlan
	codes  [][]int32 // dictionary codes per group column, full-table
	shifts []uint    // bit offset of each group column's packed field
	packed bool      // false: string-key fallback (widths exceed 64 bits)
}

// newVecPlan derives the key representation: per-attribute field widths from
// the dictionary cardinalities via pattern.NewCodec (the width-derivation
// trick of the packed-pattern fast path), falling back to string keys when
// the summed widths overflow one word.
func newVecPlan(p *execPlan, forceStringKeys bool) *vecPlan {
	m := len(p.groupCols)
	vp := &vecPlan{execPlan: p, codes: make([][]int32, m)}
	cards := make([]int, m)
	for j, c := range p.groupCols {
		d := p.rel.DictCodes(p.rel.ColumnIndex(c.Name))
		vp.codes[j] = d.Codes
		cards[j] = d.Card
	}
	if forceStringKeys {
		return vp
	}
	codec, ok := pattern.NewCodec(cards)
	if !ok {
		return vp
	}
	vp.packed = true
	vp.shifts = make([]uint, m)
	for j := range vp.shifts {
		vp.shifts[j] = uint(bits.TrailingZeros64(codec.Field(j)))
	}
	return vp
}

// ---- predicate kernels ----

// filterMorsel computes the selection vector of rows in [lo, hi) passing
// every WHERE conjunct: the first kernel scans the range, later kernels
// refine the selection in place. No per-row closure calls, no per-row error
// checks — column kinds were validated at plan time.
func (vp *vecPlan) filterMorsel(lo, hi int32, sel []int32) []int32 {
	if len(vp.preds) == 0 {
		for r := lo; r < hi; r++ {
			sel = append(sel, r)
		}
		return sel
	}
	sel = filterRange(vp.preds[0], lo, hi, sel)
	for _, pb := range vp.preds[1:] {
		if len(sel) == 0 {
			break
		}
		sel = filterSel(pb, sel)
	}
	return sel
}

func filterRange(p predBind, lo, hi int32, out []int32) []int32 {
	switch p.col.Kind {
	case relation.KindInt:
		return filterNumRange(p.col.Int, p.op, p.lit.Num, lo, hi, out)
	case relation.KindFloat:
		return filterNumRange(p.col.Float, p.op, p.lit.Num, lo, hi, out)
	default:
		return filterStrRange(p.col.Str, p.op == OpEq, p.lit.Str, lo, hi, out)
	}
}

func filterSel(p predBind, sel []int32) []int32 {
	switch p.col.Kind {
	case relation.KindInt:
		return filterNumSel(p.col.Int, p.op, p.lit.Num, sel)
	case relation.KindFloat:
		return filterNumSel(p.col.Float, p.op, p.lit.Num, sel)
	default:
		return filterStrSel(p.col.Str, p.op == OpEq, p.lit.Str, sel)
	}
}

// filterNumRange appends the rows of [lo, hi) whose value compares true to
// out. Ints convert to float64 exactly like Column.FloatAt, so comparison
// semantics match the reference executor bit for bit.
func filterNumRange[T int64 | float64](vals []T, op CmpOp, lit float64, lo, hi int32, out []int32) []int32 {
	switch op {
	case OpEq:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) == lit {
				out = append(out, r)
			}
		}
	case OpNe:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) != lit {
				out = append(out, r)
			}
		}
	case OpLt:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) < lit {
				out = append(out, r)
			}
		}
	case OpLe:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) <= lit {
				out = append(out, r)
			}
		}
	case OpGt:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) > lit {
				out = append(out, r)
			}
		}
	case OpGe:
		for r := lo; r < hi; r++ {
			if float64(vals[r]) >= lit {
				out = append(out, r)
			}
		}
	}
	return out
}

func filterNumSel[T int64 | float64](vals []T, op CmpOp, lit float64, sel []int32) []int32 {
	k := 0
	switch op {
	case OpEq:
		for _, r := range sel {
			if float64(vals[r]) == lit {
				sel[k] = r
				k++
			}
		}
	case OpNe:
		for _, r := range sel {
			if float64(vals[r]) != lit {
				sel[k] = r
				k++
			}
		}
	case OpLt:
		for _, r := range sel {
			if float64(vals[r]) < lit {
				sel[k] = r
				k++
			}
		}
	case OpLe:
		for _, r := range sel {
			if float64(vals[r]) <= lit {
				sel[k] = r
				k++
			}
		}
	case OpGt:
		for _, r := range sel {
			if float64(vals[r]) > lit {
				sel[k] = r
				k++
			}
		}
	case OpGe:
		for _, r := range sel {
			if float64(vals[r]) >= lit {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

func filterStrRange(vals []string, eq bool, lit string, lo, hi int32, out []int32) []int32 {
	if eq {
		for r := lo; r < hi; r++ {
			if vals[r] == lit {
				out = append(out, r)
			}
		}
	} else {
		for r := lo; r < hi; r++ {
			if vals[r] != lit {
				out = append(out, r)
			}
		}
	}
	return out
}

func filterStrSel(vals []string, eq bool, lit string, sel []int32) []int32 {
	k := 0
	if eq {
		for _, r := range sel {
			if vals[r] == lit {
				sel[k] = r
				k++
			}
		}
	} else {
		for _, r := range sel {
			if vals[r] != lit {
				sel[k] = r
				k++
			}
		}
	}
	return sel[:k]
}

// ---- morsel-local state ----

// localTableSize is the next power of two above morselRows: a morsel has at
// most morselRows distinct groups, keeping the local table's load below 50%.
const localTableSize = 8192

const localShift = 64 - 13 // 13 = log2(localTableSize)

// localTable maps packed keys to morsel-local group ids: fixed-size open
// addressing with epoch-stamped slots, so reset between morsels is one
// counter bump instead of a 128 KiB clear.
type localTable struct {
	entries []localEntry
	epoch   uint32
}

type localEntry struct {
	key   uint64
	id    int32
	epoch uint32
}

func (t *localTable) reset() {
	if t.entries == nil {
		t.entries = make([]localEntry, localTableSize)
	}
	t.epoch++
	if t.epoch == 0 { // wrapped: stale epochs could alias, start clean
		clear(t.entries)
		t.epoch = 1
	}
}

func (t *localTable) getOrPut(key uint64, id int32) (int32, bool) {
	for i := (key * fibHash) >> localShift; ; i = (i + 1) & (localTableSize - 1) {
		e := &t.entries[i]
		if e.epoch != t.epoch {
			e.key, e.id, e.epoch = key, id, t.epoch
			return id, true
		}
		if e.key == key {
			return e.id, false
		}
	}
}

// morselBuf holds one morsel's vectorized state, pooled across morsels and
// Execute calls.
type morselBuf struct {
	sel      []int32   // selected row indexes, ascending
	keys     []uint64  // packed group key per selected row
	localOf  []int32   // morsel-local group id per selected row
	aggVals  []float64 // gathered aggregate-column values per selected row
	havVals  [][]float64
	firstRow []int32 // first selected row per local group

	groupKeys  []uint64 // local groups in first-seen order (packed path)
	groupSKeys []string // local groups in first-seen order (fallback path)

	table  localTable
	stable map[string]int32 // fallback-path local table
	kbuf   []byte           // fallback-path key scratch
}

var bufPool = sync.Pool{New: func() any { return new(morselBuf) }}

// reset truncates the first-seen bookkeeping; the per-row vectors are fully
// overwritten by the next processMorsel and keep their capacity.
func (b *morselBuf) reset() {
	b.sel = b.sel[:0]
	b.groupKeys = b.groupKeys[:0]
	b.groupSKeys = b.groupSKeys[:0]
	b.firstRow = b.firstRow[:0]
}

func sizedI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func sizedU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func sizedF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// processMorsel runs the parallelizable pipeline stages on rows [lo, hi):
// filter, key, local-group, gather. It touches only b and read-only plan
// state, so any number of workers can run it concurrently.
func (vp *vecPlan) processMorsel(b *morselBuf, lo, hi int32) {
	b.reset()
	b.sel = vp.filterMorsel(lo, hi, b.sel)
	n := len(b.sel)
	b.localOf = sizedI32(b.localOf, n)

	if vp.packed {
		// Key build, column at a time: or-in each attribute's dictionary
		// code at its field offset. Codes never collide with the codec's
		// Star sentinel, so packing is injective.
		b.keys = sizedU64(b.keys, n)
		for j, codes := range vp.codes {
			sh := vp.shifts[j]
			if j == 0 {
				for i, r := range b.sel {
					b.keys[i] = uint64(uint32(codes[r])) << sh
				}
			} else {
				for i, r := range b.sel {
					b.keys[i] |= uint64(uint32(codes[r])) << sh
				}
			}
		}
		b.table.reset()
		for i, key := range b.keys {
			id, isNew := b.table.getOrPut(key, int32(len(b.groupKeys)))
			if isNew {
				b.groupKeys = append(b.groupKeys, key)
				b.firstRow = append(b.firstRow, b.sel[i])
			}
			b.localOf[i] = id
		}
	} else {
		// Fallback: the codes of each group column as 4 little-endian bytes,
		// concatenated — injective like the packed key, just not one word.
		if b.stable == nil {
			b.stable = make(map[string]int32, 64)
		} else {
			clear(b.stable)
		}
		for i, r := range b.sel {
			kb := b.kbuf[:0]
			for _, codes := range vp.codes {
				c := uint32(codes[r])
				kb = append(kb, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
			}
			b.kbuf = kb
			id, ok := b.stable[string(kb)]
			if !ok {
				id = int32(len(b.groupSKeys))
				key := string(kb)
				b.stable[key] = id
				b.groupSKeys = append(b.groupSKeys, key)
				b.firstRow = append(b.firstRow, r)
			}
			b.localOf[i] = id
		}
	}

	if vp.aggCol != nil {
		b.aggVals = sizedF64(b.aggVals, n)
		gather(vp.aggCol, b.sel, b.aggVals)
	}
	for cap(b.havVals) < len(vp.havingCols) {
		b.havVals = append(b.havVals[:cap(b.havVals)], nil)
	}
	b.havVals = b.havVals[:len(vp.havingCols)]
	for h, c := range vp.havingCols {
		if c == nil {
			b.havVals[h] = nil // count(*): no values to gather
			continue
		}
		b.havVals[h] = sizedF64(b.havVals[h], n)
		gather(c, b.sel, b.havVals[h])
	}
}

// gather copies the numeric column's values at the selected rows into out;
// int columns convert exactly like Column.FloatAt. Kinds were validated at
// plan time, so no per-row error path.
func gather(c *relation.Column, sel []int32, out []float64) {
	if c.Kind == relation.KindInt {
		for i, r := range sel {
			out[i] = float64(c.Int[r])
		}
	} else {
		for i, r := range sel {
			out[i] = c.Float[r]
		}
	}
}

// ---- global group table and deterministic merge ----

// groupTable is the merge-side aggregation state: an open-addressing
// Fibonacci-hashed table (modeled on lattice.packedMap, epoch-stamped for
// O(1) reuse) from packed keys to dense group ids, plus columnar per-group
// accumulators. Single-writer: only the merge goroutine touches it.
type groupTable struct {
	entries []gtEntry
	shift   uint
	epoch   uint32
	n       int // live entries, for the load-factor check

	smap map[string]int32 // fallback-path key table

	firstRow []int32
	cnt      []int64
	sum      []float64
	min      []float64
	max      []float64
	hcnt     [][]int64
	hsum     [][]float64
	hmin     [][]float64
	hmax     [][]float64

	remap []int32 // per-morsel local-to-global group id scratch
}

type gtEntry struct {
	key   uint64
	id    int32
	epoch uint32
}

var tablePool = sync.Pool{New: func() any { return new(groupTable) }}

// reset truncates the per-group accumulators, keeping capacity for reuse.
func (t *groupTable) reset() {
	t.firstRow = t.firstRow[:0]
	t.cnt = t.cnt[:0]
	t.sum = t.sum[:0]
	t.min = t.min[:0]
	t.max = t.max[:0]
	for i := range t.hcnt {
		t.hcnt[i] = t.hcnt[i][:0]
		t.hsum[i] = t.hsum[i][:0]
		t.hmin[i] = t.hmin[i][:0]
		t.hmax[i] = t.hmax[i][:0]
	}
	t.remap = t.remap[:0]
	t.n = 0
}

// resetFor readies a pooled table for a query with nh HAVING conjuncts.
func (t *groupTable) resetFor(nh int) {
	t.reset()
	if t.entries == nil {
		t.entries = make([]gtEntry, 1024)
		t.shift = 64 - 10
	}
	t.epoch++
	if t.epoch == 0 {
		clear(t.entries)
		t.epoch = 1
	}
	if t.smap == nil {
		t.smap = make(map[string]int32, 64)
	} else {
		clear(t.smap)
	}
	for cap(t.hcnt) < nh {
		t.hcnt = append(t.hcnt[:cap(t.hcnt)], nil)
		t.hsum = append(t.hsum[:cap(t.hsum)], nil)
		t.hmin = append(t.hmin[:cap(t.hmin)], nil)
		t.hmax = append(t.hmax[:cap(t.hmax)], nil)
	}
	t.hcnt = t.hcnt[:nh]
	t.hsum = t.hsum[:nh]
	t.hmin = t.hmin[:nh]
	t.hmax = t.hmax[:nh]
	for i := 0; i < nh; i++ {
		t.hcnt[i] = t.hcnt[i][:0]
		t.hsum[i] = t.hsum[i][:0]
		t.hmin[i] = t.hmin[i][:0]
		t.hmax[i] = t.hmax[i][:0]
	}
}

func (t *groupTable) getOrPut(key uint64, id int32) (int32, bool) {
	if (t.n+1)*4 >= len(t.entries)*3 {
		t.grow()
	}
	mask := uint64(len(t.entries) - 1)
	for i := (key * fibHash) >> t.shift; ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.epoch != t.epoch {
			e.key, e.id, e.epoch = key, id, t.epoch
			t.n++
			return id, true
		}
		if e.key == key {
			return e.id, false
		}
	}
}

func (t *groupTable) grow() {
	old := t.entries
	t.entries = make([]gtEntry, 2*len(old))
	t.shift--
	mask := uint64(len(t.entries) - 1)
	for _, e := range old {
		if e.epoch != t.epoch {
			continue
		}
		j := (e.key * fibHash) >> t.shift
		for t.entries[j].epoch == t.epoch {
			j = (j + 1) & mask
		}
		t.entries[j] = e
	}
}

// addGroup appends a fresh group, initialized exactly like the reference's
// aggState (min/max seeded with infinities).
func (t *groupTable) addGroup(firstRow int32) {
	t.firstRow = append(t.firstRow, firstRow)
	t.cnt = append(t.cnt, 0)
	t.sum = append(t.sum, 0)
	t.min = append(t.min, math.Inf(1))
	t.max = append(t.max, math.Inf(-1))
	for i := range t.hcnt {
		t.hcnt[i] = append(t.hcnt[i], 0)
		t.hsum[i] = append(t.hsum[i], 0)
		t.hmin[i] = append(t.hmin[i], math.Inf(1))
		t.hmax[i] = append(t.hmax[i], math.Inf(-1))
	}
}

// mergeMorsel folds one processed morsel into the global state. Called in
// morsel order, it reproduces the reference executor's row order exactly:
// global group ids are assigned in first-seen order and every float
// accumulates row by row.
func (t *groupTable) mergeMorsel(vp *vecPlan, b *morselBuf) {
	t.remap = t.remap[:0]
	if vp.packed {
		for li, key := range b.groupKeys {
			gid, isNew := t.getOrPut(key, int32(len(t.firstRow)))
			if isNew {
				t.addGroup(b.firstRow[li])
			}
			t.remap = append(t.remap, gid)
		}
	} else {
		for li, key := range b.groupSKeys {
			gid, ok := t.smap[key]
			if !ok {
				gid = int32(len(t.firstRow))
				t.smap[key] = gid
				t.addGroup(b.firstRow[li])
			}
			t.remap = append(t.remap, gid)
		}
	}
	hasAgg := vp.aggCol != nil
	nh := len(vp.havingCols)
	for i := range b.localOf {
		g := t.remap[b.localOf[i]]
		t.cnt[g]++
		if hasAgg {
			v := b.aggVals[i]
			t.sum[g] += v
			if v < t.min[g] {
				t.min[g] = v
			}
			if v > t.max[g] {
				t.max[g] = v
			}
		}
		for h := 0; h < nh; h++ {
			t.hcnt[h][g]++
			if hv := b.havVals[h]; hv != nil {
				v := hv[i]
				t.hsum[h][g] += v
				if v < t.hmin[h][g] {
					t.hmin[h][g] = v
				}
				if v > t.hmax[h][g] {
					t.hmax[h][g] = v
				}
			}
		}
	}
}

// finalizeResult renders the merged groups: HAVING filter, group rows from
// each group's first matching row, then the shared ORDER BY / LIMIT pass.
func (t *groupTable) finalizeResult(vp *vecPlan) *Result {
	q := vp.q
	res := &Result{GroupBy: append([]string(nil), q.GroupBy...), ValName: q.Agg.Alias, Table: q.Table, Tables: q.Tables()}
	for g := range t.firstRow {
		keep := true
		for h, hv := range q.Having {
			v := finalize(hv.Agg.Fn, t.hsum[h][g], t.hcnt[h][g], t.hmin[h][g], t.hmax[h][g])
			if !cmpFloat(v, hv.Op, hv.Num) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := make([]string, len(vp.groupCols))
		fr := int(t.firstRow[g])
		for j, c := range vp.groupCols {
			row[j] = c.StringAt(fr)
		}
		res.Rows = append(res.Rows, row)
		res.Vals = append(res.Vals, finalize(q.Agg.Fn, t.sum[g], t.cnt[g], t.min[g], t.max[g]))
	}
	orderAndLimit(q, res)
	return res
}

// ---- driver ----

// executeVec runs the vectorized pipeline, checking the pooled group table
// out and back in around the actual run so the table is returned exactly
// once on every path (success or cancellation).
func executeVec(p *execPlan, cfg execConfig) (*Result, error) {
	vp := newVecPlan(p, cfg.stringKeys)
	t := tablePool.Get().(*groupTable)
	t.resetFor(len(vp.havingCols))
	res, err := vp.run(t, cfg)
	t.reset()
	tablePool.Put(t)
	return res, err
}

// run drives the pipeline into t: sequential below two morsels or workers,
// morsel-parallel otherwise, with the merge always consuming morsels in
// shard order. Tracing and profiling observe the same structure on both
// paths — a "scan" operator (morsel filter/key/gather, per-worker child
// spans when parallel), a "merge" operator, and a "finalize" operator —
// and never change claim order or accumulation order.
func (vp *vecPlan) run(t *groupTable, cfg execConfig) (*Result, error) {
	n := vp.rel.NumRows()
	nMorsels := (n + morselRows - 1) / morselRows
	workers := cfg.par
	if workers > nMorsels {
		workers = nMorsels
	}
	ctx, vsp := obs.StartSpan(cfg.ctx, "vexec")
	if vsp != nil {
		vsp.SetInt("rows", int64(n))
		vsp.SetInt("morsels", int64(nMorsels))
		vsp.SetInt("workers", int64(workers))
		cfg.ctx = ctx
	}
	scan := cfg.prof.op("scan")
	merge := cfg.prof.op("merge")
	var err error
	if workers <= 1 {
		err = vp.runSeq(t, cfg, n, nMorsels, scan, merge)
	} else {
		err = vp.runPar(t, cfg, n, nMorsels, workers, scan, merge)
	}
	if err != nil {
		vsp.End()
		return nil, err
	}
	fin := cfg.prof.op("finalize")
	t0 := profNow(fin)
	_, fsp := obs.StartSpan(cfg.ctx, "finalize")
	res := t.finalizeResult(vp)
	fsp.End()
	fin.addWall(t0)
	fin.addRows(int64(len(t.firstRow)), int64(len(res.Rows)))
	if fsp != nil {
		fsp.SetInt("groups", int64(len(t.firstRow)))
		fsp.SetInt("rows_out", int64(len(res.Rows)))
	}
	vsp.End()
	return res, nil
}

// runSeq processes and merges every morsel on the calling goroutine,
// observing ctx between morsels. The scan and merge spans are siblings
// that both cover the loop: sequential execution interleaves the two
// stages, and the profile's wall split is the accurate per-stage view.
func (vp *vecPlan) runSeq(t *groupTable, cfg execConfig, n, nMorsels int, scan, merge *opStats) error {
	ctx := cfg.ctx
	parent := obs.FromContext(ctx)
	scanSp := parent.Child("scan")
	mergeSp := parent.Child("merge")
	b := bufPool.Get().(*morselBuf)
	var err error
	var selected int64
	for m := 0; m < nMorsels; m++ {
		if ctx != nil && ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		lo, hi := morselBounds(m, n)
		t0 := profNow(scan)
		vp.processMorsel(b, lo, hi)
		scan.observe(int64(hi-lo), int64(len(b.sel)), t0)
		selected += int64(len(b.sel))
		t1 := profNow(merge)
		before := len(t.firstRow)
		t.mergeMorsel(vp, b)
		merge.observe(int64(len(b.sel)), int64(len(t.firstRow)-before), t1)
	}
	b.reset()
	bufPool.Put(b)
	scanSp.SetInt("rows_selected", selected)
	mergeSp.SetInt("groups", int64(len(t.firstRow)))
	scanSp.End()
	mergeSp.End()
	return err
}

// runPar fans morsels out to a worker pool via a shared atomic counter
// (idle workers steal whatever morsel is next), while the calling goroutine
// merges completed morsels strictly in shard order — that order, plus the
// merge owning all float accumulation, is what makes the output identical
// to the sequential path. The per-morsel done channels give the merge its
// happens-before edge on results[i].
func (vp *vecPlan) runPar(t *groupTable, cfg execConfig, n, nMorsels, workers int, scan, merge *opStats) error {
	ctx := cfg.ctx
	parent := obs.FromContext(ctx)
	scanSp := parent.Child("scan")
	results := make([]*morselBuf, nMorsels)
	done := make([]chan struct{}, nMorsels)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Worker spans are created here, in launch order, so the span
		// tree's child order is deterministic; the goroutines only fill
		// in timings and morsel counts.
		var wsp *obs.Span
		if scanSp != nil {
			wsp = scanSp.Child("worker-" + strconv.Itoa(w))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var claimed int64
			for {
				i := int(next.Add(1)) - 1
				if i >= nMorsels {
					wsp.SetInt("morsels", claimed)
					wsp.End()
					return
				}
				// Observe cancellation between morsels: a cancelled
				// execution stops claiming work, and every claimed
				// morsel is still signalled so the merge never blocks.
				if ctx != nil && ctx.Err() != nil {
					cancelled.Store(true)
					close(done[i])
					continue
				}
				claimed++
				wb := bufPool.Get().(*morselBuf)
				lo, hi := morselBounds(i, n)
				t0 := profNow(scan)
				vp.processMorsel(wb, lo, hi)
				scan.observe(int64(hi-lo), int64(len(wb.sel)), t0)
				results[i] = wb
				close(done[i])
			}
		}()
	}
	mergeSp := parent.Child("merge")
	for i := 0; i < nMorsels; i++ {
		<-done[i]
		mb := results[i]
		if mb == nil {
			continue // claimed after cancellation
		}
		if !cancelled.Load() {
			t1 := profNow(merge)
			before := len(t.firstRow)
			t.mergeMorsel(vp, mb)
			merge.observe(int64(len(mb.sel)), int64(len(t.firstRow)-before), t1)
		}
		mb.reset()
		bufPool.Put(mb)
	}
	// Join the workers: they exit as soon as the morsel counter runs dry,
	// and waiting keeps worker spans and profile counters complete before
	// the result (and any enclosing trace) is finalized.
	wg.Wait()
	mergeSp.SetInt("groups", int64(len(t.firstRow)))
	mergeSp.End()
	scanSp.End()
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// morselBounds returns morsel m's row range over a relation of n rows.
func morselBounds(m, n int) (int32, int32) {
	lo := m * morselRows
	hi := lo + morselRows
	if hi > n {
		hi = n
	}
	return int32(lo), int32(hi)
}
