package summarize

// Warm start across data generations: when a live-table refresh rebuilds the
// index over a changed answer set, the next sweeper does not start from
// scratch. The shared Fixed-Order phase must re-run — the changed answers
// change coverage sums, so the greedy choices may change, and correctness
// demands re-deriving them — but every allocation-heavy piece of replay
// state carries over: the base workset's dense membership and
// Delta-Judgment arrays, the coverage bitmaps, and every pooled replay state
// (worksets + pair buffers). LCA memos are flushed: their entries are facts
// about the old index's cluster ids. The result is bit-identical to a cold
// NewSweeper over the same index (see warm_test.go); only the allocation
// profile differs.

// Warm returns a sweeper over the successor index ix, reusing this sweeper's
// state as described above. The receiver must not be used after Warm
// returns: its base workset and pooled states now belong to the new sweeper.
func (sw *Sweeper) Warm(ix *Index) (*Sweeper, error) {
	p := Params{K: sw.kMax * sw.cfg.hybridC, L: sw.l, D: 0}
	if err := p.Validate(ix); err != nil {
		return nil, err
	}
	ws := sw.base
	ws.adoptIndex(ix)
	if err := fixedOrderPhase(ws, p, nil); err != nil {
		return nil, err
	}
	nw := &Sweeper{ix: ix, cfg: sw.cfg, l: sw.l, kMax: sw.kMax, base: ws}
	// Migrate every pooled replay state to the new index. Draining the old
	// pool is best-effort (the GC may have collected entries); anything not
	// migrated is simply re-allocated on first use, as always.
	for {
		v := sw.pool.Get()
		if v == nil {
			break
		}
		st := v.(*replayState)
		st.ws.adoptIndex(ix)
		nw.pool.Put(st)
	}
	return nw, nil
}

// adoptIndex rebinds a workset to a successor index, growing the dense
// id-indexed and tuple-indexed arrays to the new shapes and resetting the
// solution state to empty (the state a fresh newWorkset presents). The
// Delta-Judgment cache and membership stamps are invalidated by the
// generation bump, and the LCA memo is flushed (see lattice.LCAMemo.Rebind).
func (ws *workset) adoptIndex(ix *Index) {
	ws.ix = ix
	nc := ix.NumClusters()
	if len(ws.inSol) < nc {
		ws.inSol = append(ws.inSol, make([]uint32, nc-len(ws.inSol))...)
	}
	if ws.delta && len(ws.cache) < nc {
		ws.cache = append(ws.cache, make([]deltaEntry, nc-len(ws.cache))...)
		ws.cacheGen = append(ws.cacheGen, make([]uint32, nc-len(ws.cacheGen))...)
	}
	// Tuple-indexed bitmaps must match the new tuple count exactly (resetFrom
	// copies whole bitmaps between worksets of one sweeper). lastDelta holds
	// tuple indices of the old space, meaningless now — drop it and zero the
	// bitmap rather than unsetting stale (possibly out-of-range) indices.
	words := (ix.Space.N() + 63) / 64
	ws.covered = resizeBitset(ws.covered, words)
	ws.ldBits = resizeBitset(ws.ldBits, words)
	ws.lastDelta = ws.lastDelta[:0]
	ws.lca.Rebind(ix)
	ws.gen++
	if ws.gen == 0 { // stamp wrap-around: clear and restart, as in resetFrom
		for i := range ws.inSol {
			ws.inSol[i] = 0
		}
		for i := range ws.cacheGen {
			ws.cacheGen[i] = 0
		}
		ws.gen = 1
	}
	ws.ids = ws.ids[:0]
	ws.sum, ws.cnt = 0, 0
	ws.round = 0
	ws.evalFull, ws.evalDelta = 0, 0
}

// resizeBitset returns a zeroed bitset of exactly `words` words, reusing the
// given backing array when it is large enough.
func resizeBitset(b bitset, words int) bitset {
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}
