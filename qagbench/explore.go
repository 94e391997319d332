package main

import (
	"fmt"
	"math/rand"
	"time"
)

// explore is the paper's interactive (k, D) loop on warm sessions: every
// store is built before timing, so retrieval, the Sankey diff and the
// server's request decode and reply encode do all the work, and the engine,
// the lattice and the WAL do none.
const (
	exploreRatings = 100_000
	// exploreRate is the open-loop arrival rate: half of the 1182 ops/s
	// (median of five 20 s runs) that the generator and server sustained
	// together on a 2-vCPU box with the same mix sent back to back on
	// nproc connections (-saturate; see README.md).
	exploreRate = 590.0
	// exploreReplayOps bounds the traced replay.
	exploreReplayOps = 2000
)

// exploreSpecs are the eight warm sessions: flat and star-join SQL at
// m = 6 and 8, L from 100 to 2000 (capped at the group count).
func exploreSpecs() []sessSpec {
	var out []sessSpec
	for i, l := range []int{100, 300, 1000, 2000} {
		m := 6 + 2*(i%2)
		out = append(out, sessSpec{M: m, L: l}, sessSpec{M: m, L: l, Join: true})
	}
	return out
}

type exploreOp struct {
	kind         string // solution, diff or guidance
	s            int    // session index
	k, d, k2, d2 int
}

func (o exploreOp) path(id string) string {
	switch o.kind {
	case "solution":
		return solutionPath(id, o.k, o.d)
	case "diff":
		return fmt.Sprintf("/v1/sessions/%s/diff?k1=%d&d1=%d&k2=%d&d2=%d", id, o.k, o.d, o.k2, o.d2)
	}
	return "/v1/sessions/" + id + "/guidance"
}

// exploreSchedule draws the window's arrivals and ops: 70% solution, 20%
// diff, 10% guidance. minSize[s][d] is the smallest k session s's store
// holds for D = d, so every requested solution exists.
func exploreSchedule(seed int64, window time.Duration, minSize []map[int]int) ([]time.Duration, []exploreOp) {
	rng := rand.New(rand.NewSource(seed * 1009))
	due := arrivals(rng, exploreRate, window)
	ops := make([]exploreOp, len(due))
	for i := range ops {
		o := exploreOp{kind: "guidance", s: rng.Intn(len(minSize))}
		o.d = dsGrid[rng.Intn(len(dsGrid))]
		o.k = smallK(rng, minSize[o.s][o.d])
		switch u := rng.Float64(); {
		case u < 0.7:
			o.kind = "solution"
		case u < 0.9:
			o.kind = "diff"
			o.d2 = dsGrid[rng.Intn(len(dsGrid))]
			o.k2 = smallK(rng, minSize[o.s][o.d2])
		}
		ops[i] = o
	}
	return due, ops
}

// smallK draws k in [lo, kMax], skewed toward small k: users start from a
// few clusters.
func smallK(rng *rand.Rand, lo int) int {
	u := rng.Float64()
	return lo + int(float64(kMax-lo+1)*u*u)
}

// exploreWant is the model's expected reply to o.
func exploreWant(m *model, sess []*msess, o exploreOp) (map[string]any, error) {
	switch o.kind {
	case "solution":
		return m.wantSolution(sess[o.s], "store", o.k, o.d)
	case "diff":
		return m.wantDiff(sess[o.s], o.k, o.d, o.k2, o.d2)
	}
	return m.wantGuidance(sess[o.s])
}

func runExplore(e *env) (*report, error) {
	rep := newReport()
	data, err := genData(exploreRatings, 0)
	if err != nil {
		return nil, err
	}
	m := newModel(nil)
	specs, sess, minSize, err := warmModel(m, data, exploreSpecs())
	if err != nil {
		return nil, err
	}
	due, ops := exploreSchedule(e.seed, e.window, minSize)
	rep.load["rate_per_s"], rep.load["conns"] = exploreRate, e.nproc

	var ids []string
	ready := func(c caller) (err error) {
		ids, err = warmUp(c, data, specs)
		return err
	}
	d, c, setup, err := e.serve(func(int) []string { return nil }, ready)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.e2e["setup_s"] = setup
	if e.saturate {
		return rep, exploreSaturate(e, d, c, rep, ops, ids)
	}

	bodies := make([][]byte, len(ops))
	var lat, lag []time.Duration
	var okAt []bool
	if _, err := e.measure(d, c, rep, func() int { return len(ops) }, func() {
		lat, lag, okAt = openLoop(due, e.nproc, func(i int) bool {
			o := ops[i]
			code, body, err := c.call("GET", o.path(ids[o.s]), nil)
			bodies[i] = body
			return err == nil && code == 200
		})
	}); err != nil {
		return nil, err
	}
	d.stop()

	// Oracle: every reply must equal the model's answer bit for bit.
	// Identical replies to the same request are checked once.
	verdicts := map[string]bool{}
	classes := map[string]*opClass{
		"solution": {name: "solution"}, "diff": {name: "diff"}, "guidance": {name: "guidance"},
	}
	var solBodies, diffBodies [][]byte
	storeHits, solutions := 0, 0
	for i, o := range ops {
		ok := okAt[i]
		if ok {
			key := o.path(ids[o.s]) + "\x00" + string(bodies[i])
			v, seen := verdicts[key]
			if !seen {
				want, err := exploreWant(m, sess, o)
				v = err == nil && matches(bodies[i], want)
				verdicts[key] = v
			}
			if !v {
				ok = false
				rep.wrong++
			}
			switch o.kind {
			case "solution":
				solBodies = append(solBodies, bodies[i])
				solutions++
				if sourceOf(bodies[i]) == "store" {
					storeHits++
				}
			case "diff":
				diffBodies = append(diffBodies, bodies[i])
			}
		}
		rep.attempted++
		if !ok {
			rep.failed++
		}
		classes[o.kind].add(lat[i], ok)
	}
	planned := exploreRate * e.window.Seconds()
	classes["solution"].planned = int(0.7 * planned)
	classes["diff"].planned = int(0.2 * planned)
	classes["guidance"].planned = int(0.1 * planned)
	classes["solution"].put(rep, "summary")
	classes["diff"].put(rep, "op2")
	classes["guidance"].put(rep, "op3")
	rep.finish()
	rep.checkLag(lag)
	rep.layer["server.store_hit_ratio"] = ratio(storeHits, solutions)
	rep.layer["server.response_bytes.solution"] = medianLen(solBodies)
	rep.layer["server.response_bytes.diff"] = medianLen(diffBodies)
	if !e.traced {
		return rep, nil
	}
	return rep, exploreReplay(e, rep, data, specs, ops)
}

// exploreSaturate sends the window's ops back to back on nproc connections
// instead of at their due times, and reports the rate sustained. It sizes
// exploreRate; replies are counted as failed only on a transport error or a
// non-200 status, not checked against the model.
func exploreSaturate(e *env, d *daemon, c caller, rep *report, ops []exploreOp, ids []string) error {
	var sent, failed int
	if _, err := e.measure(d, c, rep, func() int { return sent }, func() {
		sent, failed = closedLoop(len(ops), e.nproc, e.window, func(i int) bool {
			o := ops[i]
			code, _, err := c.call("GET", o.path(ids[o.s]), nil)
			return err == nil && code == 200
		})
	}); err != nil {
		return err
	}
	rep.attempted, rep.failed = sent, failed
	rep.finish()
	rep.linef("saturated: %d ops back to back on %d connections in %v: %.0f ops/s sustained",
		sent, e.nproc, e.window, float64(sent)/e.window.Seconds())
	return nil
}

// exploreReplay replays the first ops in-process, one at a time, timing the
// server handler and the model's calls into each layer.
func exploreReplay(e *env, rep *report, data *dataset, specs []sessSpec, ops []exploreOp) error {
	tr := newTracer()
	srv, c, err := inprocServer(e, "")
	if err != nil {
		return err
	}
	defer srv.Drain()
	m := newModel(tr)
	_, sess, _, err := warmModel(m, data, specs)
	if err != nil {
		return err
	}
	ids, err := warmUp(c, data, specs)
	if err != nil {
		return err
	}
	seq := ops[:min(len(ops), exploreReplayOps)]
	for i, o := range seq {
		tr.setOp(i)
		ok := false
		tr.do("op."+o.kind, func() {
			var code int
			var body []byte
			tr.do("server.handler."+o.kind, func() { code, body, err = c.call("GET", o.path(ids[o.s]), nil) })
			want, werr := exploreWant(m, sess, o)
			ok = err == nil && code == 200 && werr == nil && matches(body, want)
		})
		rep.attempted++
		if !ok {
			rep.failed++
			rep.wrong++
		}
	}
	spanReport(tr, len(seq), rep)
	m.report(rep)
	rep.tr = tr
	return nil
}
