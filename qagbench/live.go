package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qagview/internal/wal"
)

// live is writes beside reads on a durable server (-wal, fsync before every
// acknowledgement). The first read of a session after an append to its
// table pays for the append's copy-on-write, dictionary re-encoding, query
// re-execution, Live.RefreshCtx and a live Hybrid run while the store
// rebuilds in the background.
const (
	liveRatings = 100_000
	liveBatch   = 20 // rows per append
	// liveAppendRate is the appends per second. One in four goes to
	// RatingTable and three to ratings, so three in four stale reads are
	// star-join refreshes and their median falls inside that mode rather
	// than on the edge between the flat and join modes.
	liveAppendRate = 2.5
	liveReadRate   = 100.0
	// liveReplayOps bounds the traced replay: about the first 5 s of the
	// schedule.
	liveReplayOps = 500
)

// liveSpecs are four warm sessions, two on each appended table.
func liveSpecs() []sessSpec {
	return []sessSpec{{M: 6, L: 500}, {M: 8, L: 1000}, {M: 6, L: 500, Join: true}, {M: 8, L: 1000, Join: true}}
}

type liveOp struct {
	kind  string // append or solution
	table string // append: RatingTable or ratings
	batch int    // append: the table's batch number, from 0
	s     int    // solution: session index
	k, d  int
}

// rows returns the full-table row indexes of an append op.
func (o liveOp) rows(d *dataset) []int {
	lo := d.loaded + o.batch*liveBatch
	return seq(lo, lo+liveBatch)
}

// liveArrivals draws the window's arrivals: appends at a fixed period (a
// writer feeding rows at a steady rate, from a seeded phase), reads as
// Poisson arrivals. Reads get their (k, d) later, once the data says which
// k exist.
func liveArrivals(seed int64, window time.Duration) ([]time.Duration, []liveOp) {
	rng := rand.New(rand.NewSource(seed * 6007))
	type arrival struct {
		at     time.Duration
		append bool
	}
	var all []arrival
	period := time.Duration(float64(time.Second) / liveAppendRate)
	for at := time.Duration(rng.Int63n(int64(period))); at < window; at += period {
		all = append(all, arrival{at, true})
	}
	for _, at := range arrivals(rng, liveReadRate, window) {
		all = append(all, arrival{at, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	due, ops := make([]time.Duration, len(all)), make([]liveOp, len(all))
	appends := 0
	batches := map[string]int{}
	for i, a := range all {
		o := liveOp{kind: "solution"}
		if a.append {
			o.kind, o.table = "append", "ratings"
			if appends%4 == 0 {
				o.table = "RatingTable"
			}
			o.batch = batches[o.table]
			batches[o.table]++
			appends++
		}
		due[i], ops[i] = a.at, o
	}
	return due, ops
}

// assignReads gives every read a session and a (k, d) the session's store
// holds.
func assignReads(seed int64, ops []liveOp, minSize []map[int]int) {
	rng := rand.New(rand.NewSource(seed*6007 - 1))
	for i := range ops {
		if ops[i].kind == "solution" {
			ops[i].s = rng.Intn(len(minSize))
			ops[i].d = dsGrid[rng.Intn(len(dsGrid))]
			ops[i].k = smallK(rng, minSize[ops[i].s][ops[i].d])
		}
	}
}

func appendBody(d *dataset, o liveOp) []byte {
	b, _ := json.Marshal(map[string]any{"rows": rowsOf(d.full[o.table], o.rows(d))})
	return b
}

type ack struct {
	op  liveOp
	gen uint64
}

func runLive(e *env) (*report, error) {
	rep := newReport()
	rep.fsync = "every acknowledged write (WAL group commit)"
	due, ops := liveArrivals(e.seed, e.window)
	maxBatch := 0
	for _, o := range ops {
		maxBatch = max(maxBatch, o.batch+1)
	}
	data, err := genData(liveRatings, maxBatch*liveBatch)
	if err != nil {
		return nil, err
	}
	specs, _, minSize, err := warmModel(newModel(nil), data, liveSpecs())
	if err != nil {
		return nil, err
	}
	assignReads(e.seed, ops, minSize)
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		if o.kind == "append" {
			bodies[i] = appendBody(data, o)
		}
	}
	rep.load["append_per_s"], rep.load["append_rows"], rep.load["read_per_s"], rep.load["conns"] =
		liveAppendRate, liveBatch, liveReadRate, e.nproc

	var ids []string
	ready := func(c caller) (err error) {
		ids, err = warmUp(c, data, specs)
		return err
	}
	walArgs := func(i int) []string { return []string{"-wal", filepath.Join(e.dir, fmt.Sprintf("wal-%d", i))} }
	d, c, setup, err := e.serve(walArgs, ready)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.e2e["setup_s"] = setup

	dirty := make([]atomic.Bool, len(specs))
	stale := make([]bool, len(ops))
	replies := make([][]byte, len(ops))
	var mu sync.Mutex
	var acks []ack
	var userBytes atomic.Int64
	var lat, lag []time.Duration
	var okAt []bool
	walBytes, err := e.measure(d, c, rep, func() int { return len(ops) }, func() {
		lat, lag, okAt = openLoop(due, e.nproc, func(i int) bool {
			o := ops[i]
			if o.kind == "append" {
				code, body, err := c.call("POST", "/v1/tables/"+o.table+"/rows", bodies[i])
				var a struct {
					Gen uint64 `json:"data_version"`
				}
				if err != nil || code != 200 || json.Unmarshal(body, &a) != nil {
					return false
				}
				userBytes.Add(int64(len(bodies[i])))
				mu.Lock()
				acks = append(acks, ack{o, a.Gen})
				mu.Unlock()
				for s, spec := range specs {
					if spec.table() == o.table {
						dirty[s].Store(true)
					}
				}
				return true
			}
			stale[i] = dirty[o.s].Swap(false)
			code, body, err := c.call("GET", solutionPath(ids[o.s], o.k, o.d), nil)
			replies[i] = body
			return err == nil && code == 200
		})
	})
	if err != nil {
		return nil, err
	}

	reads, appends, staleReads := &opClass{name: "solution"}, &opClass{name: "append"}, &opClass{name: "stale_read"}
	storeHits, solutions := 0, 0
	var solBodies [][]byte
	for i, o := range ops {
		rep.attempted++
		if !okAt[i] {
			rep.failed++
		}
		if o.kind == "append" {
			appends.add(lat[i], okAt[i])
			continue
		}
		reads.add(lat[i], okAt[i])
		if stale[i] {
			staleReads.add(lat[i], okAt[i])
		}
		if okAt[i] {
			solutions++
			solBodies = append(solBodies, replies[i])
			if sourceOf(replies[i]) == "store" {
				storeHits++
			}
		}
	}
	if err := liveOracle(c, rep, data, specs, ids, acks); err != nil {
		return nil, err
	}
	d.stop()
	reads.planned = int(liveReadRate * e.window.Seconds())
	appends.planned = int(liveAppendRate * e.window.Seconds())
	staleReads.planned = 2 * appends.planned // each append makes two sessions stale
	reads.put(rep, "summary")
	staleReads.put(rep, "op2")
	appends.put(rep, "op3")
	rep.finish()
	rep.checkLag(lag)
	rep.layer["server.store_hit_ratio"] = ratio(storeHits, solutions)
	rep.layer["server.response_bytes.solution"] = medianLen(solBodies)
	rep.layer["wal.bytes_per_user_byte"] = ratio(int(walBytes), int(userBytes.Load()))
	if !e.traced {
		return rep, nil
	}
	n := min(len(ops), liveReplayOps)
	return rep, liveReplay(e, rep, data, specs, ops[:n], bodies[:n])
}

// liveOracle checks the determinism contract at the end of the run: every
// session's solution over the whole (k, D) grid must equal a from-scratch
// rebuild over the loaded data plus every acknowledged append, in the
// server's generation order. Each grid cell counts as one op.
func liveOracle(c caller, rep *report, data *dataset, specs []sessSpec, ids []string, acks []ack) error {
	sort.Slice(acks, func(i, j int) bool { return acks[i].gen < acks[j].gen })
	m := newModel(nil)
	if err := m.load(data); err != nil {
		return err
	}
	for _, table := range []string{"RatingTable", "ratings"} {
		var idx []int
		for _, a := range acks {
			if a.op.table == table {
				idx = append(idx, a.op.rows(data)...)
			}
		}
		if err := m.appendRows(table, data.full[table], idx); err != nil {
			return err
		}
	}
	if err := waitStores(c, ids); err != nil {
		return err
	}
	for s, spec := range specs {
		ms, err := m.open(spec)
		if err != nil {
			return err
		}
		st, err := m.storeOf(ms)
		if err != nil {
			return err
		}
		for k := 1; k <= kMax; k++ {
			for _, d := range dsGrid {
				code, body, err := c.call("GET", solutionPath(ids[s], k, d), nil)
				ok := err == nil
				if _, serr := st.Solution(k, d); serr != nil {
					ok = ok && code == 422
				} else {
					want, werr := m.wantSolution(ms, "store", k, d)
					ok = ok && code == 200 && werr == nil && matches(body, want)
				}
				rep.attempted++
				if !ok {
					rep.failed++
					rep.wrong++
				}
			}
		}
	}
	return nil
}

// liveReplay replays ops in-process against a durable server, with the
// model applying each append (through its own WAL) and refreshing each
// stale session the way the server does. Before the model's calls it waits
// for the server's background store builds, so the two do not compete for
// CPU inside the model's spans.
func liveReplay(e *env, rep *report, data *dataset, specs []sessSpec, ops []liveOp, bodies [][]byte) error {
	tr := newTracer()
	srv, c, err := inprocServer(e, filepath.Join(e.dir, "replay-wal"))
	if err != nil {
		return err
	}
	defer srv.Drain()
	log, _, err := wal.Open(filepath.Join(e.dir, "model-wal"), func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	defer log.Close()
	m := newModel(tr)
	_, sess, _, err := warmModel(m, data, specs)
	if err != nil {
		return err
	}
	ids, err := warmUp(c, data, specs)
	if err != nil {
		return err
	}
	for i, o := range ops {
		tr.setOp(i)
		ok := false
		tr.do("op."+o.kind, func() {
			var code int
			var body []byte
			if o.kind == "append" {
				tr.do("server.handler.append", func() { code, body, err = c.call("POST", "/v1/tables/"+o.table+"/rows", bodies[i]) })
				var a struct {
					Gen uint64 `json:"data_version"`
				}
				if err != nil || code != 200 || json.Unmarshal(body, &a) != nil {
					return
				}
				tr.do("wal.append", func() { err = log.Append(wal.Record{Op: 2, Table: o.table, Gen: a.Gen, Data: bodies[i]}) })
				ok = err == nil && m.appendRows(o.table, data.full[o.table], o.rows(data)) == nil
				return
			}
			tr.do("server.handler.solution", func() { code, body, err = c.call("GET", solutionPath(ids[o.s], o.k, o.d), nil) })
			if err != nil || code != 200 || waitStores(c, ids[o.s:o.s+1]) != nil || m.refresh(sess[o.s]) != nil {
				return
			}
			want, err := m.wantSolution(sess[o.s], sourceOf(body), o.k, o.d)
			ok = err == nil && matches(body, want)
		})
		rep.attempted++
		if !ok {
			rep.failed++
			rep.wrong++
		}
	}
	spanReport(tr, len(ops), rep)
	m.report(rep)
	rep.tr = tr
	return nil
}
