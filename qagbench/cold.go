package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"qagview"
)

// cold is the time to a first summary: one client (a user waits for the
// reply) creates a session and reads its first solution, over and over.
// The engine's scan, join, merge and finalize and the lattice build
// dominate; the first solution is mostly a live Hybrid run, as the store
// is still building. The query family has more distinct sessions than the
// server's 64-entry session LRU holds, so evictions and reuse both occur.
const (
	coldRatings = 200_000
	// coldPlannedPerSecond is the planned op rate of the closed loop; it
	// fixes the tail percentile (p90 for a 20 s window).
	coldPlannedPerSecond = 10.0
	coldScheduleOps      = 5000 // more than any window completes
	coldReplayOps        = 30
)

// coldWheres make the family 4 m x 6 WHEREs x 2 FROMs x 4 L = 192
// sessions, three times the session LRU, so most first summaries are cold
// builds.
var coldWheres = []string{"", "genre_drama = 1", "genre_comedy = 1", "genre_action = 0", "hourofday >= 12", "hourofday < 12"}

// coldFamily is the query family: m from 6 to 9, an optional WHERE,
// flat or 3-way star join, L from 100 to 2000 capped at the group count
// (taken from the model, as the flat and star results are identical).
func coldFamily(m *model) ([]sessSpec, error) {
	var out []sessSpec
	for mm := 6; mm <= 9; mm++ {
		for _, w := range coldWheres {
			res, err := m.query(sessSpec{M: mm, Where: w})
			if err != nil {
				return nil, err
			}
			for _, join := range []bool{false, true} {
				for _, l := range []int{100, 300, 1000, 2000} {
					out = append(out, sessSpec{M: mm, Where: w, Join: join, L: min(l, res.N())})
				}
			}
		}
	}
	return out, nil
}

type coldOp struct {
	spec sessSpec
	k, d int
}

// coldSchedule lays ops out in blocks of eight, each a seeded shuffle of
// one flat query, five star joins and two repeats of an earlier op (the
// 25% repeat share), so every prefix of the schedule has the same mix: a
// window completes as many ops as it can. The joins dominate so that the
// median first summary falls inside the join mode, not on the edge
// between the flat and join modes, where it would swing with the mix.
// Fresh queries cycle through seeded permutations of the family's flat
// and star-join halves.
func coldSchedule(seed int64, family []sessSpec) []coldOp {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	var halves [2][]sessSpec
	for _, s := range family {
		j := 0
		if s.Join {
			j = 1
		}
		halves[j] = append(halves[j], s)
	}
	var perms [2][]int
	block := []int{0, 1, 1, 1, 1, 1, 2, 2} // 0 flat, 1 join, 2 repeat
	ops := make([]coldOp, 0, coldScheduleOps)
	for len(ops) < coldScheduleOps {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			var s sessSpec
			if kind == 2 && len(ops) > 0 {
				s = ops[rng.Intn(len(ops))].spec
			} else {
				h := kind % 2
				if len(perms[h]) == 0 {
					perms[h] = rng.Perm(len(halves[h]))
				}
				s, perms[h] = halves[h][perms[h][0]], perms[h][1:]
			}
			ops = append(ops, coldOp{spec: s, d: dsGrid[rng.Intn(len(dsGrid))], k: 6 + rng.Intn(kMax-5)})
		}
	}
	return ops
}

func solutionPath(id string, k, d int) string {
	return fmt.Sprintf("/v1/sessions/%s/solution?k=%d&d=%d", id, k, d)
}

// coldResult is one measured op.
type coldResult struct {
	create, solution time.Duration
	ok               bool
	reply            sessionReply
	solBody          []byte
}

func runCold(e *env) (*report, error) {
	rep := newReport()
	data, err := genData(coldRatings, 0)
	if err != nil {
		return nil, err
	}
	m := newModel(nil)
	if err := m.load(data); err != nil {
		return nil, err
	}
	family, err := coldFamily(m)
	if err != nil {
		return nil, err
	}
	ops := coldSchedule(e.seed, family)
	rep.load["clients"], rep.load["repeat_share"] = 1, 0.25

	d, c, setup, err := e.serve(func(int) []string { return nil }, func(c caller) error { return loadTables(c, data) })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.e2e["setup_s"] = setup

	var results []coldResult
	if _, err := e.measure(d, c, rep, func() int { return len(results) }, func() {
		start := time.Now()
		for _, o := range ops {
			if time.Since(start) >= e.window {
				break
			}
			var r coldResult
			t0 := time.Now()
			code, body, err := c.call("POST", "/v1/sessions", o.spec.body())
			r.create = time.Since(t0)
			r.ok = err == nil && (code == 201 || code == 200) && json.Unmarshal(body, &r.reply) == nil
			if r.ok {
				t1 := time.Now()
				code, r.solBody, err = c.call("GET", solutionPath(r.reply.Session, o.k, o.d), nil)
				r.solution = time.Since(t1)
				r.ok = err == nil && code == 200
			}
			results = append(results, r)
		}
	}); err != nil {
		return nil, err
	}
	d.stop()

	// Oracle: each create's n and clusters must match an in-process
	// NewSummarizer over the same query and L.
	want := map[sessSpec][2]int{}
	resBySQL := map[string]*qagview.Result{}
	classes := []*opClass{{name: "first_summary"}, {name: "create"}, {name: "first solution"}}
	reused, storeHits := 0, 0
	var solBodies [][]byte
	for i, r := range results {
		o := ops[i]
		if r.ok {
			w, seen := want[o.spec]
			if !seen {
				res := resBySQL[o.spec.sql()]
				if res == nil {
					if res, err = m.query(o.spec); err != nil {
						return nil, err
					}
					resBySQL[o.spec.sql()] = res
				}
				sum, err := qagview.NewSummarizer(res, o.spec.L)
				if err != nil {
					return nil, err
				}
				w = [2]int{sum.N(), sum.NumClusters()}
				want[o.spec] = w
			}
			var sol struct {
				Clusters []json.RawMessage `json:"clusters"`
			}
			if r.reply.N != w[0] || r.reply.Clusters != w[1] || json.Unmarshal(r.solBody, &sol) != nil || len(sol.Clusters) == 0 {
				r.ok = false
				rep.wrong++
			}
			if r.reply.Reused {
				reused++
			}
			if sourceOf(r.solBody) == "store" {
				storeHits++
			}
			solBodies = append(solBodies, r.solBody)
		}
		rep.attempted++
		if !r.ok {
			rep.failed++
		}
		classes[0].add(r.create+r.solution, r.ok)
		classes[1].add(r.create, r.ok)
		classes[2].add(r.solution, r.ok)
	}
	for i, role := range []string{"summary", "op2", "op3"} {
		classes[i].planned = int(coldPlannedPerSecond * e.window.Seconds())
		classes[i].put(rep, role)
	}
	rep.finish()
	rep.layer["server.session_reuse_ratio"] = ratio(reused, len(solBodies))
	rep.layer["server.store_hit_ratio"] = ratio(storeHits, len(solBodies))
	rep.layer["server.response_bytes.solution"] = medianLen(solBodies)
	if !e.traced {
		return rep, nil
	}
	return rep, coldReplay(e, rep, data, ops[:min(len(results), coldReplayOps)])
}

// coldReplay replays ops in-process, one at a time. The model rebuilds a
// session only when the server did (its reply says whether it reused one),
// and computes each first solution the way the reply says it was served.
// Before the model's calls it waits for the server's background store
// build, so the two do not compete for CPU inside the model's spans.
func coldReplay(e *env, rep *report, data *dataset, ops []coldOp) error {
	tr := newTracer()
	srv, c, err := inprocServer(e, "")
	if err != nil {
		return err
	}
	defer srv.Drain()
	m := newModel(tr)
	if err := m.load(data); err != nil {
		return err
	}
	if err := loadTables(c, data); err != nil {
		return err
	}
	sess := map[sessSpec]*msess{}
	for i, o := range ops {
		tr.setOp(i)
		ok := false
		tr.do("op.first_summary", func() {
			var cr sessionReply
			var code int
			var body []byte
			tr.do("server.handler.create", func() { code, body, err = c.call("POST", "/v1/sessions", o.spec.body()) })
			if err != nil || (code != 201 && code != 200) || json.Unmarshal(body, &cr) != nil {
				return
			}
			// The solution request follows the create at once, as in the
			// measured run; the model's work comes after both.
			var solCode int
			var solBody []byte
			tr.do("server.handler.solution", func() { solCode, solBody, err = c.call("GET", solutionPath(cr.Session, o.k, o.d), nil) })
			if err != nil || solCode != 200 || waitStores(c, []string{cr.Session}) != nil {
				return
			}
			ms := sess[o.spec]
			if ms == nil || !cr.Reused {
				if ms, err = m.open(o.spec); err != nil {
					return
				}
				sess[o.spec] = ms
			}
			if cr.N != ms.n || cr.Clusters != ms.live.Summarizer().NumClusters() {
				return
			}
			want, err := m.wantSolution(ms, sourceOf(solBody), o.k, o.d)
			ok = err == nil && matches(solBody, want)
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
