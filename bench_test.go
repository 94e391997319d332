// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation. Each benchmark exercises the operation whose cost the figure
// reports; the cmd/experiments binary prints the corresponding rows. See
// EXPERIMENTS.md for the figure-by-figure mapping.
package qagview_test

import (
	"context"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"qagview"
	"qagview/internal/baselines"
	"qagview/internal/dtree"
	"qagview/internal/exp"
	"qagview/internal/lattice"
	"qagview/internal/movielens"
	"qagview/internal/obs"
	"qagview/internal/summarize"
	"qagview/internal/tpcds"
	"qagview/internal/userstudy"
	"qagview/internal/wal"
)

// benchState holds datasets and summarizers shared by all benchmarks; built
// once on first use.
type benchState struct {
	env *exp.Env

	adventure *qagview.Result // running-example query, N ~ 50
	mid       *qagview.Result // m=8, N ~ 2087
	tp        *qagview.Result // TPC-DS m=7

	advSumm *qagview.Summarizer // L = N over adventure
	midSumm *qagview.Summarizer // L = 500 over mid

	space *lattice.Space // mid result as a lattice space
}

var (
	stateOnce sync.Once
	state     *benchState
	stateErr  error
)

func getState(b *testing.B) *benchState {
	b.Helper()
	stateOnce.Do(func() {
		env, err := exp.NewEnv(
			movielens.DefaultConfig(),
			tpcds.Config{Rows: 150_000, Seed: 7},
		)
		if err != nil {
			stateErr = err
			return
		}
		s := &benchState{env: env}
		if s.adventure, err = env.AdventureResultN(50); err != nil {
			stateErr = err
			return
		}
		if s.mid, err = env.MovieLensResult(8, 2087); err != nil {
			stateErr = err
			return
		}
		if s.tp, err = env.TPCDSResult(7, 20000); err != nil {
			stateErr = err
			return
		}
		if s.advSumm, err = qagview.NewSummarizer(s.adventure, s.adventure.N()); err != nil {
			stateErr = err
			return
		}
		L := 500
		if s.mid.N() < L {
			L = s.mid.N()
		}
		if s.midSumm, err = qagview.NewSummarizer(s.mid, L); err != nil {
			stateErr = err
			return
		}
		if s.space, err = lattice.NewSpace(s.mid.GroupBy, s.mid.Rows, s.mid.Vals); err != nil {
			stateErr = err
			return
		}
		state = s
	})
	if stateErr != nil {
		b.Fatal(stateErr)
	}
	return state
}

// BenchmarkFig2Guidance measures generating the parameter-selection view:
// a full precompute over k=2..15 and D=1..4 at L=15 (Figure 2; the paper
// reports 20-40 ms for this on MovieLens).
func BenchmarkFig2Guidance(b *testing.B) {
	s := getState(b)
	L := 15
	summ, err := qagview.NewSummarizer(s.adventure, L)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := summ.Precompute(2, 15, []int{1, 2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Solution(10, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 measures the algorithms of the brute-force comparison at
// L=5, D=3, k=4 (Figures 5a/5b).
func BenchmarkFig5(b *testing.B) {
	s := getState(b)
	p := qagview.Params{K: 4, L: 5, D: 3}
	for _, algo := range []qagview.Algorithm{
		qagview.BruteForce, qagview.BottomUp, qagview.FixedOrder, qagview.Hybrid,
	} {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.advSumm.Summarize(algo, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("random-fixed-order", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := s.advSumm.Summarize(qagview.RandomFixedOrder, p, qagview.WithRand(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kmeans-fixed-order", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := s.advSumm.Summarize(qagview.KMeansFixedOrder, p, qagview.WithRand(rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6VaryK sweeps k at L=40, D=3 (Figures 6a/6b).
func BenchmarkFig6VaryK(b *testing.B) {
	s := getState(b)
	for _, k := range []int{5, 10, 20, 40} {
		p := qagview.Params{K: k, L: 40, D: 3}
		b.Run(label("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(qagview.Hybrid, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6VaryL sweeps L at k=3, D=3 (Figures 6c/6d).
func BenchmarkFig6VaryL(b *testing.B) {
	s := getState(b)
	for _, L := range []int{3, 9, 27, 81} {
		p := qagview.Params{K: 3, L: L, D: 3}
		b.Run(label("L", L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(qagview.Hybrid, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6VaryD sweeps D at k=10, L=40 (Figures 6e/6f).
func BenchmarkFig6VaryD(b *testing.B) {
	s := getState(b)
	for _, d := range []int{1, 3, 6} {
		p := qagview.Params{K: 10, L: 40, D: d}
		b.Run(label("D", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(qagview.BottomUp, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6VaryM measures initialization (cluster-space construction) as
// the number of grouping attributes m grows (Figures 6g/6h).
func BenchmarkFig6VaryM(b *testing.B) {
	s := getState(b)
	for _, m := range []int{4, 6, 8, 10} {
		res, err := s.env.MovieLensResult(m, 200)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(label("m", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qagview.NewSummarizer(res, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7PrecomputeK measures the precompute path (init + sweep) for
// k up to 20 at L=500, D=2 (Figure 7a).
func BenchmarkFig7PrecomputeK(b *testing.B) {
	s := getState(b)
	for i := 0; i < b.N; i++ {
		L := 500
		if s.mid.N() < L {
			L = s.mid.N()
		}
		summ, err := qagview.NewSummarizer(s.mid, L)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := summ.Precompute(1, 20, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PrecomputeKParallel measures the per-D fan-out of the
// precompute sweep on the Figure 7 grid (k up to 20, D in 1..4, L=500),
// sweeping the worker count. On a machine with >= 4 cores the par=4 case
// should run the sweep at least ~2x faster than par=1; output is
// bit-identical at every level (see TestParallelMatchesSequential).
func BenchmarkFig7PrecomputeKParallel(b *testing.B) {
	s := getState(b)
	ds := []int{1, 2, 3, 4}
	for _, par := range []int{1, 2, 4, 8} {
		par := par
		b.Run(label("par", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Precompute(1, 20, ds, qagview.Parallelism(par)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Retrieve measures the precomputed retrieval path that makes
// repeated runs cheap (Figures 7b-7f): one interval-tree stab plus coverage
// reconstruction.
func BenchmarkFig7Retrieve(b *testing.B) {
	s := getState(b)
	store, err := s.midSumm.Precompute(1, 20, []int{2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Solution(1+i%20, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8InitOpt compares optimized vs naive cluster-space
// construction at L=200 (Figure 8a).
func BenchmarkFig8InitOpt(b *testing.B) {
	s := getState(b)
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lattice.BuildIndex(s.space, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lattice.BuildIndexNaive(s.space, 200); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildIndexMovieLens measures cluster-space construction on the
// MovieLens space (m=8, N≈2087, L=500) across key representations and
// phase-2 worker counts: slice-par1 is the pre-packed baseline, packed-par1
// isolates the uint64-key win, and the higher worker counts add the parallel
// coverage mapping. The built index is bit-identical in every variant (see
// the lattice build tests).
func BenchmarkBuildIndexMovieLens(b *testing.B) {
	s := getState(b)
	L := 500
	if s.space.N() < L {
		L = s.space.N()
	}
	run := func(name string, opts ...lattice.BuildOption) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lattice.BuildIndex(s.space, L, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("slice-par1", lattice.WithSliceKeys(), lattice.BuildParallelism(1))
	run("packed-par1", lattice.BuildParallelism(1))
	for _, par := range []int{2, 4, 8} {
		run("packed-par"+itoa(par), lattice.BuildParallelism(par))
	}
}

// BenchmarkLiveRefresh measures a live-table refresh on 100k MovieLens
// ratings: after a 20-rating append the AVG query's result changes, and
// Live.Refresh rebuilds the cluster space and warms the sweeper chain onto
// it, then Live.Precompute sweeps the (k, D) grid. Each iteration
// alternates between the results before and after the append, so every
// refresh sees a changed answer set; the query runs outside the timer.
func BenchmarkLiveRefresh(b *testing.B) {
	const base, batch, kMax = 100_000, 20, 12
	ds := []int{1, 2, 3}
	lt := newLiveTables(b, base+batch)
	for _, c := range []struct{ m, L int }{{6, 500}, {8, 1000}} {
		b.Run(label("m", c.m)+"/"+label("L", c.L), func(b *testing.B) {
			sql := liveSQL(b, false, c.m)
			var results [2]*qagview.Result
			for i, n := range []int{base, base + batch} {
				res, err := lt.db(b, n).Query(sql)
				if err != nil {
					b.Fatal(err)
				}
				results[i] = res
			}
			sum, err := qagview.NewSummarizer(results[0], min(c.L, results[0].N()))
			if err != nil {
				b.Fatal(err)
			}
			live := qagview.NewLive(sum)
			if _, err := live.Precompute(1, kMax, ds); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, changed, err := live.Refresh(results[(i+1)%2]); err != nil || !changed {
					b.Fatalf("refresh: changed=%v err=%v", changed, err)
				}
				if _, err := live.Precompute(1, kMax, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Delta compares Hybrid with and without Delta-Judgment at
// L=500, k=20, D=2 (Figure 8b).
func BenchmarkFig8Delta(b *testing.B) {
	s := getState(b)
	p := qagview.Params{K: 20, L: s.midSumm.L(), D: 2}
	b.Run("with-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.midSumm.Summarize(qagview.Hybrid, p, qagview.WithDelta(true)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.midSumm.Summarize(qagview.Hybrid, p, qagview.WithDelta(false)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9TPCDS measures initialization plus one Hybrid run over the
// TPC-DS workload at L=500, k=20, D=2 (Figures 9a/9b).
func BenchmarkFig9TPCDS(b *testing.B) {
	s := getState(b)
	L := 500
	if s.tp.N() < L {
		L = s.tp.N()
	}
	for i := 0; i < b.N; i++ {
		summ, err := qagview.NewSummarizer(s.tp, L)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := summ.Summarize(qagview.Hybrid, qagview.Params{K: 20, L: L, D: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1UserStudy measures one full simulated-subject study pass
// for the varying-method group (Tables 1/2).
func BenchmarkTable1UserStudy(b *testing.B) {
	s := getState(b)
	space, err := lattice.NewSpace(s.mid.GroupBy, s.mid.Rows, s.mid.Vals)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := lattice.BuildIndex(space, 50)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := summarize.Hybrid(ix, summarize.Params{K: 10, L: 50, D: 1})
	if err != nil {
		b.Fatal(err)
	}
	rules := userstudy.FromSolution(ix, sol)
	labels := make([]bool, space.N())
	for i := range labels {
		labels[i] = i < 50
	}
	tuples := make([][]int32, space.N())
	for i := range tuples {
		tuples[i] = space.Tuples[i]
	}
	tree, err := dtree.TuneK(tuples, labels, space.Vals, 10, 7)
	if err != nil {
		b.Fatal(err)
	}
	dtRules := userstudy.FromDecisionTree(space, tree)
	cfg := userstudy.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := userstudy.Simulate(space, 50, rules, cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := userstudy.Simulate(space, 50, dtRules, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16Placement measures the optimal comparison-view placement
// (Hungarian matching) for consecutive k=20 solutions (Figures 16a/16b).
func BenchmarkFig16Placement(b *testing.B) {
	s := getState(b)
	oldSol, err := s.midSumm.Summarize(qagview.Hybrid, qagview.Params{K: 20, L: 30, D: 2})
	if err != nil {
		b.Fatal(err)
	}
	newSol, err := s.midSumm.Summarize(qagview.Hybrid, qagview.Params{K: 20, L: 40, D: 2})
	if err != nil {
		b.Fatal(err)
	}
	diff, err := s.midSumm.Compare(oldSol, newSol)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diff.OptimalOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA5Baselines measures the related-work baselines on the running
// example (Appendix A.5).
func BenchmarkA5Baselines(b *testing.B) {
	s := getState(b)
	space, err := lattice.NewSpace(s.adventure.GroupBy, s.adventure.Rows, s.adventure.Vals)
	if err != nil {
		b.Fatal(err)
	}
	L := 10
	if space.N() < L {
		L = space.N()
	}
	ix, err := lattice.BuildIndex(space, L)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("smart-drill-down", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.SmartDrillDown(ix, 4, baselines.ScopeTopL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diversified-topk-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.DiversifiedTopKExact(space, L, 4, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.DisC(space, L, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mmr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.MMR(space, L, 4, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func label(name string, v int) string {
	return name + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkVariantsAblation compares the Bottom-Up design choices the paper
// evaluates in Section 5.1: the standard solution-average criterion against
// the max-LCA-average criterion and the level-(D-1) start.
func BenchmarkVariantsAblation(b *testing.B) {
	s := getState(b)
	p := qagview.Params{K: 5, L: 40, D: 3}
	for _, algo := range []qagview.Algorithm{
		qagview.BottomUp, qagview.BottomUpMaxLCA, qagview.BottomUpLevelStart,
	} {
		algo := algo
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.midSumm.Summarize(algo, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineAggregate measures the SQL substrate: grouping 100k rating
// rows over the running example's four attributes.
func BenchmarkEngineAggregate(b *testing.B) {
	s := getState(b)
	sql, err := movielens.Query(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.env.ML.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendWAL measures the durable append path behind live-table
// writes when qagviewd runs with -wal: every record is CRC-framed, written,
// and fsynced before the caller's ack. The serial case pays a full fsync
// per record and is dominated by the device's flush latency; the parallel
// case exercises group commit — concurrent appends staged while a flush is
// in flight share the next write+fsync — so per-record cost drops with
// offered load. Replay is discarded (fresh dir per run).
func BenchmarkAppendWAL(b *testing.B) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	open := func(b *testing.B) *wal.Log {
		b.Helper()
		l, _, err := wal.Open(b.TempDir(), func(wal.Record) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		return l
	}
	b.Run("serial", func(b *testing.B) {
		l := open(b)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := l.Append(wal.Record{Op: 2, Table: "bench", Gen: uint64(i + 1), Data: payload}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group-commit-par8", func(b *testing.B) {
		l := open(b)
		var gen atomic.Uint64
		b.SetBytes(int64(len(payload)))
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := l.Append(wal.Record{Op: 2, Table: "bench", Gen: gen.Add(1), Data: payload}); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkTraceOverhead gates the tentpole's "near-zero cost when off"
// claim: the same MovieLens query (a) without any context, (b) with a
// context threaded but no trace attached — the exact path every request
// takes when tracing is disabled, where StartSpan must return without
// allocating — and (c) with a forced trace recording the full span tree.
// The benchcmp gate keeps off/untraced within noise of each other; traced
// shows what opting in costs.
func BenchmarkTraceOverhead(b *testing.B) {
	s := getState(b)
	sql, err := movielens.Query(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	tracer := obs.NewTracer(16, quiet)
	for _, v := range []struct {
		name string
		opts func() ([]qagview.QueryOption, *obs.Trace)
	}{
		{"off", func() ([]qagview.QueryOption, *obs.Trace) {
			return nil, nil
		}},
		{"ctx_untraced", func() ([]qagview.QueryOption, *obs.Trace) {
			return []qagview.QueryOption{qagview.ExecContext(context.Background())}, nil
		}},
		{"traced", func() ([]qagview.QueryOption, *obs.Trace) {
			ctx, tr := tracer.StartTrace(context.Background(), "bench.query", true)
			return []qagview.QueryOption{qagview.ExecContext(ctx)}, tr
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			opts, _ := v.opts()
			if _, err := s.env.ML.Query(sql, opts...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts, tr := v.opts()
				if _, err := s.env.ML.Query(sql, opts...); err != nil {
					b.Fatal(err)
				}
				tracer.Finish(tr)
			}
		})
	}
}
