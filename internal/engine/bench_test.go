package engine

import (
	"math/rand"
	"sync"
	"testing"

	"qagview/internal/movielens"
	"qagview/internal/relation"
)

var (
	mlOnce sync.Once
	mlCat  catalog
	mlErr  error
)

// movieLensCatalog generates the paper-scale MovieLens RatingTable once per
// test binary.
func movieLensCatalog(b *testing.B) catalog {
	b.Helper()
	mlOnce.Do(func() {
		var rel *relation.Relation
		if rel, mlErr = movielens.Generate(movielens.DefaultConfig()); mlErr == nil {
			mlCat = catalog{rel.Name(): rel}
		}
	})
	if mlErr != nil {
		b.Fatal(mlErr)
	}
	return mlCat
}

// benchVariant is one way of running a query in a benchmark.
type benchVariant struct {
	name string
	run  func(cat Catalog, sql string) (*Result, error)
}

// withOpts runs the production executor under opts.
func withOpts(opts ...ExecOption) func(Catalog, string) (*Result, error) {
	return func(cat Catalog, sql string) (*Result, error) { return ExecuteSQL(cat, sql, opts...) }
}

// benchVariants times each variant on sql after one warm-up run, so the
// loop measures steady-state (refresh-path) execution with the dictionary
// and column-group caches and executor pools warm.
func benchVariants(b *testing.B, cat Catalog, prefix, sql string, variants []benchVariant) {
	for _, v := range variants {
		b.Run(prefix+v.name, func(b *testing.B) {
			if _, err := v.run(cat, sql); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.run(cat, sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteMovieLens compares the row-at-a-time reference executor
// with the vectorized, morsel-parallel pipeline on the MovieLens workload:
// the running example's selective query (WHERE + HAVING) and a full-scan
// grouping, sequential and parallel. The executors are proven bit-identical,
// so this measures pure execution cost.
func BenchmarkExecuteMovieLens(b *testing.B) {
	cat := movieLensCatalog(b)
	selective, err := movielens.Query(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	fullscan, err := movielens.Query(4, 0, "")
	if err != nil {
		b.Fatal(err)
	}
	variants := []benchVariant{
		{"reference", referenceSQL},
		{"vec_par1", withOpts(ExecParallelism(1))},
		{"vec_par8", withOpts(ExecParallelism(8))},
	}
	benchVariants(b, cat, "selective/", selective, variants)
	benchVariants(b, cat, "fullscan/", fullscan, variants)
}

// BenchmarkJoinMovieLens measures the multi-table path on the MovieLens star
// schema: the running example's aggregate over ratings JOIN users JOIN
// movies (acyclic, so the engine picks left-deep hash joins), on packed and
// string build keys and across worker counts, plus the forced
// worst-case-optimal plan for comparison. All variants are bit-identical to
// the nested-loop reference; this measures pure join + aggregation cost.
func BenchmarkJoinMovieLens(b *testing.B) {
	star, err := movielens.GenerateStar(movielens.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cat := catalog{}
	for _, r := range star.Tables() {
		cat[r.Name()] = r
	}
	sql, err := movielens.JoinQuery(4, 50, "genre_adventure = 1")
	if err != nil {
		b.Fatal(err)
	}
	benchVariants(b, cat, "", sql, []benchVariant{
		{"hash_par1", withOpts(ExecParallelism(1))},
		{"hash_par8", withOpts(ExecParallelism(8))},
		{"hash_par8_strkeys", withOpts(ExecParallelism(8), execStringKeys())},
		{"wcoj_par8", withOpts(ExecParallelism(8), execGenericJoin())},
	})

	// The cold benchmark workload's star joins: 200k ratings, all nine
	// grouping attributes, no HAVING, unfiltered and with a WHERE on the
	// movies dimension.
	cfg := movielens.DefaultConfig()
	cfg.Ratings = 200_000
	star, err = movielens.GenerateStar(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cat = catalog{}
	for _, r := range star.Tables() {
		cat[r.Name()] = r
	}
	for _, w := range []struct{ name, where string }{{"all", ""}, {"drama", "genre_drama = 1"}} {
		sql, err := movielens.JoinQuery(9, 0, w.where)
		if err != nil {
			b.Fatal(err)
		}
		benchVariants(b, cat, "m9_200k/"+w.name+"/", sql, []benchVariant{
			{"hash_par1", withOpts(ExecParallelism(1))},
			{"hash_par2", withOpts(ExecParallelism(2))},
		})
	}
}

// BenchmarkJoinTriangle measures the worst-case-optimal path where it earns
// its name: counting triangles in a random directed graph. The join graph is
// cyclic, so the engine runs leapfrog (output-optimal); the forced binary
// hash-join plan materializes the quadratic open-wedge intermediate first —
// the asymptotic blowup the WCOJ path exists to avoid.
func BenchmarkJoinTriangle(b *testing.B) {
	// Hub-skewed graph: half the edges touch one of a few hub nodes, so the
	// open-wedge intermediate (hub degree squared) dwarfs the triangle count
	// — the regime the worst-case-optimal path is built for.
	const nodes, edges, hubs = 4000, 20000, 6
	rng := rand.New(rand.NewSource(11))
	src := make([]int64, edges)
	dst := make([]int64, edges)
	for i := range src {
		src[i] = int64(rng.Intn(nodes))
		dst[i] = int64(rng.Intn(nodes))
		if i%2 == 0 {
			if i%4 == 0 {
				src[i] = int64(rng.Intn(hubs))
			} else {
				dst[i] = int64(rng.Intn(hubs))
			}
		}
	}
	rel, err := relation.FromColumns("edges", relation.IntCol("src", src), relation.IntCol("dst", dst))
	if err != nil {
		b.Fatal(err)
	}
	const sql = `SELECT e1.src, count(*) AS c FROM edges e1
		JOIN edges e2 ON e1.dst = e2.src
		JOIN edges e3 ON e2.dst = e3.src AND e3.dst = e1.src
		GROUP BY e1.src ORDER BY c DESC LIMIT 20`
	benchVariants(b, catalog{"edges": rel}, "", sql, []benchVariant{
		{"wcoj_par1", withOpts(ExecParallelism(1))},
		{"wcoj_par8", withOpts(ExecParallelism(8))},
		{"hash_par8", withOpts(ExecParallelism(8), execHashJoin())},
	})
}
