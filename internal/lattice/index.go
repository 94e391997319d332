package lattice

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"qagview/internal/obs"
	"qagview/internal/pattern"
)

// Cluster is a pattern together with the answer tuples it covers and their
// value sum. Clusters are owned by an Index, stored densely in Index.Clusters,
// and identified by their position there.
type Cluster struct {
	// ID is the cluster's position in Index.Clusters.
	ID int32
	// Cov lists covered tuple indices into Space.Tuples, ascending. It is a
	// view into the index's shared coverage arena: clusters do not own their
	// coverage storage individually.
	Cov []int32
	// Pat is the cluster pattern.
	Pat pattern.Pattern
	// Sum is the total value of covered tuples.
	Sum float64
}

// Size returns |cov(C)|.
func (c *Cluster) Size() int { return len(c.Cov) }

// Avg returns the average value of the covered tuples (Section 4.1).
func (c *Cluster) Avg() float64 {
	if len(c.Cov) == 0 {
		return 0
	}
	return c.Sum / float64(len(c.Cov))
}

// Index is the materialized cluster space for one (S, L) pair: every pattern
// that generalizes at least one top-L tuple, mapped to the tuples it covers.
// All clusters any feasible solution can use come from this set, because a
// useful cluster must cover a top-L tuple or improve the average, and the
// paper's algorithms (like its prototype) draw candidates from exactly this
// generated space.
//
// The cluster space is stored columnar: cluster records live in one dense
// slice (no per-cluster heap objects), and all coverage lists share one
// []int32 arena, with each Cluster.Cov a subslice of it. When the
// per-attribute bit widths fit (see pattern.NewCodec), every cluster pattern
// is additionally packed into a uint64 key: the by-pattern map is keyed on
// integers instead of byte strings, and Distance/Covers/LCA between clusters
// run word-parallel on the packed keys. Everything is immutable after
// BuildIndex, so an Index may be shared freely across goroutines.
type Index struct {
	// Space is the underlying answer space.
	Space *Space
	// L is the coverage parameter the index was built for.
	L int
	// Clusters lists all generated clusters densely; Clusters[i].ID == i.
	// Pointers into this slice stay valid for the index's lifetime.
	Clusters []Cluster

	// covArena backs every Cluster.Cov, laid out cluster by cluster.
	covArena []int32

	// codec packs patterns into uint64 keys; nil when the summed widths
	// exceed 64 bits (or slice keys were forced), in which case byKey is the
	// string-keyed fallback.
	codec    *pattern.Codec
	packed   []uint64 // per-cluster packed key, aligned with Clusters
	byPacked *packedMap
	byKey    map[string]int32

	singleton []int32 // rank -> cluster id of the concrete pattern, for ranks < L
	allStar   int32
}

// BuildStats reports the work done while building an index, for the
// Figure 8a ablation and the initialization-time and build-throughput
// experiments (figscale).
type BuildStats struct {
	// Generated is the number of distinct clusters generated in phase 1.
	Generated int
	// MappingOps counts tuple→cluster probe operations performed in phase 2;
	// it is N·2^m on the optimized path and |C|·N on the naive path,
	// independent of the worker count.
	MappingOps int
	// PackedKeys reports whether the build ran on the packed uint64 fast
	// path; false means the per-attribute widths exceeded 64 bits (or
	// WithSliceKeys forced the fallback) and patterns were keyed as byte
	// strings.
	PackedKeys bool
	// Workers is the number of goroutines the phase-2 coverage mapping
	// fanned out over (always 1 on the naive path).
	Workers int
	// GenerateMs is the wall-clock time of phase 1, the sequential cluster
	// generation from the top-L tuples.
	GenerateMs float64
	// MapMs is the wall-clock time of phase 2, the tuple→cluster coverage
	// probing (the parallelized part).
	MapMs float64
	// AssembleMs is the wall-clock time of the deterministic counting-sort
	// assembly: computing per-shard arena offsets, scattering hits, and
	// slicing per-cluster coverage with its value sums.
	AssembleMs float64
}

// buildConfig collects BuildIndex options.
type buildConfig struct {
	parallelism int
	sliceKeys   bool
}

func defaultBuildConfig() buildConfig {
	return buildConfig{parallelism: runtime.GOMAXPROCS(0)}
}

// BuildOption customizes BuildIndex.
type BuildOption func(*buildConfig)

// BuildParallelism sets the number of worker goroutines the phase-2 coverage
// mapping fans out over. The default is GOMAXPROCS; n <= 1 forces the
// sequential path. The built index is bit-identical at any setting: shards
// are assembled in tuple order by a counting sort, so cluster ids, coverage
// lists, and value sums do not depend on the worker count.
func BuildParallelism(n int) BuildOption {
	return func(c *buildConfig) { c.parallelism = n }
}

// WithSliceKeys forces the string-keyed slice-pattern representation even
// when the packed widths would fit, for ablation experiments and the
// packed-vs-slice equivalence tests. Output is identical either way.
func WithSliceKeys() BuildOption {
	return func(c *buildConfig) { c.sliceKeys = true }
}

// BuildIndex builds the cluster space for the top-L tuples of s using the
// optimized strategy of Section 6.3: clusters are generated only from top-L
// tuples (so every cluster covers at least one top-L tuple), and the
// cluster→tuple mapping is computed by probing each tuple's generalizations
// against the generated set, instead of scanning all tuples per cluster.
func BuildIndex(s *Space, L int, opts ...BuildOption) (*Index, error) {
	ix, _, err := buildIndex(context.Background(), s, L, true, opts)
	return ix, err
}

// BuildIndexNaive builds the same index without the mapping optimization:
// after cluster generation, each cluster scans every tuple for coverage.
// It exists to reproduce the Figure 8a ablation; results are identical to
// BuildIndex.
func BuildIndexNaive(s *Space, L int, opts ...BuildOption) (*Index, error) {
	ix, _, err := buildIndex(context.Background(), s, L, false, opts)
	return ix, err
}

// BuildIndexStats is BuildIndex (or, with optimized false, BuildIndexNaive)
// under a caller context, returning work counters. Traced contexts (see
// internal/obs) record the build as a lattice.build span; the context
// carries observability only — a build is not cancellable midway.
func BuildIndexStats(ctx context.Context, s *Space, L int, optimized bool, opts ...BuildOption) (*Index, BuildStats, error) {
	return buildIndex(ctx, s, L, optimized, opts)
}

// covHit is one (cluster, tuple) coverage pair recorded during the optimized
// tuple-major mapping pass, before the counting sort into the arena.
type covHit struct {
	cluster int32
	tuple   int32
}

// patArenaChunk is how many cluster patterns share one backing allocation
// during phase 1.
const patArenaChunk = 1024

// mapShard is one worker's slice of the phase-2 coverage mapping: a
// contiguous tuple range with its private hit buffer and per-cluster counts
// (the counts array doubles as the shard's arena write cursor during
// assembly).
type mapShard struct {
	lo, hi int
	hits   []covHit
	counts []int32
	ops    int
}

// generate runs phase 1 for (s, L): every cluster pattern generalizing a
// top-L tuple, with ids assigned in first-seen enumeration order
// (rank-major, subset-mask-minor — the order both key representations
// share, see pattern.Codec.Ancestors), plus the key tables and the
// singleton/all-star ids. Coverage is left empty for the phase-2 mapping.
func generate(s *Space, L int, sliceKeys bool) *Index {
	ix := &Index{
		Space:     s,
		L:         L,
		singleton: make([]int32, L),
		allStar:   -1,
	}
	if !sliceKeys {
		cards := make([]int, s.M())
		for j := range cards {
			cards[j] = s.Dicts[j].Len()
		}
		// ok = false leaves codec nil: the widths do not fit one word and the
		// build stays on the slice representation.
		ix.codec, _ = pattern.NewCodec(cards)
	}
	if ix.codec != nil {
		// Cluster count is unknown until the dedup runs; the hint trades one
		// possible regrow against over-allocation on star-sparse spaces. The
		// cap keeps wide schemas (the worst case L*2^m is astronomical at
		// m = MaxAttrs) from reserving memory the dedup will never fill —
		// the map and slices regrow fine past it.
		hint := L * (1 << s.M()) / 4
		if hint > 1<<20 {
			hint = 1 << 20
		}
		ix.byPacked = newPackedMap(hint)
		ix.Clusters = make([]Cluster, 0, hint)
		ix.packed = make([]uint64, 0, hint)
		// Cluster patterns are carved out of chunked []int32 arenas: one
		// allocation per patArenaChunk patterns instead of one each, which
		// cuts both allocation count and GC scan work for large spaces.
		m := s.M()
		var patArena []int32
		keys := make([]uint64, 0, 1<<m)
		for rank := 0; rank < L; rank++ {
			base := ix.codec.Pack(s.Tuples[rank])
			keys = ix.codec.AppendAncestors(base, keys[:0])
			for _, key := range keys {
				id := int32(len(ix.Clusters))
				if _, inserted := ix.byPacked.getOrPut(key, id); !inserted {
					continue
				}
				if len(patArena) < m {
					patArena = make([]int32, patArenaChunk*m)
				}
				pat := pattern.Pattern(patArena[:m:m])
				patArena = patArena[m:]
				ix.codec.Unpack(key, pat)
				ix.Clusters = append(ix.Clusters, Cluster{ID: id, Pat: pat})
				ix.packed = append(ix.packed, key)
			}
			// The concrete pattern of each top tuple comes first in its own
			// enumeration, so it is always generated by now.
			ix.singleton[rank], _ = ix.byPacked.get(base)
		}
		ix.allStar, _ = ix.byPacked.get(ix.codec.AllStar())
	} else {
		ix.byKey = make(map[string]int32)
		scratch := make([]byte, 0, 4*s.M())
		for rank := 0; rank < L; rank++ {
			t := s.Tuples[rank]
			pattern.Ancestors(t, func(p pattern.Pattern) {
				scratch = p.AppendKey(scratch[:0])
				if _, ok := ix.byKey[string(scratch)]; ok {
					return
				}
				id := int32(len(ix.Clusters))
				ix.byKey[string(scratch)] = id
				ix.Clusters = append(ix.Clusters, Cluster{ID: id, Pat: p.Clone()})
			})
			ix.singleton[rank] = ix.byKey[t.Key()]
		}
		allStar := make(pattern.Pattern, s.M())
		for i := range allStar {
			allStar[i] = pattern.Star
		}
		ix.allStar = ix.byKey[allStar.Key()]
	}
	return ix
}

func buildIndex(ctx context.Context, s *Space, L int, optimized bool, opts []BuildOption) (*Index, BuildStats, error) {
	_, sp := obs.StartSpan(ctx, "lattice.build")
	defer sp.End()
	cfg := defaultBuildConfig()
	for _, o := range opts {
		o(&cfg)
	}
	var stats BuildStats
	if L < 1 || L > s.N() {
		return nil, stats, fmt.Errorf("lattice: L = %d out of range [1, %d]", L, s.N())
	}
	if s.M() > pattern.MaxAttrs {
		return nil, stats, fmt.Errorf("lattice: %d grouping attributes exceed the supported maximum of %d (pattern.MaxAttrs)", s.M(), pattern.MaxAttrs)
	}
	t0 := time.Now()
	ix := generate(s, L, cfg.sliceKeys)
	stats.PackedKeys = ix.codec != nil
	stats.Generated = len(ix.Clusters)
	stats.GenerateMs = msSince(t0)

	// Phase 2: map tuples to clusters, writing all coverage lists into one
	// shared arena. The optimized path probes tuple-major (each tuple's
	// generalizations against the generated set) over contiguous tuple
	// shards in parallel, then counting-sorts the hits into the arena; the
	// naive path scans cluster-major and appends in place.
	nc := len(ix.Clusters)
	if optimized {
		workers := cfg.parallelism
		if workers < 1 {
			workers = 1
		}
		if workers > s.N() {
			workers = s.N()
		}
		stats.Workers = workers
		t1 := time.Now()
		shards := make([]mapShard, workers)
		var wg sync.WaitGroup
		for w := range shards {
			shards[w].lo = s.N() * w / workers
			shards[w].hi = s.N() * (w + 1) / workers
			shards[w].counts = make([]int32, nc)
			wg.Add(1)
			go func(sh *mapShard) {
				defer wg.Done()
				ix.probeShard(sh)
			}(&shards[w])
		}
		wg.Wait()
		stats.MapMs = msSince(t1)

		// Deterministic assembly: lay the arena out cluster-major, and within
		// each cluster shard-major (= ascending tuple order, since shards are
		// contiguous tuple ranges and each shard emits hits tuple-major).
		// This reproduces the sequential tuple-major scan bit for bit at any
		// worker count; per-cluster value sums are then accumulated in arena
		// order, the same addition order a sequential build performs.
		t2 := time.Now()
		total := 0
		for w := range shards {
			stats.MappingOps += shards[w].ops
			total += len(shards[w].hits)
		}
		starts := make([]int32, nc+1)
		off := int32(0)
		for id := 0; id < nc; id++ {
			starts[id] = off
			for w := range shards {
				c := shards[w].counts[id]
				shards[w].counts[id] = off // becomes the shard's write cursor
				off += c
			}
		}
		starts[nc] = off
		arena := make([]int32, total)
		for w := range shards {
			wg.Add(1)
			go func(sh *mapShard) {
				defer wg.Done()
				for _, h := range sh.hits {
					arena[sh.counts[h.cluster]] = h.tuple
					sh.counts[h.cluster]++
				}
			}(&shards[w])
		}
		wg.Wait()
		ix.covArena = arena
		for id := 0; id < nc; id++ {
			cov := arena[starts[id]:starts[id+1]:starts[id+1]]
			sum := 0.0
			for _, t := range cov {
				sum += s.Vals[t]
			}
			ix.Clusters[id].Cov = cov
			ix.Clusters[id].Sum = sum
		}
		stats.AssembleMs = msSince(t2)
	} else {
		stats.Workers = 1
		t1 := time.Now()
		var arena []int32
		starts := make([]int32, nc)
		counts := make([]int32, nc)
		for ci := range ix.Clusters {
			c := &ix.Clusters[ci]
			starts[ci] = int32(len(arena))
			for ti, t := range s.Tuples {
				stats.MappingOps++
				if c.Pat.CoversTuple(t) {
					arena = append(arena, int32(ti))
					c.Sum += s.Vals[ti]
				}
			}
			counts[ci] = int32(len(arena)) - starts[ci]
		}
		// Slice only after the arena stops growing: append may reallocate.
		ix.covArena = arena
		for ci := range ix.Clusters {
			start, end := starts[ci], starts[ci]+counts[ci]
			ix.Clusters[ci].Cov = arena[start:end:end]
		}
		stats.MapMs = msSince(t1)
	}
	assertIndexInvariants(ix, "build")
	sp.SetInt("clusters", int64(nc))
	sp.SetInt("workers", int64(stats.Workers))
	return ix, stats, nil
}

// probeShard runs the phase-2 probe for one tuple shard: every tuple's 2^m
// generalizations against the generated cluster set. The generated maps are
// immutable by now, so shards only share read-only state.
func (ix *Index) probeShard(sh *mapShard) {
	s := ix.Space
	// Hit volume scales with total coverage (every tuple hits at least the
	// all-star cluster, top-L tuples hit all 2^m ancestors), so seed the
	// buffer at coverage scale, not cluster-count scale.
	sh.hits = make([]covHit, 0, 8*(sh.hi-sh.lo))
	if ix.codec != nil {
		keys := make([]uint64, 0, 1<<s.M())
		for ti := sh.lo; ti < sh.hi; ti++ {
			ti32 := int32(ti)
			base := ix.codec.Pack(s.Tuples[ti])
			keys = ix.codec.AppendAncestors(base, keys[:0])
			sh.ops += len(keys)
			for _, key := range keys {
				if id, ok := ix.byPacked.get(key); ok {
					sh.hits = append(sh.hits, covHit{cluster: id, tuple: ti32})
					sh.counts[id]++
				}
			}
		}
		return
	}
	scratch := make([]byte, 0, 4*s.M())
	for ti := sh.lo; ti < sh.hi; ti++ {
		ti32 := int32(ti)
		pattern.Ancestors(s.Tuples[ti], func(p pattern.Pattern) {
			sh.ops++
			scratch = p.AppendKey(scratch[:0])
			if id, ok := ix.byKey[string(scratch)]; ok {
				sh.hits = append(sh.hits, covHit{cluster: id, tuple: ti32})
				sh.counts[id]++
			}
		})
	}
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}

// NumClusters returns the size of the generated cluster space.
func (ix *Index) NumClusters() int { return len(ix.Clusters) }

// Cluster returns the cluster with the given id.
func (ix *Index) Cluster(id int32) *Cluster { return &ix.Clusters[id] }

// PackedKeys reports whether the index runs on the packed uint64 fast path.
func (ix *Index) PackedKeys() bool { return ix.codec != nil }

// Distance returns the cluster distance (Definition 3.1) between the
// clusters with ids a and b, word-parallel on the packed keys when available.
func (ix *Index) Distance(a, b int32) int {
	if ix.codec != nil {
		return ix.codec.Distance(ix.packed[a], ix.packed[b])
	}
	return pattern.Distance(ix.Clusters[a].Pat, ix.Clusters[b].Pat)
}

// Covers reports whether the pattern of cluster a covers the pattern of
// cluster b, word-parallel on the packed keys when available.
func (ix *Index) Covers(a, b int32) bool {
	if ix.codec != nil {
		return ix.codec.Covers(ix.packed[a], ix.packed[b])
	}
	return ix.Clusters[a].Pat.Covers(ix.Clusters[b].Pat)
}

// Lookup finds the cluster for a pattern, if it was generated. Patterns that
// cannot be encoded at all (wrong arity, values outside every active domain)
// are simply not found.
func (ix *Index) Lookup(p pattern.Pattern) (*Cluster, bool) {
	var id int32
	var ok bool
	if ix.codec != nil {
		var key uint64
		if key, ok = ix.codec.PackChecked(p); ok {
			id, ok = ix.byPacked.get(key)
		}
	} else {
		var buf [4 * pattern.MaxAttrs]byte
		id, ok = ix.byKey[string(p.AppendKey(buf[:0]))]
	}
	if !ok {
		return nil, false
	}
	return &ix.Clusters[id], true
}

// Singleton returns the singleton cluster of the rank-th top tuple
// (0-based). It panics if rank >= L.
func (ix *Index) Singleton(rank int) *Cluster {
	return &ix.Clusters[ix.singleton[rank]]
}

// AllStar returns the trivial cluster (*, ..., *) covering every tuple; it is
// the paper's Lower Bound baseline solution.
func (ix *Index) AllStar() *Cluster { return &ix.Clusters[ix.allStar] }

// CoverageArenaLen returns the total number of coverage entries stored across
// all clusters (the shared arena's length), an initialization-space figure.
func (ix *Index) CoverageArenaLen() int { return len(ix.covArena) }

// LCACluster returns the cluster for LCA(a.Pat, b.Pat). The generated space
// is closed under LCA (the LCA of two ancestors of top-L tuples is itself an
// ancestor of a top-L tuple), so the lookup always succeeds for clusters
// from this index; an error indicates a cluster from a different index.
func (ix *Index) LCACluster(a, b *Cluster) (*Cluster, error) {
	l := pattern.LCA(a.Pat, b.Pat)
	c, ok := ix.Lookup(l)
	if !ok {
		return nil, fmt.Errorf("lattice: LCA %v of clusters %d and %d not in index (foreign cluster?)", l, a.ID, b.ID)
	}
	return c, nil
}

// LCAMemo caches LCA cluster ids for pairs of cluster ids from one Index.
// The greedy merge loops probe the same pairs repeatedly (a surviving pair is
// re-evaluated every round until it merges or dies), so memoizing by id pair
// removes the repeated LCA computations and map lookups of LCACluster. A memo
// is index-level state — entries never go stale because the cluster space is
// immutable — but it is NOT safe for concurrent use; give each worker or
// replay state its own memo.
type LCAMemo struct {
	ix      *Index
	memo    *packedMap // (a, b) id pair -> LCA cluster id
	scratch pattern.Pattern
	key     []byte
	hits    int
	misses  int
}

// NewLCAMemo returns an empty memo bound to the index.
func (ix *Index) NewLCAMemo() *LCAMemo {
	return &LCAMemo{
		ix:      ix,
		memo:    newPackedMap(256),
		scratch: make(pattern.Pattern, ix.Space.M()),
		key:     make([]byte, 0, 4*ix.Space.M()),
	}
}

// LCAID returns the id of the LCA cluster of the clusters with ids a and b,
// which must be valid ids of this index (out-of-range ids panic, like any
// Index.Cluster access). Like LCACluster, the returned error signals a
// closure violation — the LCA pattern was never generated — which cannot
// happen for clusters of one index.
func (m *LCAMemo) LCAID(a, b int32) (int32, error) {
	if a > b {
		a, b = b, a
	}
	pairKey := uint64(uint32(a))<<32 | uint64(uint32(b))
	if id, ok := m.memo.get(pairKey); ok {
		m.hits++
		return id, nil
	}
	m.misses++
	var id int32
	var ok bool
	if m.ix.codec != nil {
		lcaKey := m.ix.codec.LCA(m.ix.packed[a], m.ix.packed[b])
		if id, ok = m.ix.byPacked.get(lcaKey); !ok {
			m.ix.codec.Unpack(lcaKey, m.scratch)
		}
	} else {
		pattern.LCAInto(m.scratch, m.ix.Clusters[a].Pat, m.ix.Clusters[b].Pat)
		m.key = m.scratch.AppendKey(m.key[:0])
		id, ok = m.ix.byKey[string(m.key)]
	}
	if !ok {
		return 0, fmt.Errorf("lattice: LCA %v of clusters %d and %d not in index", m.scratch, a, b)
	}
	m.memo.putNew(pairKey, id)
	return id, nil
}

// Rebind attaches the memo to a successor index and flushes it: entries are
// id-pair → id facts about one index's cluster ids, which a rebuilt index
// does not preserve. The table is re-allocated at its hint size; the scratch
// buffers are kept.
func (m *LCAMemo) Rebind(ix *Index) {
	m.ix = ix
	m.memo = newPackedMap(256)
	m.hits, m.misses = 0, 0
	if len(m.scratch) != ix.Space.M() {
		m.scratch = make(pattern.Pattern, ix.Space.M())
	}
}

// Hits returns the number of memo lookups answered from the cache.
func (m *LCAMemo) Hits() int { return m.hits }

// Misses returns the number of memo lookups that computed a fresh LCA.
func (m *LCAMemo) Misses() int { return m.misses }
