# Core benchmarks tracked across PRs: the precompute grid (allocations per
# replay are the dense-engine target figure), the cluster-space build
# (packed/slice keys across worker counts), a live-table refresh, the
# per-replay sweep unit, the single-run algorithms, and the Delta-Judgment
# ablation; plus the query executor and join paths, which live in
# internal/engine next to the reference executor and forced-path switches
# they compare against.
BENCH_ROOT    := BenchmarkFig7PrecomputeKParallel|BenchmarkFig6VaryD|BenchmarkFig8Delta|BenchmarkBuildIndexMovieLens|BenchmarkLiveRefresh|BenchmarkAppendWAL|BenchmarkTraceOverhead
BENCH_ENGINE  := BenchmarkExecuteMovieLens|BenchmarkJoinMovieLens|BenchmarkJoinTriangle
BENCH_SUMMARIZE := BenchmarkSweeperRunD
BENCH_COUNT   ?= 1
BENCH_TIME    ?= 3x
BENCH_OUT     ?= bench.txt
BENCH_JSON    ?= BENCH_10.json
LOC_OUT       ?= loc.txt

.PHONY: build test race bench benchgate fuzz fmt vet lint qagcheck crash ci e2e serve loc

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

fmt:
	gofmt -l .

# lint builds the repo's own analyzer suite (docs/ANALYZERS.md) and runs it
# over every package via the go vet -vettool protocol. Violations of the
# determinism/COW/concurrency invariants fail the build; deliberate
# exceptions carry //qag:allow <analyzer> <reason>.
lint:
	go build -o bin/qagvet ./cmd/qagvet
	go vet -vettool=$(CURDIR)/bin/qagvet ./...

# qagcheck runs the test suite with the runtime assertion build tag: index
# coverage ordering, codec capacity, and solution antichain checks panic on
# violation instead of compiling to nothing.
qagcheck:
	go test -tags qagcheck ./...

# crash compiles the fault-injection hooks in (-tags qagfault,
# docs/FAULTS.md) and runs the crash harness under the race detector: a
# child qagviewd server is SIGKILLed at every registered WAL/snapshot crash
# point and recovery must preserve every acknowledged write, plus sticky
# fsync-failure and torn-write tests.
crash:
	go test -race -tags qagfault ./internal/wal/... ./internal/server/... ./internal/faultinject/...

# bench runs the tracked benchmarks with allocation reporting and writes the
# result to $(BENCH_OUT), the artifact CI uploads as the perf baseline, plus
# a machine-readable $(BENCH_JSON) (benchmark name -> ns/op, B/op, allocs/op,
# and under "loc" the per-package line counts of `make loc`) so the perf and
# size trajectory can be diffed across PRs without text parsing.
bench:
	go test -run '^$$' -bench '$(BENCH_ROOT)' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) . | tee $(BENCH_OUT)
	go test -run '^$$' -bench '$(BENCH_ENGINE)' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) ./internal/engine/ | tee -a $(BENCH_OUT)
	go test -run '^$$' -bench '$(BENCH_SUMMARIZE)' -benchmem -benchtime 50x -count $(BENCH_COUNT) ./internal/summarize/ | tee -a $(BENCH_OUT)
	$(MAKE) -s --no-print-directory loc > $(LOC_OUT)
	go run ./cmd/benchjson -loc $(LOC_OUT) < $(BENCH_OUT) > $(BENCH_JSON)

# benchgate re-measures and fails on a >30% regression against the
# committed baseline (the CI bench job's gate). Refresh the baseline from a
# trusted run: make bench && cp $(BENCH_JSON) bench_baseline.json
benchgate: bench
	go run ./cmd/benchcmp -baseline bench_baseline.json -candidate $(BENCH_JSON) -threshold 0.30

# fuzz gives the SQL front end a short adversarial workout: the parser
# fuzzer, then the differential executor fuzzer (reference vs vectorized at
# par 1/8 x packed/string keys x hash/generic join paths); then the two
# decoders behind the data directory: store snapshots and WAL segments.
fuzz:
	go test -run '^$$' -fuzz FuzzParse -fuzztime 30s ./internal/engine/
	go test -run '^$$' -fuzz FuzzExec -fuzztime 30s ./internal/engine/
	go test -run '^$$' -fuzz FuzzDecodeStore -fuzztime 30s ./internal/precompute/
	go test -run '^$$' -fuzz FuzzWALSegment -fuzztime 30s ./internal/wal/

# loc prints production and test Go line counts per package directory
# (testdata and the separate qagbench module excluded), then the totals.
loc:
	@find . -name '*.go' -not -path './qagbench/*' -not -path '*/testdata/*' -not -path './.bench_build/*' | \
	awk '{ d = $$0; sub(/\/[^\/]*$$/, "", d); kind = ($$0 ~ /_test\.go$$/) ? "test" : "prod"; \
	while ((getline line < $$0) > 0) { n[d, kind]++; tot[kind]++ } close($$0); dirs[d] = 1 } \
	END { printf "%-40s %8s %8s\n", "package", "prod", "test"; \
	for (d in dirs) printf "%-40s %8d %8d\n", d, n[d, "prod"], n[d, "test"] | "sort"; close("sort"); \
	printf "%-40s %8d %8d\n", "total", tot["prod"], tot["test"] }'

# e2e builds qagviewd and drives its session/solution/diff endpoints.
e2e:
	./scripts/e2e_smoke.sh

# serve runs the exploration server on :8080 with the MovieLens sample.
serve:
	go run ./cmd/qagviewd -addr :8080 -sample movielens

ci: vet lint build test race crash
