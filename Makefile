GO ?= go

.PHONY: check build vet test race racebatch raceservice bench benchkernel benchsmoke benchbatch benchpresolve benchincr benchservice benchopt benchportfolio incrsmoke optsmoke portfoliosmoke tiersmoke perfbench fuzz

## check: the CI gate — build, vet (the whole module, including the new
## portfolio scheduler), race-checked tests, a 1-iteration benchmark
## smoke pass, the presolve ablation numbers, the incremental push/pop
## smoke suite, the optimize-mode smoke suite, the portfolio race gate,
## the service-layer race gate + load benchmark, and a short fuzz smoke
## of the SMT-LIB front end (includes the remote fault-injection suite
## in internal/remote, the root-package context/failover acceptance
## tests, and — under -race — the batch/shard/cache concurrency suite),
## plus the shard-tier-plan gate of the default Solve.
check: build vet race benchsmoke benchpresolve incrsmoke optsmoke portfoliosmoke tiersmoke raceservice benchservice fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## racebatch: the focused race gate for the concurrent batch layer —
## SolveBatch/EnumerateBatch fan-out, shard sampling, and the shared
## compile cache. Subset of `race`, for quick iteration on batch code.
racebatch:
	$(GO) test -race -run 'Batch|Shard|Cache' . ./internal/qubo ./internal/smtlib

## raceservice: the focused race gate for the annealer service layer —
## the half-open circuit breaker and probe/job failure split in the
## Pool, the bounded fair job queue, the async job API (shedding,
## long-poll, SSE streaming, cancel), the content-addressed model
## cache, and the Flusher-forwarding metrics wrapper.
raceservice:
	$(GO) test -race -run 'HalfOpen|Probe|Launder|Queue|Job|Cache|Flusher|Stream' ./internal/remote ./internal/qubo ./cmd/annealerd

## bench: run the Table 1 and substrate benchmarks and record them as
## BENCH_kernel.json (benchmark name -> ns/op, allocs/op, custom
## metrics) via cmd/benchjson, so before/after numbers are diffable.
## Table 1 rows are whole solves (tens of ms each) where -benchtime=1x
## is fine; the substrate sweep rows are microsecond-scale and a single
## iteration is timer noise, so they run at a real time budget and are
## merged into the same artifact (satellite: the old 1x substrate
## numbers varied ~2x run-to-run).
bench:
	$(GO) test -run '^$$' -bench 'Table1' -benchtime=1x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_kernel.json
	$(GO) test -run '^$$' -bench 'Substrate' -benchtime=200ms -count=3 -benchmem . \
		| $(GO) run ./cmd/benchjson -merge -o BENCH_kernel.json
	@cat BENCH_kernel.json

## benchkernel: regenerate only the substrate kernel rows of
## BENCH_kernel.json — the scalar KernelSweep baseline and the packed
## 64-replica PackedSweep rows (proposals/s is the figure of merit;
## acceptance is PackedSweep >= 10x KernelSweep on dense_n256 and
## sparse_n2048). Table 1 rows already in the file are preserved.
benchkernel:
	$(GO) test -run '^$$' -bench 'Substrate' -benchtime=200ms -count=3 -benchmem . \
		| $(GO) run ./cmd/benchjson -merge -o BENCH_kernel.json
	@cat BENCH_kernel.json

## benchsmoke: one iteration of every benchmark — catches bit-rotted
## benchmark code without paying for stable timings. `-bench .` includes
## BenchmarkSubstrate_PackedSweep, so `make check` exercises the packed
## 64-replica kernel (and its AVX2 mask path where available) on every
## CI run.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./... > /dev/null

## benchbatch: the batch-layer acceptance numbers — 32 mixed constraints
## solved sequentially vs as one SolveBatch (shard decomposition +
## compile cache + bounded concurrency), recorded as BENCH_batch.json.
benchbatch:
	$(GO) test -run '^$$' -bench 'SequentialSolve32|SolveBatch32' -benchtime=3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_batch.json
	@cat BENCH_batch.json

## benchpresolve: the presolve acceptance numbers — every Table 1 row
## solved with the presolve + warm-start stages on vs off, plus the
## per-row reduction ratios, recorded as BENCH_presolve.json.
benchpresolve:
	$(GO) test -run '^$$' -bench 'BenchmarkPresolve' -benchtime=3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_presolve.json
	@cat BENCH_presolve.json

## benchincr: the incremental-solving acceptance numbers — a DFS over a
## branching path condition driven cold (full re-solve per check-sat)
## vs through the incremental session (component memo + parent-witness
## warm starts), recorded as BENCH_incremental.json. The speedup
## benchmark asserts verdict-sequence equality and reports the
## cold/incremental ratio as x_speedup; acceptance is x_speedup >= 5.
benchincr:
	$(GO) test -run '^$$' -bench 'BenchmarkDFS' -benchtime=3x -benchmem ./internal/harness \
		| $(GO) run ./cmd/benchjson -o BENCH_incremental.json
	@cat BENCH_incremental.json

## benchservice: the service-layer load benchmark — cmd/loadgen boots a
## self-hosted 3-backend annealer pool behind a job-API front (bounded
## fair queue + content-addressed model cache) and drives concurrent
## clients through it, recording sustained job throughput, p50/p99 job
## latency and the admission-control shed rate as BENCH_service.json.
benchservice:
	$(GO) run ./cmd/loadgen -duration 5s -out BENCH_service.json

## benchopt: the optimize-mode acceptance numbers — representative
## MaxSAT/OMT instances (shortest string, fewest edits, weighted soft
## mix) solved cold (presolve + warm starts off) vs warm (the
## defaults), recorded as BENCH_opt.json. Each row also reports the
## achieved theory objective so a landscape regression (optimal drifting
## upward) shows up in the artifact, not just the timings.
benchopt:
	$(GO) test -run '^$$' -bench 'BenchmarkOptimize' -benchtime=3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_opt.json
	@cat BENCH_opt.json

## benchportfolio: the portfolio-scheduler acceptance numbers — every
## sampled shard of the 32-constraint batch workload solved by one
## fixed sequential annealer run vs by the portfolio race, recorded as
## BENCH_portfolio.json. Reports p50/p99 per mode, per-arm win counts,
## the adaptive controller's saved reads, and the p99 ratio as
## x_p99_speedup; acceptance is x_p99_speedup >= 3.
benchportfolio:
	$(GO) test -run '^$$' -bench 'BenchmarkPortfolio' -benchtime=3x -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_portfolio.json
	@cat BENCH_portfolio.json

## portfoliosmoke: the focused portfolio gate — race/cancellation
## semantics and the goroutine-leak teardown audit in
## internal/portfolio, the portfolio-vs-sequential differential suite
## in the root package, the singleflight compile-cache coalescing
## tests, and the job-queue cross-request coalescing suite, all
## under -race.
portfoliosmoke:
	$(GO) test -race -run 'Portfolio|Race|Adaptive|NaiveLowerBound|BuildArms|Coalesc|Singleflight' \
		. ./internal/portfolio ./internal/qubo ./internal/remote

## optsmoke: the focused optimize gate — the brute-force differential
## suite, hard-constraint inviolability under adversarial weights, the
## job-service optimize path, and the SMT-LIB assert-soft/minimize/
## get-objectives front end.
optsmoke:
	$(GO) test -run 'Optimize|Lex|Soft|Minimize|Objectives' -count=1 . ./internal/smtlib

## tiersmoke: the focused gate for the default Solve's shard tier plan —
## the merged-candidate generator, the exact-enumeration tie
## regressions, and the tier-plan-vs-whole-model differential suite,
## all under -race.
tiersmoke:
	$(GO) test -race -run 'ShardCandidates|ExactTie|TierPlan' . ./internal/anneal

## perfbench: one 20-second untraced run of the repository benchmark
## (BENCHMARK.json, perfbench/) on workload W with seed SEED, e.g.
## `make perfbench W=batch-shard SEED=3`. Prints the end-to-end metrics
## as JSON on stdout and the per-class/per-family summary on stderr.
W ?= solve-whole
SEED ?= 1
perfbench:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 20 --trace 0

## incrsmoke: the focused incremental gate — scope-leak regressions,
## the incremental session tests, the presolve/cache isolation audit,
## and the plain-vs-incremental differential suite, with -race over the
## concurrent session and interpreter tests.
incrsmoke:
	$(GO) test -race -run 'Incremental|ScopeRegression|CachePresolve|CacheNeverServes' . ./internal/smtlib

## fuzz: a fixed short smoke of the native Go fuzz targets for the
## SMT-LIB front end (lexer/parser and the batch interpreter path), so
## malformed scripts that panic the CLI are caught in CI without an
## open-ended fuzzing budget.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseSExprs -fuzztime 5s ./internal/smtlib
	$(GO) test -run '^$$' -fuzz FuzzParseScript -fuzztime 5s ./internal/smtlib
	$(GO) test -run '^$$' -fuzz FuzzInterpreterBatch -fuzztime 10s ./internal/smtlib

