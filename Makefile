GO ?= go

.PHONY: check build vet test race benchsmoke perfbench perfbenchcheck fuzz

## check: the CI gate — build, vet, the whole test suite under the race
## detector, a 1-iteration benchmark smoke pass, the vet and tests of
## the repository benchmark, and a short fuzz smoke of the SMT-LIB front
## end and the remote surface. It rewrites no committed file.
check: build vet race benchsmoke perfbenchcheck fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: every test of the module under the race detector — among them
## the batch/shard/cache concurrency suite, the incremental and optimize
## suites, the tier-plan and search-loop gates, the service layer's
## queue, job API and breaker tests, and cmd/loadgen's self-hosted load
## run.
race:
	$(GO) test -race ./...

## benchsmoke: one iteration of every benchmark — catches bit-rotted
## benchmark code without paying for stable timings. `-bench .` includes
## BenchmarkSubstrate_PackedSpeedup, so `make check` exercises the packed
## 64-replica kernel (and its AVX2 mask path where available) on every
## CI run.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./... > /dev/null

## perfbench: one 20-second untraced run of the repository benchmark
## (BENCHMARK.json, perfbench/) on workload W with seed SEED, e.g.
## `make perfbench W=batch-shard SEED=3`. Prints the end-to-end metrics
## as JSON on stdout and the per-class/per-family summary on stderr.
W ?= solve-whole
SEED ?= 1
perfbench:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 20 --trace 0

## perfbenchcheck: vet and test the repository benchmark (perfbench/, a
## module of its own that compiles against this module's exported API),
## so an API change that breaks the benchmark fails CI (about 6 s).
perfbenchcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## fuzz: a fixed short smoke of the native Go fuzz targets for the
## SMT-LIB front end (lexer/parser and the interpreter's check-sat path)
## and the remote surface (Retry-After hints, SampleRequest decode and
## validation, the PUT /v1/cache model upload), so malformed input that
## panics the CLI or the daemon is caught in CI without an open-ended
## fuzzing budget.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseSExprs -fuzztime 5s ./internal/smtlib
	$(GO) test -run '^$$' -fuzz FuzzParseScript -fuzztime 5s ./internal/smtlib
	$(GO) test -run '^$$' -fuzz FuzzInterpreterBatch -fuzztime 10s ./internal/smtlib
	$(GO) test -run '^$$' -fuzz FuzzParseRetryAfter -fuzztime 5s ./internal/remote
	$(GO) test -run '^$$' -fuzz FuzzSampleRequest -fuzztime 5s ./internal/remote
	$(GO) test -run '^$$' -fuzz FuzzCachePut -fuzztime 5s ./internal/remote

