GO ?= go

.PHONY: all build test vet race fmt-check fuzz-smoke bench-smoke bench-compress bench-serve bench-trace bench-placement bench-shard bench-generate bench-store bench-obs bench-smoke-all bench bench-check doc-check metric-check verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Fail when any Go file is not gofmt-formatted; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# One iteration of every Figure-class benchmark: a fast smoke test that
# the engine path still evaluates the paper figures end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure' -benchtime 1x .

# The deduplicated-sweep benchmarks: a fast smoke test that the
# compressed weighted path still runs end to end. 100 iterations (a few
# milliseconds total — these sweeps run in tens of microseconds) so the
# measurement is steady-state rather than first-iteration warmup.
bench-compress:
	$(GO) test -run '^$$' -bench 'Compressed' -benchtime 100x .

# The analysis-server benchmarks: the HTTP serving path (handler stack,
# compiled-view cache, evaluator pool) over a 1000-realization synthetic
# ensemble. 100 iterations so cached-path numbers are steady-state.
bench-serve:
	$(GO) test -run '^$$' -bench 'Serve' -benchtime 100x ./internal/serve/

# The observability-cost benchmarks: the cached sweep with tracing on
# vs off plus the live Prometheus exposition render. -benchmem so the
# zero-extra-allocations claim for the tracing-off path is visible.
bench-trace:
	$(GO) test -run '^$$' -bench 'Traced|TracingOff|MetricsRender' -benchtime 100x -benchmem ./internal/serve/

# The placement-search benchmarks: the word-parallel pair kernel vs the
# evaluator path over the real Oahu ensemble, plus the k-site greedy
# (1024-candidate synthetic universe) and branch-and-bound searches.
# 20 iterations keeps the whole run around a second.
bench-placement:
	$(GO) test -run '^$$' -bench 'Pairs|KSite' -benchtime 20x ./internal/placement/

# The sharded-serving benchmarks: the consistent-hash router over two
# real re-executed worker processes vs direct worker access. One
# iteration is the smoke test that the multi-process path still boots
# and serves end to end; cluster startup dominates the runtime.
bench-shard:
	$(GO) test -run '^$$' -bench 'Sharded' -benchtime 1x ./internal/shard/

# The ensemble-generation benchmarks: the single-scan batch pipeline
# vs the retained reference path, end-to-end (50-realization Oahu
# ensemble) and per-realization solver micro. -benchmem so the
# allocation-free steady state of the batch path stays visible.
bench-generate:
	$(GO) test -run '^$$' -bench 'Generate(Batch|Reference|Solver)' -benchtime 3x -benchmem ./internal/hazard/

# The content-addressed store and write-path benchmarks: crash-safe
# Put/Get/warm-restart over 64 KiB blobs, plus the end-to-end
# upload → generate → sweep flow through the HTTP write API.
bench-store:
	$(GO) test -run '^$$' -bench 'Store(Put|Get|WarmStart)' -benchtime 100x ./internal/store/
	$(GO) test -run '^$$' -bench 'UploadToSweep' -benchtime 3x ./internal/serve/

# The fleet-observability benchmarks: the cached sweep arriving with a
# router-injected traceparent (tracing on vs off) and one federated
# /v1/metrics?fleet=1 merge over two backends. -benchmem so the
# propagation-is-free-when-disabled claim stays visible.
bench-obs:
	$(GO) test -run '^$$' -bench 'Obs(RemoteTraced|PropagationOff)Sweep' -benchtime 100x -benchmem ./internal/serve/
	$(GO) test -run '^$$' -bench 'ObsFleetMerge' -benchtime 100x -benchmem ./internal/shard/

# Every benchmark smoke in one target, so the verify gate stays one
# line as sets accumulate.
bench-smoke-all: bench-smoke bench-compress bench-serve bench-trace bench-placement bench-shard bench-generate bench-store bench-obs

# Short fuzz runs over every fuzz target: the hazard ensemble codecs
# (JSON and CSV readers), the compressed-matrix wire codec, the upload
# decoders, the job-envelope import, the sweep shard-key derivation and
# the traceparent parser. 30s per
# target keeps the job a couple of minutes while still churning
# through millions of hostile inputs; `go test -fuzz` accepts one
# target per invocation, hence one line each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReadJSON' -fuzztime 30s ./internal/hazard/
	$(GO) test -run '^$$' -fuzz 'FuzzReadCSV' -fuzztime 30s ./internal/hazard/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeCompressedMatrix' -fuzztime 30s ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzTopologyUpload' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzEnsembleParams' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzJobsImport' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzSweepShape' -fuzztime 30s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceParent' -fuzztime 30s ./internal/obs/

# Full benchmark sweep with allocation counts (slow: regenerates the
# 1000-realization ensemble).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) test -run '^$$' -bench . -benchmem ./internal/engine/ ./internal/attack/

# Benchmark regression gate: run the Figure smoke benchmarks against
# BENCH_1.json (uncompressed engine reference), the Compressed
# benchmarks against BENCH_3.json (deduplicated sweeps), the Serve
# benchmarks against BENCH_4.json (analysis server), the tracing
# benchmarks against BENCH_5.json (observability cost), the
# placement-search benchmarks against BENCH_6.json (pair kernel +
# k-site search), the sharded-serving benchmarks against BENCH_7.json
# (router over real worker processes), the ensemble-generation
# benchmarks against BENCH_8.json (single-scan batch pipeline), the
# store/write-path benchmarks against BENCH_9.json (content-addressed
# store + upload-to-sweep), and the fleet-observability benchmarks
# against BENCH_10.json (trace propagation + metrics federation),
# failing on >3x slowdowns in any set.
bench-check:
	$(GO) test -run '^$$' -bench 'Figure' -benchtime 1x . > bench-smoke.out
	@cat bench-smoke.out
	$(GO) run ./tools/benchcheck -baseline BENCH_1.json -input bench-smoke.out
	$(GO) test -run '^$$' -bench 'Compressed' -benchtime 100x . > bench-compress.out
	@cat bench-compress.out
	$(GO) run ./tools/benchcheck -set compressed -baseline BENCH_3.json -input bench-compress.out
	$(GO) test -run '^$$' -bench 'Serve' -benchtime 100x ./internal/serve/ > bench-serve.out
	@cat bench-serve.out
	$(GO) run ./tools/benchcheck -set serve -baseline BENCH_4.json -input bench-serve.out
	$(GO) test -run '^$$' -bench 'Traced|TracingOff|MetricsRender' -benchtime 100x ./internal/serve/ > bench-trace.out
	@cat bench-trace.out
	$(GO) run ./tools/benchcheck -set trace -baseline BENCH_5.json -input bench-trace.out
	$(GO) test -run '^$$' -bench 'Pairs|KSite' -benchtime 20x ./internal/placement/ > bench-placement.out
	@cat bench-placement.out
	$(GO) run ./tools/benchcheck -set placement -baseline BENCH_6.json -input bench-placement.out
	$(GO) test -run '^$$' -bench 'Sharded' -benchtime 100x ./internal/shard/ > bench-shard.out
	@cat bench-shard.out
	$(GO) run ./tools/benchcheck -set shard -baseline BENCH_7.json -input bench-shard.out
	$(GO) test -run '^$$' -bench 'Generate(Batch|Reference|Solver)' -benchtime 3x ./internal/hazard/ > bench-generate.out
	@cat bench-generate.out
	$(GO) run ./tools/benchcheck -set generate -baseline BENCH_8.json -input bench-generate.out
	$(GO) test -run '^$$' -bench 'Store(Put|Get|WarmStart)' -benchtime 100x ./internal/store/ > bench-store.out
	$(GO) test -run '^$$' -bench 'UploadToSweep' -benchtime 3x ./internal/serve/ >> bench-store.out
	@cat bench-store.out
	$(GO) run ./tools/benchcheck -set store -baseline BENCH_9.json -input bench-store.out
	$(GO) test -run '^$$' -bench 'Obs(RemoteTraced|PropagationOff)Sweep' -benchtime 100x ./internal/serve/ > bench-obs.out
	$(GO) test -run '^$$' -bench 'ObsFleetMerge' -benchtime 100x ./internal/shard/ >> bench-obs.out
	@cat bench-obs.out
	$(GO) run ./tools/benchcheck -set obs -baseline BENCH_10.json -input bench-obs.out

# Documentation lint: every package must carry a package comment, and
# docs/API.md must document exactly the routes internal/serve and
# internal/shard register (see tools/doccheck).
doc-check:
	$(GO) run ./tools/doccheck -api docs/API.md -routes internal/serve,internal/shard ./...

# Metric-naming lint: every literal obs instrument registration must be
# dotted lowercase, _total-free, and kind-consistent (see
# tools/metriccheck).
metric-check:
	$(GO) run ./tools/metriccheck ./...

# The documented verification gate: vet, build, race-enabled tests,
# documentation and metric-naming lints, and the benchmark smoke runs.
verify: vet build race doc-check metric-check bench-smoke-all
