# Tier-1 verification is `make check`: vet, build, and test everything.
# `make check-race` re-runs the suite under the race detector — required
# for changes touching the parallel search layer, DB.Batch, or the
# mutable-graph write path (the root-package apply/snapshot tests,
# e.g. TestConcurrentReadersDuringApply, run under it).
# `make ci` is the umbrella the GitHub workflow runs: formatting gate
# plus the tier-1 checks, plus the suite again at GOMAXPROCS 1 and 4
# (`make test-cpus`) so single-core assumptions fail on any runner, and
# the benchmark harness module (`make bench-harness`).
GO ?= go

.PHONY: ci check check-race fmt-check lint vet build test test-cpus bench-harness bench bench-allocs bench-parallel bench-artifacts check-parallel-baseline cluster-smoke cover fuzz

ci: fmt-check lint check test-cpus bench-harness

check: vet build test

# Static analysis beyond vet. staticcheck is optional locally (the CI
# workflow installs it); when absent the target degrades to vet alone
# with a notice rather than failing offline checkouts.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran vet only" \
			"(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Fails (listing the offenders) when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Includes internal/cluster: the coordinator's hedged/retried fan-out and
# the worker's epoch catch-up are concurrency-heavy by design.
check-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The suite at GOMAXPROCS 1 and 4: parallel scans, Stats counts and
# serial == parallel claims must hold on any core count.
test-cpus:
	$(GO) test -cpu 1,4 ./...

# The end-to-end benchmark lives in its own module (tsdload/go.mod), which
# `go test ./...` at the root does not enter: vet and test it here so a
# core/store API change that breaks the harness fails CI, not the next
# benchmark run. vet type-checks without leaving a binary in tsdload/.
bench-harness:
	cd tsdload && $(GO) vet ./... && $(GO) test ./...

# Quick-mode paper benchmarks (full versions: go run ./cmd/tsdbench).
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Allocation regression gate: the AllocsPerRun suites pin the scoring hot
# path — ego extraction and per-vertex scoring under every measure — at
# zero steady-state allocations, and the FlatInN suite pins the serving
# paths' bytes per call as independent of the graph's vertex count (no
# n-sized scratch built per call). Fast enough to run on every change.
bench-allocs:
	$(GO) test -run 'AllocFree|FlatInN' -count=1 -v ./internal/ego ./internal/core .

# Serial-vs-parallel engine timings; writes BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/tsdbench -exp parallel -quick

# Quick-mode machine-readable benchmarks; CI uploads bench-out/BENCH_*.json
# as a build artifact so the perf trajectory is tracked per commit.
bench-artifacts:
	$(GO) run ./cmd/tsdbench -exp parallel -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp store -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp dynamic -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp measures -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp cluster -quick -outdir bench-out
	$(GO) run ./cmd/tsdbench -exp pfree -quick -outdir bench-out

# Fails when bench-out/BENCH_parallel.json came from a GOMAXPROCS=1 run —
# CI runs this right after bench-artifacts so a single-core parallel
# baseline can never be published as the perf trajectory.
check-parallel-baseline:
	bash scripts/check_parallel_baseline.sh bench-out/BENCH_parallel.json

# End-to-end cluster parity: 2 shard workers + coordinator vs a single
# node on the same dataset, answers diffed through tsdsearch -server.
cluster-smoke:
	bash scripts/cluster_smoke.sh

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test ./internal/graph -fuzz FuzzLoadEdgeList -fuzztime 30s
