# Tier-1 gate and developer conveniences for CHAOS-Go.

GO ?= go

# COVER_FLOOR is the recorded statement-coverage floor of ./internal/...
# (91.5% measured under -short at the time of recording, the floor
# 0.5 below it); `make cover-check` fails when total coverage drops
# below it. Raise it when coverage durably improves.
COVER_FLOOR = 91.0

.PHONY: check build vet lint analyze test race cover cover-check bench bench-json bench-gate bench-baseline repo-bench repo-bench-pairs kernel-pairs profile-cpu profile-mem profile-exec profile-inspect fuzz-short quickstart tables examples docs-check api-check api-snapshot loc

# The BenchmarkHot* suite measures the steady state of the arena-backed
# hot paths and of the paper's own layers (translation-table
# dereference, schedule build, whole inspection, gather/scatter
# transport, whole reused executor step) and of chaosd's cache hit
# (fingerprint, whole in-process hit) with -benchmem; the gate
# (cmd/benchjson -gate) fails CI when any of them allocates past the
# checked-in BENCH_BASELINE.json (5% scheduling-noise headroom, exact
# for allocation-free kernels). ns/op is written to the JSON but not
# gated — a stored wall time drifts with the host; compare time with
# `make repo-bench-pairs`. Refresh the baseline with `make
# bench-baseline` after an intentional allocation change and commit
# the diff.
BENCH_GATE_CMD = $(GO) test -run '^$$' -bench '^BenchmarkHot' -benchmem -benchtime 10x ./internal/partition ./internal/geocol ./internal/stream ./internal/ttable ./internal/schedule ./internal/core ./internal/service ./internal/csr

check: build lint analyze test docs-check api-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# analyze runs chaosvet, the project-specific static-analysis suite
# (internal/analysis): SPMD collective divergence, hot-path allocation
# and discarded exchange results. See
# docs/ANALYZERS.md for the catalog and the //chaosvet:ignore contract.
analyze:
	$(GO) run ./cmd/chaosvet ./...
	@echo "analyze OK"

# lint is the explicit style gate: fails when any file needs gofmt, then
# runs go vet.
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...

# examples runs the testable godoc examples of the public API and the
# partitioner library, then every program under examples/ once; a
# non-zero exit fails the target (adaptive and euler run MULTILEVEL).
examples:
	$(GO) test -run Example -v ./chaos ./internal/partition
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || { echo "FAIL: ./$$d exited non-zero"; exit 1; }; \
	done

# docs-check is the documentation gate: the markdown link checker over
# the README, docs/ and examples/ (cmd/docscheck: relative targets must
# exist, anchors must name real headings) and a `go doc` rendering
# smoke run over the packages with curated package documentation.
# (Doc-comment hygiene itself is go vet's job, which lint already
# runs.)
docs-check:
	$(GO) run ./cmd/docscheck README.md docs examples
	@$(GO) doc ./internal/partition >/dev/null
	@$(GO) doc ./internal/geocol >/dev/null
	@$(GO) doc ./internal/machine >/dev/null
	@$(GO) doc ./internal/partition Multilevel >/dev/null
	@echo "docs-check OK"

# api-check pins the exported surface of the public chaos package:
# `go doc -all ./chaos` (normalized: trailing whitespace stripped) must
# match the reviewed snapshot in docs/API.txt, so accidental API drift
# fails tier-1. After an intentional API change, review the diff and
# refresh the snapshot with `make api-snapshot`.
api-check:
	@$(GO) doc -all ./chaos | sed -e 's/[[:space:]]*$$//' > .api-current.txt; \
	if ! diff -u docs/API.txt .api-current.txt; then \
		rm -f .api-current.txt; \
		echo "FAIL: exported chaos API drifted from docs/API.txt;"; \
		echo "      review the diff above and run 'make api-snapshot' if intended"; \
		exit 1; \
	fi; \
	rm -f .api-current.txt; echo "api-check OK"

api-snapshot:
	$(GO) doc -all ./chaos | sed -e 's/[[:space:]]*$$//' > docs/API.txt
	@echo "wrote docs/API.txt"

test:
	$(GO) test ./...

# race runs the full suite under the race detector — the machine
# simulator is goroutine-per-rank, so this is the gate that matters.
race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# cover-check enforces the statement-coverage floor over ./internal/...
# -short skips the host-timing comparisons, which are meaningless (and
# flaky) under coverage instrumentation overhead.
cover-check:
	$(GO) test -short -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total ./internal/... coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "FAIL: coverage $$total% is below the recorded $(COVER_FLOOR)% floor"; exit 1; }

bench:
	$(GO) test -bench . -benchtime 10x -run '^$$' ./...

# fuzz-short gives each fuzz target, listed as package:target under
# internal/, a 30-second budget; Go runs one -fuzz target per
# invocation, hence the loop. -fuzzminimizetime bounds the minimization
# of each new-coverage input to 10 executions: at Go's default of 60 s
# a target stalls at 0 execs/sec while it minimizes a new input
# (FuzzGhostExchange, unbounded: 14 099 execs in the first 9 s of a
# 20 s run, then none).
# With the bound, one run on a 2-core host executed, in 30 s per
# target: FuzzVerifiedCache 45 k, FuzzAlltoAll 113 k, FuzzBuildCoarse
# 127 k, FuzzGhostExchange 168 k, FuzzStreamDecode 348 k, FuzzIntsCodec
# 443 k, FuzzWireFrame 483 k, FuzzCompile 561 k, FuzzContract 921 k;
# no status interval read 0 execs/sec before the closing line, which Go
# prints at the deadline over a zero-length interval. FuzzResolve, added
# later, ran 112 k in its 30 s on the same host, and FuzzIndexSet 105 k.
# FuzzSquare, added later still, ran 1 252 k.
FUZZ_TARGETS = machine:FuzzAlltoAll geocol:FuzzGhostExchange geocol:FuzzBuildCoarse \
	csr:FuzzContract service:FuzzWireFrame service:FuzzVerifiedCache \
	service:FuzzIntsCodec stream:FuzzStreamDecode lang:FuzzCompile \
	ttable:FuzzResolve scratch:FuzzIndexSet lang:FuzzSquare

fuzz-short:
	@for pt in $(FUZZ_TARGETS); do \
		echo "fuzz $$pt"; \
		$(GO) test -run '^$$' -fuzz "^$${pt#*:}\$$" -fuzztime 30s -fuzzminimizetime 10x ./internal/$${pt%%:*} || exit 1; \
	done

# bench-json emits the perf-trajectory document CI archives per push.
bench-json:
	$(GO) test -bench . -benchtime 5x -run '^$$' ./... | $(GO) run ./cmd/benchjson -o BENCH_local.json
	@echo wrote BENCH_local.json

# bench-gate is the allocs/op regression rail (required on pull
# requests): hot-path benchmarks against BENCH_BASELINE.json.
bench-gate:
	$(BENCH_GATE_CMD) | $(GO) run ./cmd/benchjson -gate BENCH_BASELINE.json

# bench-baseline re-records the gate baseline.
bench-baseline:
	$(BENCH_GATE_CMD) | $(GO) run ./cmd/benchjson -sha "" -o BENCH_BASELINE.json
	@echo wrote BENCH_BASELINE.json

# repo-bench runs the repository benchmark (BENCHMARK.json,
# benchmark/README.md): four ~20 s workloads, end-to-end metrics on both
# clocks.
repo-bench:
	$(GO) run ./benchmark

# repo-bench-pairs is the paired protocol of benchmark/README.md in one
# command: N runs of WORKLOAD (empty = all four) of the committed BASE
# and N of the working tree, each side built once, alternating which
# side goes first, then the medians compared against the bounds of
# BENCHMARK.json. BASE is unpacked with `git archive` into the
# git-ignored .bench_build/, so nothing is registered in .git and the
# base binary runs inside a checkout of its own.
N ?= 10
WORKLOAD ?=
BASE ?= HEAD
repo-bench-pairs:
	@rm -rf .bench_build && mkdir -p .bench_build/base
	git archive $(BASE) | tar -x -C .bench_build/base
	cd .bench_build/base && $(GO) build -o ../bench_base ./benchmark
	$(GO) build -o .bench_build/bench_change ./benchmark
	@for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			echo "pair $$i/$(N): $$side"; \
			if [ $$side = base ]; then \
				(cd .bench_build/base && ../bench_base $(if $(WORKLOAD),-workload $(WORKLOAD)) -out ../base.jsonl >/dev/null) || exit 1; \
			else \
				.bench_build/bench_change $(if $(WORKLOAD),-workload $(WORKLOAD)) -out .bench_build/change.jsonl >/dev/null || exit 1; \
			fi; \
		done; \
	done
	.bench_build/bench_change -compare .bench_build/change.jsonl -against .bench_build/base.jsonl

# kernel-pairs is the same paired protocol for one `go test -bench`
# kernel: the test binaries of PKG at the committed BASE (unpacked with
# `git archive` into the git-ignored .bench_build/kernel/) and of the
# working tree are built once, then N alternating runs of the benchmarks
# matching BENCH (a -test.bench regexp; write a literal $ as $$),
# BENCHTIME each, go to one file per side, and `benchjson -pairs`
# reports per metric both medians and quartiles, the median shift, the
# base quartile distance and the pairs won.
BENCH ?= ^BenchmarkHotColdMultilevelSerial$$
PKG ?= ./internal/partition
BENCHTIME ?= 200x
kernel-pairs:
	@rm -rf .bench_build/kernel && mkdir -p .bench_build/kernel/base
	git archive $(BASE) | tar -x -C .bench_build/kernel/base
	cd .bench_build/kernel/base && $(GO) test -c -o ../base.test $(PKG)
	$(GO) test -c -o .bench_build/kernel/change.test $(PKG)
	@for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			echo "pair $$i/$(N): $$side"; \
			if [ $$side = base ]; then dir=.bench_build/kernel/base/$(PKG); else dir=$(PKG); fi; \
			(cd $$dir && $(CURDIR)/.bench_build/kernel/$$side.test -test.run '^$$' -test.bench '$(BENCH)' \
				-test.benchtime $(BENCHTIME) -test.benchmem -test.timeout 30m) >> .bench_build/kernel/$$side.txt || exit 1; \
		done; \
	done
	$(GO) run ./cmd/benchjson -pairs .bench_build/kernel/base.txt < .bench_build/kernel/change.txt

# profile-cpu / profile-mem run the 21952-node distributed V-cycle
# benchmark under the Go profiler and drop pprof files under the
# git-ignored profiles/ directory; inspect them with
# `go tool pprof profiles/cpu.out`. See README "Profiling".
profile-cpu:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench BenchmarkParallelMultilevel8 -benchtime 5x \
		-cpuprofile profiles/cpu.out -o profiles/partition.test ./internal/partition
	@echo "wrote profiles/cpu.out; inspect with: go tool pprof profiles/partition.test profiles/cpu.out"

profile-mem:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench BenchmarkParallelMultilevel8 -benchtime 5x -benchmem \
		-memprofile profiles/mem.out -o profiles/partition.test ./internal/partition
	@echo "wrote profiles/mem.out; inspect with: go tool pprof -sample_index=alloc_objects profiles/partition.test profiles/mem.out"

# profile-exec profiles one reused executor step (BenchmarkHotExecute:
# the paper's 53K mesh on 8 ranks, the repository benchmark's
# euler_reuse op) for CPU and allocations in one run. Read the split
# between the fused strip kernel (mesh.eulerFlux.Strip: gather, flux and
# combine in one loop), the executor's own loops (Loop.executor: buffer
# reset, foldInto), the transport (schedule.move, machine.exchangeRows)
# and the allocator with
# `go tool pprof -top profiles/core.test profiles/exec_cpu.out`.
profile-exec:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkHotExecute$$' -benchtime 1500x -benchmem \
		-cpuprofile profiles/exec_cpu.out -memprofile profiles/exec_mem.out -memprofilerate 1 \
		-o profiles/core.test ./internal/core
	@echo "wrote profiles/exec_cpu.out and profiles/exec_mem.out; inspect with: go tool pprof -top profiles/core.test profiles/exec_cpu.out"
	@echo "                                       and: go tool pprof -sample_index=alloc_objects -top profiles/core.test profiles/exec_mem.out"

# profile-inspect profiles one whole re-inspection of the Euler sweep
# (BenchmarkHotInspect: the paper's 10K mesh on 8 ranks, what every
# euler_noreuse op pays before its executor step) for CPU and
# allocations in one run. Read the split between the translation-table
# dereference (ttable.ResolveInto), duplicate elimination and request
# exchange (schedule.BuildGather self, scratch.IndexSet, ExchangeInts)
# and the allocator with
# `go tool pprof -top -cum profiles/core.test profiles/inspect_cpu.out`.
profile-inspect:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkHotInspect$$' -benchtime 500x -benchmem \
		-cpuprofile profiles/inspect_cpu.out -memprofile profiles/inspect_mem.out -memprofilerate 1 \
		-o profiles/core.test ./internal/core
	@echo "wrote profiles/inspect_cpu.out and profiles/inspect_mem.out; inspect with: go tool pprof -top -cum profiles/core.test profiles/inspect_cpu.out"
	@echo "                                             and: go tool pprof -sample_index=alloc_objects -top profiles/core.test profiles/inspect_mem.out"

quickstart:
	$(GO) run ./examples/quickstart

tables:
	$(GO) run ./cmd/chaosbench -quick -markdown

# loc prints the lines of Go in the tree, non-test and test (the size
# row of ROADMAP.md), leaving out the benchmark's unpacked base checkout.
loc:
	@find . -name '*.go' -not -path './.bench_build/*' -not -name '*_test.go' -exec cat {} + | wc -l | awk '{ print "non-test Go lines: " $$1 }'
	@find . -name '*.go' -not -path './.bench_build/*' -name '*_test.go' -exec cat {} + | wc -l | awk '{ print "test Go lines:     " $$1 }'
