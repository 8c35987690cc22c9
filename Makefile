# graftlab build targets. Everything is plain `go` underneath; the
# Makefile just names the common workflows.

GO ?= go

.PHONY: all build test test-short race stress cover cover-check conformance-short fuzz-smoke bench bench-smoke bench-check bench-report bench-baseline graftperf-smoke loc check experiments quick-experiments examples clean

all: build test

# Tier-1 gate: compile + vet + tests + a fast conformance pass + every
# benchmark exercised once. The full conformance suite already runs as
# part of `test`; the explicit -short pass keeps the gate honest even if
# the test matrix is filtered.
check: build test conformance-short bench-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Concurrency stress suite under the race detector: pooled instances
# hammered from many goroutines, lifecycle swaps under load, and the
# concurrent conformance pass. A subset of `race`, kept separate so CI
# reports data races in the multicore layer as their own failure.
stress:
	$(GO) test -race -count=1 -run 'Stress|Concurrent' ./...

# COVER_FLOOR is the recorded baseline (82.2% when set): cover-check
# fails if total statement coverage drops below it. Raise it when
# coverage durably improves; never lower it to make a PR pass.
COVER_FLOOR ?= 80.0

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the floor $(COVER_FLOOR)%"; exit 1; }

# Cross-technology conformance oracle, reduced program counts: the fast
# gate every change must clear before the full suite runs in CI.
conformance-short:
	$(GO) test -short -count=1 ./internal/conformance

# Native fuzz targets, a few seconds each: catches trivially reachable
# panics without a dedicated fuzzing farm. FUZZTIME is per target.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run XXX ./internal/gel
	$(GO) test -fuzz=FuzzInterp -fuzztime=$(FUZZTIME) -run XXX ./internal/script
	$(GO) test -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) -run XXX ./internal/aot
	$(GO) test -fuzz=FuzzDeliver -fuzztime=$(FUZZTIME) -run XXX ./internal/netsim
	$(GO) test -fuzz=FuzzSwap -fuzztime=$(FUZZTIME) -run XXX ./internal/lifecycle

# One testing.B benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem -run XXX .

# Run every benchmark exactly once — catches bit-rot in benchmark-only
# code paths without paying measurement time. The lifecycle and
# telemetry packages carry the hot-path benchmarks (BenchmarkSlotDo,
# BenchmarkObservabilityHotPath) the observability budget is read from.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run XXX . ./internal/lifecycle ./internal/telemetry

# Regression gate: rerun Table 5, the batched packet filter, and the
# lifecycle swap-under-load experiment at quick scale and compare against
# the committed baseline. A cell fails only when it is more than 45%
# worse AND the move is significant against both samples' variance
# (Cohen's |d| >= 0.8) — shared-runner noise reads `noise`, not
# `regression`. See docs/benchmarking.md for the gate's rules.
bench-check:
	$(GO) run ./cmd/graftbench -quick -experiment table5,pktfilter-batch,swap-under-load -check-against BENCH_baseline.json -check-tolerance 0.45 -check-effect 0.8

# Full quick-scale suite with generated artifacts: results.json,
# results.csv (the flattened cell matrix), and REPORT.md (methodology,
# stability flags, effect-size verdicts) land in bench-report/.
bench-report:
	$(GO) run ./cmd/graftbench -quick -report-dir bench-report -check-against BENCH_baseline.json -check-tolerance 0.45 -check-effect 0.8

# Re-archive the baseline the gate compares against (Table 5, the
# batched packet filter, and swap-under-load). Run on a quiet machine;
# commit the result deliberately.
bench-baseline:
	$(GO) run ./cmd/graftbench -quick -experiment table5,pktfilter-batch,swap-under-load -json-out BENCH_baseline.json

# Build, vet and test the graftperf benchmark module (its own go.mod, so
# `go build ./...` at the root never compiles it), then run a short traced
# pass of each workload. run.sh exits non-zero on any output mismatch, so
# an internal/ API change that breaks the benchmark fails here.
graftperf-smoke:
	cd graftperf && $(GO) vet ./... && $(GO) test ./...
	for w in evict-tpcb ld-write pf-live; do \
		bash graftperf/run.sh --workload $$w --seed 1 --seconds 2 --trace 1 || exit 1; \
	done

# Go line counts outside the graftperf benchmark module: non-test and
# test files separately, the figures a change's line delta is read from.
LOC_GO = find . \( -path ./graftperf -o -path './.*' \) -prune -o -name '*.go' -print

loc:
	@$(LOC_GO) | grep -v '_test\.go$$' | xargs cat | wc -l | awk '{print "non-test Go lines: " $$1}'
	@$(LOC_GO) | grep '_test\.go$$' | xargs cat | wc -l | awk '{print "test Go lines:     " $$1}'

# Regenerate the paper's evaluation (Tables 1-6, Figure 1, ablations,
# packet filter). Minutes at paper scale; use quick-experiments for CI.
experiments:
	$(GO) run ./cmd/graftbench -figure1-csv figure1.csv

quick-experiments:
	$(GO) run ./cmd/graftbench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pageevict
	$(GO) run ./examples/md5stream
	$(GO) run ./examples/logicaldisk
	$(GO) run ./examples/packetfilter
	$(GO) run ./examples/fastpath
	$(GO) run ./cmd/kernelsim -scenario all

clean:
	$(GO) clean ./...
	rm -f figure1.csv test_output.txt bench_output.txt coverage.out
	rm -rf bench-report
