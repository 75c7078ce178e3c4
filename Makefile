# Developer / CI entry points. `make check` is the gate: formatting, vet,
# the full test suite under the race detector (the concurrent trial runner
# in internal/sim must stay race-clean), the codec fuzz seed corpus, and
# the worker-count determinism contract.
#
# Release checklist: `make check` then `make gate` — the regression
# sentinel reruns every experiment and compares the science against the
# committed bench/ baselines; regenerate them with `make bench-series`
# only when a science change is intended, and say why in the commit.

GO ?= go
FUZZTIME ?= 15s
BENCHTIME ?= 1s
# gate writes its candidate artifacts here; empty means a throwaway tmpdir.
GATEDIR ?=

.PHONY: check fmt vet lint test race bench benchcmp bench-series gate build cover fuzz fuzzseed determinism loc

check: fmt vet build lint race fuzzseed determinism

build:
	$(GO) build ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Deeper static analysis, gated on the tools being installed: CI images
# without staticcheck/govulncheck skip with a notice instead of failing,
# and nothing is downloaded implicitly.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmarks across all packages in benchstat-compatible form, archived to
# bench.txt so successive runs can be compared (`benchstat old.txt bench.txt`).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | tee bench.txt

# Before/after benchmark comparison: reruns the suite into bench.new.txt
# and diffs it against the archived bench.txt. Uses benchstat when it is
# installed (same opt-in policy as lint); otherwise falls back to a plain
# diff of the benchmark lines.
benchcmp:
	@test -f bench.txt || { echo "benchcmp: no bench.txt — run 'make bench' on the old tree first"; exit 1; }
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | tee bench.new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench.txt bench.new.txt; \
	else \
		echo "benchcmp: benchstat not installed, falling back to diff"; \
		grep '^Benchmark' bench.txt >bench.old.flat; \
		grep '^Benchmark' bench.new.txt >bench.new.flat; \
		diff bench.old.flat bench.new.flat || true; \
		rm -f bench.old.flat bench.new.flat; \
	fi

# Regenerate the committed baseline series under bench/: every
# experiment's BENCH_<name>.json (plus its metrics delta) at default
# scale. Deterministic for a given seed, so `git diff bench/` after a
# change shows exactly which trajectories moved.
bench-series:
	$(GO) run ./cmd/witag-bench -experiment all -json bench

# Regression sentinel: rerun every experiment into a scratch dir and gate
# the result against the committed bench/ baselines (DESIGN.md §12).
# Deterministic metrics must match exactly and science series must stay
# inside the statistical tolerance band; wall-clock budget is off (-budget
# 0) because the committed baselines were timed on a different machine —
# the PROF profiles are still structure-checked (every phase must keep
# firing). The candidate run logs to LOG_bench.jsonl in the same dir —
# both a gate that logging stays non-perturbing (the science must still
# match the baselines byte-for-byte) and the provenance CI uploads
# alongside the RUNS.jsonl ledger the run appends. Set GATEDIR to keep
# the candidate artifacts (CI uploads them).
gate:
	@out='$(GATEDIR)'; \
	if [ -z "$$out" ]; then out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT; fi && \
	$(GO) run ./cmd/witag-bench -experiment all -json "$$out" -log "$$out"/LOG_bench.jsonl -timeline >/dev/null && \
	$(GO) run ./cmd/witag-gate -baseline bench -candidate "$$out" -budget 0

# Whole-repo coverage profile plus the one-line total.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1

# Time-boxed coverage-guided fuzzing of the frame codec, the erasure
# coders, the tolerant export readers (trace, timeline, run ledger), the
# log canonicalizer and handler, the trace ring's round trip and the
# gate's BENCH/PROF artifact loader;
# `make fuzzseed` replays just the checked-in corpus (fast, deterministic
# — the CI form).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodecDecode -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFountainDecode -fuzztime=$(FUZZTIME) ./internal/coding
	$(GO) test -run='^$$' -fuzz=FuzzRSDecode -fuzztime=$(FUZZTIME) ./internal/coding
	$(GO) test -run='^$$' -fuzz='^FuzzReadJSONL$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzReadTimelineLog$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzReadRunLedgerTolerant$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalizeLog$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzJSONLHandler$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzRecorderRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzLoadArtifact$$' -fuzztime=$(FUZZTIME) ./internal/regress

fuzzseed:
	$(GO) test -run='^Fuzz' ./internal/core ./internal/coding ./internal/obs ./internal/regress

# The worker-count determinism contract, for results AND for the
# observability layer: metrics snapshots must be identical for 1 vs N
# workers, attaching instrumentation (or a logging campaign scope, or a
# timeline) must not change any output, canonicalized campaign logs and
# logical timeline exports must be worker-count invariant, and concurrent
# campaigns — and two harnesses running at once, each with its own
# campaign — must stay byte-identical to solo runs with fully disjoint
# metrics. The hard-decision Viterbi decoder must match the integer
# trellis it replaced bit for bit. The hot path's reuse is held to the same bar: the paired
# channel evaluation must equal two single-state ones bit for bit, the
# static-prefix and tag-term caches must notice every in-place edit of
# their inputs, the rotation phase ramp must stay within tolerance of the
# per-subcarrier oracle, and the union bound's log-coefficient table must
# be bit-equal to the Lgamma expression it replaces. The per-round memos
# answer to the same bar: the memoised decode model must be bit-equal to
# the direct one, the trigger, link-power and coverage caches must notice
# every in-place edit of their inputs, RandomBits must draw Intn(2)'s
# stream, and the phase spans must stay exact in count — laned histograms
# read like single-lane ones, Lap chains are contiguous, and every
# experiment records the same spans per phase at any worker count. The
# transfer loop is pinned too: every discipline's full outcome on a fixed
# world, seed-for-seed reproducibility, and cancellation inside a frame
# for ARQ, LT and RS alike.
determinism:
	$(GO) test -run='DeterministicAcrossWorkerCounts|MetricsIdenticalAcrossWorkerCounts|InstrumentationDoesNotPerturbResults|LoggingDoesNotPerturbResults|TimelineDoesNotPerturbResults|TimelineWindowsIdenticalAcrossWorkerCounts|ConcurrentCampaignsIsolated|ChannelPairMatchesChannel|ChannelPairLoSMatchesReference|PrefixCacheInvalidation|RotationRampWithinTolerance|TagCacheInvalidation|DecodeTableMatchesLgamma|SuccessMemo|RoundCacheInvalidation|CoverageBoundaryCacheInvalidation|RandomBitsMatchesIntn|SpanCountsExact|LanedHistogramMatchesSingleLane|LapChainsAreContiguous|ConcurrentHarnessesIsolated|ViterbiHardMatchesReference|TransferOutcomesPinned|TransferDeterministicFromSeeds|SendCancelsMidFrame|CodedTransfersHonorCancellation' ./internal/experiments ./internal/sim ./internal/channel ./internal/phy ./internal/core ./internal/tag ./internal/stats ./internal/obs ./internal/link ./internal/coding

# Non-test Go lines per package under internal/ and cmd/, plus the total:
# the size figure a simplification reports before and after.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./internal/... ./cmd/... | \
	awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
		sub(/^witag\//, "", $$1); printf "%-28s %6d\n", $$1, n; total += n } \
		END { printf "%-28s %6d\n", "total", total }'
