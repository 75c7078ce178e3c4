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

.PHONY: check fmt vet lint test race bench benchcmp perfcmp bench-series gate seedscan pgo pgocheck build cover fuzz fuzzseed determinism loc

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

# End-to-end A/B against another revision: `make perfcmp REF=<rev>`.
# Builds perfbench once from this checkout, extracts REF into a temporary
# directory with git archive, then runs PASSES pairs of one-pass
# perfbench runs, alternating which side goes first so that drift on the
# machine falls on both sides alike, and prints `perfbench -compare` (A =
# REF, B = this checkout) for each pair. One pair's verdict is noise-bound
# (a metric of a few milliseconds, such as setup_s, reads `worse` in some
# pairs of identical trees), so it fails (`make` exits 2) only for a
# workload and metric that is `worse` in more than half of the pairs, and
# names them, sorted.
# PERFARGS adds perfbench flags, e.g. PERFARGS='-workload coding-sweep
# -seed 1001'. Go caches stay under .bench_build/, as with
# perfbench/run.sh.
PASSES ?= 10
PERFARGS ?=
perfcmp:
	@test -n '$(REF)' || { echo "perfcmp: set REF=<rev>, e.g. make perfcmp REF=HEAD~1"; exit 2; }
	@root=$$(pwd) && tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	export GOCACHE="$$root/.bench_build/gocache" GOPATH="$$root/.bench_build/gopath" \
		GOENV=off GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOWORK=off && \
	(cd perfbench && $(GO) build -o "$$tmp/perfbench" .) && \
	mkdir "$$tmp/ref" && git archive '$(REF)' | tar -x -C "$$tmp/ref" && \
	for i in $$(seq $(PASSES)); do \
		sides='a b'; [ $$((i % 2)) -eq 0 ] && sides='b a'; \
		for side in $$sides; do \
			src=.; [ $$side = a ] && src="$$tmp/ref"; \
			"$$tmp/perfbench" -root "$$src" -out "$$tmp/$$side$$i" -reps 1 $(PERFARGS) >"$$tmp/$$side$$i.log" || \
				{ cat "$$tmp/$$side$$i.log"; exit 1; }; \
		done; \
		echo "== pair $$i of $(PASSES): A = $(REF), B = this checkout"; \
		"$$tmp/perfbench" -compare "$$tmp/a$$i/results.json" "$$tmp/b$$i/results.json" >"$$tmp/cmp$$i.txt"; \
		cat "$$tmp/cmp$$i.txt"; grep -q '^workload' "$$tmp/cmp$$i.txt" || exit 1; \
	done && \
	cat "$$tmp"/cmp*.txt | awk -v passes=$(PASSES) ' \
		$$1 == "workload" { n = 0; for (f = 2; f <= NF; f++) if ($$f !~ /^\(/) metric[++n] = $$f; next } \
		n && NF > 1 && $$2 ~ /^(ok|worse|unresolved|missing)$$/ { \
			m = 0; for (f = 2; f <= NF; f++) { if ($$f ~ /^[-+]/) continue; m++; if ($$f == "worse") worse[$$1 " " metric[m]]++ } } \
		END { status = 0; sorter = "LC_ALL=C sort"; for (k in worse) if (2 * worse[k] > passes) { \
			printf "perfcmp: %s worse in %d of %d pairs\n", k, worse[k], passes | sorter; status = 1 } \
			close(sorter); \
			if (!status) printf "perfcmp: no workload and metric worse in more than half of %d pairs\n", passes; \
			exit status }'

# Regenerate the committed baseline series under bench/: every
# experiment's BENCH_<name>.json (plus its metrics delta) at default
# scale. Deterministic for a given seed, so `git diff bench/` after a
# change shows exactly which trajectories moved.
bench-series:
	$(GO) run ./cmd/witag-bench -experiment all -json bench

# Regression sentinel: rerun every experiment into a scratch dir and gate
# the result against the committed bench/ baselines (DESIGN.md §12).
# Deterministic metrics must match exactly, science series must stay
# inside the statistical tolerance band, and the PROF profiles must keep
# every phase firing. No wall clock is compared: the committed baselines
# were timed on a different machine, so speed is gated by `make perfcmp`
# against the merge base instead. The candidate run logs to
# LOG_bench.jsonl in the same dir —
# both a gate that logging stays non-perturbing (the science must still
# match the baselines byte-for-byte) and the provenance CI uploads
# alongside the RUNS.jsonl ledger the run appends. Set GATEDIR to keep
# the candidate artifacts (CI uploads them).
gate:
	@out='$(GATEDIR)'; \
	if [ -z "$$out" ]; then out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT; fi && \
	$(GO) run ./cmd/witag-bench -experiment all -json "$$out" -log "$$out"/LOG_bench.jsonl -timeline >/dev/null && \
	$(GO) run ./cmd/witag-gate -baseline bench -candidate "$$out"

# How often each experiment reproduces its claims across seeds: runs
# `witag-bench -experiment all -seed S` for every S in `seq $(SEEDS)`
# (default 0 to 199; SEEDS='0 59' scans 0-59) and prints, per experiment,
# how many seeds passed and how often each distinct failure occurred, its
# numbers masked as #. The failures are read from the provenance stamp of
# each experiment's metrics file. A seed takes about 1.4 s on 2 CPUs, so
# the default scan takes about five minutes; it is not part of `check`.
SEEDS ?= 0 199
seedscan:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/witag-bench" ./cmd/witag-bench && \
	n=0 && for seed in $$(seq $(SEEDS)); do \
		rm -rf "$$tmp/out"; \
		"$$tmp/witag-bench" -experiment all -seed $$seed -json "$$tmp/out" >/dev/null 2>"$$tmp/stderr"; \
		set -- "$$tmp"/out/BENCH_*.metrics.json; \
		test -f "$$1" || { cat "$$tmp/stderr"; exit 1; }; \
		for f in "$$@"; do \
			name=$${f##*/BENCH_}; \
			printf '%s\t%s\n' "$${name%.metrics.json}" \
				"$$(sed -n 's/^    "error": "\(.*\)"$$/\1/p' "$$f" | sed -E 's/[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?/#/g')"; \
		done >>"$$tmp/tally"; \
		n=$$((n + 1)); \
	done && \
	echo "seedscan: $$n seeds ($(SEEDS))" && \
	LC_ALL=C sort "$$tmp/tally" | uniq -c | awk -v n=$$n ' \
		{ c = $$1; sub(/^ *[0-9]+ /, ""); split($$0, f, "\t") } \
		f[1] != cur { cur = f[1]; printf "%-12s %d/%d passed\n", cur, f[2] == "" ? c : 0, n } \
		f[2] != "" { printf "    %4d  %s\n", c, f[2] }'

# Profile-guided build of witag-bench (DESIGN.md §17, stage 5): `go build`
# and `go run` read cmd/witag-bench/default.pgo by default (-pgo=auto), so
# every build of the command gets it with no flag. `make pgo` regenerates
# it: a build without the old profile runs the Figure 5, Figure 6 and
# coding command lines the benchmark times, at seed 42 and -parallel 1
# under -profile, five times each so the profile holds enough samples, and
# all their CPU profiles are merged into one. A profile only steers the
# compiler's inlining, devirtualisation and code layout; `make pgocheck`
# proves it moves no result, and deleting it costs only speed.
pgo:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -pgo=off -o "$$tmp/witag-bench" ./cmd/witag-bench && \
	for args in '-experiment fig5 -runs 16 -rounds 1500' '-experiment fig6 -rounds 1200' '-experiment coding'; do \
		echo "pgo: profiling witag-bench $$args, five times"; \
		for i in 1 2 3 4 5; do \
			"$$tmp/witag-bench" $$args -seed 42 -parallel 1 -profile "$$tmp/rep$$i" >"$$tmp/log" 2>&1 || \
				{ cat "$$tmp/log"; exit 1; }; \
		done; \
	done && \
	$(GO) tool pprof -proto "$$tmp"/rep*/cpu_*.pprof >"$$tmp/default.pgo" && \
	mv "$$tmp/default.pgo" cmd/witag-bench/default.pgo && \
	echo "pgo: wrote cmd/witag-bench/default.pgo"

# Proves the profile cannot move science: witag-bench built with -pgo=off
# and with the committed profile runs the whole suite once each. The
# regression gate must pass the profiled run against the other with every
# deterministic metric equal, and every BENCH series must be byte-identical
# apart from its timestamp. Without a profile there is nothing to check.
pgocheck:
	@test -f cmd/witag-bench/default.pgo || { echo "pgocheck: no cmd/witag-bench/default.pgo, nothing to check"; exit 0; }; \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -pgo=off -o "$$tmp/witag-bench-off" ./cmd/witag-bench && \
	$(GO) build -o "$$tmp/witag-bench-pgo" ./cmd/witag-bench && \
	$(GO) build -o "$$tmp/witag-gate" ./cmd/witag-gate && \
	{ $(GO) version -m "$$tmp/witag-bench-pgo" | grep -q -- '-pgo=' || \
		{ echo "pgocheck: the default build did not use the profile"; exit 1; }; } && \
	"$$tmp/witag-bench-off" -experiment all -seed 42 -json "$$tmp/off" >/dev/null && \
	"$$tmp/witag-bench-pgo" -experiment all -seed 42 -json "$$tmp/pgo" >/dev/null && \
	"$$tmp/witag-gate" -baseline "$$tmp/off" -candidate "$$tmp/pgo" && \
	for f in "$$tmp"/off/BENCH_*.json; do \
		case "$$f" in *.metrics.json) continue ;; esac; \
		grep -v '"timestampUTC"' "$$f" >"$$tmp/a.json" && \
		grep -v '"timestampUTC"' "$$tmp/pgo/$${f##*/}" >"$$tmp/b.json" && \
		cmp -s "$$tmp/a.json" "$$tmp/b.json" || { echo "pgocheck: $${f##*/} differs with the profile"; exit 1; }; \
	done && \
	echo "pgocheck: every BENCH series is byte-identical with and without the profile"

# Whole-repo coverage profile plus the one-line total.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1

# Time-boxed coverage-guided fuzzing of the frame codec, the link tape's
# recorded fault and traffic draws, the decode table against the coverage
# sum it replaced, the erasure coders, the tolerant export readers (trace,
# timeline), the log handler and the tests' log canonicalizer (obstest),
# the trace ring's round trip and its event lines against encoding/json, the
# live surface's HTTP request reader, the gate's BENCH/PROF artifact
# loader, NewRNG's math/rand stream and the CLIs' flag validators;
# `make fuzzseed` replays just the checked-in corpus (fast, deterministic
# — the CI form).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodecDecode -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzLinkTapeDraws$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeTable$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFountainDecode -fuzztime=$(FUZZTIME) ./internal/coding
	$(GO) test -run='^$$' -fuzz=FuzzRSDecode -fuzztime=$(FUZZTIME) ./internal/coding
	$(GO) test -run='^$$' -fuzz='^FuzzReadJSONL$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzReadTimelineLog$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalizeLog$$' -fuzztime=$(FUZZTIME) ./internal/obs/obstest
	$(GO) test -run='^$$' -fuzz='^FuzzJSONLHandler$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzRecorderRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzAppendEventJSON$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzReadRequest$$' -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz='^FuzzLoadArtifact$$' -fuzztime=$(FUZZTIME) ./internal/regress
	$(GO) test -run='^$$' -fuzz='^FuzzNewRNGMatchesMathRand$$' -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run='^$$' -fuzz='^FuzzSelectorFlags$$' -fuzztime=$(FUZZTIME) ./internal/cliflags
	$(GO) test -run='^$$' -fuzz='^FuzzMetricsAddrFormat$$' -fuzztime=$(FUZZTIME) ./internal/cliflags
	$(GO) test -run='^$$' -fuzz='^FuzzPathFlags$$' -fuzztime=$(FUZZTIME) ./internal/cliflags

fuzzseed:
	$(GO) test -run='^Fuzz' ./internal/core ./internal/coding ./internal/obs ./internal/obs/obstest ./internal/regress ./internal/stats ./internal/cliflags

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
# be bit-equal to the Lgamma expression it replaces. The per-world caches
# answer to the same bar: the trigger, link-power and coverage caches must
# notice every in-place edit of their inputs, RandomBits must draw Intn(2)'s
# stream, and the phase spans must stay exact in count — laned histograms
# read like single-lane ones, Lap chains are contiguous, and every
# experiment records the same spans per phase at any worker count. The
# transfer loop is pinned too: every discipline's full outcome on a fixed
# world, seed-for-seed reproducibility, and cancellation inside a frame
# for ARQ, LT and RS alike. Stage 4's reuse answers to the same bar:
# NewRNG's lazily seeded source must draw math/rand v1's stream and stay
# one small allocation for a short stream, the cached coverage
# contributions must equal the window walk, LT block sets must equal the
# code before the shuffle scratch, and the reused traffic mask a fresh
# one. The round's subframe mask must give every result, counter and
# trace event the per-subframe scoreboard and block-ACK bitmap gave, with
# and without faults, traffic and a world tape; the union bound stopped
# at its clamp must equal the full sum clamped, the interleaver's loops
# its per-bit index formula, and Sincos the Sin and Cos Advance called. Stage 5
# too: the fused scatterer pass must equal the per-path sum bit for bit,
# with the same phasor count and errors, and the wall-loss memo must
# notice every in-place edit of a wall's attenuation. Stage 6 too: readers
# of one world's link tape, at random paces and under the race detector,
# must see the link a local evaluation gives bit for bit, a system of
# another link must be refused, the coding sweep's blocked order must visit
# every trial once, taped and local sweeps must agree, every tape must be
# released, and the sweep's metrics and timeline windows must not depend
# on the worker count. Stage 7 too: the tape's readers must also count the
# fault and traffic events a local system counts, round by round, a taped
# sweep must count and trace what a local one does, and a taped transfer
# must leave its own fault and traffic streams at their first draw. Stage
# 8 too: the decode table must give every subframe of every round the
# split and success probability the coverage sum gave, with one
# decode-model evaluation per distinct (BER, bits) pair, must price
# everything afresh when its round stamp wraps, and must refuse what the
# tag's layout refuses; and the trace export's hand-written event lines must equal
# encoding/json's byte for byte. Stage 9 too: a round into a reused result
# must give every field, counter and trace event a fresh QueryRound gives,
# and MeasureRun must allocate no more over 1,000 rounds than over 100.
# The coding transfers answer to the same bar: a frame encoded and decoded
# in reused codec buffers must give the bytes a fresh Encode and Decode
# give, a steady-state FrameSender.Send must allocate nothing, a taped
# ARQ, LT or RS transfer must allocate as often over twice the frames,
# and a laned counter must read what a single-lane one fed the same adds
# reads. Stage 12 too: a stream on a reused or reseeded register must
# draw math/rand v1's stream, SeededBytes after dirty registers were
# released what a fresh stream draws, a released stream must panic, a world on
# storage a released world emptied must count and give what a fresh one
# does, a campaign on warm pools what one on empty pools gives, a warm
# Figure 5 trial must allocate under 8 KiB, and the fountain decoder's
# elimination must reuse its scratch. A world has one owner, sim.InWorld,
# which builds, instruments and releases it: no non-test file outside
# internal/sim may call a method named Instrument, and a warm robustness
# transfer, whose world, payload and backoff streams go back to the pools,
# must allocate under 16 KiB. A rate is learned without building
# anything: the spec-level round airtime must equal the built and
# marshalled query's over the §4.1 grid under every cipher, the
# world-free rate probe must equal a built LoS world's rate bit for bit,
# and a §4.1 sweep must allocate under 64 KiB. Transferer storage answers
# to the same bar as world storage: an ARQ, LT or RS transferer on the
# storage a released one emptied, and an LT decoder on storage an earlier
# one emptied, must give what one on fresh storage gives, every RS parity shard computed on demand must equal
# RS.Parity's, and a warm coding trial must allocate under 2.25 KiB. The
# trace export itself is held to the contract: two fresh Figure 5
# campaigns at one worker write byte-identical TRACE JSONL, every event
# naming its label path, and one at two workers the same lines. And
# instrumentation attaches in one place: no model package (channel,
# fault, traffic, tag, mac, dot11, stats, bitio) may import internal/obs.
# And no test-only code in production: every package-level function,
# method, type, var and const under internal/ and cmd/, exported or not,
# must be referenced by a non-test file of the repository, resolved by
# go/types (a method also by an interface it implements that the standard
# library or the repository calls through); the rule's own fixture pins
# what it reports, and a package it cannot type-check fails it. And no
# name in this target's -run lists may match no Test, Fuzz or Benchmark
# function of the packages its command lists. Stage 13 too: a paired
# world is built once — the readers a link tape hands out must share its
# one environment, fault injector and traffic generator, a released
# reader must leave them to the tape for the next one, and a reader that
# brings layers, a link or a query of its own must be refused; the coding
# sweep's transfers of one world must borrow its layers; and SNR, summed
# into the environment's own buffer, must equal the SNR of the channel
# Channel returns, bit for bit, allocating nothing once warm.
determinism:
	$(GO) test -race -count=10 -run='LinkTapeConcurrentReadersMatchLocal' ./internal/core
	$(GO) test -run='DeterministicAcrossWorkerCounts|MetricsIdenticalAcrossWorkerCounts|InstrumentationDoesNotPerturbResults|LoggingDoesNotPerturbResults|TimelineDoesNotPerturbResults|TimelineWindowsIdenticalAcrossWorkerCounts|ConcurrentCampaignsIsolated|ChannelPairMatchesChannel|ChannelPairLoSMatchesReference|PrefixCacheInvalidation|RotationRampWithinTolerance|TagCacheInvalidation|DecodeTableMatchesLgamma|RoundCacheInvalidation|CoverageBoundaryCacheInvalidation|RandomBitsMatchesIntn|SpanCountsExact|LanedHistogramMatchesSingleLane|LapChainsAreContiguous|ConcurrentHarnessesIsolated|ViterbiHardMatchesReference|TransferOutcomesPinned|TransferDeterministicFromSeeds|SendCancelsMidFrame|CodedTransfersHonorCancellation|NewRNGMatchesMathRand|NewRNGCheap|CoverageContributionsMatchWalk|RoundMaskMatchesScoreboardOracle|UnionBoundStopsAtClamp|InterleaveMatchesIndexFormula|AdvanceSincosMatchesSinCos|SymbolBlocksMatchReference|RoundMaskReuseMatchesFresh|ScatterSumMatchesPerPath|WallLossMemoInvalidation|LinkTapeRejectsOtherLink|CodingTrialOrderBijection|CodingTapesMatchLocalLinks|CodingTapesReleasedOnCancel|TapedTransferNeverDraws|ModelPackagesDoNotImportObs|NoTestOnlyExports|DeadDeclsFixture|DeadDeclsRefusesBrokenPackage|DeterminismRunListNamesTests|FuzzDecodeTable|TestDecodeTableBounds|DecodeTableRoundWrap|FuzzAppendEventJSON|MeasureRunAllocsFlat|QueryRoundIntoMatchesQueryRound|TraceExportDeterministic|CodecBuffersReuseMatchesFresh|FrameSenderSendAllocs|CodedTransferAllocsFlat|LanedCounterMatchesSingleLane|DeploymentRenderPinned|ReleasedStreamPanics|SeededBytesMatchesRandomBytes|EnvironmentReleaseStartsCold|SystemReleaseStartsCold|WarmPoolsMatchCold|Figure5TrialAllocs|FountainGaussianReusesScratch|OnlySimInstruments|RobustnessTransferAllocs|RoundAirtimeMatchesBuiltQuery|LoSTagRateMatchesWorld|Section41SweepAllocs|TransfererReleaseStartsCold|FountainDecoderStorageStartsCold|RSParityOnDemandMatchesParity|CodingTrialAllocs|LinkTapeReadersBorrowOneWorld|PairedWorldReadersShareLayers|SNRMatchesChannel' ./internal/experiments ./internal/sim ./internal/channel ./internal/phy ./internal/core ./internal/tag ./internal/stats ./internal/obs ./internal/link ./internal/coding ./internal/traffic

# Non-test Go lines per package under internal/ and cmd/, plus the total:
# the size figure a simplification reports before and after.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./internal/... ./cmd/... | \
	awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
		sub(/^witag\//, "", $$1); printf "%-28s %6d\n", $$1, n; total += n } \
		END { printf "%-28s %6d\n", "total", total }'
