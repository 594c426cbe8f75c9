# Local entry points mirroring the CI jobs (.github/workflows/ci.yml),
# so "make lint test" locally checks exactly what CI checks.

GO ?= go

.PHONY: all build benchmark-check test test-full sim-digests sim-cmp pair bench loadtest lint examples docs-check torture fuzz-short

all: lint build benchmark-check test

# The layout comments in reactive reason about arm64's 64-byte lines as
# well as amd64's, and its structs, reordered by hand, hold 64-bit
# atomics that must still build where pointers are 4 bytes: vet reactive
# for arm64 and build it for 386.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) vet ./reactive/...
	GOARCH=386 $(GO) build ./reactive/...

# benchmark/ is a module of its own (replace repro => ../), so ./... in
# build, test and lint skips it: this keeps every identifier it imports
# from the root module compiling, and runs its harness unit tests (< 1 s).
benchmark-check:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# The CI test job: race detector on, slow experiment tables skipped;
# then the no-lost-wakeup tests of Mutex and the shared two-phase wait,
# Map's linearizability, concurrent-Range, slab-moving and dense-store
# reference runs, and RWMutex's transient reader-add tests, repeated ten
# times under -race (about 10 s on two cores), since one pass rarely
# lands in the announce/release, load-to-CAS, mid-copy, mid-move,
# swap-remove or add-to-undo window they guard; plus the portable affinity-fallback build tag
# (including the cancellation/handoff stress under -race, so the
# portable waiter paths can't rot, and the FetchOp/Counter suites,
# whose cell selection the stripe hash changes most).
test:
	$(GO) test -race -short ./...
	$(GO) test -race -short -count=10 -run 'NoLostWakeups|HandoffNotLost|MutexCancellationStress|GrantVsCancel|GrantVsAbandon|TryAfterAnnounce|NilDoneNeverAborts|MapLinearizable|MapRangeModeFlips|MapEpochSlabMoves|MapStoreMatchesReference|RWMutexTransient' ./reactive/ ./reactive/internal/waitq/
	$(GO) build -tags reactive_noprocpin ./...
	$(GO) test -tags reactive_noprocpin -short ./reactive/...
	$(GO) test -tags reactive_noprocpin -race -short -run 'Ctx|Cancel|Handoff|Stress|Epoch|GOMAXPROCS|Misuse|Panic|Invariants|Fuzz|Map|FetchOp|Counter' ./reactive/...

# The CI examples job: every example vets clean and runs to completion,
# and so do the commands as a user starts them — lockstat (which no test
# executes) at one lock and two fetch-and-op protocols (the reactive one
# at 12 contenders, where it changes protocol), reactsim over the ablation
# group, waitsim with its one tool-specific flag.
examples:
	$(GO) vet ./examples/...
	@set -e; for d in examples/*/; do echo "== $$d"; timeout 120 $(GO) run ./$$d > /dev/null; done
	$(GO) run ./cmd/lockstat -kind lock -proto reactive -procs 1,4 -iters 8
	$(GO) run ./cmd/lockstat -kind fop -proto combining-tree -procs 1,4 -iters 8
	$(GO) run ./cmd/lockstat -kind fop -proto reactive -procs 1,12 -iters 8
	$(GO) run ./cmd/reactsim -exp ablations
	$(GO) run ./cmd/waitsim -exp profiles -hist > /dev/null

# The tier-1 gate and CI's tier1 job: every test at full scale, the
# slow experiment specs and TestRegistryDigestsGolden over the whole
# registry included (about a minute on two cores).
test-full:
	$(GO) build ./... && $(GO) test ./...

# Rewrite internal/experiments/testdata/registry_digests.json from this
# build's tables. Only for a change that is meant to move a simulated
# table; one that is meant to cost host time alone must pass unchanged.
sim-digests:
	$(GO) test ./internal/experiments -run 'TestRegistryDigestsGolden$$' -count=1 -update

# Compare simulated output with revision REV, for a change meant to keep
# every simulated cycle or every modal decision: internal/sim, machine,
# memsys, internal/core, internal/waiting, and reactive/modal, whose
# Decider the simulated reactive algorithms vote through (for
# reactive/modal, also run TestRegistryDigestsGolden, which pins the
# native-*-trace and native-fop-policies tables that drive its Engine).
# Build reactsim, waitsim and lockstat at REV (a
# `git archive` export in a temp dir) and in this tree, then cmp
# `reactsim -exp all -json`, `waitsim -exp all -json`, and lockstat's
# 32-processor sweep of the reactive lock and fetch-and-op and of the MCS
# queue and combining tree under them. Fails if any output differs. Not
# a CI job: CI has no second revision checked out. About two and a half
# minutes on two cores, most of it reactsim at Quick sizes.
sim-cmp:
	@test -n "$(REV)" || { echo "usage: make sim-cmp REV=<rev>"; exit 2; }
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	mkdir "$$d/src" "$$d/rev" "$$d/here"; \
	git archive "$(REV)" | tar -x -C "$$d/src"; \
	for c in reactsim waitsim lockstat; do \
		$(GO) build -C "$$d/src" -o "$$d/rev/$$c" ./cmd/$$c; \
		$(GO) build -o "$$d/here/$$c" ./cmd/$$c; \
	done; \
	for s in rev here; do \
		b="$$d/$$s"; echo "sim-cmp: running $$s"; \
		"$$b/reactsim" -exp all -json > "$$b/reactsim.json"; \
		"$$b/waitsim" -exp all -json > "$$b/waitsim.json"; \
		for k in lock:reactive fop:reactive lock:mcs-queue fop:combining-tree; do \
			"$$b/lockstat" -kind "$${k%%:*}" -proto "$${k#*:}" -machine 32 -procs 1,2,4,12,16,24,32 -iters 80 \
				> "$$b/lockstat-$${k%%:*}-$${k#*:}.txt"; \
		done; \
	done; \
	bad=0; for f in reactsim.json waitsim.json $$(cd "$$d/here" && ls lockstat-*.txt); do \
		if cmp -s "$$d/rev/$$f" "$$d/here/$$f"; then echo "identical: $$f"; else echo "DIFFERS:   $$f"; bad=1; fi; \
	done; exit $$bad

# Paired end-to-end runs against revision REV, the evidence for a claimed
# gain or a kept bound. Export REV with `git archive` into a temp dir (as
# sim-cmp does); then, for each of PAIRS pairs and each of WORKLOADS, run
# benchmark/run.sh --trace 0 in both trees on the pair's own seed
# (SEED+i; SEED defaults to the clock, so every invocation runs fresh
# seeds), alternating which tree runs first, and append each record with
# --json to $(PAIR_OUT)/rev.json and $(PAIR_OUT)/here.json. Last, print
# `reactive-bench -agree rev.json here.json`: per workload and metric,
# both medians, how much worse this tree is, and the wider quartile
# spread, against BENCHMARK.json's bounds. REV=HEAD compares the
# uncommitted tree with its parent. About PAIRS × workloads × 2 ×
# (SECONDS + 15) seconds, plus a first build in the export. Not a CI job.
PAIRS ?= 10
SECONDS ?= 36
SEED ?= $(shell date +%s)
WORKLOADS ?= uncontended contended-reads oversubscribed-writes
PAIR_OUT ?= .pair
pair:
	@test -n "$(REV)" || { echo "usage: make pair REV=<rev> [WORKLOADS=...] [PAIRS=10] [SECONDS=36] [SEED=n]"; exit 2; }
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	git archive "$(REV)" | tar -x -C "$$d"; \
	mkdir -p "$(PAIR_OUT)"; out="$$(cd "$(PAIR_OUT)" && pwd)"; rm -f "$$out/rev.json" "$$out/here.json"; \
	for i in $$(seq 0 $$(($(PAIRS) - 1))); do \
		seed=$$(($(SEED) + i)); \
		for w in $(WORKLOADS); do \
			if [ $$((i % 2)) = 0 ]; then order="rev here"; else order="here rev"; fi; \
			for s in $$order; do \
				if [ $$s = rev ]; then root="$$d"; else root=.; fi; \
				echo "pair: $$((i + 1))/$(PAIRS) $$w seed $$seed $$s"; \
				bash "$$root/benchmark/run.sh" --workload "$$w" --seed "$$seed" --seconds $(SECONDS) --trace 0 --json "$$out/$$s.json" > /dev/null; \
			done; \
		done; \
	done; \
	echo "pair: A = $(REV) ($$out/rev.json), B = this tree ($$out/here.json)"; \
	.bench_build/reactive-bench -agree "$$out/rev.json" "$$out/here.json"

# The CI bench job: one pass over every benchmark, kept as bench.txt —
# Go benchmark text, benchstat's own input. Every row is host ns/op —
# one per registered experiment, then the BenchmarkNative* rows — and
# one 1x pass of them is a smoke run, not a measurement
# (for a local A/B: go test -bench=Native -count=10 on each side, into
# benchstat; for "did a primitive get slower": bash benchmark/run.sh).
bench:
	bash -o pipefail -c '$(GO) test -bench=. -benchtime=1x -run="^$$" . | tee bench.txt'

# The CI loadtest job: the open-loop service-scale harness. Smoke the
# loadsvc package (short mode keeps it seconds-scale) and regenerate
# bench_tail.json across all scenarios. It fails on what it can decide:
# a loadsvc test, a worker stranded past loadgen's -guard timeout, a lost
# wakeup or a request error. The quantiles themselves are an artifact,
# not a gate — a single run's p99 is queueing noise, and a timing gate
# waits for paired runs over primitive-attributable rows (ROADMAP item 4).
loadtest:
	$(GO) test -short ./internal/loadsvc/
	$(GO) run ./cmd/loadgen -scenario all -duration 2s -json bench_tail.json

# The CI torture job: the locktorture-style scenario matrix with the
# fault-injection hooks compiled in (reactive_chaos) and the race
# detector on. The dump/cmp pair pins the determinism contract — the
# same base seed must yield byte-identical schedules across separate
# invocations (the dumps go to a temp dir, not the checkout) — and a
# failing case leaves torture_repro_<case>.json in the working directory
# for `go run ./cmd/torture -replay`.
TORTURE_OPS ?= 5000
torture:
	$(GO) vet -tags reactive_chaos ./...
	$(GO) test -tags reactive_chaos -race -short ./reactive/... ./internal/torture/
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) run -tags reactive_chaos ./cmd/torture -dump > "$$d/a.json"; \
	$(GO) run -tags reactive_chaos ./cmd/torture -dump > "$$d/b.json"; \
	cmp "$$d/a.json" "$$d/b.json" && echo "torture: schedule dumps identical"
	$(GO) run -tags reactive_chaos -race ./cmd/torture -workers 8 -ops $(TORTURE_OPS) -out .

# Native fuzz targets: first replay the checked-in seed corpus as
# ordinary tests (what every `go test` run does), then fuzz each target
# briefly so CI keeps exploring fresh interleavings.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run Fuzz ./reactive/internal/waitq/ ./reactive/modal/
	$(GO) test -run '^$$' -fuzz FuzzWaitqOps -fuzztime $(FUZZTIME) ./reactive/internal/waitq/
	$(GO) test -run '^$$' -fuzz FuzzEngineTransitions -fuzztime $(FUZZTIME) ./reactive/modal/

# The grep keeps detection spelled once: which observation votes for
# which edge is the tables' On column behind modal.Engine.Observe, so a
# hand-wired Vote call in the primitives or the experiment traces
# is a second spelling coming back. The second grep does the same for the
# simulator: the TTS spin, the queue entry and the protocol changes are
# internal/core/lockpair.go's, so the two reactive algorithms built on it
# hold no fetch&store and one test&set (the lock's optimistic first try).
# The next two do it for Chapter 4: there is one waiting algorithm, so
# nothing can type-switch on it (always-spin is Lpoll == waiting.Forever),
# and the waitBenches table in internal/experiments/waitexp.go is the only
# place a waiting benchmark is constructed. The next two keep the grace
# period in the epoch kernel (Kernel.Wait counts it, so no primitive
# calls a Grace) and phase one of the native two-phase wait inside
# waitq.Queue.Wait (modal.Poll is gone). The last two keep one spin/park
# engine and one poll phase: spinParkTable is Mutex's alone (RWMutex and
# Map run it through their embedded Mutex), and no primitive polls in a
# loop of its own and then calls Wait with a zero budget. The last keeps
# one native case table: bench_test.go's runNative is its one
# RunParallel call, so a second one is a hand-written native row coming
# back beside the nativeRows table. The last keeps one short-term spin
# word: a CompareAndSwap(0, 1) in package reactive outside
# waitq/lock.go is a hand-rolled test-and-set lock coming back, and
# Backoff is waitq's, not modal's. The last keeps one construction step:
# an .apply( call in package reactive outside options.go is a
# constructor folding its options beside construct. The last keeps
# snapshots flat: Map.Range appends the pairs to one slice, so a
# maps.Clone( in non-test reactive code is a rehashing snapshot coming
# back. The next keeps one locked table in Map: ModeLocked is the
# sharded store at one partition, so a map[K]V field in reactive/map.go,
# or a map[K]int32 or []entry[K, V] field other than mapStore's idx and
# pairs, is a second one coming back. The last keeps every Map table
# walked through its dense array: Range, the transitions and
# CheckInvariants walk mp.slab and each store's pairs, so a range over an
# index (mp.cells, a store's idx) or any maps. call in reactive/map.go is
# a hash-map walk coming back.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '\.Vote\(' reactive/*.go internal/experiments/*.go | grep -v _test.go)"; if [ -n "$$out" ]; then echo "hand-wired detection (use Engine.Observe):"; echo "$$out"; exit 1; fi
	@out="$$(cd internal/core && grep -n -e 'FetchAndStore(' -e 'TestAndSet(' reactivelock.go reactivefop.go)"; \
	if echo "$$out" | grep -q 'FetchAndStore(' || [ "$$(echo "$$out" | grep -c .)" -gt 1 ]; then echo "TTS/queue protocol re-spelled outside lockpair.go:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn '\.(\*waiting\.' --include='*.go' .)"; if [ -n "$$out" ]; then echo "type assertion on the one waiting algorithm (compare Lpoll instead):"; echo "$$out"; exit 1; fi
	@out="$$(grep -ohE 'apps\.(JacobiJstr|FutureStream|FutureTree|NewJacobiBar|NewCGrad|FibHeap|MutexBench|CountNet)\b' $$(ls internal/experiments/*.go | grep -v _test.go) | sort | uniq -d)"; \
	if [ -n "$$out" ]; then echo "waiting benchmark constructed a second time (use the waitBenches row):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE '\.Grace\(' reactive/*.go | grep -v _test.go)"; if [ -n "$$out" ]; then echo "grace period counted outside the epoch kernel (Kernel.Wait counts it):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn 'modal\.Poll' --include='*.go' .)"; if [ -n "$$out" ]; then echo "modal.Poll re-spelled (phase one is waitq.Queue.Wait's):"; echo "$$out"; exit 1; fi
	@out="$$(grep -Hn 'spinParkTable' $$(ls reactive/*.go | grep -v -e _test.go -e '^reactive/reactive.go$$'))"; if [ -n "$$out" ]; then echo "spinParkTable outside reactive.go (the spin/park table is Mutex's alone):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn --include='*.go' '\.Wait(0,' reactive | grep -v _test.go)"; if [ -n "$$out" ]; then echo "zero-budget Wait (phase one belongs to waitq.Queue.Wait):"; echo "$$out"; exit 1; fi
	@out="$$(grep -n 'RunParallel(' bench_test.go)"; if [ "$$(echo "$$out" | grep -c .)" -gt 1 ]; then echo "hand-written native row (add it to nativeRows; runNative is the one RunParallel):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn --include='*.go' -e 'CompareAndSwap(0, 1)' reactive | grep -v -e _test.go -e '^reactive/internal/waitq/lock.go:'; grep -rn --include='*.go' 'modal\.Backoff' .)"; if [ -n "$$out" ]; then echo "hand-rolled spin word or modal.Backoff (use waitq.Lock and waitq.Backoff):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn --include='*.go' '\.apply(' reactive | grep -v -e _test.go -e '^reactive/options.go:')"; if [ -n "$$out" ]; then echo "options folded outside construct (every constructor calls construct):"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn --include='*.go' 'maps\.Clone(' reactive | grep -v _test.go)"; if [ -n "$$out" ]; then echo "maps.Clone in reactive (a snapshot appends to one slice; see Map.snapshot):"; echo "$$out"; exit 1; fi
	@out="$$(awk '/^type /{t=$$2} /^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]+(map\[K\](V|int32)|\[\]entry\[K, V\])[[:space:]]*(\/\/.*)?$$/ && !(t ~ /^mapStore\[/ && ($$1 == "idx" && $$2 == "map[K]int32" || $$1 == "pairs" && $$2 == "[]entry[K,")){print FILENAME":"FNR": "$$0}' reactive/map.go)"; if [ -n "$$out" ]; then echo "a second locked table in Map (ModeLocked is the sharded store at one partition; use mapStore):"; echo "$$out"; exit 1; fi
	@out="$$(grep -nE 'range[[:space:]]+([^[:space:]]*\.)?(cells|idx)\b|\bmaps\.[A-Za-z]+\(' reactive/map.go | grep -vE '^[0-9]+:[[:space:]]*//')"; if [ -n "$$out" ]; then echo "a Map index walked (walk the dense array: mp.slab, a store's pairs):"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The CI docs job: documentation that tests can check. The experiment
# index in EXPERIMENTS.md must stay in lockstep with the registered
# specs, the telemetry package must stay formatted and vetted, and
# every godoc Example (the runnable half of the docs) must still
# produce its documented output.
docs-check:
	$(GO) test -run TestExperimentIndexInSync ./internal/experiments
	$(GO) test -run TestTortureScenarioTableInSync ./internal/torture
	@out="$$(gofmt -l reactive/reactivehttp)"; if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./reactive/reactivehttp
	$(GO) test -run Example ./...
