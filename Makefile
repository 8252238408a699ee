# Cloud4Home / VStore++ — common workflows.

GO ?= go

.PHONY: all build vet lint lint-syntactic lint-typed lint-dataflow lint-concurrency test race check bench perf perf-compare perf-pairs profile profile-process repro examples loc reach census clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# All four analyzer tiers in one process: the module is parsed and
# type-checked once, and every downstream engine (call graph, lock
# flow, def-use, concurrency) is computed once and shared across rules.
# Findings are fatal; see DESIGN.md "Static analysis & invariants".
lint:
	$(GO) run ./cmd/c4h-vet ./...

# Individual tiers, for bisecting a failure or a fast first signal.
# Each is a separate process, so running several re-loads the module;
# prefer plain `lint` for the full gate.

# Parse-only rules (wallclock, globalrand, lockdiscipline, layering): no
# type information, fastest tier.
lint-syntactic:
	$(GO) run ./cmd/c4h-vet -rule syntactic ./...

# Type-checks the module and runs the interprocedural rules
# (lockorder, guardedfield, mapiter, chanhold) over the call graph, and
# goroleak, which resolves launched methods through the type checker.
lint-typed:
	$(GO) run ./cmd/c4h-vet -rule typed ./...

# The SSA-lite def-use engine (detflow, guardescape, errsink,
# hotalloc) — taint propagation through per-function assignment graphs
# with one-call-deep summaries.
lint-dataflow:
	$(GO) run ./cmd/c4h-vet -rule dataflow ./...

# Goroutine-aware rules (atomicmix, spawnrace, condwait, arenaowner):
# spawn-site tracking, sync-edge modeling, and arena ownership on top
# of the lock-flow and def-use engines.
lint-concurrency:
	$(GO) run ./cmd/c4h-vet -rule concurrency ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Everything CI runs, in CI's order.
check: build vet lint test race

# One iteration of every benchmark, with the paper-reproduction metrics.
# The stream also lands, machine-readable, in BENCH_baseline.json.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... | $(GO) run ./cmd/c4h-benchjson -o BENCH_baseline.json

# The repository benchmark (BENCHMARK.json, cmd/c4h-perf/README.md): all
# four workloads once per seed, end-to-end metrics, into one .jsonl that
# `make perf-compare` reads. ~50 s per seed on a 2-core box.
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
PERF_OUT ?= perf.jsonl
perf:
	@rm -f $(PERF_OUT)
	@for w in home-trace city-meta home-process daemon-loopback; do \
		for s in $(SEEDS); do \
			echo "c4h-perf $$w seed $$s" >&2; \
			$(GO) run ./cmd/c4h-perf -workload $$w -seed $$s >> $(PERF_OUT) || exit 1; \
		done; \
	done
	@echo "wrote $(PERF_OUT)"

# Declared bounds on medians, no failed op, and equal virt_digest/client_*
# on the simulated workloads: `make perf-compare A=parent.jsonl B=change.jsonl`.
perf-compare:
	$(GO) run ./cmd/c4h-perf -compare $(A) $(B)

# Alternating parent/change pairs for a BENCH_pr<N>.json:
# `make perf-pairs PARENT=<rev> [W=<workload>] [SEEDS="1 2 3"]`. PARENT is
# built from a `git archive` of that revision, this tree as it stands;
# each side runs once per seed from its own checkout (daemon-loopback
# builds the c4hd it spawns there), the parent first on odd seeds and the
# change first on even ones, into parent.jsonl and change.jsonl.
PAIRS_DIR ?= .bench_build/pairs
W ?= home-trace city-meta home-process daemon-loopback
perf-pairs:
	@test -n "$(PARENT)" || { echo "usage: make perf-pairs PARENT=<rev> [W=<workload>]" >&2; exit 2; }
	@rm -rf $(PAIRS_DIR) && mkdir -p $(PAIRS_DIR)/parent
	@git archive $(PARENT) | tar -x -C $(PAIRS_DIR)/parent
	@cd $(PAIRS_DIR)/parent && $(GO) build -o c4h-perf ./cmd/c4h-perf
	@$(GO) build -o $(PAIRS_DIR)/c4h-perf ./cmd/c4h-perf
	@rm -f parent.jsonl change.jsonl
	@out=$$PWD; for w in $(W); do \
		for s in $(SEEDS); do \
			echo "c4h-perf $$w seed $$s" >&2; \
			parent() { (cd $(PAIRS_DIR)/parent && ./c4h-perf -workload $$w -seed $$s) >> $$out/parent.jsonl; }; \
			change() { $(PAIRS_DIR)/c4h-perf -workload $$w -seed $$s >> $$out/change.jsonl; }; \
			if [ $$((s % 2)) -eq 1 ]; then parent && change; else change && parent; fi || exit 1; \
		done; \
	done
	@echo "wrote parent.jsonl change.jsonl; compare with: make perf-compare A=parent.jsonl B=change.jsonl"

# Profile the data-plane scale-up sweep: CPU + allocation profiles and a
# runtime execution trace. See DESIGN.md ("Hot-path performance") for
# how to read them.
profile:
	$(GO) run ./cmd/c4h-bench -exp scaleup -cpuprofile cpu.prof -memprofile mem.prof -trace trace.out
	@echo "inspect with:"
	@echo "  go tool pprof -top cpu.prof"
	@echo "  go tool pprof -top -sample_index=alloc_space mem.prof"
	@echo "  go tool trace trace.out"

# Profile the materialised process path — real payload bytes through
# objstore, core and the services kernels, which the sparse scale-up sweep
# above never touches: two clients on one virtual clock cycling
# fdet/frec/x264 over a 1 MB image, at the owner and decided.
profile-process:
	$(GO) test -run '^$$' -bench BenchmarkFetchProcessTwoSessions -benchtime 600x \
		-cpuprofile cpu.prof -memprofile mem.prof -o core.test ./internal/core
	@echo "inspect with:"
	@echo "  go tool pprof -top core.test cpu.prof"
	@echo "  go tool pprof -top -sample_index=alloc_space core.test mem.prof"

# Regenerate every table and figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/c4h-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/surveillance
	$(GO) run ./examples/mediaconv
	$(GO) run ./examples/neighborhood

# Non-test Go lines per package (comments and blanks included) — the
# number simplicity PRs quote and ROADMAP tracks.
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... | while read dir pkg; do \
		printf '%6d %s\n' "$$(cat /dev/null $$(ls $$dir/*.go | grep -v _test.go) | wc -l)" "$$pkg"; \
	done

# Reachability census (ROADMAP item 6): every package's tests but
# internal/analysis's, and every example run once from a `go build
# -cover` binary, with coverage counted over the whole module, then
# the functions nothing reaches (0.0 %) outside internal/analysis, cmd/
# and examples/, and the module's total. A report, not a gate; ~30 s.
reach:
	@$(GO) test -count=1 -coverpkg=./... -coverprofile=reach.out $$($(GO) list ./... | grep -v '/internal/analysis$$')
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/cov" && \
	for ex in examples/*/; do \
		$(GO) build -cover -coverpkg=./... -o "$$tmp/example" ./$$ex && \
		GOCOVERDIR="$$tmp/cov" "$$tmp/example" > /dev/null || exit 1; \
	done && \
	$(GO) tool covdata textfmt -i="$$tmp/cov" -o "$$tmp/examples.out" && \
	tail -n +2 "$$tmp/examples.out" >> reach.out
	@$(GO) tool cover -func=reach.out | grep -vE '^cloud4home/(internal/analysis|cmd|examples)/' | awk '$$NF == "0.0%" || $$1 == "total:"'

# Synchronisation left in the simulated packages, whose state the
# clock's turn owns: per package, the sync.Mutex/RWMutex fields, the
# .Lock()/.RLock() calls and the atomic. uses in its non-test files,
# counted with exactly these greps. A report, not a gate.
SIM_PKGS := core netsim kv monitor objstore machine cloudsim overlay
census:
	@printf '%-10s %7s %10s %7s\n' package mutexes lock-calls atomics
	@for p in $(SIM_PKGS); do \
		f=$$(ls internal/$$p/*.go | grep -v _test.go); \
		printf '%-10s %7d %10d %7d\n' $$p \
			"$$(cat $$f | grep -hE 'sync\.(RW)?Mutex' | wc -l)" \
			"$$(cat $$f | grep -hoE '\.R?Lock\(\)' | wc -l)" \
			"$$(cat $$f | grep -hoE 'atomic\.' | wc -l)"; \
	done

clean:
	$(GO) clean ./...
