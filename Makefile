GO ?= go

.PHONY: build test vet fmt-check lint lint-fix lint-sarif race faults chaos fuzz-smoke serve-smoke serve-cache-smoke bench-test check bench bench-diff bench-all bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

vet:
	$(GO) vet ./...

# fmt-check fails listing every file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the simulator-invariant analyzers (see internal/analysis).
lint:
	$(GO) run ./cmd/wplint ./...

# lint-fix applies machine-applicable suggested fixes (idempotent).
lint-fix:
	$(GO) run ./cmd/wplint -fix ./...

# lint-sarif renders the findings as SARIF 2.1.0 (CI uploads this to
# code scanning).
lint-sarif:
	$(GO) run ./cmd/wplint -sarif wplint.sarif ./...

race:
	$(GO) test -race -timeout 15m ./...

# faults runs the fault-injection suites (deterministic injected
# panics, frozen producers, corrupt traces) under the race detector —
# the acceptance gate for the fault-tolerance layer (see DESIGN.md,
# "Failure model and degradation ladder").
faults:
	$(GO) test -race -timeout 10m -run 'Fault|Panic|Ladder|Watchdog|Corrupt|Truncat|Sweep|Degrad' \
		./internal/faultinject/ ./internal/simerr/ ./internal/tracefile/ \
		./internal/frontend/ ./internal/batch/ ./internal/sim/ ./internal/experiments/ \
		./internal/server/ ./cmd/wpsim/ ./cmd/wptrace/

# chaos runs the crash-safety acceptance gate under the race detector:
# kill runs at randomized (seeded) checkpoint boundaries, resume from
# the latest snapshot, and require results and reports byte-identical
# to uninterrupted runs (see DESIGN.md, "Checkpoint, resume, and
# cancellation").
chaos:
	$(GO) test -race -timeout 10m -run 'Checkpoint|Resume|Chaos|CancelNoLeak' \
		./internal/checkpoint/ ./internal/sim/ ./internal/frontend/ ./internal/experiments/ \
		./internal/server/ ./cmd/wpsim/ ./cmd/wptrace/

# fuzz-smoke runs each native fuzz target briefly — a coverage-guided
# smoke pass over the two binary decoders (trace files and snapshot
# containers), not a soak. CI runs it on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime 10s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 10s ./internal/checkpoint/

# serve-smoke builds the wpserved daemon and drives it end-to-end over
# HTTP: submit, checkpointed SIGTERM drain, restart, bit-identical
# resume (see DESIGN.md, "Serving layer"). The acceptance gate for the
# serving layer.
serve-smoke:
	$(GO) test -timeout 10m -count=1 -run 'TestServeSmoke' -v ./cmd/wpserved/

# serve-cache-smoke drives the result cache end-to-end over real HTTP:
# miss, hit, coalesced (via X-Wpserved-Cache), a restart over the same
# state directory served from the persistent tier, and byte-identity of
# every served body against a direct sim run (see DESIGN.md, "Result
# cache and submission coalescing").
serve-cache-smoke:
	$(GO) test -timeout 10m -count=1 -run 'TestServeCacheSmoke' -v ./cmd/wpserved/

# bench-test vets the benchmark module and runs its own tests (wpbench
# is a separate module, so the root ./... never reaches them): its
# wrappers keep canonical bytes identical for every technique, and its
# record schema matches BENCHMARK.json.
bench-test:
	cd wpbench && $(GO) vet ./... && $(GO) test ./...

# check is the full CI gate.
check: fmt-check build vet lint race faults chaos serve-smoke serve-cache-smoke bench-test

# bench runs the observability regression sweep: the fig1/fig4
# workload cross-section under every wrong-path technique with metrics
# and tracing enabled, recording instructions/sec per technique in
# BENCH_obs.json (schema: obsbench_test.go). CI uploads the record on
# every push so simulator or instrumentation slowdowns leave a trail.
bench:
	$(GO) test -run '^$$' -bench ObsSweep -benchtime 2x -obs-bench-out=BENCH_obs.json .
	cat BENCH_obs.json
	$(GO) test -run '^$$' -bench HotPath -benchtime 2x -hotpath-bench-out=BENCH_hotpath.json .
	cat BENCH_hotpath.json

# bench-diff compares the hot-path record against the committed
# pre-refactor baseline, failing if any technique regressed by more
# than 10% (see cmd/benchdiff).
bench-diff:
	$(GO) run ./cmd/benchdiff -fail-below 10 BENCH_hotpath_baseline.json BENCH_hotpath.json

# bench-all runs every benchmark in the module (slow; not a CI gate).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs a short fig1 sweep on the batch engine (one worker
# per core) and records the wall clock in BENCH_fig1.json — a coarse
# canary for batch-layer throughput regressions, not a calibrated
# benchmark. CI runs it on every push.
bench-smoke:
	$(GO) run ./cmd/wpexp -exp fig1 -quick -jobs 0 -bench-out BENCH_fig1.json
	cat BENCH_fig1.json
