GO ?= go

.PHONY: build test vet fmt-check lint lint-fix lint-sarif race faults chaos fuzz-smoke serve-smoke serve-cache-smoke bench-test bench-smoke check bench-all

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

# bench-smoke runs the benchmark (wpbench, the repository's one
# throughput measurement) for five seconds on its served workload and
# fails unless the run is correct with no failed operations: every
# technique present, result digests stable across repetitions, and
# every served body byte-identical to a direct run. It checks
# correctness, not speed; speed claims are same-machine A/B runs of
# wpbench (see README.md, "Benchmark").
bench-smoke:
	@out=$$(bash wpbench/run.sh --workload served-mix --seed 1 --seconds 5 --trace 0) || exit 1; \
	last=$$(printf '%s\n' "$$out" | tail -n 1); echo "$$last"; \
	case "$$last" in \
	*'"correct":true'*'"failed":0,'*) ;; \
	*) echo "bench-smoke: benchmark run incorrect or with failed operations"; exit 1 ;; \
	esac

# check is the full CI gate.
check: fmt-check build vet lint race faults chaos serve-smoke serve-cache-smoke bench-test bench-smoke

# bench-all runs every benchmark in the module (slow; not a CI gate).
bench-all:
	$(GO) test -bench=. -benchmem ./...
