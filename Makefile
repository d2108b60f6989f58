# Mirrors .github/workflows/ci.yml — `make ci` runs everything CI runs
# (except `lint`, which downloads its pinned tools and so needs network).

GO ?= go

# Pinned lint tooling — keep in sync with the `lint` job in ci.yml.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# Coordinator address used by the `work` convenience target.
COORDINATOR ?= http://127.0.0.1:9090

.PHONY: build test race chaos chaos-distrib bench bench-json bench-gate bench-module fmt vet fidelitylint lint verify serve work e2e-distrib harden e2e-harden ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrency-critical packages: the sharded campaign engine,
# the injector, the goroutine-tiled kernels (nn + tensor), and the distributed
# fabric (coordinator + workers exchanging leases over loopback HTTP). Slow:
# several minutes under -race.
race:
	$(GO) test -race -timeout 30m ./internal/campaign/... ./internal/inject/... ./internal/nn/... ./internal/tensor/... ./internal/distrib/...

# The chaos self-test harness: synthetic panics, hangs, and I/O errors
# injected into live campaigns; the supervisor must recover deterministically.
# Run twice under -race — the watchdog's abandoned-goroutine protocol and the
# resume paths are exactly where flakes would hide.
chaos:
	$(GO) test -race -timeout 30m -run 'Chaos' -count=2 ./internal/campaign/...

# The distribution-layer chaos + integrity suite (DESIGN.md §9): the seeded
# transport-chaos differential (drops, delays, duplicates, truncation, bit
# corruption, 5xx bursts at 1/2/4 workers must stay byte-identical to a
# clean run), result audits catching a lying worker, graceful drain,
# corrupted/legacy state recovery, and the lease-table dedup/stale/audit
# unit tests. Run twice under -race — retry and re-issue paths are exactly
# where flakes would hide.
chaos-distrib:
	$(GO) test -race -timeout 30m -count=2 -run 'TestChaos|TestDistribAudit|TestDistribDrain|TestCoordinatorState|TestLeaseTable' ./internal/distrib/

# One iteration of every benchmark — smoke, not measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Measure the paired benchmarks and export them as benchstat-compatible JSON
# artifacts (per-workload ns/op + allocs/op, speedups, and the geomean):
# replay-vs-full per injection (BENCH_inject.json), adaptive-vs-fixed
# experiment counts at equal Wilson CI (BENCH_adaptive.json), and
# hardened-vs-baseline FIT (BENCH_harden.json). BENCH_campaign.json is a
# frozen historical record of the retired optimized-vs-baseline campaign
# pairing and is no longer remeasured; campaign speed is measured in absolute
# units by `bash internal/bench/run.sh` (BENCHMARK.json).
bench-json:
	$(GO) test -run '^$$' -bench '^BenchmarkInjectionReplay$$' -benchmem . > bench_inject.txt
	$(GO) run ./cmd/benchjson -o BENCH_inject.json < bench_inject.txt
	@rm -f bench_inject.txt
	$(GO) test -run '^$$' -bench '^BenchmarkAdaptive$$' -timeout 60m . > bench_adaptive.txt
	$(GO) run ./cmd/benchjson -o BENCH_adaptive.json < bench_adaptive.txt
	@rm -f bench_adaptive.txt
	$(GO) test -run '^$$' -bench '^BenchmarkHarden$$' -timeout 60m . > bench_harden.txt
	$(GO) run ./cmd/benchjson -o BENCH_harden.json < bench_harden.txt
	@rm -f bench_harden.txt

# Regenerate the benchmark artifacts into *.new.json and gate them against
# the committed baselines: fail if any geomean speedup regressed by more
# than 10%. Mirrors CI's bench-trajectory job.
bench-gate:
	cp BENCH_inject.json BENCH_inject.base.json
	cp BENCH_adaptive.json BENCH_adaptive.base.json
	cp BENCH_harden.json BENCH_harden.base.json
	$(MAKE) bench-json
	$(GO) run ./cmd/benchjson/benchgate -old BENCH_inject.base.json -new BENCH_inject.json
	$(GO) run ./cmd/benchjson/benchgate -old BENCH_adaptive.base.json -new BENCH_adaptive.json
	$(GO) run ./cmd/benchjson/benchgate -old BENCH_harden.base.json -new BENCH_harden.json
	@rm -f BENCH_inject.base.json BENCH_adaptive.base.json BENCH_harden.base.json

# The benchmark program under internal/bench is its own Go module, so the
# root vet, fidelitylint and test targets never reach it. Check it here with
# the same offline settings internal/bench/run.sh builds it with.
BENCH_ENV := GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
bench-module:
	$(GO) build -o bin/fidelitylint ./cmd/fidelitylint
	cd internal/bench && $(BENCH_ENV) $(GO) vet ./...
	cd internal/bench && $(BENCH_ENV) $(GO) vet -vettool=$(CURDIR)/bin/fidelitylint ./...
	cd internal/bench && $(BENCH_ENV) $(GO) test ./...

fmt:
	@diff=$$(gofmt -l .); \
	if [ -n "$$diff" ]; then \
		echo "files need gofmt:"; echo "$$diff"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo's own invariant checkers (DESIGN.md §8): build the vettool from
# source — stdlib only, no network — and run it over every package. Fails on
# any unsuppressed finding, including malformed or unused //lint:allow
# comments.
fidelitylint:
	$(GO) build -o bin/fidelitylint ./cmd/fidelitylint
	$(GO) vet -vettool=$(CURDIR)/bin/fidelitylint ./...

# Static analysis + known-vulnerability scan, pinned so CI and local runs
# agree. fidelitylint runs first: it builds offline, so air-gapped runners
# still get invariant checking even when the network-fetched tools below are
# skipped. staticcheck/govulncheck download on first use (network required);
# when the tool itself cannot be fetched (offline/air-gapped runs), warn and
# skip rather than fail — real findings from a tool that did run still fail.
# Keep the error patterns in sync with the `lint` job in ci.yml.
OFFLINE_ERRS := dial tcp|no such host|i/o timeout|connection refused|TLS handshake timeout|proxyconnect
lint: fidelitylint
	@out=$$($(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... 2>&1); st=$$?; \
	echo "$$out"; \
	if [ $$st -ne 0 ] && echo "$$out" | grep -Eq '$(OFFLINE_ERRS)'; then \
		echo "lint: WARNING: staticcheck unavailable offline, skipping"; \
	elif [ $$st -ne 0 ]; then exit $$st; fi
	@out=$$($(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./... 2>&1); st=$$?; \
	echo "$$out"; \
	if [ $$st -ne 0 ] && echo "$$out" | grep -Eq '$(OFFLINE_ERRS)'; then \
		echo "lint: WARNING: govulncheck unavailable offline, skipping"; \
	elif [ $$st -ne 0 ]; then exit $$st; fi

# Run a distributed-campaign coordinator on :9090 with durable state; point
# one or more `make work` invocations (any machine) at it.
serve:
	$(GO) run ./cmd/fidelityd serve -state fidelityd.state.json $(SERVE_FLAGS)

# Run a worker against $(COORDINATOR).
work:
	$(GO) run ./cmd/fidelityd work -coordinator $(COORDINATOR) $(WORK_FLAGS)

# The distributed-fabric end-to-end suite under -race: byte-identical results
# at 1/2/4 workers, killed-worker lease recovery, coordinator restart.
e2e-distrib:
	$(GO) test -race -count=1 -run 'TestDistrib' ./internal/distrib/

# The closed hardening loop (README "Hardening", DESIGN.md §11): baseline
# campaign → golden-envelope clamps → re-campaign → recommendation, emitting
# a before/after FIT report as JSON. HARDEN_FLAGS overrides the defaults.
harden:
	$(GO) run ./cmd/fidelity harden $(HARDEN_FLAGS)

# The hardening end-to-end suite under -race: golden bit-identity with clamps
# installed, byte-identical hardened campaigns at 1/2/4 workers,
# interrupt/resume with the hardening checkpoint identity, and the full
# pipeline meeting the ASIL-D budget. Mirrors CI's harden-e2e job.
e2e-harden:
	$(GO) test -race -count=1 ./internal/harden/

# The fast pre-commit gate: format, vet, the repo's own invariant checkers,
# build, test. Everything here runs offline.
verify: fmt vet fidelitylint build test

ci: fmt vet fidelitylint build test race chaos chaos-distrib bench bench-module
