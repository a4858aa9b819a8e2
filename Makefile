GO ?= go

## SOAK_COUNT: repetitions of the solver-session soak (CI uses 3 to vary
## the swap/iterate interleaving).
SOAK_COUNT ?= 1

.PHONY: check build test race bench bench-smoke chaos fuzz soak fmt vet lint vulncheck

## check: the full verification gate (fmt, vet, build, race tests, fuzz
## smoke, staticcheck + govulncheck when installed)
check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

## bench-smoke: the wall-clock benchmark's own smoke (BENCHMARK.json's
## command with --smoke): vets, tests and builds the nested bench/ module,
## then drives a real spmvd through a short pass of every workload.
bench-smoke:
	bash bench/run.sh --smoke

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadMTX -fuzztime=10s ./internal/mmio
	$(GO) test -run='^$$' -fuzz=FuzzMTXDifferential -fuzztime=10s ./internal/mmio
	$(GO) test -run='^$$' -fuzz=FuzzHTTPSpMV -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzHTTPSolve -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzScanNumber -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzConvert -fuzztime=10s ./internal/atof
	$(GO) test -run='^$$' -fuzz=FuzzAppendFloat -fuzztime=10s ./internal/atof
	$(GO) test -run='^$$' -fuzz=FuzzPlanDecode -fuzztime=10s ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzMulVecChecked -fuzztime=10s ./internal/sparse

## soak: the solver-session soak gate — concurrent sessions iterating
## under the race detector while a model hot-swap fires mid-traffic.
## Asserts no torn plan reads (monotonic per-session version transitions),
## swap lands only at iteration boundaries, and exactly one re-tune per
## distinct matrix through the plan cache's singleflight.
soak:
	$(GO) test -race -count=$(SOAK_COUNT) -run 'TestSolverSoak' -timeout 600s ./internal/server

## chaos: the chaos invariant suite — seeded fault storms (filesystem,
## tuning, panics, device faults) replayed against a live in-process
## spmvd under the race detector, including the retrain storm: the
## online learning loop raced against traffic with faults injected into
## its row store and training passes (the regret gate must hold and
## hot-swaps must stay torn-free). A failing seed number is a
## reproduction recipe: the injector is deterministic per seed.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/chaos

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

## lint / vulncheck: standalone runs; check.sh skips them gracefully when
## the binaries are missing, but these targets require them.
lint:
	staticcheck ./...

vulncheck:
	govulncheck ./...
