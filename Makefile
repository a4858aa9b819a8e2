GO ?= go

## BENCH_BASELINE: the committed benchmark baseline the cycles gate
## compares against. This is the single source of truth — ci.yml consumes
## it through `make spmvbench`, so refreshing the baseline means writing
## the new file and changing this one line.
BENCH_BASELINE ?= BENCH_PR10.json
## BENCH_OUT: where spmvbench writes its measurement (CI overrides this to
## upload the result as an artifact).
BENCH_OUT ?= /tmp/spmvbench.json
## SOAK_COUNT: repetitions of the solver-session soak (CI uses 3 to vary
## the swap/iterate interleaving).
SOAK_COUNT ?= 1

.PHONY: check build test race bench bench-smoke bench-parallel bench-tune bench-synth bench-batch chaos fuzz soak fmt vet lint vulncheck spmvbench

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

## spmvbench: measure against the committed baseline (cycles-based gate,
## fails above +25%). Refresh with:
##   go run ./cmd/spmvbench -out $(BENCH_BASELINE)
spmvbench:
	$(GO) run ./cmd/spmvbench -out $(BENCH_OUT) -baseline $(BENCH_BASELINE)

## bench-parallel: sequential-vs-parallel tuning-search comparison. The two
## passes must produce identical labels; the wall-clock speedup is printed,
## not gated (every committed measurement is from a 1-CPU host — see
## BENCH_PR10.json "search").
bench-parallel:
	$(GO) run ./cmd/spmvbench -out /tmp/spmvbench-parallel.json -workers 8

## bench-tune: legacy-vs-cached+pruned tuning-search comparison, both
## passes single-threaded. Labels must pass the exact-equivalence check and
## the legacy pass must simulate >= 1.4x the launches of the cached+pruned
## pass (measured 4059 vs 2704 = 1.50x) — a deterministic count, identical
## on every host and unmoved by simulator speed-ups. The wall-clock speedup
## is ~3.4x because the launches the pruner skips are the most expensive
## ones; it is printed, not gated.
bench-tune:
	$(GO) run ./cmd/spmvbench -out /tmp/spmvbench-tune.json -workers 1 -min-tune-sim-ratio 1.4

## bench-synth: the parameter-space synthesis gate, entirely over modeled
## (machine-independent) quantities: the pool subspace must reproduce the
## legacy labels exactly, the synthesized space must model a strictly lower
## best-achievable geomean than the pool across the corpus, and certified
## pruning must hold the synth pass's simulated cells within 4x the pool's
## (see BENCH_PR10.json "synth" for the last committed measurement).
bench-synth:
	$(GO) run ./cmd/spmvbench -out /tmp/spmvbench-synth.json -max-synth-sims 4

## bench-batch: the fused multi-vector (SpMM) gate, entirely over modeled
## (machine-independent) quantities: the fused B=8 batch must produce
## byte-identical result vectors to 8 sequential single-vector runs, no
## vector may fall out of the fused path on the fault-free corpus, and the
## fused cycles-per-request must be <= 0.6x the unbatched path — the DRAM
## amortization spmvd's coalescer delivers (see BENCH_PR10.json "batch").
bench-batch:
	$(GO) run ./cmd/spmvbench -out /tmp/spmvbench-batch.json -batch-vectors 8 -max-batch-ratio 0.6
