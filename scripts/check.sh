#!/bin/sh
# Full verification gate: formatting, vet, build, race-enabled tests, the
# nested bench/ module's vet and tests, a 1-iteration benchmark smoke, short
# fuzz smokes on the Matrix Market
# parser (alone, and against its reference with the entry lines cut into
# pieces of 7 B, 64 B and the default size), the spmvd request decoders
# (SpMV and solver sessions) and the request scanner's number path (against
# its reference), the decimal conversion both decoders share (against
# strconv), the request scanner's and the upload reader's allocation
# gates (the reader's at GOMAXPROCS 1, 2 and 4), the simulator's bit-identity (golden digests, the device
# fingerprint golden, both gathers against their references, the search's
# accounting-only launch against the full one), output verification against its reference, the error-response
# golden and the one-error-writer gate, the warm request's one walk (the
# fused validating reference against Validate, by test and fuzz smoke; the
# execution-error golden; DotRows against its pre-change copy; replayed bins
# served from the reference and armed faults still verified), the modeled
# scoreboard golden, the tuning search's equivalence to the legacy pass
# (cost cache, analytic prune and launch cutoff, worker-invariant cache
# counts, the batch search against per-matrix searches) and the training
# corpus digests, the structure-only labelling path (value-free corpora
# against valued ones, the search on both, the bootstrap's allocation
# budget, the holdout regret and format-selection goldens), the solver trajectories golden, every stepper's Step
# against its frozen body, per-Step allocation and GMRES session budget
# gates, plus staticcheck and govulncheck.
# Run via `make check` or directly. Fails on the first broken step.
#
# staticcheck and govulncheck are skipped with a notice when the binaries
# are not installed — except in CI (CI=true), where missing linters are a
# hard failure so the gate cannot silently weaken.
set -eu

cd "$(dirname "$0")/.."

# require_or_skip TOOL: succeed if TOOL is on PATH; otherwise skip locally,
# fail in CI.
require_or_skip() {
    if command -v "$1" >/dev/null 2>&1; then
        return 0
    fi
    if [ "${CI:-}" = "true" ]; then
        echo "$1 not installed but CI=true; install it in the workflow" >&2
        exit 1
    fi
    echo "   ($1 not installed; skipping locally — CI always runs it)"
    return 1
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# The replay memo is shared by every request of a Framework: repeat the
# equivalence and racing-first-requests tests so the scheduler gets several
# interleavings of the cold-cell fill.
echo "== replay equivalence + race (count=3)"
go test -race -count=3 -run 'Replay' ./internal/core

# The simulator's host cost may change, its modeled behaviour may not: the
# two golden digests pin every stat, counter and output bit (they skip
# themselves under -race, so the run above never executes them), and the
# device fingerprint golden pins the key of every cached cost and replayed
# launch. The differential tests hold Gather to the quadratic reference
# dedup, the run gather to Gather over the expanded lanes, and the tuning
# search's accounting-only launch (Kernel.Account) to Kernel.Run's stats and
# counters.
echo "== simulator bit-identity (golden digests + device fingerprint + gather and accounting references)"
go test -count=1 -run 'TestWalkerGoldenDigest|TestSimulatorGoldenOddDevices|TestAccountMatchesRun' ./internal/kernels
go test -count=1 -run 'TestGatherMatchesReference|TestGatherRunsMatchesLaneGather|TestDeviceFingerprintGolden' ./internal/hsa

# The tuner's modeled scoreboard: every case's cycles, seconds and counters,
# the legacy/pool/synth search counts and the fused batch numbers, pinned
# exactly. It skips itself under -race too.
echo "== modeled scoreboard golden"
go test -count=1 -run 'TestModeledScoreboardGolden' ./internal/core

# The tuning search's cost layer may skip, replay or cut short simulations,
# never move a label: cached, pruned and batched searches against the legacy
# exhaustive pass, in both kernel spaces; cache counts at every worker count;
# a batch search (SearchAll) against per-matrix searches, labels and cache
# counts; the launch cutoff's bounds against uncut launches; a prune-off
# search that must not replay the bounds a pruning search cached; and the
# digests of the corpora the searches label, which the parallel corpus
# build must not move. The search reads structure only: value-free corpora
# must equal the valued ones but for Val, the search, features and plan
# fingerprint of a value-free copy must equal the valued matrix's, regret
# must skip matrices the oracle runs in no time, and the bootstrap (pinned
# model versions, pool and synth) must stay within its allocation budget,
# with the holdout regret and AutoSelect's picks pinned. Without -race (the
# sweep above runs most of these slowly, and the cutoff test and the
# allocation budget skip under it).
echo "== search equivalence"
go test -count=1 -run 'TestSearchCachePruneEquivalence|TestSearchDefaultsMatchLegacy|TestSynthSpaceEquivalenceAndImprovement|TestSearchBatchedWidth|TestSearchCostStatsWorkerDeterminism|TestSearchAllWorkerDeterminism|TestLaunchCutoffSound|TestPruneOffSearchIgnoresCachedBounds|TestSearchIgnoresValues|TestEvaluateRegretSkipsZeroTimeMatrices' ./internal/core
go test -count=1 -run 'TestCorpusDigestGolden|TestValueFreeCorpusMatchesCorpus' ./internal/matgen
go test -count=1 -run 'TestAutoSelectGolden' ./internal/formats
go test -count=1 -run 'TestBootstrapModelVersion|TestHoldoutRegretGolden|TestBootstrapAllocBudget' ./cmd/spmvd

# Every error path of the API — status, Content-Type, Retry-After and body
# bytes — is pinned against the server before its request lifecycle was
# unified; a failure means the wire contract moved, not that the constants
# need regenerating.
echo "== error responses golden"
go test -count=1 -run 'TestErrorResponsesGolden' ./internal/server

# spmvd has one error writer: an "error": JSON literal in non-test server
# code may appear only inside writeError, so no handler hand-writes a body.
echo "== one error writer"
stray=$(find internal/server -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec awk '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    /"error":/ && fn !~ /\) writeError\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$stray" ]; then
    echo "error bodies written outside writeError:" >&2
    echo "$stray" >&2
    exit 1
fi

# The root package aliases core.Framework, so its method set is public API:
# Plan decides, ExecutePlan*Opts runs, and nothing else does either.
echo "== framework surface lock"
go test -run 'FrameworkSurface' ./internal/core

# bench/ is a module of its own (it imports internal/... through the root
# module's path), so ./... above never reaches it: an internal rename that
# breaks spmvload would otherwise surface only when the benchmark runs.
echo "== bench module (go vet + go test)"
go -C bench vet ./...
go -C bench test ./...

echo "== bench smoke (1 iteration)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "== fuzz smoke (FuzzReadMTX, 10s)"
go test -run='^$' -fuzz=FuzzReadMTX -fuzztime=10s ./internal/mmio

echo "== fuzz smoke (FuzzMTXDifferential, 10s)"
go test -run='^$' -fuzz=FuzzMTXDifferential -fuzztime=10s ./internal/mmio

echo "== fuzz smoke (FuzzHTTPSpMV, 10s)"
go test -run='^$' -fuzz=FuzzHTTPSpMV -fuzztime=10s ./internal/server

echo "== fuzz smoke (FuzzHTTPSolve, 10s)"
go test -run='^$' -fuzz=FuzzHTTPSolve -fuzztime=10s ./internal/server

echo "== fuzz smoke (FuzzPlanDecode, 10s)"
go test -run='^$' -fuzz=FuzzPlanDecode -fuzztime=10s ./internal/plan

# The request scanner's one-walk number path against the two-walk one it
# replaced (number_test.go): same verdict, cursor and bits.
echo "== fuzz smoke (FuzzScanNumber, 10s)"
go test -run='^$' -fuzz=FuzzScanNumber -fuzztime=10s ./internal/server

# The decimal conversion both decoders share (internal/atof) against
# strconv.ParseFloat: whatever it converts, strconv converts to the same bits.
echo "== fuzz smoke (FuzzConvert, 10s)"
go test -run='^$' -fuzz=FuzzConvert -fuzztime=10s ./internal/atof

# The request scanner's memory contract, as counts a shared runner cannot
# flake: an n-number vector decodes in <= 4 allocations and <= 1.25 x 8n
# bytes, a megabyte of commas is rejected having allocated < 64 KiB, and a
# vector past maxScratch leaves no scratch above it in the pool.
echo "== decode allocation gate"
go test -count=1 -run 'DecodeAllocs|TestDecodeScratchBounded' ./internal/server

# verifyBin takes equal values first; its pre-shortcut copy is the oracle.
echo "== output verification against its reference"
go test -count=1 -run 'TestVerifyBinMatchesReference' ./internal/core

# A warm request walks the matrix once: the reference product, whose first
# vector also validates the matrix (MulVecChecked), and whose rows every
# replayed bin copies instead of recomputing and verifying them. The fused
# check must equal Validate, error text and all, and which error wins must
# not move; DotRows (a simulated launch's output) keeps its pre-change
# copy's bits; a replayed bin serves the reference's bits at no extra
# allocation, and a fault armed on a warm plan still simulates and reaches
# the verified fallback chain.
echo "== one walk per warm request"
go test -count=1 -run 'TestMulVecCheckedMatchesValidate' ./internal/sparse
go test -count=1 -run 'TestExecutePlanErrorsGolden' ./internal/core
go test -count=1 -run 'TestDotRowsMatchesReference' ./internal/kernels
go test -count=1 -run 'TestReplayServesReferenceBits|TestReplayEqualsSimulate|TestReplayArmedFaultsBypassMemo|TestExecutePlanWarmAllocs' ./internal/core
go test -count=1 -run 'TestWarmSessionFaultReachesVerifiedChain' ./internal/server

# Each batch solver is its stepper run to completion: the trajectories golden
# pins iterations, residual bits, error text and the bits of x of every batch
# solve and PageRank run; every stepper's Step allocates nothing; every
# stepper's Step keeps the bits of a frozen copy of its body (CG, Jacobi,
# GMRES, power, PageRank); one Step of each stepper on the benchmark's
# Poisson grid runs once as a benchmark smoke; and a GMRES session stops at
# its iteration budget.
echo "== one implementation per solver"
go test -count=1 -run 'TestSolverTrajectoriesGolden|ZeroAllocPerStep|TestCGStepperBitsUnchanged|TestStepperBitsUnchanged' ./internal/solvers
go test -count=1 -run '^$' -bench 'BenchmarkStepperStep' -benchtime 1x ./internal/solvers
go test -count=1 -run 'TestGMRESSessionHonorsMaxIterations' ./internal/server

echo "== fuzz smoke (FuzzMulVecChecked, 10s)"
go test -run='^$' -fuzz=FuzzMulVecChecked -fuzztime=10s ./internal/sparse

# The upload reader's memory contract, also as counts: a fixed handful of
# allocations per file whatever its size (<= 32 at 34 k nonzeros, <= 64 at
# 340 k), and a header declaring 2^30 entries claims < 2 MiB before the
# truncation is found. The reader parses pieces on GOMAXPROCS goroutines, so
# the gate runs at 1, 2 and 4 (testing.AllocsPerRun pins GOMAXPROCS to 1;
# TestReadAllocsAtGOMAXPROCS counts at the -cpu value). A result JSON cannot
# carry is a 400, not an empty 200.
echo "== upload allocation gate + non-finite results"
go test -count=1 -cpu 1,2,4 -run 'TestReadAllocs|TestReadHeaderCannotClaimMemory' ./internal/mmio
go test -count=1 -run 'TestNonFiniteResultIsAnError' ./internal/server

echo "== staticcheck"
if require_or_skip staticcheck; then
    staticcheck ./...
fi

echo "== govulncheck"
if require_or_skip govulncheck; then
    govulncheck ./...
fi

echo "== check OK"
