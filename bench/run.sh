#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): vet, test and build spmvload
# from source, then run it from the checkout's root with the driver's
# arguments, e.g.
#
#   bash bench/run.sh --workload spmv_exec --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1            # the whole suite, measured and traced
#
# bench/ is a module of its own, so the repository's `go test ./...` does not
# reach its unit tests; they run here instead, wherever the benchmark does
# (the go cache replays a pass until a source file changes). spmvload builds
# cmd/spmvd itself. Everything any of it writes — the go build cache
# included — stays under bench/.build/.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$bench/.build
export GOCACHE=$build/gocache GOPATH=$build/gopath TMPDIR=$build/tmp GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME=$build/config
mkdir -p "$build/bin" "$build/tmp"
cd "$bench"
go vet ./... >&2
go test ./... >&2
go build -o "$build/bin/spmvload" ./spmvload
cd ..
exec "$build/bin/spmvload" "$@"
