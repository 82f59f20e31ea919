#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-walk --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# stores, span exports) stays under .bench_build/ at the checkout root. The
# last line of standard output is the run's JSON summary; see README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-mod=mod"
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
