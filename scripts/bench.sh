#!/usr/bin/env sh
# bench.sh — run the benchmark suite and record the perf trajectory.
#
# Runs the root-package paper-reproduction benchmarks (Tables 1-3, Figures
# 3-5, ablations, engine speedup) plus the hot-loop microbenchmarks
# (BenchmarkFactorize / BenchmarkCompare / BenchmarkExplore, which record
# candidate-evals/sec, explore-steps/sec, the parallel candidate-sweep
# speedup, allocs/op, and the incremental engine's speedups over the pre-PR
# full-rebuild path) and the internal/engine service benchmarks. The root
# suite's headline metrics are written to BENCH_<date>.json in the repo root
# via the -benchjson test flag; -benchmem adds allocation figures to the
# textual output.
#
# go test runs directly (never behind a pipeline, whose exit status would be
# the downstream command's) and its exit code is checked explicitly, so a
# benchmark failure fails the script even though the JSON writer runs from
# TestMain afterwards — and output streams live.
#
# Microbenchmarks here measure single hot loops; the multi-seed experiment
# grids that regenerate DESIGN.md's claims (with pass-criteria verdicts)
# live next door: ./scripts/experiments/run_all.sh, docs/EXPERIMENTS.md.
#
# Usage:
#   scripts/bench.sh                      # full suite, BENCH_$(date +%F).json
#   scripts/bench.sh 'Compare|Explore'    # only benchmarks matching the pattern
#   scripts/bench.sh -workers 8           # worker count for the parallel-sweep leg
#   scripts/bench.sh -f                   # overwrite an existing output file
#   OUT=custom.json scripts/bench.sh      # override the output file
#
# An existing output file is never clobbered without -f: committed
# BENCH_<date>.json records are the bench-regression gate's baseline, and a
# silent overwrite would rewrite the trajectory the gate compares against.
set -eu

cd "$(dirname "$0")/.."

PATTERN='.'
WORKERS=''
FORCE=''
while [ $# -gt 0 ]; do
	case "$1" in
	-workers)
		[ $# -ge 2 ] || { echo "bench.sh: -workers needs a value" >&2; exit 2; }
		WORKERS="$2"
		shift 2
		;;
	-f)
		FORCE=1
		shift
		;;
	*)
		PATTERN="$1"
		shift
		;;
	esac
done

OUT="${OUT:-BENCH_$(date +%Y-%m-%d).json}"

# Create the output directory if the caller pointed OUT somewhere deep, and
# refuse to overwrite an existing record unless forced.
OUT_DIR=$(dirname "$OUT")
[ -d "$OUT_DIR" ] || mkdir -p "$OUT_DIR"
if [ -e "$OUT" ] && [ -z "$FORCE" ]; then
	echo "bench.sh: $OUT already exists; re-run with -f to overwrite" >&2
	exit 2
fi

# check_status NAME STATUS: fail loudly instead of relying on set -e alone,
# so a non-zero go test exit can never be masked by later steps.
check_status() {
	if [ "$2" -ne 0 ]; then
		echo "bench.sh: $1 failed (exit $2)" >&2
		exit "$2"
	fi
}

echo "== root benchmarks (pattern: $PATTERN${WORKERS:+, workers: $WORKERS}) -> $OUT"
status=0
go test . -run '^$' -bench "$PATTERN" -benchtime 1x -benchmem \
	-timeout 60m -benchjson "$OUT" ${WORKERS:+-workers "$WORKERS"} || status=$?
check_status "root benchmarks" "$status"

echo "== engine service benchmarks"
status=0
go test ./internal/engine -run '^$' -bench . -benchtime 1x -benchmem -timeout 30m || status=$?
check_status "engine benchmarks" "$status"

echo "== wrote $OUT"
