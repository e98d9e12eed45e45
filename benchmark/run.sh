#!/usr/bin/env bash
# The elfsim end-to-end benchmark: builds elfsim_benchmark (Release, its own
# CMake project over ../src) into .bench_build/ at the repo root, then
# hands every argument to run.py, which measures. See README.md.
#
#   benchmark/run.sh [--repeats N] [--seed S] [--smoke] [--bless]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
BUILD="$(dirname "$HERE")/.bench_build"

mkdir -p "$BUILD"
if ! { cmake -S "$HERE" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$BUILD" -j "$(nproc)"; } > "$BUILD/build.log" 2>&1
then
    tail -n 30 "$BUILD/build.log" >&2
    echo "benchmark build failed; full log in $BUILD/build.log" >&2
    exit 1
fi
exec python3 "$HERE/run.py" "$@"
