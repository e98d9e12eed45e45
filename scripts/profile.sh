#!/usr/bin/env bash
# Per-function host-time profile of one end-to-end benchmark workload.
# Builds benchmark/ (Release, instrumented with -pg) into build-prof/,
# runs elfsim_benchmark once on benchmark/specs/SPEC.json, and prints
# the top N entries (default 20) of gprof's flat profile: each
# function's share of self time.
#
#   scripts/profile.sh detailed_memory
#   scripts/profile.sh detailed_frontend 40
#
# The profile covers the whole process: spec load, program builds and
# trace compilation are in it too. Everything it writes stays under
# build-prof/.
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC="${1:?usage: scripts/profile.sh SPEC [N]}"
N="${2:-20}"
SPEC_FILE="$PWD/benchmark/specs/$SPEC.json"
[ -f "$SPEC_FILE" ] || {
    echo "no such spec: $SPEC_FILE" >&2
    exit 1
}

BUILD="$PWD/build-prof"
mkdir -p "$BUILD"
if ! { cmake -S benchmark -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
             -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg &&
       cmake --build "$BUILD" -j "$(nproc)" --target elfsim_benchmark; } \
       > "$BUILD/build.log" 2>&1
then
    tail -n 30 "$BUILD/build.log" >&2
    echo "profile build failed; full log in $BUILD/build.log" >&2
    exit 1
fi

# gprof writes gmon.out into the working directory of the process.
cd "$BUILD"
rm -f gmon.out
./elfsim_benchmark --spec "$SPEC_FILE" --results "$BUILD/$SPEC.results.json"
# The flat profile's five header lines, then one line per function.
gprof -b -p ./elfsim_benchmark gmon.out | head -n "$((N + 5))"
