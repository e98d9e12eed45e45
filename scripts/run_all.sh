#!/usr/bin/env bash
# Build, test, and regenerate every experiment.
#
#   scripts/run_all.sh                  # full experiment windows
#   scripts/run_all.sh --quick          # quarter-size windows (smoke)
#   scripts/run_all.sh --jobs 8         # sweep threads per bench
#
# Sweep thread count: --jobs N, else nproc.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 1)"
EXTRA=()
while [ $# -gt 0 ]; do
    case "$1" in
        --jobs)
            JOBS="$2"
            shift 2
            ;;
        *)
            EXTRA+=("$1")
            shift
            ;;
    esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Sweep benches drop a machine-readable artifact per figure here.
RESULTS=build/results
mkdir -p "$RESULTS"

# One shared compiled-trace cache for the whole campaign: the first
# bench touching a workload compiles and saves its trace, every later
# bench maps the artifact (content-keyed, so stale files just miss).
# Caches live under a subdirectory named after the artifact format
# version (elfsim-trace-v4 / elfsim-ckpt-v2), so artifacts written by
# a checkout with a different format can never be picked up here —
# keep the path in sync with the magic string when bumping a format.
TRACE_CACHE=build/trace-cache/elfsim-trace-v4
CKPT_CACHE=build/ckpt-cache/elfsim-ckpt-v2
mkdir -p "$TRACE_CACHE" "$CKPT_CACHE"

# A bench killed mid-export leaves a truncated JSON behind; never let
# such a partial artifact masquerade as results.
CURRENT_ARTIFACT=""
remove_partial() {
    if [ -n "$CURRENT_ARTIFACT" ] && [ -f "$CURRENT_ARTIFACT" ]; then
        echo "removing partial artifact $CURRENT_ARTIFACT" >&2
        rm -f "$CURRENT_ARTIFACT"
    fi
    CURRENT_ARTIFACT=""
}
trap 'remove_partial; echo "interrupted" >&2; exit 130' INT TERM

ARTIFACTS=()
FAILED=()
for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    name="$(basename "$b")"
    echo "######## $b"
    status=0
    case "$name" in
        bench_fig2_timing|bench_table1_workloads|bench_table2_config)
            # Characterization tables: no RunResults to export.
            "$b" --jobs "$JOBS" --trace-cache "$TRACE_CACHE" \
                 ${EXTRA[@]+"${EXTRA[@]}"} || status=$?
            ;;
        bench_throughput)
            # Simulator-speed gate: separate schema + regression
            # check against the committed baseline. Run single-job so
            # per-run wall clocks are not distorted by oversubscription
            # (scripts/perf_smoke.sh is the quick variant).
            CURRENT_ARTIFACT="$RESULTS/$name.json"
            "$b" --jobs 1 --sampled --json "$RESULTS/$name.json" \
                 --trace-cache "$TRACE_CACHE" \
                 --ckpt-cache "$CKPT_CACHE" \
                 ${EXTRA[@]+"${EXTRA[@]}"} || status=$?
            if [ "$status" -eq 0 ]; then
                CURRENT_ARTIFACT=""
                if [ -f BENCH_throughput.json ]; then
                    python3 scripts/check_results.py --throughput \
                        --baseline BENCH_throughput.json \
                        "$RESULTS/$name.json" || status=$?
                else
                    python3 scripts/check_results.py --throughput \
                        "$RESULTS/$name.json" || status=$?
                fi
            fi
            ;;
        *)
            # --dump-spec archives the exact declarative grid next to
            # the results: the pair re-runs bit-identically later via
            # `--spec FILE`. test_sweep_spec checks that every bench's
            # grid reads back to the same bytes and validates.
            CURRENT_ARTIFACT="$RESULTS/$name.json"
            "$b" --jobs "$JOBS" --json "$RESULTS/$name.json" \
                 --dump-spec "$RESULTS/$name.spec.json" \
                 --trace-cache "$TRACE_CACHE" \
                 ${EXTRA[@]+"${EXTRA[@]}"} || status=$?
            if [ "$status" -eq 0 ]; then
                ARTIFACTS+=("$RESULTS/$name.json")
            fi
            CURRENT_ARTIFACT=""
            ;;
    esac
    if [ "$status" -ne 0 ]; then
        # Exit 3 means the sweep completed but marked cells failed:
        # the artifact is a valid v2 document with the holes recorded,
        # so keep it for inspection. Anything else is a crash or an
        # export error, and its artifact (if any) is a stale partial.
        if [ "$status" -ne 3 ]; then
            remove_partial
        fi
        CURRENT_ARTIFACT=""
        FAILED+=("$name (exit $status)")
        echo "FAILED: $name (exit $status)" >&2
    fi
done

if [ ${#ARTIFACTS[@]} -gt 0 ]; then
    echo "######## schema check"
    python3 scripts/check_results.py "${ARTIFACTS[@]}" \
        || FAILED+=("schema check")
fi

if [ ${#FAILED[@]} -gt 0 ]; then
    echo "######## ${#FAILED[@]} step(s) failed:" >&2
    printf '  %s\n' "${FAILED[@]}" >&2
    exit 1
fi
