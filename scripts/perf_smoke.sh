#!/usr/bin/env bash
# Quick simulator-throughput smoke (~15-30 s): every 3rd catalog
# workload at full-size windows, single job, schema check, and the
# >10% geomean-MIPS regression gate against the committed
# BENCH_throughput.json (matched on the common rows).
#
#   scripts/perf_smoke.sh           # uses ./build, or $BUILD
#
# Full windows (not --quick) keep per-run MIPS comparable with the
# baseline; a marginal pass here still deserves a full
# `build/bench/bench_throughput --jobs 1` before concluding anything
# regressed.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${BUILD:-build}"
BIN="$BUILD/bench/bench_throughput"
[ -x "$BIN" ] || {
    echo "$BIN not built (cmake --build $BUILD)" >&2
    exit 1
}

OUT="$BUILD/results"
mkdir -p "$OUT"

# Warm artifact caches: repeat smokes map the compiled workload
# streams and warm-state checkpoints from disk instead of regenerating
# them. Each cache lives under a subdirectory named after its artifact
# format version (elfsim-trace-v4 / elfsim-ckpt-v2): a format bump
# lands in a fresh directory, so artifacts written by an older or
# newer checkout can never be picked up here and skew the timing
# gates. Bump the path together with the magic string.
TRACE_CACHE="$BUILD/trace-cache/elfsim-trace-v4"
CKPT_CACHE="$BUILD/ckpt-cache/elfsim-ckpt-v2"
mkdir -p "$TRACE_CACHE" "$CKPT_CACHE"

"$BIN" --stride 3 --sampled --jobs 1 --trace-cache "$TRACE_CACHE" \
       --ckpt-cache "$CKPT_CACHE" --json "$OUT/perf_smoke.json"

if [ -f BENCH_throughput.json ]; then
    python3 scripts/check_results.py --throughput \
        --baseline BENCH_throughput.json "$OUT/perf_smoke.json"
else
    python3 scripts/check_results.py --throughput "$OUT/perf_smoke.json"
fi

# Sampled gate: sampling must cover at least one >=10M-instruction
# stream at >=65x the effective MIPS of that workload's detailed
# U-ELF row in the committed baseline (full-run timing; the smoke's
# own strided grid may not include the slow workloads). The best row
# gates — with the batch warming kernel a cold-cache run sits around
# 80-95x and warm re-runs far above — and every ratio is printed so
# a creeping fast-forward regression stays visible.
if [ -f BENCH_throughput.json ]; then
    python3 - "$OUT/perf_smoke.json" BENCH_throughput.json <<'EOF'
import json, sys
new = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
detailed = {r["workload"]: r["mips"] for r in base["throughput"]
            if r["variant"] == "U-ELF"}
best = 0.0
rows = 0
for r in new["throughput"]:
    if not r["variant"].endswith("/sampled"):
        continue
    ref = detailed.get(r["workload"])
    if ref is None or ref <= 0:
        print(f"sampled gate: no baseline U-ELF row for "
              f"{r['workload']}, skipping", file=sys.stderr)
        continue
    rows += 1
    ratio = r["mips"] / ref
    best = max(best, ratio)
    print(f"sampled gate: {r['workload']} {r['mips']:.2f} effective "
          f"MIPS vs {ref:.3f} detailed = {ratio:.0f}x")
if rows == 0:
    sys.exit("sampled gate: no sampled rows in document")
if best < 65:
    sys.exit(f"sampled gate: best speedup {best:.0f}x < 65x")
print(f"sampled gate: OK (best {best:.0f}x >= 65x over {rows} rows)")
EOF
fi
