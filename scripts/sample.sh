#!/usr/bin/env bash
# Line-level host-time profile of one end-to-end benchmark workload
# that, unlike gprof (scripts/profile.sh), sees inlined code: gprof
# charges an inlined stage or ring access to the function it was
# inlined into, while a sampled PC resolves to the innermost inlined
# source line.
#
# Builds benchmark/ Release with -g into build-sample/ (-g adds debug
# information only; the generated code is the benchmark's own), builds
# the SIGPROF sampler scripts/pc_sampler.c as a preload library, runs
# elfsim_benchmark RUNS times (default 3) and prints the top N
# (default 25) source files and source lines by share of samples, each
# sample charged to its innermost inlined frame (addr2line -f -i -C).
#
# WORKLOAD is a BENCHMARK.json workload name or a spec under
# benchmark/specs/. The two sampled workloads run specs/sampled.json
# with a cache directory, as benchmark/run.py does: sampled_cold gives
# every run a fresh empty one (so trace compiles, trace saves and
# checkpoint writes are profiled), and sampled_warm first fills one
# with an unprofiled cold run, then profiles runs that map and restore
# from it. A bare spec name runs without a cache directory.
#
# It then prints a per-layer table: each sample is charged to the
# innermost inlined frame that lies in one of the model's directories
# (src/frontend, core, bpred, btb, cache, backend, sim, workload), so a
# ring or libstdc++ frame inlined into a stage counts towards that
# stage; samples with no model frame count as "other", and the layers
# sum to the total. Each layer's share is also given as ns per
# simulated instruction: the runs' summed wall time over the stream
# instructions sim_mips counts, times the share. The table is written
# to build-sample/WORKLOAD.profile.json (schema elfsim-profile-v1).
#
#   scripts/sample.sh detailed_frontend
#   scripts/sample.sh detailed_memory 40 5
#   scripts/sample.sh sampled_cold
#
# The sampler asks for one sample per millisecond of CPU time, but the
# kernel rounds the interval up to its tick: on the 4-vCPU KVM guest of
# EXPERIMENTS.md it delivered about 250 samples per second, about 1000
# samples per detailed_frontend run. Shares below 1% need several runs.
# Everything it writes stays under build-sample/.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD="${1:?usage: scripts/sample.sh WORKLOAD [N] [RUNS]}"
N="${2:-25}"
RUNS="${3:-3}"
case "$WORKLOAD" in
    sampled_cold | sampled_warm) SPEC=sampled ;;
    *) SPEC="$WORKLOAD" ;;
esac
SPEC_FILE="$PWD/benchmark/specs/$SPEC.json"
[ -f "$SPEC_FILE" ] || {
    echo "no such spec: $SPEC_FILE" >&2
    exit 1
}

BUILD="$PWD/build-sample"
mkdir -p "$BUILD"
if ! { cmake -S benchmark -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
             -DCMAKE_CXX_FLAGS=-g &&
       cmake --build "$BUILD" -j "$(nproc)" --target elfsim_benchmark &&
       cc -O2 -shared -fPIC -o "$BUILD/pc_sampler.so" scripts/pc_sampler.c; } \
       > "$BUILD/build.log" 2>&1
then
    tail -n 30 "$BUILD/build.log" >&2
    echo "sample build failed; full log in $BUILD/build.log" >&2
    exit 1
fi

# The sampler writes pc_samples.<pid> into the process's working
# directory.
# Each run's summary line (wall_s, setup_s, sim_mips) goes to
# run_summaries for the per-layer ns per instruction.
cd "$BUILD"
rm -f pc_samples.* run_summaries
CACHES="$BUILD/caches"
CACHE_ARGS=()
case "$WORKLOAD" in
    sampled_cold | sampled_warm) CACHE_ARGS=(--cache-dir "$CACHES") ;;
esac
rm -rf "$CACHES"
if [ "$WORKLOAD" = sampled_warm ]; then
    ./elfsim_benchmark --spec "$SPEC_FILE" "${CACHE_ARGS[@]}" \
        --results "$BUILD/$WORKLOAD.results.json" > /dev/null
fi
for _ in $(seq "$RUNS"); do
    [ "$WORKLOAD" = sampled_cold ] && rm -rf "$CACHES"
    LD_PRELOAD="$BUILD/pc_sampler.so" ./elfsim_benchmark \
        --spec "$SPEC_FILE" "${CACHE_ARGS[@]}" \
        --results "$BUILD/$WORKLOAD.results.json" >> run_summaries
done
rm -rf "$CACHES"

python3 - "$BUILD/elfsim_benchmark" "$(dirname "$BUILD")/" "$N" "$RUNS" \
    "$WORKLOAD" pc_samples.* <<'EOF'
import collections
import json
import os
import re
import subprocess
import sys

exe, root, top, runs = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
workload = sys.argv[5]
exe_addrs = collections.Counter()
outside = collections.Counter()
for path in sys.argv[6:]:
    with open(path) as f:
        for line in f:
            obj, addr = line.split("\t")
            if obj == "-":
                exe_addrs[addr.strip()] += 1
            else:
                outside["[" + os.path.basename(obj) + "]"] += 1
total = sum(exe_addrs.values()) + sum(outside.values())
if total == 0:
    sys.exit("no samples recorded")

# addr2line -a prints each address, then (function, file:line) pairs
# from the innermost inlined frame outwards.
addrs = list(exe_addrs)
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
                     input="\n".join(addrs) + "\n", text=True,
                     stdout=subprocess.PIPE, check=True).stdout.splitlines()
is_addr = re.compile(r"0x[0-9a-f]+$")
frames = {}
i = 0
for addr in addrs:
    assert int(out[i], 16) == int(addr, 16), (out[i], addr)
    i += 1
    frames[addr] = []
    while i < len(out) and not is_addr.match(out[i]):
        loc = out[i + 1].split(" (discriminator")[0]
        if loc.startswith("/"):
            loc = os.path.normpath(loc)
        if loc.startswith(root):
            loc = loc[len(root):]
        frames[addr].append((out[i], loc))
        i += 2
frame = {addr: f[0] for addr, f in frames.items()}

LAYERS = ("frontend", "core", "bpred", "btb", "cache", "backend", "sim",
          "workload")


def layer_of(addr_frames):
    for _, loc in addr_frames:
        parts = loc.split("/")
        if len(parts) > 2 and parts[0] == "src" and parts[1] in LAYERS:
            return parts[1]
    return "other"


layers = collections.Counter({"other": sum(outside.values())})
for addr, n in exe_addrs.items():
    layers[layer_of(frames[addr])] += n

files = collections.Counter(outside)
lines = collections.Counter({(obj, ""): n for obj, n in outside.items()})
for addr, n in exe_addrs.items():
    func, loc = frame[addr]
    files[loc.rsplit(":", 1)[0]] += n
    lines[(loc, func)] += n

print(f"{total} samples over {runs} run(s); each charged to its "
      f"innermost inlined frame")
print(f"\ntop {top} source files")
print("  share  samples  file")
for name, n in files.most_common(top):
    print(f"{100.0 * n / total:6.1f}% {n:8d}  {name}")
print(f"\ntop {top} source lines")
print("  share  samples  line  (function)")
for (loc, func), n in lines.most_common(top):
    func = func if len(func) <= 60 else func[:57] + "..."
    print(f"{100.0 * n / total:6.1f}% {n:8d}  {loc}  ({func})")

# sim_mips is stream instructions over (wall_s - setup_s).
wall = insts = 0.0
with open("run_summaries") as f:
    for line in f:
        run = json.loads(line)
        wall += run["wall_s"]
        insts += run["sim_mips"] * 1e6 * (run["wall_s"] - run["setup_s"])
ns_per_inst = 1e9 * wall / insts if insts else 0.0
rows = [{"layer": name, "samples": n, "share": n / total,
         "ns_per_inst": ns_per_inst * n / total}
        for name, n in sorted(layers.items(), key=lambda kv: -kv[1])]
print(f"\nper layer ({wall:.3f} s wall, {insts:.0f} insts, "
      f"{ns_per_inst:.1f} ns/inst over {runs} run(s))")
print("  share  samples  ns/inst  layer")
for r in rows:
    print(f"{100.0 * r['share']:6.1f}% {r['samples']:8d} "
          f"{r['ns_per_inst']:8.1f}  {r['layer']}")
with open(f"{workload}.profile.json", "w") as f:
    json.dump({"schema": "elfsim-profile-v1", "spec": workload,
               "runs": int(runs), "samples": total, "wall_s": wall,
               "insts": insts, "ns_per_inst": ns_per_inst,
               "layers": rows}, f, indent=2)
    f.write("\n")
EOF
