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
# elfsim_benchmark on benchmark/specs/SPEC.json RUNS times (default 3)
# and prints the top N (default 25) source files and source lines by
# share of samples, each sample charged to its innermost inlined frame
# (addr2line -f -i -C).
#
#   scripts/sample.sh detailed_frontend
#   scripts/sample.sh detailed_memory 40 5
#
# The sampler asks for one sample per millisecond of CPU time, but the
# kernel rounds the interval up to its tick: on the 4-vCPU KVM guest of
# EXPERIMENTS.md it delivered about 250 samples per second, about 1000
# samples per detailed_frontend run. Shares below 1% need several runs.
# Everything it writes stays under build-sample/.
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC="${1:?usage: scripts/sample.sh SPEC [N] [RUNS]}"
N="${2:-25}"
RUNS="${3:-3}"
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
cd "$BUILD"
rm -f pc_samples.*
for _ in $(seq "$RUNS"); do
    LD_PRELOAD="$BUILD/pc_sampler.so" ./elfsim_benchmark \
        --spec "$SPEC_FILE" --results "$BUILD/$SPEC.results.json" \
        > /dev/null
done

python3 - "$BUILD/elfsim_benchmark" "$(dirname "$BUILD")/" "$N" "$RUNS" \
    pc_samples.* <<'EOF'
import collections
import os
import re
import subprocess
import sys

exe, root, top, runs = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
exe_addrs = collections.Counter()
outside = collections.Counter()
for path in sys.argv[5:]:
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
# from the innermost inlined frame outwards; keep the first pair.
addrs = list(exe_addrs)
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
                     input="\n".join(addrs) + "\n", text=True,
                     stdout=subprocess.PIPE, check=True).stdout.splitlines()
is_addr = re.compile(r"0x[0-9a-f]+$")
frame = {}
i = 0
for addr in addrs:
    assert int(out[i], 16) == int(addr, 16), (out[i], addr)
    func, loc = out[i + 1], out[i + 2]
    frame[addr] = (func, loc)
    i += 3
    while i < len(out) and not is_addr.match(out[i]):
        i += 2

files = collections.Counter(outside)
lines = collections.Counter({(obj, ""): n for obj, n in outside.items()})
for addr, n in exe_addrs.items():
    func, loc = frame[addr]
    loc = loc.split(" (discriminator")[0]
    if loc.startswith(root):
        loc = loc[len(root):]
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
EOF
