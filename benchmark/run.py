#!/usr/bin/env python3
"""Measure elfsim end to end; run through benchmark/run.sh, which builds
the elfsim_benchmark binary first.

Two ways to call it:

  run.sh [--repeats N] [--seed S] [--smoke] [--bless]
      Report mode. A discarded host warm-up pass, then N untraced sets
      of all four workloads (each workload in a fresh process), then one
      traced set. Prints every end-to-end metric per workload (median
      and quartiles when N > 1) and the traced per-layer split.

  run.sh --workload W --seed S --seconds T --trace 0|1
      Single-workload mode. Repeats fresh processes of workload W for
      about T seconds and prints, as the last line of stdout, one JSON
      object with the end-to-end metrics of the best process (--trace 0)
      or the medians of the per-layer metrics (--trace 1) named in
      BENCHMARK.json.

Correctness: every cell must finish ok, and every repeat of a workload
must export the same results. Each cell is compared with the committed
goldens: golden/<workload>.json holds the seed-0 results rows,
golden/seeds.json per-cell digests of other seeds; a seed without a
golden prints its digest instead. sampled_warm must agree with the cold
run of the same seed on every field but the ckpt_* and warm_* counters.
In traced runs elfsim_benchmark also checks its replica of every cell
against the untraced result. The exit status is nonzero on any failure.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "elfsim_benchmark")
CACHES = os.path.join(BUILD, "caches")
RUNS = os.path.join(BUILD, "runs")
GOLDEN = os.path.join(HERE, "golden")
SEED_DIGESTS = os.path.join(GOLDEN, "seeds.json")

SPECS = {
    "detailed_frontend": "detailed_frontend.json",
    "detailed_memory": "detailed_memory.json",
    "sampled_cold": "sampled.json",
    "sampled_warm": "sampled.json",
}
WORKLOADS = list(SPECS)

# Seeds whose per-cell digests --bless records in golden/seeds.json.
BLESSED_SEEDS = range(1, 16)

# A cold sampled run writes about 0.6 GiB of trace and checkpoint
# artifacts; refuse to start one with less than this much free disk.
MIN_FREE_BYTES = 2 << 30

# Cells in the sampled spec, counted as failed when disk is short.
SAMPLED_CELLS = 2

# One elfsim_benchmark process should take well under this; a hung
# one is killed.
PROCESS_TIMEOUT_S = 150

# End-to-end metrics printed in report mode beyond BENCHMARK.json's
# (they are 0 on a passing run or on some workloads, or undefined).
EXTRA_E2E = [("cell_s_tail", "s"), ("artifact_mib", "MiB"),
             ("failed_frac", "ratio"), ("digest_mismatches", "count")]


class BenchError(Exception):
    pass


def sampled(workload):
    return workload.startswith("sampled")


def clear_caches():
    shutil.rmtree(CACHES, ignore_errors=True)


def disk_ok():
    free = shutil.disk_usage(ROOT).free
    if free >= MIN_FREE_BYTES:
        return True
    print(f"only {free / 2**30:.1f} GiB free under {ROOT}; the sampled "
          f"workloads need {MIN_FREE_BYTES / 2**30:.0f} GiB, failing "
          f"their cells", file=sys.stderr)
    return False


def run_binary(workload, seed, smoke, spans=None, expect=None):
    """Run one elfsim_benchmark process; returns (its JSON line,
    results path)."""
    os.makedirs(RUNS, exist_ok=True)
    mode = "traced" if spans else "untraced"
    results = os.path.join(RUNS, f"{workload}.{mode}.json")
    cmd = [BINARY, "--spec", os.path.join(HERE, "specs", SPECS[workload]),
           "--seed", str(seed), "--results", results]
    if smoke:
        cmd.append("--smoke")
    if sampled(workload):
        cmd += ["--cache-dir", CACHES]
    if spans:
        cmd += ["--spans", spans, "--expect", expect]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: killed after "
                         f"{PROCESS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines or (proc.returncode != 0 and not spans):
        raise BenchError(f"{workload} {mode}: elfsim_benchmark exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1]), results


def result_rows(path):
    with open(path) as f:
        return json.load(f)["results"]


def cell_digest(row):
    canon = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def golden_path(workload, smoke):
    sub = "smoke" if smoke else ""
    return os.path.join(GOLDEN, sub, f"{workload}.json")


def expected_digests(workload, seed, smoke):
    """Per-cell golden digests for (workload, seed), or None."""
    if seed == 0:
        path = golden_path(workload, smoke)
        if os.path.exists(path):
            return [cell_digest(r) for r in result_rows(path)]
        return None
    if smoke or not os.path.exists(SEED_DIGESTS):
        return None
    with open(SEED_DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def golden_misses(workload, seed, smoke, rows):
    """Cells that miss the golden; None when no golden covers the seed."""
    want = expected_digests(workload, seed, smoke)
    if want is None:
        return None
    misses = abs(len(rows) - len(want))
    for i, (r, digest) in enumerate(zip(rows, want)):
        if cell_digest(r) != digest:
            misses += 1
            print(f"golden miss: {workload} cell {i} ({r['workload']} "
                  f"{r['variant']})", file=sys.stderr)
    return misses


def without_ckpt_warm(rows):
    out = []
    for r in rows:
        r = dict(r)
        if "sampling" in r:
            r["sampling"] = {k: v for k, v in r["sampling"].items()
                             if not k.startswith(("ckpt_", "warm_"))}
        out.append(r)
    return out


def quantile_summary(values):
    """(median, q1, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def tail(cells):
    """Highest percentile with at least 10 cells beyond it, or None
    below 20 cells: (percentile, seconds)."""
    n = len(cells)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(cells)[n - 11]


class Check:
    """Accumulates cells attempted and failed across
    elfsim_benchmark processes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def cells(self, line):
        self.attempted += line["cells"]
        self.failed += line["failed"]

    def error(self, msg, cells=0):
        self.errors.append(msg)
        self.failed += cells
        print(f"check failed: {msg}", file=sys.stderr)

    @property
    def ok(self):
        return self.failed == 0 and not self.errors


class UntracedRun:
    """One untraced process of one workload, checked."""

    def __init__(self, workload, seed, smoke, check, compare=True):
        line, path = run_binary(workload, seed, smoke)
        check.cells(line)
        self.line = line
        self.rows = result_rows(path)
        self.digest = hashlib.sha256(
            "".join(cell_digest(r) for r in self.rows).encode()
        ).hexdigest()[:16]
        self.misses = golden_misses(workload, seed, smoke, self.rows) \
            if compare else None
        if self.misses:
            check.error(f"{workload}: {self.misses} cells miss the golden",
                        self.misses)
        failed = line["failed"] + (self.misses or 0)
        cells = line["cell_s"]
        t = tail(cells)
        self.metrics = {
            "wall_s": line["wall_s"],
            "setup_s": line["setup_s"],
            "sim_mips": line["sim_mips"],
            "cell_s_p50": statistics.median(cells),
            "peak_rss_mib": line["peak_rss_mib"],
            "artifact_mib": line["artifact_mib"],
            "failed_frac": failed / line["cells"],
            "digest_mismatches": self.misses or 0,
        }
        if t:
            self.metrics["cell_s_tail"] = t[1]
            self.tail_pct = t[0]


def check_repeats(workload, sets, check):
    if len({s.digest for s in sets}) > 1:
        check.error(f"{workload}: repeats exported different results",
                    sets[-1].line["cells"])


def check_warm_agrees(cold, warm, check):
    if without_ckpt_warm(cold.rows) != without_ckpt_warm(warm.rows):
        check.error("sampled_warm disagrees with sampled_cold beyond "
                    "the ckpt_*/warm_* counters", warm.line["cells"])


def traced(workload, seed, smoke, reference, check):
    """One traced process checked against the untraced @a reference."""
    os.makedirs(RUNS, exist_ok=True)
    spans = os.path.join(RUNS, f"{workload}.spans.json")
    expect = os.path.join(RUNS, f"{workload}.expect.json")
    with open(expect, "w") as f:
        json.dump({"results": reference.rows}, f)
    if workload == "sampled_cold":
        clear_caches()
    line, _ = run_binary(workload, seed, smoke, spans=spans, expect=expect)
    check.attempted += line["cells"]
    if line["mismatches"]:
        check.error(f"{workload}: traced replica disagrees with the "
                    f"untraced run ({line['mismatches']} fields)",
                    line["cells"])
    line["spans"] = spans
    line["metrics"].update(line["self_s"])
    line["metrics"]["artifact_mib"] = line["artifact_mib"]
    line["metrics"]["trace_overhead_pct"] = (
        100.0 * (line["wall_s"] / reference.line["wall_s"] - 1.0))
    return line


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- single-workload mode ----------------------------------------------


def until(deadline, run):
    """Call run() back to back, at least once, while one more call as
    long as the last still ends by @a deadline; returns the results."""
    out = []
    while True:
        began = time.monotonic()
        out.append(run())
        now = time.monotonic()
        if now + (now - began) > deadline:
            return out


def single(args):
    deadline = time.monotonic() + args.seconds
    bench = load_benchmark_json()
    check = Check()
    w = args.workload
    if sampled(w) and not disk_ok():
        print(json.dumps({"correct": False, "attempted": SAMPLED_CELLS,
                          "failed": SAMPLED_CELLS, "metrics": {}}))
        return 1
    clear_caches()
    cold = UntracedRun("sampled_cold", args.seed, False, check) \
        if w == "sampled_warm" else None

    def one():
        if w == "sampled_cold":
            clear_caches()
        s = UntracedRun(w, args.seed, False, check)
        if cold:
            check_warm_agrees(cold, s, check)
        return s

    if args.trace:
        ref = one()
        layers = until(deadline,
                       lambda: traced(w, args.seed, False, ref, check))
        sets = [ref]
        metrics = {m["name"]: statistics.median(
            l["metrics"][m["name"]] for l in layers)
            for m in bench["per_layer"]}
        wanted = bench["per_layer"]
    else:
        sets = until(deadline, one)
        # Other tenants of a shared host only ever slow a process down,
        # for seconds to minutes at a time, so the run reports each
        # metric's best process: its median over processes varied 2-4x
        # more from run to run.
        metrics = {m["name"]: (min if m["better"] == "lower" else max)(
            s.metrics[m["name"]] for s in sets)
            for m in bench["end_to_end"]}
        wanted = bench["end_to_end"]
        for m in wanted:
            vals = " ".join(fmt(s.metrics[m["name"]]) for s in sets)
            print(f"  {m['name']} per process: {vals}")
    clear_caches()
    check_repeats(w, sets, check)
    if sets[0].misses is None:
        print(f"{w} seed {args.seed}: no golden; results digest "
              f"{sets[0].digest}")
    print(f"{w}: {len(sets)} untraced process(es), "
          f"{check.attempted} cells, {check.failed} failed")
    print(json.dumps({
        "correct": check.ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if check.ok else 1


# --- report mode ---------------------------------------------------------


def fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def print_e2e(workload, sets, units):
    print(f"\n{workload}  (n = {sets[0].line['cells']} cells per set, "
          f"{len(sets)} set(s))")
    for name, unit in units:
        vals = [s.metrics[name] for s in sets if name in s.metrics]
        if not vals:
            continue
        med, q1, q3 = quantile_summary(vals)
        label = name
        if name == "cell_s_tail":
            label += f" (p{sets[-1].tail_pct:.1f})"
        spread = f"  [q1 {fmt(q1)}, q3 {fmt(q3)}]" if len(vals) > 1 else ""
        print(f"  {label:<26} {fmt(med):>12} {unit:<6}{spread}")


def print_layers(workload, line, bench):
    wall = line["wall_s"]
    print(f"\n{workload}  traced wall {wall:.3f} s, trace overhead "
          f"{line['metrics']['trace_overhead_pct']:+.1f}%, spans in "
          f"{os.path.relpath(line['spans'], ROOT)}")
    print(f"  {'layer (self time)':<26} {'s':>10} {'share':>8}")
    total = 0.0
    for name, s in sorted(line["self_s"].items(), key=lambda kv: -kv[1]):
        total += s
        print(f"  {name:<26} {s:>10.4f} {100 * s / wall:>7.1f}%")
    print(f"  {'sum of self times':<26} {total:>10.4f} "
          f"{100 * total / wall:>7.1f}%")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, v in line["metrics"].items():
        if name not in line["self_s"]:
            print(f"  {name:<30} {fmt(v):>14} {units.get(name, '')}")


def host_info():
    """The host and build a report was measured on."""
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep and not key.startswith(("//", "#")):
                cache[key.split(":")[0]] = value
    compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                              stdout=subprocess.PIPE, text=True)
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "compiler": compiler.stdout.splitlines()[0],
            "build_type": cache["CMAKE_BUILD_TYPE"]}


def write_summary(args, sets, layers, units):
    """Medians and quartiles of this report, with its host, as JSON."""
    def summary(vals):
        med, q1, q3 = quantile_summary(vals)
        return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}

    doc = {"host": host_info(), "repeats": args.repeats, "seed": args.seed,
           "smoke": args.smoke, "end_to_end": {}, "per_layer": {}}
    for w, ss in sets.items():
        doc["end_to_end"][w] = {
            name: summary([s.metrics[name] for s in ss])
            for name, _ in units if ss and name in ss[-1].metrics}
    for w, line in layers.items():
        doc["per_layer"][w] = line["metrics"]
    path = os.path.join(BUILD, "report.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"\nsummary in {os.path.relpath(path, ROOT)}")


def bless(smoke, last, check):
    """Rewrite the goldens from this run (seed 0) and, outside smoke
    mode, record per-cell digests of the other blessed seeds."""
    os.makedirs(os.path.dirname(golden_path("x", smoke)), exist_ok=True)
    for w, s in last.items():
        with open(golden_path(w, smoke), "w") as f:
            json.dump({"schema": "elfsim-results-v2", "results": s.rows},
                      f, indent=1)
            f.write("\n")
    if smoke:
        return
    digests = {w: {} for w in WORKLOADS}
    for seed in BLESSED_SEEDS:
        clear_caches()
        for w in WORKLOADS:
            s = UntracedRun(w, seed, smoke, check, compare=False)
            digests[w][str(seed)] = [cell_digest(r) for r in s.rows]
        print(f"blessed seed {seed}")
    clear_caches()
    with open(SEED_DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote goldens under {os.path.relpath(GOLDEN, ROOT)}")


def report(args):
    bench = load_benchmark_json()
    check = Check()
    if args.bless and args.seed != 0:
        raise BenchError("--bless records seed-0 goldens; drop --seed")

    compare = not args.bless  # --bless regenerates the goldens
    # A discarded warm-up pass: the first process on a cold host reads slow.
    UntracedRun("detailed_frontend", args.seed, args.smoke, Check(), False)
    sampled_ok = disk_ok()
    sets = {w: [] for w in WORKLOADS}
    for _ in range(args.repeats):
        clear_caches()
        for w in WORKLOADS:
            if sampled(w) and not sampled_ok:
                continue
            s = UntracedRun(w, args.seed, args.smoke, check, compare)
            if w == "sampled_warm":
                check_warm_agrees(sets["sampled_cold"][-1], s, check)
            sets[w].append(s)
        clear_caches()
    if not sampled_ok:
        skipped = 2 * SAMPLED_CELLS * args.repeats
        check.attempted += skipped
        check.error("sampled workloads skipped: not enough free disk",
                    skipped)

    layers = {}
    for w in WORKLOADS:
        if sets[w]:
            layers[w] = traced(w, args.seed, args.smoke, sets[w][-1],
                               check)
    clear_caches()

    units = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    print("\n== end to end (untraced) ==")
    for w in WORKLOADS:
        if sets[w]:
            check_repeats(w, sets[w], check)
            print_e2e(w, sets[w], units + EXTRA_E2E)
            if sets[w][0].misses is None:
                print(f"  results digest (seed {args.seed}): "
                      f"{sets[w][0].digest}")
    print("\n== per layer (traced) ==")
    for w, line in layers.items():
        print_layers(w, line, bench)

    write_summary(args, sets, layers, units + EXTRA_E2E)
    if args.bless:
        bless(args.smoke, {w: s[-1] for w, s in sets.items() if s}, check)
    frac = check.failed / check.attempted if check.attempted else 1.0
    print(f"\ncells attempted {check.attempted}, failed {check.failed} "
          f"(failed_frac {frac:.3g})")
    return 0 if check.ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bless", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.repeats < 1:
        p.error("--seed must be >= 0 and --repeats >= 1")
    if args.workload and (args.smoke or args.bless):
        p.error("--smoke and --bless apply to report mode only")
    try:
        return single(args) if args.workload else report(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        clear_caches()


if __name__ == "__main__":
    sys.exit(main())
