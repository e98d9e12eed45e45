#!/usr/bin/env python3
"""Validate elfsim-results-v2 JSON artifacts.

Usage:
    scripts/check_results.py FILE [FILE ...]
        Schema-check each exported results document. Any cell whose
        "status" is not "ok" fails the check unless --allow-failed N
        grants that many non-ok cells per document.

    scripts/check_results.py --compare A B
        Assert two documents carry identical simulated results,
        ignoring the wall-clock-dependent "timing" and "trace"
        blocks and each result's "sampling" block (its ckpt_* counters
        depend on checkpoint-cache warmth, not on the simulation).
        Use this to confirm --jobs 1 and --jobs N exports of the same
        grid match.

    scripts/check_results.py --throughput FILE [--baseline BASE]
        Schema-check an elfsim-throughput-v1 document (written by
        bench_throughput). With --baseline, additionally fail if
        geomean simulated MIPS regressed more than 10% versus the
        committed baseline document.

Exits non-zero on the first violation. Stdlib only.
"""

import argparse
import json
import sys

SCHEMA = "elfsim-results-v2"
THROUGHPUT_SCHEMA = "elfsim-throughput-v1"
# A >10% geomean-MIPS drop vs the committed baseline fails the gate;
# smaller swings are host noise.
REGRESSION_TOLERANCE = 0.10

THROUGHPUT_STR_FIELDS = ("workload", "variant")
THROUGHPUT_NUM_FIELDS = (
    "wall_seconds", "sim_insts", "sim_cycles", "mips",
    "cycles_per_host_us",
)

# Per-result scalar fields (RunResult::forEachField order).
RESULT_STR_FIELDS = ("workload", "variant", "error")
RESULT_NUM_FIELDS = (
    "cycles", "insts", "ipc", "branch_mpki", "cond_mpki",
    "exec_flushes", "mem_order_flushes", "decode_resteers",
    "divergence_flushes", "btb_hit_l0", "btb_hit_l1", "btb_hit_l2",
    "l0i_miss_rate", "l1d_mpki", "wrong_path_insts", "inst_prefetches",
    "avg_redirect_to_fetch", "avg_coupled_insts", "coupled_periods",
    "coupled_committed_frac", "pending_flush_waits", "attempts",
)
# v2 per-result status (sim/export.hh); non-ok cells carry zeroed
# metrics and a non-empty "error".
RESULT_STATUSES = ("ok", "failed")
TIMELINE_FIELDS = (
    "start_inst", "insts", "cycles", "ipc", "cond_mispredicts",
    "target_mispredicts", "exec_flushes", "mem_order_flushes",
    "decode_resteers", "divergence_flushes", "coupled_frac",
)
# Optional trace-compilation activity block (sweep-wide, like timing).
TRACE_FIELDS = (
    "compiles", "cache_hits", "cache_misses", "bytes_mapped",
    "compile_seconds",
)
# Optional per-result sampled-execution block (present iff the cell
# ran in sampled mode; sim/runner.hh SamplingInfo).
SAMPLING_FIELDS = (
    "period_insts", "length_insts", "warmup_insts", "windows",
    "total_insts", "measured_insts", "ipc_rel_err_95",
    "est_total_cycles", "ckpt_hits", "ckpt_misses", "ckpt_saves",
    "warm_kernel_insts", "warm_scalar_insts", "warm_branch_events",
    "warm_lines_touched", "warm_ff_insts",
)


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_document(path, doc, allow_failed=0):
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    if doc.get("schema") != SCHEMA:
        fail(path, f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail(path, "missing or empty 'results' array")

    n_not_ok = 0
    for i, r in enumerate(results):
        where = f"results[{i}]"
        for k in RESULT_STR_FIELDS:
            if not isinstance(r.get(k), str):
                fail(path, f"{where}.{k} missing or not a string")
        for k in RESULT_NUM_FIELDS:
            if not isinstance(r.get(k), (int, float)):
                fail(path, f"{where}.{k} missing or not a number")
        status = r.get("status")
        if status not in RESULT_STATUSES:
            fail(path, f"{where}.status is {status!r}, expected one of "
                       f"{RESULT_STATUSES}")
        ok = status == "ok"
        if ok and r["error"]:
            fail(path, f"{where}: ok cell carries an error string")
        if ok and r["attempts"] < 1:
            fail(path, f"{where}: ok cell with attempts < 1")
        if not ok:
            n_not_ok += 1
            if not r["error"]:
                fail(path, f"{where}: {status} cell without an error")
        interval = r.get("interval_insts")
        timeline = r.get("timeline")
        if not isinstance(interval, int) or not isinstance(timeline, list):
            fail(path, f"{where}: bad interval_insts/timeline")
        # Only a sampled run has a timeline (one row per measured
        # window); every other row, failed cells included, has none.
        if "sampling" not in r and (interval != 0 or timeline):
            fail(path, f"{where}: a row without a sampling block needs "
                       "interval_insts 0 and an empty timeline")
        if not ok:
            # A degraded cell carries no metrics; the tiling
            # invariants below only hold for completed runs.
            continue
        for j, row in enumerate(timeline):
            for k in TIMELINE_FIELDS:
                if not isinstance(row.get(k), (int, float)):
                    fail(path, f"{where}.timeline[{j}].{k} missing")
        if timeline:
            # The samples must tile the measurement window exactly.
            if sum(row["insts"] for row in timeline) != r["insts"]:
                fail(path, f"{where}: timeline insts do not sum to insts")
            if sum(row["cycles"] for row in timeline) != r["cycles"]:
                fail(path, f"{where}: timeline cycles do not sum to cycles")

        sampling = r.get("sampling")
        if sampling is not None:
            for k in SAMPLING_FIELDS:
                if not isinstance(sampling.get(k), (int, float)):
                    fail(path, f"{where}.sampling.{k} missing")
                if sampling[k] < 0:
                    fail(path, f"{where}.sampling.{k} is negative")
            if sampling["windows"] < 1:
                fail(path, f"{where}.sampling: no measured windows")
            if (sampling["length_insts"] == 0 or
                    sampling["warmup_insts"] + sampling["length_insts"]
                    > sampling["period_insts"]):
                fail(path, f"{where}.sampling: schedule does not fit "
                           "its period")
            if (sampling["total_insts"] !=
                    sampling["windows"] * sampling["period_insts"]):
                fail(path, f"{where}.sampling: total_insts is not "
                           "windows * period_insts")
            if sampling["measured_insts"] != r["insts"]:
                fail(path, f"{where}.sampling: measured_insts does "
                           "not match the result's insts")
            if (sampling["warm_kernel_insts"] +
                    sampling["warm_scalar_insts"]
                    != sampling["warm_ff_insts"]):
                fail(path, f"{where}.sampling: warm kernel/scalar "
                           "split does not sum to the fast-forward "
                           "total")
            if interval != sampling["length_insts"]:
                fail(path, f"{where}: interval_insts does not match "
                           "the sample length")
            if len(timeline) != sampling["windows"]:
                fail(path, f"{where}: one timeline row per measured "
                           "window expected")
            if sampling["est_total_cycles"] < r["cycles"]:
                fail(path, f"{where}.sampling: extrapolated cycles "
                           "below the measured cycles")

    timing = doc.get("timing")
    if timing is not None:
        for k in ("jobs", "threads", "wall_seconds"):
            if not isinstance(timing.get(k), (int, float)):
                fail(path, f"timing.{k} missing or not a number")

    trace = doc.get("trace")
    if trace is not None:
        for k in TRACE_FIELDS:
            if not isinstance(trace.get(k), (int, float)):
                fail(path, f"trace.{k} missing or not a number")
            if trace[k] < 0:
                fail(path, f"trace.{k} is negative")

    if n_not_ok > allow_failed:
        for r in results:
            if r["status"] != "ok":
                print(f"{path}: {r['workload']}/{r['variant']} "
                      f"{r['status']}: {r['error']}", file=sys.stderr)
        fail(path, f"{n_not_ok} cells not ok (allowed {allow_failed})")

    n_timelines = sum(1 for r in results if r["timeline"])
    note = f", {n_not_ok} not ok" if n_not_ok else ""
    print(f"{path}: OK ({len(results)} results, "
          f"{n_timelines} with timelines{note})")


def check_throughput_document(path, doc):
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    if doc.get("schema") != THROUGHPUT_SCHEMA:
        fail(path, f"schema is {doc.get('schema')!r}, "
                   f"expected {THROUGHPUT_SCHEMA!r}")
    geomean = doc.get("geomean_mips")
    if not isinstance(geomean, (int, float)) or geomean <= 0:
        fail(path, "geomean_mips missing or not positive")
    rows = doc.get("throughput")
    if not isinstance(rows, list) or not rows:
        fail(path, "missing or empty 'throughput' array")
    for i, r in enumerate(rows):
        where = f"throughput[{i}]"
        for k in THROUGHPUT_STR_FIELDS:
            if not isinstance(r.get(k), str):
                fail(path, f"{where}.{k} missing or not a string")
        for k in THROUGHPUT_NUM_FIELDS:
            if not isinstance(r.get(k), (int, float)):
                fail(path, f"{where}.{k} missing or not a number")
        if r["wall_seconds"] <= 0 or r["mips"] <= 0:
            fail(path, f"{where}: non-positive wall_seconds/mips")
    timing = doc.get("timing")
    if not isinstance(timing, dict):
        fail(path, "missing 'timing' block")
    for k in ("jobs", "threads", "wall_seconds"):
        if not isinstance(timing.get(k), (int, float)):
            fail(path, f"timing.{k} missing or not a number")
    # Host metadata (host_cpus / host_jobs) is optional — older
    # documents predate it — but when present it must be sane.
    for k in ("host_cpus", "host_jobs"):
        if k in timing and (not isinstance(timing[k], int)
                            or timing[k] <= 0):
            fail(path, f"timing.{k} is not a positive integer")
    print(f"{path}: OK ({len(rows)} throughput rows, "
          f"geomean {geomean:.3f} MIPS)")


def row_geomean(doc, keys):
    import math
    vals = [r["mips"] for r in doc["throughput"]
            if (r["workload"], r["variant"]) in keys]
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def compare_throughput(base_path, base, new_path, new):
    # Compare geomean MIPS over the rows present in BOTH documents, so
    # a strided smoke run (bench_throughput --stride N) gates against
    # the full-grid committed baseline without bias.
    keys = ({(r["workload"], r["variant"]) for r in base["throughput"]} &
            {(r["workload"], r["variant"]) for r in new["throughput"]})
    if not keys:
        fail(new_path, f"no rows in common with baseline {base_path}")
    old_g, new_g = row_geomean(base, keys), row_geomean(new, keys)
    ratio = new_g / old_g
    if ratio < 1.0 - REGRESSION_TOLERANCE:
        fail(new_path,
             f"geomean MIPS regressed {100 * (1 - ratio):.1f}% over "
             f"{len(keys)} common rows ({old_g:.3f} -> {new_g:.3f}, "
             f"baseline {base_path}); tolerance is "
             f"{100 * REGRESSION_TOLERANCE:.0f}%")
    print(f"baseline: geomean {old_g:.3f} -> {new_g:.3f} MIPS over "
          f"{len(keys)} common rows ({100 * (ratio - 1):+.1f}%) "
          f"within tolerance")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, str(e))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", metavar="FILE")
    ap.add_argument("--compare", action="store_true",
                    help="compare exactly two documents, ignoring "
                         "the 'timing', 'trace' and per-result "
                         "'sampling' blocks")
    ap.add_argument("--throughput", action="store_true",
                    help="validate elfsim-throughput-v1 documents "
                         "instead of results documents")
    ap.add_argument("--baseline", metavar="BASE",
                    help="with --throughput: fail on a >10%% geomean "
                         "MIPS regression versus this baseline")
    ap.add_argument("--allow-failed", type=int, default=0, metavar="N",
                    help="tolerate up to N non-ok cells per results "
                         "document (default 0)")
    args = ap.parse_args()

    if args.baseline and not args.throughput:
        ap.error("--baseline requires --throughput")
    if args.throughput and args.compare:
        ap.error("--throughput and --compare are mutually exclusive")

    if args.throughput:
        for path in args.files:
            doc = load(path)
            check_throughput_document(path, doc)
            if args.baseline:
                base = load(args.baseline)
                check_throughput_document(args.baseline, base)
                compare_throughput(args.baseline, base, path, doc)
        return

    docs = {p: load(p) for p in args.files}
    for path, doc in docs.items():
        check_document(path, doc, allow_failed=args.allow_failed)

    if args.compare:
        if len(args.files) != 2:
            ap.error("--compare takes exactly two files")
        a, b = (dict(docs[p]) for p in args.files)
        for d in (a, b):
            d.pop("timing", None)
            d.pop("trace", None)
            # ckpt_* counters track cache warmth, not simulation.
            for r in d.get("results", []):
                r.pop("sampling", None)
        if a != b:
            fail(args.files[1],
                 f"results differ from {args.files[0]} "
                 "(after ignoring 'timing', 'trace' and 'sampling')")
        print(f"compare: identical results ({args.files[0]} vs "
              f"{args.files[1]})")


if __name__ == "__main__":
    main()
