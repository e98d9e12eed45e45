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

    scripts/check_results.py --spec FILE [FILE ...]
        Schema-check elfsim-sweepspec-v1 documents (a bench's
        --dump-spec archive).

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
        if not ok:
            # A degraded cell carries no metrics; the tiling
            # invariants below only hold for completed runs.
            continue
        if interval > 0 and r["insts"] > 0 and not timeline:
            fail(path, f"{where}: interval sampling on but timeline empty")
        if interval == 0 and timeline:
            fail(path, f"{where}: timeline present without interval_insts")
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


SPEC_SCHEMA = "elfsim-sweepspec-v1"
SPEC_RUN_FIELDS = (
    "warmup_insts", "measure_insts", "interval_insts",
    "sample_period_insts", "sample_length_insts",
    "sample_warmup_insts",
)
# Sweep policies were removed and the writer no longer emits the
# block. Archived specs may still carry it; every field is optional
# and valid only at its old default.
SPEC_POLICY_DEFAULTS = {
    "keep_going": True, "deadline_seconds": 0, "stall_seconds": 0,
    "max_retries": 0, "manifest_path": "", "resume": False,
}
# A selector carries exactly one of these keys (plus its modifiers).
SPEC_SELECTOR_KINDS = ("name", "set", "suite", "micro", "synthetic")


def check_spec_run(path, where, run):
    if not isinstance(run, dict):
        fail(path, f"{where} is not an object")
    for k, v in run.items():
        if k not in SPEC_RUN_FIELDS:
            fail(path, f"{where}.{k}: unknown field")
        if not isinstance(v, int) or v < 0:
            fail(path, f"{where}.{k} is not a non-negative integer")
    period = run.get("sample_period_insts", 0)
    length = run.get("sample_length_insts", 0)
    warmup = run.get("sample_warmup_insts", 0)
    if period > 0 and (length == 0 or warmup + length > period):
        fail(path, f"{where}: sampling schedule does not fit its "
                   "period")
    if period == 0 and (length or warmup):
        fail(path, f"{where}: sample length/warmup without a period")


def check_spec_selector(path, where, sel):
    if not isinstance(sel, dict):
        fail(path, f"{where} is not an object")
    kinds = [k for k in SPEC_SELECTOR_KINDS if k in sel]
    if len(kinds) != 1:
        fail(path, f"{where}: need exactly one of "
                   f"{SPEC_SELECTOR_KINDS}, got {kinds}")
    kind = kinds[0]
    if not isinstance(sel[kind], str) or not sel[kind]:
        fail(path, f"{where}.{kind} is not a non-empty string")
    allowed = {kind}
    if kind == "set":
        allowed.add("stride")
    elif kind == "micro":
        allowed.add("args")
    elif kind == "synthetic":
        allowed.update(("params", "seed"))
    for k in sel:
        if k not in allowed:
            fail(path, f"{where}.{k}: unknown field for a "
                       f"'{kind}' selector")
    if "stride" in sel and (not isinstance(sel["stride"], int) or
                            sel["stride"] < 1):
        fail(path, f"{where}.stride is not a positive integer")
    if kind == "micro":
        args = sel.get("args")
        if (not isinstance(args, list) or
                not all(isinstance(a, (int, float)) for a in args)):
            fail(path, f"{where}.args missing or not a number array")
    if kind == "synthetic":
        params = sel.get("params")
        if not isinstance(params, dict):
            fail(path, f"{where}.params missing or not an object")
        for k, v in params.items():
            if not isinstance(v, (int, float)):
                fail(path, f"{where}.params.{k} is not a number")
        if "seed" in sel and not isinstance(sel["seed"], int):
            fail(path, f"{where}.seed is not an integer")


def check_spec_config(path, where, cfg):
    if not isinstance(cfg, dict):
        fail(path, f"{where} is not an object")
    if not isinstance(cfg.get("variant"), str):
        fail(path, f"{where}.variant missing or not a string")
    for k in cfg:
        if k not in ("variant", "label", "overrides"):
            fail(path, f"{where}.{k}: unknown field")
    if "label" in cfg and not isinstance(cfg["label"], str):
        fail(path, f"{where}.label is not a string")
    overrides = cfg.get("overrides", {})
    if not isinstance(overrides, dict):
        fail(path, f"{where}.overrides is not an object")
    for k, v in overrides.items():
        if not isinstance(v, (bool, int, float, str)):
            fail(path, f"{where}.overrides.{k} is not a scalar")


def check_spec_document(path, doc):
    if not isinstance(doc, dict):
        fail(path, "top level is not an object")
    if doc.get("schema") != SPEC_SCHEMA:
        fail(path, f"schema is {doc.get('schema')!r}, "
                   f"expected {SPEC_SCHEMA!r}")
    for k in doc:
        if k not in ("schema", "name", "jobs", "base_seed", "run",
                     "policy", "groups", "workloads", "configs"):
            fail(path, f"{k}: unknown top-level field")
    if "name" in doc and not isinstance(doc["name"], str):
        fail(path, "name is not a string")
    for k in ("jobs", "base_seed"):
        if k in doc and (not isinstance(doc[k], int) or doc[k] < 0):
            fail(path, f"{k} is not a non-negative integer")
    if "run" in doc:
        check_spec_run(path, "run", doc["run"])
    if "policy" in doc:
        policy = doc["policy"]
        if not isinstance(policy, dict):
            fail(path, "policy is not an object")
        for k, v in policy.items():
            if k not in SPEC_POLICY_DEFAULTS:
                fail(path, f"policy.{k}: unknown field")
            want = SPEC_POLICY_DEFAULTS[k]
            # bool is an int subtype in Python; keep them distinct.
            if isinstance(v, bool) != isinstance(want, bool) or v != want:
                fail(path, f"policy.{k} must be {json.dumps(want)} "
                           "(sweep policies were removed)")

    groups = doc.get("groups")
    if groups is not None and ("workloads" in doc or
                               "configs" in doc):
        fail(path, "spec mixes top-level workloads/configs with "
                   "explicit groups")
    if groups is None:
        # Shorthand: top-level workloads/configs form one group.
        groups = [{k: doc[k] for k in ("workloads", "configs")
                   if k in doc}]
    if not isinstance(groups, list) or not groups:
        fail(path, "missing or empty 'groups'")
    n_workloads = n_configs = 0
    for gi, g in enumerate(groups):
        where = f"groups[{gi}]"
        if not isinstance(g, dict):
            fail(path, f"{where} is not an object")
        for k in g:
            if k not in ("workloads", "configs", "run"):
                fail(path, f"{where}.{k}: unknown field")
        workloads = g.get("workloads")
        configs = g.get("configs")
        if not isinstance(workloads, list) or not workloads:
            fail(path, f"{where}: missing or empty 'workloads'")
        if not isinstance(configs, list) or not configs:
            fail(path, f"{where}: missing or empty 'configs'")
        for i, sel in enumerate(workloads):
            check_spec_selector(path, f"{where}.workloads[{i}]", sel)
        for i, cfg in enumerate(configs):
            check_spec_config(path, f"{where}.configs[{i}]", cfg)
        if "run" in g:
            check_spec_run(path, f"{where}.run", g["run"])
        n_workloads += len(workloads)
        n_configs += len(configs)
    print(f"{path}: OK (sweepspec {doc.get('name', '')!r}, "
          f"{len(groups)} groups, {n_workloads} workload selectors x "
          f"{n_configs} config rows)")


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
    ap.add_argument("--spec", action="store_true",
                    help="validate elfsim-sweepspec-v1 documents "
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
    if sum((args.throughput, args.spec, args.compare)) > 1:
        ap.error("--throughput/--spec/--compare are mutually exclusive")

    if args.spec:
        for path in args.files:
            check_spec_document(path, load(path))
        return

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
