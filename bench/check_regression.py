#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench JSON against the checked-in
baseline and fail on a >25% regression of the transport / injection /
coordinator / service metrics.

Usage: bench/check_regression.py BASELINE.json CURRENT.json [CURRENT.json ...]
                                   [--tolerance 0.25]

With several CURRENT files (repeated smoke runs), each metric is gated on
the median of its per-run values: on a shared multi-core host a single
smoke run fails a different within-run ratio each time, while the median
of three does not move that far.

The compared quantities are dimensionless within-run ratios, not absolute
ns/ops numbers: CI runners and dev boxes differ in clock speed by far more
than any real regression, but (for example) "4-producer contended injection
vs one submitter on the same machine in the same run" is
machine-independent. A metric missing from either file (e.g. micro_bench
unavailable) is reported and skipped, not failed — the bench-smoke job's
purpose is catching real regressions, not flaking on environment gaps.
"""

import argparse
import json
import statistics
import sys


def get(d, *path):
    for p in path:
        if d is None:
            return None
        if isinstance(p, int):
            d = d[p] if isinstance(d, list) and len(d) > p else None
        else:
            d = d.get(p) if isinstance(d, dict) else None
    return d


def num(x):
    """A JSON leaf is only usable as a metric if it is a real number.
    Strings, nulls, objects and booleans (json's `true` IS a Python int!)
    all collapse to None so the caller skips instead of raising TypeError
    in a comparison."""
    return x if isinstance(x, (int, float)) and not isinstance(x, bool) else None


def ratio(a, b):
    a, b = num(a), num(b)
    if a is None or b is None or b == 0:
        return None
    return a / b


def lease_batch_speedup(d):
    """Batched (K=16) remote bracket throughput vs K=1. Higher is better."""
    rows = get(d, "transport", "lease_batching")
    if not isinstance(rows, list):
        return None  # section absent or malformed (e.g. an error object)
    for row in rows:
        if isinstance(row, dict) and row.get("lease_batch") == 16:
            return num(row.get("speedup_vs_k1"))
    return None


def tcp_batching_speedup(d):
    """TCP-loopback bracket throughput at lease_batch 16 vs 1 (PR 10).
    The TCP twin of lease_batching_k16_speedup: a within-run ratio on the
    same socket, so machine speed cancels. Higher is better."""
    return ratio(get(d, "transport", "tcp", "tasks_per_sec_k16"),
                 get(d, "transport", "tcp", "tasks_per_sec_k1"))


def inject_contended(d):
    """4-producer contended injection vs single-submitter drain. Higher is better."""
    return ratio(get(d, "pool_tasks_per_sec", "inject_contended_4"),
                 get(d, "pool_tasks_per_sec", "submit_drain_lp2"))


def arbitration_flatness(d):
    """Per-arbitration latency with a 100x larger cold registry vs the same
    armed set alone (PR 7 active-set index). Already a within-run ratio;
    ~1.0 when arbitration is flat in registrations. Lower is better."""
    return get(d, "coordinator_scale", "arbitration_flatness_ratio")


def slo_attainment_ratio(d):
    """SLO tenant's p99 attainment under the coordinator vs the FIFO
    baseline on the same seeded stream (PR 9 service scenario). A
    within-run A/B ratio, so machine speed cancels; > 1 means tail-driven
    grants + weighted dispatch beat raw capacity. Higher is better."""
    return get(d, "service", "attainment_ratio")


# (name, extractor, higher_is_better, tolerance_override)
# tolerance_override (None = use --tolerance): the CI gate compares a
# FULL-mode checked-in baseline against a --smoke current run; most
# metrics are within-run ratios that survive that, but the smoke service
# scenario replays a structurally shorter/slower stream (1.5 s @ 80 Hz vs
# 4 s @ 150 Hz), which alone shifts the attainment A/B by ~25% — the PR 9
# gate passed with a 0.2% margin. 0.5 keeps real breakage (the ratio
# collapsing toward 1.0 = "no better than FIFO") failing loudly without
# flaking on the known full-vs-smoke offset.
METRICS = [
    ("lease_batching_k16_speedup", lease_batch_speedup, True, None),
    ("tcp_batching_k16_speedup", tcp_batching_speedup, True, None),
    ("inject_contended_vs_single", inject_contended, True, None),
    ("arbitration_flatness_ratio", arbitration_flatness, False, None),
    ("slo_attainment_ratio", slo_attainment_ratio, True, 0.5),
]


def load_json(path, role):
    """Read a bench JSON with an actionable message instead of a traceback:
    a missing baseline usually means the PR renamed BENCH_PR<N>.json without
    updating the CI gate (or forgot to check the new baseline in)."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"error: {role} file '{path}' not found.\n"
                 f"Hint: the {role} path comes from the CI bench gate; when a "
                 "PR moves to a new BENCH_PR<N>.json, check the new baseline "
                 "in and point the workflow at it.")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {role} file '{path}' is not valid JSON: {e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="+",
                    help="one or more bench JSONs of the change; a metric "
                         "is gated on the median over them")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    args = ap.parse_args()

    base = load_json(args.baseline, "baseline")
    currents = [load_json(path, "current") for path in args.current]

    failures = []
    compared = 0
    for name, extract, higher_better, tol_override in METRICS:
        # Extractors are defensive (get()/ratio()/num() absorb missing
        # sections and wrong-typed leaves), but a future bench-JSON shape
        # change must surface as a named metric error, not a traceback.
        try:
            b = num(extract(base))
            runs = [v for v in (num(extract(cur)) for cur in currents)
                    if v is not None]
            c = statistics.median(runs) if runs else None
        except Exception as e:  # pragma: no cover - belt and braces
            sys.exit(f"error: metric '{name}' could not be read "
                     f"({type(e).__name__}: {e}).\n"
                     "Hint: the bench JSON layout changed; update the "
                     "extractor in bench/check_regression.py to match.")
        if b is None or c is None:
            print(f"SKIP {name}: baseline={b} current={c} "
                  "(metric missing from one side — environment gap, "
                  "not a regression)")
            continue
        if b <= 0:
            print(f"SKIP {name}: baseline={b} is not positive — a zero "
                  "baseline has no meaningful 'percent change'; re-generate "
                  "the checked-in baseline on a working machine")
            continue
        compared += 1
        tolerance = args.tolerance if tol_override is None else tol_override
        change = (c - b) / b
        if higher_better:
            regressed = change < -tolerance
        else:
            regressed = change > tolerance
        verdict = "FAIL" if regressed else "ok"
        spread = ""
        if len(runs) > 1:
            spread = " (median of " + ", ".join(f"{v:.4f}" for v in runs) + ")"
        print(f"{verdict:4} {name}: baseline={b:.4f} current={c:.4f}{spread} "
              f"change={change:+.1%} (tolerance ±{tolerance:.0%}, "
              f"{'higher' if higher_better else 'lower'} is better)")
        if regressed:
            failures.append(name)

    if failures:
        print(f"\nregressions beyond tolerance: {', '.join(failures)}")
        return 1
    if compared == 0:
        print("\nerror: no metric was comparable between baseline and "
              "current — the files do not overlap on any tracked quantity "
              "(wrong baseline for this PR?)")
        return 1
    print(f"\nno regressions beyond tolerance ({compared} metrics compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
