#!/usr/bin/env python3
"""Alternating A/B of the end-to-end benchmark (autobench) between two trees.

Builds a parent and a change side in separate scratch checkouts, then runs
N pairs per workload, alternating which side goes first, with the same seed
on both sides of a pair. For every end-to-end metric that BENCHMARK.json
declares it prints both sides' median and [q1, q3], the change's median
delta, and how many pairs the change won (strictly better in the metric's
declared direction). The checkouts are copies: nothing under autobench/ or
BENCHMARK.json in the working tree is touched.

Usage (from anywhere inside the repository):

    tools/ab_autobench.py --scratch /tmp/ab --workloads remote_map \\
        --pairs 10 --seed-base 101 [--parent HEAD] [--change WORKTREE] \\
        [--seconds 15] [--json out.json]

--parent / --change take any git revision; --change defaults to WORKTREE,
the working tree as it stands (tracked files plus untracked ones that are not
ignored). --parent defaults to HEAD. Each side builds once in its checkout
(autobench/run.py configures and builds it in <checkout>/.bench_build).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKTREE = "WORKTREE"


def repo_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def export_tree(root, rev, dest):
    """Materialise `rev` (or the working tree) under `dest`."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == WORKTREE:
        files = subprocess.run(
            ["git", "-C", root, "ls-files", "-z", "-co", "--exclude-standard"],
            check=True, capture_output=True).stdout.split(b"\0")
        for rel in (f.decode() for f in files if f):
            src = os.path.join(root, rel)
            if not os.path.isfile(src):
                continue  # deleted in the working tree but still indexed
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
        return
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"ab_autobench: git archive {rev} failed")


def run_once(tree, workload, seed, seconds, extra, timeout):
    cmd = [sys.executable, "autobench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    cmd += extra
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=timeout)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        sys.exit(f"ab_autobench: {workload} seed {seed} failed in {tree} "
                 f"(exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(workload, metrics, pairs):
    """One table per workload: both sides' spread, delta and wins."""
    n = len(pairs)
    print(f"\n== {workload}: {n} alternating pairs, seeds "
          f"{pairs[0]['seed']}..{pairs[-1]['seed']}, nproc {os.cpu_count()}")
    print(f"{'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>6} "
          f"{'gap>IQR':>8}")
    rows = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [p["parent"]["metrics"][name]["value"] for p in pairs]
        b = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        qa, qb = quartiles(a), quartiles(b)
        delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        gap = abs(qb[1] - qa[1]) > (qa[2] - qa[0])
        spread_a = f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
        spread_b = f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
        print(f"{name:<14} {spread_a:<34} {spread_b:<34} {delta:>+8.2%} "
              f"{wins:>3}/{n:<2} {'yes' if gap else 'no':>8}")
        rows[name] = {"parent": a, "change": b, "wins": wins,
                      "parent_quartiles": qa, "change_quartiles": qb}
    failed = [(p["parent"].get("failed", 0), p["change"].get("failed", 0))
              for p in pairs]
    print(f"failed (parent, change) per pair: {failed}")
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scratch", required=True,
                    help="directory for the two checkouts (recreated)")
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default=WORKTREE)
    ap.add_argument("--workloads", default="",
                    help="comma-separated; default: every BENCHMARK.json workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="per run; default: BENCHMARK.json run_seconds")
    ap.add_argument("--short", action="store_true",
                    help="forward --short to the harness (smoke only)")
    ap.add_argument("--json", default="", help="write every reading here")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ab_autobench: --pairs must be >= 1")
    if args.pairs < 10:
        print(f"note: {args.pairs} pairs is below the 10 a gain claim needs",
              file=sys.stderr)

    root = repo_root()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench.get("run_seconds", 15)
    extra = ["--short"] if args.short else []
    timeout = 240 + 4 * seconds

    sides = {"parent": os.path.join(args.scratch, "parent"),
             "change": os.path.join(args.scratch, "change")}
    export_tree(root, args.parent, sides["parent"])
    export_tree(root, args.change, sides["change"])
    for side, tree in sides.items():
        # Builds the harness; the reading itself is discarded (a warm-up).
        print(f"building {side} ({tree}) ...", file=sys.stderr)
        run_once(tree, workloads[0], args.seed_base, 1, ["--short"], 900)

    results = {}
    for workload in workloads:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed_base + k
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds,
                                      extra, timeout)
            print(f"{workload} pair {k + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr)
            pairs.append(pair)
        results[workload] = summarize(workload, bench["end_to_end"], pairs)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"parent": args.parent, "change": args.change,
                       "seconds": seconds, "nproc": os.cpu_count(),
                       "workloads": results}, f, indent=1)


if __name__ == "__main__":
    main()
