#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 autobench/test_autobench.py

For every workload, a short untraced run must pass its correctness checks and
print every end-to-end metric of BENCHMARK.json with its unit and a sample
count; a short traced run must print every per-layer metric, write spans that
nest, and keep idle layers idle. The nesting checks (the harness's and this
file's) must reject hand-built broken span sets. A copy holding only
BENCHMARK.json and the benchmark's directory must fail cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "autobench"))
import run as bench  # noqa: E402  (the benchmark's build step)

WORKLOADS = ["wordcount", "wide_map", "slo_stream", "remote_map"]
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--short"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return p


def last_json(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


def metric_lines(p):
    """name -> (unit, n) from the human-readable lines."""
    out = {}
    for line in p.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[3].startswith("n="):
            out[parts[0]] = (parts[2], int(parts[3][2:]))
    return out


def nesting_errors(spans):
    """Ways a span set breaks nesting: a missing parent, a non-run span with
    no parent, a child outside its parent's interval, or same-thread children
    whose durations add up to more than their parent's."""
    errors = []
    by_id = {s["id"]: s for s in spans}
    nested = {}
    for s in spans:
        if s["parent"] == 0:
            if s["name"] != "harness.run":
                errors.append(("no parent", s))
            continue
        p = by_id.get(s["parent"])
        if p is None:
            errors.append(("parent never recorded", s))
            continue
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            errors.append(("outside its parent", s))
        if s["thread"] == p["thread"]:
            nested[p["id"]] = nested.get(p["id"], 0) + s["end_ns"] - s["start_ns"]
    for s in spans:
        if s["end_ns"] - s["start_ns"] - nested.get(s["id"], 0) < 0:
            errors.append(("negative self time", s))
    return errors


def span(id, parent, start, end, thread, name="skel.muscle"):
    return {"id": id, "parent": parent, "start_ns": start, "end_ns": end, "thread": thread,
            "name": name}


class EndToEnd(unittest.TestCase):
    def test_every_workload_is_correct_and_prints_every_metric(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = run(w, 0)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                r = last_json(p)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"], p.stdout)
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r["metrics"]), set(names))
                lines = metric_lines(p)
                for name, unit in names.items():
                    self.assertEqual(r["metrics"][name]["unit"], unit)
                    self.assertGreater(r["metrics"][name]["value"], 0.0, name)
                    self.assertIn(name, lines)
                    self.assertEqual(lines[name][0], unit)
                    self.assertGreaterEqual(lines[name][1], 1, name)
                self.assertIn("failed_ratio", lines)
                self.assertIn("seed=3", p.stdout)
                self.assertIn("build_type=", p.stdout)


class Traced(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = {}
        for w in WORKLOADS:
            p = run(w, 1)
            cls.results[w] = (p, last_json(p) if p.returncode == 0 else None)

    def test_every_layer_metric_is_printed_with_unit_and_n(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w, (p, r) in self.results.items():
            with self.subTest(workload=w):
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.assertTrue(r["correct"], p.stdout)
                self.assertEqual(set(r["metrics"]), set(names))
                lines = metric_lines(p)
                for name, unit in names.items():
                    self.assertEqual(r["metrics"][name]["unit"], unit)
                    self.assertIn(name, lines)
                    self.assertEqual(lines[name][0], unit)

    def test_spans_nest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                path = os.path.join(TRACE_DIR, f"{w}-seed3.jsonl")
                with open(path) as f:
                    header = json.loads(f.readline())
                    spans = [json.loads(line) for line in f]
                self.assertEqual(header["seed"], 3)
                self.assertTrue(spans)
                self.assertEqual(nesting_errors(spans)[:5], [])

    def test_layers_that_a_workload_bypasses_stay_idle(self):
        m = {w: r["metrics"] for w, (p, r) in self.results.items()}
        for w in ("slo_stream", "remote_map"):
            for name in ("adg.activities", "adg.snapshot_us", "adg.limited_lp_us",
                         "adg.best_effort_us"):
                self.assertEqual(m[w][name]["value"], 0.0, (w, name))
        for w in WORKLOADS:
            remote = [k for k in m[w] if k.startswith("runtime.remote.")]
            for name in remote:
                if w == "remote_map":
                    if name != "runtime.remote.losses_recovered":
                        self.assertGreater(m[w][name]["value"], 0.0, (w, name))
                else:
                    self.assertEqual(m[w][name]["value"], 0.0, (w, name))
            arb = m[w]["autonomic.arbitrations"]["value"]
            if w == "slo_stream":
                self.assertGreater(arb, 0.0)
            else:
                self.assertEqual(arb, 0.0, w)
        self.assertEqual(m["slo_stream"]["autonomic.budget_violations"]["value"], 0.0)
        for w in ("wordcount", "wide_map"):
            self.assertGreater(m[w]["autonomic.evaluations"]["value"], 0.0)
            self.assertGreater(m[w]["adg.activities"]["value"], 0.0)


class NestingCheck(unittest.TestCase):
    def test_harness_check_rejects_broken_sets(self):
        bench.build(("trace_test",))
        p = subprocess.run([os.path.join(bench.BUILD_DIR, "trace_test")], capture_output=True,
                           text=True, timeout=60)
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_python_check_rejects_broken_sets(self):
        run_span = span(1, 0, 0, 100, 1, "harness.run")
        self.assertEqual(nesting_errors([run_span, span(2, 1, 10, 30, 1),
                                         span(3, 1, 5, 95, 2)]), [])
        broken = {
            "outside its parent": [run_span, span(2, 1, 90, 120, 2)],
            "negative self time": [run_span, span(2, 1, 0, 60, 1), span(3, 1, 40, 100, 1)],
            "parent never recorded": [run_span, span(2, 999, 10, 20, 1)],
            "no parent": [run_span, span(2, 0, 10, 20, 1)],
        }
        for why, spans in broken.items():
            with self.subTest(why=why):
                self.assertEqual([e[0] for e in nesting_errors(spans)], [why])


class Standalone(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for d in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, d), os.path.join(bare, d))
        cmd = SPEC["command"] + ["--workload", "wide_map", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"]
        p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
