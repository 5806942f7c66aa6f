#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Each file holds one result written by `run.py --out`, or a list of them, or a
BENCH file ({"runs": [...]}).  Runs are grouped by workload and, for each
metric, the medians and quartiles of the two sides are printed with the
change as a share of the base median and the metric's bound from
BENCHMARK.json.  Results measured on different kernels or Python versions are
not comparable; the script refuses them and exits with code 2.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

MUST_MATCH = ("kernel", "python", "implementation")


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "runs" in doc:
        return doc["runs"]
    return doc if isinstance(doc, list) else [doc]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def check_comparable(base: list[dict], new: list[dict]) -> list[str]:
    problems = []
    for key in MUST_MATCH:
        seen = {r["stamp"].get(key) for r in base + new}
        if len(seen) > 1:
            problems.append(f"runs differ in {key}: {sorted(map(str, seen))}")
    return problems


def compare(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for wl in sorted({r["stamp"]["workload"] for r in base + new}):
        b_runs = [r for r in base if r["stamp"]["workload"] == wl]
        n_runs = [r for r in new if r["stamp"]["workload"] == wl]
        if not b_runs or not n_runs:
            continue
        for name in b_runs[0]["result"]["metrics"]:
            b = [r["result"]["metrics"][name]["value"] for r in b_runs if name in r["result"]["metrics"]]
            n = [r["result"]["metrics"][name]["value"] for r in n_runs if name in r["result"]["metrics"]]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            spec_m = metrics.get(name, {})
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = change if spec_m.get("better") == "lower" else -change
            bound = spec_m.get("bound")
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            if bound is None:
                verdict = ""
            elif worse > bound:
                verdict = "WORSE than bound"
            elif spread > bound and not (max(n) < min(b) or min(n) > max(b)):
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "within bound"
            lines.append(
                f"{wl:<10} {name:<40} base {bq[1]:>12.6g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                f"  new {nq[1]:>12.6g} [{nq[0]:.4g}, {nq[2]:.4g}]  {change:+7.1%}"
                f"  {spec_m.get('unit', '')} {('bound %.0f%% ' % (bound * 100)) if bound is not None else ''}{verdict}"
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load_runs(argv[0]), load_runs(argv[1])
    problems = check_comparable(base, new)
    if problems:
        for p in problems:
            print(f"refusing to compare: {p}", file=sys.stderr)
        return 2
    with open(SPEC_FILE) as fh:
        spec = json.load(fh)
    for line in compare(base, new, spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
