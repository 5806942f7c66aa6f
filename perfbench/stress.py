#!/usr/bin/env python3
"""Opt-in stress mode: reduced Groebner bases of random inhomogeneous ideals.

These are the 60 ideals of the old `benchmarks/bench_kernel.py --workloads
groebner` case (3 variables, 3 generators of 4 terms, exponents up to 4,
random.Random(11)).  On the pure kernel that case ran for more than ten
minutes, so it is not a named workload and nothing gates on it.  Each ideal
runs in its own child process under a deadline; the report says how many
finished and how many hit the deadline of DEADLINE_S seconds.

    python3 perfbench/stress.py
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

IDEALS = 60
DEADLINE_S = 2.0  # seconds allowed per ideal

CHILD = """
import json, sys, time
from tamemod.exactalg import EdgeRing, groebner
ring = EdgeRing(("x", "y", "z"))
gens = [ring.poly({tuple(e): c for e, c in g}) for g in json.loads(sys.argv[1])]
gens = [g for g in gens if not g.is_zero()]
t0 = time.perf_counter()
basis = groebner(gens) if gens else ()
print(json.dumps({"seconds": time.perf_counter() - t0, "basis": len(basis)}))
"""


def ideals(seed: int = 11) -> list:
    """The generator terms of each ideal, drawn exactly as bench_kernel drew them."""
    rng = random.Random(seed)
    out = []
    for _ in range(IDEALS):
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(4):
                expo = tuple(rng.randint(0, 4) for _ in range(3))
                terms[expo] = rng.randint(-5, 5)
            gens.append(sorted(terms.items()))
        out.append(gens)
    return out


def run_one(gens, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(gens)], env=env, capture_output=True, text=True, timeout=deadline
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"status": "timeout", "seconds": time.perf_counter() - t0}
    if proc.returncode != 0:
        return {"status": "error", "seconds": time.perf_counter() - t0, "stderr": proc.stderr[-500:]}
    return {"status": "finished", **json.loads(proc.stdout.strip().splitlines()[-1])}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tamemod")):
        print(f"error: no tamemod sources under {SRC}", file=sys.stderr)
        return 2
    results = []
    for i, gens in enumerate(ideals()):
        res = {"ideal": i, **run_one(gens, DEADLINE_S)}
        results.append(res)
        print(json.dumps(res), flush=True)
    counts = {s: sum(1 for r in results if r["status"] == s) for s in ("finished", "timeout", "error")}
    print(json.dumps({"deadline_s": DEADLINE_S, "ideals": len(results), **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
