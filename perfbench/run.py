#!/usr/bin/env python3
"""Layered benchmark for tamemod.

Usage, from the repository root:

    python3 perfbench/run.py --workload transform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload support --seed 1 --seconds 30 --trace 1

Workloads: transform, harness, support (see perfbench/README.md).  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics and writes a trace file under perfbench/out/.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it print the same figures for people, with the
run's stamp (kernel, Python version, core count, seed).  --out FILE also
writes the whole result, stamp included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from rest import REF_S, at_rest, reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("transform", "harness", "support")
# The workloads' inputs come from a pool seed; --seed orders the pool.  The
# main pool is the acceptance suite's seed.  The hold-out pool is kept back
# for checking a later claim on inputs nobody tuned against.
POOL_SEEDS = {"main": 20260810, "holdout": 7919}
BASELINE_SEED = 1

PASSES = 7
def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n)."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0, 0.0, 0
    idx = max(0, n - 11)
    return xs[idx], 100.0 * (idx + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stamp(args) -> dict:
    from tamemod import kernel_name

    return {
        "workload": args.workload,
        "seed": args.seed,
        "pool": args.pool,
        "pool_seed": POOL_SEEDS[args.pool],
        "holdout_pool_seed": POOL_SEEDS["holdout"],
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "kernel": kernel_name(),
        "TAMEMOD_KERNEL": os.environ.get("TAMEMOD_KERNEL", ""),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Set-up and measurement


def set_up(wl, args, rounds, ledger):
    """One set-up from cold: a fresh interpreter imports tamemod, then the
    workload's inputs are built with every lru cache cleared.  Returns the
    inputs, the two times as measured, and their sum at rest."""
    refs = [reference_loop()]
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tamemod"], env=env, cwd=ROOT, check=True, timeout=120)
    import_s = time.perf_counter() - t0
    refs.append(reference_loop())
    ledger.clear()
    t0 = time.perf_counter()
    inputs = wl.setup(POOL_SEEDS[args.pool], args.seed, args.size, rounds)
    build_s = time.perf_counter() - t0
    refs.append(reference_loop())
    setup_s = at_rest(import_s, (refs[0] + refs[1]) / 2) + at_rest(build_s, (refs[1] + refs[2]) / 2)
    return inputs, import_s, build_s, setup_s


def rounds_for(wl, seconds: float, size: str) -> int:
    """Rounds that take `seconds` on the reference machine.  The amount of
    work depends only on --seconds, never on how fast this run goes, so a
    faster program does the same work sooner and runs stay comparable."""
    return 1 if size == "tiny" else max(1, round(seconds / wl.round_s))


def run_pass(wl, inputs, ledger, rounds, tracer=None):
    """Rounds 0..rounds-1, each from cold caches as in a fresh process, with
    the reference loop between them.  Returns one (seconds, ref_s, items) per
    round, where ref_s is the mean of the loops just before and after it."""
    out = []
    before = reference_loop()
    for r in range(rounds):
        ledger.clear()
        t0 = time.perf_counter()
        items = wl.run_round(inputs, r, tracer)
        seconds = time.perf_counter() - t0
        after = reference_loop()
        out.append((seconds, (before + after) / 2, items))
        before = after
    ledger.clear()
    return out


def pass_s(rounds) -> float:
    return sum(at_rest(seconds, ref_s) for seconds, ref_s, _ in rounds)


def measure(wl, args, ledger, rounds, passes=PASSES):
    """`passes` passes over the same rounds, each after a set-up of its own,
    so that set-up is timed as often as the work, at moments spread over the
    run.  The set-up's, each round's and each item's time is the median over
    the passes of its time at rest."""
    from workloads import Item

    setups, runs = [], []
    for _ in range(passes):
        inputs, import_s, build_s, setup_s = set_up(wl, args, rounds, ledger)
        setups.append((import_s, build_s, setup_s))
        runs.append(run_pass(wl, inputs, ledger, rounds))
    round_s, items = [], []
    for same_round in zip(*runs):
        round_s.append(median([at_rest(seconds, ref_s) for seconds, ref_s, _ in same_round]))
        for same_item in zip(*(its for _, _, its in same_round)):
            times = [it.at_rest for it in same_item]
            # A time already at rest, so ref_s keeps its default, REF_S.
            items.append(Item(same_item[0].key, median(times), all(it.ok for it in same_item)))
    refs = [ref_s for run in runs for _, ref_s, _ in run]
    setup = {
        "setup_s": median([at_rest_s for _, _, at_rest_s in setups]),
        "import_s": median([i for i, _, _ in setups]),
        "build_s": median([b for _, b, _ in setups]),
        "measured_pass_s": [sum(seconds for seconds, _, _ in run) for run in runs],
        "ref_s": {"median": median(refs), "min": min(refs), "max": max(refs), "at_rest": REF_S},
    }
    return inputs, setup, round_s, items


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(setup_s, round_s, items) -> tuple[dict, dict]:
    ms = [it.seconds * 1000.0 for it in items]
    tail_ms, pct, n = tail(ms)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(round_s),
        "item_ms.p50": median(ms),
        "item_ms.tail": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, {"tail_percentile": pct, "items": n, "rounds": len(round_s)}


def _slug(spec: str) -> str:
    return spec.replace(":", "-").replace(",", "-")


def per_layer(tr, ledger, overhead_frac) -> dict:
    from tracer import L1_PUBLIC
    from workloads import TRANSFORM_PREDICATES

    m = {
        "core.self_s": tr.layer_self_s("core"),
        "core.reduce.calls": tr.calls("reduce"),
        "core.reduce.self_s": tr.self_s("reduce"),
        "core.mul_term.self_s": tr.self_s("mul_term"),
        "core.spoly.calls": tr.calls("spoly"),
        "core.reduce.zero_frac": tr.reduce_zero / tr.calls("reduce") if tr.calls("reduce") else 0.0,
    }
    for fn in L1_PUBLIC:
        m[f"exactalg.{fn}.calls"] = tr.calls(fn)
        m[f"exactalg.{fn}.total_s"] = tr.total_s(fn)
    l1 = sorted(tr.l1_ms)
    m["exactalg.self_s"] = tr.layer_self_s("exactalg")
    m["exactalg.call_ms.p50"] = median(l1)
    m["exactalg.call_ms.p99"] = l1[min(len(l1) - 1, int(0.99 * len(l1)))] if l1 else 0.0
    m["exactalg.call_ms.max"] = l1[-1] if l1 else 0.0
    m["exactalg.max_coeff_bits"] = tr.max_coeff_bits
    m["exactalg.max_basis_len"] = tr.max_basis_len
    for name, (hits, misses, size) in ledger.totals.items():
        m[f"cache.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m[f"cache.{name}.size"] = size
    for fn in ("kernel", "torsion_data", "submodule_from_elements", "pullback"):
        m[f"gradedmod.{fn}.calls"] = tr.calls(fn)
        m[f"gradedmod.{fn}.total_s"] = tr.total_s(fn)
    m["gradedmod.self_s"] = tr.layer_self_s("gradedmod")
    m["gradedmod.is_tame_support.self_s"] = tr.self_s("is_tame_support")
    m["gradedmod.out_rank.max"] = max(tr.out_ranks, default=0)
    m["gradedmod.out_relations.mean"] = statistics.fmean(tr.out_relations) if tr.out_relations else 0.0
    for fn in ("transform", "verify", "random_certificate"):
        m[f"serre.{fn}.calls"] = tr.calls(fn)
        m[f"serre.{fn}.total_s"] = tr.total_s(fn)
    m["serre.self_s"] = tr.layer_self_s("serre")
    for spec in TRANSFORM_PREDICATES:
        m[f"drivers.transform_corpus.{_slug(spec)}_s"] = tr.total_s(f"transform_corpus[{spec}]")
    m["cli.self_s"] = tr.layer_self_s("cli")
    m["trace.overhead_frac"] = overhead_frac
    return m


def load_spec() -> dict:
    with open(SPEC_FILE) as fh:
        return json.load(fh)


def select(values: dict, declared: list) -> dict:
    """The declared metrics, with their units, in declaration order."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            print(f"warning: metric {name} was not measured; reporting 0", file=sys.stderr)
        out[name] = {"value": values.get(name, 0.0), "unit": entry["unit"]}
    return out


# ---------------------------------------------------------------------------


def run(args) -> dict:
    import tracer as tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    spec = load_spec()
    wl = workloads.make(args.workload, OUT_DIR)
    ledger = workloads.CacheLedger()
    # The pool is sized so that PASSES passes take --seconds.  A traced run
    # makes one untraced and one traced pass over the same pool.
    rounds = rounds_for(wl, args.seconds / PASSES, args.size)

    if not args.trace:
        inputs, setup, round_s, items = measure(wl, args, ledger, rounds)
        values, extra = end_to_end(setup["setup_s"], round_s, items)
        metrics = select(values, spec["end_to_end"])
        info = {"setup": setup, **extra}
        if args.workload == "transform":
            info["rows_sha256"] = wl.rows_sha256(inputs)
    else:
        inputs, import_s, build_s, _ = set_up(wl, args, rounds, ledger)
        info = {"setup": {"import_s": import_s, "build_s": build_s}}
        # One untraced pass, then the same rounds traced: the ratio of the two
        # is the tracing overhead.
        plain = run_pass(wl, inputs, ledger, rounds)
        items = [it for _, _, its in plain for it in its]
        ledger.reset()
        tr = tracing.Tracer()
        undo = tracing.install(tr, name_of={"transform_corpus": lambda a, kw: f"transform_corpus[{a[1].describe()}]"})
        try:
            traced = run_pass(wl, inputs, ledger, rounds, tracer=tr)
            items += [it for _, _, its in traced for it in its]
            overhead = pass_s(traced) / pass_s(plain) - 1.0
            values = per_layer(tr, ledger, overhead)
            info["rounds"] = rounds
            if args.workload == "transform" and args.size == "full":
                probe = wl.run_tail_probe(tr)
                items.append(probe)
                info["tail_probe"] = {"seconds": probe.seconds, "at_rest_s": probe.at_rest, "ok": probe.ok}
        finally:
            undo()
        metrics = select(values, spec["per_layer"])
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        write_trace(trace_path, args, tr, ledger, values, info)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)

    failed = sum(1 for it in items if not it.ok)
    info["failed_frac"] = failed / len(items) if items else 1.0
    return {
        "stamp": stamp(args),
        "info": info,
        "result": {"correct": failed == 0 and bool(items), "attempted": len(items), "failed": failed, "metrics": metrics},
    }


def write_trace(path, args, tr, ledger, values, info):
    doc = {
        "stamp": stamp(args),
        "metrics": values,
        "info": info,
        "slowest_l1_calls": tr.slowest_calls(),
        "by_function": {name: {"layer": st[0], "calls": st[1], "total_s": st[2], "self_s": st[3]} for name, st in sorted(tr.stats.items())},
        "caches": {name: {"hits": h, "misses": m, "max_size": s} for name, (h, m, s) in ledger.totals.items()},
        "span_fields": ["id", "name", "layer", "start", "end", "parent", "item"],
        "spans": tr.spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def report(res):
    st, info, result = res["stamp"], res["info"], res["result"]
    print("stamp: " + json.dumps(st, sort_keys=True))
    for name, m in result["metrics"].items():
        line = f"{st['workload']} {name} = {m['value']:.6g} {m['unit']}"
        if name == "item_ms.tail":
            line += f"  (p{info['tail_percentile']:.1f} of {info['items']} items)"
        print(line)
    print(f"{st['workload']} failed_frac = {info['failed_frac']:.6g} ratio  ({result['failed']} of {result['attempted']} items)")
    if "ref_s" in info["setup"]:
        ref = info["setup"]["ref_s"]
        print(
            f"{st['workload']} reference loop = {1000 * ref['median']:.3f} ms median over the run, "
            f"{1000 * ref['at_rest']:.3f} ms at rest; times above are scaled to rest"
        )
    if "rows_sha256" in info:
        print(f"{st['workload']} rows_sha256 = {info['rows_sha256']}  (not gated)")
    if "tail_probe" in info:
        probe = info["tail_probe"]
        print(f"{st['workload']} tail_probe = {probe['seconds']:.3f} s as measured, {probe['at_rest_s']:.3f} s at rest  ok={probe['ok']}")
    if "trace_file" in info:
        print(f"trace written to {info['trace_file']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=BASELINE_SEED, help="orders the pool's rounds")
    parser.add_argument("--pool", choices=sorted(POOL_SEEDS), default="main", help="input pool (holdout: for checking a claim)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time per run on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: one small round, for tests")
    parser.add_argument("--out", help="also write the stamped result as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tamemod", "__init__.py")) or not os.path.isfile(SPEC_FILE):
        print(f"error: no tamemod sources under {SRC} or no {SPEC_FILE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    res = run(args)
    report(res)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
