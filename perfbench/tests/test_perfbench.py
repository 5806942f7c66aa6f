"""Tests of the benchmark itself: tiny runs, the tracer's arithmetic, the checks.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH

ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert "failed_frac = 0 " in proc.stdout
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "support", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# -- the tracer ---------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    from tracer import Tracer

    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    def mid():
        clock.t += 1.0
        tr.call("exactalg", "leaf", leaf, (), {})
        clock.t += 3.0
        tr.call("exactalg", "leaf", leaf, (), {})

    def top():
        clock.t += 5.0
        tr.call("gradedmod", "mid", mid, (), {})
        clock.t += 0.5

    tr.item = "item-7"
    tr.call("serre", "top", top, (), {})
    assert (tr.calls("top"), tr.total_s("top"), tr.self_s("top")) == (1, 13.5, 5.5)
    assert (tr.calls("mid"), tr.total_s("mid"), tr.self_s("mid")) == (1, 8.0, 4.0)
    assert (tr.calls("leaf"), tr.total_s("leaf"), tr.self_s("leaf")) == (2, 4.0, 4.0)
    assert (tr.layer_self_s("serre"), tr.layer_self_s("gradedmod"), tr.layer_self_s("exactalg")) == (5.5, 4.0, 4.0)
    # spans: id, name, layer, start, end, parent, item
    by_name = {}
    for span in tr.spans:
        by_name.setdefault(span[1], []).append(span)
    (top_span,) = by_name["top"]
    (mid_span,) = by_name["mid"]
    assert top_span[3:6] == (0.0, 13.5, None)
    assert mid_span[5] == top_span[0]
    assert all(s[5] == mid_span[0] and s[6] == "item-7" for s in by_name["leaf"])
    assert sum(s[4] - s[3] for s in tr.spans if s[1] == "top") == tr.total_s("top")


def test_recursive_calls_count_their_outermost_span_once():
    from tracer import Tracer

    clock = FakeClock()
    tr = Tracer(clock=clock)

    def rec(n):
        clock.t += 1.0
        if n:
            tr.call("serre", "rec", rec, (n - 1,), {})

    tr.call("serre", "rec", rec, (2,), {})
    assert (tr.calls("rec"), tr.total_s("rec"), tr.self_s("rec")) == (3, 3.0, 3.0)


def test_core_calls_are_timed_but_not_stored():
    from tracer import Tracer

    clock = FakeClock()
    tr = Tracer(clock=clock)

    def kernel_op():
        clock.t += 1.0
        return ((), None)

    tr.call("core", "reduce", kernel_op, (), {})
    assert tr.spans == []
    assert (tr.calls("reduce"), tr.layer_self_s("core"), tr.reduce_zero) == (1, 1.0, 1)


def test_install_wraps_rebound_names_and_undo_restores_them():
    import tamemod.exactalg as exactalg
    import tamemod.gradedmod as gradedmod
    from tamemod.exactalg import EdgeRing

    from tracer import Tracer, install

    orig = exactalg.groebner
    assert gradedmod.groebner is orig
    tr = Tracer()
    undo = install(tr, names=(("exactalg", "tamemod.exactalg", ("groebner",)),))
    try:
        assert exactalg.groebner is not orig and gradedmod.groebner is exactalg.groebner
        ring = EdgeRing(("x", "y"))
        gradedmod.groebner([ring.var("x") - ring.var("y")])
    finally:
        undo()
    assert exactalg.groebner is orig and gradedmod.groebner is orig
    assert tr.calls("groebner") == 1
    (call,) = tr.slowest_calls()
    assert (call["name"], call["inputs"], call["nvars"], call["output_size"]) == ("groebner", 1, 2, 1)


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    from run import tail

    value, pct, n = tail(list(range(1, 501)))
    assert (value, pct, n) == (490, 98.0, 500)
    assert sum(1 for v in range(1, 501) if v > value) == 10


def test_times_are_scaled_by_the_reference_loop_around_them():
    from rest import REF_S, at_rest
    from workloads import Item

    assert at_rest(3.0, 2 * REF_S) == pytest.approx(1.5)
    assert Item("k", 0.05, True, REF_S / 2).at_rest == pytest.approx(0.1)
    assert Item("k", 0.05, True).at_rest == 0.05


# -- output checks ------------------------------------------------------------


def test_support_counts_a_wrong_expected_verdict_as_failed():
    import workloads

    wl = workloads.Support()
    inputs = wl.setup(7919, 5, "tiny", 1)
    batch = inputs["pool"][0]
    items = wl.run_round(inputs, 0)
    assert len(items) == len(batch) and all(it.ok for it in items)
    key, spec, module, expected = batch[0]
    batch[0] = (key, spec, module, not expected)
    items = wl.run_round(inputs, 0)
    assert [it.key for it in items if not it.ok] == [key]


def test_compare_refuses_results_from_different_kernels(tmp_path):
    def result(kernel):
        return {
            "stamp": {"workload": "support", "kernel": kernel, "python": "3.11.7", "implementation": "CPython"},
            "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}},
        }

    (tmp_path / "a.json").write_text(json.dumps(result("python")))
    (tmp_path / "b.json").write_text(json.dumps(result("c")))
    (tmp_path / "c.json").write_text(json.dumps(result("python")))
    compare = os.path.join(BENCH, "compare.py")
    refused = subprocess.run([sys.executable, compare, str(tmp_path / "a.json"), str(tmp_path / "b.json")], capture_output=True, text=True)
    assert refused.returncode == 2 and "kernel" in refused.stderr
    ok = subprocess.run([sys.executable, compare, str(tmp_path / "a.json"), str(tmp_path / "c.json")], capture_output=True, text=True)
    assert ok.returncode == 0 and "wall_s" in ok.stdout
