"""End-to-end CLI behavior: commands, exit codes, and determinism."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tamemod
from tamemod.cli import main

RELATED = "workspaces/gen_related.json"
UNRELATED = "workspaces/gen_unrelated.json"
SUB_IDEAL = "workspaces/sub_ideal.json"


def run(*argv):
    return main(list(argv))


# -- functor -----------------------------------------------------------------------


def test_functor_degree1_related(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run("functor", "--in", RELATED, "--module", "M_partition", "--degree", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    src = json.loads(Path(RELATED).read_text())
    # the torsion module of Z[P] with e ~ e' has the Hilbert table of the input
    assert doc["hilbert"]["0"] == 1 and doc["hilbert"]["3"] == 4
    assert doc["module"]["gen_weights"] == [0]


def test_functor_degree1_free_is_zero(tmp_path):
    out = tmp_path / "f1free.json"
    assert run("functor", "--in", UNRELATED, "--module", "M_free", "--degree", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["module"]["gen_weights"] == []
    assert all(v == 0 for v in doc["hilbert"].values())


def test_functor_degree0_matches_merge(tmp_path):
    out = tmp_path / "f0.json"
    assert run("functor", "--in", RELATED, "--module", "M_partition", "--degree", "0", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    # Z[P]/(e-e') over {a,e}: two free variables
    assert doc["module"]["ring"] == ["a", "e"]
    assert doc["hilbert"]["2"] == 3


def test_functor_weight_bound_env(tmp_path, monkeypatch):
    out = tmp_path / "env.json"
    monkeypatch.setenv("TAMEMOD_WEIGHT_BOUND", "2")
    assert run("functor", "--in", RELATED, "--module", "M_partition", "--degree", "0", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["hilbert"]) == ["0", "1", "2"]


def test_functor_unknown_module(tmp_path):
    out = tmp_path / "x.json"
    assert run("functor", "--in", RELATED, "--module", "nope", "--degree", "0", "--out", str(out)) == 2


@pytest.mark.parametrize(
    "damage, message",
    [(lambda m: m.pop("ring"), "missing 'ring'"), (lambda m: m.update(gen_weights=["x"]), "must be an integer")],
    ids=["no-ring", "string-weight"],
)
def test_functor_bad_module_json_is_validation_error(tmp_path, capsys, damage, message):
    data = json.loads(Path(RELATED).read_text())
    damage(data["modules"]["M_partition"])
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    argv = ("functor", "--in", str(src), "--module", "M_partition", "--split", "e", "--degree", "0", "--out", str(out))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and message in err
    assert not out.exists()


def test_functor_huge_exponent_exit_3(tmp_path, capsys):
    # a^40000 does not fit a packed monomial field (weighted degree < 32768)
    data = json.loads(Path(RELATED).read_text())
    data["modules"]["M_partition"]["relations"] = [[{"c": "1", "g": 0, "m": {"a": 40000}}]]
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    argv = ("functor", "--in", str(src), "--module", "M_partition", "--split", "e", "--degree", "0", "--out", str(out))
    assert run(*argv) == 3
    assert "resource cap exceeded" in capsys.readouterr().err
    assert not out.exists()



def test_functor_weight_bound_over_the_monomial_cap_exit_3(tmp_path, capsys):
    # a table to weight 100000 over two variables would list ~5e9 monomials
    out = tmp_path / "out.json"
    argv = ("functor", "--in", RELATED, "--module", "M_partition", "--degree", "0",
            "--weight-bound", "100000", "--out", str(out))
    start = time.perf_counter()
    assert run(*argv) == 3
    assert time.perf_counter() - start < 2
    assert "resource cap exceeded" in capsys.readouterr().err
    assert not out.exists()


def test_functor_weight_bound_under_the_cap_keeps_its_table(tmp_path):
    out = tmp_path / "out.json"
    argv = ("functor", "--in", RELATED, "--module", "M_partition", "--degree", "0",
            "--weight-bound", "30", "--out", str(out))
    assert run(*argv) == 0
    # Z[P]/(e-e') is the polynomial ring in a and e
    assert json.loads(out.read_text())["hilbert"] == {str(w): w + 1 for w in range(31)}

# -- cert ---------------------------------------------------------------------------


def test_cert_verify_pass(capsys):
    assert run("cert", "verify", "--in", RELATED, "--cert", "c_related") == 0
    assert "pass" in capsys.readouterr().out


def test_cert_verify_fail_prints_path(capsys):
    assert run("cert", "verify", "--in", SUB_IDEAL, "--cert", "c_ideal", "--pred", "discrete-only") == 1
    out = capsys.readouterr().out
    assert "fail at" in out


def test_cert_level(capsys):
    assert run("cert", "level", "--in", SUB_IDEAL, "--cert", "c_ideal") == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cert_transform_degree1_unrelated_is_zero(tmp_path):
    out = tmp_path / "zero.json"
    assert run("cert", "transform", "--in", UNRELATED, "--cert", "c_unrelated",
               "--degree", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["certificates"]["c_unrelated_f1"]["kind"] == "zero"


def test_cert_transform_sub_ideal(tmp_path):
    out = tmp_path / "tr.json"
    assert run("cert", "transform", "--in", SUB_IDEAL, "--cert", "c_ideal",
               "--degree", "0", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    node = doc["certificates"]["c_ideal_f0"]
    assert node["kind"] == "quot"
    assert node["parent"]["kind"] == "gen"
    from tamemod.workspace import Workspace
    from tamemod.serre import verify
    ws = Workspace.load(str(out))
    assert verify(ws.certificate("c_ideal_f0"), ws.predicate)


def test_cert_transform_tampered_witness_exits_1(tmp_path, capsys):
    doc = json.loads(Path(SUB_IDEAL).read_text())
    # replace the witness entry by e - e', which dies in the target: the
    # tampered inclusion is no longer injective
    doc["maps"]["w0"]["matrix"][0][0] = [
        {"c": "1", "m": {"e": 1}},
        {"c": "-1", "m": {"e'": 1}},
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "never.json"
    code = run("cert", "transform", "--in", str(bad), "--cert", "c_ideal",
               "--degree", "0", "--out", str(out))
    assert code == 1
    assert "fail at" in capsys.readouterr().err
    assert not out.exists()


def test_cert_verify_tampered_witness_names_node(tmp_path, capsys):
    doc = json.loads(Path(SUB_IDEAL).read_text())
    doc["maps"]["w0"]["matrix"][0][0] = [
        {"c": "1", "m": {"e": 1}},
        {"c": "-1", "m": {"e'": 1}},
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("cert", "verify", "--in", str(bad), "--cert", "c_ideal") == 1
    assert "not injective" in capsys.readouterr().out


def test_cert_transform_needs_out():
    assert run("cert", "transform", "--in", SUB_IDEAL, "--cert", "c_ideal") == 2


def test_cert_transform_split_not_in_ring(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run("cert", "transform", "--in", SUB_IDEAL, "--cert", "c_ideal",
               "--split", "a", "--out", str(out)) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()



def _run_cli(*argv):
    """The CLI in a fresh interpreter, so the stack depth is what a user gets."""
    env = dict(os.environ, PYTHONPATH=str(Path(tamemod.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "tamemod.cli", *argv], capture_output=True, text=True, env=env)


def test_cert_level_of_a_deep_chain_exit_3(tmp_path):
    # 450 Sub nodes over the identity of M_partition: a valid certificate
    # whose level is deeper than the interpreter's recursion limit allows
    doc = json.loads(Path(RELATED).read_text())
    doc["maps"] = {"w0": {"source": "M_partition", "target": "M_partition", "matrix": [[[{"c": "1"}]]]}}
    node = doc["certificates"]["c_related"]
    for _ in range(450):
        node = {"kind": "sub", "parent": node, "witness": "w0"}
    doc["certificates"]["c_deep"] = node
    src = tmp_path / "deep.json"
    src.write_text(json.dumps(doc))
    proc = _run_cli("cert", "level", "--in", str(src), "--cert", "c_deep")
    assert proc.returncode == 3
    assert "resource cap exceeded" in proc.stderr and "Traceback" not in proc.stderr


def test_workspace_nested_past_the_json_decoder_exit_3(tmp_path):
    src = tmp_path / "nested.json"
    src.write_text('{"graph": ' + "[" * 3000 + "]" * 3000 + "}")
    proc = _run_cli("cert", "level", "--in", str(src), "--cert", "c")
    assert proc.returncode == 3
    assert "resource cap exceeded" in proc.stderr and "Traceback" not in proc.stderr

# -- harness -------------------------------------------------------------------------


def test_harness_empty_summary(capsys):
    assert run("harness", "--edges", "2", "--pred", "always-true", "--samples", "0") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"] == [] and doc["failures"] == 0


def test_harness_all_pass(tmp_path):
    out = tmp_path / "report.json"
    assert run("harness", "--edges", "3", "--pred", "always-true",
               "--samples", "8", "--seed", "5", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["failures"] == 0
    assert doc["merge_closure"]["passed"] is True


def test_harness_adversarial_closure_violation(tmp_path):
    # split-tame everything, base-tame only discrete: closure fails with a
    # counterexample partition
    out = tmp_path / "adv.json"
    code = run("harness", "--edges", "3", "--pred", "always-true", "--base-pred",
               "discrete-only", "--samples", "4", "--seed", "1", "--out", str(out))
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["merge_closure"]["passed"] is False
    assert doc["merge_closure"]["counterexample"]["partition"]


def test_harness_deterministic_across_jobs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["harness", "--edges", "3", "--pred", "max-blocks:2",
            "--samples", "6", "--seed", "13"]
    assert run(*base, "--jobs", "1", "--out", str(a)) == 0
    assert run(*base, "--jobs", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_harness_cap_exit_code():
    assert run("harness", "--edges", "12", "--pred", "always-true", "--samples", "1") == 3


def test_harness_needs_edges_or_graph():
    assert run("harness", "--pred", "always-true", "--samples", "1") == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-level", "-1", "max_level"),
        ("--samples", "-3", "samples"),
        ("--jobs", "0", "jobs"),
        ("--pred", "max-blocks:-1", "block bound must be positive"),
    ],
)
def test_harness_bad_counts_exit_2(capsys, flag, value, message):
    base = ["harness", "--edges", "2", "--pred", "always-true", "--samples", "1"]
    assert run(*base, flag, value) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and message in err
