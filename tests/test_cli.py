"""End-to-end CLI behavior: commands, exit codes, and determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tamemod
from tamemod.cli import MAX_HILBERT_ROWS, main
from tamemod.errors import ResourceCapError
from tamemod.exactalg import EdgeRing, FreeModule
from tamemod.workspace import Workspace, free_from_json

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


# monomials whose degree is past a packed field (at most 32767): a^70000 and
# a^(2^70) do not fit 16 bits either, and a^30000 e^3000 has each exponent
# below 2^15 and their sum past it
HUGE_MONOMIALS = ({"a": 40000}, {"a": 70000}, {"a": 2**70}, {"a": 30000, "e": 3000})


def test_functor_huge_exponent_exit_3(tmp_path, capsys):
    # pack checks the degree before it encodes a term, so each monomial is a
    # resource cap (exit 3), never a struct error or a key out of range
    data = json.loads(Path(RELATED).read_text())
    ring = EdgeRing(tuple(data["modules"]["M_partition"]["ring"]))
    module = FreeModule(ring, (0, 1))
    for m in HUGE_MONOMIALS:
        expo = tuple(m.get(v, 0) for v in ring.variables)
        with pytest.raises(ResourceCapError):
            ring.packing.pack([(0, expo, 1, 1)])
        with pytest.raises(ResourceCapError):
            ring.poly({expo: 1})
        with pytest.raises(ResourceCapError):
            free_from_json(module, [{"c": "1", "g": 1, "m": m}])
        data["modules"]["M_partition"]["relations"] = [[{"c": "1", "g": 0, "m": m}]]
        src = tmp_path / "huge.json"
        src.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        argv = ("functor", "--in", str(src), "--module", "M_partition", "--split", "e", "--degree", "0",
                "--out", str(out))
        assert run(*argv) == 3, m
        assert "resource cap exceeded" in capsys.readouterr().err
        assert not out.exists()
    # a component that fits the ring and not its generator's weight shift
    with pytest.raises(ResourceCapError):
        module.element([ring.zero(), ring.poly({(32767, 0, 0): 1})])


def test_functor_weight_bound_over_the_monomial_cap_exit_3(tmp_path, capsys):
    # a table to weight 100000 would hold 100001 rows, over the cap on its
    # length; it is refused before any row is computed
    out = tmp_path / "out.json"
    argv = ("functor", "--in", RELATED, "--module", "M_partition", "--degree", "0",
            "--weight-bound", "100000", "--out", str(out))
    start = time.perf_counter()
    assert run(*argv) == 3
    assert time.perf_counter() - start < 2
    assert "resource cap exceeded" in capsys.readouterr().err
    assert not out.exists()


def test_functor_table_at_the_row_cap_is_counted_not_enumerated(tmp_path, capsys):
    # the longest table allowed: its values come from the Hilbert numerator,
    # so weight 65535 costs what weight 3 does; one row more is exit 3
    out = tmp_path / "out.json"
    argv = ["functor", "--in", RELATED, "--module", "M_partition", "--degree", "0", "--out", str(out)]
    start = time.perf_counter()
    assert run(*argv, "--weight-bound", str(MAX_HILBERT_ROWS - 1)) == 0
    assert time.perf_counter() - start < 2
    table = json.loads(out.read_text())["hilbert"]
    assert len(table) == MAX_HILBERT_ROWS and table[str(MAX_HILBERT_ROWS - 1)] == MAX_HILBERT_ROWS
    out.unlink()
    assert run(*argv, "--weight-bound", str(MAX_HILBERT_ROWS)) == 3
    assert "over the cap of 65536" in capsys.readouterr().err
    assert not out.exists()


def test_functor_weight_bound_under_the_cap_keeps_its_table(tmp_path):
    out = tmp_path / "out.json"
    argv = ("functor", "--in", RELATED, "--module", "M_partition", "--degree", "0",
            "--weight-bound", "30", "--out", str(out))
    assert run(*argv) == 0
    # Z[P]/(e-e') is the polynomial ring in a and e
    assert json.loads(out.read_text())["hilbert"] == {str(w): w + 1 for w in range(31)}


@pytest.mark.parametrize("bound", ["-5"], ids=["flag"])
def test_functor_negative_weight_bound_exit_2(tmp_path, capsys, bound):
    out = tmp_path / "out.json"
    argv = ["functor", "--in", RELATED, "--module", "M_partition", "--degree", "0", "--out", str(out)]
    assert run(*argv, "--weight-bound", bound) == 2
    assert "must not be negative" in capsys.readouterr().err
    assert not out.exists()


# The sha256 of each output file, which no change of internal layout may
# move: cert transform of each shipped workspace in degrees 0 and 1, and
# functor of each shipped module in degrees 0 and 1 with --weight-bound 30.
GOLDEN = {
    ("cert", "gen_related", "c_related", 0): "b533296d908ea60ae255a6b2bdd216e7482c454a3665c7c34735d7c66f6ad406",
    ("cert", "gen_related", "c_related", 1): "b44dd29aa87b6bae0d7c8d85f26ec8dfd186c06c2385e11220e6ec2397ee44b9",
    ("cert", "gen_unrelated", "c_unrelated", 0): "524cbe82c9aab869b3b801b3d990d8acd0395c9e7082904a5b4d6966e36b38d2",
    ("cert", "gen_unrelated", "c_unrelated", 1): "121c3c55a4cfd170b89fd1ebcb626103eb8ab6cba519a7b9f6470219f3bcb9a7",
    ("cert", "sub_ideal", "c_ideal", 0): "b7142caa90538cff4a00ec0edaf42868236538b5bc0e9a117ca96c5525fd14a3",
    ("cert", "sub_ideal", "c_ideal", 1): "a8472043e7f7b821df4087d5e2184adee33069563e5afbc5a0f8b5ccf2e919e6",
    ("functor", "gen_related", "M_partition", 0): "3d7e3fc7b1ddc3c77e4f5c941b321f8fa8c9958ce6e956932944844bdd381cca",
    ("functor", "gen_related", "M_partition", 1): "5cc0c3e0377819782a40eec0ebdf3e9a5a117e0409826b08d3238baa5b9ce8ef",
    ("functor", "gen_unrelated", "M_free", 0): "3d7e3fc7b1ddc3c77e4f5c941b321f8fa8c9958ce6e956932944844bdd381cca",
    ("functor", "gen_unrelated", "M_free", 1): "eb818bce20785e1d0266957059d876bd2d1992750db66ebda736348f43900a51",
    ("functor", "sub_ideal", "M0", 0): "39848d10895f6f5f38b9f8a00de44f4ae5c5901f2cd75a6d533e762795e6ad6f",
    ("functor", "sub_ideal", "M0", 1): "c81c6feffff4d44f8e78829c4c40089079ec15b1eb3ebdbed1a8156829466b6a",
    ("functor", "sub_ideal", "M1", 0): "3d7e3fc7b1ddc3c77e4f5c941b321f8fa8c9958ce6e956932944844bdd381cca",
    ("functor", "sub_ideal", "M1", 1): "5cc0c3e0377819782a40eec0ebdf3e9a5a117e0409826b08d3238baa5b9ce8ef",
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_outputs(tmp_path, case):
    command, ws, name, degree = case
    out = tmp_path / "out.json"
    if command == "cert":
        argv = ("cert", "transform", "--in", f"workspaces/{ws}.json", "--cert", name, "--degree", str(degree))
    else:
        argv = ("functor", "--in", f"workspaces/{ws}.json", "--module", name, "--degree", str(degree),
                "--weight-bound", "30")
    assert run(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[case]

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


def test_cert_verify_ragged_matrix_exits_2(tmp_path, capsys):
    # the witness matrix [[a]] with a second, empty row appended
    doc = json.loads(Path(SUB_IDEAL).read_text())
    doc["maps"]["w0"]["matrix"].append([])
    bad = tmp_path / "ragged.json"
    bad.write_text(json.dumps(doc))
    assert run("cert", "verify", "--in", str(bad), "--cert", "c_ideal") == 2
    assert "matrix shape 2x1" in capsys.readouterr().err


def test_cert_transform_output_failing_the_base_predicate_exits_1(tmp_path, capsys):
    # max-blocks:1 on the base graph breaks merge closure: the merged
    # partition {a}{e} has two blocks, so the output does not verify
    out = tmp_path / "never.json"
    code = run("cert", "transform", "--in", RELATED, "--cert", "c_related",
               "--base-pred", "max-blocks:1", "--out", str(out))
    assert code == 1
    assert "transformed certificate does not verify" in capsys.readouterr().err
    assert not out.exists()


def test_missing_workspace_is_an_io_error(tmp_path, capsys):
    assert run("cert", "verify", "--in", str(tmp_path / "missing.json"), "--cert", "c_ideal") == 2
    assert "i/o error" in capsys.readouterr().err


def test_certificate_of_unknown_kind_exits_2(tmp_path, capsys):
    doc = json.loads(Path(SUB_IDEAL).read_text())
    doc["certificates"]["c_ideal"]["parent"]["kind"] = "mystery"
    bad = tmp_path / "unknown.json"
    bad.write_text(json.dumps(doc))
    assert run("cert", "verify", "--in", str(bad), "--cert", "c_ideal") == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "unknown kind 'mystery'" in err


def test_cert_transform_needs_out():
    assert run("cert", "transform", "--in", SUB_IDEAL, "--cert", "c_ideal") == 2


def test_cert_transform_split_not_in_ring(tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run("cert", "transform", "--in", SUB_IDEAL, "--cert", "c_ideal",
               "--split", "a", "--out", str(out)) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()



def _run_cli(*argv, timeout=None):
    """The CLI in a fresh interpreter, so the stack depth is what a user gets."""
    env = dict(os.environ, PYTHONPATH=str(Path(tamemod.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "tamemod.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def _deep_chain(tmp_path, levels):
    """A workspace whose certificate c_deep is `levels` Sub nodes over the
    identity of M_partition, above the Gen leaf c_related: a valid certificate
    of that level.  The text is written directly, since encoding it with json
    would itself recurse once per level."""
    doc = json.loads(Path(RELATED).read_text())
    doc["maps"] = {"w0": {"source": "M_partition", "target": "M_partition", "matrix": [[[{"c": "1"}]]]}}
    leaf = json.dumps(doc["certificates"]["c_related"])
    doc["certificates"]["c_deep"] = "DEEP"
    text = '{"kind": "sub", "parent": ' * levels + leaf + ', "witness": "w0"}' * levels
    src = tmp_path / f"deep{levels}.json"
    src.write_text(json.dumps(doc).replace('"DEEP"', text))
    return src


def test_deep_chains_get_a_result(tmp_path):
    # the deepest chains each action must keep handling in a fresh interpreter
    src = _deep_chain(tmp_path, 900)
    level = _run_cli("cert", "level", "--in", str(src), "--cert", "c_deep")
    assert (level.returncode, level.stdout) == (0, "900\n")
    checked = _run_cli("cert", "verify", "--in", str(src), "--cert", "c_deep")
    assert (checked.returncode, checked.stdout) == (0, "certificate c_deep: pass\n")
    src = _deep_chain(tmp_path, 450)
    out = tmp_path / "deep450_f0.json"
    moved = _run_cli("cert", "transform", "--in", str(src), "--cert", "c_deep", "--out", str(out))
    assert moved.returncode == 0, moved.stderr
    assert Workspace.load(str(out)).certificates["c_deep_f0"].kind == "quot"


def test_cert_level_of_a_deep_chain_exit_3(tmp_path):
    # 1,200 levels: past what the interpreter's stack allows when the
    # workspace is read, so it ends in a resource cap, not a traceback
    src = _deep_chain(tmp_path, 1200)
    proc = _run_cli("cert", "level", "--in", str(src), "--cert", "c_deep")
    assert proc.returncode == 3
    assert "resource cap exceeded" in proc.stderr and "Traceback" not in proc.stderr


def test_workspace_nested_past_the_json_decoder_exit_3(tmp_path):
    src = tmp_path / "nested.json"
    src.write_text('{"graph": ' + "[" * 3000 + "]" * 3000 + "}")
    proc = _run_cli("cert", "level", "--in", str(src), "--cert", "c")
    assert proc.returncode == 3
    assert "resource cap exceeded" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "coeff, message",
    [
        ('"1e100000000"', "not a rational number"),
        ('"1e-100000000"', "not a rational number"),
        ("1" * 5000, "not valid JSON"),
        ('"' + "1" * 5000 + '"', "not a rational number: '" + "1" * 40 + "' (5000 characters)"),
    ],
    ids=["exponent", "negative-exponent", "long-integer", "long-string"],
)
def test_outside_coefficient_is_a_validation_error(tmp_path, coeff, message):
    # one coefficient of M_partition replaced by the given JSON text: an
    # exponent that Fraction would expand exactly, or more digits than the
    # interpreter converts to an int; each ends in exit 2 at once, with a
    # message that quotes no more than the head of the value
    text = Path(RELATED).read_text().replace('"c": "1"', f'"c": {coeff}', 1)
    src = tmp_path / "coeff.json"
    src.write_text(text)
    proc = _run_cli("cert", "level", "--in", str(src), "--cert", "c_related", timeout=10)
    assert proc.returncode == 2
    assert "validation error" in proc.stderr and "Traceback" not in proc.stderr
    assert message in proc.stderr and len(proc.stderr) < 300


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


def test_harness_cap_exit_code(capsys):
    assert run("harness", "--edges", "12", "--pred", "always-true", "--samples", "1") == 3
    assert "resource cap exceeded" in capsys.readouterr().err


def test_harness_edge_cap_before_any_name_is_built():
    # at a hundred million edges, building the names alone would take
    # gigabytes; the cap is checked on the count first
    start = time.monotonic()
    proc = _run_cli("harness", "--edges", "100000000", "--pred", "always-true", "--samples", "1", timeout=10)
    assert time.monotonic() - start < 2
    assert proc.returncode == 3
    assert "enumerating partitions of 100000001 edges exceeds the cap" in proc.stderr


def test_harness_bad_predicate_before_the_edge_cap(capsys):
    assert run("harness", "--edges", "100000000", "--pred", "no-such-pred", "--samples", "1") == 2
    assert "validation error" in capsys.readouterr().err


def test_harness_max_level_past_the_cap_exit_3(capsys):
    # an Ext node builds both children, so the work grows exponentially with
    # the level; past MAX_LEVEL the run stops at once instead of hanging
    start = time.monotonic()
    assert run("harness", "--graph", "a,b", "--pred", "always-true", "--samples", "1", "--max-level", "50") == 3
    assert time.monotonic() - start < 2
    assert "resource cap exceeded" in capsys.readouterr().err


# The sha256 of the harness report for fixed seeds on {a, b, c, e} split at e,
# 16 samples (two of each O/Q/S/E property and degree); no change of internal
# layout may move them.
HARNESS_GOLDEN = {
    1: "2d54f3b8ab3846461b85b480444e4453c4348a8c78eff3168460097f3a833f80",
    2: "b53a544f7d921f235faecdd1dcffe048fcd1c240b2614af0b5a83663611fdaa6",
}


@pytest.mark.parametrize("seed", sorted(HARNESS_GOLDEN))
def test_harness_golden_reports(tmp_path, seed):
    out = tmp_path / "report.json"
    assert run("harness", "--graph", "a,b,c,e", "--split", "e", "--pred", "max-blocks:2",
               "--samples", "16", "--seed", str(seed), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HARNESS_GOLDEN[seed]


def test_harness_golden_report_on_a_90_partition_plan(tmp_path):
    # max-blocks:3 on {a,b,c,d,e,f} split at f keeps 90 partitions; three of
    # the report's support decisions saturate a non-linear annihilator
    # partition by partition, 15 single saturations in all
    out = tmp_path / "report.json"
    assert run("harness", "--graph", "a,b,c,d,e,f", "--split", "f", "--pred", "max-blocks:3",
               "--samples", "8", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "28f7a5ba955ae877011cee9931937d6390a8e29e43619051d29804e37d94ea85"


def test_harness_needs_edges_or_graph():
    assert run("harness", "--pred", "always-true", "--samples", "1") == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-level", "-1", "max_level"),
        ("--samples", "-3", "samples"),
        ("--jobs", "0", "jobs"),
        ("--pred", "max-blocks:-1", "block bound must be positive"),
        ("--pred", "co-blocked:a,", "edge names must not be empty"),
        ("--pred", "discrete-only:x", "discrete-only takes no argument"),
    ],
)
def test_harness_bad_counts_exit_2(capsys, flag, value, message):
    base = ["harness", "--edges", "2", "--pred", "always-true", "--samples", "1"]
    assert run(*base, flag, value) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and message in err
