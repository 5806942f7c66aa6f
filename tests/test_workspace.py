"""Workspace JSON round-trips and referential integrity."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamemod.errors import StructuralError, ValidationError
from tamemod.exactalg import EdgeRing, FreeModule
from tamemod.gradedmod import ModuleMap, PresentedModule, cokernel, submodule_from_elements
from tamemod.graphsplit import AlwaysTame, EdgeGraph, MaxBlockCount, tame_partitions, split_edge
from tamemod.partition import make_partition, partition_module
from tamemod.serre import GenNode, SubNode, ZeroNode, random_certificate, _direct_sum_cert
from tamemod.workspace import (
    Workspace,
    module_from_json,
    module_to_json,
    partition_from_json,
    partition_to_json,
    poly_from_json,
    poly_to_json,
)


def test_poly_roundtrip_exact():
    ring = EdgeRing(("x", "y"))
    p = ring.poly({(2, 0): Fraction(-3, 7), (0, 1): 5})
    assert poly_from_json(ring, poly_to_json(p)) == p


def test_module_roundtrip(p_related):
    m = partition_module(p_related).shift(2)
    assert module_from_json(module_to_json(m)) == m


def test_partition_roundtrip(p_related):
    assert partition_from_json(partition_to_json(p_related)) == p_related


def test_workspace_roundtrip_with_certificates(split_abe):
    pred = MaxBlockCount(2)
    tame = tame_partitions(pred, split_abe.split_graph)
    rng = random.Random("ws-roundtrip")
    ws = Workspace(graph=split_abe.base_graph, split="e", predicate=pred)
    for k in range(3):
        ws.intern_certificate(f"c{k}", random_certificate(rng, tame, max_level=2))
    data = ws.to_json()
    back = Workspace.from_json(data)
    assert back.graph == ws.graph
    assert back.split == ws.split
    assert back.predicate == pred
    assert back.partitions == ws.partitions
    assert back.modules == ws.modules
    assert back.maps == ws.maps
    assert back.certificates == ws.certificates
    # and serialization is stable
    assert back.to_json() == data


def test_workspace_file_roundtrip(tmp_path, p_related):
    ws = Workspace(predicate=AlwaysTame())
    ws.intern_certificate("g", GenNode(p_related, 1))
    path = tmp_path / "ws.json"
    ws.dump(str(path))
    again = Workspace.load(str(path))
    assert again.certificates["g"] == GenNode(p_related, 1)


def test_unknown_module_reference():
    data = {
        "modules": {},
        "maps": {
            "w0": {"source": "nope", "target": "nope", "degree": 0, "matrix": []},
        },
    }
    with pytest.raises(ValidationError, match="nope"):
        Workspace.from_json(data)


def test_unknown_partition_reference():
    data = {"certificates": {"c": {"kind": "gen", "partition": "missing", "shift": 0}}}
    with pytest.raises(ValidationError, match="missing"):
        Workspace.from_json(data)


def test_unknown_certificate_id(p_related):
    ws = Workspace()
    ws.intern_certificate("g", GenNode(p_related, 0))
    with pytest.raises(ValidationError, match="zz"):
        ws.certificate("zz")


def test_bad_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        Workspace.load(str(path))


def test_malformed_relation_reported_with_module_id():
    ring = ["x"]
    data = {
        "modules": {
            "Mbad": {
                "ring": ring,
                "gen_weights": [0],
                "relations": [[{"c": "1", "m": {"x": 1}, "g": 5}]],
            }
        }
    }
    with pytest.raises(ValidationError, match="Mbad"):
        Workspace.from_json(data)


def test_shipped_workspaces_load_and_verify():
    from tamemod.serre import verify

    for name, cid in [
        ("workspaces/gen_related.json", "c_related"),
        ("workspaces/gen_unrelated.json", "c_unrelated"),
        ("workspaces/sub_ideal.json", "c_ideal"),
    ]:
        ws = Workspace.load(name)
        cert = ws.certificate(cid)
        assert verify(cert, ws.predicate), name


SHIPPED = {
    name: json.loads(Path(name).read_text())
    for name in ("workspaces/gen_related.json", "workspaces/gen_unrelated.json", "workspaces/sub_ideal.json")
}
WRONG_VALUES = (None, True, 2.5, 7, -1, "x", "1/0", [], ["x"], [7], {}, {"x": 1})


def _paths(node, path=()):
    """Every path into a JSON tree, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def damaged_workspaces(draw):
    """A shipped workspace with 1-3 keys dropped or values swapped for other types."""
    data = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
    return data


@settings(max_examples=200, deadline=None)
@given(damaged_workspaces())
def test_damaged_workspace_raises_only_validation_errors(data):
    """A damaged workspace loads or raises a validation error (CLI exit 2),
    never a bare KeyError/TypeError/ValueError."""
    try:
        Workspace.from_json(data)
    except Exception as exc:
        assert type(exc) in (ValidationError, StructuralError), repr(exc)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda m: m.pop("ring"), "missing 'ring'"),
        (lambda m: m.update(gen_weights=["x"]), r"gen_weights\[0\] must be an integer"),
        (lambda m: m.update(gen_weights=[True]), r"gen_weights\[0\] must be an integer"),
        (lambda m: m["relations"][0][0].update(c="1/0"), "not a rational number"),
        (lambda m: m["relations"][0][0].update(m={"e": -1}), "must not be negative"),
    ],
    ids=["no-ring", "string-weight", "bool-weight", "zero-denominator", "negative-exponent"],
)
def test_module_schema_errors(damage, message):
    data = copy.deepcopy(SHIPPED["workspaces/gen_related.json"]["modules"]["M_partition"])
    damage(data)
    with pytest.raises(ValidationError, match=message):
        module_from_json(data)


@pytest.mark.parametrize(
    "cfg", ["max-blocks:x", {"name": "max-blocks", "k": "2"}, {"name": ["x"]}, 7, "max-blocks:-1"]
)
def test_bad_predicate_config(cfg):
    data = {"predicate": cfg}
    with pytest.raises(ValidationError) as info:
        Workspace.from_json(data)
    assert type(info.value) is ValidationError
