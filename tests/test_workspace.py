"""Workspace JSON round-trips and referential integrity."""

import copy
import hashlib
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
from tamemod.serre import (
    Certificate,
    GenNode,
    QuotNode,
    SubNode,
    ZeroNode,
    _direct_sum_cert,
    random_certificate,
    transform,
    verify,
)
from tamemod.workspace import (
    Workspace,
    cert_from_json,
    cert_to_json,
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


# The sha256 of the workspace file holding six seeded random certificates of
# max level 3 on {a, b, e} split at e; no change of internal layout may move it.
CERTIFICATE_GOLDEN = {
    "max-blocks:2": "d829acdfc98d0b439b435a6ddae3b2bdf9eb0af893fdc5041ea3bf9747114595",
    "always-true": "25e8fec0df788ea3b2683f97e9c6194253658075c9b19cba3f1ce26dfa1a5eab",
}


@pytest.mark.parametrize("pred", [MaxBlockCount(2), AlwaysTame()], ids=lambda p: p.describe())
def test_random_certificates_golden_workspace(tmp_path, split_abe, pred):
    tame = tame_partitions(pred, split_abe.split_graph)
    rng = random.Random(f"golden:{pred.describe()}")
    ws = Workspace(graph=split_abe.base_graph, split="e", predicate=pred)
    for k in range(6):
        ws.intern_certificate(f"c{k}", random_certificate(rng, tame, max_level=3))
    assert {c.kind for c in ws.certificates.values()} >= {"quot", "ext"}
    out = tmp_path / "ws.json"
    ws.dump(str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CERTIFICATE_GOLDEN[pred.describe()]


def test_each_kind_roundtrips_through_json(p_related):
    # one certificate of each kind: its JSON reads back to an equal node with
    # an equal hash
    gen = GenNode(p_related, 1)
    m = gen.root
    _, incl = submodule_from_elements(m, [m.ring.var("a") * m.gen(0)])
    _, proj = cokernel(incl)
    certs = [
        ZeroNode(m.ring),
        gen,
        SubNode(gen, incl),
        QuotNode(gen, proj),
        _direct_sum_cert(SubNode(gen, incl), ZeroNode(m.ring)),
    ]
    assert sorted(c.kind for c in certs) == ["ext", "gen", "quot", "sub", "zero"]
    for cert in certs:
        ws = Workspace()
        ws.intern_certificate("c", cert)
        partition_ids = {p: k for k, p in ws.partitions.items()}
        map_ids = {f: k for k, f in ws.maps.items()}
        data = cert_to_json(cert, partition_ids, map_ids)
        back = cert_from_json(data, ws.partitions, ws.maps, "c")
        assert back == cert and hash(back) == hash(cert)


def test_intern_numbers_witnesses_before_children(p_related):
    # ids follow the tree in pre-order: a node's witnesses, then its children
    gen = GenNode(p_related, 1)
    m = gen.root
    _, incl = submodule_from_elements(m, [m.ring.var("a") * m.gen(0)])
    ext = _direct_sum_cert(SubNode(gen, incl), gen)
    ws = Workspace()
    ws.intern_certificate("c", ext)
    assert ws.partitions == {"P0": p_related}
    assert ws.modules == {"M0": incl.source, "M1": ext.root, "M2": gen.root}
    assert ws.maps == {"w0": ext.injection, "w1": ext.projection, "w2": incl}


def test_node_outside_the_registry_is_rejected(p_related):
    class Stray(Certificate):
        kind = "stray"

        def __init__(self, root):
            self.root = root

        def __repr__(self):
            return "<stray certificate>"

    stray = Stray(GenNode(p_related, 0).root)
    with pytest.raises(StructuralError, match="unknown certificate node"):
        verify(stray, AlwaysTame())
    with pytest.raises(ValidationError, match="cannot serialize"):
        cert_to_json(stray, {}, {})
    # the kind is checked before the root is read: a stray with a zero root
    # is not certified as zero
    nothing = Stray(PresentedModule.zero(stray.root.ring))
    with pytest.raises(StructuralError, match="unknown certificate node"):
        transform(nothing, "e", "e'", 0)


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
    # not JSON, and a byte that is not UTF-8
    for data in (b"{not json", b'{"graph": ["\xff"]}'):
        path.write_bytes(data)
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


def test_witness_ids_are_checked_before_children():
    # a sub node with an unknown witness and a malformed parent reports the
    # witness: witness ids are read before any child
    data = copy.deepcopy(SHIPPED["workspaces/sub_ideal.json"])
    data["certificates"]["c_ideal"].update(witness="nope", parent={"kind": "odd"})
    with pytest.raises(ValidationError, match="unknown map 'nope'"):
        Workspace.from_json(data)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda m: m.pop("ring"), "missing 'ring'"),
        (lambda m: m.update(gen_weights=["x"]), r"gen_weights\[0\] must be an integer"),
        (lambda m: m.update(gen_weights=[True]), r"gen_weights\[0\] must be an integer"),
        (lambda m: m["relations"][0][0].update(c="1/0"), "not a rational number"),
        (lambda m: m["relations"][0][0].update(c="1e5"), "not a rational number"),
        (lambda m: m["relations"][0][0].update(c="1.5"), "not a rational number"),
        (lambda m: m["relations"][0][0].update(c="1_000"), "not a rational number"),
        (lambda m: m["relations"][0][0].update(m={"e": -1}), "must not be negative"),
    ],
    ids=["no-ring", "string-weight", "bool-weight", "zero-denominator", "exponent", "decimal", "underscore",
         "negative-exponent"],
)
def test_module_schema_errors(damage, message):
    data = copy.deepcopy(SHIPPED["workspaces/gen_related.json"]["modules"]["M_partition"])
    damage(data)
    with pytest.raises(ValidationError, match=message):
        module_from_json(data)


@pytest.mark.parametrize(
    "cfg",
    [
        "max-blocks:x",
        {"name": "max-blocks", "k": "2"},
        {"name": ["x"]},
        7,
        "max-blocks:-1",
        "co-blocked:a,",
        {"name": "co-blocked", "edges": [""]},
        "always-true:3",
        "discrete-only:x",
        {"name": "always-true", "k": 3},
        {"name": "max-blocks", "k": 2, "edges": ["a"]},
    ],
)
def test_bad_predicate_config(cfg):
    data = {"predicate": cfg}
    with pytest.raises(ValidationError) as info:
        Workspace.from_json(data)
    assert type(info.value) is ValidationError
