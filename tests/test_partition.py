"""Partition validation, merging, ideals, and partition modules."""

import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tamemod
from tamemod.errors import ValidationError
from tamemod.exactalg import groebner, normal_form
from tamemod.graphsplit import iter_partitions
from tamemod.partition import (
    discrete_partition,
    make_partition,
    merge_edges,
    partition_ideal,
    partition_module,
    related,
)


def test_make_partition_ok():
    p = make_partition(["e", "e'", "a"], [["e", "e'"], ["a"]])
    assert p.ground == ("a", "e", "e'")
    assert p.blocks == (("a",), ("e", "e'"))


def test_make_partition_single_block():
    p = make_partition(["e", "e'", "a"], [["e", "e'", "a"]])
    assert p.block_count == 1


def test_overlapping_blocks_rejected():
    with pytest.raises(ValidationError, match="'e'"):
        make_partition(["e", "a"], [["e"], ["e", "a"]])
    with pytest.raises(ValidationError, match="'e' repeated inside one block"):
        make_partition(["e", "a"], [["e", "e"], ["a"]])


def test_uncovered_element_rejected():
    with pytest.raises(ValidationError, match="'a'"):
        make_partition(["e", "a"], [["e"]])


def test_empty_block_rejected():
    with pytest.raises(ValidationError, match="empty block"):
        make_partition(["e"], [["e"], []])


def test_related_basic():
    p = make_partition(["e", "e'", "a"], [["e", "e'"], ["a"]])
    assert related(p, "e", "e'")
    assert not related(p, "e", "a")
    assert related(p, "a", "a")


def test_related_unknown_edge():
    p = discrete_partition(["e"])
    with pytest.raises(ValidationError):
        related(p, "e", "zz")


def test_related_is_equivalence():
    rng = random.Random(23)
    parts = list(iter_partitions(["a", "b", "c", "d"]))
    for p in rng.sample(parts, 8):
        for x in p.ground:
            assert related(p, x, x)
            for y in p.ground:
                assert related(p, x, y) == related(p, y, x)
                for z in p.ground:
                    if related(p, x, y) and related(p, y, z):
                        assert related(p, x, z)


# -- merge_edges ---------------------------------------------------------------


def test_merge_distinct_blocks():
    p = make_partition(["e", "e'", "a"], [["e"], ["e'"], ["a"]])
    m = merge_edges(p, "e", "e'")
    assert m == make_partition(["e", "a"], [["e"], ["a"]])


def test_merge_already_related():
    p = make_partition(["e", "e'", "a"], [["e", "e'"], ["a"]])
    m = merge_edges(p, "e", "e'")
    assert m == make_partition(["e", "a"], [["e"], ["a"]])


def test_merge_keeps_companions():
    p = make_partition(["e", "e'", "a"], [["e", "a"], ["e'"]])
    m = merge_edges(p, "e", "e'")
    assert m.ground == ("a", "e")
    assert related(m, "e", "a")
    assert m.block_count == 1


def test_merge_block_count_drop():
    for p in iter_partitions(["a", "b", "e", "e'"]):
        m = merge_edges(p, "e", "e'")
        assert "e'" not in m.ground
        if related(p, "e", "e'"):
            assert m.block_count == p.block_count
        else:
            assert m.block_count == p.block_count - 1


def test_merge_missing_edge():
    p = discrete_partition(["e", "a"])
    with pytest.raises(ValidationError):
        merge_edges(p, "e", "zz")
    with pytest.raises(ValidationError):
        merge_edges(p, "zz", "e")
    with pytest.raises(ValidationError):
        merge_edges(p, "e", "e")


def test_merge_is_canonical():
    ground = ["a", "b", "c", "e", "e'", "f"]
    for p in iter_partitions(ground):
        for e, e_prime in (("e", "e'"), ("e'", "a"), ("c", "b")):
            m = merge_edges(p, e, e_prime)
            assert m == make_partition(m.ground, m.blocks)
            assert m.ground == tuple(x for x in p.ground if x != e_prime)
            assert set(m.block_of(e)) == (set(p.block_of(e)) | set(p.block_of(e_prime))) - {e_prime}


# -- partition ideals and modules ------------------------------------------------


def test_ideal_of_pair():
    p = make_partition(["e", "e'", "a"], [["e", "e'"], ["a"]])
    gens = partition_ideal(p)
    assert len(gens) == 1
    ring = gens[0].ring
    assert gens[0] == ring.var("e") - ring.var("e'")


def test_ideal_of_discrete_is_zero():
    assert partition_ideal(discrete_partition(["a", "b"])) == ()


def test_ideal_of_full_block_connects_everything():
    p = make_partition(["e", "e'", "a"], [["e", "e'", "a"]])
    gens = partition_ideal(p)
    assert len(gens) == 2
    ring = gens[0].ring
    diff = ring.var("e") - ring.var("a")
    assert normal_form(diff, groebner(list(gens))).is_zero()


def test_related_iff_difference_in_ideal():
    for p in iter_partitions(["a", "b", "c"]):
        gens = partition_ideal(p)
        ring = partition_module(p).ring
        gb = groebner(list(gens)) if gens else ()
        for x in p.ground:
            for y in p.ground:
                diff = ring.var(x) - ring.var(y)
                in_ideal = normal_form(diff, gb).is_zero() if gb else diff.is_zero()
                assert in_ideal == related(p, x, y)


def test_module_of_discrete_is_free():
    m = partition_module(discrete_partition(["a", "b"]))
    assert m.relations == ()
    assert m.gen_weights == (0,)


def test_module_of_pair():
    p = make_partition(["e", "e'"], [["e", "e'"]])
    m = partition_module(p)
    assert len(m.relations) == 1
    assert [m.hilbert_function(w) for w in range(4)] == [1, 1, 1, 1]


def test_hilbert_counts_monomials():
    # two effective variables: dimension w + 1 in weight w
    p = make_partition(["e", "e'", "a"], [["e", "e'"], ["a"]])
    m = partition_module(p)
    for w in range(7):
        assert m.hilbert_function(w) == w + 1
        # oracle: monomials of degree w in 2 variables
        assert m.hilbert_function(w) == math.comb(w + 1, 1)


def _fresh_groebner(m):
    """The reduced basis a Groebner run gives for m's relations."""
    return groebner(list(m.relations), module=m.free_cover)


def test_partition_module_stores_the_reduced_basis():
    """Every partition of up to 6 edges: the stored basis, each element of a
    block minus the block's last, is the one a Groebner run gives, and the
    Groebner run of each shift by 1 to 3 has the same packed terms; one
    module per partition, and one per partition and shift, each storing the
    basis a fresh Groebner run gives in its own cover."""
    names = ("a", "b", "c", "e", "e'", "f")
    count = 0
    for k in range(1, 7):
        for p in iter_partitions(names[:k]):
            m = partition_module(p)
            assert partition_module(make_partition(p.ground, p.blocks)) is m
            assert m._cache["gb"] == _fresh_groebner(m), p
            assert len(m._cache["gb"]) == len(p.ground) - p.block_count
            for s in (1, 2, 3):
                shifted = m.shift(s)
                assert shifted.gen_weights == (s,)
                assert [g.terms for g in _fresh_groebner(shifted)] == [g.terms for g in m._cache["gb"]], (p, s)
            for s in (0, 1, 2):
                ms = partition_module(p, s)
                assert partition_module(p, s) is ms
                assert ms.gen_weights == (s,)
                assert ms._cache["gb"] == _fresh_groebner(ms), (p, s)
            count += 1
    assert count == 1 + 2 + 5 + 15 + 52 + 203


def test_unpickled_partition_hashes_in_its_own_process():
    # the hash is cached on first use, but a pickle carries only the fields:
    # a process with another str-hash seed (a spawned worker) hashes anew
    p = make_partition(["a", "b", "e", "e'"], [["a", "e"], ["b", "e'"]])
    assert hash(p) == hash((p.ground, p.blocks))
    data = pickle.dumps([p, p])
    check = (
        "import pickle, sys\n"
        "p, q = pickle.loads(sys.stdin.buffer.read())\n"
        "assert hash(p) == hash((p.ground, p.blocks)) and p == q\n"
        "print(hash(p))"
    )
    current = os.environ.get("PYTHONHASHSEED", "")
    seed = str(int(current) + 1) if current.isdigit() else "1"
    env = dict(os.environ, PYTHONPATH=str(Path(tamemod.__file__).parents[1]), PYTHONHASHSEED=seed)
    out = subprocess.run([sys.executable, "-c", check], input=data, capture_output=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) != hash(p)
