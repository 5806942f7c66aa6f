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
