"""Edge splits, partition enumeration, predicates, and merge closure."""

import pytest

from tamemod.errors import ResourceCapError, ValidationError
from tamemod.graphsplit import (
    AlwaysTame,
    CoBlocked,
    DiscreteOnly,
    EdgeGraph,
    MaxBlockCount,
    check_merge_closure,
    iter_partitions,
    predicate_from_config,
    split_edge,
    tame_partitions,
)

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_split_adds_one_edge():
    s = split_edge(EdgeGraph(("a", "e")), "e")
    assert s.split_graph.edges == ("a", "e", "e'")
    assert (s.e, s.e_prime) == ("e", "e'")
    assert s.base_graph.edges == ("a", "e")


def test_split_single_edge():
    s = split_edge(EdgeGraph(("e",)), "e")
    assert s.split_graph.edges == ("e", "e'")


def test_split_missing_edge():
    with pytest.raises(ValidationError):
        split_edge(EdgeGraph(("a",)), "zz")


def test_split_name_collision():
    with pytest.raises(ValidationError):
        split_edge(EdgeGraph(("e", "e'")), "e")


def test_split_then_merge_roundtrip():
    from tamemod.partition import discrete_partition, merge_edges

    g = EdgeGraph(("a", "b", "e"))
    s = split_edge(g, "e")
    p = discrete_partition(s.split_graph.edges)
    merged = merge_edges(p, s.e, s.e_prime)
    assert merged.ground == g.edges


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_hits_bell_numbers(n):
    edges = [chr(ord("a") + i) for i in range(n)]
    parts = list(iter_partitions(edges))
    assert len(parts) == BELL[n]
    assert len(set(parts)) == len(parts)


def test_tame_partitions_filters_and_dedupes():
    g = EdgeGraph(("a", "b", "c"))
    allp = tame_partitions(AlwaysTame(), g)
    assert len(allp) == BELL[3]
    one = tame_partitions(MaxBlockCount(1), g)
    assert len(one) == 1 and one[0].block_count == 1
    for p in tame_partitions(MaxBlockCount(2), g):
        assert p.block_count <= 2


def test_tame_partitions_cap():
    g = EdgeGraph(tuple(f"x{i}" for i in range(12)))
    with pytest.raises(ResourceCapError):
        tame_partitions(AlwaysTame(), g)


def test_merge_closure_trivial_predicate(split_abe):
    report = check_merge_closure(AlwaysTame(), AlwaysTame(), split_abe)
    assert report.passed
    assert report.checked == BELL[4]


def test_merge_closure_block_bound(split_abe):
    # merging never increases the block count
    report = check_merge_closure(MaxBlockCount(2), MaxBlockCount(2), split_abe)
    assert report.passed


def test_merge_closure_counterexample(split_abe):
    report = check_merge_closure(AlwaysTame(), DiscreteOnly(), split_abe)
    assert not report.passed
    assert report.counterexample is not None
    assert not DiscreteOnly()(report.merged)


@pytest.mark.parametrize(
    "make",
    [AlwaysTame, lambda: MaxBlockCount(2), lambda: CoBlocked(["a", "b"]), DiscreteOnly],
)
def test_shipped_predicates_close_under_merge(make, split_abe):
    report = check_merge_closure(make(), make(), split_abe)
    assert report.passed, str(report)


def test_predicate_config_roundtrip():
    for spec, name in [
        ("always-true", "always-true"),
        ("max-blocks:2", "max-blocks"),
        ("co-blocked:a,b", "co-blocked"),
        ("discrete-only", "discrete-only"),
    ]:
        pred = predicate_from_config(spec)
        assert pred.name == name
        again = predicate_from_config({"name": pred.name, **pred.params()})
        assert again == pred


def test_predicate_config_errors():
    with pytest.raises(ValidationError):
        predicate_from_config("no-such-predicate")
    with pytest.raises(ValidationError):
        predicate_from_config("max-blocks")
