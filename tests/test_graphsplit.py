"""Edge splits, partition enumeration, predicates, and merge closure."""

import pytest

from tamemod.errors import ResourceCapError, ValidationError
from tamemod.partition import make_partition, merge_edges
from tamemod.graphsplit import (
    DEFAULT_ENUM_EDGES,
    AlwaysTame,
    CoBlocked,
    DiscreteOnly,
    EdgeGraph,
    MaxBlockCount,
    MergeClosureReport,
    check_merge_closure,
    iter_partitions,
    predicate_from_config,
    split_edge,
    tame_partitions,
)

BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877}


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


@pytest.mark.parametrize("n", range(8))
def test_enumeration_is_canonical(n):
    edges = [chr(ord("a") + i) for i in reversed(range(n))]
    parts = list(iter_partitions(edges))
    assert len(parts) == BELL[n]
    for p in parts:
        assert p == make_partition(p.ground, p.blocks)


def test_enumeration_rejects_a_repeated_edge():
    with pytest.raises(ValidationError, match="repeated"):
        list(iter_partitions(["a", "b", "a"]))


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
    # merge closure walks the same enumeration, so it meets the same cap
    past = split_edge(EdgeGraph(tuple(f"x{i}" for i in range(DEFAULT_ENUM_EDGES))), "x0")
    with pytest.raises(ResourceCapError):
        check_merge_closure(AlwaysTame(), AlwaysTame(), past)


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


def _closure_by_filtering(pred_split, pred_base, s):
    """The enumerate-and-filter walk check_merge_closure once made, kept as
    its oracle."""
    checked = 0
    for p in iter_partitions(s.split_graph.edges):
        if not pred_split(p):
            continue
        checked += 1
        merged = merge_edges(p, s.e, s.e_prime)
        if not pred_base(merged):
            return MergeClosureReport(False, checked, p, merged)
    return MergeClosureReport(True, checked)


def test_merge_closure_matches_enumerate_and_filter():
    # every ordered pair of shipped predicates, adversarial pairs included,
    # on every split of graphs of 1-4 base edges
    preds = [AlwaysTame(), MaxBlockCount(1), MaxBlockCount(2), CoBlocked(["a", "b"]), CoBlocked(["b", "d"]), DiscreteOnly()]
    verdicts = set()
    for n in range(1, 5):
        graph = EdgeGraph(tuple("abcd"[:n]))
        for target in graph.edges:
            s = split_edge(graph, target)
            for pred_split in preds:
                for pred_base in preds:
                    report = check_merge_closure(pred_split, pred_base, s)
                    assert report == _closure_by_filtering(pred_split, pred_base, s), (s, pred_split, pred_base)
                    verdicts.add(report.passed)
    assert verdicts == {True, False}


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
