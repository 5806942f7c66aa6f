"""Graphs as edge sets, the edge split, tameness predicates, and partition
enumeration.

Only edge sets matter here: every statement downstream depends on the edge
set and on which edge was split into the pair (e, e').  Tameness itself is a
pluggable predicate on partitions; shipped predicates all satisfy the
merge-closure axiom, which check_merge_closure can verify exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ResourceCapError, ValidationError
from .partition import Partition, make_partition, merge_edges

DEFAULT_ENUM_EDGES = 9


@dataclass(frozen=True)
class EdgeGraph:
    """A finite set of uniquely named edges; vertex structure is not modeled."""

    edges: tuple[str, ...]

    def __post_init__(self):
        edges = tuple(self.edges)
        if len(set(edges)) != len(edges):
            raise ValidationError(f"duplicate edge names: {edges}")
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of splitting one edge: the same edge set with e replaced by e, e'."""

    split_graph: EdgeGraph
    e: str
    e_prime: str

    @property
    def base_graph(self) -> EdgeGraph:
        return EdgeGraph(tuple(x for x in self.split_graph.edges if x != self.e_prime))


def split_edge(g: EdgeGraph, target: str) -> SplitResult:
    """Replace target by the pair (target, target')."""
    if target not in g.edges:
        raise ValidationError(f"edge {target!r} not in graph {g.edges}")
    e_prime = target + "'"
    if e_prime in g.edges:
        raise ValidationError(f"split name {e_prime!r} collides with an existing edge")
    return SplitResult(EdgeGraph(g.edges + (e_prime,)), target, e_prime)


# ---------------------------------------------------------------------------
# Predicates


def _read_int(arg: str):
    try:
        return int(arg)
    except ValueError:
        return arg  # the parameter check reports it


class TamenessPredicate:
    """Decision procedure on partitions; subclasses must be pure and
    deterministic.  name/params identify the predicate in configs.

    PARAMS names the config parameters: key -> (what the value must be, its
    check, how the string form "name:arg" reads arg).
    """

    name = "abstract"
    PARAMS: dict = {}

    def __call__(self, p: Partition) -> bool:
        raise NotImplementedError

    def params(self) -> dict:
        return {key: getattr(self, key) for key in self.PARAMS}

    def describe(self) -> str:
        ps = self.params()
        if not ps:
            return self.name
        flat = []
        for v in ps.values():
            if isinstance(v, (list, tuple)):
                flat.extend(str(x) for x in v)
            else:
                flat.append(str(v))
        return self.name + ":" + ",".join(flat)

    def __eq__(self, other):
        return (
            isinstance(other, TamenessPredicate)
            and self.name == other.name
            and self.params() == other.params()
        )

    def __hash__(self):
        frozen = tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(self.params().items())
        )
        return hash((self.name, frozen))

    def __repr__(self):
        return f"<predicate {self.describe()}>"


class AlwaysTame(TamenessPredicate):
    "Every partition is tame."

    name = "always-true"

    def __call__(self, p: Partition) -> bool:
        return True


class MaxBlockCount(TamenessPredicate):
    "Tame iff the partition has at most k blocks."

    name = "max-blocks"
    PARAMS = {"k": ("an integer", lambda k: isinstance(k, int) and not isinstance(k, bool), _read_int)}

    def __init__(self, k: int):
        if k < 1:
            raise ValidationError("block bound must be positive")
        self.k = int(k)

    def __call__(self, p: Partition) -> bool:
        return p.block_count <= self.k


class CoBlocked(TamenessPredicate):
    "Tame iff all designated edges lie in one block."

    name = "co-blocked"
    PARAMS = {
        "edges": (
            "an array of edge names",
            lambda edges: isinstance(edges, list) and all(isinstance(x, str) for x in edges),
            lambda arg: arg.split(","),
        )
    }

    def __init__(self, edges: Iterable[str]):
        self.edges = tuple(sorted(set(edges)))
        if not self.edges:
            raise ValidationError("co-blocked predicate needs at least one edge")
        if "" in self.edges:
            raise ValidationError("co-blocked edge names must not be empty")

    def __call__(self, p: Partition) -> bool:
        present = [x for x in self.edges if x in p.ground]
        if not present:
            return True
        block = set(p.block_of(present[0]))
        return all(x in block for x in present)

    def params(self) -> dict:
        return {"edges": list(self.edges)}


class DiscreteOnly(TamenessPredicate):
    "Tame iff every block is a singleton (an intentionally tiny subcategory)."

    name = "discrete-only"

    def __call__(self, p: Partition) -> bool:
        return p.is_discrete()


PREDICATES: dict[str, Callable] = {
    AlwaysTame.name: AlwaysTame,
    MaxBlockCount.name: MaxBlockCount,
    CoBlocked.name: CoBlocked,
    DiscreteOnly.name: DiscreteOnly,
}


def predicate_from_config(cfg) -> TamenessPredicate:
    """Build a predicate from a config object {"name": ..., params}, or from a
    compact string "name" or "name:arg" such as "max-blocks:2" or
    "co-blocked:a,b", which stands for the object whose one parameter is arg.
    A missing, extra or ill-typed parameter is a ValidationError."""
    if isinstance(cfg, str):
        name, colon, arg = cfg.partition(":")
        cfg = {"name": name}
        if colon and name in PREDICATES:
            params = PREDICATES[name].PARAMS
            if len(params) != 1:
                raise ValidationError(f"{name} takes no argument, got {arg!r}")
            ((key, (_, _, read)),) = params.items()
            cfg[key] = read(arg)
    if not isinstance(cfg, dict):
        raise ValidationError(f"predicate must be a string or an object, got {type(cfg).__name__}")
    name = cfg.get("name")
    if not isinstance(name, str) or name not in PREDICATES:
        raise ValidationError(f"unknown predicate {name!r}")
    cls = PREDICATES[name]
    given = sorted(k for k in cfg if k != "name")
    if given != sorted(cls.PARAMS):
        raise ValidationError(f"{name} takes parameters {sorted(cls.PARAMS)}, got {given}")
    for key, (what, check, _) in cls.PARAMS.items():
        if not check(cfg[key]):
            raise ValidationError(f"{name} needs {key!r}, {what}, got {cfg[key]!r}")
    return cls(**{key: cfg[key] for key in cls.PARAMS})


# ---------------------------------------------------------------------------
# Enumeration


def iter_partitions(edges: Sequence[str]) -> Iterator[Partition]:
    """All partitions of the edge set, in restricted-growth-string order.

    The ground is validated once, as make_partition would.  A restricted
    growth string on the sorted edges fills each block in sorted order and
    opens the blocks in the order of their first elements, so every
    partition comes out in canonical form and is built as it is."""
    edges = list(edges)
    if not edges:
        yield Partition((), ())
        return
    # the one-block partition validates the ground
    edges = make_partition(edges, [edges]).ground
    n = len(edges)

    def walk(rgs: list[int], maxval: int):
        i = len(rgs)
        if i == n:
            blocks: dict[int, list[str]] = {}
            for x, b in zip(edges, rgs):
                blocks.setdefault(b, []).append(x)
            yield Partition(edges, tuple(map(tuple, blocks.values())))
            return
        for b in range(maxval + 2):
            rgs.append(b)
            yield from walk(rgs, max(maxval, b))
            rgs.pop()

    yield from walk([0], 0)


@lru_cache(maxsize=1024)
def tame_partitions(pred: TamenessPredicate, g: EdgeGraph) -> tuple[Partition, ...]:
    """All partitions of E(g) satisfying pred; Bell-number growth is guarded
    by an edge-count cap."""
    check_enum_size(g.size)
    return tuple(p for p in iter_partitions(g.edges) if pred(p))


def check_enum_size(size: int):
    """Raise ResourceCapError when tame_partitions refuses a graph of size edges."""
    if size > DEFAULT_ENUM_EDGES:
        raise ResourceCapError(f"enumerating partitions of {size} edges exceeds the cap of {DEFAULT_ENUM_EDGES}")


@dataclass(frozen=True)
class MergeClosureReport:
    passed: bool
    checked: int
    counterexample: Partition | None = None
    merged: Partition | None = None

    def __str__(self):
        if self.passed:
            return f"merge-closure holds on {self.checked} tame partitions"
        return (
            f"merge-closure fails: {self.counterexample} is tame on the split graph "
            f"but its merge {self.merged} is not tame on the base graph"
        )


def check_merge_closure(
    pred_split: TamenessPredicate,
    pred_base: TamenessPredicate,
    s: SplitResult,
) -> MergeClosureReport:
    """Test the merge-closure axiom: every split-tame partition must merge to
    a base-tame one.  A counterexample is reported, not raised.  The tame
    partitions come from tame_partitions, so a split graph of more than
    DEFAULT_ENUM_EDGES edges raises ResourceCapError."""
    checked = 0
    for p in tame_partitions(pred_split, s.split_graph):
        checked += 1
        merged = merge_edges(p, s.e, s.e_prime)
        if not pred_base(merged):
            return MergeClosureReport(False, checked, p, merged)
    return MergeClosureReport(True, checked)
