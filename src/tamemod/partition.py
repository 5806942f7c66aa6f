"""Partitions of edge sets, block merging along an edge split, and the
associated partition ideals and rank-1 module presentations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import ValidationError
from .exactalg import EdgeRing, FreeElement, FreeModule, GradedPoly
from .gradedmod import PresentedModule


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering a finite ground set of edge names.

    Canonical form: ground sorted; each block sorted; blocks sorted by their
    first element.  Build through make_partition for validation.
    """

    ground: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]

    def block_of(self, x: str) -> tuple[str, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise ValidationError(f"edge {x!r} not in ground set {self.ground}")

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def is_discrete(self) -> bool:
        return len(self.blocks) == len(self.ground)

    def __hash__(self):
        # computed once: tame lists are hashed whole as lru keys
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ground, self.blocks))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # str hashes differ between processes, so the cached hash is not pickled
        return Partition, (self.ground, self.blocks)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self is contained in a block of other."""
        if self.ground != other.ground:
            return False
        return all(set(b) <= set(other.block_of(b[0])) for b in self.blocks)

    def __str__(self):
        return "[" + " | ".join(",".join(b) for b in self.blocks) + "]"


def make_partition(ground: Iterable[str], blocks: Iterable[Iterable[str]]) -> Partition:
    """Validate and canonicalize; errors name the offending element."""
    ground_list = list(ground)
    if len(set(ground_list)) != len(ground_list):
        dup = next(x for x in ground_list if ground_list.count(x) > 1)
        raise ValidationError(f"edge {dup!r} repeated in ground set")
    ground_t = tuple(sorted(ground_list))
    seen: dict[str, int] = {}
    canon_blocks = []
    for bi, block in enumerate(blocks):
        block_t = tuple(sorted(block))
        if not block_t:
            raise ValidationError(f"empty block at index {bi}")
        if len(set(block_t)) != len(block_t):
            dup = next(x for x in block_t if block_t.count(x) > 1)
            raise ValidationError(f"edge {dup!r} repeated inside one block")
        for x in block_t:
            if x not in ground_t:
                raise ValidationError(f"edge {x!r} not in ground set")
            if x in seen:
                raise ValidationError(f"edge {x!r} lies in two blocks")
            seen[x] = bi
        canon_blocks.append(block_t)
    for x in ground_t:
        if x not in seen:
            raise ValidationError(f"edge {x!r} not covered by any block")
    canon_blocks.sort(key=lambda b: b[0])
    return Partition(ground_t, tuple(canon_blocks))


def discrete_partition(ground: Iterable[str]) -> Partition:
    g = sorted(set(ground))
    return make_partition(g, [[x] for x in g])


def related(p: Partition, x: str, y: str) -> bool:
    """The equivalence relation: same block."""
    bx = p.block_of(x)
    if y not in p.ground:
        raise ValidationError(f"edge {y!r} not in ground set {p.ground}")
    return y in bx


def merge_edges(p: Partition, e: str, e_prime: str) -> Partition:
    """Merge the blocks containing e and e', then delete e'.

    This inverts an edge split: the result is a partition of the ground set
    without e', with the contracted edge keeping the name e.  It is built in
    canonical form: the merged block sorted, the other blocks of p kept as
    they are, and the blocks sorted by their first elements.
    """
    if e == e_prime:
        raise ValidationError("merge_edges needs two distinct edges")
    be = p.block_of(e)
    bep = p.block_of(e_prime)
    merged = tuple(sorted(set(be + bep) - {e_prime}))
    blocks = [b for b in p.blocks if b is not be and b is not bep] + [merged]
    blocks.sort(key=lambda b: b[0])
    return Partition(tuple(x for x in p.ground if x != e_prime), tuple(blocks))


def partition_ideal(p: Partition) -> tuple[GradedPoly, ...]:
    """Generators x - y chaining the sorted elements of each block, in
    EdgeRing(p.ground), the ring of partition_module(p).

    |block| - 1 generators per block; the generated ideal is the kernel of
    the quotient map onto the partition module.
    """
    ring = EdgeRing(p.ground)
    gens = []
    for block in p.blocks:
        for a, b in zip(block, block[1:]):
            gens.append(ring.var(a) - ring.var(b))
    return tuple(gens)


@lru_cache(maxsize=8192)
def partition_module(p: Partition, shift: int = 0) -> PresentedModule:
    """Rank-1 presentation of the partition module over EdgeRing(p.ground),
    shifted by shift: one generator in weight shift, relations the partition
    ideal.  One module per (p, shift), shared by every caller, so every Gen
    leaf of one partition and shift has one root.  The lru cache keys the
    arguments as passed, so partition_module(p) and partition_module(p, 0)
    are two equal modules; serre.GenNode always passes the shift.

    Its relation basis is known by construction and stored with no Groebner
    run: each element of a block minus the block's last element, largest
    lead first.  Earlier variables are larger, so these forms lead with
    distinct variables, none of which is a block's last, and no lead occurs
    in a tail: that is the reduced Groebner basis, the unique one.  A rank-1
    cover of one weight packs its terms as the ring does, whatever the
    shift, so the same forms are the basis of every shift."""
    ring = EdgeRing(p.ground)
    free = FreeModule(ring, (shift,))
    basis = [FreeElement(free, (ring.var(a) - ring.var(b[-1])).terms) for b in p.blocks for a in b[:-1]]
    return PresentedModule(ring, free.weights, [FreeElement(free, g.terms) for g in partition_ideal(p)], basis=basis)
