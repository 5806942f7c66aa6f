"""Finitely presented graded modules over edge rings and weight-homogeneous
maps between them.

Carries the contraction functor F0(M) = M/(e - e'), its derived torsion
functor F1(M) = ker(M --(e-e')--> M) restricted to the contracted ring, the
kernel/cokernel/image/pullback toolbox, submodules spanned by elements (a
cyclic submodule is the span of one), quotients by elements (which present no
submodule, so run no syzygies), annihilators, and the support criterion
deciding membership in the Serre subcategory generated by a list of partition
modules, one generator's annihilator at a time.

The support criterion decides linear supports in closed form, not by
elimination, on two standard facts.  Ann of a direct sum is read off its
summands (Atiyah-Macdonald, Ex. 3.19): when a module's relation basis lies in
single positions, the annihilator of a generator is the ideal of its
position's entries, with no syzygies (_diagonal, stored with the module, so
its relation basis is read once).  A linear ideal J is prime, so V(J) lies in
a finite union of partition subspaces iff J holds one partition ideal (prime
avoidance, Atiyah-Macdonald, Prop. 1.11), which J's mask of same-block pairs
shows, with no division.  The plan cached per tame list holds only what every
decision reads: the kept partitions, their pair masks and the pair table.  A
non-linear ideal is saturated by each kept partition ideal in turn, one
exactalg.saturate_by_ideal each, which stops at a no-op generator and skips
meets with (1); the sweep keeps no table of its own.

F1 is read off the same way (torsion_data).  When the relation basis lies in
single positions, M = sum R/I_j(-w_j) and ker(d on M) = sum (I_j : d)/I_j for
d = e - e' (Atiyah-Macdonald, Ex. 3.19).  For a linear, hence prime, I_j,
(I_j : d) is (1) or I_j as d's normal form modulo I_j is zero or not, so each
summand is all torsion or none, and kernel's syzygies are not run.

Where the read-off does not apply, F1(M) = 0 is decided by counting.  The
exact sequence 0 -> F1(M)(-1) -> M(-1) -> M -> F0(M) -> 0 gives t HS(F1 M) =
HS(F0 M) - (1 - t) HS(M), and F0, F1 live over one variable fewer, so F1(M)
= 0 exactly when f0(M) and M have one Hilbert numerator.  Only a nonzero F1
runs kernel's syzygies.

Hilbert functions come from Hilbert-Poincare numerators read off plain relation
bases (Bigatti); ModuleMap.is_mono and exact_at compare them, with no syzygies.
A module's numerator is counted on packed leads: one pass over relation_gb()
groups the lead dkeys by position, and each position's monomial ideal has one
numerator, cached in exactalg._hilbert_raw on its position-free dkeys, so
the modules and positions of a round that share an ideal count it once.

Some relation bases are known by construction.  The function that builds
such a module hands its basis to the constructor (PresentedModule's basis),
which stores it as relation_gb, so no Groebner run is made; no code outside
this module reads or writes what a module stores.  A reduced Groebner basis
is unique, so each seed is the basis a run would give.  The syzygy basis of
a span (_span) is reduced in its new cover.  The basis of a direct sum is
the union of its summands' bases (direct_sum).  A partition module, one per
partition and shift, has each block element minus the block's last
(partition.partition_module); a shifted Gen root is that module, so it runs
no Groebner run either.  The cokernel of a map whose columns are units at
positions U, constant multiples of target generators, has those units and
the elements of the target's stored basis outside U, when no element has
terms both in U and outside it (_unit_items): all the generators when U is
every position, as for projections, and the other summands' bases for a
direct sum's injections (_coker).  A shift M(s) stores no basis: it has M's
packed relations, and groebner's cache key is the packed items and the shape
of the order, so M(s) reuses M's run when M has had one.

Every syzygy and lift modulo a module's relations (_span, kernel,
annihilator, induced_map_f1, connecting_map) goes through _syzygies or
_lift, which hand the tracked run the module's relation_gb(), which those
callers have already built: the run spans the same submodule from either,
and starts from items reduced modulo the basis (exactalg._tracked_raw).
Items that are bare generators, as the columns of direct-sum injections and
projections and of cokernel projections are, make no run when the basis
splits at their positions (_unit_items): the syzygies are the basis elements
at those positions, moved to the items' cover, and a lift is one normal form
modulo the basis, split by position.  Reduced bases and normal forms are
unique, so either route gives the same result.

_prune presents a module on fewer generators by graded Nakayama: a relation
with a constant entry at a generator makes that generator redundant, and
dropping both leaves an isomorphic module (`prune` in Macaulay2 and
Singular).  kernel and pullback present their modules as the syzygies give
them; the certificate transformer prunes the ones it builds for itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from ._core import impl as K
from ._core._pure import BITS, FIELD
from .errors import ResourceCapError, StructuralError, ValidationError
from .exactalg import (
    EdgeRing,
    FreeElement,
    FreeModule,
    GradedPoly,
    _hilbert_raw,
    contract,
    groebner,
    intersect_ideals,
    normal_form,
    reduce_with_expression,
    saturate_by_ideal,
    syzygies,
)

# Largest antichain of tame subspaces is_tame_support will sweep.
MAX_TAME_SUBSPACES = 512


class PresentedModule:
    """Graded module given by generator weights and homogeneous relations.

    The zero module is canonically the empty-generator presentation.  Treat
    instances as immutable; equality and hashing are structural.

    basis, when given, must be the reduced Groebner basis of the relations,
    in the free cover: construction data from a builder that knows it (the
    module docstring lists them), not a setting.  It is stored largest lead
    first, the order a Groebner run gives, as relation_gb().  A reduced
    basis is unique, so every result is the same with it or without it; it
    saves the Groebner run only.
    """

    __slots__ = ("ring", "gen_weights", "free_cover", "relations", "_cache")

    def __init__(self, ring: EdgeRing, gen_weights: Sequence[int], relations: Sequence[FreeElement] = (), basis: Sequence[FreeElement] | None = None):
        self.ring = ring
        self.gen_weights = tuple(int(w) for w in gen_weights)
        self.free_cover = free = FreeModule(ring, self.gen_weights)
        rels = []
        for r in relations:
            if not isinstance(r, FreeElement) or r.module is not free:
                raise StructuralError("relation outside the module's free cover")
            if not r.is_homogeneous:
                raise ValidationError(f"inhomogeneous relation {r}")
            if not r.is_zero():
                rels.append(r)
        self.relations = tuple(rels)
        self._cache = {} if basis is None else {"gb": tuple(sorted(basis, key=lambda g: g.terms[0][0], reverse=True))}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: EdgeRing) -> "PresentedModule":
        return cls(ring, (), ())

    @classmethod
    def free(cls, ring: EdgeRing, weights: Sequence[int]) -> "PresentedModule":
        return cls(ring, weights, ())

    @classmethod
    def from_ideal(cls, ring: EdgeRing, ideal: Sequence[GradedPoly], shift: int = 0) -> "PresentedModule":
        """Rank-1 module R/(ideal) with its generator in weight `shift`."""
        free = FreeModule(ring, (shift,))
        return cls(ring, (shift,), [FreeElement(free, g.terms) for g in ideal])

    # -- basic structure ----------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gen_weights)

    def gen(self, i: int) -> FreeElement:
        return self.free_cover.gen(i)

    def relation_gb(self) -> tuple[FreeElement, ...]:
        gb = self._cache.get("gb")
        if gb is None:
            gb = groebner(list(self.relations), module=self.free_cover)
            self._cache["gb"] = gb
        return gb

    def is_zero(self) -> bool:
        """Generator i is zero exactly when a relation basis element leads
        with the bare generator i, the one term whose dkey is i."""
        leads = {g.terms[0][1] for g in self.relation_gb()}
        return all(i in leads for i in range(self.rank))

    def shift(self, s: int) -> "PresentedModule":
        """Add s to every generator weight.  A uniform shift leaves every
        packed term as it is, so the relations carry over unchanged, and the
        shift's relation basis reuses M's Groebner run when M has had one."""
        if s == 0:
            return self
        free = FreeModule(self.ring, tuple(w + s for w in self.gen_weights))
        return PresentedModule(self.ring, free.weights, [FreeElement(free, r.terms) for r in self.relations])

    def hilbert_numerator(self) -> dict:
        """N(t) as {weight: nonzero coefficient}, where HS(t) = N(t) / (1 - t)^n;
        {} exactly for the zero module.  N = sum_p t^{w_p} N_p, N_p the
        numerator of the leading exponents at position p of relation_gb(), by
        Bigatti's pivot recursion (exactalg.hilbert_numerator): F/U and F/in(U)
        have one Hilbert series, and over one ring equal series are equal N.
        One pass groups the packed lead dkeys by position, and each N_p is
        read from exactalg._hilbert_raw's cache, keyed on them."""
        hn = self._cache.get("hn")
        if hn is None:
            leads = [set() for _ in self.gen_weights]
            for g in self.relation_gb():
                d = g.terms[0][1]
                leads[d & FIELD].add(d >> BITS)
            n = self.ring.nvars
            parts = ((1, w, _hilbert_raw(frozenset(s), n)) for w, s in zip(self.gen_weights, leads))
            hn = self._cache["hn"] = _combine(*parts)
        return dict(hn)

    def hilbert_function(self, w: int) -> int:
        """sum_k N[k] times the number of monomials of degree w - k."""
        n = self.ring.nvars
        return sum(c * (comb(w - k + n - 1, n - 1) if n else int(w == k)) for k, c in self.hilbert_numerator().items() if k <= w)

    def same_presentation(self, other: "PresentedModule") -> bool:
        """Same ring, same generator weights, same relation submodule.  A
        module presents itself, with no relation basis built: node
        constructors compare a module with itself."""
        return other is self or (
            isinstance(other, PresentedModule)
            and self.ring is other.ring
            and self.gen_weights == other.gen_weights
            and self.relation_gb() == other.relation_gb()
        )

    def __eq__(self, other):
        return (
            isinstance(other, PresentedModule)
            and self.ring is other.ring
            and self.gen_weights == other.gen_weights
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.ring, self.gen_weights, self.relations))

    def __repr__(self):
        rels = "; ".join(str(r) for r in self.relations)
        return f"PresentedModule(vars={','.join(self.ring.variables)} weights={list(self.gen_weights)} rels=[{rels}])"


def _combine(*parts) -> dict:
    """sum of sign * t^shift * N over the (sign, shift, N) parts, each N as
    its (degree, coefficient) pairs, zeros dropped."""
    out: dict = {}
    get = out.get
    for sign, shift, num in parts:
        for k, c in num:
            k += shift
            out[k] = get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


class ModuleMap:
    """Weight-homogeneous map between presented modules.

    columns[j] is the image of source generator j in the target's free cover,
    and every term of it has weight source_weight[j] + degree.  The columns
    are the map's one stored form and its constructor's input; from_matrix
    reads a matrix, whose entry (i, j) is the coefficient of target generator
    i in columns[j], and the matrix property builds one from the columns for
    JSON and display.  Construction checks well-definedness: each source
    relation must land in the target's relation submodule.
    """

    __slots__ = ("source", "target", "columns", "degree", "_coker")

    def __init__(self, source: PresentedModule, target: PresentedModule, columns: Sequence[FreeElement], degree: int = 0, check: bool = True):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.columns = columns = tuple(columns)
        self._coker = None  # the cokernel module, built once by _coker
        free = target.free_cover
        if len(columns) != source.rank:
            raise StructuralError(f"{len(columns)} columns for a source of rank {source.rank}")
        weights = free.packing.weights
        for j, col in enumerate(columns):
            if not isinstance(col, FreeElement) or col.module is not free:
                raise StructuralError(f"column {j} is not in the target's free cover")
            top = source.gen_weights[j] + self.degree
            if weights(col.terms) - {top}:
                (w,), i = next((weights((t,)), t[1] & FIELD) for t in col.terms if weights((t,)) != {top})
                raise StructuralError(f"entry ({i},{j}) has weight {w - free.weights[i]}, expected {top - free.weights[i]}")
        if source.ring is not target.ring:
            raise StructuralError("source and target over different rings")
        if check:
            gb = target.relation_gb()
            for r in source.relations:
                if not normal_form(self.apply_free(r), gb).is_zero():
                    raise StructuralError(f"map not well defined: relation {r} escapes the target")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_matrix(cls, source: PresentedModule, target: PresentedModule, matrix, degree: int = 0) -> "ModuleMap":
        rows = tuple(tuple(row) for row in matrix)
        if len(rows) != target.rank:
            raise StructuralError(
                f"matrix shape {len(rows)}x{'?' if not rows else len(rows[0])} "
                f"does not match target rank {target.rank} x source rank {source.rank}"
            )
        for i, row in enumerate(rows):
            if len(row) != source.rank:
                raise StructuralError(f"matrix row {i} has {len(row)} entries, not source rank {source.rank}")
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if not isinstance(entry, GradedPoly) or entry.ring is not target.ring:
                    raise StructuralError(f"matrix entry ({i},{j}) not in the target ring")
        free = target.free_cover
        return cls(source, target, [free.element([row[j] for row in rows]) for j in range(source.rank)], degree)

    @classmethod
    def identity(cls, m: PresentedModule) -> "ModuleMap":
        return cls(m, m, [m.gen(j) for j in range(m.rank)], 0, check=False)

    @classmethod
    def zero_map(cls, source: PresentedModule, target: PresentedModule, degree: int = 0) -> "ModuleMap":
        return cls(source, target, [target.free_cover.zero()] * source.rank, degree, check=False)

    # -- structure ------------------------------------------------------

    @property
    def matrix(self) -> tuple:
        comps = [col.components() for col in self.columns]
        return tuple(tuple(c[i] for c in comps) for i in range(self.target.rank))

    def apply_free(self, x: FreeElement) -> FreeElement:
        """Image of a free-cover representative."""
        if x.module is not self.source.free_cover:
            raise StructuralError("element not in the source free cover")
        # a source term less its position's base is a ring term, and a ring
        # term times a column term is the sum of their keys
        base = x.module.packing.base
        raw = []
        for k, d, n, dn in x.terms:
            p = d & FIELD
            k -= base[p]
            d -= p
            for k2, d2, n2, dn2 in self.columns[p].terms:
                raw.append((k + k2, d + d2, n * n2, dn * dn2))
        return FreeElement(self.target.free_cover, K.canon(raw))

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other; the middle modules must present the same module."""
        if other.target != self.source and not other.target.same_presentation(self.source):
            raise StructuralError("composition mismatch")
        cols = [self.apply_free(c) for c in other.columns]
        return ModuleMap(other.source, self.target, cols, self.degree + other.degree, check=False)

    def is_mono(self) -> bool:
        """Counted (Bigatti numerators, no syzygies): injective iff
        t^degree N(source) = N(target) - N(coker), as the image has the
        target's series less the cokernel's and the shifted source's less the kernel's."""
        parts = ((1, self.degree, self.source), (-1, 0, self.target), (1, 0, _coker(self)))
        return not _combine(*((s, d, m.hilbert_numerator().items()) for s, d, m in parts))

    def is_epi(self) -> bool:
        return _coker(self).is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.source == other.source
            and self.target == other.target
            and self.columns == other.columns
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash((self.source, self.target, self.columns, self.degree))

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.matrix)
        return f"ModuleMap(deg={self.degree} {rows})"


# ---------------------------------------------------------------------------
# Kernels, cokernels, images, sums, pullbacks


def _span(ambient: PresentedModule, gens: Sequence[FreeElement]):
    """Submodule generated by gens (given in the free cover), with its
    inclusion, whose columns are exactly the nonzero classes among gens.

    Its relations are the syzygy basis (_syzygies, read off the relation
    basis when the kept gens are bare generators at positions where it
    splits, as for the F0 image of a direct sum's injection), which is
    already the reduced Groebner basis in the new free cover (weights of the
    kept generators), so they also seed its relation_gb."""
    kept = _nonzero_classes(ambient, gens)
    if not kept:
        sub = PresentedModule.zero(ambient.ring)
    else:
        rels = _syzygies(ambient, kept)
        sub = PresentedModule(ambient.ring, tuple(g.weight() for g in kept), rels, basis=rels)
    return sub, ModuleMap(sub, ambient, kept, 0, check=False)


def _nonzero_classes(ambient: PresentedModule, gens: Sequence[FreeElement]) -> list:
    """The gens whose class in ambient is nonzero, in order."""
    gb = ambient.relation_gb()
    return [g for g in gens if not normal_form(g, gb).is_zero()]


def _check_elements(m: PresentedModule, elems: Sequence[FreeElement]):
    for x in elems:
        if x.module is not m.free_cover:
            raise StructuralError("generator outside the module's free cover")
        if not x.is_homogeneous:
            raise ValidationError(f"inhomogeneous submodule generator {x}")


def submodule_from_elements(m: PresentedModule, elems: Sequence[FreeElement]):
    """Submodule generated by homogeneous elements, with its inclusion."""
    _check_elements(m, elems)
    return _span(m, list(elems))


def quotient_by_elements(m: PresentedModule, elems: Sequence[FreeElement]):
    """m/<elems> and the projection, as the cokernel of submodule_from_elements'
    inclusion, but with no syzygies: the cokernel of a free module's map onto
    the elements of nonzero class."""
    _check_elements(m, elems)
    kept = _nonzero_classes(m, elems)
    free = PresentedModule.free(m.ring, [g.weight() for g in kept])
    return cokernel(ModuleMap(free, m, kept, 0, check=False))


def kernel(phi: ModuleMap):
    """Kernel presentation and its inclusion into the source.

    The inclusion's columns are the nonzero classes of the reduced Groebner
    basis, in the source free cover, of the syzygies of phi's columns modulo
    the target relations (_syzygies; for a cokernel projection, whose
    columns are all the target's generators, they are the target's
    relation basis, with no tracked run).  That syzygy basis is reduced in
    the order its own weights give: the column weights, with 0 for a zero
    column.  ModuleMap checks every column's weight, so a nonzero column has
    its source weight plus phi's degree, and with no zero column the two
    orders agree and the basis is used as it is; otherwise a Groebner pass
    in the source cover gives it."""
    free = phi.source.free_cover
    syz = _syzygies(phi.target, phi.columns)
    if not any(c.is_zero() for c in phi.columns):
        span = [FreeElement(free, s.terms) for s in syz]
    else:
        span = groebner([free.element(s.components()) for s in syz], module=free)
    return _span(phi.source, list(span))


def _coker(phi: ModuleMap) -> PresentedModule:
    """phi's cokernel module, built once per map and shared by every check on it.

    Its relation basis is seeded, with no Groebner run, when some columns
    are bare units, constant multiples of target generators, at positions
    U.  When U holds every position, as for the projections of direct_sum
    and cokernel and the maps F0 induces from them, the relations span the
    whole free cover and the cokernel is zero: its reduced basis is the
    generators.  Otherwise, when every nonzero column is such a unit, as
    for direct_sum's injections, and the target's stored basis G has no
    element with terms both in U and outside it (_unit_items), the
    relations span F_U + <G>, and that is F_U plus the span of the elements
    of G outside U, each in its own positions.  A lead of G outside U divides only terms outside
    U, so those elements are a Groebner basis of their span, reduced as
    part of G, and with the units of U they are the reduced basis."""
    if phi._coker is None:
        tgt = phi.target
        cols = [c for c in phi.columns if not c.is_zero()]
        # a constant times generator i is one term whose dkey is i
        at = [c.terms[0][1] for c in cols if len(c.terms) == 1 and c.terms[0][1] <= FIELD]
        units = set(at)
        # the cokernel's free cover is the target's, one interned module
        gens = [tgt.gen(i) for i in sorted(units)]
        gb = tgt._cache.get("gb")
        basis = None
        if len(units) == tgt.rank or len(at) == len(cols) and gb is not None and _unit_items(tgt, gens) is not None:
            basis = gens + [g for g in gb or () if g.terms[0][1] & FIELD not in units]
        phi._coker = PresentedModule(tgt.ring, tgt.gen_weights, list(tgt.relations) + cols, basis=basis)
    return phi._coker


def _unit_items(m: PresentedModule, items: Sequence[FreeElement]):
    """The positions at of items, when every item is a bare generator of m
    with coefficient 1/1, among generators of equal weight the positions
    strictly increase, and no element of m.relation_gb() has terms both at
    those positions and elsewhere; None otherwise.

    The position is the order's only tie-break after the weights, so then
    k -> at[k] keeps the order of the items' cover and of the tracked run's
    auxiliary positions (_syzygies, _lift), and a basis that does not
    straddle the positions splits there (_coker)."""
    at, top = [], {}
    for x in items:
        # generator i itself is one term whose dkey is i, with coefficient 1/1
        if len(x.terms) != 1 or x.terms[0][1] > FIELD or x.terms[0][2:] != (1, 1):
            return None
        p = x.terms[0][1]
        if top.get(m.gen_weights[p], -1) >= p:
            return None
        top[m.gen_weights[p]] = p
        at.append(p)
    units = set(at)
    if any(len({t[1] & FIELD in units for t in g.terms}) > 1 for g in m.relation_gb()):
        return None
    return at


def _syzygies(m: PresentedModule, items: Sequence[FreeElement]) -> tuple:
    """syzygies(items, module=m.free_cover, modulo=m.relation_gb()).

    When _unit_items gives positions S = at, each element of the reduced
    basis G lies inside S or outside it, so U = <G> splits and U & F_S is
    spanned by the elements of G inside S: they are its reduced basis.  The
    syzygies are that submodule moved to the items' cover by k <- at[k],
    which keeps the order, so they are those elements moved, largest lead
    first, with no tracked run; a reduced basis is unique (Cox, Little and
    O'Shea, Ch. 2 Sec. 7, Prop. 6), so the result is the tracked run's."""
    at = _unit_items(m, items)
    if at is None:
        return syzygies(items, module=m.free_cover, modulo=m.relation_gb())
    smod = FreeModule(m.ring, [m.gen_weights[p] for p in at])
    src, dst = m.free_cover.packing.base, smod.packing.base
    move = {p: (dst[k] - src[p], k - p) for k, p in enumerate(at)}
    return tuple(
        FreeElement(smod, tuple((key + move[d & FIELD][0], d + move[d & FIELD][1], n, dn) for key, d, n, dn in g.terms))
        for g in m.relation_gb()
        if g.terms[0][1] & FIELD in move
    )


def _lift(m: PresentedModule, f: FreeElement, items: Sequence[FreeElement]):
    """reduce_with_expression(f, items, modulo=m.relation_gb()).

    When _unit_items gives positions S = at, the tracked basis is the units
    e_s + eps_k, G's elements outside S, and the syzygies (_syzygies), so
    f's normal form modulo it splits by position: the remainder is the part
    of f's normal form modulo G outside S, and cofactor k is its component
    at at[k].  Normal forms are unique (Cox, Little and O'Shea, Ch. 2
    Sec. 6, Prop. 1), so the result is the tracked run's."""
    at = _unit_items(m, items)
    if at is None:
        return reduce_with_expression(f, items, modulo=m.relation_gb())
    r = normal_form(f, m.relation_gb())
    units = set(at)
    return FreeElement(m.free_cover, tuple(t for t in r.terms if t[1] & FIELD not in units)), tuple(map(r.component, at))


def cokernel(phi: ModuleMap):
    """Cokernel presentation and the projection from the target."""
    coker = _coker(phi)
    proj = ModuleMap(phi.target, coker, [coker.gen(j) for j in range(coker.rank)], 0, check=False)
    return coker, proj


@dataclass(frozen=True)
class ImageResult:
    module: PresentedModule
    inclusion: ModuleMap  # image -> target, mono
    projection: ModuleMap  # source -> image, epi


def image(phi: ModuleMap) -> ImageResult:
    img, incl = _span(phi.target, phi.columns)
    # projection: source gen j goes to the image generator of its column
    col_index = {}
    for idx, c in enumerate(incl.columns):
        col_index.setdefault(c, idx)
    # a column is kept exactly when its class is nonzero
    zero = img.free_cover.zero()
    cols = [img.gen(col_index[c]) if c in col_index else zero for c in phi.columns]
    proj = ModuleMap(phi.source, img, cols, phi.degree, check=True)
    return ImageResult(img, incl, proj)


def direct_sum(mods: Sequence[PresentedModule]):
    """Direct sum with canonical injections and projections.

    The total's relation basis is the union of the summands' bases, each
    rebased to its positions, in descending lead order.  Rebasing keeps the
    order within a summand, so each summand's part stays reduced.  Leads in
    different summands lie in different positions, so no S-pair joins two
    summands and no lead divides a term of another summand's element: the
    union is a reduced Groebner basis, the unique one, and it seeds
    relation_gb."""
    mods = list(mods)
    if not mods:
        raise StructuralError("direct_sum needs at least one summand")
    ring = mods[0].ring
    if any(m.ring is not ring for m in mods):
        raise StructuralError("summands over different rings")
    weights = tuple(w for m in mods for w in m.gen_weights)
    free = FreeModule(ring, weights)
    pk = free.packing
    rels = []
    gb = []
    offset = 0
    offsets = []
    for m in mods:
        offsets.append(offset)
        # every position of m moves by the same delta, so the order is kept
        src = m.free_cover.packing
        rels += [FreeElement(free, pk.rebase(r.terms, src, offset)) for r in m.relations]
        gb += [FreeElement(free, pk.rebase(g.terms, src, offset)) for g in m.relation_gb()]
        offset += m.rank
    total = PresentedModule(ring, weights, rels, basis=gb)
    injections = []
    projections = []
    for m, off in zip(mods, offsets):
        inj = [total.gen(off + j) for j in range(m.rank)]
        zero = m.free_cover.zero()
        prj = [m.gen(k - off) if off <= k < off + m.rank else zero for k in range(total.rank)]
        injections.append(ModuleMap(m, total, inj, 0, check=False))
        projections.append(ModuleMap(total, m, prj, 0, check=False))
    return total, tuple(injections), tuple(projections)


@dataclass(frozen=True)
class PullbackResult:
    module: PresentedModule
    to_first: ModuleMap
    to_second: ModuleMap


def _prune(m: PresentedModule):
    """(M', kept): M presented on fewer generators, by graded Nakayama, with
    the indices of the generators of M it keeps, in order.

    While some relation r has a constant entry c at a generator j, r says
    that g_j = -(r - c g_j)/c in M: g_j lies in the span of the other
    generators.  Solving r for g_j, substituting the solution into the other
    relations and dropping g_j and r leaves the same module, so the map
    sending each kept generator of M' to itself is an isomorphism M' -> M.
    Each relation left has no entry at a dropped generator, so it is
    presented on the kept ones as it is.  When no constant entry is left,
    the kept generators minimally generate M.  Models: `prune` and
    `minimalPresentation` in Macaulay2, `prune` in Singular.

    In a homogeneous relation a constant entry outranks every other term
    (its Q fields are all the weighted degree; ties go to the lower
    position), so only leads need reading.  M itself comes back when it has
    no constant entry.
    """
    rels = list(m.relations)
    dropped = set()
    while True:
        i = next((i for i, r in enumerate(rels) if r.terms[0][1] <= FIELD), None)
        if i is None:
            break
        unit = rels.pop(i)
        _, j, n, d = unit.terms[0]  # a bare generator's dkey is its position
        unit = unit * Fraction(d, n)
        rels = [s for s in (r - r.component(j) * unit for r in rels) if not s.is_zero()]
        dropped.add(j)
    if not dropped:
        return m, tuple(range(m.rank))
    kept = tuple(j for j in range(m.rank) if j not in dropped)
    free = FreeModule(m.ring, tuple(m.gen_weights[j] for j in kept))
    out = PresentedModule(m.ring, free.weights, [free.element([r.component(j) for j in kept]) for r in rels])
    return out, kept


def pullback(f: ModuleMap, g: ModuleMap) -> PullbackResult:
    """Universal pullback of f: S -> A and g: B -> A."""
    if f.target != g.target:
        raise StructuralError("pullback needs a common target")
    if f.degree != g.degree:
        raise StructuralError("pullback of maps with different degrees")
    total, injs, projs = direct_sum([f.source, g.source])
    cols = list(f.columns) + [-c for c in g.columns]
    diff = ModuleMap(total, f.target, cols, f.degree, check=False)
    p, incl = kernel(diff)
    return PullbackResult(p, projs[0].compose(incl), projs[1].compose(incl))


# ---------------------------------------------------------------------------
# The contraction functor and its derived torsion functor


def _base_ring(ring: EdgeRing, e: str, e_prime: str) -> EdgeRing:
    if e == e_prime:
        raise ValidationError("split edges must be distinct")
    ring.index(e)
    ring.index(e_prime)
    return EdgeRing(tuple(v for v in ring.variables if v != e_prime))


@lru_cache(maxsize=8192)
def f0(m: PresentedModule, e: str, e_prime: str) -> PresentedModule:
    """Change of scalars M/(e - e'): contract e' to e in all relations."""
    bring = _base_ring(m.ring, e, e_prime)
    free = FreeModule(bring, m.gen_weights)
    return PresentedModule(bring, m.gen_weights, [contract(r, free, e, e_prime) for r in m.relations])


def _diagonal(m: PresentedModule):
    """The reduced basis of each position's ideal I_j, as a tuple indexed by
    position, when every element of relation_gb() lies in a single position;
    None otherwise.

    Then M is the direct sum of the R/I_j(-w_j), and I_j's reduced basis is
    the position-j elements' entries in relation_gb()'s order, as the module
    order within one position is the ring order: () for a free generator,
    (1) for one of zero class.  Ann and the kernel of a ring element d on a
    direct sum are read off its summands (Atiyah-Macdonald, Ex. 3.19): Ann(g_j)
    = I_j, and ker(d on R/I_j) = (I_j : d)/I_j.

    The result, None too, is stored in m's _cache beside "gb" and "hn", so
    annihilator and torsion_data read a module's relation basis once between
    them.
    """
    if "diag" not in m._cache:
        ideals = [[] for _ in range(m.rank)]
        for g in m.relation_gb():
            p = g.terms[0][1] & FIELD
            if any(t[1] & FIELD != p for t in g.terms[1:]):
                m._cache["diag"] = None
                break
            ideals[p].append(g.component(p))
        else:
            m._cache["diag"] = tuple(map(tuple, ideals))
    return m._cache["diag"]


@dataclass(frozen=True)
class TorsionData:
    """Torsion kernel of multiplication by e - e', before and after contraction.

    kgens are the canonical generators of {x : (e-e')x in relations} in the
    split-ring free cover; presentation is the contracted-ring presentation of
    the torsion submodule with those generators.  Both are kernel's, however
    torsion_data finds them.
    """

    kgens: tuple[FreeElement, ...]
    presentation: PresentedModule


def _torsion_positions(diag: tuple, d: GradedPoly, ring: EdgeRing):
    """The positions j whose whole summand R/I_j is killed by d, or None when
    some summand's torsion is not read off.

    ker(d on R/I_j) = (I_j : d)/I_j.  For I_j = (1) the summand is zero and
    is skipped; for d in I_j, one normal form, (I_j : d) = (1) and the whole
    summand is torsion; otherwise a linear I_j is prime, so (I_j : d) = I_j
    and the summand has no torsion.  Any other I_j gives None.
    """
    one = (ring.one(),)
    kept = []
    for j, ideal in enumerate(diag):
        if ideal == one:
            continue
        if normal_form(d, ideal).is_zero():
            kept.append(j)
        elif not _is_linear(ideal, ring):
            return None
    return kept


@lru_cache(maxsize=8192)
def torsion_data(m: PresentedModule, e: str, e_prime: str) -> TorsionData:
    """The kernel of the degree-1 map (e - e') . : M -> M, contracted by f0.

    When M's relation basis lies in single positions, the kernel is the sum
    of the (I_j : d)/I_j, d = e - e' (_diagonal), read off by
    _torsion_positions with no syzygies, and it equals kernel's result.
    kernel's reduced syzygy basis is the union of the positions' bases of
    (I_j : d), so its nonzero classes are the g_j of the kept positions,
    largest packed lead first: higher weight, then lower position.  Their
    span has I_j's basis at its generator k: the position-j elements of
    relation_gb() moved to k, in their order, which the new cover keeps (one
    weight's positions keep their order, and different weights never tie),
    so its relations are its reduced basis.

    Otherwise F1(M) = 0 is decided before kernel runs.  As 0 -> F1(M)(-1) ->
    M(-1) -> M -> F0(M) -> 0 is exact, t HS(F1 M) = HS(F0 M) - (1 - t) HS(M),
    and F0(M) has one variable fewer than M, so F1(M) = 0 exactly when
    f0(M).hilbert_numerator() == M.hilbert_numerator().  Then the result is
    kernel's for an empty kernel: no kgens and F0 of the zero module.
    """
    ring = m.ring
    _base_ring(ring, e, e_prime)
    d = ring.var(e) - ring.var(e_prime)
    diag = _diagonal(m)
    kept = None if diag is None else _torsion_positions(diag, d, ring)
    if kept is None:
        if f0(m, e, e_prime).hilbert_numerator() == m.hilbert_numerator():
            return TorsionData((), f0(PresentedModule.zero(ring), e, e_prime))
        cols = [d * m.gen(j) for j in range(m.rank)]
        sub, incl = kernel(ModuleMap(m, m, cols, 1, check=False))
        return TorsionData(incl.columns, f0(sub, e, e_prime))
    src = m.free_cover.packing
    kept.sort(key=src.base.__getitem__, reverse=True)
    at = {j: k for k, j in enumerate(kept)}
    free = FreeModule(ring, tuple(m.gen_weights[j] for j in kept))
    rels = []
    for g in m.relation_gb():
        j = g.terms[0][1] & FIELD
        if j in at:
            rels.append(FreeElement(free, free.packing.rebase(g.terms, src, at[j] - j)))
    sub = PresentedModule(ring, free.weights, rels)
    return TorsionData(tuple(m.gen(j) for j in kept), f0(sub, e, e_prime))


def f1(m: PresentedModule, e: str, e_prime: str) -> PresentedModule:
    """Torsion submodule ker((e-e') . : M -> M) over the contracted ring."""
    return torsion_data(m, e, e_prime).presentation


def induced_map_f0(phi: ModuleMap, e: str, e_prime: str) -> ModuleMap:
    src0 = f0(phi.source, e, e_prime)
    tgt0 = f0(phi.target, e, e_prime)
    cols = [contract(c, tgt0.free_cover, e, e_prime) for c in phi.columns]
    return ModuleMap(src0, tgt0, cols, phi.degree, check=True)


def induced_map_f1(phi: ModuleMap, e: str, e_prime: str) -> ModuleMap:
    """F1(phi): each source torsion generator x maps to y = phi(x), written
    in the target's torsion generators by reduce_with_expression modulo the
    target's relations (_lift); a nonzero remainder means y is not torsion.
    When those generators are read off (torsion_data), they are bare
    generators at positions where the relation basis splits, and the lift is
    one normal form, with no tracked run."""
    td_s = torsion_data(phi.source, e, e_prime)
    td_t = torsion_data(phi.target, e, e_prime)
    src1, tgt1 = td_s.presentation, td_t.presentation
    if not td_s.kgens:
        return ModuleMap.zero_map(src1, tgt1, phi.degree)
    cols = []
    for x in td_s.kgens:
        rem, cofs = _lift(phi.target, phi.apply_free(x), td_t.kgens)
        if not rem.is_zero():
            raise StructuralError("image of a torsion element is not torsion")
        cols.append(tgt1.free_cover.element([contract(c, tgt1.ring, e, e_prime) for c in cofs]))
    return ModuleMap(src1, tgt1, cols, phi.degree, check=True)


# ---------------------------------------------------------------------------
# Short exact sequences and the six-term sequence


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> B -> A -> C -> 0, stored as the inclusion and the projection."""

    incl: ModuleMap
    proj: ModuleMap

    def __post_init__(self):
        if self.incl.target != self.proj.source:
            raise StructuralError("inclusion target differs from projection source")

    def check(self) -> list[str]:
        """Exactness failures (empty when the sequence is exact)."""
        problems = []
        if not self.incl.is_mono():
            problems.append("inclusion is not injective")
        if not self.proj.is_epi():
            problems.append("projection is not surjective")
        if not exact_at(self.incl, self.proj):
            problems.append("image of the inclusion differs from the kernel of the projection")
        return problems


def same_submodule(ambient: PresentedModule, gens_a: Sequence[FreeElement], gens_b: Sequence[FreeElement]) -> bool:
    """Equality of spans inside an ambient module, via canonical bases."""
    free = ambient.free_cover
    a = groebner(list(gens_a) + list(ambient.relations), module=free)
    b = groebner(list(gens_b) + list(ambient.relations), module=free)
    return a == b


def exact_at(fin: ModuleMap, fout: ModuleMap) -> bool:
    """Exactness of fin: A -> B then fout: B -> C, counted (Bigatti numerators,
    no syzygies).  fout o fin = 0, one normal form per column, puts im fin in
    ker fout; nested graded pieces of equal dimension are equal.  HS(im fin) =
    HS(B) - HS(coker fin) and HS(ker fout) = HS(B) - t^-d (HS(C) - HS(coker
    fout)), d fout's degree, so exact iff N(coker fin) = t^-d (N(C) - N(coker fout))."""
    gb = fout.target.relation_gb()
    if any(not normal_form(fout.apply_free(c), gb).is_zero() for c in fin.columns):
        return False
    d = fout.degree
    parts = ((1, 0, _coker(fin)), (-1, -d, fout.target), (1, -d, _coker(fout)))
    return not _combine(*((s, k, m.hilbert_numerator().items()) for s, k, m in parts))


def connecting_map(ses: ShortExactSequence, e: str, e_prime: str) -> ModuleMap:
    """Connecting map F1(C) -> F0(B) of the six-term sequence.

    Sends a torsion class of C to the class of (e - e') times any preimage in
    A, pulled back into B; preimages come from deterministic normal-form
    lifting (_lift), so the matrix is reproducible.  Through a cokernel
    projection, whose columns are all of C's generators, the preimage is the
    class's normal form modulo C's relation basis, with no tracked run.
    """
    b_mod = ses.incl.source
    a_mod = ses.incl.target
    c_mod = ses.proj.target
    td_c = torsion_data(c_mod, e, e_prime)
    f1c = td_c.presentation
    f0b = f0(b_mod, e, e_prime)
    if not td_c.kgens:
        return ModuleMap.zero_map(f1c, f0b, 1)
    d = a_mod.ring.var(e) - a_mod.ring.var(e_prime)
    cols = []
    for c in td_c.kgens:
        rem, cof = _lift(c_mod, c, ses.proj.columns)
        if not rem.is_zero():
            raise StructuralError("projection is not surjective; cannot lift torsion class")
        w = d * a_mod.free_cover.element(cof)
        rem2, cof2 = _lift(a_mod, w, ses.incl.columns)
        if not rem2.is_zero():
            raise StructuralError("(e-e') times the lift does not come from the subobject")
        cols.append(contract(b_mod.free_cover.element(cof2), f0b.free_cover, e, e_prime))
    return ModuleMap(f1c, f0b, cols, 1, check=True)


@dataclass(frozen=True)
class SixTermSequence:
    """0 -> F1(B) -> F1(A) -> F1(C) -> F0(B) -> F0(A) -> F0(C) -> 0."""

    modules: tuple  # (F1B, F1A, F1C, F0B, F0A, F0C)
    maps: tuple  # (F1 incl, F1 proj, connecting, F0 incl, F0 proj)

    def exactness_failures(self) -> list[str]:
        f1i, f1p, delta, f0i, f0p = self.maps
        problems = []
        if not f1i.is_mono():
            problems.append("F1(B) -> F1(A) not injective")
        junctions = [
            ("F1(A)", f1i, f1p),
            ("F1(C)", f1p, delta),
            ("F0(B)", delta, f0i),
            ("F0(A)", f0i, f0p),
        ]
        for name, fin, fout in junctions:
            if not exact_at(fin, fout):
                problems.append(f"exactness fails at {name}")
        if not f0p.is_epi():
            problems.append("F0(A) -> F0(C) not surjective")
        return problems


def six_term(ses: ShortExactSequence, e: str, e_prime: str) -> SixTermSequence:
    b_mod = ses.incl.source
    a_mod = ses.incl.target
    c_mod = ses.proj.target
    mods = (
        f1(b_mod, e, e_prime),
        f1(a_mod, e, e_prime),
        f1(c_mod, e, e_prime),
        f0(b_mod, e, e_prime),
        f0(a_mod, e, e_prime),
        f0(c_mod, e, e_prime),
    )
    maps = (
        induced_map_f1(ses.incl, e, e_prime),
        induced_map_f1(ses.proj, e, e_prime),
        connecting_map(ses, e, e_prime),
        induced_map_f0(ses.incl, e, e_prime),
        induced_map_f0(ses.proj, e, e_prime),
    )
    return SixTermSequence(mods, maps)


# ---------------------------------------------------------------------------
# Annihilators and cyclic submodules


def annihilator(m: PresentedModule, x: FreeElement) -> tuple[GradedPoly, ...]:
    """Generators of {r : r*x = 0 in M}, as a reduced Groebner basis.

    For x a nonzero constant times generator i of a module whose relation
    basis lies in single positions, Ann(x) = I_i is read off _diagonal, with
    no syzygies.

    Otherwise they are the syzygies of x modulo the relations of M, a reduced
    basis in the rank-1 order of weight(x), which is the ring order shifted
    (_syzygies).  For x generator i itself, when no basis element has terms
    both at i and elsewhere, that is the position-i basis elements' entries,
    with no tracked run.
    """
    if x.module is not m.free_cover:
        raise StructuralError("element outside the module's free cover")
    if not x.is_homogeneous:
        raise ValidationError(f"inhomogeneous element {x}")
    # a constant times generator i is one term whose dkey is i
    if len(x.terms) == 1 and x.terms[0][1] <= FIELD:
        diag = _diagonal(m)
        if diag is not None:
            return diag[x.terms[0][1]]
    return tuple(s.component(0) for s in _syzygies(m, [x]))


@lru_cache(maxsize=8192)
def annihilator_ideal(m: PresentedModule) -> tuple[GradedPoly, ...]:
    """Annihilator of the whole module: {r : r*M = 0}."""
    if m.rank == 0:
        return (m.ring.one(),)
    acc = None
    for i in range(m.rank):
        ann = annihilator(m, m.gen(i))
        if not ann:
            return ()
        acc = ann if acc is None else intersect_ideals(acc, ann, m.ring)
        if not acc:
            return ()
    return acc


@dataclass(frozen=True)
class CyclicSubmodule:
    module: PresentedModule
    inclusion: ModuleMap
    shift: int


def cyclic_submodule(m: PresentedModule, x: FreeElement) -> CyclicSubmodule:
    """R*x as submodule_from_elements(m, [x]) spans it: one generator in
    weight(x), whose relations are Ann(x), so R*x = R/Ann(x) shifted; the
    zero module, with shift 0, when x's class is zero.  Like any submodule
    generator, x must be homogeneous, whatever its class."""
    sub, incl = submodule_from_elements(m, [x])
    return CyclicSubmodule(sub, incl, x.weight() if sub.rank else 0)


# ---------------------------------------------------------------------------
# Support criterion for tameness


@lru_cache(maxsize=256)
def _support_plan(tame: tuple, ring: EdgeRing):
    """(keep, covers, masks, pairs) of tame over ring, built once; None for an
    empty list.  Every partition's ground must be the ring's variables.
    Nothing changes the plan once it is cached.  It holds what every decision
    reads, and nothing that only a saturating sweep reads: _sweep_covers
    takes its chains and its order from keep itself.

    keep is the list's antichain reduction: the partitions, without repeats
    and in tame's order, that no other one refines.  A refined partition
    covers a smaller subspace and is redundant in the union.  covers says
    that keep is one discrete partition, whose subspace is everything: it
    refines every other partition, so it is all that is kept, and no pair is
    looked at.

    Otherwise each same-block pair (a, b), a before b, is one bit of an int,
    and a partition's mask is the sum of its blocks' masks, each built once.
    q refines p iff q's pairs are a subset of p's, and distinct partitions
    have distinct masks, so q != p refines p iff q's mask is a proper subset
    of p's.  A strict refinement has more blocks, so the partitions are taken
    by block count, most blocks first, and each mask is compared only with
    the kept masks of more blocks: refinement is transitive, so a dropped
    finer partition is refined by a kept one.  keep then is tame filtered
    in its own order.  masks[i] is keep[i]'s mask.

    pairs is the pair table: each pair's (bit, i, j), with i and j the ring
    indices of a and b, looked up by name, so a mask read off an ideal in the
    ring's own variable order means the same pairs as the partitions' masks.
    """
    tame = tuple(dict.fromkeys(tame))
    if not tame:
        return None
    ground = set(ring.variables)
    for g in dict.fromkeys(p.ground for p in tame):
        if set(g) != ground:
            raise StructuralError(f"partition ground {g} does not match module ring {ring.variables}")
    for p in tame:
        if p.is_discrete():
            return (p,), True, (), ()
    bit = {pr: 1 << i for i, pr in enumerate(combinations(tame[0].ground, 2))}
    block_mask = {b: sum(map(bit.__getitem__, combinations(b, 2))) for b in {b for p in tame for b in p.blocks}}
    masks = [sum(map(block_mask.__getitem__, p.blocks)) for p in tame]
    by_blocks: dict = {}
    for p, s in zip(tame, masks):
        by_blocks.setdefault(p.block_count, []).append(s)
    finer: list = []
    for c in sorted(by_blocks, reverse=True):
        finer += [s for s in by_blocks[c] if 0 not in map((~s).__and__, finer)]
    kept = set(finer)
    # nonempty: a partition with the most blocks is kept
    keep, masks = zip(*((p, s) for p, s in zip(tame, masks) if s in kept))
    pairs = tuple((b, ring.index(x), ring.index(y)) for (x, y), b in bit.items())
    return keep, False, masks, pairs


def _is_linear(gb: tuple, ring: EdgeRing) -> bool:
    """Whether a reduced homogeneous basis has only forms of degree 1, read
    off the packed weights of its leads; true of the zero ideal's ()."""
    return ring.packing.weights([g.terms[0] for g in gb]) <= {1}


def _linear_covers(current: tuple, masks: tuple, pairs: tuple, ring: EdgeRing) -> bool:
    """_sweep_covers on a linear current, in closed form, from the plan's
    masks and pair table alone.

    A reduced basis of degree-1 forms is monic, and no lead variable occurs
    in any tail, so each variable's normal form is read at sight: minus the
    tail of the element it leads, or the variable itself when it leads none.
    x_a - x_b lies in current iff the normal forms of x_a and x_b are equal,
    and current's pair mask is the OR of those pairs' bits.  I_P lies in
    current iff P's mask is a subset of it.
    """
    tails = {g.terms[0][0]: g.terms[1:] for g in current}
    nf = [K.neg(tails[t[0]]) if t[0] in tails else (t,) for t in (ring.var(v).terms[0] for v in ring.variables)]
    have = sum(b for b, i, j in pairs if nf[i] == nf[j])
    return any(not mask & ~have for mask in masks)


def _sweep_covers(current: tuple, keep: tuple, masks: tuple, pairs: tuple, ring: EdgeRing) -> bool:
    """Whether V(current), a proper ideal given by its reduced homogeneous
    basis, lies in the union of the subspaces of the partitions keep, given
    a _support_plan's keep, masks and pairs.

    A linear current, generated by forms of degree 1, is prime, so V(current)
    lies in a finite union of the V(I_P) iff it lies in one of them, iff some
    I_P lies in current (prime avoidance: Atiyah-Macdonald, Prop. 1.11).
    That is decided on pair masks, with no division (_linear_covers).

    Any other current is saturated by each I_P in turn, finest partitions
    first, which removes the components covered by that subspace;
    containment holds iff the unit ideal is reached.  The sweep sorts its
    own order, most blocks first and then by blocks, and makes one
    saturate_by_ideal per partition, on P's chain: the forms x_a - x_b
    joining consecutive elements of each block, in partition_ideal's order.
    saturate_by_ideal stops at a chain form that leaves current unchanged
    and meets nothing with (1); a single saturation that a later partition's
    chain repeats is a hit in its lru cache.

    When a step leaves current linear, the closed form decides over every
    kept partition.  A partition already swept leaves every later current
    unchanged, as saturations commute and each is idempotent; a proper ideal
    holding its I_P would saturate to (1), so it cannot change the verdict.
    """
    if _is_linear(current, ring):
        return _linear_covers(current, masks, pairs, ring)
    one = (ring.one(),)
    for p in sorted(keep, key=lambda p: (-p.block_count, p.blocks)):
        chain = [ring.var(x) - ring.var(y) for blk in p.blocks for x, y in zip(blk, blk[1:])]
        current = saturate_by_ideal(current, chain, ring)
        # a reduced basis, and the reduced basis of the unit ideal is (1)
        if current == one:
            return True
        if _is_linear(current, ring):
            return _linear_covers(current, masks, pairs, ring)
    return False


def is_tame_support(m: PresentedModule, tame: Sequence) -> bool:
    """Decide Supp(M) within the union of the tame partition subspaces.

    Ann M is the intersection of the generators' annihilators Ann(m_i), so
    Supp M = V(Ann M) is the union of the V(Ann m_i) (Atiyah-Macdonald, Ex.
    3.19): _sweep_covers runs on each annihilator(m, m_i), and the first one
    it does not cover decides.  A zero generator, whose annihilator is (1), is
    skipped, as the sweep decides only proper ideals.

    Linear supports are decided in closed form, with no elimination and no
    division.  When M's relation basis lies in single positions, M is a
    direct sum of cyclic modules and each Ann(m_i) is read off that basis,
    with no syzygies (annihilator).  A linear Ann(m_i) is prime, so it is
    covered iff it holds one kept I_P, which its pair mask shows
    (_sweep_covers).

    What every decision reads, and depends on the tame list and the ring
    alone, is built once, in one plan on bitmasks of same-block pairs
    (_support_plan): the kept partitions, their masks and the pair table.
    What only a saturating sweep reads, its chain forms and its order, the
    sweep builds for itself, and it saturates by one kept partition ideal at
    a time through saturate_by_ideal, with no table of its own.  The
    outcomes come in this order: an empty list decides by m.is_zero(); a
    partition on another ground raises StructuralError; a zero module, or a
    discrete partition in the list, gives True; more than MAX_TAME_SUBSPACES
    partitions in the reduced antichain raise ResourceCapError before any
    algebra is done.
    """
    plan = _support_plan(tuple(tame), m.ring)
    if plan is None:
        return m.is_zero()
    keep, covers, masks, pairs = plan
    if m.is_zero() or covers:
        return True
    if len(keep) > MAX_TAME_SUBSPACES:
        raise ResourceCapError(
            f"{len(keep)} tame subspaces exceed the partition cap {MAX_TAME_SUBSPACES}"
        )
    one = (m.ring.one(),)
    for i in range(m.rank):
        ann = annihilator(m, m.gen(i))
        if ann != one and not _sweep_covers(ann, keep, masks, pairs, m.ring):
            return False
    return True
