"""Exact arithmetic kernel: graded polynomial rings on edge variables, free
modules, Groebner bases, normal forms, syzygies, and radical membership.

Everything is exact over the rationals.  Values are immutable; all operations
are pure functions of their inputs.  The monomial order is weight-graded
reverse lexicographic in the ring's fixed variable order (term over position
for free modules); internal elimination orders extend it with dominant
variable or position blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from ._core import impl as K
from ._core._pure import DIVMASK, FIELD
from .errors import ResourceCapError, StructuralError, ValidationError

# Generous guard against runaway Groebner runs on adversarial random input.
MAX_BASIS = 8000

Coeff = int | Fraction | tuple


def _coeff(c) -> tuple[int, int]:
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, tuple) and len(c) == 2:
        return int(c[0]), int(c[1])
    raise ValidationError(f"not a rational coefficient: {c!r}")


@dataclass(frozen=True)
class EdgeRing:
    """Polynomial ring on a fixed ordered tuple of edge names, graded with
    every variable in weight 1; earlier variables are larger in the order."""

    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError(f"duplicate variable names: {self.variables}")
        for v in self.variables:
            if not isinstance(v, str) or not v:
                raise ValidationError(f"bad variable name: {v!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValidationError(f"unknown variable {name!r} in ring {self.variables}") from None

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, ())

    def one(self) -> "GradedPoly":
        return self.const(1)

    def const(self, c: Coeff) -> "GradedPoly":
        n, d = _coeff(c)
        if n == 0:
            return self.zero()
        return GradedPoly(self, ((0, (0,) * self.nvars, n, d),))

    def var(self, name: str) -> "GradedPoly":
        i = self.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return GradedPoly(self, ((0, expo, 1, 1),))

    def poly(self, terms: dict) -> "GradedPoly":
        """Build from {exponent tuple: coefficient}."""
        raw = []
        for expo, c in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise ValidationError(f"bad exponent vector {expo} for {self.nvars} variables")
            n, d = _coeff(c)
            raw.append((0, expo, n, d))
        return GradedPoly(self, K.canon(raw, (0,), 0, 0))


_RING_ORDER = ((0,), 0, 0)


class GradedPoly:
    """Sparse exact-rational polynomial; terms canonically sorted."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: EdgeRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_homogeneous(self) -> bool:
        ws = {sum(t[1]) for t in self.terms}
        return len(ws) <= 1

    def weight(self):
        """Common weight of all terms; None for the zero polynomial."""
        ws = {sum(t[1]) for t in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValidationError(f"inhomogeneous polynomial {self}")
        return ws.pop()

    def _check(self, other: "GradedPoly"):
        if self.ring != other.ring:
            raise StructuralError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        return GradedPoly(self.ring, K.add(self.terms, other.terms, *_RING_ORDER))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        return GradedPoly(self.ring, K.sub(self.terms, other.terms, *_RING_ORDER))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GradedPoly(self.ring, K.neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = _coeff(other)
            return GradedPoly(self.ring, K.scale(self.terms, n, d))
        if isinstance(other, FreeElement):
            return other.__rmul__(self)
        self._check(other)
        return GradedPoly(self.ring, K.mul(self.terms, other.terms, *_RING_ORDER))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = _coeff(other)
            return GradedPoly(self.ring, K.scale(self.terms, n, d))
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValidationError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GradedPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return f"GradedPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for _, expo, n, d in self.terms:
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ring.variables, expo)
                if e
            )
            c = Fraction(n, d)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@dataclass(frozen=True)
class FreeModule:
    """Free graded module with one generator per weight entry."""

    ring: EdgeRing
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    @property
    def rank(self) -> int:
        return len(self.weights)

    def order(self) -> tuple:
        return (self.weights if self.weights else (0,), 0, 0)

    def zero(self) -> "FreeElement":
        return FreeElement(self, ())

    def gen(self, i: int, c: Coeff = 1) -> "FreeElement":
        if not 0 <= i < self.rank:
            raise ValidationError(f"generator index {i} out of range")
        n, d = _coeff(c)
        if n == 0:
            return self.zero()
        return FreeElement(self, ((i, (0,) * self.ring.nvars, n, d),))

    def element(self, components: Sequence[GradedPoly]) -> "FreeElement":
        if len(components) != self.rank:
            raise StructuralError(f"expected {self.rank} components")
        raw = []
        for i, p in enumerate(components):
            if p.ring != self.ring:
                raise StructuralError("component from a different ring")
            raw.extend((i, e, n, d) for _, e, n, d in p.terms)
        return FreeElement(self, K.canon(raw, *self.order()))


class FreeElement:
    """Element of a free module; terms carry their generator position."""

    __slots__ = ("module", "terms")

    def __init__(self, module: FreeModule, terms: tuple):
        self.module = module
        self.terms = terms

    @property
    def ring(self) -> EdgeRing:
        return self.module.ring

    def is_zero(self) -> bool:
        return not self.terms

    def component(self, i: int) -> GradedPoly:
        terms = tuple((0, e, n, d) for p, e, n, d in self.terms if p == i)
        return GradedPoly(self.ring, K.canon(terms, *_RING_ORDER))

    def components(self) -> tuple[GradedPoly, ...]:
        return tuple(self.component(i) for i in range(self.module.rank))

    def _term_weight(self, t) -> int:
        return sum(t[1]) + self.module.weights[t[0]]

    @property
    def is_homogeneous(self) -> bool:
        ws = {self._term_weight(t) for t in self.terms}
        return len(ws) <= 1

    def weight(self):
        ws = {self._term_weight(t) for t in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValidationError(f"inhomogeneous element {self}")
        return ws.pop()

    def _check(self, other: "FreeElement"):
        if self.module != other.module:
            raise StructuralError("elements of different free modules")

    def __add__(self, other):
        self._check(other)
        return FreeElement(self.module, K.add(self.terms, other.terms, *self.module.order()))

    def __sub__(self, other):
        self._check(other)
        return FreeElement(self.module, K.sub(self.terms, other.terms, *self.module.order()))

    def __neg__(self):
        return FreeElement(self.module, K.neg(self.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            n, d = _coeff(other)
            return FreeElement(self.module, K.scale(self.terms, n, d))
        if isinstance(other, GradedPoly):
            if other.ring != self.ring:
                raise StructuralError("scalar from a different ring")
            return FreeElement(self.module, K.mul(other.terms, self.terms, *self.module.order()))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.module, self.terms))

    def __repr__(self):
        return f"FreeElement({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"[g{i}]*({c})" for i, c in enumerate(self.components()) if not c.is_zero()
        )


# ---------------------------------------------------------------------------
# Groebner machinery on raw term tuples


def _monic(f: tuple) -> tuple:
    _, _, n, d = f[0]
    if n == d:  # coefficients are normalized, so the lead is 1/1
        return f
    return K.scale(f, d, n)


def _buchberger(items: Sequence[tuple], pk, cap: int = MAX_BASIS) -> list:
    """A Groebner basis of the packed items, not yet reduced (see _autoreduce).

    pk is the Packing of the order.  Pairs are selected by the sugar strategy
    (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube, please",
    1991): least sugar first, then least lcm in the order.  An input's sugar
    is its largest weighted degree; a new element takes its pair's sugar, the
    larger of the two elements' sugars each raised by the degree from its
    leading monomial to the lcm.  For homogeneous input sugar is the degree.
    Selecting by the order alone is wrong for _tracked_raw's order on
    F + R^m, whose first field is the position block: it reduces every pair
    led in the auxiliary positions before any pair led in F, whatever their
    degrees, and most of those reductions end in zero.

    Two criteria of Buchberger ("A criterion for detecting unnecessary
    reductions in the construction of Groebner bases", 1979) skip pairs.
    The product criterion skips a pair whose leading monomials are coprime.
    It holds only when both elements lie in a single position, where the
    pair is the polynomial case times one basis vector; it is not valid for
    elements spread over several positions.  The chain criterion skips a pair
    (i, j) when some k leads in their position, lt_k divides their lcm, and
    neither (i, k) nor (j, k) is pending.  A pair skipped by either criterion
    is no longer pending.
    """
    wdeg = pk.wdeg
    basis = [_monic(f) for f in items if f]
    sugar = [max(wdeg(t[0]) for t in f) for f in basis]
    leads = [f[0] for f in basis]
    pos = [lt[1] & FIELD for lt in leads]
    one_pos = [all(t[1] & FIELD == p for t in f) for f, p in zip(basis, pos)]
    support = [pk.support(lt[1]) for lt in leads]
    heap: list = []
    treated: set = set()

    def push_pairs(j: int):
        ltj = leads[j]
        for i in range(j):
            if pos[i] == pos[j]:
                lti = leads[i]
                lcm_key, lcm_dkey = pk.lcm(lti, ltj)
                pair_sugar = max(sugar[i] + wdeg(lcm_key - lti[0]), sugar[j] + wdeg(lcm_key - ltj[0]))
                heapq.heappush(heap, (pair_sugar, lcm_key, i, j, lcm_dkey))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        pair_sugar, lcm_key, i, j, lcm_dkey = heapq.heappop(heap)
        treated.add((i, j))
        if one_pos[i] and one_pos[j] and not support[i] & support[j]:
            continue
        skip = False
        for k, ltk in enumerate(leads):
            if (
                not (lcm_dkey - ltk[1]) & DIVMASK
                and k != i
                and k != j
                and (min(i, k), max(i, k)) in treated
                and (min(j, k), max(j, k)) in treated
            ):
                skip = True
                break
        if skip:
            continue
        s = K.spoly(basis[i], basis[j], (lcm_key, lcm_dkey))
        r, _ = K.reduce(s, basis, False)
        if r:
            r = _monic(r)
            basis.append(r)
            sugar.append(pair_sugar)
            leads.append(r[0])
            pos.append(r[0][1] & FIELD)
            one_pos.append(all(t[1] & FIELD == pos[-1] for t in r))
            support.append(pk.support(r[0][1]))
            if len(basis) > cap:
                raise ResourceCapError(f"Groebner basis exceeded {cap} elements")
            push_pairs(len(basis) - 1)
    return basis


def _autoreduce(basis: Sequence[tuple]) -> tuple:
    """The reduced Groebner basis from a packed Groebner basis, largest lead first.

    Elements are taken in ascending lead order; one whose lead a kept lead
    divides is dropped, and each kept one is reduced against the smaller ones
    already kept and reduced.  Every tail term lies below its own lead, so no
    larger lead divides it, and the result is the unique reduced basis.
    """
    out: list = []
    for g in sorted(basis, key=lambda f: f[0][0]):
        d = g[0][1]
        if any(not (d - h[0][1]) & DIVMASK for h in out):
            continue
        r, _ = K.reduce(g, out, False)
        out.append(_monic(r))
    out.reverse()
    return tuple(out)


def _packed_run(items: Sequence[tuple], order: tuple, nvars: int) -> tuple:
    """The reduced Groebner basis of tuple-layout items, run on packed terms:
    the items are packed once and the basis unpacked once.  Packing looks each
    exponent tuple up in the exponent table of (nvars, nelim), and unpacking
    returns the table's own tuples, so bases share them."""
    pk = K.packing(*order, nvars)
    basis = _autoreduce(_buchberger([pk.pack(f) for f in items], pk))
    return tuple(pk.unpack(f) for f in basis)


@lru_cache(maxsize=65536)
def _groebner_raw(items: tuple, order: tuple) -> tuple:
    return _packed_run(items, order, len(items[0][0][1])) if items else ()


def _reduce_raw(f: tuple, gb: tuple, order: tuple, nvars: int) -> tuple:
    pk = K.packing(*order, nvars)
    r, _ = K.reduce(pk.pack(f), [pk.pack(g) for g in gb], False)
    return pk.unpack(r)


@lru_cache(maxsize=65536)
def _tracked_raw(items: tuple, rank: int, order: tuple, nvars: int, modulo: tuple = ()) -> tuple:
    """Reduced Groebner basis of {g_i + eps_i} and the modulo elements in F + R^m.

    Only the m items carry an auxiliary basis vector eps_i; the modulo
    elements enter with no auxiliary part, so their cofactors are never
    carried.  The order puts F above the auxiliary positions, so the elements
    with a nonzero F-part are a Groebner basis of the span of items and
    modulo, each carrying its expression in the items, and the elements
    supported purely on the auxiliary positions are a reduced basis of
    {a : sum a_i g_i lies in the span of modulo} (the module quotient that
    Singular and Macaulay2 call modulo).  Returns (basis, product order).
    """
    weights, nelim, _ = order
    aux = []
    for g in items:
        w = {sum(t[1]) + weights[t[0]] for t in g}
        aux.append(w.pop() if len(w) == 1 else 0)
    pweights = tuple(weights) + tuple(aux)
    porder = (pweights, nelim, rank)
    zero_expo = (0,) * nvars
    embedded = [g + ((rank + i, zero_expo, 1, 1),) for i, g in enumerate(items)]
    return _packed_run(embedded + list(modulo), porder, nvars), porder


def _split_tracked(v: tuple, rank: int):
    fpart = tuple(t for t in v if t[0] < rank)
    apart = tuple((t[0] - rank, t[1], t[2], t[3]) for t in v if t[0] >= rank)
    return fpart, apart


# ---------------------------------------------------------------------------
# Public operations


def _coerce_inputs(gens: Sequence, module: FreeModule | None = None):
    """Common (module, raw term tuples) view of polys or free elements."""
    gens = list(gens)
    if not gens:
        if module is None:
            raise StructuralError("empty input needs an explicit module")
        return module, [], False
    if all(isinstance(g, GradedPoly) for g in gens):
        ring = gens[0].ring
        if any(g.ring != ring for g in gens):
            raise StructuralError("mixed rings")
        mod = FreeModule(ring, (0,))
        return mod, [g.terms for g in gens], True
    if all(isinstance(g, FreeElement) for g in gens):
        mod = gens[0].module
        if any(g.module != mod for g in gens):
            raise StructuralError("mixed ambient modules")
        if module is not None and module != mod:
            raise StructuralError("elements do not live in the requested module")
        return mod, [g.terms for g in gens], False
    raise StructuralError("mixed polynomial / free-element input")


def groebner(gens: Sequence, module: FreeModule | None = None):
    """Reduced Groebner basis of the submodule (or ideal) generated by gens.

    Returns values of the same kind as the input (polys in, polys out).
    """
    mod, items, was_poly = _coerce_inputs(gens, module)
    gb = _groebner_raw(tuple(t for t in items if t), mod.order())
    if was_poly:
        return tuple(GradedPoly(mod.ring, g) for g in gb)
    return tuple(FreeElement(mod, g) for g in gb)


def normal_form(f, gb: Sequence):
    """Remainder of f on division by gb; canonical when gb is a Groebner basis."""
    if isinstance(f, GradedPoly):
        for g in gb:
            if not isinstance(g, GradedPoly) or g.ring != f.ring:
                raise StructuralError("basis element in a different ring")
        mod = FreeModule(f.ring, (0,))
        r = _reduce_raw(f.terms, tuple(g.terms for g in gb if not g.is_zero()), mod.order(), f.ring.nvars)
        return GradedPoly(f.ring, r)
    mod = f.module
    for g in gb:
        if not isinstance(g, FreeElement) or g.module != mod:
            raise StructuralError("basis element in a different module")
    r = _reduce_raw(f.terms, tuple(g.terms for g in gb if not g.is_zero()), mod.order(), mod.ring.nvars)
    return FreeElement(mod, r)


def reduce_with_expression(f, gens: Sequence, modulo: Sequence = ()):
    """Normal form of f against the submodule generated by gens and modulo,
    with cofactors for gens alone: f - remainder - sum cof_i * gens_i lies in
    the submodule generated by modulo, and is zero when modulo is empty.

    With no gens, f is still reduced against modulo and the cofactors are ().
    """
    gens = list(gens)
    every = gens + list(modulo)
    if not every:
        return f, ()
    poly_in = isinstance(f, GradedPoly)
    mod, items, was_poly = _coerce_inputs(every)
    if poly_in:
        if not was_poly or f.ring != mod.ring:
            raise StructuralError("polynomial reduced against incompatible generators")
    elif was_poly or f.module != mod:
        raise StructuralError("element reduced against incompatible generators")
    k = len(gens)
    basis, porder = _tracked_raw(
        tuple(items[:k]), mod.rank, mod.order(), mod.ring.nvars, tuple(items[k:])
    )
    rem, aux = _split_tracked(_reduce_raw(f.terms, basis, porder, mod.ring.nvars), mod.rank)
    cof_terms = [[] for _ in range(k)]
    for i, e, n, d in aux:
        cof_terms[i].append((0, e, -n, d))
    cofs = tuple(
        GradedPoly(mod.ring, K.canon(c, *_RING_ORDER)) for c in cof_terms
    )
    rem_v = GradedPoly(mod.ring, rem) if poly_in else FreeElement(mod, rem)
    return rem_v, cofs


def syzygies(gens: Sequence, module: FreeModule | None = None, modulo: Sequence = ()):
    """Reduced basis of the relations {s : sum s_i gens_i lies in the span of
    modulo}; with modulo empty, the syzygies {s : sum s_i gens_i = 0}.

    The result lives in the free module indexed by gens, with generator
    weights matching the input weights (0 for a zero or inhomogeneous
    generator), and is its reduced Groebner basis, largest lead first.  The
    modulo elements live in the same module as gens and carry no cofactors.
    """
    gens = list(gens)
    mod, items, _ = _coerce_inputs(gens + list(modulo), module)
    k = len(gens)
    if not k:
        return ()
    basis, _ = _tracked_raw(
        tuple(items[:k]), mod.rank, mod.order(), mod.ring.nvars, tuple(items[k:])
    )
    sweights = []
    for g in gens:
        w = g.weight() if g.is_homogeneous else None
        sweights.append(w if w is not None else 0)
    smod = FreeModule(mod.ring, tuple(sweights))
    out = []
    for v in basis:
        fpart, apart = _split_tracked(v, mod.rank)
        if not fpart and apart:
            out.append(FreeElement(smod, K.canon(apart, *smod.order())))
    return tuple(out)


# ---------------------------------------------------------------------------
# Ring maps and variable elimination


def substitute_poly(p: GradedPoly, dst: EdgeRing, mapping: dict) -> GradedPoly:
    """Push p along the ring map sending each variable to mapping.get(v, v)."""
    imap = [dst.index(mapping.get(v, v)) for v in p.ring.variables]
    raw = []
    for _, e, n, d in p.terms:
        out = [0] * dst.nvars
        for i, x in enumerate(e):
            out[imap[i]] += x
        raw.append((0, tuple(out), n, d))
    return GradedPoly(dst, K.canon(raw, *_RING_ORDER))


def substitute_free(x: FreeElement, dst: FreeModule, mapping: dict) -> FreeElement:
    imap = [dst.ring.index(mapping.get(v, v)) for v in x.ring.variables]
    raw = []
    for p, e, n, d in x.terms:
        out = [0] * dst.ring.nvars
        for i, v in enumerate(e):
            out[imap[i]] += v
        raw.append((p, tuple(out), n, d))
    return FreeElement(dst, K.canon(raw, *dst.order()))


_ELIM_ORDER = ((0,), 1, 0)


def _lift_terms(terms: tuple) -> tuple:
    return tuple((p, (0,) + e, n, d) for p, e, n, d in terms)


def _elim_gb(items: Iterable[tuple]) -> tuple:
    return _groebner_raw(tuple(t for t in items if t), _ELIM_ORDER)


def _t_free(gb: tuple) -> tuple:
    """The t-free elements of a reduced elimination basis, with t dropped.

    By the elimination theorem (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, Ch. 3 Sec. 1) they are a Groebner basis of the elimination
    ideal.  The elimination order restricted to t-free monomials is the ring
    order, so they are already its reduced basis, in _groebner_raw's order; a
    second Groebner pass would return them unchanged.
    """
    return tuple(
        tuple((p, e[1:], n, d) for p, e, n, d in g)
        for g in gb
        if all(t[1][0] == 0 for t in g)
    )


def _contains_unit(gb: tuple) -> bool:
    return any(sum(g[0][1]) == 0 for g in gb)


def _rabinowitsch_gb(ideal: tuple, h: tuple, nvars: int) -> tuple:
    """Elimination basis of I + (1 - t*h) in one auxiliary variable t, which
    comes first and dominates the order."""
    items = [_lift_terms(g) for g in ideal]
    th = K.mul(((0, (1,) + (0,) * nvars, 1, 1),), _lift_terms(h), *_ELIM_ORDER)
    one = ((0, (0,) * (nvars + 1), 1, 1),)
    items.append(K.sub(one, th, *_ELIM_ORDER))
    return _elim_gb(items)


def radical_member(f: GradedPoly, ideal_gens: Sequence[GradedPoly]) -> bool:
    """True iff some power of f lies in the ideal (Rabinowitsch trick: the
    ideal extended by 1 - t*f in one auxiliary variable becomes the unit ideal)."""
    gens = [g for g in ideal_gens if not g.is_zero()]
    for g in gens:
        if g.ring != f.ring:
            raise StructuralError("ideal generators from a different ring")
    if f.is_zero():
        return True
    return _contains_unit(_rabinowitsch_gb(tuple(g.terms for g in gens), f.terms, f.ring.nvars))


@lru_cache(maxsize=65536)
def _saturate_raw(ideal: tuple, h: tuple, nvars: int) -> tuple:
    """(I : h^infinity) = (I + (1 - t*h)) intersected with the ring."""
    if not h:
        return (((0, (0,) * nvars, 1, 1),),)
    return _t_free(_rabinowitsch_gb(ideal, h, nvars))


@lru_cache(maxsize=65536)
def _intersect_raw(a: tuple, b: tuple, nvars: int) -> tuple:
    """I and J intersected = (t*I + (1 - t)*J) intersected with the ring."""
    if not a or not b:
        return ()
    t_mono = ((0, (1,) + (0,) * nvars, 1, 1),)
    one = ((0, (0,) * (nvars + 1), 1, 1),)
    one_minus_t = K.sub(one, t_mono, *_ELIM_ORDER)
    items = [K.mul(t_mono, _lift_terms(g), *_ELIM_ORDER) for g in a]
    items += [K.mul(one_minus_t, _lift_terms(g), *_ELIM_ORDER) for g in b]
    return _t_free(_elim_gb(items))


def saturate_by_ideal(ideal_gens: Sequence[GradedPoly], by: Sequence[GradedPoly], ring: EdgeRing) -> tuple:
    """Saturation (I : J^infinity) = intersection of the single-generator saturations."""
    hs = [h for h in by if not h.is_zero()]
    if not hs:
        return (ring.one(),)
    acc = None
    for h in hs:
        part = _saturate_raw(
            tuple(g.terms for g in ideal_gens if not g.is_zero()), h.terms, ring.nvars
        )
        acc = part if acc is None else _intersect_raw(acc, part, ring.nvars)
    return tuple(GradedPoly(ring, g) for g in acc)


def intersect_ideals(a: Sequence[GradedPoly], b: Sequence[GradedPoly], ring: EdgeRing) -> tuple:
    raw = _intersect_raw(
        tuple(g.terms for g in a if not g.is_zero()),
        tuple(g.terms for g in b if not g.is_zero()),
        ring.nvars,
    )
    return tuple(GradedPoly(ring, g) for g in raw)


def ideal_contains_one(gens: Sequence[GradedPoly], ring: EdgeRing) -> bool:
    gb = _groebner_raw(tuple(g.terms for g in gens if not g.is_zero()), _RING_ORDER)
    return _contains_unit(gb)
