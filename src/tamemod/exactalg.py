"""Exact arithmetic kernel: graded polynomial rings on edge variables, free
modules, Groebner bases, normal forms, syzygies, radical membership, and the
Hilbert-Poincare numerators of monomial ideals.

Everything is exact over the rationals.  Values are immutable; all operations
are pure functions of their inputs.  The monomial order is weight-graded
reverse lexicographic in the ring's fixed variable order (term over position
for free modules); internal elimination orders extend it with dominant
variable or position blocks.

A value is packed terms in a space, a ring or a free module: `terms` holds
(key, dkey, num, den), strictly descending (see `_core._pure`), under the
space's order.  Every value has is_zero, is_homogeneous, weight, +, -, scalar
*, ==, hash and repr; GradedPoly adds poly * poly, ** and str, FreeElement
adds ring, component(s), the ring action and str.  The Groebner engine takes
and returns terms as they are, a ring's polys as elements of its rank-1 free
module; exponent tuples are read off only to build values from exponents and
for output.  The contraction e' -> e, which drops a variable, moves packed
fields (contract).  Saturation and intersection add a variable t in front,
which shifts every packed field up one (Packing.lift), and shift the t-free
result back down (Packing.lower).

Spaces are interned, hash-consed through a weak table (Filliatre and
Conchon, "Type-safe modular hash-consing", ML Workshop 2006): EdgeRing and
FreeModule return the live object of the same variables, or of the same ring
and weights, and build and validate one only when none is alive.  So values
compare their spaces by identity, a space's Packing and a ring's variable
polys are built once, and nothing holds a space that no value uses.  A
pickle or a deepcopy of a space goes back through its constructor and gets
the live object, in a worker process too.

Saturation, intersection and syzygies each keep one part of a Groebner basis
and drop the rest: the elements led by a t-free monomial, or led in an
auxiliary position.  t dominates the elimination order and F's positions
dominate the tracked order, so every dropped element leads above every kept
one, and no dropped lead divides a term of a kept element.  The kept part is
therefore interreduced alone (_autoreduce), and gives the same reduced basis
as interreducing everything and then dropping.  One cached tracked run,
_tracked_raw, serves both syzygies and reduce_with_expression: the first keeps
its auxiliary part, the second only divides by the whole basis, so the part
led in F stays as _buchberger gives it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Sequence
from weakref import WeakValueDictionary

from ._core import impl as K
from ._core._pure import BITS, DIVMASK, FIELD, LIMIT
from .errors import ResourceCapError, StructuralError, ValidationError

# Generous guard against runaway Groebner runs on adversarial random input.
MAX_BASIS = 8000

Coeff = int | Fraction


def _immutable(self, *_):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _coeff(c) -> tuple[int, int]:
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise ValidationError(f"not a rational coefficient: {c!r}")


class EdgeRing:
    """Polynomial ring on a fixed ordered tuple of edge names, graded with
    every variable in weight 1; earlier variables are larger in the order.

    Interned: the constructor returns the live ring of the same variables, so
    equality is identity; the hash is that of (variables,), computed once."""

    __slots__ = ("variables", "packing", "rank_one", "_vars", "_hash", "__weakref__")
    _live: WeakValueDictionary = WeakValueDictionary()

    def __new__(cls, variables: Sequence[str]):
        variables = tuple(variables)
        self = cls._live.get(variables)
        if self is not None:
            return self
        if len(set(variables)) != len(variables):
            raise ValidationError(f"duplicate variable names: {variables}")
        for v in variables:
            if not isinstance(v, str) or not v:
                raise ValidationError(f"bad variable name: {v!r}")
        n = len(variables)
        self = object.__new__(cls)
        init = partial(object.__setattr__, self)
        init("variables", variables)
        init("_hash", hash((variables,)))
        init("packing", K.packing(*_RING_ORDER, n))
        # polys enter L1 as elements of the rank-1 free module, generator in weight 0
        init("rank_one", FreeModule(self, (0,)))
        init("_vars", {v: self.poly({tuple(int(j == i) for j in range(n)): 1}) for i, v in enumerate(variables)})
        cls._live[variables] = self
        return self

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # unpickling and deepcopy go through the constructor, which interns
        return EdgeRing, (self.variables,)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"EdgeRing(variables={self.variables!r})"

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
        # the constant monomial packs to key 0 and dkey 0
        return GradedPoly(self, ((0, 0, n, d),))

    def var(self, name: str) -> "GradedPoly":
        """The variable's poly, built once with the ring."""
        try:
            return self._vars[name]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown variable {name!r} in ring {self.variables}") from None

    def poly(self, terms: dict) -> "GradedPoly":
        """Build from {exponent tuple: coefficient}."""
        raw = []
        for expo, c in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise ValidationError(f"bad exponent vector {expo} for {self.nvars} variables")
            n, d = _coeff(c)
            raw.append((0, expo, n, d))
        return GradedPoly(self, self.packing.build(raw))


_RING_ORDER = ((0,), 0, 0)


class _Value:
    """What a GradedPoly and a FreeElement share (see the module docstring)."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: tuple):
        self.space = space
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_homogeneous(self) -> bool:
        return len(self.space.packing.weights(self.terms)) <= 1

    def weight(self):
        """Common weight of all terms; None for zero."""
        ws = self.space.packing.weights(self.terms)
        if not ws:
            return None
        if len(ws) > 1:
            raise ValidationError(f"inhomogeneous value {self!r}")
        return ws.pop()

    def _same(self, other) -> tuple:
        """The terms of other, a value of the same kind and space; an int or a
        Fraction is a constant when the space is a ring."""
        if type(other) is type(self) and other.space is self.space:
            return other.terms
        if isinstance(other, (int, Fraction)) and type(self.space) is EdgeRing:
            return self.space.const(other).terms
        raise StructuralError(f"{type(other).__name__} operand outside the space of a {type(self).__name__}")

    def __add__(self, other):
        return type(self)(self.space, K.add(self.terms, self._same(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(self.space, K.sub(self.terms, self._same(other)))

    def __rsub__(self, other):
        return type(self)(self.space, K.sub(self._same(other), self.terms))

    def __neg__(self):
        return type(self)(self.space, K.neg(self.terms))

    def __mul__(self, other):
        """The multiple by an int or a Fraction."""
        if not isinstance(other, (int, Fraction)):
            raise StructuralError(f"cannot multiply a {type(self).__name__} by a {type(other).__name__}")
        n, d = _coeff(other)
        return type(self)(self.space, K.scale(self.terms, n, d))

    __rmul__ = __mul__

    def __eq__(self, other):
        return type(other) is type(self) and self.space is other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, self.terms))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class GradedPoly(_Value):
    """Sparse exact-rational polynomial; terms canonically sorted."""

    __slots__ = ()
    ring = _Value.space

    def __mul__(self, other):
        if type(other) is GradedPoly:
            return GradedPoly(self.ring, K.mul(self.terms, self._same(other)))
        if type(other) is FreeElement:
            return other.__rmul__(self)
        return _Value.__mul__(self, other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValidationError("negative power")
        # the lead has the largest degree, and its k-th power is a term of the result
        top = max(self.ring.packing.weights(self.terms[:1]), default=0)
        if k * top >= LIMIT:
            raise ResourceCapError(f"degree {k * top} does not fit a packed field (limit {LIMIT - 1})")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for _, expo, n, d in self.ring.packing.unpack(self.terms):
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


class FreeModule:
    """Free graded module with one generator per weight entry.

    Interned like EdgeRing: the constructor returns the live module of the
    same ring and weights, so equality is identity; the hash is that of
    (ring, weights), computed once."""

    __slots__ = ("ring", "weights", "packing", "_hash", "__weakref__")
    _live: WeakValueDictionary = WeakValueDictionary()

    def __new__(cls, ring: EdgeRing, weights: Sequence[int]):
        # keyed on the variables, as a key holding the ring would keep it
        # alive through its own rank_one; a live module holds its ring, the
        # one ring of those variables
        if type(weights) is not tuple:
            weights = tuple(weights)
        self = cls._live.get((ring.variables, weights))
        if self is not None:
            return self
        # weights given as other numbers are looked up again as ints
        weights = tuple(map(int, weights))
        self = cls._live.get((ring.variables, weights))
        if self is not None:
            return self
        self = object.__new__(cls)
        init = partial(object.__setattr__, self)
        init("ring", ring)
        init("weights", weights)
        init("_hash", hash((ring, weights)))
        init("packing", K.packing(*self.order(), ring.nvars))
        cls._live[ring.variables, weights] = self
        return self

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return FreeModule, (self.ring, self.weights)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FreeModule(ring={self.ring!r}, weights={self.weights!r})"

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
        return FreeElement(self, (self.packing.unit(i, n, d),))

    def element(self, components: Sequence[GradedPoly]) -> "FreeElement":
        if len(components) != self.rank:
            raise StructuralError(f"expected {self.rank} components")
        terms = []
        for i, p in enumerate(components):
            if p.ring is not self.ring:
                raise StructuralError("component from a different ring")
            terms += self.packing.rebase(p.terms, self.ring.packing, i)
        # keys are distinct across positions, so the sort compares keys only
        return FreeElement(self, tuple(sorted(terms, reverse=True)))


class FreeElement(_Value):
    """Element of a free module; terms carry their generator position."""

    __slots__ = ()
    module = _Value.space

    @property
    def ring(self) -> EdgeRing:
        return self.module.ring

    def component(self, i: int) -> GradedPoly:
        """Coordinate i, a ring poly: each of its terms loses base[i] from its
        key and i from its dkey, which keeps their order."""
        base = self.module.packing.base
        return GradedPoly(self.ring, tuple((k - base[i], d - i, n, dn) for k, d, n, dn in self.terms if d & FIELD == i))

    def components(self) -> tuple[GradedPoly, ...]:
        return tuple(self.component(i) for i in range(self.module.rank))

    def __rmul__(self, other):
        """The ring action of a poly, or the multiple by an int or a Fraction."""
        if type(other) is GradedPoly:
            if other.ring is not self.ring:
                raise StructuralError("scalar from a different ring")
            return FreeElement(self.module, K.mul(other.terms, self.terms))
        return _Value.__mul__(self, other)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"[g{i}]*({c})" for i, c in enumerate(self.components()) if not c.is_zero()
        )


# ---------------------------------------------------------------------------
# Groebner machinery on packed terms


def _monic(f: tuple) -> tuple:
    _, _, n, d = f[0]
    if n == d:  # coefficients are normalized, so the lead is 1/1
        return f
    return K.scale(f, d, n)


def _buchberger(items: Sequence[tuple], pk) -> list:
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
    reductions in the construction of Groebner bases", 1979) skip pairs; only
    elements led in the same position pair up, so by_pos lists each
    position's elements in basis order, and both scans read only that list.
    The product criterion runs when a pair is made: a pair whose leading
    monomials are coprime never enters the heap.  It holds only when both
    elements lie in a single position, where the pair is the polynomial case
    times one basis vector; it is not valid for elements spread over several
    positions.  Such an S-polynomial reduces to zero modulo the two elements
    alone (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, Ch. 2
    Sec. 10), whatever else is pending, so the pair counts as treated at once.
    The chain criterion runs when a pair is popped: it skips (i, j) when some
    k leads in their position, lt_k divides their lcm, and both (i, k) and
    (j, k) are treated.  A lead in another position never divides the lcm,
    whose position field it does not share.  A pair skipped by either
    criterion is treated.
    """
    wdeg = pk.wdeg
    basis = [_monic(f) for f in items if f]
    if len(basis) > MAX_BASIS:
        raise ResourceCapError(f"Groebner input has {len(basis)} elements, over {MAX_BASIS}")
    sugar = [max(wdeg(t[0]) for t in f) for f in basis]
    leads = [f[0] for f in basis]
    pos = [lt[1] & FIELD for lt in leads]
    one_pos = [all(t[1] & FIELD == p for t in f) for f, p in zip(basis, pos)]
    support = [pk.support(lt[1]) for lt in leads]
    by_pos: dict = {}
    heap: list = []
    treated: set = set()

    def push_pairs(j: int):
        ltj = leads[j]
        same = by_pos.setdefault(pos[j], [])
        for i in same:
            if one_pos[i] and one_pos[j] and not support[i] & support[j]:
                treated.add((i, j))
                continue
            lti = leads[i]
            lcm_key, lcm_dkey = pk.lcm(lti, ltj)
            pair_sugar = max(sugar[i] + wdeg(lcm_key - lti[0]), sugar[j] + wdeg(lcm_key - ltj[0]))
            heapq.heappush(heap, (pair_sugar, lcm_key, i, j, lcm_dkey))
        same.append(j)

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        pair_sugar, lcm_key, i, j, lcm_dkey = heapq.heappop(heap)
        treated.add((i, j))
        skip = False
        for k in by_pos[pos[i]]:
            if (
                not (lcm_dkey - leads[k][1]) & DIVMASK
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
        r, _ = K.reduce(s, basis)
        if r:
            r = _monic(r)
            basis.append(r)
            sugar.append(pair_sugar)
            leads.append(r[0])
            pos.append(r[0][1] & FIELD)
            one_pos.append(all(t[1] & FIELD == pos[-1] for t in r))
            support.append(pk.support(r[0][1]))
            if len(basis) > MAX_BASIS:
                raise ResourceCapError(f"Groebner basis exceeded {MAX_BASIS} elements")
            push_pairs(len(basis) - 1)
    return basis


def _autoreduce(basis: Iterable[tuple]) -> tuple:
    """The reduced Groebner basis from a packed Groebner basis, largest lead first.

    Elements are taken in ascending lead order; one whose lead a kept lead
    divides is dropped, and each kept one is reduced against the smaller ones
    already kept and reduced.  Every tail term lies below its own lead, so no
    larger lead divides it, and the result is the unique reduced basis.

    For the same reason the elements whose leads lie below all the others'
    reduce among themselves alone, so the part that an elimination or
    syzygies keeps is interreduced without the part it drops (see the module
    docstring).
    """
    out = []
    for g in sorted(basis, key=lambda f: f[0][0]):
        d = g[0][1]
        if any(not (d - h[0][1]) & DIVMASK for h in out):
            continue
        r, _ = K.reduce(g, out)
        out.append(_monic(r))
    out.reverse()
    return tuple(out)


@lru_cache(maxsize=65536)
def _groebner_raw(items: tuple, nelim: int, nvars: int) -> tuple:
    """The reduced Groebner basis of packed items on nvars variables with an
    elimination block of nelim, in the order they are packed in.

    _buchberger reads only the shape of the order, so the run goes on the
    ring-shape Packing, and the cache key is the packed items and the shape:
    items packed alike under two orders, say weights that differ by a uniform
    shift or only at a position no item uses, share one entry."""
    return _autoreduce(_buchberger(items, K.packing((0,), nelim, 0, nvars))) if items else ()


@lru_cache(maxsize=65536)
def _tracked_raw(items: tuple, rank: int, order: tuple, nvars: int, modulo: tuple) -> tuple:
    """A Groebner basis of {g_i + eps_i} and the modulo elements in F + R^m,
    as (the reduced basis of its elements led in an auxiliary position, its
    elements led in F as _buchberger gives them, the Packing of the product
    order), so the cache entry holds that Packing for its readers.

    Only the m items carry an auxiliary basis vector eps_i; the modulo
    elements enter with no auxiliary part, so their cofactors are never
    carried.  The order puts F above the auxiliary positions, so the elements
    with a nonzero F-part are a Groebner basis of the span of items and
    modulo, each carrying its expression in the items, and the elements
    supported purely on the auxiliary positions are a basis of
    {a : sum a_i g_i lies in the span of modulo} (the module quotient that
    Singular and Macaulay2 call modulo), which interreduces alone (see
    _autoreduce).  syzygies reads the first part; reduce_with_expression
    divides by both, and full division by any Groebner basis leaves the same
    remainder (Cox, Little and O'Shea, Ch. 2 Sec. 6, Prop. 1), so neither
    reader reduces the second.  Items and modulo elements are packed in
    order, the basis in the product order.
    """
    weights, nelim, _ = order
    pk = K.packing(*order, nvars)
    aux = []
    for g in items:
        w = pk.weights(g)
        aux.append(w.pop() if len(w) == 1 else 0)
    ppk = K.packing(tuple(weights) + tuple(aux), nelim, rank, nvars)
    embedded = [ppk.rebase(g, pk) + (ppk.unit(rank + i),) for i, g in enumerate(items)]
    embedded += [ppk.rebase(g, pk) for g in modulo]
    basis = _buchberger(embedded, ppk)
    aux = _autoreduce(v for v in basis if v[0][1] & FIELD >= rank)
    return aux, tuple(v for v in basis if v[0][1] & FIELD < rank), ppk


# ---------------------------------------------------------------------------
# Public operations


def _coerce_inputs(gens: Sequence, module: FreeModule | None = None):
    """(kind, space, free module, raw term tuples) of values of one kind and
    space.  A ring's polys live in its rank-1 free module, whose order is the
    ring's; empty input takes the free module given."""
    gens = list(gens)
    if not gens:
        if module is None:
            raise StructuralError("empty input needs an explicit module")
        return FreeElement, module, module, []
    first = gens[0]
    if not isinstance(first, _Value) or any(type(g) is not type(first) or g.space is not first.space for g in gens):
        raise StructuralError("input is not values of one kind in one space")
    kind, space = type(first), first.space
    mod = space.rank_one if kind is GradedPoly else space
    if module is not None and module is not mod:
        raise StructuralError("elements do not live in the requested module")
    return kind, space, mod, [g.terms for g in gens]


def groebner(gens: Sequence, module: FreeModule | None = None):
    """Reduced Groebner basis of the submodule (or ideal) generated by gens.

    Returns values of the same kind as the input (polys in, polys out).  The
    cache key is the packed items and the shape of the order (_groebner_raw):
    packing drops a uniform weight shift, so a module and its shifts M(s)
    share one run.
    """
    kind, space, mod, items = _coerce_inputs(gens, module)
    gb = _groebner_raw(tuple(t for t in items if t), mod.order()[1], mod.ring.nvars)
    return tuple(kind(space, g) for g in gb)


def normal_form(f, gb: Sequence):
    """Remainder of f on division by gb; canonical when gb is a Groebner basis."""
    kind, space, _, items = _coerce_inputs([f, *gb])
    r, _ = K.reduce(f.terms, [g for g in items[1:] if g])
    return kind(space, r)


def reduce_with_expression(f, gens: Sequence, modulo: Sequence = ()):
    """Normal form of f against the submodule generated by gens and modulo,
    with cofactors for gens alone: f - remainder - sum cof_i * gens_i lies in
    the submodule generated by modulo, and is zero when modulo is empty.

    Both are read off f's normal form modulo the tracked basis, both parts
    of the one cached _tracked_raw run that syzygies also reads: its F-part
    is the remainder, and minus its auxiliary part the cofactors.  Every
    Groebner basis gives that normal form, so the part led in F need not be
    reduced.

    With no gens, f is still reduced against modulo and the cofactors are ().
    """
    gens = list(gens)
    kind, space, mod, items = _coerce_inputs([f, *gens, *modulo])
    if len(items) == 1:
        return f, ()
    k = len(gens)
    rank = mod.rank
    aux, rest, ppk = _tracked_raw(tuple(items[1 : k + 1]), rank, mod.order(), mod.ring.nvars, tuple(items[k + 1 :]))
    pk = mod.packing
    r, _ = K.reduce(ppk.rebase(f.terms, pk), aux + rest)
    # F's positions lead the product order, so the remainder's F-part comes first
    split = next((j for j, t in enumerate(r) if t[1] & FIELD >= rank), len(r))
    rem = pk.rebase(r[:split], ppk)
    cof_terms = [[] for _ in range(k)]
    for key, d, n, dn in r[split:]:
        p = d & FIELD
        cof_terms[p - rank].append((key - ppk.base[p], d - p, -n, dn))
    cofs = tuple(GradedPoly(mod.ring, tuple(c)) for c in cof_terms)
    return kind(space, rem), cofs


def syzygies(gens: Sequence, module: FreeModule | None = None, modulo: Sequence = ()):
    """Reduced basis of the relations {s : sum s_i gens_i lies in the span of
    modulo}; with modulo empty, the syzygies {s : sum s_i gens_i = 0}.

    The result lives in the free module indexed by gens, with generator
    weights matching the input weights (0 for a zero or inhomogeneous
    generator), and is its reduced Groebner basis, largest lead first.  The
    modulo elements live in the same module as gens and carry no cofactors.

    It is the auxiliary part of the one cached tracked run, _tracked_raw,
    that reduce_with_expression also reads: F's positions dominate, so that
    part is interreduced alone and the elements led in F are never reduced.
    Each kept element moves down by rank positions, one delta for every
    auxiliary position.
    """
    gens = list(gens)
    _, _, mod, items = _coerce_inputs(gens + list(modulo), module)
    k = len(gens)
    if not k:
        return ()
    rank = mod.rank
    aux, _, ppk = _tracked_raw(tuple(items[:k]), rank, mod.order(), mod.ring.nvars, tuple(items[k:]))
    # the output weights are the k auxiliary ones, so every auxiliary
    # position moves by one delta and the order is kept
    smod = FreeModule(mod.ring, ppk.args[0][-k:])
    return tuple(FreeElement(smod, smod.packing.rebase(v, ppk, -rank)) for v in aux)


# ---------------------------------------------------------------------------
# The contraction and variable elimination


def contract(x, dst, e: str, e_prime: str):
    """Push x along the contraction e' -> e, the ring map that sends e' to e
    and fixes every other variable, into dst: x's ring less e', in order,
    for a poly, or the free module of x's weights over that ring for an
    element.  The terms move on their packed fields (Packing.contract).

    Raises ValidationError unless e and e' are distinct variables of x's
    ring, and StructuralError when dst is not that space."""
    ring = x.ring
    if e == e_prime:
        raise ValidationError("split edges must be distinct")
    i, j = ring.index(e), ring.index(e_prime)
    names = ring.variables[:j] + ring.variables[j + 1 :]
    if type(x) is GradedPoly:
        ok = type(dst) is EdgeRing and dst.variables == names
    else:
        ok = type(dst) is FreeModule and dst.ring.variables == names and dst.weights == x.module.weights
    if not ok:
        raise StructuralError(f"contracting {e_prime!r} into {e!r} leaves the variables {names}, not the space {dst!r}")
    return type(x)(dst, dst.packing.contract(x.terms, i, j))


_ELIM_ORDER = ((0,), 1, 0)


def _t_free(items: Iterable[tuple], epk) -> tuple:
    """The reduced basis, in the ring order, of the ideal of the lifted items
    intersected with the ring.

    By the elimination theorem (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, Ch. 3 Sec. 1) the t-free elements of a Groebner basis in the
    elimination order are a Groebner basis of the elimination ideal.  t
    dominates that order, so an element with a t-free lead (field 1 of its
    dkey zero) is t-free, and it leads below every element it drops: the
    t-free part is interreduced alone (see _autoreduce), and the rest of
    _buchberger's basis is never reduced.  The elimination order restricted
    to t-free monomials is the ring order, so that part is already the ring's
    reduced basis; a right shift by one field takes t back out
    (Packing.lower).  epk is the elimination order's Packing.
    """
    basis = _buchberger(items, epk)
    return tuple(epk.lower(g) for g in _autoreduce(g for g in basis if not g[0][1] >> BITS & FIELD))


def _contains_unit(gb: tuple) -> bool:
    # the constant monomial has dkey 0
    return any(g[0][1] == 0 for g in gb)


def radical_member(f: GradedPoly, ideal_gens: Sequence[GradedPoly]) -> bool:
    """True iff some power of f lies in the ideal, that is, iff the saturation
    I : f^infinity is the unit ideal (read off _saturate_raw)."""
    if not isinstance(f, GradedPoly):
        raise StructuralError(f"radical membership of a {type(f).__name__}, not a poly")
    ideal = _ideal_terms(ideal_gens, f.ring)
    return _contains_unit(_saturate_raw(ideal, f.terms, f.ring.nvars))


@lru_cache(maxsize=65536)
def _saturate_raw(ideal: tuple, h: tuple, nvars: int) -> tuple:
    """(I : h^infinity) = (I + (1 - t*h)) intersected with the ring, as a
    reduced basis; the unit ideal for h = 0.  The auxiliary variable t comes
    first and dominates the elimination order (Rabinowitsch trick)."""
    if not h:
        return (((0, 0, 1, 1),),)
    epk = K.packing(*_ELIM_ORDER, nvars + 1)
    items = [epk.lift(g) for g in ideal]
    items.append(K.sub(((0, 0, 1, 1),), epk.lift(h, 1)))
    return _t_free(items, epk)


@lru_cache(maxsize=65536)
def _intersect_raw(a: tuple, b: tuple, nvars: int) -> tuple:
    """I and J intersected = (t*I + (1 - t)*J) intersected with the ring."""
    if not a or not b:
        return ()
    epk = K.packing(*_ELIM_ORDER, nvars + 1)
    items = [epk.lift(g, 1) for g in a]
    items += [K.sub(epk.lift(g), epk.lift(g, 1)) for g in b]
    return _t_free(items, epk)


def _ideal_terms(gens: Sequence, ring: EdgeRing) -> tuple:
    """The nonzero raw terms of gens, which must be polys of ring."""
    kind, _, _, items = _coerce_inputs(gens, ring.rank_one)
    if items and kind is not GradedPoly:
        raise StructuralError("input is not values of one kind in one space")
    return tuple(t for t in items if t)


def saturate_by_ideal(ideal_gens: Sequence[GradedPoly], by: Sequence[GradedPoly], ring: EdgeRing) -> tuple:
    """Saturation (I : J^infinity) = intersection of the single-generator
    saturations I : h^infinity over J's generators h, as a reduced basis.

    Two standard facts (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, Ch. 4 Sec. 4) cut the fold short.  A single saturation whose
    basis is I's given terms ends it with that basis: I <= I : J^infinity <=
    I : h^infinity = I.  And the unit ideal meets any ideal X in X, so a meet
    with (1) on either side is not computed.  A reduced basis is unique, so
    neither changes the result.
    """
    ideal = _ideal_terms(ideal_gens, ring)
    hs = _ideal_terms(by, ring)
    if not hs:
        return (ring.one(),)
    unit = (ring.one().terms,)
    acc = None
    for h in hs:
        part = _saturate_raw(ideal, h, ring.nvars)
        if part == ideal:
            acc = part
            break
        if acc is None or acc == unit:
            acc = part
        elif part != unit:
            acc = _intersect_raw(acc, part, ring.nvars)
    return tuple(GradedPoly(ring, g) for g in acc)


def intersect_ideals(a: Sequence[GradedPoly], b: Sequence[GradedPoly], ring: EdgeRing) -> tuple:
    raw = _intersect_raw(_ideal_terms(a, ring), _ideal_terms(b, ring), ring.nvars)
    return tuple(GradedPoly(ring, g) for g in raw)


def ideal_contains_one(gens: Sequence[GradedPoly], ring: EdgeRing) -> bool:
    gb = _groebner_raw(_ideal_terms(gens, ring), _RING_ORDER[1], ring.nvars)
    return _contains_unit(gb)


# ---------------------------------------------------------------------------
# Hilbert-Poincare numerators of monomial ideals


def hilbert_numerator(gens: Iterable[tuple]) -> dict:
    """N(t) as {degree: nonzero coefficient}, where HS(R/I) = N(t) / (1 - t)^n
    for the monomial ideal I of the exponent tuples gens; {} for the unit ideal.

    Bigatti's pivot recursion (Bigatti, "Computation of Hilbert-Poincare
    series", JPAA 119 (1997)): N(I) = N(I + (p)) + t^deg(p) N(I : p).
    Pairwise coprime generators give the product of the (1 - t^deg m).
    Otherwise p = x_i^e, x_i in most generators and e the lower median of its
    nonzero exponents there.  Two or more generators reach e, so I + (p),
    which trades them for p, and I : p, which lowers them, both have a smaller
    sum of generator degrees; the upper median loops on {x*y, x^2}.  Each
    branch adds with sign +, so they go on a work list, not the call stack.
    """
    out: dict = {}
    work = [(list(set(gens)), 0)]
    while work:
        gens, shift = work.pop()
        # one generator or none is coprime as it stands
        counts = [sum(1 for g in gens if g[i]) for i in range(len(gens[0]))] if len(gens) > 1 else [0]
        top = max(counts)
        if top <= 1:
            poly = {shift: 1}
            for d in map(sum, gens):
                for k, c in list(poly.items()):
                    poly[k + d] = poly.get(k + d, 0) - c
            for k, c in poly.items():
                out[k] = out.get(k, 0) + c
            continue
        i = counts.index(top)
        e = sorted(g[i] for g in gens if g[i])[(top - 1) // 2]
        work.append(([g for g in gens if g[i] < e] + [tuple(e if j == i else 0 for j in range(len(counts)))], shift))
        work.append((list({g[:i] + (max(g[i] - e, 0),) + g[i + 1 :] for g in gens}), shift + e))
    return {k: c for k, c in sorted(out.items()) if c}
