"""Groebner, normal form, syzygy, and radical-membership behavior."""

import operator
import pickle
import random
import time
from collections import deque
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations_with_replacement
from math import comb
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel import cmp_terms

from tamemod._core import _pure
from tamemod._core._pure import BITS, DIVMASK, FIELD
from tamemod.errors import ResourceCapError, StructuralError, ValidationError
from tamemod.exactalg import (
    _ELIM_ORDER,
    _RING_ORDER,
    EdgeRing,
    FreeElement,
    FreeModule,
    GradedPoly,
    K,
    _autoreduce,
    _buchberger,
    _groebner_raw,
    _intersect_raw,
    _lift_terms,
    _monic,
    _saturate_raw,
    _tracked_raw,
    _tracked_split,
    groebner,
    hilbert_numerator,
    ideal_contains_one,
    intersect_ideals,
    normal_form,
    radical_member,
    reduce_with_expression,
    saturate_by_ideal,
    substitute,
    syzygies,
)
from tamemod.workspace import free_to_json, poly_to_json


def rand_poly(rng, ring, maxdeg=3, nterms=4):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        expo = tuple(rng.randint(0, maxdeg) for _ in ring.variables)
        terms[expo] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return ring.poly(terms)


# -- groebner ---------------------------------------------------------------


def test_groebner_already_reduced(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert groebner([x - y]) == (x - y,)


def test_groebner_monomial_ideal(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert set(groebner([x, y])) == {x, y}


def test_groebner_collapses_redundant_generator(ring_xy):
    # x^2 - y^2 = (x + y)(x - y) reduces to zero against x - y
    x, y = ring_xy.var("x"), ring_xy.var("y")
    gb = groebner([x * x - y * y, x - y])
    assert gb == (x - y,)
    assert normal_form(x * x - y * y, gb).is_zero()


def test_groebner_mixed_modules_rejected(ring_xy):
    other = EdgeRing(("x", "z"))
    with pytest.raises(StructuralError):
        groebner([ring_xy.var("x"), other.var("z")])


def test_groebner_order_independent(ring_xy):
    rng = random.Random(5)
    for _ in range(25):
        gens = [rand_poly(rng, ring_xy) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert groebner(gens) == groebner(shuffled)


# -- normal form --------------------------------------------------------------


def test_normal_form_membership(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert normal_form(x - y, groebner([x - y])).is_zero()


def test_normal_form_disjoint(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert normal_form(x, groebner([y])) == x


def test_normal_form_substitutes(ring_xy):
    # against {x - y} every x becomes y
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert normal_form(x * x, groebner([x - y])) == y * y


def test_normal_form_idempotent(ring_xy):
    rng = random.Random(11)
    for _ in range(30):
        gb = groebner([g for g in (rand_poly(rng, ring_xy), rand_poly(rng, ring_xy)) if not g.is_zero()])
        f = rand_poly(rng, ring_xy)
        once = normal_form(f, gb)
        assert normal_form(once, gb) == once


def test_normal_form_zero_iff_member(ring_xy):
    rng = random.Random(13)
    x, y = ring_xy.var("x"), ring_xy.var("y")
    gens = [x * x - y, x * y - y]
    gb = groebner(gens)
    for _ in range(20):
        f = rand_poly(rng, ring_xy)
        rem, cofs = reduce_with_expression(f, gens)
        assert (rem.is_zero()) == (normal_form(f, gb).is_zero())
        # the expression is exact in either case
        total = rem
        for c, g in zip(cofs, gens):
            total = total + c * g
        assert total == f


# -- syzygies -----------------------------------------------------------------


def test_syzygy_of_nonzerodivisor():
    R = EdgeRing(("x",))
    assert syzygies([R.var("x")]) == ()


def test_koszul_syzygy(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    (s,) = syzygies([x, y])
    assert s.component(0) * x + s.component(1) * y == ring_xy.zero()
    # the Koszul relation (y, -x) spans the same module
    koszul = s.module.element([y, -x])
    assert normal_form(koszul, groebner([s], module=s.module)).is_zero()


def test_syzygies_evaluate_to_zero(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    gens = [x - y, x + y]
    syz = syzygies(gens)
    assert syz
    for s in syz:
        total = ring_xy.zero()
        for i, g in enumerate(gens):
            total = total + s.component(i) * g
        assert total.is_zero()


def test_syzygies_random_exactness(ring_xy):
    rng = random.Random(17)
    for _ in range(15):
        gens = [g for g in (rand_poly(rng, ring_xy) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        for s in syzygies(gens):
            total = ring_xy.zero()
            for i, g in enumerate(gens):
                total = total + s.component(i) * g
            assert total.is_zero()


# -- radical membership ---------------------------------------------------------


def test_radical_square(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert radical_member(x - y, [(x - y) * (x - y)])


def test_radical_disjoint_variable(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert not radical_member(x, [y])


def test_radical_with_unit_cofactor():
    # (x + x^2)^2 = (x^2 + x^3)(1 + x), so x + x^2 is in the radical;
    # x itself is not: it misses the component at x = -1.
    R = EdgeRing(("x",))
    x = R.var("x")
    ideal = [x * x + x * x * x]
    assert radical_member(x + x * x, ideal)
    assert not radical_member(x, ideal)


def test_radical_zero_polynomial(ring_xy):
    assert radical_member(ring_xy.zero(), [ring_xy.var("x")])


# -- saturation / intersection ---------------------------------------------------


def test_saturate_strips_powers(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert saturate_by_ideal([x * x * y], [x], ring_xy) == (y,)


def test_intersection_of_coordinate_ideals(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert intersect_ideals([x], [y], ring_xy) == (x * y,)


def test_saturate_by_whole_ideal(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    # ((x*y) : (x, y)^inf) = (1): both components die
    out = saturate_by_ideal([x * y], [x, y], ring_xy)
    # V(xy) = union of the two axes; saturating by (x,y) removes components
    # contained in V(x,y) = origin only, so the ideal is unchanged
    assert out == (x * y,)


def test_saturate_by_zero_ideal(ring_xy):
    out = saturate_by_ideal([ring_xy.var("x")], [], ring_xy)
    assert out == (ring_xy.one(),)


def test_elimination_outputs_are_reduced_bases():
    # the t-free part of the elimination basis is already the reduced basis
    # in the ring order: a Groebner pass leaves it unchanged
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    ideals = [
        [x * y],
        [x * x * y, y * z],
        [x - y, y * z],
        [x * y - z * z, x * z],
        [x * x - y * y, x * y * z],
        [x * y - y * z, x * z - z * z],
    ]
    hs = [x, y - z, x + y + z]
    for a in ideals:
        raw_a = tuple(g.terms for g in a)
        for h in hs:
            out = _saturate_raw(raw_a, h.terms, R.nvars)
            assert _groebner_raw(out, _RING_ORDER, R.nvars) == out
        for b in ideals:
            out = _intersect_raw(raw_a, tuple(g.terms for g in b), R.nvars)
            assert _groebner_raw(out, _RING_ORDER, R.nvars) == out


def _lift_by_tuples(terms, nvars, tdeg=0):
    """t^tdeg times a ring poly, packed in the elimination order through its
    exponent tuples."""
    src = K.packing(*_RING_ORDER, nvars)
    return K.packing(*_ELIM_ORDER, nvars + 1).pack([(0, (tdeg,) + e, n, d) for _, e, n, d in src.unpack(terms)])


def _elimination_route(items, nvars):
    """The elimination route _saturate_raw and _intersect_raw once took, kept
    as their oracle: the full reduced basis in the elimination order, of
    which the t-free elements go back to the ring through exponent tuples."""
    gb = _groebner_raw(tuple(t for t in items if t), _ELIM_ORDER, nvars + 1)
    src, dst = K.packing(*_ELIM_ORDER, nvars + 1), K.packing(*_RING_ORDER, nvars)
    return tuple(
        dst.pack([(0, e[1:], n, d) for _, e, n, d in src.unpack(g)])
        for g in gb
        if not any(t[1] >> BITS & FIELD for t in g)
    )


def _saturate_route(ideal, h, nvars):
    if not h:
        return (((0, 0, 1, 1),),)
    items = [_lift_by_tuples(g, nvars) for g in ideal]
    return _elimination_route(items + [K.sub(((0, 0, 1, 1),), _lift_by_tuples(h, nvars, 1))], nvars)


def _intersect_route(a, b, nvars):
    if not a or not b:
        return ()
    items = [_lift_by_tuples(g, nvars, 1) for g in a]
    items += [K.sub(_lift_by_tuples(g, nvars), _lift_by_tuples(g, nvars, 1)) for g in b]
    return _elimination_route(items, nvars)


def _check_elimination(a, b, h, nvars):
    for g in a + b + (h,):
        for tdeg in (0, 1):
            assert _lift_terms(g, nvars, tdeg) == _lift_by_tuples(g, nvars, tdeg)
    assert _saturate_raw(a, h, nvars) == _saturate_route(a, h, nvars)
    assert _intersect_raw(a, b, nvars) == _intersect_route(a, b, nvars)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(
            st.just(n),
            _raw_elements(n, [0], _RING_ORDER, 2),
            _raw_elements(n, [0], _RING_ORDER, 2),
            _raw_element(n, [0], _RING_ORDER),
        )
    )
)
def test_elimination_matches_the_full_route(case):
    # interreducing only the t-free part, lifted and lowered by shifts, gives
    # the t-free part of the full reduced basis on inhomogeneous input
    nvars, a, b, h = case
    _check_elimination(a, b, h, nvars)


def test_elimination_matches_the_full_route_on_fixed_ideals():
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    ideals = [
        [x * y],
        [x * x * y, y * z],
        [x - y, y * z],
        [x * y - z * z, x * z],
        [x * x - y * y, x * y * z],
        [x * y - y * z, x * z - z * z],
    ]
    for a in ideals:
        for b in ideals:
            for h in (x, y - z, x + y + z):
                _check_elimination(tuple(g.terms for g in a), tuple(g.terms for g in b), h.terms, R.nvars)


def test_shifted_lift_keeps_the_field_bound():
    # t * x^32767 has degree 32768, which does not fit a packed field; with
    # no t the lift only moves the fields, and the saturation goes through
    R = EdgeRing(("x", "y"))
    y = R.var("y")
    big = R.poly({(32767, 0): 1})
    _clear_l1_caches()
    with pytest.raises(ResourceCapError):
        saturate_by_ideal([y], [big], R)
    with pytest.raises(ResourceCapError):
        intersect_ideals([big], [y], R)
    assert saturate_by_ideal([big], [y], R) == (big,)


# -- pair criteria and selection ------------------------------------------------


def _oracle_gb(items, order, nvars):
    """Buchberger with no criteria on the packed kernel: every same-position
    pair, first in first out, then _autoreduce."""
    pk = K.packing(*order, nvars)
    basis = [_monic(f) for f in items if f]
    pairs = deque((i, j) for j in range(len(basis)) for i in range(j) if _pos(basis[i]) == _pos(basis[j]))
    while pairs:
        i, j = pairs.popleft()
        lcm = pk.lcm(basis[i][0], basis[j][0])
        r, _ = K.reduce(K.spoly(basis[i], basis[j], lcm), basis)
        if r:
            basis.append(_monic(r))
            n = len(basis) - 1
            pairs.extend((i, n) for i in range(n) if _pos(basis[i]) == _pos(r))
    return _autoreduce(basis)


def _pos(f):
    """Position of a packed poly's leading term."""
    return f[0][1] & FIELD


def _raw_element(nvars, positions, order):
    """Strategy: a nonzero canonical element with small terms in the given
    positions, packed in the order on nvars variables."""
    term = st.tuples(
        st.sampled_from(positions),
        st.tuples(*[st.integers(0, 2)] * nvars),
        st.integers(-3, 3).filter(bool),
        st.just(1),
    )
    return st.lists(term, min_size=1, max_size=3).map(K.packing(*order, nvars).build).filter(bool)


def _raw_elements(nvars, positions, order, max_size=3):
    return st.lists(_raw_element(nvars, positions, order), min_size=1, max_size=max_size).map(tuple)


_MODULE_ORDER = ((0, 1), 0, 0)
# unequal weights, so leads land in every position and each position's
# elements interleave with the others' in basis order
_RANK3_ORDER = ((1, 0, 2), 0, 0)

_oracle_settings = settings(max_examples=25, deadline=None, derandomize=True)


@_oracle_settings
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), _raw_elements(n, [0], _RING_ORDER))))
def test_criteria_match_oracle_ideals(case):
    n, items = case
    assert _groebner_raw(items, _RING_ORDER, n) == _oracle_gb(items, _RING_ORDER, n)


@_oracle_settings
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(st.just(n), _raw_elements(n, [0], _RING_ORDER, 2), _raw_element(n, [0], _RING_ORDER))
    )
)
def test_criteria_match_oracle_rabinowitsch(case):
    # I + (1 - t*h) under the elimination order: inhomogeneous input
    nvars, ideal, h = case
    epk = K.packing(*_ELIM_ORDER, nvars + 1)
    th = K.mul(epk.pack(((0, (1,) + (0,) * nvars, 1, 1),)), _lift_terms(h, nvars))
    assert th == _lift_terms(h, nvars, 1)
    one = epk.pack(((0, (0,) * (nvars + 1), 1, 1),))
    items = tuple(_lift_terms(g, nvars) for g in ideal) + (K.sub(one, th),)
    assert _groebner_raw(items, _ELIM_ORDER, nvars + 1) == _oracle_gb(items, _ELIM_ORDER, nvars + 1)


def _rabinowitsch_member(f, ideal_gens):
    """The elimination route radical_member once took, kept as its oracle:
    f is in the radical iff the elimination basis of I + (1 - t*f), t first
    and dominant, holds a constant."""
    nvars = f.ring.nvars
    if f.is_zero():
        return True
    items = [_lift_terms(g.terms, nvars) for g in ideal_gens if not g.is_zero()]
    items.append(K.sub(((0, 0, 1, 1),), _lift_terms(f.terms, nvars, 1)))
    gb = _groebner_raw(tuple(t for t in items if t), _ELIM_ORDER, nvars + 1)
    return any(g[0][1] == 0 for g in gb)


def _radical_case(nvars, ideal, h, kind):
    """(f, gens) over x, y: f a random poly, a multiple of gens[0] or zero."""
    R = EdgeRing(("x", "y")[:nvars])
    gens = [GradedPoly(R, g) for g in ideal]
    f = {"random": GradedPoly(R, h), "multiple": gens[0] * GradedPoly(R, h), "zero": R.zero()}[kind]
    return f, gens


_R_XY = EdgeRing(("x", "y"))
_x, _y, _one = _R_XY.var("x"), _R_XY.var("y"), _R_XY.one()


@_oracle_settings
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(
            _raw_elements(n, [0], _RING_ORDER, 2),
            _raw_element(n, [0], _RING_ORDER),
            st.sampled_from(["random", "multiple", "zero"]),
        ).map(lambda c: _radical_case(n, *c))
    )
)
@example((_R_XY.zero(), [_x]))
@example((_R_XY.zero(), []))
@example((_x, [_one]))
@example((_x * _y + _one, [_x, _one]))
@example((_x - _y, [(_x - _y) ** 2]))
@example((_x + _x**2, [_x**2 + _x**3]))
@example((_x, [_x**2 + _x**3]))
@example((_x, [_y]))
@example((_x, []))
def test_radical_member_matches_the_elimination_route(case):
    # zero, unit ideals, members and non-members, by the explicit examples
    f, gens = case
    assert radical_member(f, gens) == _rabinowitsch_member(f, gens)


# x*e0 and y^2*e0 + e1 over {x, y}
_COPRIME_PAIR = tuple(K.packing(*_MODULE_ORDER, 2).build(t) for t in ([(0, (1, 0), 1, 1)], [(0, (0, 2), 1, 1), (1, (0, 0), 1, 1)]))


_MODULE_CASES = st.sampled_from([([0, 1], _MODULE_ORDER, 4), ([0, 1, 2], _RANK3_ORDER, 5)]).flatmap(
    lambda c: st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.just(c[1]), _raw_elements(n, c[0], c[1], c[2]))
    )
)


@_oracle_settings
@given(_MODULE_CASES)
@example((2, _MODULE_ORDER, _COPRIME_PAIR))
def test_criteria_match_oracle_rank2(case):
    # random positions mix elements in one position with elements in several;
    # the example's coprime pair x*e0, y^2*e0 + e1 has S-polynomial -x*e1,
    # which is not zero modulo the pair
    n, order, items = case
    assert _groebner_raw(items, order, n) == _oracle_gb(items, order, n)


def _tracked_oracle(items, rank, order, nvars, modulo):
    """_oracle_gb of the items, each with its auxiliary unit, and the modulo
    elements in _tracked_raw's product order; the input goes through exponent
    tuples, not through rebase."""
    porder = _tracked_raw(items, rank, order, nvars, modulo)[1]
    pk, ppk = K.packing(*order, nvars), K.packing(*porder, nvars)
    zero = (0,) * nvars
    embedded = [ppk.pack(pk.unpack(g) + ((rank + i, zero, 1, 1),)) for i, g in enumerate(items)]
    return _oracle_gb(embedded + [ppk.pack(pk.unpack(g)) for g in modulo], porder, nvars)


# (rank, order, items, modulo) over two variables, with and without modulo
_TRACKED_CASES = st.sampled_from(
    [(1, [0], _RING_ORDER), (2, [0, 1], _MODULE_ORDER), (3, [0, 1, 2], _RANK3_ORDER)]
).flatmap(
    lambda c: st.tuples(
        st.just(c[0]),
        st.just(c[2]),
        _raw_elements(2, c[1], c[2]),
        st.one_of(st.just(()), _raw_elements(2, c[1], c[2], 2)),
    )
)


@_oracle_settings
@given(_TRACKED_CASES)
def test_criteria_match_oracle_tracked(case):
    # the modulo elements enter with no auxiliary position
    rank, order, items, modulo = case
    basis, _ = _tracked_raw(items, rank, order, 2, modulo)
    assert _autoreduce(basis) == _tracked_oracle(items, rank, order, 2, modulo)
    assert all(t[1] & FIELD < rank + len(items) for v in basis for t in v)


def _reference_autoreduce_below(basis, below):
    """_autoreduce as it was when it took a lowest part below, already
    reduced, and gave the reduced basis of below and basis together."""
    out = list(reversed(below))
    for g in sorted(basis, key=lambda f: f[0][0]):
        d = g[0][1]
        if any(not (d - h[0][1]) & DIVMASK for h in out):
            continue
        r, _ = K.reduce(g, out)
        out.append(_monic(r))
    out.reverse()
    return tuple(out)


def _reference_reduce_with_expression(f, gens, modulo):
    """reduce_with_expression as it was when it divided by the reduced
    tracked basis: the part led in F interreduced on top of the reduced
    auxiliary part."""
    mod = f.module
    rank, k = mod.rank, len(gens)
    items, rels = tuple(g.terms for g in gens), tuple(g.terms for g in modulo)
    aux, rest, porder = _tracked_split(items, rank, mod.order(), mod.ring.nvars, rels)
    basis = _reference_autoreduce_below(rest, aux)
    pk, ppk = mod.packing, K.packing(*porder, mod.ring.nvars)
    r, _ = K.reduce(ppk.rebase(f.terms, pk), basis)
    split = next((j for j, t in enumerate(r) if t[1] & FIELD >= rank), len(r))
    cof_terms = [[] for _ in range(k)]
    for key, d, n, dn in r[split:]:
        p = d & FIELD
        cof_terms[p - rank].append((key - ppk.base[p], d - p, -n, dn))
    return FreeElement(mod, pk.rebase(r[:split], ppk)), tuple(GradedPoly(mod.ring, tuple(c)) for c in cof_terms)


@_oracle_settings
@given(_TRACKED_CASES, st.data())
def test_reduce_with_expression_matches_the_reduced_tracked_basis(case, data):
    # a normal form modulo a Groebner basis is unique, so dividing by the
    # tracked basis as _buchberger leaves it gives the remainder and the
    # cofactors that the reduced basis gave; f is random, or a combination
    # of the items with a random part, so that cofactors are not all zero
    rank, order, items, modulo = case
    R = EdgeRing(("x", "y"))
    F = FreeModule(R, order[0])
    gens = [FreeElement(F, g) for g in items]
    rels = [FreeElement(F, g) for g in modulo]
    f = FreeElement(F, data.draw(_raw_element(2, list(range(rank)), order)))
    for x in (f, f + gens[0], sum(gens[1:], gens[0])):
        rem, cofs = reduce_with_expression(x, gens, rels)
        assert (rem, cofs) == _reference_reduce_with_expression(x, gens, rels)
        if not rels:
            assert x - rem == sum((c * g for c, g in zip(cofs, gens)), F.zero())


@_oracle_settings
@given(_TRACKED_CASES)
def test_syzygies_match_the_aux_part_of_the_oracle(case):
    # interreducing only the elements led in an auxiliary position gives the
    # auxiliary part of the full reduced basis, moved down by rank
    rank, order, items, modulo = case
    R = EdgeRing(("x", "y"))
    F = FreeModule(R, order[0])
    out = syzygies([FreeElement(F, g) for g in items], module=F, modulo=[FreeElement(F, g) for g in modulo])
    full = _tracked_oracle(items, rank, order, 2, modulo)
    porder = _tracked_raw(items, rank, order, 2, modulo)[1]
    ppk, smod = K.packing(*porder, 2), FreeModule(R, porder[0][rank:])
    assert all(s.module == smod for s in out)
    assert tuple(s.terms for s in out) == tuple(smod.packing.rebase(v, ppk, -rank) for v in full if _pos(v) >= rank)


def _reference_autoreduce(basis, pk, order):
    """Minimal elements, each reduced against all the other minimal ones,
    with leads compared and divided in the tuple layout."""
    lead = lambda f: pk.unpack(f[:1])[0]
    key = cmp_to_key(lambda f, g: cmp_terms(*lead(f)[:2], *lead(g)[:2], *order))
    mins = []
    for g in sorted(basis, key=key):
        p, e = lead(g)[:2]
        if not any(lead(h)[0] == p and all(map(le, lead(h)[1], e)) for h in mins):
            mins.append(g)
    out = [_monic(K.reduce(g, mins[:i] + mins[i + 1 :])[0]) for i, g in enumerate(mins)]
    return tuple(sorted(out, key=key, reverse=True))


@_oracle_settings
@given(
    st.sampled_from([(1, [0], _RING_ORDER), (2, [0, 1], _MODULE_ORDER), (2, [0], _ELIM_ORDER)]).flatmap(
        lambda c: st.tuples(st.just(c[2]), st.just(c[0] + 1), _raw_elements(c[0] + 1, c[1], c[2], 4))
    )
)
def test_autoreduce_matches_reference(case):
    # ascending leads, each tail reduced only against the smaller elements,
    # give the same reduced basis as reducing against all the others
    order, nvars, items = case
    pk = K.packing(*order, nvars)
    basis = _buchberger(items, pk)
    assert _autoreduce(basis) == _reference_autoreduce(basis, pk, order)


def _clear_l1_caches():
    for cached in (_groebner_raw, _tracked_raw, _tracked_split, _saturate_raw, _intersect_raw):
        cached.cache_clear()


def _count_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of owner.name, counted from
    cleared L1 caches."""
    _clear_l1_caches()
    calls = []
    fn = getattr(owner, name)

    def counting(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_spolys(monkeypatch):
    return _count_calls(monkeypatch, K, "spoly")


def _count_lcms(monkeypatch):
    return _count_calls(monkeypatch, _pure.Packing, "lcm")


def test_product_criterion_skips_coprime_leads(monkeypatch):
    # a coprime pair never enters the heap, so not even its lcm is formed
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    calls = _count_spolys(monkeypatch)
    lcms = _count_lcms(monkeypatch)
    assert set(groebner([x**2, y**2, z**2])) == {x**2, y**2, z**2}
    assert len(calls) == 0
    assert len(lcms) == 0


def test_coprime_pairs_count_as_treated_when_made(monkeypatch):
    # the relations a^2*e1 and c^2*e1 lie in one position with coprime leads,
    # so their pair is treated when it is made; the chain criterion through
    # c^2*e1 then skips the pair of a^2*e1 with the other element led by
    # c^2*e1: 11 S-polynomials, where marking coprime pairs treated only when
    # popped made 12
    R = EdgeRing(("a", "b", "c", "d"))
    a, b, c, d = (R.var(v) for v in "abcd")
    F = FreeModule(R, (0, 0))
    zero = R.zero()
    gens = [F.element(p) for p in ([a * a + c * c, c * c], [a * c - c * c, a * b + b * c], [a * c + c * c, zero])]
    modulo = [F.element(p) for p in ([c * d, c * c], [zero, a * a], [zero, c * c])]
    calls = _count_spolys(monkeypatch)
    out = syzygies(gens, module=F, modulo=modulo)
    assert len(calls) == 11
    items, rels = tuple(g.terms for g in gens), tuple(g.terms for g in modulo)
    basis, _ = _tracked_raw(items, 2, F.order(), 4, rels)
    assert _autoreduce(basis) == _tracked_oracle(items, 2, F.order(), 4, rels)
    assert len(out) == 6


def test_input_past_the_basis_cap_raises_before_any_pair(monkeypatch):
    # of these leads only x^2 and y*z are coprime, so making the pairs would
    # cost lcms; an input over the cap makes none
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    gens = [x * x, x * y, x * z, y * z]
    monkeypatch.setattr("tamemod.exactalg.MAX_BASIS", 3)
    lcms = _count_lcms(monkeypatch)
    with pytest.raises(ResourceCapError):
        groebner(gens)
    assert len(lcms) == 0


def test_syzygy_spoly_count(monkeypatch):
    # 7 S-polynomials with sugar selection and the chain criterion; selection
    # by the order alone makes 8, and dropping the chain criterion makes 9
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    calls = _count_spolys(monkeypatch)
    syzygies([x * x - y * z, x * y, z * z])
    assert len(calls) == 7


def test_syzygies_reduce_only_the_kept_part(monkeypatch):
    # the same 7 S-polynomials, one reduce each, and one reduce per kept
    # syzygy; the elements led in F are never interreduced: reducing the
    # whole basis made 15 reduce calls
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    spolys = _count_spolys(monkeypatch)
    reduces = _count_calls(monkeypatch, K, "reduce")
    syzygies([x * x - y * z, x * y, z * z])
    assert (len(spolys), len(reduces)) == (7, 11)


def test_saturation_makes_no_exponent_tuple():
    # the lift into the elimination order and the way back shift packed
    # fields, so the exponent table of that order gains nothing; the route
    # through exponent tuples entered 7
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    table, expos = _pure._exponent_table(4, 1)
    table.clear()
    expos.clear()
    _clear_l1_caches()
    out = saturate_by_ideal([x * y - z * z, x * z], [y - z], R)
    assert len(table) == 0
    ideal = ((x * y - z * z).terms, (x * z).terms)
    assert tuple(g.terms for g in out) == _saturate_route(ideal, (y - z).terms, 3)


def test_monic_inputs_are_not_rescaled(monkeypatch):
    # 6 scale calls, one per lead that is not 1; the parent rescaled every
    # input, S-pair remainder and autoreduced element and made 14
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    f = (x * y + 3 * z * z).terms
    assert _monic(f) is f
    calls = _count_calls(monkeypatch, K, "scale")
    groebner([2 * x * x - y * z, x * y + 3 * z * z, y**3 - x * z])
    assert len(calls) == 6


# -- syzygies and lifts modulo relations ---------------------------------------


def _as_elements(raws, module):
    return [FreeElement(module, g) for g in raws]


def _projected_syzygies(gens, modulo, module):
    """Test-only reference: syzygies of gens + modulo, cut to the gens' positions."""
    k = len(gens)
    smod = FreeModule(module.ring, tuple(g.weight() if g.is_homogeneous else 0 for g in gens))
    out = []
    for s in syzygies(gens + modulo, module=module):
        head = s.components()[:k]
        if any(not c.is_zero() for c in head):
            out.append(smod.element(head))
    return smod, out


_MODULO_CASES = st.sampled_from([(1, (0,)), (2, (0, 1)), (3, (0, 0))]).flatmap(
    lambda c: st.tuples(
        st.just(c),
        _raw_elements(c[0], list(range(len(c[1]))), (c[1], 0, 0)),
        _raw_elements(c[0], list(range(len(c[1]))), (c[1], 0, 0), 2),
    )
)


@_oracle_settings
@given(_MODULO_CASES)
def test_syzygies_modulo_matches_projection(case):
    (nvars, weights), graw, rraw = case
    module = FreeModule(EdgeRing(("x", "y", "z")[:nvars]), weights)
    gens, rels = _as_elements(graw, module), _as_elements(rraw, module)
    out = syzygies(gens, module=module, modulo=rels)
    smod, reference = _projected_syzygies(gens, rels, module)
    assert all(s.module == smod for s in out)
    # the output is already the reduced basis: a fixed point of groebner
    assert groebner(list(out), module=smod) == out
    assert out == groebner(reference, module=smod)
    for s in out:
        total = module.zero()
        for c, g in zip(s.components(), gens):
            total = total + c * g
        assert normal_form(total, groebner(rels, module=module)).is_zero()


@_oracle_settings
@given(_MODULO_CASES, st.data())
def test_reduce_with_expression_modulo(case, data):
    (nvars, weights), graw, rraw = case
    module = FreeModule(EdgeRing(("x", "y", "z")[:nvars]), weights)
    gens, rels = _as_elements(graw, module), _as_elements(rraw, module)
    (f,) = _as_elements(data.draw(_raw_elements(nvars, list(range(len(weights))), module.order(), 1)), module)
    rem, cofs = reduce_with_expression(f, gens, modulo=rels)
    assert len(cofs) == len(gens)
    assert rem == normal_form(f, groebner(gens + rels, module=module))
    rest = f - rem
    for c, g in zip(cofs, gens):
        rest = rest - c * g
    assert normal_form(rest, groebner(rels, module=module)).is_zero()


def test_reduce_with_expression_no_gens_still_reduces_modulo(ring_xy):
    x, y = ring_xy.var("x"), ring_xy.var("y")
    assert reduce_with_expression(x * x + y, [], modulo=[x]) == (y, ())
    assert reduce_with_expression(x * y, [], modulo=[x]) == (ring_xy.zero(), ())
    assert reduce_with_expression(x + y, []) == (x + y, ())


# -- arithmetic exactness --------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_poly_arithmetic_exact(seed):
    ring = EdgeRing(("x", "y", "z"))
    rng = random.Random(seed)
    a = rand_poly(rng, ring)
    b = rand_poly(rng, ring)
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + b) == (a * b) + (a * b)


def test_power_past_the_field_limit_raises_at_once():
    # (a + b)^40000 has the term a^40000, whose degree does not fit a packed
    # field; k multiplications would take about an hour to find that out
    R = EdgeRing(("a", "b"))
    a, b = R.var("a"), R.var("b")
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        (a + b) ** 40000
    with pytest.raises(ResourceCapError):
        (a * b + 1) ** 16384
    assert time.perf_counter() - start < 1
    assert R.const(3) ** 40000 == R.const(3**40000)
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b


def test_values_survive_the_exponent_table_emptying(monkeypatch):
    # values hold packed integers, not table entries: emptying the exponent
    # tables leaves their str, JSON, equality and hash as they were
    R = EdgeRing(("x", "y", "z"))
    M = FreeModule(R, (0, 1))

    def build():
        x, y, z = R.var("x"), R.var("y"), R.var("z")
        return [x * y - z**2, Fraction(1, 2) * (x + y) ** 3, M.element([x**2 - y * z, Fraction(3, 2) * z]), M.gen(1, -1)]

    def shown(values):
        return [(str(v), poly_to_json(v) if isinstance(v, GradedPoly) else free_to_json(v), hash(v)) for v in values]

    before = build()
    seen = shown(before)
    monkeypatch.setattr(_pure, "TABLE_CAP", 4)
    for k in range(40):
        R.poly({(k, 1, 0): 1})
        M.element([R.poly({(0, k, 2): 1}), R.zero()])
    assert len(R.packing.table) <= 4 and all(e not in R.packing.table for e in ((1, 1, 0), (0, 0, 2)))
    after = build()
    assert shown(before) == seen == shown(after)
    assert before == after


def test_values_pickle():
    # a pickled value carries its order, not its Packing's tables
    R = EdgeRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    M = FreeModule(R, (0, 2))
    for v in (x * y - y**2, M.element([x**2 - y * x, R.const(Fraction(1, 3)) * y * y])):
        w = pickle.loads(pickle.dumps(v))
        assert w == v and hash(w) == hash(v) and str(w) == str(v)


def test_element_and_components_round_trip():
    # element sorts the terms of several positions into the module order; the
    # reference builds the same element from its exponent tuples
    R = EdgeRing(("x", "y", "z"))
    rng = random.Random(5)
    for weights in ((0, 1), (2, 0, 1), (0, 0, 3)):
        M = FreeModule(R, weights)
        for _ in range(30):
            comps = tuple(rand_poly(rng, R) for _ in weights)
            v = M.element(comps)
            assert v.components() == comps
            raw = [(i, e, n, d) for i, c in enumerate(comps) for _, e, n, d in R.packing.unpack(c.terms)]
            assert v == FreeElement(M, M.packing.build(raw))


# -- the shared value code -------------------------------------------------------

# Each pair of (poly x, free element e = [g0]*(1) of weights (1, 0), 3, 1/2,
# "a") under +, - and *: the str of the value it gives, or the error it raises.
# Pairs of values from different spaces, and operands that are not values,
# raise StructuralError.
_OPERATOR_TABLE = {
    "+": {
        ("x", "x"): "2*x", ("x", "e"): StructuralError, ("x", 3): "x + 3", ("x", 0.5): "x + 1/2",
        ("x", "a"): StructuralError, ("e", "x"): StructuralError, ("e", "e"): "[g0]*(2)",
        ("e", 3): StructuralError, ("e", 0.5): StructuralError, ("e", "a"): StructuralError,
        (3, "x"): "x + 3", (3, "e"): StructuralError, (0.5, "x"): "x + 1/2", (0.5, "e"): StructuralError,
        ("a", "x"): StructuralError, ("a", "e"): StructuralError,
    },
    "-": {
        ("x", "x"): "0", ("x", "e"): StructuralError, ("x", 3): "x - 3", ("x", 0.5): "x - 1/2",
        ("x", "a"): StructuralError, ("e", "x"): StructuralError, ("e", "e"): "0",
        ("e", 3): StructuralError, ("e", 0.5): StructuralError, ("e", "a"): StructuralError,
        (3, "x"): "-x + 3", (3, "e"): StructuralError, (0.5, "x"): "-x + 1/2", (0.5, "e"): StructuralError,
        ("a", "x"): StructuralError, ("a", "e"): StructuralError,
    },
    "*": {
        ("x", "x"): "x^2", ("x", "e"): "[g0]*(x)", ("x", 3): "3*x", ("x", 0.5): "1/2*x",
        ("x", "a"): StructuralError, ("e", "x"): StructuralError, ("e", "e"): StructuralError,
        ("e", 3): "[g0]*(3)", ("e", 0.5): "[g0]*(1/2)", ("e", "a"): StructuralError,
        (3, "x"): "3*x", (3, "e"): "[g0]*(3)", (0.5, "x"): "1/2*x", (0.5, "e"): "[g0]*(1/2)",
        ("a", "x"): StructuralError, ("a", "e"): StructuralError,
    },
}


def test_operator_table():
    R = EdgeRing(("x", "y"))
    operand = {"x": R.var("x"), "e": FreeModule(R, (1, 0)).gen(0), 3: 3, 0.5: Fraction(1, 2), "a": "a"}
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul}
    for name, table in _OPERATOR_TABLE.items():
        for (a, b), want in table.items():
            args = operand[a], operand[b]
            if isinstance(want, str):
                assert str(ops[name](*args)) == want, (a, name, b)
            else:
                with pytest.raises(want):
                    ops[name](*args)


def _values(seed):
    """Seeded polys and free elements over one ring: random ones and
    homogeneous ones, with zero among them."""
    R = EdgeRing(("x", "y", "z"))
    M = FreeModule(R, (0, 1))
    rng = random.Random(seed)
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    polys = [rand_poly(rng, R) for _ in range(6)] + [R.zero(), x * y - z * z, 2 * x - y]
    elems = [M.element([rand_poly(rng, R), rand_poly(rng, R)]) for _ in range(6)]
    elems += [M.zero(), M.element([x, R.const(3)]), M.element([x * y, z])]
    return R, M, polys, elems


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_value_laws(seed):
    R, M, polys, elems = _values(seed)
    for vs in (polys, elems):
        for a, b in zip(vs, vs[1:] + vs[:1]):
            assert (a + b) - b == a
            assert -(-a) == a
            for c, d in ((3, Fraction(-2, 5)), (Fraction(1, 2), 0)):
                assert c * (a + b) == c * a + c * b == (a + b) * c
                assert (c + d) * a == c * a + d * a
            if a.is_homogeneous:
                assert (a.weight() is None) == a.is_zero()
            else:
                with pytest.raises(ValidationError):
                    a.weight()
    x, y, z = polys[-2:] + elems[-1:]
    assert x.weight() == 2 and y.weight() == 1 and z.weight() == 2
    # a coefficient is an int or a Fraction; a (num, den) pair is neither
    for bad in ((1, 2), 0.5, "1/2"):
        for make in (R.const, lambda c: R.poly({(1, 0, 0): c}), lambda c: M.gen(0, c)):
            with pytest.raises(ValidationError):
                make(bad)


def test_values_hash_as_their_space_and_terms():
    _, _, polys, elems = _values(1)
    for p in polys:
        assert hash(p) == hash((p.ring, p.terms))
    for v in elems:
        assert hash(v) == hash((v.module, v.terms))


def test_substitute_free_element_by_components():
    R, M, _, elems = _values(4)
    dst = EdgeRing(("x", "y"))
    mapping = {"z": "x"}
    free = FreeModule(dst, M.weights)
    for v in elems:
        assert substitute(v, free, mapping) == free.element([substitute(c, dst, mapping) for c in v.components()])
    assert substitute(R.var("z") * R.var("y"), dst, mapping) == dst.var("x") * dst.var("y")


@pytest.mark.parametrize(
    "call",
    [
        lambda gens: groebner(gens),
        lambda gens: syzygies(gens),
        lambda gens: reduce_with_expression(gens[0], gens[1:]),
        lambda gens: reduce_with_expression(gens[-1], gens[:-1]),
    ],
)
def test_l1_rejects_mixed_or_foreign_input(call):
    R = EdgeRing(("x", "y"))
    x, e = R.var("x"), FreeModule(R, (0,)).gen(0)
    other = EdgeRing(("x", "z")).var("x")
    for gens in ([x, e], [e, x], [x, other], [x, "a"], ["a", x], [e, 3], [3, e]):
        with pytest.raises(StructuralError):
            call(gens)


def test_ideal_operations_reject_foreign_input():
    # free elements, polys of a ring with three variables, and a non-value;
    # radical_member answered True for x*g0 against [x*g1] in a rank-2 module
    R = EdgeRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    z = EdgeRing(("x", "y", "z")).var("z")
    F = FreeModule(R, (0, 0))
    calls = [
        lambda: intersect_ideals([FreeModule(R, (0, 1)).gen(1)], [x], R),
        lambda: saturate_by_ideal([x], [FreeModule(R, (0,)).gen(0)], R),
        lambda: ideal_contains_one([z], R),
        lambda: saturate_by_ideal([x * y], [z], R),
        lambda: intersect_ideals([z], [x], R),
        lambda: radical_member(x * F.gen(0), [x * F.gen(1)]),
        lambda: radical_member(FreeModule(R, (0,)).gen(0), [x]),
        lambda: radical_member(x, [x * F.gen(1)]),
        lambda: radical_member(R.zero(), [x * F.gen(1)]),
        lambda: radical_member(x, [z]),
        lambda: radical_member(1, [x]),
    ]
    for call in calls:
        with pytest.raises(StructuralError):
            call()
    # empty lists stay valid
    assert intersect_ideals([], [x], R) == ()
    assert saturate_by_ideal([], [], R) == (R.one(),)
    assert not ideal_contains_one([], R)
    assert not radical_member(x, [])


def test_old_slot_names_unpickle():
    # a pickle whose state names the slot ring or module, as it was once
    # called, still loads: those names are the space slot
    R = EdgeRing(("x", "y"))
    M = FreeModule(R, (0, 2))
    for v, slot in ((R.var("x") - 2, "ring"), (M.gen(1, 3), "module")):

        class Old:
            def __reduce__(self):
                return object.__new__, (type(v),), (None, {slot: v.space, "terms": v.terms})

        assert pickle.loads(pickle.dumps(Old())) == v


# -- Hilbert-Poincare numerators of monomial ideals -------------------------------------


def _standard_monomials(gens, n, d):
    """Oracle: the monomials of degree d in n variables that no generator divides."""
    count = 0
    for vs in combinations_with_replacement(range(n), d):
        expo = [0] * n
        for v in vs:
            expo[v] += 1
        count += not any(all(map(le, g, expo)) for g in gens)
    return count


def _series_coefficient(num, n, d):
    """Coefficient of t^d in num(t) / (1 - t)^n."""
    return sum(c * (comb(d - k + n - 1, n - 1) if n else int(d == k)) for k, c in num.items() if k <= d)


_MONOMIAL_IDEALS = st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=7))
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_MONOMIAL_IDEALS)
@example((3, []))  # the zero ideal
@example((3, [(0, 0, 0)]))  # the unit ideal
@example((0, [()]))  # the unit ideal with no variables
@example((4, [(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 0, 4)]))  # pure powers
@example((2, [(1, 1), (2, 0)]))  # the upper median would pivot on x^2 forever
@example((3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (2, 0, 0), (1, 1, 0)]))  # shared variables, a repeat
def test_hilbert_numerator_counts_standard_monomials(case):
    n, gens = case
    num = hilbert_numerator(gens)
    assert all(c for c in num.values())
    for d in range(9):
        assert _series_coefficient(num, n, d) == _standard_monomials(gens, n, d), (gens, d)


def test_hilbert_numerator_of_high_pure_powers():
    # exponents at the packed field limit take a few pivots, not one stack
    # frame per unit of exponent
    top = 32767
    assert hilbert_numerator([(top, 0, 0, 0, 0)]) == {0: 1, top: -1}
    assert hilbert_numerator([(top, 0), (1, 1), (0, top)]) == {0: 1, 2: -1, top: -2, top + 1: 2}
    # a staircase under x^top and y^top: R/I is finite, so N(t) = P(t)(1 - t)^2
    # with P(1) = N''(1)/2 the number of standard monomials, x^a y^b with
    # b < top and a below every generator's x-exponent whose y-exponent is <= b
    gens = [(top - i, i) for i in range(5)] + [(0, top)]
    num = hilbert_numerator(gens)
    assert sum(num.values()) == 0 and sum(c * k for k, c in num.items()) == 0
    assert sum(c * k * (k - 1) // 2 for k, c in num.items()) == sum(top - min(b, 4) for b in range(top))
