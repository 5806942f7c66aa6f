"""Groebner, normal form, syzygy, and radical-membership behavior."""

import copy
import gc
import itertools
import operator
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from collections import deque
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations_with_replacement
from math import comb
from operator import le
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel import cmp_terms

from tamemod import exactalg
from tamemod._core import _pure
from tamemod._core._pure import BITS, DIVMASK, FIELD, LIMIT
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
    _echelon,
    _groebner_raw,
    _intersect_raw,
    _linear,
    _monic,
    _saturate_raw,
    _tracked_raw,
    contract,
    groebner,
    hilbert_numerator,
    ideal_contains_one,
    intersect_ideals,
    normal_form,
    radical_member,
    reduce_with_expression,
    saturate_by_ideal,
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


def _saturate_by_folding(ideal_gens, by, ring):
    """saturate_by_ideal as a plain fold: every single saturation is run and
    met with the others by _intersect_raw."""
    ideal = exactalg._ideal_terms(ideal_gens, ring)
    hs = exactalg._ideal_terms(by, ring)
    if not hs:
        return (ring.one(),)
    acc = None
    for h in hs:
        part = _saturate_raw(ideal, h, ring.nvars)
        acc = part if acc is None else _intersect_raw(acc, part, ring.nvars)
    return tuple(GradedPoly(ring, g) for g in acc)


def _saturation_rule_cases():
    """(ideal generators, saturating generators, kind) over {x, y, z}.  Each
    ideal is 1-3 products of two linear forms, some with a squared factor,
    given as its reduced basis or as the products themselves.  Each list has
    a no-op generator (a form h with I : h^infinity = I) first, in the middle
    or last, or a generator in the radical of I (the product of the distinct
    factors of a squared generator, or a generator of I) on either side of
    other forms."""
    R = EdgeRing(("x", "y", "z"))
    rng = random.Random("saturation rules")
    variables = [R.var(v) for v in R.variables]

    def form():
        f = R.zero()
        while f.is_zero():
            f = sum((rng.randint(-2, 2) * v for v in variables), R.zero())
        return f

    cases = []
    for k in range(40):
        factors = [(form(), form()) for _ in range(rng.randint(1, 3))]
        if k % 3 == 0:
            factors[0] = (factors[0][0], factors[0][0])
        gens = [f * g for f, g in factors]
        basis = groebner(gens)
        if k % 2:
            gens = list(basis)
        noops = [h for h in variables + [form() for _ in range(4)] if saturate_by_ideal(basis, [h], R) == basis]
        others = [form() for _ in range(2)] + [rng.choice(variables)]
        a, b = rng.sample(others, 2)
        rad = factors[0][0] if k % 3 == 0 else gens[0]
        for noop in noops[:1]:
            cases += [(gens, [noop, a, b], "no-op first"), (gens, [a, noop, b], "no-op middle"), (gens, [a, b, noop], "no-op last")]
        cases += [(gens, [rad, a], "radical first"), (gens, [a, rad, b], "radical middle"), (gens, [a, b, rad], "radical last")]
        cases.append((gens, [a, b], "plain"))
    return R, cases


def test_saturation_rules_match_the_plain_fold():
    # A single saturation equal to the given basis ends the fold with it, and
    # a meet with (1) on either side is not run; both give the fold's
    # reduced basis.  The cases make each rule decide: a no-op after forms
    # whose saturations meet in more than I, where skipping the no-op would
    # be wrong, and a unit part before or after a part that is not (1).
    R, cases = _saturation_rule_cases()
    unit = (R.one().terms,)
    seen = set()
    for gens, by, kind in cases:
        assert saturate_by_ideal(gens, by, R) == _saturate_by_folding(gens, by, R), (gens, by)
        ideal = exactalg._ideal_terms(gens, R)
        parts = [_saturate_raw(ideal, h.terms, R.nvars) for h in by]
        if ideal in parts:
            at = parts.index(ideal)
            rest = [p for i, p in enumerate(parts) if i != at]
            wider = _saturate_by_folding(gens, [h for i, h in enumerate(by) if i != at], R)
            if rest and [g.terms for g in wider] != list(ideal):
                seen.add(kind)
        elif unit in parts:
            at = parts.index(unit)
            if any(p != unit for p in parts[:at]):
                seen.add("unit after a proper part")
            if any(p != unit for p in parts[at + 1:]):
                seen.add("unit before a proper part")
        else:
            assert "no-op" not in kind or gens != list(groebner(gens)), (gens, by)
    assert seen >= {"no-op first", "no-op middle", "no-op last", "unit after a proper part", "unit before a proper part"}


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
            assert _groebner_raw(out, _RING_ORDER[1], R.nvars) == out
        for b in ideals:
            out = _intersect_raw(raw_a, tuple(g.terms for g in b), R.nvars)
            assert _groebner_raw(out, _RING_ORDER[1], R.nvars) == out


def _lift_by_tuples(terms, nvars, tdeg=0):
    """t^tdeg times a ring poly, packed in the elimination order through its
    exponent tuples."""
    src = K.packing(*_RING_ORDER, nvars)
    return K.packing(*_ELIM_ORDER, nvars + 1).pack([(0, (tdeg,) + e, n, d) for _, e, n, d in src.unpack(terms)])


def _elimination_route(items, nvars):
    """The elimination route _saturate_raw and _intersect_raw once took, kept
    as their oracle: the full reduced basis in the elimination order, of
    which the t-free elements go back to the ring through exponent tuples."""
    gb = _groebner_raw(tuple(t for t in items if t), _ELIM_ORDER[1], nvars + 1)
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
    epk = K.packing(*_ELIM_ORDER, nvars + 1)
    for g in a + b + (h,):
        for tdeg in (0, 1):
            assert epk.lift(g, tdeg) == _lift_by_tuples(g, nvars, tdeg)
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
    assert _groebner_raw(items, _RING_ORDER[1], n) == _oracle_gb(items, _RING_ORDER, n)


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
    th = K.mul(epk.pack(((0, (1,) + (0,) * nvars, 1, 1),)), epk.lift(h))
    assert th == epk.lift(h, 1)
    one = epk.pack(((0, (0,) * (nvars + 1), 1, 1),))
    items = tuple(epk.lift(g) for g in ideal) + (K.sub(one, th),)
    assert _groebner_raw(items, _ELIM_ORDER[1], nvars + 1) == _oracle_gb(items, _ELIM_ORDER, nvars + 1)


def _rabinowitsch_member(f, ideal_gens):
    """The elimination route radical_member once took, kept as its oracle:
    f is in the radical iff the elimination basis of I + (1 - t*f), t first
    and dominant, holds a constant."""
    nvars = f.ring.nvars
    if f.is_zero():
        return True
    epk = K.packing(*_ELIM_ORDER, nvars + 1)
    items = [epk.lift(g.terms) for g in ideal_gens if not g.is_zero()]
    items.append(K.sub(((0, 0, 1, 1),), epk.lift(f.terms, 1)))
    gb = _groebner_raw(tuple(t for t in items if t), _ELIM_ORDER[1], nvars + 1)
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
    assert _groebner_raw(items, order[1], n) == _oracle_gb(items, order, n)


def _tracked_oracle(items, rank, order, nvars, modulo):
    """_oracle_gb of the items, each with its auxiliary unit, and the modulo
    elements in _tracked_raw's product order; the input goes through exponent
    tuples, not through rebase."""
    ppk = _tracked_raw(items, rank, order, nvars, modulo)[2]
    porder, pk = ppk.args[:3], K.packing(*order, nvars)
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
    aux, rest, _ = _tracked_raw(items, rank, order, 2, modulo)
    assert _autoreduce(aux + rest) == _tracked_oracle(items, rank, order, 2, modulo)
    assert all(t[1] & FIELD < rank + len(items) for v in aux + rest for t in v)


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
    aux, rest, ppk = _tracked_raw(items, rank, mod.order(), mod.ring.nvars, rels)
    basis = _reference_autoreduce_below(rest, aux)
    pk = mod.packing
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
    ppk = _tracked_raw(items, rank, order, 2, modulo)[2]
    smod = FreeModule(R, ppk.args[0][rank:])
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
    for cached in (_groebner_raw, _tracked_raw, _saturate_raw, _intersect_raw):
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


def _coprime_case():
    """(F, gens, modulo) in rank 2 over a, b, c, d, whose relations a^2*e1
    and c^2*e1 lie in one position with coprime leads."""
    R = EdgeRing(("a", "b", "c", "d"))
    a, b, c, d = (R.var(v) for v in "abcd")
    F = FreeModule(R, (0, 0))
    zero = R.zero()
    gens = [F.element(p) for p in ([a * a + c * c, c * c], [a * c - c * c, a * b + b * c], [a * c + c * c, zero])]
    modulo = [F.element(p) for p in ([c * d, c * c], [zero, a * a], [zero, c * c])]
    return F, gens, modulo


def test_coprime_pairs_count_as_treated_when_made(monkeypatch):
    # the relations a^2*e1 and c^2*e1 lie in one position with coprime leads,
    # so their pair is treated when it is made; the chain criterion through
    # c^2*e1 then skips the pair of a^2*e1 with the other element led by
    # c^2*e1: 11 S-polynomials, where marking coprime pairs treated only when
    # popped made 12
    F, gens, modulo = _coprime_case()
    calls = _count_spolys(monkeypatch)
    out = syzygies(gens, module=F, modulo=modulo)
    assert len(calls) == 11
    items, rels = tuple(g.terms for g in gens), tuple(g.terms for g in modulo)
    aux, rest, _ = _tracked_raw(items, 2, F.order(), 4, rels)
    assert _autoreduce(aux + rest) == _tracked_oracle(items, 2, F.order(), 4, rels)
    assert len(out) == 6


def test_one_tracked_run_serves_syzygies_and_reduce_with_expression(monkeypatch):
    # syzygies keeps the auxiliary part of the tracked run and
    # reduce_with_expression divides by both parts of the same cached run, so
    # the second reader costs no Groebner run
    F, gens, modulo = _coprime_case()
    runs = _count_calls(monkeypatch, exactalg, "_buchberger")
    assert len(syzygies(gens, module=F, modulo=modulo)) == 6
    b, d = F.ring.var("b"), F.ring.var("d")
    rem, cofs = reduce_with_expression(b * gens[0] + d * gens[2], gens, modulo)
    assert rem.is_zero() and len(cofs) == 3
    assert len(runs) == 1
    info = _tracked_raw.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


def test_linear_input_past_the_basis_cap_raises(monkeypatch):
    # the cap holds on the elimination route as on Buchberger's
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    gens = [x - y, y - z, x - z, x + 2 * y]
    assert _linear(tuple(g.terms for g in gens))
    _clear_l1_caches()
    monkeypatch.setattr("tamemod.exactalg.MAX_BASIS", 3)
    with pytest.raises(ResourceCapError, match="input has 4 elements, over 3"):
        groebner(gens)


# -- linear input: Gauss-Jordan elimination ------------------------------------


@st.composite
def _linear_cases(draw):
    """(nelim, nvars, items): linear forms times the generators of a free
    module of rank 1-4 over 1-7 variables, packed in its order.  Rows may
    repeat an earlier one, be a multiple of one, which cancels to zero, or
    the sum of two in one position, which is dependent on them."""
    nvars = draw(st.integers(1, 7))
    nelim = draw(st.integers(0, 1))
    rank = draw(st.integers(1, 4))
    pk = K.packing(tuple(draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))), nelim, 0, nvars)
    num = st.one_of(st.integers(-3, 3).filter(bool), st.integers(2**200, 2**210), st.integers(-(2**210), -(2**200)))
    den = st.one_of(st.just(1), st.integers(1, 2**60))
    items = []
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.sampled_from(["new", "new", "repeat", "multiple", "sum"])) if items else "new"
        f = draw(st.sampled_from(items)) if items else None
        if how == "new":
            pos = draw(st.integers(0, rank - 1))
            at = draw(st.sets(st.integers(0, nvars - 1), min_size=1))
            f = pk.build([(pos, tuple(int(j == i) for j in range(nvars)), draw(num), draw(den)) for i in at])
        elif how == "multiple":
            f = K.scale(f, draw(num), draw(den))
        elif how == "sum":
            f = K.add(f, draw(st.sampled_from([g for g in items if _pos(g) == _pos(f)])))
        if f:
            items.append(f)
    return nelim, nvars, tuple(items)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_linear_cases())
def test_echelon_matches_buchberger_on_linear_items(case):
    # the reduced row echelon form is the unique reduced basis, so the two
    # routes of _groebner_raw agree term for term
    nelim, nvars, items = case
    assert _linear(items)
    assert _echelon(items) == _autoreduce(_buchberger(items, K.packing((0,), nelim, 0, nvars)))


def test_linear_route_takes_linear_forms_times_one_generator():
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    F = FreeModule(R, (0, 1))
    e0, e1 = F.gen(0), F.gen(1)
    ideal = (x - y, 3 * z)
    sums = ((x - y) * e0, z * e1, (y + 2 * z) * e0)
    assert _linear(tuple(g.terms for g in ideal))
    assert _linear(tuple(g.terms for g in sums))
    rejected = [
        (x * e0, 2 * e0),  # a constant times a generator
        (x * e0, (x * x - y * z) * e1),  # a quadratic term
        (x * e0 + y * e1,),  # a relation across two positions
    ]
    for items in rejected:
        assert not _linear(tuple(g.terms for g in items))


_DENSE_ROWS = """
import random
from tamemod._core import impl as K
from tamemod.exactalg import _autoreduce, _buchberger, _echelon, _linear

rng = random.Random("dense")
n = 16
base = [[rng.getrandbits(100) - 2**99 for _ in range(n)] for _ in range(12)]
mix = [[rng.randint(-3, 3) for _ in base] for _ in range(8)]
rows = base + [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)] for cs in mix]
rng.shuffle(rows)
pk = K.packing((0,), 0, 0, n)
items = tuple(pk.build([(0, tuple(int(j == i) for j in range(n)), r[i], 1) for i in range(n)]) for r in rows)
assert _linear(items)
gb = _echelon(items)
assert gb == _autoreduce(_buchberger(items, pk))
print(len(gb), max(max(abs(t[2]), t[3]).bit_length() for g in gb for t in g))
"""


def test_dense_linear_rows_stay_primitive():
    # 20 dense rows of rank 12 in 16 variables with 100-bit coefficients,
    # whose basis carries 1193-bit coefficients: the route takes about 20 ms
    # with each row's content divided out after every update, and ran for
    # minutes without it; a fresh interpreter, so a runaway ends at the timeout
    env = dict(os.environ, PYTHONPATH=str(Path(exactalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _DENSE_ROWS], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "12 1193\n"


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


def test_saturation_makes_no_exponent_tuple(monkeypatch):
    # the lift into the elimination order and the way back shift packed
    # fields, so no term is packed from or unpacked to an exponent tuple
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    f, g, h = x * y - z * z, x * z, y - z
    packs = _count_calls(monkeypatch, _pure.Packing, "pack")
    unpacks = _count_calls(monkeypatch, _pure.Packing, "unpack")
    out = saturate_by_ideal([f, g], [h], R)
    assert (len(packs), len(unpacks)) == (0, 0)
    assert tuple(p.terms for p in out) == _saturate_route((f.terms, g.terms), h.terms, 3)


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


def _undivided_tracked_raw(items, rank, order, nvars, modulo):
    """_tracked_raw as it was before it divided the items by modulo: the
    items enter the run as given."""
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


def _undivided_syzygies(gens, modulo, module):
    """syzygies read off _undivided_tracked_raw."""
    k, rank = len(gens), module.rank
    items, rels = tuple(g.terms for g in gens), tuple(g.terms for g in modulo)
    aux, _, ppk = _undivided_tracked_raw(items, rank, module.order(), module.ring.nvars, rels)
    smod = FreeModule(module.ring, ppk.args[0][-k:])
    return tuple(FreeElement(smod, smod.packing.rebase(v, ppk, -rank)) for v in aux)


def _undivided_reduce_with_expression(f, gens, modulo):
    """reduce_with_expression read off _undivided_tracked_raw."""
    mod = f.module
    rank, k = mod.rank, len(gens)
    items, rels = tuple(g.terms for g in gens), tuple(g.terms for g in modulo)
    aux, rest, ppk = _undivided_tracked_raw(items, rank, mod.order(), mod.ring.nvars, rels)
    pk = mod.packing
    r, _ = K.reduce(ppk.rebase(f.terms, pk), aux + rest)
    split = next((j for j, t in enumerate(r) if t[1] & FIELD >= rank), len(r))
    cof_terms = [[] for _ in range(k)]
    for key, d, n, dn in r[split:]:
        p = d & FIELD
        cof_terms[p - rank].append((key - ppk.base[p], d - p, -n, dn))
    return FreeElement(mod, pk.rebase(r[:split], ppk)), tuple(GradedPoly(mod.ring, tuple(c)) for c in cof_terms)


# (rank, order, items, modulo, extra items, f) over two variables; the
# random elements are mostly inhomogeneous, modulo is never empty
_DIVIDED_CASES = st.sampled_from(
    [(1, [0], _RING_ORDER), (2, [0, 1], _MODULE_ORDER), (3, [0, 1, 2], _RANK3_ORDER)]
).flatmap(
    lambda c: st.tuples(
        st.just(c[0]),
        st.just(c[2]),
        _raw_elements(2, c[1], c[2]),
        _raw_elements(2, c[1], c[2], 3),
        st.lists(st.sampled_from(["in N", "in the span", "zero", "repeat", "homogeneous"]), max_size=3),
        _raw_element(2, c[1], c[2]),
    )
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_DIVIDED_CASES)
@example((2, _MODULE_ORDER, _COPRIME_PAIR, _COPRIME_PAIR[:1], ["in N", "in the span", "zero", "repeat"], _COPRIME_PAIR[1]))
def test_divided_items_give_the_undivided_outputs(case):
    # dividing the items by modulo before the run leaves the tracked
    # submodule as it is, so syzygies and reduce_with_expression (remainder
    # and cofactors) are what the undivided run gives, with modulo as given
    # or as its reduced basis; the extra items lie in the span of modulo (so
    # they divide to zero, and the weight they carry is only the given
    # item's), are zero, repeat an item, or are a homogeneous term of one
    rank, order, items, modulo, extra, fraw = case
    R = EdgeRing(("x", "y"))
    x, y = R.var("x"), R.var("y")
    F = FreeModule(R, order[0])
    rels = [FreeElement(F, g) for g in modulo]
    gens = [FreeElement(F, g) for g in items]
    for kind in extra:
        gens.append(
            {
                "in N": x * rels[0],
                "in the span": x * rels[0] + y * y * rels[-1],
                "zero": F.zero(),
                "repeat": gens[0],
                "homogeneous": FreeElement(F, gens[-1].terms[:1]),
            }[kind]
        )
    f = FreeElement(F, fraw)
    basis = list(groebner(rels, module=F))
    want_syz = _undivided_syzygies(gens, rels, F)
    for mods in (rels, basis):
        assert syzygies(gens, module=F, modulo=mods) == want_syz
        for z in (f, f + gens[0], sum(gens[1:], gens[0])):
            assert reduce_with_expression(z, gens, mods) == _undivided_reduce_with_expression(z, gens, rels)


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


def test_values_survive_the_exponent_table_emptying():
    # values hold packed integers, not exponent tuples: packing other terms
    # in between leaves their str, JSON, equality and hash as they were
    R = EdgeRing(("x", "y", "z"))
    M = FreeModule(R, (0, 1))

    def build():
        x, y, z = R.var("x"), R.var("y"), R.var("z")
        return [x * y - z**2, Fraction(1, 2) * (x + y) ** 3, M.element([x**2 - y * z, Fraction(3, 2) * z]), M.gen(1, -1)]

    def shown(values):
        return [(str(v), poly_to_json(v) if isinstance(v, GradedPoly) else free_to_json(v), hash(v)) for v in values]

    before = build()
    seen = shown(before)
    for k in range(40):
        R.poly({(k, 1, 0): 1})
        M.element([R.poly({(0, k, 2): 1}), R.zero()])
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
    free = FreeModule(dst, M.weights)
    for v in elems:
        assert contract(v, free, "x", "z") == free.element([contract(c, dst, "x", "z") for c in v.components()])
    assert contract(R.var("z") * R.var("y"), dst, "x", "z") == dst.var("x") * dst.var("y")


def _substitute(x, dst, mapping: dict):
    """The ring map sending each variable to mapping.get(v, v), by unpacking
    every term and packing it again: the route contract replaced, kept as its
    oracle."""
    dst_ring = dst if isinstance(dst, EdgeRing) else dst.ring
    imap = [dst_ring.index(mapping.get(v, v)) for v in x.ring.variables]
    raw = []
    for p, e, n, d in x.space.packing.unpack(x.terms):
        out = [0] * dst_ring.nvars
        for i, c in enumerate(e):
            out[imap[i]] += c
        raw.append((p, tuple(out), n, d))
    return type(x)(dst, dst.packing.build(raw))


def _contraction_values(rng, ring, e, ep):
    """Random polys and elements over ring, with terms where e and e' meet
    and merge, and some of degree near the field limit: a poly whose e and
    e' exponents sum to nearly LIMIT, and elements on generators of weights
    up to 30000, each with a term at the limit of the position of least room."""
    n = ring.nvars
    i, j = ring.index(e), ring.index(ep)

    def mono(a, b, rest=0):
        expo = [rng.randint(0, rest) for _ in range(n)]
        expo[i], expo[j] = a, b
        return tuple(expo)

    polys = [rand_poly(rng, ring) for _ in range(2)]
    k = rng.randint(1, 3)
    # e^(k+1) e'^2 and e^(k+3) meet in e^(k+3)
    polys.append(ring.poly({mono(k + 1, 2): 1, mono(k + 3, 0): -1, mono(0, 1, 1): Fraction(2, 3)}))
    top = LIMIT - 1 - rng.randint(0, 4)
    a = rng.randint(0, top)
    polys.append(ring.poly({mono(a, top - a): 3, mono(top, 0): 1}))
    weights = (rng.randint(0, 30000), 0, rng.randint(0, 30000))
    free = FreeModule(ring, weights)
    # the terms at position p stay below LIMIT - shift[p]
    room = [LIMIT - 1 - (w - min(weights)) for w in weights]
    elems = []
    for _ in range(2):
        comps = [rand_poly(rng, ring) for _ in room]
        big = min(room)
        b = rng.randint(0, big)
        comps[room.index(big)] += ring.poly({mono(b, big - b): -1})
        elems.append(free.element(comps))
    return polys, elems


def test_contract_matches_the_unpack_and_pack_route():
    rng = random.Random("contract")
    names = ("a", "b", "c", "d")
    checked = 0
    for order in itertools.permutations(names):
        ring = EdgeRing(order)
        for e, ep in itertools.permutations(names, 2):
            dst = EdgeRing(tuple(v for v in order if v != ep))
            polys, elems = _contraction_values(rng, ring, e, ep)
            for x in polys:
                assert contract(x, dst, e, ep) == _substitute(x, dst, {ep: e}), (order, e, ep, x)
            for x in elems:
                free = FreeModule(dst, x.module.weights)
                assert contract(x, free, e, ep) == _substitute(x, free, {ep: e}), (order, e, ep, x)
            checked += len(polys) + len(elems)
    assert checked == 24 * 12 * 6


@pytest.mark.parametrize("e, ep", [("y", "y"), ("w", "y"), ("x", "w"), ("", "z")])
def test_contract_needs_two_distinct_variables(e, ep):
    R = EdgeRing(("x", "y", "z"))
    dst = EdgeRing(("x", "z"))
    for x in (R.var("y") * R.var("x"), FreeModule(R, (0, 1)).gen(1)):
        with pytest.raises(ValidationError):
            contract(x, dst if type(x) is GradedPoly else FreeModule(dst, (0, 1)), e, ep)


@pytest.mark.parametrize("names", [("x", "y"), ("z", "x"), ("x", "y", "z"), ("x", "z", "w")])
def test_contract_into_a_ring_that_is_not_the_contracted_one(names):
    R = EdgeRing(("x", "y", "z"))
    dst = EdgeRing(names)
    with pytest.raises(StructuralError):
        contract(R.var("y") - R.var("x"), dst, "x", "y")
    with pytest.raises(StructuralError):
        contract(FreeModule(R, (0,)).gen(0), FreeModule(dst, (0,)), "x", "y")


def test_contract_into_a_module_that_is_not_the_contracted_one():
    R = EdgeRing(("x", "y", "z"))
    dst = EdgeRing(("x", "z"))
    v = FreeModule(R, (0, 1)).element([R.var("y"), R.one()])
    assert contract(v, FreeModule(dst, (0, 1)), "x", "y") == FreeModule(dst, (0, 1)).element([dst.var("x"), dst.one()])
    for wrong in (FreeModule(dst, (1, 2)), FreeModule(dst, (0,)), FreeModule(dst, (0, 1, 1)), dst, dst.rank_one):
        with pytest.raises(StructuralError):
            contract(v, wrong, "x", "y")
    # a poly goes into the ring, not into its rank-1 module
    with pytest.raises(StructuralError):
        contract(R.var("y"), dst.rank_one, "x", "y")


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


# -- interned spaces -----------------------------------------------------------


def test_equal_keys_give_one_space():
    R = EdgeRing(("x", "y"))
    assert EdgeRing(["x", "y"]) is R and EdgeRing(v for v in "xy") is R
    assert EdgeRing(("y", "x")) is not R
    M = FreeModule(R, (0, 2))
    assert FreeModule(R, [0, 2]) is M and FreeModule(EdgeRing(["x", "y"]), (0.0, 2)) is M
    assert FreeModule(R, (2, 0)) is not M and FreeModule(EdgeRing(("y", "x")), (0, 2)) is not M
    assert R.rank_one is FreeModule(R, (0,))
    assert R.var("x") is R.var("x")


def test_spaces_pickle_and_copy_to_the_live_object():
    R = EdgeRing(("x", "y"))
    M = FreeModule(R, (0, 2))
    for space in (R, M, R.rank_one):
        assert pickle.loads(pickle.dumps(space)) is space
        assert copy.deepcopy(space) is space and copy.copy(space) is space
    v = M.element([R.var("x"), R.var("y") ** 3])
    assert pickle.loads(pickle.dumps(v)).space is M and copy.deepcopy(v).space is M


def test_space_hashes_are_the_dataclass_values():
    # a dataclass with eq and frozen hashed the tuple of its fields
    R = EdgeRing(("x", "y"))
    M = FreeModule(R, (0, 2))
    assert hash(R) == hash((("x", "y"),))
    assert hash(M) == hash((R, (0, 2)))


def test_spaces_are_immutable():
    R = EdgeRing(("x", "y"))
    M = FreeModule(R, (0, 2))
    for space, name in ((R, "variables"), (R, "packing"), (R, "other"), (M, "weights"), (M, "ring")):
        with pytest.raises(AttributeError):
            setattr(space, name, ())
        with pytest.raises(AttributeError):
            delattr(space, name)
    assert R.variables == ("x", "y") and M.weights == (0, 2) and M.ring is R


@pytest.mark.parametrize("names", [("x", "x"), ("x", ""), ("",), ("x", 3)])
def test_bad_variable_names_raise_on_every_build(names):
    for _ in range(2):
        with pytest.raises(ValidationError):
            EdgeRing(names)
    assert names not in EdgeRing._live


def test_unknown_variable_raises():
    R = EdgeRing(("x", "y"))
    for name in ("z", "", ["x"]):
        with pytest.raises(ValidationError):
            R.var(name)


def test_a_dropped_space_leaves_the_table():
    names = ("interned_u", "interned_v")
    R = EdgeRing(names)
    M = FreeModule(R, (5, 7))
    refs = weakref.ref(R), weakref.ref(M)
    del R, M
    gc.collect()
    assert all(r() is None for r in refs)
    assert names not in EdgeRing._live
    assert all(variables != names for variables, _ in FreeModule._live.keys())


def test_a_live_space_keeps_the_packing_of_its_order():
    # the Packing a space holds is the one packing hands out for its order,
    # so no second Packing of its order is built beside it
    M = FreeModule(EdgeRing(("x", "y")), (3, 1, 4))
    assert K.packing(*M.order(), M.ring.nvars) is M.packing
    assert K.packing(*_RING_ORDER, 2) is M.ring.packing


def test_a_move_keeps_no_packing_alive():
    # a Packing that rebased terms from another remembers the move by the
    # other's order, so the other dies with its last holder
    src, dst = K.packing((7, 9), 0, 0, 2), K.packing((1, 7, 9), 0, 0, 2)
    f = src.build([(1, (1, 0), 1, 1), (0, (0, 3), 2, 1)])
    assert dst.rebase(f, src, 1) == K.packing((1, 7, 9), 0, 0, 2).build([(2, (1, 0), 1, 1), (1, (0, 3), 2, 1)])
    ref = weakref.ref(src)
    del src
    gc.collect()
    assert ref() is None and dst.moves


def test_a_tracked_run_holds_its_product_packing_while_cached():
    # the Packing of the product order lives in the tracked run's cache
    # entry, which syzygies and reduce_with_expression read it from; nothing
    # else keeps it, so it dies with the entry
    R = EdgeRing(("tracked_u", "tracked_v"))
    u, v = R.var("tracked_u"), R.var("tracked_v")
    gens = [u * v, u * u]
    assert syzygies(gens) == (FreeModule(R, (2, 2)).element([u, -v]),)
    ppk = _tracked_raw(tuple(g.terms for g in gens), 1, R.rank_one.order(), 2, ())[2]
    assert ppk.args == ((0, 2, 2), 0, 1, 2) and K.packing(*ppk.args) is ppk
    ref = weakref.ref(ppk)
    del ppk
    _tracked_raw.cache_clear()
    gc.collect()
    assert ref() is None


def test_a_saturation_builds_one_elimination_packing(monkeypatch):
    # _saturate_raw and _intersect_raw look the elimination Packing up once
    # per run, not once per generator, and hand it to _t_free; nothing keeps
    # it once the run returns
    R = EdgeRing(("sat_u", "sat_v", "sat_w"))
    u, v, w = (R.var(n) for n in R.variables)
    seen = []
    t_free = exactalg._t_free

    def recording(items, epk):
        seen.append((epk.args, weakref.ref(epk)))
        return t_free(items, epk)

    monkeypatch.setattr(exactalg, "_t_free", recording)
    lookups = _count_calls(monkeypatch, K, "packing")
    assert saturate_by_ideal([u * v, u * w], [u], R) == (v, w)
    assert intersect_ideals([u], [v, w], R) == (u * v, u * w)
    assert len(lookups) == 2
    assert [args for args, _ in seen] == [_ELIM_ORDER + (4,)] * 2
    gc.collect()
    assert all(ref() is None for _, ref in seen)


def test_modules_that_differ_at_a_relation_free_position_share_a_run():
    # the run is keyed on the packed items and the shape of the order, so
    # weights that differ only where no item has a term pack alike
    R = EdgeRing(("x", "y"))
    x, y, zero = R.var("x"), R.var("y"), R.zero()
    _clear_l1_caches()
    bases = []
    for top in (5, 7):
        F = FreeModule(R, (0, 1, top))
        gb = groebner([F.element([x, -R.one(), zero]), F.element([y * y, zero, zero])], module=F)
        assert all(g.module is F for g in gb)
        bases.append(tuple(g.terms for g in gb))
    assert bases[0] == bases[1]
    info = _groebner_raw.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
