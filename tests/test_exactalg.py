"""Groebner, normal form, syzygy, and radical-membership behavior."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamemod.errors import StructuralError
from tamemod.exactalg import (
    _RING_ORDER,
    EdgeRing,
    FreeModule,
    GradedPoly,
    _groebner_raw,
    _intersect_raw,
    _saturate_raw,
    groebner,
    intersect_ideals,
    normal_form,
    radical_member,
    reduce_with_expression,
    saturate_by_ideal,
    syzygies,
)


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
            assert _groebner_raw(out, _RING_ORDER) == out
        for b in ideals:
            out = _intersect_raw(raw_a, tuple(g.terms for g in b), R.nvars)
            assert _groebner_raw(out, _RING_ORDER) == out


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
