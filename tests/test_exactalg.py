"""Groebner, normal form, syzygy, and radical-membership behavior."""

import random
from collections import deque
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel import cmp_terms

from tamemod._core._pure import FIELD
from tamemod.errors import StructuralError
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


# -- pair criteria and selection ------------------------------------------------


def _oracle_gb(items, order):
    """Buchberger with no criteria on the packed kernel: every same-position
    pair, first in first out, then _autoreduce; returned in the tuple layout."""
    pk = K.packing(*order, len(items[0][0][1]))
    basis = [_monic(pk.pack(f)) for f in items if f]
    pairs = deque((i, j) for j in range(len(basis)) for i in range(j) if _pos(basis[i]) == _pos(basis[j]))
    while pairs:
        i, j = pairs.popleft()
        lcm = pk.lcm(basis[i][0], basis[j][0])
        r, _ = K.reduce(K.spoly(basis[i], basis[j], lcm), basis, False)
        if r:
            basis.append(_monic(r))
            n = len(basis) - 1
            pairs.extend((i, n) for i in range(n) if _pos(basis[i]) == _pos(r))
    return tuple(map(pk.unpack, _autoreduce(basis)))


def _pos(f):
    """Position of a packed poly's leading term."""
    return f[0][1] & FIELD


def _raw_element(nvars, positions, order):
    """Strategy: a nonzero canonical raw element with small terms in the given positions."""
    term = st.tuples(
        st.sampled_from(positions),
        st.tuples(*[st.integers(0, 2)] * nvars),
        st.integers(-3, 3).filter(bool),
        st.just(1),
    )
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: K.canon(ts, *order)).filter(bool)


def _raw_elements(nvars, positions, order, max_size=3):
    return st.lists(_raw_element(nvars, positions, order), min_size=1, max_size=max_size).map(tuple)


_MODULE_ORDER = ((0, 1), 0, 0)

_oracle_settings = settings(max_examples=25, deadline=None, derandomize=True)


@_oracle_settings
@given(st.integers(1, 3).flatmap(lambda n: _raw_elements(n, [0], _RING_ORDER)))
def test_criteria_match_oracle_ideals(items):
    assert _groebner_raw(items, _RING_ORDER) == _oracle_gb(items, _RING_ORDER)


@_oracle_settings
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(_raw_elements(n, [0], _RING_ORDER, 2), _raw_element(n, [0], _RING_ORDER))
    )
)
def test_criteria_match_oracle_rabinowitsch(ideal_h):
    # I + (1 - t*h) under the elimination order: inhomogeneous input
    ideal, h = ideal_h
    nvars = len(h[0][1])
    th = K.mul(((0, (1,) + (0,) * nvars, 1, 1),), _lift_terms(h), *_ELIM_ORDER)
    one = ((0, (0,) * (nvars + 1), 1, 1),)
    items = tuple(_lift_terms(g) for g in ideal) + (K.sub(one, th, *_ELIM_ORDER),)
    assert _groebner_raw(items, _ELIM_ORDER) == _oracle_gb(items, _ELIM_ORDER)


@_oracle_settings
@given(st.integers(1, 3).flatmap(lambda n: _raw_elements(n, [0, 1], _MODULE_ORDER, 4)))
@example((((0, (1, 0), 1, 1),), ((0, (0, 2), 1, 1), (1, (0, 0), 1, 1))))
def test_criteria_match_oracle_rank2(items):
    # random positions mix elements in one position with elements in both;
    # the example's coprime pair x*e0, y^2*e0 + e1 has S-polynomial -x*e1,
    # which is not zero modulo the pair
    assert _groebner_raw(items, _MODULE_ORDER) == _oracle_gb(items, _MODULE_ORDER)


@_oracle_settings
@given(
    st.sampled_from([(1, [0], _RING_ORDER), (2, [0, 1], _MODULE_ORDER)]).flatmap(
        lambda c: st.tuples(
            st.just(c[0]),
            st.just(c[2]),
            _raw_elements(2, c[1], c[2]),
            st.one_of(st.just(()), _raw_elements(2, c[1], c[2], 2)),
        )
    )
)
def test_criteria_match_oracle_tracked(case):
    # the modulo elements enter with no auxiliary position
    rank, order, items, modulo = case
    basis, porder = _tracked_raw(items, rank, order, 2, modulo)
    embedded = [g + ((rank + i, (0, 0), 1, 1),) for i, g in enumerate(items)]
    assert basis == _oracle_gb(embedded + list(modulo), porder)
    assert all(t[0] < rank + len(items) for v in basis for t in v)


def _reference_autoreduce(basis, pk, order):
    """Minimal elements, each reduced against all the other minimal ones,
    with leads compared and divided in the tuple layout."""
    lead = lambda f: pk.unpack(f[:1])[0]
    key = cmp_to_key(lambda f, g: cmp_terms(*lead(f)[:2], *lead(g)[:2], *order))
    mins = []
    for g in sorted(basis, key=key):
        p, e = lead(g)[:2]
        if not any(lead(h)[0] == p and K.expo_divides(lead(h)[1], e) for h in mins):
            mins.append(g)
    out = [_monic(K.reduce(g, mins[:i] + mins[i + 1 :], False)[0]) for i, g in enumerate(mins)]
    return tuple(sorted(out, key=key, reverse=True))


@_oracle_settings
@given(
    st.sampled_from([(1, [0], _RING_ORDER), (2, [0, 1], _MODULE_ORDER), (2, [0], _ELIM_ORDER)]).flatmap(
        lambda c: st.tuples(st.just(c[2]), _raw_elements(c[0] + 1, c[1], c[2], 4))
    )
)
def test_autoreduce_matches_reference(case):
    # ascending leads, each tail reduced only against the smaller elements,
    # give the same reduced basis as reducing against all the others
    order, items = case
    pk = K.packing(*order, len(items[0][0][1]))
    basis = _buchberger([pk.pack(f) for f in items], pk)
    assert _autoreduce(basis) == _reference_autoreduce(basis, pk, order)


def _count_spolys(monkeypatch):
    _groebner_raw.cache_clear()
    _tracked_raw.cache_clear()
    calls = []
    spoly = K.spoly

    def counting(*args):
        calls.append(1)
        return spoly(*args)

    monkeypatch.setattr(K, "spoly", counting)
    return calls


def test_product_criterion_skips_coprime_leads(monkeypatch):
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    calls = _count_spolys(monkeypatch)
    assert set(groebner([x**2, y**2, z**2])) == {x**2, y**2, z**2}
    assert len(calls) == 0


def test_syzygy_spoly_count(monkeypatch):
    # 7 S-polynomials with sugar selection and the chain criterion; selection
    # by the order alone makes 8, and dropping the chain criterion makes 9
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    calls = _count_spolys(monkeypatch)
    syzygies([x * x - y * z, x * y, z * z])
    assert len(calls) == 7


def test_monic_inputs_are_not_rescaled(monkeypatch):
    # 6 scale calls, one per lead that is not 1; the parent rescaled every
    # input, S-pair remainder and autoreduced element and made 14
    R = EdgeRing(("x", "y", "z"))
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    f = K.packing(*_RING_ORDER, 3).pack((x * y + 3 * z * z).terms)
    assert _monic(f) is f
    _groebner_raw.cache_clear()
    calls = []
    scale = K.scale

    def counting(*args):
        calls.append(1)
        return scale(*args)

    monkeypatch.setattr(K, "scale", counting)
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
        head = tuple(t for t in s.terms if t[0] < k)
        if head:
            out.append(FreeElement(smod, K.canon(head, *smod.order())))
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
