"""Kernel-level checks: canonical form, arithmetic exactness, and parity
between the pure-Python and compiled implementations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamemod._core import implementations, kernel_name

IMPLS = implementations()
ORDER = ((0, 1), 0, 0)  # two positions, weights 0 and 1


def rand_terms(rng, nvars=3, npos=2, nterms=6):
    out = []
    for _ in range(rng.randint(0, nterms)):
        out.append(
            (
                rng.randrange(npos),
                tuple(rng.randint(0, 3) for _ in range(nvars)),
                rng.randint(-6, 6),
                rng.randint(1, 4),
            )
        )
    return out


@pytest.fixture(params=sorted(IMPLS))
def K(request):
    return IMPLS[request.param]


def test_canon_merges_and_drops_zeros(K):
    e = (1, 0, 0)
    terms = [(0, e, 1, 2), (0, e, 1, 2), (0, (0, 1, 0), 0, 1)]
    out = K.canon(terms, *ORDER)
    assert out == ((0, e, 1, 1),)


def test_canon_sorted_descending(K):
    rng = random.Random(1)
    for _ in range(50):
        f = K.canon(rand_terms(rng), *ORDER)
        for a, b in zip(f, f[1:]):
            assert K.cmp_terms(a[0], a[1], b[0], b[1], *ORDER) > 0


def test_coefficients_normalized(K):
    f = K.canon([(0, (1, 0, 0), 2, -4)], *ORDER)
    assert f == ((0, (1, 0, 0), -1, 2),)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_add_sub_roundtrip(data):
    """(a + b) - b == a exactly, on every kernel."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for K in IMPLS.values():
        a = K.canon(rand_terms(rng), *ORDER)
        b = K.canon(rand_terms(rng), *ORDER)
        back = K.sub(K.add(a, b, *ORDER), b, *ORDER)
        assert back == a


def test_mul_term_preserves_order(K):
    rng = random.Random(7)
    for _ in range(40):
        f = K.canon(rand_terms(rng), *ORDER)
        g = K.mul_term(f, (1, 2, 0), 3, 2)
        assert g == K.canon(g, *ORDER)


def test_reduce_cancels_leading_terms(K):
    # reduce x^2 by {x - y}: remainder y^2 (positions collapsed to 0)
    order = ((0,), 0, 0)
    x2 = ((0, (2, 0), 1, 1),)
    xminusy = ((0, (1, 0), 1, 1), (0, (0, 1), -1, 1))
    rem, _ = K.reduce(x2, [xminusy], *order, False)
    assert rem == ((0, (0, 2), 1, 1),)


def test_reduce_tracks_exact_cofactors(K):
    order = ((0,), 0, 0)
    rng = random.Random(3)
    for _ in range(30):
        f = K.canon(rand_terms(rng, nvars=2, npos=1), *order)
        basis = [
            b
            for b in (
                K.canon(rand_terms(rng, nvars=2, npos=1, nterms=3), *order),
                K.canon(rand_terms(rng, nvars=2, npos=1, nterms=3), *order),
            )
            if b
        ]
        rem, cofs = K.reduce(f, basis, *order, True)
        recombined = rem
        for q, b in zip(cofs, basis):
            recombined = K.add(recombined, K.mul(q, b, *order), *order)
        assert recombined == f


def reference_reduce(f, basis, weights, nelim, possplit, track=False):
    """Division by re-merging the whole pending tail after every step.

    The merge-based reduce that heap division replaced, kept as the oracle:
    the largest pending term goes first and the first basis element whose
    leading monomial divides it is the divisor.
    """
    K = IMPLS["python"]
    cofs = [[] for _ in basis] if track else None
    out = []
    work = tuple(f)
    while work:
        pos, expo, num, den = work[0]
        hit = next(
            (i for i, b in enumerate(basis) if b[0][0] == pos and K.expo_divides(b[0][1], expo)),
            None,
        )
        if hit is None:
            out.append(work[0])
            work = work[1:]
            continue
        _, lexpo, lnum, lden = basis[hit][0]
        qe = K.expo_sub(expo, lexpo)
        qn, qd = K.frac_div(num, den, lnum, lden)
        if track:
            cofs[hit].append((0, qe, qn, qd))
        work = K.sub(work, K.mul_term(basis[hit], qe, qn, qd), weights, nelim, possplit)
    if track:
        cofs = [K.canon(c, (0,), nelim, 0) for c in cofs]
    return tuple(out), cofs


@st.composite
def division_cases(draw):
    """(f, basis, order, multiple): 1-3 positions, every nelim/possplit
    combination, a basis that need not be a Groebner basis and whose leading
    coefficients need not be 1.  When `multiple` is set, f is a multiple of
    the one basis element, so the division cancels it to zero."""
    K = IMPLS["python"]
    npos = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(0, 2), min_size=npos, max_size=npos)))
    order = (weights, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 5))

    def poly(max_terms, npos=npos, order=order):
        terms = st.lists(st.tuples(st.integers(0, npos - 1), expo, coeff), max_size=max_terms)
        return terms.map(lambda ts: K.canon([(p, e, n, d) for p, e, (n, d) in ts], *order))

    basis = [b for b in draw(st.lists(poly(4), min_size=1, max_size=3)) if b]
    if basis and draw(st.booleans()):
        q = draw(poly(3, npos=1, order=((0,), order[1], 0)))
        return K.mul(q, basis[0], *order), basis[:1], order, True
    return draw(poly(8)), basis, order, False


@settings(max_examples=300, deadline=None)
@given(division_cases(), st.booleans())
def test_reduce_matches_reference(case, track):
    """Remainder and cofactors of every kernel equal the merge-based division's."""
    f, basis, order, multiple = case
    expected = reference_reduce(f, basis, *order, track)
    if multiple:
        assert expected[0] == ()
    for K in IMPLS.values():
        assert K.reduce(f, list(basis), *order, track) == expected


def test_parity_between_kernels():
    if len(IMPLS) < 2:
        pytest.skip("compiled kernel not built")
    py, cy = IMPLS["python"], IMPLS["c"]
    rng = random.Random(99)
    for _ in range(200):
        order = ((0, 2), rng.choice((0, 1)), rng.choice((0, 1)))
        f = py.canon(rand_terms(rng), *order)
        g = py.canon(rand_terms(rng), *order)
        assert f == cy.canon(list(f), *order)
        assert py.add(f, g, *order) == cy.add(f, g, *order)
        assert py.sub(f, g, *order) == cy.sub(f, g, *order)
        h = py.canon(rand_terms(rng), *order)
        basis = [b for b in (f, g) if b]
        assert py.reduce(h, basis, *order, True) == cy.reduce(h, list(basis), *order, True)
        if f and g and f[0][0] == g[0][0]:
            assert py.spoly(f, g, *order) == cy.spoly(f, g, *order)


def test_kernel_name_consistent():
    assert kernel_name() in IMPLS
