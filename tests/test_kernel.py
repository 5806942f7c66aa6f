"""Kernel-level checks: canonical form, arithmetic exactness, the packed
monomial layout against the exponent-tuple order, and heap division against a
reference on {(position, exponent tuple): Fraction} dicts."""

import random
import struct
from fractions import Fraction
from operator import add, le, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamemod._core import impl, kernel_name
from tamemod._core._pure import DIVMASK, FIELD, LIMIT, _minus, _norm
from tamemod.errors import ResourceCapError

ORDER = ((0, 1), 0, 0)  # two positions, weights 0 and 1
RING = ((0,), 0, 0)


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


@pytest.fixture(params=[kernel_name()])
def K(request):
    return impl


# The kernel's own comparison before the packed key became the only
# definition of the order, kept as the reference the packed order is checked
# against.
def cmp_terms(p1, e1, p2, e2, weights, nelim, possplit):
    """Three-way comparison of module monomials; positive when the first is larger."""
    if possplit:
        b1 = 1 if p1 < possplit else 0
        b2 = 1 if p2 < possplit else 0
        if b1 != b2:
            return b1 - b2
    if nelim:
        s1 = 0
        s2 = 0
        for i in range(nelim):
            s1 += e1[i]
            s2 += e2[i]
        if s1 != s2:
            return s1 - s2
    w1 = weights[p1]
    for x in e1:
        w1 += x
    w2 = weights[p2]
    for x in e2:
        w2 += x
    if w1 != w2:
        return w1 - w2
    for i in range(len(e1) - 1, -1, -1):
        if e1[i] != e2[i]:
            # grevlex: smaller exponent at the rightmost difference wins
            return e2[i] - e1[i]
    return p2 - p1


def sort_key(pos, expo, weights, nelim, possplit):
    """Tuple key realizing cmp_terms for max()/sort()."""
    blk = 1 if (possplit and pos < possplit) else 0
    elim = sum(expo[:nelim]) if nelim else 0
    wdeg = sum(expo) + weights[pos]
    return (blk, elim, wdeg, tuple(-e for e in reversed(expo)), -pos)


def oracle(terms):
    """{(pos, expo): Fraction} of (pos, expo, num, den) terms: repeats
    summed, zeros dropped."""
    acc = {}
    for pos, expo, num, den in terms:
        acc[pos, expo] = acc.get((pos, expo), 0) + Fraction(num, den)
    return {m: c for m, c in acc.items() if c}


def tuple_poly(d, weights, nelim, possplit):
    """An oracle dict as (pos, expo, num, den) terms, descending by sort_key."""
    monos = sorted(d, key=lambda m: sort_key(*m, weights, nelim, possplit), reverse=True)
    return tuple((p, e, d[p, e].numerator, d[p, e].denominator) for p, e in monos)


def reference_canon(terms, weights, nelim, possplit):
    """The canonical exponent-tuple form of raw terms, from the oracle."""
    return tuple_poly(oracle(terms), weights, nelim, possplit)


def test_canon_merges_and_drops_zeros(K):
    e = (1, 0, 0)
    pk = K.packing(*ORDER, 3)
    out = K.canon(pk.pack([(0, e, 1, 2), (0, e, 1, 2), (0, (0, 1, 0), 0, 1)]))
    assert out == pk.pack(((0, e, 1, 1),))


def test_canon_sorted_descending(K):
    rng = random.Random(1)
    pk = K.packing(*ORDER, 3)
    for _ in range(50):
        raw = rand_terms(rng)
        f = K.canon(pk.pack(raw))
        assert [t[0] for t in f] == sorted({t[0] for t in f}, reverse=True)
        back = pk.unpack(f)
        for a, b in zip(back, back[1:]):
            assert cmp_terms(a[0], a[1], b[0], b[1], *ORDER) > 0
        assert oracle(back) == oracle(raw)


def test_coefficients_normalized(K):
    pk = K.packing(*ORDER, 3)
    assert K.canon(pk.pack([(0, (1, 0, 0), 2, -4)])) == pk.pack(((0, (1, 0, 0), -1, 2),))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_add_sub_roundtrip(data):
    """(a + b) - b == a exactly."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pk = impl.packing(*ORDER, 3)
    a = pk.build(rand_terms(rng))
    b = pk.build(rand_terms(rng))
    assert impl.sub(impl.add(a, b), b) == a


def _delta(pk, expo):
    """Packed (key, dkey) deltas of the ring monomial expo."""
    (k0, d0, _, _), (k, d, _, _) = pk.pack(((0, (0,) * len(expo), 1, 1), (0, expo, 1, 1)))
    return k - k0, d - d0


def test_mul_term_preserves_order(K):
    rng = random.Random(7)
    pk = K.packing(*ORDER, 3)
    key, dkey = _delta(pk, (1, 2, 0))
    for _ in range(40):
        f = pk.build(rand_terms(rng))
        g = K.mul_term(f, key, dkey)
        assert [t[0] for t in g] == sorted((t[0] for t in g), reverse=True)
        assert g == K.mul(K.packing(*RING, 3).pack(((0, (1, 2, 0), 1, 1),)), f)
        assert g == pk.pack(pk.unpack(g))


# -- S-polynomials of monic polys -------------------------------------------------


def reference_mul_term(f, key, dkey, num, den):
    """mul_term as it was when it also scaled by num/den, kept as spoly's oracle."""
    if num == 0:
        return ()
    num, den = _norm(num, den)
    if num == 1 and den == 1:
        return tuple((k + key, d + dkey, n, dn) for k, d, n, dn in f)
    return tuple((k + key, d + dkey) + _norm(n * num, dn * den) for k, d, n, dn in f)


def reference_spoly(f, g, lcm):
    """spoly as it was when it divided each poly by its leading coefficient."""
    lk, ld = lcm
    k1, d1, n1, den1 = f[0]
    k2, d2, n2, den2 = g[0]
    a = reference_mul_term(f, lk - k1, ld - d1, den1, n1)
    b = reference_mul_term(g, lk - k2, ld - d2, den2, n2)
    return _minus(a, b, 1, 1)


@st.composite
def spoly_cases(draw):
    """(f, g, order, nvars): two monic packed polys led in one position,
    under an order on 1-3 positions with weights that may be negative, nelim
    0 or 1 (an elimination order) and possplit 0 or 1; their other terms may
    lie in any position, and their coefficients need not be integers."""
    npos = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(-2, 2), min_size=npos, max_size=npos)))
    order = (weights, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    pk = impl.packing(*order, nvars)
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 5))
    terms = st.lists(st.tuples(st.integers(0, npos - 1), expo, coeff), min_size=1, max_size=5)
    poly = terms.map(lambda ts: pk.build([(p, e, n, d) for p, e, (n, d) in ts])).filter(bool)
    f = draw(poly)
    g = draw(poly.filter(lambda g: g[0][1] & FIELD == f[0][1] & FIELD))
    # monic, as _buchberger keeps its basis
    f, g = (impl.scale(h, h[0][3], h[0][2]) for h in (f, g))
    return f, g, order, nvars


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spoly_cases())
def test_spoly_of_monic_polys_matches_rescaling_spoly(case):
    """On monic inputs the S-polynomial that reads no coefficient equals the
    one that divided by the leading coefficients."""
    f, g, order, nvars = case
    pk = impl.packing(*order, nvars)
    assert f[0][2:] == g[0][2:] == (1, 1)
    lcm = pk.lcm(f[0], g[0])
    s = impl.spoly(f, g, lcm)
    assert s == reference_spoly(f, g, lcm)
    assert all(t[0] < lcm[0] for t in s)


def test_reduce_cancels_leading_terms(K):
    # reduce x^2 by {x - y}: remainder y^2 (positions collapsed to 0)
    pk = K.packing((0,), 0, 0, 2)
    x2 = ((0, (2, 0), 1, 1),)
    xminusy = ((0, (1, 0), 1, 1), (0, (0, 1), -1, 1))
    rem, _ = K.reduce(pk.pack(x2), [pk.pack(xminusy)])
    assert pk.unpack(rem) == ((0, (0, 2), 1, 1),)


def test_reduce_raises_when_a_degree_leaves_its_field(K):
    # under the elimination order x - y^20000 leads with x, so x^2 reduces to
    # y^40000, whose weighted degree does not fit a packed field
    pk = K.packing((0,), 1, 0, 2)
    x2 = pk.pack(((0, (2, 0), 1, 1),))
    g = pk.pack(((0, (1, 0), 1, 1), (0, (0, 20000), -1, 1)))
    with pytest.raises(ResourceCapError):
        K.reduce(x2, [g])
    with pytest.raises(ResourceCapError):
        pk.pack(((0, (LIMIT, 0), 1, 1),))


# -- packed layout against the tuple layout ---------------------------------


@st.composite
def packing_cases(draw):
    """An order on 1-4 positions with weights that may be negative, nelim 0
    or 1, possplit 0 or some k, and two monomials of 1-6 variables.  The
    second is often a near tie of the first: the same monomial, the same
    position, one unit of degree moved between two variables, or another
    position with e_0 shifted by the weight difference, so that the
    weighted degree and every Q_k but Q_0 agree."""
    nvars = draw(st.integers(1, 6))
    npos = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(-3, 3), min_size=npos, max_size=npos)))
    order = (weights, draw(st.integers(0, 1)), draw(st.sampled_from([0, draw(st.integers(1, npos))])))
    expo = st.tuples(*[st.integers(0, 4)] * nvars)
    p1, e1 = draw(st.integers(0, npos - 1)), draw(expo)
    kind = draw(st.sampled_from(["any", "same", "position", "moved", "weight"]))
    p2, e2 = draw(st.integers(0, npos - 1)), draw(expo)
    if kind == "same":
        p2, e2 = p1, e1
    elif kind == "position":
        p2 = p1
    elif kind == "moved":
        i, j = draw(st.integers(0, nvars - 1)), draw(st.integers(0, nvars - 1))
        e2 = list(e1)
        if e2[i]:
            e2[i] -= 1
            e2[j] += 1
        p2, e2 = p1, tuple(e2)
    elif kind == "weight" and e1[0] + weights[p1] - weights[p2] >= 0:
        e2 = (e1[0] + weights[p1] - weights[p2],) + e1[1:]
    return order, nvars, (p1, e1), (p2, e2)


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(packing_cases())
def test_packed_keys_match_tuple_order(case):
    order, nvars, (p1, e1), (p2, e2) = case
    pk = impl.packing(*order, nvars)
    (k1, d1, _, _), (k2, d2, _, _) = pk.pack(((p1, e1, 1, 1), (p2, e2, 1, 1)))
    s1, s2 = sort_key(p1, e1, *order), sort_key(p2, e2, *order)
    assert _sign(k1 - k2) == _sign(cmp_terms(p1, e1, p2, e2, *order)) == (s1 > s2) - (s1 < s2)
    # divisibility key: componentwise <= in the same position
    assert (not (d2 - d1) & DIVMASK) == (p1 == p2 and all(x <= y for x, y in zip(e1, e2)))
    assert pk.unpack(((k1, d1, 1, 1),)) == ((p1, e1, 1, 1),)
    # linearity: multiplying by the monomial e2 adds its deltas
    key, dkey = _delta(pk, e2)
    ((k3, d3, _, _),) = pk.pack(((p1, tuple(map(sum, zip(e1, e2))), 1, 1),))
    assert (k1 + key, d1 + dkey) == (k3, d3)
    if p1 == p2:
        lcm = tuple(map(max, e1, e2))
        ((kl, dl, _, _),) = pk.pack(((p1, lcm, 1, 1),))
        assert pk.lcm((k1, d1), (k2, d2)) == (kl, dl)
        coprime = not any(x and y for x, y in zip(e1, e2))
        assert coprime == (not pk.support(d1) & pk.support(d2))


# -- packed arithmetic against the Fraction oracle ----------------------------


@st.composite
def arithmetic_cases(draw):
    """An order on 1-6 variables and 1-4 positions, with weights that may be
    negative, nelim 0 or 1 and possplit 0 or a k that splits the positions,
    and raw terms drawn from a few shared exponent tuples, so with repeats,
    and with zero coefficients.  One tuple is often of a degree just below
    LIMIT, so that it fits some positions and not others, and a product with
    it may not fit at all."""
    nvars = draw(st.integers(1, 6))
    npos = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.integers(-3, 3), min_size=npos, max_size=npos)))
    order = (weights, draw(st.integers(0, 1)), draw(st.sampled_from([0, draw(st.integers(1, max(1, npos - 1)))])))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append((LIMIT - 1 - draw(st.integers(0, 8)),) + (0,) * (nvars - 1))

    def raw(npos):
        term = st.tuples(st.integers(0, npos - 1), st.sampled_from(pool), st.integers(-3, 3), st.integers(1, 3))
        return draw(st.lists(term, min_size=1, max_size=6))

    return order, nvars, raw(npos), raw(npos), raw(1)


def _fits(pk, monos):
    return all(pk.shift[p] + sum(e) < LIMIT for p, e in monos)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arithmetic_cases())
def test_arithmetic_matches_tuple_order(case):
    """canon, add, sub and mul of packed terms give the oracle's Fraction sums
    and products, descending by sort_key once unpacked, or, where a term does
    not fit a field, raise ResourceCapError."""
    order, nvars, ra, rb, rq = case
    ring_order = ((0,), order[1], 0)
    pk, ring = impl.packing(*order, nvars), impl.packing(*ring_order, nvars)

    def built(layout, raw):
        # raw terms that do not fit make pack, and so build, raise
        kept = [t for t in raw if t[2] and _fits(layout, [t[:2]])]
        if len(kept) < len([t for t in raw if t[2]]):
            with pytest.raises(ResourceCapError):
                layout.build(raw)
        assert impl.canon(layout.pack(kept)) == layout.build(kept)
        return layout.build(kept), oracle(kept)

    (a, da), (b, db), (q, dq) = built(pk, ra), built(pk, rb), built(ring, rq)
    assert pk.unpack(a) == tuple_poly(da, *order) and ring.unpack(q) == tuple_poly(dq, *ring_order)
    total = oracle([(p, e, c.numerator, c.denominator) for d in (da, db) for (p, e), c in d.items()])
    assert pk.unpack(impl.add(a, b)) == tuple_poly(total, *order)
    assert impl.sub(impl.add(a, b), b) == a and impl.sub(a, a) == ()
    assert pk.unpack(impl.sub(a, impl.neg(b))) == tuple_poly(total, *order)
    prod = {}
    for (_, e1), c1 in dq.items():
        for (p, e2), c2 in db.items():
            m = (p, tuple(map(add, e1, e2)))
            prod[m] = prod.get(m, 0) + c1 * c2
    prod = {m: c for m, c in prod.items() if c}
    if _fits(pk, prod):
        assert pk.unpack(impl.mul(q, b)) == tuple_poly(prod, *order)
    else:
        with pytest.raises(ResourceCapError):
            impl.mul(q, b)


def test_canon_raises_past_60_variables():
    # a packed key holds at most 60 exponent fields
    x = ((0, (1,) + (0,) * 59, 1, 1),)
    pk = impl.packing((0,), 0, 0, 60)
    assert pk.unpack(impl.mul(pk.build(x), pk.build(x))) == ((0, (2,) + (0,) * 59, 1, 1),)
    with pytest.raises(ResourceCapError):
        impl.packing((0,), 0, 0, 61)


@st.composite
def rebase_cases(draw):
    """Two orders on one (nvars, nelim), weights that may be negative, a
    position offset that keeps the source positions in the target, and a
    poly in the source order drawn from a few exponent tuples, one often of a
    degree just below LIMIT, so that it fits the source and may not fit the
    target."""
    nvars = draw(st.integers(1, 4))
    nelim = draw(st.integers(0, 1))
    nsrc = draw(st.integers(1, 3))
    offset = draw(st.integers(0, 2))
    orders = []
    for npos in (nsrc, nsrc + offset + draw(st.integers(0, 1))):
        weights = tuple(draw(st.lists(st.integers(-3, 3), min_size=npos, max_size=npos)))
        orders.append((weights, nelim, draw(st.sampled_from([0, draw(st.integers(1, npos))]))))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append((LIMIT - 1 - draw(st.integers(0, 3)),) + (0,) * (nvars - 1))
    term = st.tuples(st.integers(0, nsrc - 1), st.sampled_from(pool), st.integers(-3, 3), st.just(1))
    src = impl.packing(*orders[0], nvars)
    raw = [t for t in draw(st.lists(term, max_size=6)) if _fits(src, [t[:2]])]
    return src, impl.packing(*orders[1], nvars), offset, src.build(raw)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rebase_cases())
def test_rebase_matches_repacking(case):
    """rebase equals packing the terms' exponent tuples again under the
    target order at the moved positions, or raises ResourceCapError where a
    term does not fit the target."""
    src, dst, offset, f = case
    moved = [(p + offset, e, n, d) for p, e, n, d in src.unpack(f)]
    if _fits(dst, [t[:2] for t in moved]):
        assert dst.rebase(f, src, offset) == dst.pack(moved)
    else:
        with pytest.raises(ResourceCapError):
            dst.rebase(f, src, offset)


# -- the shared exponent table against per-term encoding ----------------------


def reference_pack(pk, f):
    """The struct-based Packing.pack that the exponent table replaced, kept as
    the oracle: every term is checked and encoded afresh."""
    base, shift, coef = pk.base, pk.shift, pk.coef
    dkeys = struct.Struct(f"<{len(coef) + 1}H")
    out = []
    for pos, expo, num, den in f:
        if shift[pos] + sum(expo) >= LIMIT:
            raise ResourceCapError(
                f"weighted degree {shift[pos] + sum(expo)} does not fit a packed field "
                f"(limit {LIMIT - 1})"
            )
        dkey = int.from_bytes(dkeys.pack(pos, *expo), "little")
        out.append((base[pos] + sum(map(mul, expo, coef)), dkey, num, den))
    return tuple(out)


@st.composite
def table_cases(draw):
    """Orders on one variable count, with both elimination blocks 0 and 1,
    weights that may be negative and possplit 0 or some k, and polys drawn
    from a few shared exponent tuples, one of them often of a degree just
    below LIMIT, so that it fits some positions of some orders and not
    others."""
    nvars = draw(st.integers(1, 4))
    orders = []
    for nelim in (0, 1, 0, 1):
        npos = draw(st.integers(1, 3))
        weights = tuple(draw(st.lists(st.integers(-3, 3), min_size=npos, max_size=npos)))
        orders.append((weights, nelim, draw(st.sampled_from([0, draw(st.integers(1, npos))]))))
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    pool = draw(st.lists(expo, min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append((LIMIT - 1 - draw(st.integers(0, 6)),) + (0,) * (nvars - 1))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.sampled_from(orders))
        npos = len(order[0])
        terms = [
            (draw(st.integers(0, npos - 1)), tuple(draw(st.sampled_from(pool))), draw(st.integers(-3, 3)), 1)
            for _ in range(draw(st.integers(0, 4)))
        ]
        steps.append((order, terms))
    return nvars, steps


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table_cases())
def test_table_pack_matches_reference(case):
    nvars, steps = case
    tables = {}
    for order, terms in steps:
        pk = impl.packing(*order, nvars)
        # orders of one nelim share one table, whatever their weights
        assert tables.setdefault(order[1], pk.expos) is pk.expos
        f = reference_canon(terms, *order)
        try:
            expected = reference_pack(pk, f)
        except ResourceCapError:
            with pytest.raises(ResourceCapError):
                pk.pack(f)
            continue
        packed = pk.pack(f)
        assert packed == expected
        back = pk.unpack(packed)
        assert back == f
        # the exponent tuples are the table's own
        assert all(e is pk.expos[d - p] for (p, e, _, _), (_, d, _, _) in zip(back, packed))


def test_table_is_emptied_at_its_cap(monkeypatch):
    # 29 distinct tuples, over three times the cap, packed and unpacked
    # under two orders that share the table
    monkeypatch.setattr(impl, "TABLE_CAP", 8)
    impl.packing.cache_clear()  # a table filled by another test starts empty
    impl._exponent_table.cache_clear()
    orders = [((0, 2), 1, 0), ((1, -1), 1, 1)]
    for k in range(24):
        order = orders[k % 2]
        pk = impl.packing(*order, 3)
        f = reference_canon([(k % 2, (k, 1, 0), 1, 1), (0, (k % 5, 0, 2), -2, 1)], *order)
        packed = pk.pack(f)
        assert packed == reference_pack(pk, f)
        assert pk.unpack(packed) == f
        assert len(pk.table) <= 8 and len(pk.expos) <= 8


# -- heap division against the Fraction reference ------------------------------


def reference_reduce(f, basis, order):
    """Division on {(pos, expo): Fraction} dicts, kept as the oracle: the
    largest pending term by sort_key goes first, and the first basis element
    whose leading monomial divides it is the divisor.  f and basis are in
    (pos, expo, num, den) terms, descending; returns the remainder in that
    form."""
    work = oracle(f)
    out = []
    while work:
        pos, expo = max(work, key=lambda m: sort_key(*m, *order))
        c = work.pop((pos, expo))
        hit = next((i for i, b in enumerate(basis) if b[0][0] == pos and all(map(le, b[0][1], expo))), None)
        if hit is None:
            out.append((pos, expo, c.numerator, c.denominator))
            continue
        _, lexpo, lnum, lden = basis[hit][0]
        qe = tuple(x - y for x, y in zip(expo, lexpo))
        q = c / Fraction(lnum, lden)
        for p, e, n, d in basis[hit][1:]:
            m = (p, tuple(map(add, e, qe)))
            v = work.get(m, 0) - q * Fraction(n, d)
            if v:
                work[m] = v
            else:
                work.pop(m, None)
    return tuple(out)


@st.composite
def division_cases(draw):
    """(f, basis, order, nvars, multiple), packed: 1-3 positions, weights
    that may be negative, every nelim/possplit combination, a basis that need
    not be a Groebner basis and whose leading coefficients need not be 1.
    When `multiple` is set, f is a multiple of the one basis element, so the
    division cancels it to zero."""
    npos = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(-2, 2), min_size=npos, max_size=npos)))
    order = (weights, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    coeff = st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 5))

    def poly(max_terms, npos=npos, order=order):
        pk = impl.packing(*order, nvars)
        terms = st.lists(st.tuples(st.integers(0, npos - 1), expo, coeff), max_size=max_terms)
        return terms.map(lambda ts: pk.build([(p, e, n, d) for p, e, (n, d) in ts]))

    basis = [b for b in draw(st.lists(poly(4), min_size=1, max_size=3)) if b]
    if basis and draw(st.booleans()):
        q = draw(poly(3, npos=1, order=((0,), order[1], 0)))
        return impl.mul(q, basis[0]), basis[:1], order, nvars, True
    return draw(poly(8)), basis, order, nvars, False


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_reduce_matches_reference(case):
    """The packed remainder equals the reference division's."""
    f, basis, order, nvars, multiple = case
    pk = impl.packing(*order, nvars)
    expected_rem = reference_reduce(pk.unpack(f), [pk.unpack(b) for b in basis], order)
    if multiple:
        assert expected_rem == ()
    rem, cofs = impl.reduce(f, basis)
    assert pk.unpack(rem) == expected_rem
    assert cofs is None


def test_kernel_name_consistent():
    assert kernel_name() == "python"
