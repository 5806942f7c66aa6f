"""Kernel-level checks: canonical form, arithmetic exactness, the packed
monomial layout against the tuple-layout order, and heap division against a
merge-based reference."""

import random
import struct
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamemod._core import impl, kernel_name
from tamemod._core._pure import DIVMASK, LIMIT, _norm
from tamemod.errors import ResourceCapError

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
            assert cmp_terms(a[0], a[1], b[0], b[1], *ORDER) > 0


def test_coefficients_normalized(K):
    f = K.canon([(0, (1, 0, 0), 2, -4)], *ORDER)
    assert f == ((0, (1, 0, 0), -1, 2),)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_add_sub_roundtrip(data):
    """(a + b) - b == a exactly."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = impl.canon(rand_terms(rng), *ORDER)
    b = impl.canon(rand_terms(rng), *ORDER)
    assert impl.sub(impl.add(a, b, *ORDER), b, *ORDER) == a


def _delta(pk, expo):
    """Packed (key, dkey) deltas of the ring monomial expo."""
    (k0, d0, _, _), (k, d, _, _) = pk.pack(((0, (0,) * len(expo), 1, 1), (0, expo, 1, 1)))
    return k - k0, d - d0


def test_mul_term_preserves_order(K):
    rng = random.Random(7)
    pk = K.packing(*ORDER, 3)
    key, dkey = _delta(pk, (1, 2, 0))
    for _ in range(40):
        f = K.canon(rand_terms(rng), *ORDER)
        g = K.mul_term(pk.pack(f), key, dkey, 3, 2)
        assert [t[0] for t in g] == sorted((t[0] for t in g), reverse=True)
        assert pk.unpack(g) == K.mul(((0, (1, 2, 0), 3, 2),), f, *ORDER)
        assert g == pk.pack(pk.unpack(g))


def test_reduce_cancels_leading_terms(K):
    # reduce x^2 by {x - y}: remainder y^2 (positions collapsed to 0)
    pk = K.packing((0,), 0, 0, 2)
    x2 = ((0, (2, 0), 1, 1),)
    xminusy = ((0, (1, 0), 1, 1), (0, (0, 1), -1, 1))
    rem, _ = K.reduce(pk.pack(x2), [pk.pack(xminusy)], False)
    assert pk.unpack(rem) == ((0, (0, 2), 1, 1),)


def test_reduce_tracks_exact_cofactors(K):
    order = ((0,), 0, 0)
    pk = K.packing(*order, 2)
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
        rem, cofs = K.reduce(pk.pack(f), [pk.pack(b) for b in basis], True)
        recombined = pk.unpack(rem)
        for q, b in zip(cofs, basis):
            recombined = K.add(recombined, K.mul(pk.unpack(q), b, *order), *order)
        assert recombined == f


def test_reduce_raises_when_a_degree_leaves_its_field(K):
    # under the elimination order x - y^20000 leads with x, so x^2 reduces to
    # y^40000, whose weighted degree does not fit a packed field
    pk = K.packing((0,), 1, 0, 2)
    x2 = pk.pack(((0, (2, 0), 1, 1),))
    g = pk.pack(((0, (1, 0), 1, 1), (0, (0, 20000), -1, 1)))
    with pytest.raises(ResourceCapError):
        K.reduce(x2, [g], False)
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


# -- tuple-layout arithmetic against the tuple-layout order ------------------


def sort_key(pos, expo, weights, nelim, possplit):
    """Tuple key realizing cmp_terms for max()/sort()."""
    blk = 1 if (possplit and pos < possplit) else 0
    elim = sum(expo[:nelim]) if nelim else 0
    wdeg = sum(expo) + weights[pos]
    return (blk, elim, wdeg, tuple(-e for e in reversed(expo)), -pos)


def reference_canon(terms, weights, nelim, possplit):
    """The canon that sorted by sort_key, kept as the oracle."""
    acc = {}
    for pos, expo, num, den in terms:
        if num == 0:
            continue
        key = (pos, expo)
        if key in acc:
            n0, d0 = acc[key]
            n, d = _norm(n0 * den + num * d0, d0 * den)
            if n == 0:
                del acc[key]
            else:
                acc[key] = (n, d)
        else:
            acc[key] = _norm(num, den)
    out = [(pos, expo, n, d) for (pos, expo), (n, d) in acc.items()]
    out.sort(key=lambda t: sort_key(t[0], t[1], weights, nelim, possplit), reverse=True)
    return tuple(out)


def reference_merge(f, g, weights, nelim, possplit):
    """The add that merged two canonical polys by cmp_terms, kept as the
    oracle."""
    out = []
    i = 0
    j = 0
    nf = len(f)
    ng = len(g)
    while i < nf and j < ng:
        tf = f[i]
        tg = g[j]
        c = cmp_terms(tf[0], tf[1], tg[0], tg[1], weights, nelim, possplit)
        if c > 0:
            out.append(tf)
            i += 1
        elif c < 0:
            out.append(tg)
            j += 1
        else:
            n, d = _norm(tf[2] * tg[3] + tg[2] * tf[3], tf[3] * tg[3])
            if n != 0:
                out.append((tf[0], tf[1], n, d))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    if j < ng:
        out.extend(g[j:])
    return tuple(out)


def reference_mul(f, g, weights, nelim, possplit):
    """The mul that merged products in a dict and sorted by sort_key, kept as
    the oracle."""
    acc = {}
    for _, ef, nf_, df in f:
        for pos, eg, ng_, dg in g:
            key = (pos, impl.expo_add(ef, eg))
            n2, d2 = _norm(nf_ * ng_, df * dg)
            if key in acc:
                n0, d0 = acc[key]
                n2, d2 = _norm(n0 * d2 + n2 * d0, d0 * d2)
            if n2 == 0:
                acc.pop(key, None)
            else:
                acc[key] = (n2, d2)
    out = [(pos, expo, n, d) for (pos, expo), (n, d) in acc.items()]
    out.sort(key=lambda t: sort_key(t[0], t[1], weights, nelim, possplit), reverse=True)
    return tuple(out)


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

    return order, raw(npos), raw(npos), raw(1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arithmetic_cases())
def test_arithmetic_matches_tuple_order(case):
    """canon, add, sub and mul equal the sort_key and cmp_terms code, or,
    where a term they pack does not fit a field, raise ResourceCapError."""
    order, ra, rb, rq = case
    weights = order[0]
    lo = min(weights)

    def check(expected, packed, call):
        if all(weights[p] - lo + sum(e) < LIMIT for f in packed for p, e, _, _ in f):
            assert call() == expected
        else:
            with pytest.raises(ResourceCapError):
                call()

    a, b, q = (reference_canon(r, *order) for r in (ra, rb, rq))
    check(a, [a], lambda: impl.canon(ra, *order))
    check(reference_merge(a, b, *order), [a, b], lambda: impl.add(a, b, *order))
    check(reference_merge(a, impl.neg(b), *order), [a, b], lambda: impl.sub(a, b, *order))
    prod = reference_mul(q, b, *order)
    check(prod, [prod], lambda: impl.mul(q, b, *order))


def test_canon_raises_past_60_variables():
    # a packed key holds at most 60 exponent fields
    x = ((0, (1,) + (0,) * 59, 1, 1),)
    assert impl.canon(x, (0,), 0, 0) == x
    x = ((0, (1,) + (0,) * 60, 1, 1),)
    for op in (lambda: impl.canon(x, (0,), 0, 0), lambda: impl.add(x, x, (0,), 0, 0), lambda: impl.mul(x, x, (0,), 0, 0)):
        with pytest.raises(ResourceCapError):
            op()


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
        try:
            f = impl.canon(terms, *order)
            expected = reference_pack(pk, f)
        except ResourceCapError:
            f = reference_canon(terms, *order)
            with pytest.raises(ResourceCapError):
                reference_pack(pk, f)
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
        f = impl.canon([(k % 2, (k, 1, 0), 1, 1), (0, (k % 5, 0, 2), -2, 1)], *order)
        packed = pk.pack(f)
        assert packed == reference_pack(pk, f)
        assert pk.unpack(packed) == f
        assert len(pk.table) <= 8 and len(pk.expos) <= 8


# -- heap division against the merge-based reference --------------------------


def reference_reduce(f, basis, weights, nelim, possplit, track=False):
    """Division by re-merging the whole pending tail after every step, on the
    tuple layout.

    The merge-based reduce that heap division replaced, kept as the oracle:
    the largest pending term goes first and the first basis element whose
    leading monomial divides it is the divisor.
    """
    K = impl
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
        qe = tuple(x - y for x, y in zip(expo, lexpo))
        q = Fraction(num, den) / Fraction(lnum, lden)
        term = (0, qe, q.numerator, q.denominator)
        if track:
            cofs[hit].append(term)
        work = K.sub(work, K.mul((term,), basis[hit], weights, nelim, possplit), weights, nelim, possplit)
    if track:
        cofs = [K.canon(c, (0,), nelim, 0) for c in cofs]
    return tuple(out), cofs


@st.composite
def division_cases(draw):
    """(f, basis, order, multiple): 1-3 positions, weights that may be
    negative, every nelim/possplit combination, a basis that need not be a
    Groebner basis and whose leading coefficients need not be 1.  When
    `multiple` is set, f is a multiple of the one basis element, so the
    division cancels it to zero."""
    K = impl
    npos = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(-2, 2), min_size=npos, max_size=npos)))
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
    """Packed remainder and cofactors equal the merge-based division's."""
    f, basis, order, multiple = case
    nvars = len((f or basis[0])[0][1]) if (f or basis) else 1
    expected_rem, expected_cofs = reference_reduce(f, basis, *order, track)
    if multiple:
        assert expected_rem == ()
    pk = impl.packing(*order, nvars)
    rem, cofs = impl.reduce(pk.pack(f), [pk.pack(b) for b in basis], track)
    assert rem == pk.pack(expected_rem)
    if track:
        assert [pk.unpack(c) for c in cofs] == expected_cofs
    else:
        assert cofs is None


def test_kernel_name_consistent():
    assert kernel_name() == "python"
