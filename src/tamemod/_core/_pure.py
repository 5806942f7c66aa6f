"""Pure-Python kernel for sparse exact-rational term arithmetic.

This is the fallback twin of the compiled extension ``_speedups``; both expose
the same functions on the same data layout, and ``tamemod._core`` picks one at
import time.

Data layout (shared with the compiled kernel):

  term  = (pos, expo, num, den)
          pos:  generator index in the ambient free module (0 for ring polys)
          expo: tuple of per-variable exponents
          num/den: exact rational coefficient, den > 0, gcd(|num|, den) = 1
  poly  = tuple of terms, strictly descending in the monomial order, no zeros
  order = (weights, nelim, possplit)
          weights:  per-position weight added to the exponent sum
          nelim:    leading variables forming a dominant elimination block
          possplit: positions < possplit dominate positions >= possplit

The order is graded reverse-lexicographic on the exponents (ties broken by
position), optionally preceded by the two elimination comparisons.  All
comparisons are invariant under multiplication by a ring monomial, so term
multiplication never re-sorts.
"""

from heapq import heapify, heappop, heappush
from math import gcd
from operator import add as _add
from operator import sub as _sub

KERNEL = "python"


def _norm(num, den):
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return num, den


def frac_add(n1, d1, n2, d2):
    return _norm(n1 * d2 + n2 * d1, d1 * d2)


def frac_mul(n1, d1, n2, d2):
    return _norm(n1 * n2, d1 * d2)


def frac_div(n1, d1, n2, d2):
    return _norm(n1 * d2, d1 * n2)


def expo_divides(a, b):
    """True when monomial a divides monomial b (componentwise <=)."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def expo_sub(b, a):
    return tuple(map(_sub, b, a))


def expo_add(a, b):
    return tuple(map(_add, a, b))


def expo_lcm(a, b):
    return tuple(map(max, a, b))


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


def canon(terms, weights, nelim, possplit):
    """Merge duplicates, drop zeros, sort descending; returns a canonical poly."""
    acc = {}
    for pos, expo, num, den in terms:
        if num == 0:
            continue
        key = (pos, expo)
        if key in acc:
            n0, d0 = acc[key]
            n, d = frac_add(n0, d0, num, den)
            if n == 0:
                del acc[key]
            else:
                acc[key] = (n, d)
        else:
            acc[key] = _norm(num, den)
    out = [(pos, expo, n, d) for (pos, expo), (n, d) in acc.items()]
    out.sort(key=lambda t: sort_key(t[0], t[1], weights, nelim, possplit), reverse=True)
    return tuple(out)


def neg(f):
    return tuple((p, e, -n, d) for p, e, n, d in f)


def scale(f, num, den):
    if num == 0:
        return ()
    num, den = _norm(num, den)
    return tuple((p, e) + frac_mul(n, d, num, den) for p, e, n, d in f)


def mul_term(f, expo, num, den):
    """Multiply by a ring term; order-preserving, so no re-sort."""
    if num == 0:
        return ()
    num, den = _norm(num, den)
    if num == 1 and den == 1:
        return tuple((p, expo_add(e, expo), n, d) for p, e, n, d in f)
    return tuple((p, expo_add(e, expo)) + frac_mul(n, d, num, den) for p, e, n, d in f)


def _merge(f, g, weights, nelim, possplit):
    """Sum of two canonical polys via a sorted two-pointer merge."""
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
            n, d = frac_add(tf[2], tf[3], tg[2], tg[3])
            if n != 0:
                out.append((tf[0], tf[1], n, d))
            i += 1
            j += 1
    if i < nf:
        out.extend(f[i:])
    if j < ng:
        out.extend(g[j:])
    return out


def add(f, g, weights, nelim, possplit):
    return tuple(_merge(f, g, weights, nelim, possplit))


def sub(f, g, weights, nelim, possplit):
    return tuple(_merge(f, neg(g), weights, nelim, possplit))


def mul(f, g, weights, nelim, possplit):
    """Product of a ring poly f (all positions 0) with a module poly g."""
    acc = {}
    for _, ef, nf_, df in f:
        for pos, eg, ng_, dg in g:
            key = (pos, expo_add(ef, eg))
            n2, d2 = frac_mul(nf_, df, ng_, dg)
            if key in acc:
                n0, d0 = acc[key]
                n2, d2 = frac_add(n0, d0, n2, d2)
            if n2 == 0:
                acc.pop(key, None)
            else:
                acc[key] = (n2, d2)
    out = [(pos, expo, n, d) for (pos, expo), (n, d) in acc.items()]
    out.sort(key=lambda t: sort_key(t[0], t[1], weights, nelim, possplit), reverse=True)
    return tuple(out)


def _heap_entry(pos, expo, weights, nelim, possplit):
    """Heap entry of a module monomial: its sort_key negated, then the monomial.

    heapq pops the smallest entry, which is the largest term in the order, and
    the tuple comparison runs in C.
    """
    return (
        -1 if possplit and pos < possplit else 0,
        -sum(expo[:nelim]) if nelim else 0,
        -weights[pos] - sum(expo),
        expo[::-1],
        pos,
        expo,
    )


def reduce(f, basis, weights, nelim, possplit, track=False):
    """Full normal form of f modulo basis, by heap division.

    Division order: the largest pending term (in the monomial order) is taken
    first.  Its divisor is the first basis element, in list order, whose
    leading term has the same position and a monomial dividing it; if there is
    none, the term moves to the remainder.  Exact arithmetic and this order
    fix every step, so the remainder and the cofactors are the same on every
    kernel.

    Returns (remainder, cofactors) where cofactors[i] is the ring poly q_i with
    f = sum q_i basis_i + remainder; cofactors is None unless track is set.
    """
    leads = [b[0] for b in basis]
    cofs = [[] for _ in basis] if track else None
    # Pending terms: (pos, expo) -> coefficient.  The heap holds an entry for
    # every pending term; a term that cancels leaves its entry behind, to be
    # skipped when popped.
    pending = {}
    heap = []
    for pos, expo, num, den in f:
        pending[pos, expo] = (num, den)
        heap.append(_heap_entry(pos, expo, weights, nelim, possplit))
    heapify(heap)
    out = []
    while heap:
        entry = heappop(heap)
        pos = entry[4]
        expo = entry[5]
        coeff = pending.pop((pos, expo), None)
        if coeff is None:
            continue
        num, den = coeff
        for i, lt in enumerate(leads):
            if lt[0] == pos and expo_divides(lt[1], expo):
                break
        else:
            out.append((pos, expo, num, den))
            continue
        _, lexpo, lnum, lden = leads[i]
        qe = expo_sub(expo, lexpo)
        qn, qd = frac_div(num, den, lnum, lden)
        if track:
            cofs[i].append((qe, qn, qd))
        # pending -= q * basis[i]; the leading terms cancel exactly, so only
        # the tail is added, and every new monomial is below expo.
        for p, e, n, d in basis[i][1:]:
            e = expo_add(e, qe)
            key = (p, e)
            tn = -qn * n
            td = qd * d
            old = pending.get(key)
            if old is None:
                pending[key] = _norm(tn, td)
                heappush(heap, _heap_entry(p, e, weights, nelim, possplit))
            else:
                n0, d0 = old
                tn, td = _norm(n0 * td + tn * d0, d0 * td)
                if tn:
                    pending[key] = (tn, td)
                else:
                    del pending[key]
    if track:
        ring_order = ((0,), nelim, 0)
        cofs = [canon([(0, e, n, d) for e, n, d in c], *ring_order) for c in cofs]
    return tuple(out), cofs


def spoly(f, g, weights, nelim, possplit):
    """S-polynomial of two polys whose leading terms share a position."""
    p1, e1, n1, d1 = f[0]
    p2, e2, n2, d2 = g[0]
    if p1 != p2:
        raise ValueError("spoly requires leading terms in the same position")
    lcm = expo_lcm(e1, e2)
    a = mul_term(f, expo_sub(lcm, e1), d1, n1)
    b = mul_term(g, expo_sub(lcm, e2), d2, n2)
    return sub(a, b, weights, nelim, possplit)
