"""Sparse exact-rational term arithmetic, in two layouts.

Tuple layout, for values and the arithmetic of GradedPoly and FreeElement:

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

Packed layout, for division and Groebner bases (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007):

  term  = (key, dkey, num, den), num/den as above, so a packed term keeps its
          coefficient at t[2] and t[3]

The order key packs these fields of BITS bits each, from the top down:

  position block      1 if possplit and pos < possplit else 0
  elimination degree  e_0 + ... + e_(nelim-1)
  weighted degree     w + e_0 + ... + e_(n-1)
  Q_k, k = n-1 .. 0   w + e_0 + ... + e_(k-1)
  MAXPOS - pos        MAXPOS = len(weights) - 1

where w = weights[pos] - min(weights) (a common shift leaves the order
alone).  With the weighted degree equal, the first Q_k that differs marks the
rightmost differing exponent, and the larger Q_k has the smaller exponent
there, so comparing keys as integers is cmp_terms.  Every field is linear in
the exponents, key = base[pos] + sum of e_i * C_i, so multiplying by a ring
monomial adds one integer to the key.

The divisibility key packs pos in its lowest field and e_i in field i + 1.
A divides B iff (dkey_B - dkey_A) & DIVMASK == 0: a field where A's exponent
is larger borrows and sets its guard bit, the top bit of the field, and a
different position leaves a nonzero lowest field.

Bound: every field value stays below LIMIT = 2**(BITS - 1) = 32768, so the
weighted degree w + sum(expo) of every term, and the number of positions,
must be below 32768, with at most 60 variables.  The sum of two in-range
fields cannot carry into the next field, only into its guard bit.  pack()
checks its input, and reduce() checks the guard bits of every term it takes
as a divisor's target or into the remainder, so new basis elements and
remainders are checked too; a term out of range raises ResourceCapError.

Exponent table: the exponent part of a key, sum of e_i * C_i, depends only
on the number of variables and on nelim, not on the weights or possplit, and
the divisibility key is pos plus an exponent part.  So every Packing of one
(nvars, nelim) shares one table that maps an exponent tuple to its key part,
dkey part and degree, and maps the dkey part back to the tuple.  pack() is
one lookup per term, key = base[pos] + key part and dkey = dkey part + pos;
only a tuple not yet in the table is encoded.  unpack() returns the table's
own tuples, so the bases it builds share them.  The cap is checked on every
term, shift[pos] + degree < LIMIT, since a tuple entered under a small shift
can overflow under a larger one, and a tuple whose degree does not fit a
field never enters.  The table is an lru cache like the Packings and the
bases, so clearing the lru caches drops it, and a table that reaches
TABLE_CAP entries is emptied before the next tuple enters.
"""

import struct
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add as _add
from operator import mul as _mul

from ..errors import ResourceCapError

BITS = 16
LIMIT = 1 << (BITS - 1)
FIELD = (1 << BITS) - 1
MAX_FIELDS = 64
GUARD = sum(LIMIT << (BITS * i) for i in range(MAX_FIELDS))
DIVMASK = GUARD | FIELD


def _norm(num, den):
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return num, den


def expo_divides(a, b):
    """True when monomial a divides monomial b (componentwise <=)."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def expo_add(a, b):
    return tuple(map(_add, a, b))


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


def neg(f):
    return tuple((p, e, -n, d) for p, e, n, d in f)


def scale(f, num, den):
    """Multiply by a rational; either layout, since only t[2] and t[3] change."""
    if num == 0:
        return ()
    num, den = _norm(num, den)
    return tuple((p, e) + _norm(n * num, d * den) for p, e, n, d in f)


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
            n, d = _norm(tf[2] * tg[3] + tg[2] * tf[3], tf[3] * tg[3])
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


# ---------------------------------------------------------------------------
# Packed layout


# entries an exponent table holds before it is emptied; a dropped tuple is
# encoded again on its next use
TABLE_CAP = 65536


@lru_cache(maxsize=None)
def _exponent_table(nvars, nelim):
    """The exponent table of every Packing on nvars variables with an
    elimination block of nelim: a dict from exponent tuple to (key part,
    dkey part, degree), and a dict from dkey part back to the tuple."""
    return {}, {}


class Packing:
    """The packed layout of one order on a fixed number of variables."""

    __slots__ = ("base", "shift", "coef", "dkeys", "table", "expos", "wshift", "eshift", "esrc", "prefix", "low", "fill")

    def __init__(self, weights, nelim, possplit, nvars):
        npos = len(weights)
        if nvars + 4 > MAX_FIELDS or npos > LIMIT:
            raise ResourceCapError(
                f"packed monomials hold at most {MAX_FIELDS - 4} variables and {LIMIT} positions"
            )
        n = nvars
        # fields, bottom up: 0 MAXPOS - pos, 1..n Q_0..Q_(n-1), n+1 weighted
        # degree, n+2 elimination degree, n+3 position block
        self.wshift = BITS * (n + 1)
        self.eshift = BITS * (n + 2) if nelim else 0
        self.esrc = BITS * nelim
        lo = min(weights)
        self.shift = tuple(w - lo for w in weights)
        qfields = sum(1 << (BITS * (k + 1)) for k in range(n))
        self.base = tuple(
            ((1 if possplit and p < possplit else 0) << (BITS * (n + 3)))
            + ((w - lo) << self.wshift)
            + (w - lo) * qfields
            + (npos - 1 - p)
            for p, w in enumerate(weights)
        )
        # e_i counts in Q_k for k > i (fields i+2..n), the weighted degree,
        # and the elimination degree when i < nelim
        self.coef = tuple(
            sum(1 << (BITS * (k + 1)) for k in range(i + 1, n))
            + (1 << self.wshift)
            + ((1 << self.eshift) if i < nelim else 0)
            for i in range(n)
        )
        self.dkeys = struct.Struct(f"<{n + 1}H")
        self.table, self.expos = _exponent_table(nvars, nelim)
        self.prefix = sum(1 << (BITS * j) for j in range(n))
        self.low = sum(FIELD << (BITS * q) for q in range(1, n + 1))
        self.fill = sum((LIMIT - 1) << (BITS * q) for q in range(1, n + 1))

    def _enter(self, expo):
        """Add an exponent tuple to the table; its degree must fit a field."""
        deg = sum(expo)
        if deg >= LIMIT:
            raise ResourceCapError(f"degree {deg} does not fit a packed field (limit {LIMIT - 1})")
        dpart = int.from_bytes(self.dkeys.pack(0, *expo), "little")
        if len(self.table) >= TABLE_CAP:
            self.table.clear()
            self.expos.clear()
        entry = self.table[expo] = (sum(map(_mul, expo, self.coef)), dpart, deg)
        self.expos[dpart] = expo
        return entry

    def pack(self, f):
        """Packed terms of a canonical tuple-layout poly, in the same order."""
        base, shift, table = self.base, self.shift, self.table
        out = []
        for pos, expo, num, den in f:
            entry = table.get(expo)
            if entry is None:
                entry = self._enter(expo)
            kpart, dpart, deg = entry
            # a tuple entered under a small shift can overflow under this one
            if shift[pos] + deg >= LIMIT:
                raise ResourceCapError(
                    f"weighted degree {shift[pos] + deg} does not fit a packed field "
                    f"(limit {LIMIT - 1})"
                )
            out.append((base[pos] + kpart, dpart + pos, num, den))
        return tuple(out)

    def unpack(self, f):
        """Tuple-layout terms of a packed poly, with the table's own exponent
        tuples."""
        expos = self.expos
        out = []
        for t in f:
            pos = t[1] & FIELD
            dpart = t[1] - pos
            expo = expos.get(dpart)
            if expo is None:
                expo = self.dkeys.unpack(dpart.to_bytes(self.dkeys.size, "little"))[1:]
                self._enter(expo)
            out.append((pos, expo, t[2], t[3]))
        return tuple(out)

    def lcm(self, s, t):
        """(key, dkey) of the lcm of two packed terms in the same position."""
        a = s[1]
        b = t[1]
        ge = ((a | GUARD) - b) & GUARD  # guard set where a's field >= b's
        m = ge - (ge >> (BITS - 1))
        d = b ^ ((a ^ b) & m)
        # the key delta of lcm / s from its dkey delta, whose product with
        # `prefix` holds the prefix sums e_0 + ... + e_(q-1) in fields q = 1..n
        p = (d - a) * self.prefix
        key = s[0] + ((p & self.low) << BITS)
        if self.eshift:
            key += ((p >> self.esrc) & FIELD) << self.eshift
        return key, d

    def wdeg(self, key):
        """The weighted-degree field of a key or key delta."""
        return (key >> self.wshift) & FIELD

    def support(self, dkey):
        """Bitmask with a guard bit set for every variable of nonzero exponent."""
        return (dkey + self.fill) & GUARD


@lru_cache(maxsize=1024)
def packing(weights, nelim, possplit, nvars):
    """The Packing of an order on nvars variables, built once per order."""
    return Packing(weights, nelim, possplit, nvars)


def mul_term(f, key, dkey, num, den):
    """Multiply a packed poly by the ring term with packed deltas key, dkey;
    order-preserving, so no re-sort."""
    if num == 0:
        return ()
    num, den = _norm(num, den)
    if num == 1 and den == 1:
        return tuple((k + key, d + dkey, n, dn) for k, d, n, dn in f)
    return tuple((k + key, d + dkey) + _norm(n * num, dn * den) for k, d, n, dn in f)


def reduce(f, basis, track=False):
    """Full normal form of packed f modulo packed basis, by heap division.

    Division order: the largest pending term (in the monomial order) is taken
    first.  Its divisor is the first basis element, in list order, whose
    leading term has the same position and a monomial dividing it; if there is
    none, the term moves to the remainder.  Exact arithmetic and this order
    fix every step, so the remainder and the cofactors are fixed too.

    Returns (remainder, cofactors) where cofactors[i] is the ring poly q_i with
    f = sum q_i basis_i + remainder, as packed terms whose keys are the deltas
    of its monomials; cofactors is None unless track is set.  Raises
    ResourceCapError when a term it takes has a field out of range.
    """
    leads = [b[0] for b in basis]
    cofs = [[] for _ in basis] if track else None
    # Pending terms by key.  The heap holds the negated key of every pending
    # term; a term that cancels leaves its entry behind, to be skipped when
    # popped.
    pending = {}
    heap = []
    for t in f:
        pending[t[0]] = t
        heap.append(-t[0])
    heapify(heap)
    out = []
    while heap:
        key = -heappop(heap)
        t = pending.pop(key, None)
        if t is None:
            continue
        if key & GUARD:
            raise ResourceCapError(f"a monomial degree reached the packed field limit {LIMIT}")
        dkey = t[1]
        for i, lt in enumerate(leads):
            if not (dkey - lt[1]) & DIVMASK:
                break
        else:
            out.append(t)
            continue
        qkey = key - lt[0]
        qdkey = dkey - lt[1]
        qn, qden = _norm(t[2] * lt[3], t[3] * lt[2])
        if track:
            # popped keys strictly decrease, so each cofactor comes out
            # canonical: descending and without repeats
            cofs[i].append((qkey, qdkey, qn, qden))
        # pending -= q * basis[i]; the leading terms cancel exactly, so only
        # the tail is added, and every new monomial is below key.
        tail = iter(basis[i])
        next(tail)
        for k, d, n, dn in tail:
            k += qkey
            tn = -qn * n
            td = qden * dn
            old = pending.get(k)
            if old is None:
                g = gcd(tn, td)
                if g > 1:
                    tn //= g
                    td //= g
                pending[k] = (k, d + qdkey, tn, td)
                heappush(heap, -k)
            else:
                d0 = old[3]
                tn = old[2] * td + tn * d0
                if tn:
                    td *= d0
                    g = gcd(tn, td)
                    if g > 1:
                        tn //= g
                        td //= g
                    pending[k] = (k, old[1], tn, td)
                else:
                    del pending[k]
    if track:
        cofs = [tuple(c) for c in cofs]
    return tuple(out), cofs


def spoly(f, g, lcm):
    """S-polynomial of two packed polys whose leading terms share a position,
    given the (key, dkey) of the lcm of their leading monomials."""
    lk, ld = lcm
    k1, d1, n1, den1 = f[0]
    k2, d2, n2, den2 = g[0]
    a = mul_term(f, lk - k1, ld - d1, den1, n1)
    b = mul_term(g, lk - k2, ld - d2, den2, n2)
    # a - b by a two-pointer merge on the keys; the leading terms cancel
    out = []
    i = 1
    j = 1
    na = len(a)
    nb = len(b)
    while i < na and j < nb:
        ta = a[i]
        tb = b[j]
        if ta[0] > tb[0]:
            out.append(ta)
            i += 1
        elif ta[0] < tb[0]:
            out.append((tb[0], tb[1], -tb[2], tb[3]))
            j += 1
        else:
            n, d = _norm(ta[2] * tb[3] - tb[2] * ta[3], ta[3] * tb[3])
            if n:
                out.append((ta[0], ta[1], n, d))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend((t[0], t[1], -t[2], t[3]) for t in b[j:])
    return tuple(out)
