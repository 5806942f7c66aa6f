"""Sparse exact-rational term arithmetic on packed monomials (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).

  term  = (key, dkey, num, den), num/den exact, den > 0, gcd(|num|, den) = 1
  poly  = tuple of terms, strictly descending by key, no zeros
  order = (weights, nelim, possplit)
          weights:  per-position weight added to the exponent sum
          nelim:    leading variables forming a dominant elimination block
          possplit: positions < possplit dominate positions >= possplit

A poly is packed under one order on a fixed number of variables, a Packing.
The order is graded reverse-lexicographic on the exponents (ties broken by
position), optionally preceded by the two elimination comparisons.  The
order key packs these fields of BITS bits each, from the top down:

  position block      1 if possplit and pos < possplit else 0
  elimination degree  e_0 + ... + e_(nelim-1)
  weighted degree     w + e_0 + ... + e_(n-1)
  Q_k, k = n-1 .. 0   w + e_0 + ... + e_(k-1)
  MAXPOS - pos        MAXPOS = len(weights) - 1

where w = weights[pos] - min(weights).  With the weighted degree equal, the
first Q_k that differs marks the rightmost differing exponent, and the larger
Q_k has the smaller exponent there, so comparing keys as integers is the
monomial order.  Every field is linear in the exponents, key = base[pos] +
sum of e_i * C_i, where the exponent part depends only on (nvars, nelim).
Under ((0,), nelim, 0) the base is 0, so a ring key is its exponent part and
the product of a ring term and a module term is the sum of their keys.
Moving a poly to another order of the same (nvars, nelim), or to another
position, adds base'[pos'] - base[pos] to each key (Packing.rebase).  Moving
a ring poly into the elimination order ((0,), 1, 0) on t and its variables,
t first, shifts both keys up one field, and t^tdeg adds tdeg times t's
C_0; a t-free poly moves back by a right shift (Packing.lift and
Packing.lower).

The divisibility key packs pos in its lowest field and e_i in field i + 1.
A divides B iff (dkey_B - dkey_A) & DIVMASK == 0: a field where A's exponent
is larger borrows and sets its guard bit, the top bit of the field, and a
different position leaves a nonzero lowest field.

The key follows from the dkey: one multiply of the dkey's exponent fields
gives every prefix sum e_0 + ... + e_(k-1) at once (Packing.key).  pack,
lcm, lift and contract share it: pack keys the dkeys it encodes, lcm keys the
dkey of lcm / s, lift keys t's field, and contract keys the dkeys it moves
when a variable is sent to another and dropped, the edge contraction e' ->
e, with no exponent tuple made.

The Groebner engine keeps its basis monic, leading coefficient 1/1, so an
S-polynomial moves each poly up to the lcm by a shift of its keys (mul_term)
and reads no coefficient (spoly).

Bound: every field stays below LIMIT = 2**(BITS - 1) = 32768, so the weighted
degree of every term, and the number of positions, must be below 32768, with
at most 60 variables.  The sum of two in-range fields cannot carry into the
next field, only into its guard bit, so a sum of keys is out of range exactly
when a guard bit is set.  pack() checks its input, canon() (so mul()) every
key it keeps, rebase() every key it moves, and reduce() every term it takes
as a divisor's target or into the remainder; a term out of range raises
ResourceCapError.

Exponent tuples enter through pack() and leave through unpack(), which
encode and decode each term.  pack() checks shift[pos] + degree < LIMIT
before it encodes a term, so an exponent too large for a field raises
ResourceCapError, not a struct error.
"""

import struct
from functools import reduce as _fold
from heapq import heapify, heappop, heappush
from math import gcd
from operator import or_
from weakref import WeakValueDictionary

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


def _check(keys):
    """Raise ResourceCapError unless every key has its fields in range."""
    if _fold(or_, keys, 0) & GUARD:
        raise ResourceCapError(f"a monomial degree reached the packed field limit {LIMIT}")


def canon(terms):
    """The canonical poly of packed terms given in any order: terms of equal
    key merged, zeros dropped, sorted descending.  Raises ResourceCapError
    when a kept term does not fit the packed layout."""
    acc = {}
    for t in terms:
        key, num, den = t[0], t[2], t[3]
        if num == 0:
            continue
        old = acc.get(key)
        if old is None:
            acc[key] = (key, t[1]) + _norm(num, den)
        else:
            n, d = _norm(old[2] * den + num * old[3], old[3] * den)
            if n == 0:
                del acc[key]
            else:
                acc[key] = (key, old[1], n, d)
    _check(acc)
    return tuple(acc[k] for k in sorted(acc, reverse=True))


def neg(f):
    return tuple((k, d, -n, dn) for k, d, n, dn in f)


def scale(f, num, den):
    """Multiply by a rational."""
    if num == 0:
        return ()
    num, den = _norm(num, den)
    return tuple((k, d) + _norm(n * num, dn * den) for k, d, n, dn in f)


def add(f, g):
    return sub(f, neg(g))


def sub(f, g):
    """Difference of two canonical polys of one order, merged on their keys."""
    return _minus(f, g, 0, 0)


def mul(f, g):
    """Product of a ring poly f with a module poly g whose order has the same
    number of variables and nelim: a ring key is its exponent part, so each
    product term is the sum of two keys and of two dkeys."""
    return canon([(kf + kg, df + dg, nf * ng, dnf * dng) for kf, df, nf, dnf in f for kg, dg, ng, dng in g])


class Packing:
    """The packed layout of one order on a fixed number of variables."""

    __slots__ = ("args", "base", "shift", "lo", "dkeys", "moves",
                 "wshift", "eshift", "esrc", "prefix", "low", "fill", "__weakref__")

    def __init__(self, weights, nelim, possplit, nvars):
        self.args = (weights, nelim, possplit, nvars)
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
        self.lo = lo = min(weights)
        self.shift = tuple(w - lo for w in weights)
        qfields = sum(1 << (BITS * (k + 1)) for k in range(n))
        self.base = tuple(
            ((1 if possplit and p < possplit else 0) << (BITS * (n + 3)))
            + ((w - lo) << self.wshift)
            + (w - lo) * qfields
            + (npos - 1 - p)
            for p, w in enumerate(weights)
        )
        self.dkeys = struct.Struct(f"<{n + 1}H")
        self.prefix = sum(1 << (BITS * j) for j in range(n))
        self.low = sum(FIELD << (BITS * q) for q in range(1, n + 1))
        self.fill = sum((LIMIT - 1) << (BITS * q) for q in range(1, n + 1))
        self.moves = {}

    def __reduce__(self):
        # a pickle holds the order alone; unpickling looks its Packing up
        return packing, self.args

    def pack(self, f):
        """Packed terms of (pos, expo, num, den) terms, in the same order.
        Raises ResourceCapError when a term's weighted degree does not fit a
        field."""
        shift, encode, key = self.shift, self.dkeys.pack, self.key
        out = []
        for pos, expo, num, den in f:
            deg = shift[pos] + sum(expo)
            if deg >= LIMIT:
                raise ResourceCapError(f"weighted degree {deg} does not fit a packed field (limit {LIMIT - 1})")
            dkey = int.from_bytes(encode(pos, *expo), "little")
            out.append((key(dkey), dkey, num, den))
        return tuple(out)

    def key(self, dkey):
        """The key of a term from its dkey.  The exponent part of the dkey
        times `prefix` holds the prefix sums e_0 + ... + e_(q-1) in fields
        q = 1..n, which are Q_q less the weight shift, one field below where
        the key keeps them; Q_n is the weighted degree.  The elimination
        degree is the prefix sum in field nelim."""
        pos = dkey & FIELD
        p = (dkey - pos) * self.prefix
        key = self.base[pos] + ((p & self.low) << BITS)
        if self.eshift:
            key += ((p >> self.esrc) & FIELD) << self.eshift
        return key

    def contract(self, f, i, j):
        """The canonical poly of f, packed under this order's weights, nelim
        and possplit on one variable more, after the ring map that sends
        variable j to variable i: in each dkey, field j + 1 is added into
        field i + 1 and dropped, which moves the fields above it down one,
        and the key is computed again from the new dkey.  No exponent tuple
        is made.  A sum e_i + e_j is at most the term's degree, so it stays
        in its field.  Two moved terms can meet, so canon merges them."""
        at, up = BITS * (i + 1), BITS * (j + 1)
        below = (1 << up) - 1
        key = self.key
        out = []
        for _, d, n, dn in f:
            d += ((d >> up) & FIELD) << at
            d = (d & below) | (d >> (up + BITS) << up)
            out.append((key(d), d, n, dn))
        return canon(out)

    def build(self, f):
        """The canonical poly of (pos, expo, num, den) terms given in any
        order, with repeats and zero coefficients."""
        return canon(self.pack([t for t in f if t[2]]))

    def unpack(self, f):
        """(pos, expo, num, den) terms of a packed poly."""
        size, decode = self.dkeys.size, self.dkeys.unpack
        out = []
        for t in f:
            fields = decode(t[1].to_bytes(size, "little"))
            out.append((fields[0], fields[1:], t[2], t[3]))
        return tuple(out)

    def unit(self, pos, num=1, den=1):
        """The packed term num/den times generator pos."""
        if self.shift[pos] >= LIMIT:
            raise ResourceCapError(f"weight shift {self.shift[pos]} does not fit a packed field (limit {LIMIT - 1})")
        return (self.base[pos], pos, num, den)

    def rebase(self, f, src, offset=0):
        """The terms of f, packed under src, packed under this order with
        every position moved by offset; src has the same number of variables
        and nelim.  Each key gains base[pos + offset] - src.base[pos], so the
        order within a position is kept, and across positions too when that
        delta is the same for every position."""
        # keyed on src's order, not on src, so no Packing keeps another alive
        move = self.moves.get((src.args, offset))
        if move is None:
            # a position with no room for a term gets GUARD, setting every guard bit;
            # fields grow by at most their shift's growth, so if none grows no check is due
            room = [p - offset for p, s in enumerate(self.shift) if s < LIMIT]
            delta = tuple(self.base[p + offset] - b if p in room else GUARD for p, b in enumerate(src.base))
            safe = GUARD not in delta and all(self.shift[p + offset] <= s for p, s in enumerate(src.shift))
            move = self.moves[src.args, offset] = (delta, safe)
        delta, safe = move
        out = tuple([(k + delta[d & FIELD], d + offset, n, dn) for k, d, n, dn in f])
        if not safe:
            _check(t[0] for t in out)
        return out

    def lift(self, f, tdeg=0):
        """t^tdeg times f, a poly packed under the ring order ((0,), 0, 0) on
        one variable fewer, packed under this order, which must be the
        elimination order ((0,), 1, 0) with t its first variable.

        Ring variable i is variable i + 1 here, so its exponent sits one
        field higher in both keys: the dkey moves up one field and gains tdeg
        in t's field, field 1; the key moves up one field and gains tdeg
        times t's key delta, one in each of fields 2..n+3 for n ring
        variables (Q_1..Q_n, the weighted and the elimination degree), keyed
        from t's dkey less base[0], as lcm keys a delta.  No
        exponent tuple is made.  With tdeg 0 every field keeps its value; for
        0 < tdeg < LIMIT a term whose weighted degree reaches LIMIT raises
        ResourceCapError, the bound pack() keeps."""
        kt, dt = tdeg * (self.key(1 << BITS) - self.base[0]), tdeg << BITS
        out = tuple([((k << BITS) + kt, (d << BITS) + dt, n, dn) for k, d, n, dn in f])
        if tdeg:
            _check(t[0] for t in out)
        return out

    def lower(self, f):
        """The inverse of lift(f, 0) for a t-free f: every field moves down
        one, which drops t's zero field from the dkey and the zero position
        field from the key."""
        return tuple([(k >> BITS, d >> BITS, n, dn) for k, d, n, dn in f])

    def lcm(self, s, t):
        """(key, dkey) of the lcm of two packed terms in the same position."""
        a = s[1]
        b = t[1]
        ge = ((a | GUARD) - b) & GUARD  # guard set where a's field >= b's
        m = ge - (ge >> (BITS - 1))
        d = b ^ ((a ^ b) & m)
        # d - a is the dkey of lcm / s at position 0, and the key is linear
        return s[0] + self.key(d - a) - self.base[0], d

    def wdeg(self, key):
        """The weighted-degree field of a key or key delta."""
        return (key >> self.wshift) & FIELD

    def weights(self, f):
        """The set of the weights weights[pos] + sum(expo) of f's terms, read
        off the weighted-degree field of their keys."""
        wshift, lo = self.wshift, self.lo
        return {((t[0] >> wshift) & FIELD) + lo for t in f}

    def support(self, dkey):
        """Bitmask with a guard bit set for every variable of nonzero exponent."""
        return (dkey + self.fill) & GUARD


# every live Packing by its order
_live = WeakValueDictionary()


def packing(weights, nelim, possplit, nvars):
    """The Packing of an order on nvars variables: the live one, or a new one
    when none is alive.  It lives while a space, a tracked-run cache entry or
    a running call holds it; nothing here keeps it."""
    args = (weights, nelim, possplit, nvars)
    pk = _live.get(args)
    if pk is None:
        pk = _live[args] = Packing(*args)
    return pk


def mul_term(f, key, dkey):
    """f times the ring monomial with packed deltas key, dkey: a shift of every
    key and dkey, which keeps the order and the coefficients."""
    return tuple([(k + key, d + dkey, n, dn) for k, d, n, dn in f])


def reduce(f, basis):
    """Full normal form of packed f modulo packed basis, by heap division.

    Division order: the largest pending term (in the monomial order) is taken
    first.  Its divisor is the first basis element, in list order, whose
    leading term has the same position and a monomial dividing it; if there is
    none, the term moves to the remainder.  Exact arithmetic and this order
    fix every step, so the remainder is fixed too.

    Returns the pair (remainder, None); perfbench's tracer reads the
    remainder as result[0].  Raises ResourceCapError when a term it takes
    has a field out of range.
    """
    leads = [b[0] for b in basis]
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
    return tuple(out), None


def spoly(f, g, lcm):
    """S-polynomial of two monic packed polys whose leading terms share a
    position, given the (key, dkey) of the lcm of their leading monomials.
    Both leading coefficients are 1, so it reads no coefficient."""
    lk, ld = lcm
    a = mul_term(f, lk - f[0][0], ld - f[0][1])
    b = mul_term(g, lk - g[0][0], ld - g[0][1])
    # the leading terms cancel
    return _minus(a, b, 1, 1)


def _minus(a, b, i, j):
    """a[i:] - b[j:] of two packed polys, by a two-pointer merge on the keys."""
    out = []
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
