"""The term kernel: one pure-Python module, `impl`.

It holds the tuple-layout arithmetic of GradedPoly and FreeElement (canon,
neg, scale, add, sub, mul) and the packed-monomial division and S-polynomials
that the Groebner engine runs on (Packing, mul_term, reduce, spoly).  Each
packed monomial is two integers: an order key whose integer comparison is the
monomial order, and a divisibility key with one guard bit per field.  The
order key is the one definition of the order: the tuple-layout arithmetic
sorts and merges by it too.  Fields are 16 bits wide, so a weighted degree or
position of 32768 or more raises ResourceCapError, already where a value is
canonicalized; see `_pure` for the field order and the bound.  Packing
looks each exponent tuple up in one table per (number of variables, nelim),
shared by every order of that shape, cleared with the lru caches and emptied
when it reaches TABLE_CAP entries; the bound is still checked on every term.
"""

from . import _pure as impl


def kernel_name():
    """Name of the kernel, stamped on benchmark results."""
    return "python"
