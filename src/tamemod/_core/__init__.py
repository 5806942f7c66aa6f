"""The term kernel: one pure-Python module, `impl`.

It holds the tuple-layout arithmetic of GradedPoly and FreeElement (canon,
neg, scale, add, sub, mul) and the packed-monomial division and S-polynomials
that the Groebner engine runs on (Packing, mul_term, reduce, spoly).  Each
packed monomial is two integers: an order key whose integer comparison is the
monomial order, and a divisibility key with one guard bit per field.  Fields
are 16 bits wide, so a weighted degree or position of 32768 or more raises
ResourceCapError; see `_pure` for the field order and the bound.
"""

from . import _pure as impl


def kernel_name():
    """Name of the kernel, stamped on benchmark results."""
    return "python"
