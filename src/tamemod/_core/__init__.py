"""The term kernel: one pure-Python module, `impl`.

It holds the one term layout of values and of the Groebner engine, packed
monomials (see `_pure`): the arithmetic of values (canon, neg, scale, add,
sub, mul), the division and S-polynomials of Groebner bases (mul_term,
reduce, spoly), and Packing, the layout of one order, which moves terms
between orders of one shape, lifts ring terms into the elimination order
and back, and converts terms to and from exponent tuples.
"""

from . import _pure as impl


def kernel_name():
    """Name of the kernel, stamped on benchmark results."""
    return "python"
