"""The term kernel: one pure-Python module, `impl` (see `_pure`).

It holds packed monomials, the one term layout of values and of the Groebner
engine: the arithmetic of values (canon, neg, scale, add, sub, mul), the
division and S-polynomials of Groebner bases (mul_term, reduce, spoly), and
Packing, the layout of one order.
"""

from . import _pure as impl


def kernel_name():
    """Name of the kernel, stamped on benchmark results."""
    return "python"
