"""The one check on an exact scalar that a matrix or a vector stores.

Integral values are `int`s and only a division makes a `Fraction`, so a
stored entry is either; a `float` (what `int / int` gives) or a `bool` must
never reach one, and a zero is never stored.
"""

from fractions import Fraction


def is_stored_scalar(x) -> bool:
    """x is a nonzero int or Fraction, and neither a bool nor a float."""
    return x.__class__ in (int, Fraction) and x != 0


def stores_exact_scalars(mat) -> bool:
    """Every entry a RatMatrix stores passes `is_stored_scalar`."""
    return all(is_stored_scalar(x) for row in mat._nz for x in row.values())
