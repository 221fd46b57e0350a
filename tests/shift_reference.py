"""Translates by np.roll and the {-1,0,1}^n patterns: the oracle for the
shift tables.

The package forms every translate x -> f(x + shift) as a gather through
gridops.shift_table / gridops.family_table; the tests compare those
gathers, and every functional built on them, with the np.roll form here.
"""
import itertools

import numpy as np


def roll_values(domain, values: np.ndarray, shift) -> np.ndarray:
    """Values of x -> f(x + shift) given the value table of f.

    values has shape (m^n,) or (m^n, d); shift is an n-vector of integers
    (entries may be negative or exceed m), or one integer for every axis.
    """
    s = np.asarray(shift, dtype=np.int64)
    if s.shape != (domain.n,):
        s = np.broadcast_to(s, (domain.n,))
    vec = values.ndim == 2
    shape = domain.shape + ((values.shape[1],) if vec else ())
    grid = values.reshape(shape)
    rolled = np.roll(grid, tuple(-int(v) for v in s), axis=tuple(range(domain.n)))
    return rolled.reshape(values.shape)


def axis_shift(domain, j: int, amount: int = 1) -> np.ndarray:
    """The shift vector amount * e_j (0-based axis j)."""
    if not 0 <= j < domain.n:
        raise IndexError(f"axis {j} out of range for n={domain.n}")
    s = np.zeros(domain.n, dtype=np.int64)
    s[j] = amount
    return s


def three_patterns(n: int) -> np.ndarray:
    """All of {-1, 0, 1}^n as a (3^n, n) array, row-major."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=n)),
                    dtype=np.int64)
