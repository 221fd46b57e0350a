"""Shift machinery, sign-pattern tables and the shift-energy kernel on Z_m^n."""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .spaces import TorusDomain


def roll_values(domain: TorusDomain, values: np.ndarray, shift) -> np.ndarray:
    """Values of x -> f(x + shift) given the value table of f.

    values has shape (m^n,) or (m^n, d); shift is an n-vector of integers
    (entries may be negative or exceed m).
    """
    s = np.asarray(shift, dtype=np.int64)
    if s.shape != (domain.n,):
        s = np.broadcast_to(s, (domain.n,))
    vec = values.ndim == 2
    shape = domain.shape + ((values.shape[1],) if vec else ())
    grid = values.reshape(shape)
    rolled = np.roll(grid, tuple(-int(v) for v in s), axis=tuple(range(domain.n)))
    return rolled.reshape(values.shape)


def axis_shift(domain: TorusDomain, j: int, amount: int = 1) -> np.ndarray:
    """The shift vector amount * e_j (0-based axis j)."""
    if not 0 <= j < domain.n:
        raise IndexError(f"axis {j} out of range for n={domain.n}")
    s = np.zeros(domain.n, dtype=np.int64)
    s[j] = amount
    return s


def sign_patterns(n: int) -> np.ndarray:
    """All of {-1, 1}^n as a (2^n, n) array, row-major from (-1,...,-1)."""
    return np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int64)


def three_patterns(n: int) -> np.ndarray:
    """All of {-1, 0, 1}^n as a (3^n, n) array, row-major."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=n)),
                    dtype=np.int64)


def random_vector_values(domain: TorusDomain, d: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian value table of shape (m^n, d)."""
    shape = (domain.points, d)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_point_values(domain: TorusDomain, size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Uniform codomain indices of shape (m^n,)."""
    return rng.integers(0, size, size=domain.points, dtype=np.int64)


def climb(values: np.ndarray, score, propose, steps: int,
          rng: np.random.Generator, best: float | None = None) -> float:
    """Hill-climb a value table in place by single-point changes.

    Each step draws a point x, sets values[x] = propose(rng, old row) and
    keeps the change only when score(values) is strictly higher, else
    restores the old row, so values ends as the best table seen. best is
    the score of the starting table (computed when not given); returns the
    best score.
    """
    if best is None:
        best = score(values)
    for _ in range(steps):
        x = int(rng.integers(len(values)))
        old = values[x].copy()
        values[x] = propose(rng, old)
        new = score(values)
        if new > best:
            best = new
        else:
            values[x] = old
    return best


SHIFT_BLOCK_ELEMENTS = 1 << 18  # gathered value entries per kernel block


def shift_table(domain: TorusDomain, shifts) -> np.ndarray:
    """Read-only (S, m^n) int64 array: table[s, x] = linear index of x + shifts[s]."""
    s = np.asarray(shifts, dtype=np.int64).reshape(-1, domain.n)
    coords = domain.coords()
    table = np.zeros((len(s), domain.points), dtype=np.int64)
    for ax in range(domain.n):  # row-major index, built in place
        table *= domain.m
        table += (coords[:, ax] + s[:, ax, None]) % domain.m
    table.setflags(write=False)
    return table


_FAMILIES = {
    "axes": lambda n: np.zeros((0, n), dtype=np.int64),  # no patterns
    "signs": sign_patterns,  # {-1,1}^n
    "three": three_patterns,  # {-1,0,1}^n
    "edges": lambda n: three_patterns(n)[np.any(three_patterns(n), axis=1)],
}


@functools.lru_cache(maxsize=8)
def family_table(domain: TorusDomain, family: str,
                 amount: int | None = None) -> np.ndarray:
    """Cached shift_table of amount * e_j for each axis j (no such rows when
    amount is None), then the patterns of one family; "edges" is {-1,0,1}^n
    without its zero pattern. A table at the exact-mode limit of the cotype
    functional (3^n m^n = 2^22) takes 32 MiB, so few are kept."""
    pats = _FAMILIES[family](domain.n)
    if amount is not None:
        pats = np.vstack([amount * np.eye(domain.n, dtype=np.int64), pats])
    return shift_table(domain, pats)


def shift_energy_batch(values: np.ndarray, target, table: np.ndarray,
                       p: float) -> np.ndarray:
    """(W, S) means avg_x d(f_w(x + s), f_w(x))^p over a stack of W value tables.

    values is (W, m^n) or (W, m^n, d). A block gathers at most
    SHIFT_BLOCK_ELEMENTS entries (or one row), and every mean runs over x
    in index order, so the blocking never changes a value.
    """
    S = len(table)
    rows = max(1, SHIFT_BLOCK_ELEMENTS // values[0].size)
    s_step, w_step = min(S, rows), max(1, rows // S)
    out = np.empty((len(values), S))
    for w0 in range(0, len(values), w_step):
        v = values[w0:w0 + w_step]
        for s0 in range(0, S, s_step):
            d = target.pairwise(np.take(v, table[s0:s0 + s_step], axis=1), v[:, None])
            out[w0:w0 + w_step, s0:s0 + s_step] = \
                (d if p == 1 else d ** p).mean(axis=-1)
    return out


def shift_energy(values: np.ndarray, target, table: np.ndarray,
                 p: float) -> np.ndarray:
    """Per-shift means avg_x d(f(x + s), f(x))^p of one value table, shape (S,)."""
    return shift_energy_batch(values[None], target, table, p)[0]
