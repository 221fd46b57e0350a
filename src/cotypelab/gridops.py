"""Shift machinery, sign-pattern tables and the shift-energy kernel on Z_m^n."""
from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .spaces import TorusDomain, count_text, require_budget


def ordered_sum(values) -> float:
    """Left-to-right float sum from 0.0, as += adds; sum() compensates
    from Python 3.12 on."""
    return functools.reduce(operator.add, np.asarray(values).tolist(), 0.0)


def sign_patterns(n: int) -> np.ndarray:
    """All of {-1, 1}^n as a (2^n, n) array, row-major from (-1,...,-1)."""
    return np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int64)


def random_vector_values(domain: TorusDomain, d: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian value table of shape (m^n, d)."""
    # two float64 draws, i times one and their sum, and 8 KiB of numpy's
    # buffers (traced: 0.99 of it at (3, 16, 2), 0.90 at (2, 64, 3))
    shape = (domain.points, d)
    require_budget(f"{count_text(domain.points)} x {d} random vector values",
                   56 * domain.points * d + 8192)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_point_values(domain: TorusDomain, size: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Uniform codomain indices of shape (m^n,)."""
    require_budget(f"{count_text(domain.points)} random point values",
                   8 * domain.points + 8192)
    return rng.integers(0, size, size=domain.points, dtype=np.int64)


def climb(values: np.ndarray, score, propose, steps: int,
          rng: np.random.Generator, best: float | None = None) -> float:
    """Hill-climb a value table in place by single-point changes.

    Each step draws a point x, sets values[x] = propose(rng, old row) and
    keeps the change only when score(values) is strictly higher, else
    restores the old row, so values ends as the best table seen. best is
    the score of the starting table (computed when not given); returns the
    best score. score must be a function of the table alone; it may
    memoise the last table it saw, since consecutive tables differ only at
    the points of one revert and one move: the smoothing checks recompute
    just the distance, window-sum and central-difference entries those
    points reach.
    Searches over point-valued witnesses climb many tables in lockstep
    instead (cotype._search).
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


def _require_table(domain: TorusDomain, rows: int) -> None:
    """shift_table's price for rows shifts: the table, two int64 coordinate
    copies, per axis the new sums and the last ones or their mask, and
    numpy's 8192-entry int64 cast buffer (traced: 0.83 of it at (3, 16) and
    0.81 at (2, 200), edge patterns)."""
    N, item = domain.points, np.min_scalar_type(2 * domain.m).itemsize
    require_budget(f"a {count_text(rows)} x {count_text(N)} shift table",
                   (8 + 2 * item) * rows * N + 16 * domain.n * N + 65536)


def shift_table(domain: TorusDomain, shifts) -> np.ndarray:
    """Read-only (S, m^n) int64 array: table[s, x] = linear index of x + shifts[s].
    A coordinate plus a shift residue is below 2m, so in the narrowest dtype
    holding 2m one conditional subtraction of m reduces it."""
    m, n, N = domain.m, domain.n, domain.points
    small = np.min_scalar_type(2 * m)
    res = np.asarray(shifts, dtype=np.int64).reshape(-1, n) % m
    res = res.astype(small)
    _require_table(domain, len(res))
    coords = domain.coords().astype(small)
    table = np.zeros((len(res), N), dtype=np.int64)
    for ax in range(n):  # row-major index, built in place
        v = coords[:, ax] + res[:, ax, None]
        np.subtract(v, m, out=v, where=v >= m)
        table *= m
        table += v
    table.setflags(write=False)
    return table


_FAMILIES = {
    "axes": lambda n: np.zeros((0, n), dtype=np.int64),  # no patterns
    "signs": sign_patterns,  # {-1,1}^n
    "edges": lambda n: np.array(  # {-1,0,1}^n without its zero pattern
        [e for e in itertools.product((-1, 0, 1), repeat=n) if any(e)], dtype=np.int64),
}


def _edge_draws(n: int, counts: tuple) -> np.ndarray:
    """counts[z] patterns of {-1,0,1}^n with z zero entries for z = 0, 1, ...,
    each drawn from one default_rng(0): its nonzero positions, their signs."""
    rng, eps = np.random.default_rng(0), np.zeros((sum(counts), n), dtype=np.int64)
    for row, z in enumerate(np.repeat(np.arange(len(counts)), counts)):
        nonzero = rng.choice(n, size=n - z, replace=False)
        eps[row, nonzero] = rng.choice((-1, 1), size=n - z)
    return eps


@functools.lru_cache(maxsize=8)
def family_table(domain: TorusDomain, family: str | tuple,
                 amount: int | None = None) -> np.ndarray:
    """Cached shift_table of amount * e_j for each axis j (no such rows when
    amount is None), then a family's patterns in row-major order, or, for a
    tuple of counts, _edge_draws's, priced from its row count before any
    pattern is built. A table at or past the exact-mode limit of the cotype
    functional (3^n m^n = 2^22) takes about 32 MiB: few are kept."""
    n = domain.n
    rows = {"axes": 0, "signs": 2**n, "edges": 3**n - 1}[family] \
        if family in _FAMILIES else sum(family)
    _require_table(domain, rows + (0 if amount is None else n))
    pats = _FAMILIES[family](n) if family in _FAMILIES else _edge_draws(n, family)
    if amount is not None:
        pats = np.vstack([amount * np.eye(n, dtype=np.int64), pats])
    return shift_table(domain, pats)


def _per_shift(values: np.ndarray, table: np.ndarray, reduce) -> np.ndarray:
    """(W, S) reduce(gathered f_w(x + s), f_w(x)) over the last axis, for a
    stack of W value tables. A block gathers at most SHIFT_BLOCK_ELEMENTS
    entries (or one row), and each reduction runs over x in index order, so
    the blocking never changes a value."""
    S = len(table)
    rows = max(1, SHIFT_BLOCK_ELEMENTS // values[0].size)
    s_step, w_step = min(S, rows), max(1, rows // S)
    out = np.empty((len(values), S))
    for w0 in range(0, len(values), w_step):
        v = values[w0:w0 + w_step]
        for s0 in range(0, S, s_step):
            out[w0:w0 + w_step, s0:s0 + s_step] = reduce(
                np.take(v, table[s0:s0 + s_step], axis=1), v[:, None])
    return out


def shift_energy_batch(values: np.ndarray, target, table: np.ndarray,
                       p: float) -> np.ndarray:
    """(W, S) means avg_x d(f_w(x + s), f_w(x))^p over a stack of W value
    tables, each (m^n,) or (m^n, d)."""
    return _per_shift(values, table,
                      lambda a, b: mean_power(target.pairwise(a, b), p))


def dist_power(d: np.ndarray, p: float) -> np.ndarray:
    """d^p as the kernel raises its distances (d itself at p = 1)."""
    return d if p == 1 else d ** p


def mean_power(d: np.ndarray, p: float) -> np.ndarray:
    """Means of d^p over the last axis with np.mean's floats (add.reduce in
    index order, one division by the count), minus its Python overhead."""
    return np.add.reduce(dist_power(d, p), axis=-1) / d.shape[-1]


def shift_energy(values: np.ndarray, target, table: np.ndarray,
                 p: float) -> np.ndarray:
    """Per-shift means avg_x d(f(x + s), f(x))^p of one value table, shape (S,)."""
    return shift_energy_batch(values[None], target, table, p)[0]


def shift_sums(values: np.ndarray, dist_p: np.ndarray,
               table: np.ndarray) -> np.ndarray:
    """(W, S) sums sum_x dist_p[f_w(x + s), f_w(x)] over a stack of W
    point-valued tables."""
    return _per_shift(values, table, lambda a, b: dist_p[a, b].sum(axis=-1))


INCREMENTAL_POINTS = 2  # a climb step's revert plus its next move


class ShiftSums:
    """Per-shift sums of stacks of point-valued tables, and of the tables one
    point move away, exactly.

    dist_p is a symmetric (K, K) table of non-negative integers (as floats)
    with a zero diagonal, small enough that N * dist_p.max() < 2^53: then
    every sum is an exact integer in any order, so a moved table's sums
    equal shift_sums of it bit for bit, and the means sums / N equal
    shift_energy's. Changing f(x) from a to b changes only the terms at x
    and x - s of each shift s, by col[f(x + s)] and col[f(x - s)] with
    col = dist_p[b] - dist_p[a]; shifts s = 0 (mod m) keep their zero
    terms and are skipped.
    """

    def __init__(self, dist_p: np.ndarray, table: np.ndarray):
        self.dist_p, self.table = dist_p, table
        N = table.shape[1]
        moved = np.any(table != np.arange(N), axis=1)
        self.moved = slice(None) if moved.all() else np.flatnonzero(moved)
        self.half = int(moved.sum())
        forward = table[self.moved]
        inverse = np.empty_like(forward)
        np.put_along_axis(inverse, forward, np.arange(N)[None], axis=1)
        self.neighbours = np.concatenate([forward, inverse]).T.copy()  # (N, 2S')

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """(W, S) sums of a (W, N) stack of tables."""
        return shift_sums(values, self.dist_p, self.table)

    def move(self, values: np.ndarray, sums: np.ndarray, x: np.ndarray,
             b: np.ndarray) -> np.ndarray:
        """The sums of each table values[w] with b[w] at point x[w], from its
        sums; one gather of O(S) entries per table, and nothing changes in
        place."""
        nb = np.take_along_axis(values, self.neighbours[x], axis=1)  # f(x + s), f(x - s)
        a = values[np.arange(len(x)), x]
        col = self.dist_p[b[:, None], nb] - self.dist_p[a[:, None], nb]
        out = sums.copy()
        out[:, self.moved] += col[:, :self.half] + col[:, self.half:]
        return out
