"""Reference computations written from the definitions, in plain numpy.

Nothing here imports cotypelab. Shifts are index arithmetic on explicit
coordinates (not array rolls), distances come from closed formulas, and
every maximum is taken by brute force, so a fault in the program's own
kernels cannot hide in the value it is compared against.

Conventions shared with the program's report format: points of Z_m^n are
linearised row-major (last coordinate fastest); functionals follow the
formulas in the docstring of ``cotypelab.cotype``:

    lhs     = sum_j avg_x d(f(x + (m/2) e_j), f(x))^p
    rhs_raw = avg_{eps in {-1,0,1}^n} avg_x d(f(x + eps), f(x))^p
    gamma   = (lhs / (m^p n^(1-p/q) rhs_raw))^(1/p)
    b       = sqrt(sum_j avg_x d(f(x + ell e_j), f(x))^2
                   / (ell^2 n avg_{eps in {-1,1}^n} avg_x d(f(x+eps), f(x))^2))
"""
from __future__ import annotations

import itertools
import math

import numpy as np

HILBERT_1_4 = math.sqrt(3.0) / 4.0
HILBERT_2_4 = 3.0 / (4.0 * math.sqrt(2.0))
RANDOM_TWO_POINT_2_4 = 3.0 / 8.0


def coords(n: int, m: int) -> np.ndarray:
    """All points of Z_m^n, row-major, as an (m^n, n) array."""
    return np.array(list(itertools.product(range(m), repeat=n)),
                    dtype=np.int64).reshape(m**n, n)


def shift_index(n: int, m: int, shift) -> np.ndarray:
    """idx with idx[x] = linear index of x + shift."""
    moved = (coords(n, m) + np.asarray(shift, dtype=np.int64)) % m
    weights = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return moved @ weights


def torus_dist(points: np.ndarray, m: int) -> np.ndarray:
    """Word metric of Z_m^n between the given points: max_j of the circular
    coordinate distance."""
    gap = np.abs(points[:, None, :] - points[None, :, :])
    return np.minimum(gap, m - gap).max(axis=2).astype(np.float64)


def _patterns(letters, n: int) -> list:
    return [np.array(e, dtype=np.int64)
            for e in itertools.product(letters, repeat=n)]


def _energy(values, dist, n: int, m: int, shift, p: float) -> float:
    v = np.asarray(values, dtype=np.int64)
    d = dist[v[shift_index(n, m, shift)], v]
    return float(np.mean(d**p))


def cotype_point(values, dist, n: int, m: int, p: float, q: float) -> tuple:
    """(lhs, rhs_raw, gamma) of a point-valued witness, by the definition."""
    lhs = sum(_energy(values, dist, n, m, (m // 2) * np.eye(n, dtype=np.int64)[j], p)
              for j in range(n))
    pats = _patterns((-1, 0, 1), n)
    rhs = sum(_energy(values, dist, n, m, e, p) for e in pats) / len(pats)
    if rhs <= 0:
        return lhs, rhs, 0.0
    return lhs, rhs, (lhs / (m**p * n ** (1.0 - p / q) * rhs)) ** (1.0 / p)


def b_point(values, dist, n: int, m: int, ell: int) -> tuple:
    """(lhs, rhs_raw, b) of a point-valued witness, by the definition."""
    lhs = sum(_energy(values, dist, n, m, ell * np.eye(n, dtype=np.int64)[j], 2.0)
              for j in range(n))
    pats = _patterns((-1, 1), n)
    rhs = sum(_energy(values, dist, n, m, e, 2.0) for e in pats) / len(pats)
    if rhs <= 0:
        return lhs, rhs, 0.0
    return lhs, rhs, math.sqrt(lhs / (ell**2 * n * rhs))


def two_point_max(n: int, m: int, pq) -> dict:
    """max gamma over all 2^(m^n) maps into the two-point space, per (p, q).

    Into {0, 1} with unit gap every d^p equals d, so the per-witness lhs
    and rhs_raw do not depend on p and one enumeration serves every pair.
    """
    N = m**n
    witnesses = ((np.arange(2**N)[:, None] >> np.arange(N)[None, :]) & 1).astype(np.int8)
    lhs = np.zeros(2**N)
    for j in range(n):
        idx = shift_index(n, m, (m // 2) * np.eye(n, dtype=np.int64)[j])
        lhs += (witnesses != witnesses[:, idx]).mean(axis=1)
    pats = _patterns((-1, 0, 1), n)
    rhs = np.zeros(2**N)
    for e in pats:
        rhs += (witnesses != witnesses[:, shift_index(n, m, e)]).mean(axis=1)
    rhs /= len(pats)
    live = rhs > 0
    out = {}
    for p, q in pq:
        g = (lhs[live] / (m**p * n ** (1.0 - p / q) * rhs[live])) ** (1.0 / p)
        out[(p, q)] = float(g.max())
    return out


def window_average(values: np.ndarray, n: int, m: int, j: int, k: int) -> np.ndarray:
    """A_j f: mean of f(x + y) over y in [-k, k]^n, y_j even, other entries odd."""
    axes = [range(-(k - 1), k, 2) if ax == j else range(-k, k + 1, 2)
            for ax in range(n)]
    offsets = list(itertools.product(*axes))
    acc = np.zeros_like(values)
    for y in offsets:
        acc += values[shift_index(n, m, y)]
    return acc / len(offsets)


def approx_lhs(values: np.ndarray, n: int, m: int, j: int, k: int, p: float) -> float:
    """avg_x ||A_j f(x) - f(x)||_2^p for vector values."""
    diff = window_average(values, n, m, j, k) - values
    return float(np.mean(np.sqrt((np.abs(diff) ** 2).sum(axis=1)) ** p))


def cancellation_lhs(values: np.ndarray, n: int, m: int, k: int, p: float,
                     eps) -> float:
    """avg_x || sum_j eps_j (A_j f(x + e_j) - A_j f(x - e_j)) ||_2^p."""
    total = np.zeros_like(values)
    for j in range(n):
        a = window_average(values, n, m, j, k)
        e = np.eye(n, dtype=np.int64)[j]
        total += eps[j] * (a[shift_index(n, m, e)] - a[shift_index(n, m, -e)])
    return float(np.mean(np.sqrt((np.abs(total) ** 2).sum(axis=1)) ** p))


def sup_dist(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)


def lip_colip(source: np.ndarray, target: np.ndarray) -> tuple:
    """(lip, colip) of the identity between two distance tables on one set."""
    iu, ju = np.triu_indices(source.shape[0], k=1)
    ds, dt = source[iu, ju], target[iu, ju]
    return float((dt / ds).max()), float((ds / dt).max())


def grid_identity_distortion(n: int, m: int, q: float) -> float:
    """Distortion of the identity of {0..m}^n from the sup metric to l_q.

    Both metrics are translation invariant, so each pair's ratio depends
    only on its difference vector, and the absolute differences of the
    grid's pairs are exactly the nonzero points of {0..m}^n.
    """
    diff = np.array(list(itertools.product(range(m + 1), repeat=n))[1:], dtype=np.float64)
    ds = diff.max(axis=1)
    dq = (diff**q).sum(axis=1) ** (1.0 / q)
    return float((dq / ds).max() * (ds / dq).max())


def rel_close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)
