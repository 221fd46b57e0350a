"""Harmonic analysis on Z_m^n: characters, transforms, shift operators.

The character attached to a frequency vector k is
W_k(x) = exp(2*pi*i*<k, x>/m), and transforms use the normalized pairing
coeff(k) = (1/m^n) * sum_x f(x) * conj(W_k(x)), so that
f(x) = sum_k W_k(x) * coeff(k) and (1/m^n) * sum_x |f|^2 = sum_k |coeff|^2.

Transforms run numpy's mixed-radix FFT over every axis. The plain double
sum `_direct_transform` is kept only as the reference the tests and the
harmonic suite's `transform-two-path` check compare the FFT against.

Window averages (the sign average of `avg_others` and the smoothing
operators) average over a Cartesian product of per-axis offsets, so
`_window_layers` applies them one axis at a time through
`_axis_window_sum`, which the grid extraction's ball sums share, and
hands back the grid after each axis (the smoothing memo keeps them).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteValuesError,
    PreconditionViolationError,
)
from .gridops import family_table, shift_table, sign_patterns
from .spaces import TorusDomain, require_budget


@dataclass(frozen=True)
class GridFunction:
    """A function on Z_m^n given by its full value table.

    Vector-valued functions store complex values of shape (m^n, d);
    point-valued functions (into a finite metric space) store integer
    indices of shape (m^n,). Row index is the linearized point.
    """

    domain: TorusDomain
    values: np.ndarray

    @staticmethod
    def vector(domain: TorusDomain, values) -> "GridFunction":
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != domain.points:
            raise DimensionMismatchError(
                f"expected {domain.points} rows, got {v.shape[0]}"
            )
        if not np.isfinite(v).all():
            row = int(np.flatnonzero(~np.isfinite(v).all(axis=1))[0])
            raise NonFiniteValuesError(
                f"value table has a NaN or infinite entry in row {row}"
            )
        return GridFunction(domain, v)

    @staticmethod
    def points(domain: TorusDomain, values) -> "GridFunction":
        v = np.asarray(values, dtype=np.int64)
        if v.shape != (domain.points,):
            raise DimensionMismatchError(
                f"expected shape ({domain.points},), got {v.shape}"
            )
        return GridFunction(domain, v)

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    @property
    def dim(self) -> int:
        return self.values.shape[1] if self.is_vector else 1


def scale_of(f: GridFunction) -> float:
    """max_x ||f(x)||_2, the reference scale for relative tolerances."""
    if not f.is_vector:
        raise PreconditionViolationError("scale is defined for vector values")
    return float(np.sqrt((np.abs(f.values) ** 2).sum(axis=1)).max())


@dataclass(frozen=True)
class SpectralCoefficients:
    """Fourier coefficients indexed by linearized frequency vectors."""

    domain: TorusDomain
    coeffs: np.ndarray  # (m^n, d) complex


def walsh_char(domain: TorusDomain, k) -> np.ndarray:
    """W_k evaluated at every point, in linear-index order."""
    kv = np.mod(np.asarray(k, dtype=np.int64), domain.m)
    if kv.shape != (domain.n,):
        raise DimensionMismatchError(
            f"frequency must have shape ({domain.n},), got {kv.shape}"
        )
    pts = domain.coords()
    return np.exp(2j * np.pi * (pts @ kv) / domain.m)


def _direct_transform(domain: TorusDomain, values: np.ndarray,
                      sign: float, chunk: int = 256) -> np.ndarray:
    """Reference double sum: out[k] = sum_x values[x] e^{sign*2pi i k.x/m}.

    O(N^2); the FFT in fourier_forward/fourier_inverse is checked against it.
    """
    pts = domain.coords().astype(np.float64)
    out = np.empty_like(values, dtype=np.complex128)
    for lo in range(0, domain.points, chunk):
        hi = min(lo + chunk, domain.points)
        phase = np.exp(sign * 2j * np.pi * (pts[lo:hi] @ pts.T) / domain.m)
        out[lo:hi] = phase @ values
    return out


def fourier_forward(f: GridFunction) -> SpectralCoefficients:
    """Normalized forward transform (see the module docstring)."""
    if not f.is_vector:
        raise PreconditionViolationError("transforms act on vector values")
    dom = f.domain
    grid = f.values.reshape(dom.shape + (f.dim,))
    out = np.fft.fftn(grid, axes=tuple(range(dom.n))) / dom.points
    return SpectralCoefficients(dom, out.reshape(dom.points, f.dim))


def fourier_inverse(coeffs: SpectralCoefficients) -> GridFunction:
    """Inverse of fourier_forward."""
    dom = coeffs.domain
    d = coeffs.coeffs.shape[1]
    grid = coeffs.coeffs.reshape(dom.shape + (d,))
    vals = np.fft.ifftn(grid, axes=tuple(range(dom.n))) * dom.points
    return GridFunction(dom, vals.reshape(dom.points, d))


@functools.lru_cache(maxsize=32)
def _wrap(m: int, r: int) -> np.ndarray:
    """Read-only indices of an axis of length m padded cyclically by r."""
    idx = np.arange(-r, m + r) % m
    idx.setflags(write=False)
    return idx


def _axis_window_sum(grid: np.ndarray, axis: int, offsets) -> np.ndarray:
    """Sum of x -> grid(x + off e_axis) over the offset list, added in list
    order. The axis is padded cyclically once, so that every offset is a
    slice of the padded grid."""
    m = grid.shape[axis]
    r = max(abs(off) for off in offsets)
    padded = np.take(grid, _wrap(m, r), axis=axis)
    lead = (slice(None),) * axis
    acc = padded[lead + (slice(r + offsets[0], r + offsets[0] + m),)].copy()
    for off in offsets[1:]:
        acc += padded[lead + (slice(r + off, r + off + m),)]
    return acc


def _window_layers(domain: TorusDomain, values: np.ndarray,
                   axis_offsets: dict) -> list:
    """values, then its average over each further axis of axis_offsets, in
    its order: the last is the average of x -> values(x + y) over y in the
    product of the per-axis offset lists axis_offsets[axis]; axes not in
    the mapping stay put. Each is of values' shape.

    Each axis sum is scaled by the reciprocal of its count (a product, not
    a quotient, so that the sign average of avg_others keeps the bits of
    0.5 * (f(x+e) + f(x-e))).
    """
    grids = [values.reshape(domain.shape + values.shape[1:])]
    for axis, offsets in axis_offsets.items():
        grids.append(_axis_window_sum(grids[-1], axis, offsets) * (1.0 / len(offsets)))
    return [grid.reshape(values.shape) for grid in grids]


def central_diff(f: GridFunction, j: int) -> GridFunction:
    """x -> f(x + e_j) - f(x - e_j); diagonal with symbol 2i sin(2 pi k_j / m)."""
    if not 0 <= j < f.domain.n:
        raise IndexError(f"axis {j} out of range for n={f.domain.n}")
    grid = f.values.reshape(f.domain.shape + f.values.shape[1:])
    padded = np.take(grid, _wrap(f.domain.m, 1), axis=j)
    lead = (slice(None),) * j
    vals = padded[lead + (slice(2, None),)] - padded[lead + (slice(None, -2),)]
    return GridFunction(f.domain, vals.reshape(f.values.shape))


def avg_others(f: GridFunction, j: int) -> GridFunction:
    """Average of f(x + sum_{l != j} eps_l e_l) over signs eps in {-1,1}.

    The average factorizes across axes into per-axis half-sums; the
    symbol is prod_{l != j} cos(2 pi k_l / m).
    """
    if not 0 <= j < f.domain.n:
        raise IndexError(f"axis {j} out of range for n={f.domain.n}")
    others = {axis: (-1, 1) for axis in range(f.domain.n) if axis != j}
    return GridFunction(f.domain, _window_layers(f.domain, f.values, others)[-1])


def edge_diff(f: GridFunction, eps) -> GridFunction:
    """x -> f(x + eps) - f(x) for a sign or {-1,0,1} pattern eps."""
    e = np.asarray(eps, dtype=np.int64)
    if e.shape != (f.domain.n,):
        raise DimensionMismatchError(
            f"pattern must have shape ({f.domain.n},), got {e.shape}"
        )
    if np.abs(e).max(initial=0) > 1:
        raise PreconditionViolationError("pattern entries must be in {-1,0,1}")
    return GridFunction(f.domain, f.values[shift_table(f.domain, e)[0]] - f.values)


def symbol_central_diff(domain: TorusDomain, j: int) -> np.ndarray:
    ks = domain.coords()
    return 2j * np.sin(2 * np.pi * ks[:, j] / domain.m)


def symbol_avg_others(domain: TorusDomain, j: int) -> np.ndarray:
    ks = domain.coords()
    cos = np.cos(2 * np.pi * ks / domain.m)
    cos[:, j] = 1.0
    return np.prod(cos, axis=1).astype(np.complex128)


def symbol_edge_diff(domain: TorusDomain, eps) -> np.ndarray:
    ks = domain.coords()
    e = np.asarray(eps, dtype=np.int64)
    return np.exp(2j * np.pi * (ks @ e) / domain.m) - 1.0


def rad_identity_residual(f: GridFunction) -> float:
    """Largest pointwise error in the projection identity.

    For every x, projecting eps -> f(x+eps) - f(x) onto its degree-one
    part must equal (1/2) * sum_j eps_j * (central_diff(avg_others(f, j), j))(x):
    both sides act on W_k by i * sin(2 pi k_j / m) * prod_{l != j} cos(2 pi k_l / m)
    summed against eps_j. Returns max over x and eps of the l2 error, to be
    compared against 1e-10 * scale_of(f).
    """
    dom = f.domain
    if not f.is_vector:
        raise PreconditionViolationError("identity applies to vector values")
    # 88 bytes an entry of the (2^n, N, d) tensors, 48 of the n (N, d) tables
    require_budget(f"a projection residual over {2**dom.n} sign patterns",
                   (88 * 2**dom.n + 48 * dom.n) * dom.points * f.dim)
    signs = sign_patterns(dom.n)
    # H[e] = f(. + eps_e) - f(.) as one (2^n, N, d) tensor
    H = np.take(f.values, family_table(dom, "signs"), axis=0) - f.values
    coeff = np.einsum("ej,end->jnd", signs.astype(np.float64), H) / signs.shape[0]
    lhs = np.einsum("ej,jnd->end", signs.astype(np.float64), coeff)
    T = np.stack([central_diff(avg_others(f, j), j).values for j in range(dom.n)])
    rhs = 0.5 * np.einsum("ej,jnd->end", signs.astype(np.float64), T)
    err = np.sqrt((np.abs(lhs - rhs) ** 2).sum(axis=2))
    return float(err.max())


def parseval_residual(f: GridFunction) -> float:
    """Relative gap between spatial and spectral energies."""
    co = fourier_forward(f)
    spatial = float((np.abs(f.values) ** 2).sum() / f.domain.points)
    spectral = float((np.abs(co.coeffs) ** 2).sum())
    ref = max(spatial, spectral, 1e-300)
    return abs(spatial - spectral) / ref


def roundtrip_residual(f: GridFunction) -> float:
    """Relative error of inverse(forward(f)) against f."""
    back = fourier_inverse(fourier_forward(f))
    num = float(np.abs(back.values - f.values).max())
    ref = max(float(np.abs(f.values).max()), 1e-300)
    return num / ref
