"""Harmonic analysis on Z_m^n: characters, transforms, shift operators.

The character attached to a frequency vector k is
W_k(x) = exp(2*pi*i*<k, x>/m), and transforms use the normalized pairing
coeff(k) = (1/m^n) * sum_x f(x) * conj(W_k(x)), so that
f(x) = sum_k W_k(x) * coeff(k) and (1/m^n) * sum_x |f|^2 = sum_k |coeff|^2.

Transforms run by direct summation up to 4096 points (the oracle path)
and by a mixed-radix fast transform per axis beyond that; both paths
agree to 1e-10 on their overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    PreconditionViolationError,
)
from .gridops import axis_shift, family_table, roll_values, sign_patterns
from .spaces import TorusDomain
from .targets import NormTarget

DIRECT_SUM_LIMIT = 4096  # largest m^n still handled by direct summation
RESIDUAL_BUDGET = 1 << 24


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

    def shifted(self, shift) -> "GridFunction":
        return GridFunction(self.domain,
                            roll_values(self.domain, self.values, shift))


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

    def coeff(self, k) -> np.ndarray:
        return self.coeffs[self.domain.lin(k)]

    def to_json_records(self) -> list:
        recs = []
        for idx in range(self.domain.points):
            c = self.coeffs[idx]
            recs.append({
                "k": list(self.domain.coord_of(idx)),
                "re": [float(v) for v in c.real],
                "im": [float(v) for v in c.imag],
            })
        return recs


def walsh_char(domain: TorusDomain, k, x=None) -> np.ndarray | complex:
    """W_k evaluated at a single point x, or at every point when x is None."""
    kv = np.mod(np.asarray(k, dtype=np.int64), domain.m)
    if kv.shape != (domain.n,):
        raise DimensionMismatchError(
            f"frequency must have shape ({domain.n},), got {kv.shape}"
        )
    if x is not None:
        xv = np.asarray(x, dtype=np.int64)
        return complex(np.exp(2j * np.pi * float(np.dot(kv, xv)) / domain.m))
    pts = domain.coords()
    return np.exp(2j * np.pi * (pts @ kv) / domain.m)


def _direct_transform(domain: TorusDomain, values: np.ndarray,
                      sign: float, chunk: int = 256) -> np.ndarray:
    """Plain double-sum transform: out[k] = sum_x values[x] e^{sign*2pi i k.x/m}."""
    pts = domain.coords().astype(np.float64)
    out = np.empty_like(values, dtype=np.complex128)
    for lo in range(0, domain.points, chunk):
        hi = min(lo + chunk, domain.points)
        phase = np.exp(sign * 2j * np.pi * (pts[lo:hi] @ pts.T) / domain.m)
        out[lo:hi] = phase @ values
    return out


def fourier_forward(f: GridFunction, method: str = "auto") -> SpectralCoefficients:
    """Normalized forward transform; see the module docstring for paths."""
    if not f.is_vector:
        raise PreconditionViolationError("transforms act on vector values")
    dom = f.domain
    if method == "auto":
        method = "direct" if dom.points <= DIRECT_SUM_LIMIT else "fast"
    if method == "direct":
        out = _direct_transform(dom, f.values, -1.0) / dom.points
    elif method == "fast":
        grid = f.values.reshape(dom.shape + (f.dim,))
        out = np.fft.fftn(grid, axes=tuple(range(dom.n))) / dom.points
        out = out.reshape(dom.points, f.dim)
    else:
        raise PreconditionViolationError(f"unknown transform method {method!r}")
    return SpectralCoefficients(dom, out)


def fourier_inverse(coeffs: SpectralCoefficients,
                    method: str = "auto") -> GridFunction:
    """Inverse of fourier_forward."""
    dom = coeffs.domain
    d = coeffs.coeffs.shape[1]
    if method == "auto":
        method = "direct" if dom.points <= DIRECT_SUM_LIMIT else "fast"
    if method == "direct":
        vals = _direct_transform(dom, coeffs.coeffs, +1.0)
    elif method == "fast":
        grid = coeffs.coeffs.reshape(dom.shape + (d,))
        vals = np.fft.ifftn(grid, axes=tuple(range(dom.n))) * dom.points
        vals = vals.reshape(dom.points, d)
    else:
        raise PreconditionViolationError(f"unknown transform method {method!r}")
    return GridFunction(dom, vals)


def central_diff(f: GridFunction, j: int) -> GridFunction:
    """x -> f(x + e_j) - f(x - e_j); diagonal with symbol 2i sin(2 pi k_j / m)."""
    e = axis_shift(f.domain, j)
    vals = roll_values(f.domain, f.values, e) - roll_values(f.domain, f.values, -e)
    return GridFunction(f.domain, vals)


def avg_others(f: GridFunction, j: int) -> GridFunction:
    """Average of f(x + sum_{l != j} eps_l e_l) over signs eps in {-1,1}.

    The average factorizes across axes, so it is computed as a product of
    per-axis half-sums; the symbol is prod_{l != j} cos(2 pi k_l / m).
    """
    if not 0 <= j < f.domain.n:
        raise IndexError(f"axis {j} out of range for n={f.domain.n}")
    vals = f.values
    for axis in range(f.domain.n):
        if axis == j:
            continue
        e = axis_shift(f.domain, axis)
        vals = 0.5 * (roll_values(f.domain, vals, e)
                      + roll_values(f.domain, vals, -e))
    return GridFunction(f.domain, vals)


def edge_diff(f: GridFunction, eps) -> GridFunction:
    """x -> f(x + eps) - f(x) for a sign or {-1,0,1} pattern eps."""
    e = np.asarray(eps, dtype=np.int64)
    if e.shape != (f.domain.n,):
        raise DimensionMismatchError(
            f"pattern must have shape ({f.domain.n},), got {e.shape}"
        )
    if np.abs(e).max(initial=0) > 1:
        raise PreconditionViolationError("pattern entries must be in {-1,0,1}")
    return GridFunction(f.domain, roll_values(f.domain, f.values, e) - f.values)


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


@dataclass(frozen=True)
class CubeFunction:
    """A function on the sign cube {-1,1}^n with complex vector values.

    Row order matches sign_patterns(n): row-major from (-1,...,-1).
    """

    n: int
    values: np.ndarray  # (2^n, d) complex

    @staticmethod
    def make(n: int, values) -> "CubeFunction":
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != 2**n:
            raise DimensionMismatchError(
                f"expected {2**n} rows, got {v.shape[0]}"
            )
        return CubeFunction(n, v)

    def l2_norm(self, norm: NormTarget | None = None) -> float:
        norm = norm or NormTarget(p=2.0)
        return float(np.sqrt(np.mean(norm.norm(self.values) ** 2)))


def rademacher_projection(g: CubeFunction) -> CubeFunction:
    """Keep only the degree-one part: sum_j E[g * eps_j] * eps_j."""
    signs = sign_patterns(g.n).astype(np.float64)
    # c[j] = E_eps[g(eps) eps_j], shape (n, d)
    c = signs.T @ g.values / signs.shape[0]
    return CubeFunction(g.n, signs @ c)


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
    signs = sign_patterns(dom.n)
    if signs.shape[0] * dom.points * f.dim > RESIDUAL_BUDGET:
        raise BudgetExceededError("residual tensor exceeds the desk budget")
    # H[e] = f(. + eps_e) - f(.) as one (2^n, N, d) tensor
    H = f.values[family_table(dom, "signs")] - f.values
    coeff = np.einsum("ej,end->jnd", signs.astype(np.float64), H) / signs.shape[0]
    lhs = np.einsum("ej,jnd->end", signs.astype(np.float64), coeff)
    T = np.stack([
        central_diff(avg_others(f, j), j).values for j in range(dom.n)
    ])
    rhs = 0.5 * np.einsum("ej,jnd->end", signs.astype(np.float64), T)
    err = np.sqrt((np.abs(lhs - rhs) ** 2).sum(axis=2))
    return float(err.max())


@dataclass(frozen=True)
class KConvexityReport:
    """Certified lower bound on the projection norm at fixed cube dimension."""

    n: int
    dim: int
    p: float
    trials: int
    seed: int
    best_ratio: float
    witness: np.ndarray  # (2^n, d) complex values of the best cube function

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "best_ratio": self.best_ratio,
            "witness_re": self.witness.real.tolist(),
            "witness_im": self.witness.imag.tolist(),
        }


def projection_ratio(g: CubeFunction, norm: NormTarget) -> float:
    """||Rad g|| / ||g|| in L_2 of the given norm; 0 for the zero function."""
    denom = g.l2_norm(norm)
    if denom == 0:
        return 0.0
    return rademacher_projection(g).l2_norm(norm) / denom


def k_convexity_estimate(norm: NormTarget, n: int, trials: int,
                         seed: int, dim: int | None = None) -> KConvexityReport:
    """Sampled lower bound on the L_2 -> L_2 projection norm at dimension n.

    Only a per-n lower bound is reported; no limit over n is claimed.
    """
    d = dim or norm.dim or 1
    rng = np.random.default_rng(seed)
    best = -1.0
    best_vals = None
    for _ in range(trials):
        vals = rng.standard_normal((2**n, d)) + 1j * rng.standard_normal((2**n, d))
        g = CubeFunction(n, vals)
        r = projection_ratio(g, norm)
        if r > best:
            best = r
            best_vals = vals
    return KConvexityReport(
        n=n, dim=d, p=norm.p, trials=trials, seed=seed,
        best_ratio=float(best), witness=best_vals,
    )


def parseval_residual(f: GridFunction, method: str = "auto") -> float:
    """Relative gap between spatial and spectral energies."""
    co = fourier_forward(f, method=method)
    spatial = float((np.abs(f.values) ** 2).sum() / f.domain.points)
    spectral = float((np.abs(co.coeffs) ** 2).sum())
    ref = max(spatial, spectral, 1e-300)
    return abs(spatial - spectral) / ref


def roundtrip_residual(f: GridFunction, method: str = "auto") -> float:
    """Relative error of inverse(forward(f)) against f."""
    back = fourier_inverse(fourier_forward(f, method=method), method=method)
    num = float(np.abs(back.values - f.values).max())
    ref = max(float(np.abs(f.values).max()), 1e-300)
    return num / ref
