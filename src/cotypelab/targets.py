"""Codomain abstractions: where function values live and how far apart they are.

Every functional in this package consumes distances through a pairwise
callback: a FiniteMetricSpace's own for point-valued witnesses, or a
NormTarget's l_p norm for vectors, so both share the same evaluation paths.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    PreconditionViolationError,
    SchemaViolationError,
)
from .spaces import FiniteMetricSpace, require_indices


@dataclass(frozen=True)
class NormTarget:
    """Values are complex vectors measured in the l_p norm."""

    p: float
    dim: int = 0  # 0 means any dimension

    def __post_init__(self):
        if not math.isinf(self.p) and self.p < 1:
            raise SchemaViolationError(f"norm exponent must be >= 1, got {self.p}")

    def norm(self, v: np.ndarray) -> np.ndarray:
        """l_p norm over the last axis, one coordinate slice at a time, added
        left to right (numpy's own order below 8 coordinates)."""
        a = np.abs(np.asarray(v))
        if a.ndim == 0:
            return a
        if self.dim and a.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected vectors of dimension {self.dim}, got {a.shape[-1]}"
            )
        coords = [a[..., c] for c in range(a.shape[-1])] or [np.zeros(a.shape[:-1])]
        if math.isinf(self.p):
            return functools.reduce(np.maximum, coords)
        if self.p == 1:
            return functools.reduce(operator.add, coords)
        if self.p == 2:
            return np.sqrt(functools.reduce(operator.add, (c * c for c in coords)))
        total = functools.reduce(operator.add, (np.power(c, self.p) for c in coords))
        return np.power(total, 1.0 / self.p)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.norm(np.asarray(a) - np.asarray(b))


def as_target(space_or_norm, values: np.ndarray):
    """The codomain, once values fit it: a FiniteMetricSpace takes point
    indices, a NormTarget an (N, d) vector table."""
    if isinstance(space_or_norm, FiniteMetricSpace):
        require_indices(values, space_or_norm.size)
    elif not isinstance(space_or_norm, NormTarget):
        raise SchemaViolationError(
            f"cannot interpret {type(space_or_norm).__name__} as a codomain")
    elif values.ndim != 2:
        raise PreconditionViolationError(
            f"a normed codomain takes (N, d) vectors, got shape {values.shape}")
    return space_or_norm
