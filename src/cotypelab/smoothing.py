"""Window-averaging operators on the torus and their two key inequalities.

For a coordinate j and an odd window radius k < m/2, the index set
collects the offsets y in [-k, k]^n whose j-th entry is even and whose
other entries are all odd; averaging f over x + (that set) produces an
operator that nearly inverts itself along coordinate j while keeping
full-sign edge increments under control. The two checks in this module
certify the quantitative forms of those two statements.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .checks import InequalityCheck, make_check
from .errors import (
    EvenKError,
    KTooLargeError,
    PreconditionViolationError,
)
from .gridops import (
    climb,
    family_table,
    ordered_sum,
    random_vector_values,
    shift_energy,
    shift_table,
    sign_patterns,
)
from .harmonic import GridFunction, _window_average, central_diff
from .spaces import TorusDomain
from .targets import as_target

ADVERSARIAL_DIM = 2  # the adversarial climbs' witnesses take values in C^2


@dataclass(frozen=True)
class SmoothingIndexSet:
    j: int
    k: int
    members: np.ndarray  # (size, n) integer offsets

    @property
    def size(self) -> int:
        return self.members.shape[0]

    def multiplier(self, freq, m: int) -> complex:
        """Average of the frequency-freq character over the member offsets."""
        kv = np.asarray(freq, dtype=np.int64)
        phases = np.exp(2j * np.pi * (self.members @ kv) / m)
        return complex(phases.mean())


def _window_axes(j: int, k: int, domain: TorusDomain) -> dict:
    """Per-axis offsets of the index set: evens on axis j, odds elsewhere."""
    if not 0 <= j < domain.n:
        raise PreconditionViolationError(
            f"coordinate {j} outside 0..{domain.n - 1}")
    if k % 2 == 0 or k < 1:
        raise EvenKError(f"window radius must be a positive odd integer, got {k}")
    if not k < domain.m / 2:
        raise KTooLargeError(f"need k < m/2, got k={k} with m={domain.m}")
    evens = tuple(range(-(k - 1), k, 2))
    odds = tuple(range(-k, k + 1, 2))
    return {ax: evens if ax == j else odds for ax in range(domain.n)}


def smoothing_set(j: int, k: int, domain: TorusDomain) -> SmoothingIndexSet:
    """Offsets y in [-k,k]^n with y_j even and every other entry odd.

    Cardinality is k * (k+1)^(n-1): k even residues on coordinate j,
    k+1 odd residues elsewhere.
    """
    axes = _window_axes(j, k, domain).values()
    members = np.array(list(itertools.product(*axes)), dtype=np.int64)
    assert members.shape[0] == k * (k + 1) ** (domain.n - 1)
    return SmoothingIndexSet(j=j, k=k, members=members)


def smoothing_apply(f: GridFunction, j: int, k: int) -> GridFunction:
    """Average f over the translated index set: an averaging convolution.

    Fixes constants and is a pointwise norm contraction relative to the
    window maximum. Vector-valued input only; metric-valued witnesses
    enter the inequality checks through distances instead. The index set
    is a product of per-axis offset lists, so the average is taken one
    axis at a time.
    """
    if not f.is_vector:
        raise PreconditionViolationError(
            "smoothing averages vectors; point-valued input has no mean"
        )
    axes = _window_axes(j, k, f.domain)
    return GridFunction(f.domain, _window_average(f.domain, f.values, axes))


def _norm_of(target):
    norm = getattr(target, "norm", None)
    if norm is None:
        raise PreconditionViolationError(
            "this check needs a normed codomain for its left-hand side"
        )
    return norm


def _edge_energy(f: GridFunction, target, p: float) -> float:
    """E over full sign patterns of avg_x d(f(x+eps), f(x))^p."""
    table = family_table(f.domain, "signs")
    return ordered_sum(shift_energy(f.values, target, table, p)) / len(table)


def check_lemma_approx(f: GridFunction, space, j: int, k: int,
                       p: float) -> InequalityCheck:
    """Window average stays close to f: the approximation inequality.

        avg_x ||A_j f(x) - f(x)||^p
            <= 2^p k^p E_{eps in {-1,1}^n} avg_x d(f(x+eps), f(x))^p
               + 2^(p-1) avg_x d(f(x+e_j), f(x))^p

    For a metric-valued witness the left side is replaced by the window
    average of d(f(x+y), f(x))^p, which dominates the normed form.
    """
    if p < 1:
        raise PreconditionViolationError(f"p must be >= 1, got {p}")
    dom = f.domain
    target = as_target(space)
    if f.is_vector:
        smoothed = smoothing_apply(f, j, k)
        norm = _norm_of(target)
        lhs = float(np.mean(norm(smoothed.values - f.values) ** p))
    else:
        sset = smoothing_set(j, k, dom)
        table = shift_table(dom, sset.members)
        lhs = ordered_sum(shift_energy(f.values, target, table, p)) / sset.size
    ej = np.take(f.values, family_table(dom, "axes", 1)[j], axis=0)
    ej_term = float(np.mean(target.pairwise(ej, f.values) ** p))
    rhs = 2.0**p * k**p * _edge_energy(f, target, p) + 2.0 ** (p - 1) * ej_term
    return make_check(
        "smoothing-approximation",
        {"n": dom.n, "m": dom.m, "j": j, "k": k, "p": p},
        lhs,
        rhs,
    )


def _smoothed_central_diffs(f: GridFunction, k: int) -> np.ndarray:
    """Stack of central differences of the per-coordinate window averages."""
    return np.stack([
        central_diff(smoothing_apply(f, j, k), j).values
        for j in range(f.domain.n)
    ])


def check_lemma_cancellation(f: GridFunction, space, k: int, p: float,
                             eps) -> InequalityCheck:
    """Signed sum of smoothed central differences: the cancellation bound.

        avg_x || sum_j eps_j (A_j f(x+e_j) - A_j f(x-e_j)) ||^p
            <= 3^(p-1) avg_x ||f(x+eps) - f(x-eps)||^p
               + (24^p n^(2p-1) / k^p) sum_j avg_x ||f(x+e_j) - f(x)||^p

    for any fixed full sign pattern eps. Vector-valued witnesses only.
    """
    diffs = _smoothed_central_diffs(f, k)
    return _cancellation_check_from(f, space, k, p, eps, diffs)


def _signed_sum(eps: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """sum_j eps_j diffs[j] for a sign pattern eps, added left to right:
    the floats of the complex product over j, with no BLAS call."""
    return functools.reduce(operator.add,
                            (d if e > 0 else -d for e, d in zip(eps, diffs)))


def _cancellation_check_from(f: GridFunction, space, k: int, p: float,
                             eps, diffs: np.ndarray) -> InequalityCheck:
    if p < 1:
        raise PreconditionViolationError(f"p must be >= 1, got {p}")
    if not f.is_vector:
        raise PreconditionViolationError("cancellation check needs vectors")
    dom = f.domain
    n = dom.n
    ev = np.asarray(eps, dtype=np.int64)
    if ev.shape != (n,) or not np.all(np.abs(ev) == 1):
        raise PreconditionViolationError(
            f"eps must be a full sign pattern of length {n}"
        )
    target = as_target(space)
    norm = _norm_of(target)

    signed = _signed_sum(ev, diffs)
    lhs = float(np.mean(norm(signed) ** p))

    row = np.ravel_multi_index(tuple((ev + 1) // 2), (2,) * n)  # -eps: 2^n - 1 - row
    fwd, bwd = np.take(f.values, family_table(dom, "signs")[[row, 2**n - 1 - row]],
                       axis=0)
    eps_term = float(np.mean(norm(fwd - bwd) ** p))
    edge_sum = ordered_sum(
        shift_energy(f.values, target, family_table(dom, "axes", 1), p))
    rhs = (3.0 ** (p - 1) * eps_term
           + 24.0**p * n ** (2 * p - 1) / k**p * edge_sum)
    return make_check(
        "smoothing-cancellation",
        {"n": n, "m": dom.m, "k": k, "p": p,
         "eps": "".join("+" if e > 0 else "-" for e in ev)},
        lhs,
        rhs,
    )


def check_lemma_cancellation_all(f: GridFunction, space, k: int,
                                 p: float) -> list[InequalityCheck]:
    """The cancellation bound for every full sign pattern, sharing work."""
    diffs = _smoothed_central_diffs(f, k)
    return [
        _cancellation_check_from(f, space, k, p, eps, diffs)
        for eps in sign_patterns(f.domain.n)
    ]


def _adversarial(dom: TorusDomain, check_of, steps: int,
                 seed: int) -> InequalityCheck:
    """Maximize lhs - rhs of check_of(f) by random single-point nudges of a
    Gaussian witness; returns the check of the best witness. A positive
    margin would falsify the lemma."""
    rng = np.random.default_rng(seed)
    values = random_vector_values(dom, ADVERSARIAL_DIM, rng)
    f = GridFunction(dom, values)  # climb edits values, so f follows every step

    def margin(_):
        chk = check_of(f)
        return chk.lhs - chk.rhs

    def nudge(rng, old):
        return old + 0.7 * (rng.standard_normal(ADVERSARIAL_DIM)
                             + 1j * rng.standard_normal(ADVERSARIAL_DIM))

    climb(values, margin, nudge, steps, rng)
    return check_of(f)


def adversarial_approx_search(n: int, m: int, j: int, k: int, p: float,
                              norm, steps: int = 60,
                              seed: int = 0) -> InequalityCheck:
    """Hill-climb the approximation margin (strict improvement only); the
    result should never pass 0."""
    return _adversarial(TorusDomain(n=n, m=m),
                        lambda f: check_lemma_approx(f, norm, j, k, p),
                        steps, seed)


def adversarial_cancellation_search(n: int, m: int, k: int, p: float, eps,
                                    norm, steps: int = 60,
                                    seed: int = 0) -> InequalityCheck:
    """Hill-climb the cancellation margin (strict improvement only); the
    result should never pass 0."""
    return _adversarial(TorusDomain(n=n, m=m),
                        lambda f: check_lemma_cancellation(f, norm, k, p, eps),
                        steps, seed)
