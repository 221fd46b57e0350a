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
import threading
from dataclasses import dataclass

import numpy as np

from .checks import InequalityCheck, make_check
from .errors import (
    EvenKError,
    KTooLargeError,
    PreconditionViolationError,
)
from .gridops import (
    INCREMENTAL_POINTS,
    SHIFT_BLOCK_ELEMENTS,
    climb,
    family_table,
    mean_power,
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


@functools.lru_cache(maxsize=4)
def _update_tables(dom: TorusDomain) -> tuple:
    """Per axis, shift_table rows whose entries at a changed point x's
    coordinates add up to the indices an update reads: y = x - a and x - b
    for each memo row d(f(y+a), f(y+b)), then y + a and y + b; also the flat
    start of each y's row."""
    n, m, pats = dom.n, dom.m, sign_patterns(dom.n)
    a = np.vstack([np.eye(n, dtype=np.int64), pats, pats])  # rows e_j, eps, eps
    b = np.vstack([0 * a[:-len(pats)], -pats])  # against 0, 0, -eps
    shifts = np.vstack([-a, -b, 0 * a, a - b, b - a, 0 * a])
    line = TorusDomain(n=1, m=m)
    tables = [shift_table(line, shifts[:, ax]) * m**(n - 1 - ax) for ax in range(n)]
    return tables, np.tile(np.arange(len(a)) * dom.points, 2)[:, None]


def _words(values: np.ndarray) -> np.ndarray:
    """The table's bits as flat unsigned integer words."""
    return values.reshape(-1).view(f"u{min(values.itemsize, 8)}")


class _Witness:
    """The p-free arrays of one witness, each built on first use (a point-
    valued witness reads only its distance rows). sync moves them to a table
    that differs at no more than INCREMENTAL_POINTS points: it recomputes
    just the moved distance entries with the same elementwise kernel, so
    each keeps a full pass's bits, and drops the rest."""

    def __init__(self, key: tuple, values: np.ndarray):
        self.key, self.values = key, values.copy()  # never the caller's table
        self.dom, self.k, self.target = key[:3]
        self.rows, self.window = None, {}

    def sync(self, values: np.ndarray) -> bool:
        """Move to values; False when more points than that changed. Bits are
        compared, so -0.0 against 0.0 is a change."""
        new, old = _words(values), _words(self.values)
        width = len(new) // len(values)  # words per point; when more points
        # differ, the first INCREMENTAL_POINTS * width + 1 differing words show it
        pos = np.flatnonzero(new != old)[:INCREMENTAL_POINTS * width + 1]
        changed = sorted({i // width for i in pos.tolist()})
        if len(changed) > INCREMENTAL_POINTS:
            return False
        for x in changed:
            self.values[x], self.window = values[x], {}
        if changed and self.rows is not None:
            tables, start = _update_tables(self.dom)
            at = np.unravel_index(changed, self.dom.shape)
            idx = sum(t[:, c] for t, c in zip(tables, at))
            y, ya, yb = idx.reshape(3, len(start), -1)
            v = self.values
            self.rows.put(start + y, self.target.pairwise(v.take(ya, axis=0),
                                                          v.take(yb, axis=0)))
        return True

    def distances(self) -> np.ndarray:
        """The rows of _update_tables, in its order, gathering at most
        SHIFT_BLOCK_ELEMENTS value entries at a time."""
        if self.rows is None:
            v, signs = self.values, family_table(self.dom, "signs")
            step = max(1, SHIFT_BLOCK_ELEMENTS // max(1, v.size))
            pairs = [(family_table(self.dom, "axes", 1), None), (signs, None),
                     (signs, signs[::-1])]  # row -1 - r of the sign table is -eps_r
            self.rows = np.concatenate([
                self.target.pairwise(v.take(a[lo:lo + step], axis=0), v if b is None
                                     else v.take(b[lo:lo + step], axis=0))
                for a, b in pairs for lo in range(0, len(a), step)])
        return self.rows

    def built(self, key, build):
        """The window array under key, from build() on first use."""
        if key not in self.window:
            self.window[key] = build()
        return self.window[key]

    def average(self, j: int) -> np.ndarray:  # A_j f
        return self.built(j, lambda: _window_average(
            self.dom, self.values, _window_axes(j, self.k, self.dom)))

    def diffs(self) -> list:  # the central differences of the A_j f
        return self.built("diffs", lambda: [
            central_diff(GridFunction(self.dom, self.average(j)), j).values
            for j in range(self.dom.n)])


_MEMO = threading.local()  # the last witness checked, per thread


def _witness(f: GridFunction, target, k: int) -> _Witness:
    """The memo entry for f: reused, moved to f's values, or built afresh."""
    key = (f.domain, k, target, f.values.shape, f.values.dtype)
    w = getattr(_MEMO, "witness", None)
    if w is None or w.key != key or not w.sync(f.values):
        w = _MEMO.witness = _Witness(key, f.values)
    return w


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
    dom, n = f.domain, f.domain.n
    target = as_target(space, f.values)
    w = _witness(f, target, k)
    if f.is_vector:
        gap = w.built(("gap", j), lambda: target.norm(w.average(j) - f.values))
        lhs = float(mean_power(gap, p))
    else:
        sset = smoothing_set(j, k, dom)
        table = shift_table(dom, sset.members)
        lhs = ordered_sum(shift_energy(f.values, target, table, p)) / sset.size
    rows = w.distances()
    edge = ordered_sum(mean_power(rows[n:n + 2**n], p)) / 2**n
    rhs = 2.0**p * k**p * edge + 2.0 ** (p - 1) * float(mean_power(rows[j], p))
    return make_check(
        "smoothing-approximation",
        {"n": n, "m": dom.m, "j": j, "k": k, "p": p},
        lhs,
        rhs,
    )


def _signed_sum(eps: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """sum_j eps_j diffs[j] for a sign pattern eps, added left to right:
    the floats of the complex product over j, with no BLAS call."""
    return functools.reduce(operator.add,
                            (d if e > 0 else -d for e, d in zip(eps, diffs)))


def check_lemma_cancellation(f: GridFunction, space, k: int, p: float,
                             eps) -> InequalityCheck:
    """Signed sum of smoothed central differences: the cancellation bound.

        avg_x || sum_j eps_j (A_j f(x+e_j) - A_j f(x-e_j)) ||^p
            <= 3^(p-1) avg_x ||f(x+eps) - f(x-eps)||^p
               + (24^p n^(2p-1) / k^p) sum_j avg_x ||f(x+e_j) - f(x)||^p

    for any fixed full sign pattern eps. Vector-valued witnesses only.
    """
    if p < 1:
        raise PreconditionViolationError(f"p must be >= 1, got {p}")
    if not f.is_vector:
        raise PreconditionViolationError("cancellation check needs vectors")
    dom = f.domain
    n = dom.n
    ev = np.asarray(eps, dtype=np.int64)
    if ev.shape != (n,) or any(abs(e) != 1 for e in ev.tolist()):
        raise PreconditionViolationError(
            f"eps must be a full sign pattern of length {n}"
        )
    label = "".join("+" if e > 0 else "-" for e in ev.tolist())
    target = as_target(space, f.values)
    w = _witness(f, target, k)

    row = int(label.replace("+", "1").replace("-", "0"), 2)  # sign_patterns row
    signed = w.built(("signed", row), lambda: target.norm(_signed_sum(ev, w.diffs())))
    lhs = float(mean_power(signed, p))
    rows = w.distances()
    eps_term = float(mean_power(rows[n + 2**n + row], p))
    edge_sum = ordered_sum(mean_power(rows[:n], p))
    rhs = (3.0 ** (p - 1) * eps_term
           + 24.0**p * n ** (2 * p - 1) / k**p * edge_sum)
    return make_check(
        "smoothing-cancellation",
        {"n": n, "m": dom.m, "k": k, "p": p, "eps": label},
        lhs,
        rhs,
    )


def check_lemma_cancellation_all(f: GridFunction, space, k: int,
                                 p: float) -> list[InequalityCheck]:
    """The cancellation bound for every full sign pattern, sharing work."""
    return [check_lemma_cancellation(f, space, k, p, eps)
            for eps in sign_patterns(f.domain.n)]


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
