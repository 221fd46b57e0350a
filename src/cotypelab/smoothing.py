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
from .harmonic import GridFunction, _window_layers, central_diff
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
    return GridFunction(f.domain, _window_layers(f.domain, f.values, axes)[-1])


def _flat(dom: TorusDomain, deltas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(P, T) linear indices of the points x + delta, wrapped, for an (n, T)
    stack of offsets and the (n, P) coordinates xs of P points."""
    return np.ravel_multi_index(deltas[:, None] + xs[..., None], dom.shape,
                                mode="wrap")


@functools.lru_cache(maxsize=4)
def _row_deltas(dom: TorusDomain) -> tuple:
    """The (n, 6R) offsets from a changed point x of what its distance rows
    update: y = x - a and x - b for each memo row d(f(y+a), f(y+b)), then
    y + a, then y + b; also the flat start of each y's row."""
    n, pats = dom.n, sign_patterns(dom.n)
    a = np.vstack([np.eye(n, dtype=np.int64), pats, pats])  # rows e_j, eps, eps
    b = np.vstack([0 * a[:-len(pats)], -pats])  # against 0, 0, -eps
    deltas = np.vstack([-a, -b, 0 * a, a - b, b - a, 0 * a]).T.copy()
    return deltas, np.tile(np.arange(len(a)) * dom.points, 2)


@functools.lru_cache(maxsize=2)
def _window_plan(dom: TorusDomain, k: int, js: tuple, diff: bool) -> tuple:
    """What sync recomputes around a moved point x, as offsets from x.

    An axis sum of A_j f changes on the box y = x + off over the offsets of
    its axis and of the sums before it, and y reads y + off e_axis for
    each offset of its axis, in list order; the list one entry short (axis
    j's) reads y again last, and that read is not added. The central
    differences change on the odd box |y_i - x_i| <= k and read y + e_j
    and y - e_j.

    Returns the (n, T) stack of offsets, the distance rows' first; the
    start of each offset's table in its stack (i * N for the i-th j of js,
    0 for the values and the rows); per axis, the slices of the reads and
    writes of every j, the reciprocal count of each write and the number
    of leading writes with the short list; and, when diff, the slices of
    the central differences' reads and writes.
    """
    n, N, e, sums = dom.n, dom.points, np.eye(dom.n, dtype=np.int64), []
    blocks = [(_row_deltas(dom)[0].T, 0)]  # first, the distance rows' offsets
    for axis in range(n):  # the short list, j = axis, first
        boxes, reads, scale, at = [], [], [], []
        for i, j in sorted(enumerate(js), key=lambda ij: ij[1] != axis):
            lists = list(_window_axes(j, k, dom).values())
            box = itertools.product(*lists[:axis + 1], *[[0]] * (n - 1 - axis))
            boxes.append(np.array(list(box), dtype=np.int64))
            offsets = lists[axis] + (0,) * (k + 1 - len(lists[axis]))
            reads.append(boxes[-1] + np.multiply.outer(offsets, e[axis])[:, None])
            scale += [1.0 / len(lists[axis])] * len(boxes[-1])
            at += [i * N] * len(boxes[-1])
        blocks += [(np.concatenate(reads, axis=1), at if axis else 0),
                   (np.concatenate(boxes), at)]
        sums.append((np.array(scale)[:, None], len(boxes[0]) if axis in js else 0))
    if diff:
        odd = np.array(list(itertools.product(range(-k, k + 1, 2), repeat=n)),
                       dtype=np.int64)
        at, up = np.arange(len(js))[:, None] * N, e[list(js)][:, None]
        blocks += [(np.stack([odd + up, odd - up]), at), (odd + 0 * up, at)]
    ends = np.cumsum([0] + [np.prod(d.shape[:-1]) for d, _ in blocks]).tolist()
    cuts = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
    deltas = np.vstack([d.reshape(-1, n) for d, _ in blocks]).T.copy()
    starts = np.concatenate([np.broadcast_to(at, d.shape[:-1]).reshape(-1)
                             for d, at in blocks])
    return (deltas, starts, [(cuts[2 * a + 1], cuts[2 * a + 2], *sums[a])
                             for a in range(n)], cuts[2 * n + 1:])


def _words(values: np.ndarray) -> np.ndarray:
    """The table's bits as flat unsigned integer words."""
    return values.reshape(-1).view(f"u{min(values.itemsize, 8)}")


class _Witness:
    """The p-free arrays of one witness, each built on first use (a point-
    valued witness reads only its distance rows): its distance rows, per j
    the grid after each axis sum of A_j f (from _window_layers; the last
    is A_j f), the central differences of the A_j f, and the norms the
    checks take of them.

    sync moves them to a table that differs at no more than
    INCREMENTAL_POINTS points. It recomputes just the entries the moved
    points reach, with the same elementwise kernels in the same order, so
    each keeps a full build's bits, and drops the norms. For that, stack
    keeps the axis sums of every held j in one stack per axis, and the
    central differences in one more, so that one plan updates every j."""

    def __init__(self, key: tuple, values: np.ndarray):
        self.key, self.values = key, values.copy()  # never the caller's table
        self.dom, self.k, self.target = key[:3]
        self.rows, self.layers, self.diff, self.norms = None, {}, None, {}
        self.stacks = None

    def sync(self, values: np.ndarray) -> bool:
        """Move to values; False when more points than that changed. Bits are
        compared, so -0.0 against 0.0 is a change."""
        new, old = _words(values), _words(self.values)
        width = len(new) // len(values)  # words per point; when more points
        # differ, the first INCREMENTAL_POINTS * width + 1 differing words show it
        pos = (new != old).nonzero()[0][:INCREMENTAL_POINTS * width + 1]
        changed = sorted({i // width for i in pos.tolist()})
        if len(changed) > INCREMENTAL_POINTS:
            return False
        if not changed:
            return True
        v, self.norms = self.values, {}
        for x in changed:
            v[x] = values[x]
        if self.rows is None and not self.layers:
            return True
        if self.layers and self.stacks is None:
            self.stack()
        rows, start = _row_deltas(self.dom)  # the plan's first offsets
        deltas, starts, sums, diffs = self.plan if self.layers else (rows, 0, [], [])
        xs, P = np.array(np.unravel_index(changed, self.dom.shape)), len(changed)
        idx = _flat(self.dom, deltas, xs) + starts
        if self.rows is not None:
            y = idx[:, :rows.shape[1]].reshape(P, 3, -1)
            g = v.take(y[:, 1:], axis=0)
            self.rows.put(start + y[:, 0], self.target.pairwise(g[:, 0], g[:, 1]))
        if not self.layers:
            return True
        grid = v
        for stack, (reads, writes, scale, short) in zip(self.stacks, sums):
            g = grid.take(idx[:, reads].reshape(P, self.k + 1, -1), axis=0)
            acc = g[:, 0] + g[:, 1] if self.k > 1 else g[:, 0].copy()
            for t in range(2, self.k):  # (P, R, d), added in offset-list order
                acc += g[:, t]
            if short < len(scale):
                acc[:, short:] += g[:, -1, short:]
            stack[idx[:, writes]] = acc * scale
            grid = stack
        if diffs:  # A_j f(y + e_j) - A_j f(y - e_j)
            reads, writes = diffs
            g = grid.take(idx[:, reads].reshape(P, 2, -1), axis=0)
            self.stacks[-1][idx[:, writes]] = g[:, 0] - g[:, 1]
        return True

    def distances(self) -> np.ndarray:
        """The rows of _row_deltas, in its order, gathering at most
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
        """The norm under key, from build() on first use."""
        if key not in self.norms:
            self.norms[key] = build()
        return self.norms[key]

    def stack(self) -> None:
        """Move the cached axis sums into n stacks, one per axis, and the
        central differences into one, each with a slot of N rows per j, so
        that a move updates every j at once through one plan."""
        n, js, (N, *rest) = self.dom.n, sorted(self.layers), self.values.shape
        self.plan = _window_plan(self.dom, self.k, tuple(js), self.diff is not None)
        self.stacks = [np.empty((len(js) * N, *rest), self.values.dtype)
                       for _ in range(n + (self.diff is not None))]
        for i, j in enumerate(js):
            slots = [stack[i * N:(i + 1) * N] for stack in self.stacks]
            held = self.layers[j] + ([] if self.diff is None else [self.diff[j]])
            for slot, array in zip(slots, held):
                slot[:] = array
            self.layers[j] = slots[:n]
            if self.diff is not None:
                self.diff[j] = slots[n]

    def average(self, j: int) -> np.ndarray:  # A_j f
        if j not in self.layers:
            self.layers[j], self.stacks = _window_layers(
                self.dom, self.values, _window_axes(j, self.k, self.dom))[1:], None
        return self.layers[j][-1]

    def diffs(self) -> list:  # the central differences of the A_j f
        if self.diff is None:
            self.diff, self.stacks = [
                central_diff(GridFunction(self.dom, self.average(j)), j).values
                for j in range(self.dom.n)], None
        return self.diff


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


@functools.lru_cache(maxsize=64)
def _sign_pattern(n: int, raw: bytes) -> tuple[np.ndarray, str, int]:
    """(read-only int64 signs, label, sign_patterns row) of the int64 bytes
    of a full sign pattern of length n, parsed once a pattern."""
    ev = np.frombuffer(raw, dtype=np.int64)
    if ev.shape != (n,) or any(abs(e) != 1 for e in ev.tolist()):
        raise PreconditionViolationError(
            f"eps must be a full sign pattern of length {n}"
        )
    label = "".join("+" if e > 0 else "-" for e in ev.tolist())
    return ev, label, int(label.replace("+", "1").replace("-", "0"), 2)


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
    ev, label, row = _sign_pattern(n, ev.tobytes() if ev.shape == (n,) else b"")
    target = as_target(space, f.values)
    w = _witness(f, target, k)

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
