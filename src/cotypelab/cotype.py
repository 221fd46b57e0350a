"""Cotype functionals on the discrete torus and their extremal searches.

The central quantity: for f on Z_m^n with values in a metric space,

    lhs(f)     = sum_j avg_x d(f(x + (m/2) e_j), f(x))^p
    rhs_raw(f) = avg over eps in {-1,0,1}^n of avg_x d(f(x+eps), f(x))^p
    gamma_hat  = ( lhs / (m^p * n^(1-p/q) * rhs_raw) )^(1/p)

The companion diagonal-shift quantity replaces the half-circumference
shift by an even shift ell and averages edges over full sign patterns:

    b_hat = sqrt( sum_j avg_x d(f(x + ell e_j), f(x))^2
                  / (ell^2 * n * avg_{eps in {-1,1}^n} avg_x d(f(x+eps), f(x))^2) )

Every witness satisfies b_hat <= 1 (up to round-off); the code treats a
violation as a defect, not as data.

Both, and the shift-mod and edge-sum checks, are one ratio of a long-shift
energy to an averaged edge energy, and each has one _Ratio record (shift
family, exponent, weight, root, ceiling, samples) whose measure gives every
evaluation its two sides. Every maximum over maps ranks witnesses by one
scorer (_scorer), and reports its winner's evaluation.
Every shift average runs on index tables that gridops.family_table caches
per shift family or edge sample, through gridops.shift_energy or, for
two-point witnesses, as xor counts on bit planes. Per-shift means are
added in shift order, so values match a shift-by-shift evaluation bit for bit.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields, replace
from math import comb

import numpy as np

from .checks import InequalityCheck, make_check
from .errors import (
    BudgetExceededError,
    InvariantViolationError,
    NotFoundError,
    OddEllError,
    OddMError,
    PreconditionViolationError,
)
from .gridops import (
    SHIFT_BLOCK_ELEMENTS,
    ShiftSums,
    dist_power,
    family_table,
    ordered_sum,
    random_point_values,
    shift_energy,
    shift_energy_batch,
    sign_patterns,
)
from .harmonic import GridFunction
from .spaces import (FiniteMetricSpace, TorusDomain, require_budget,
                     require_float, require_indices, two_point_space)
from .targets import NormTarget, as_target

EPS_ENUM_BUDGET = 1 << 22  # exact eps enumeration while 3^n * m^n stays below
DEFAULT_BUDGET = 1 << 20  # evaluations of a maximum: a witness enumerated or scored
B_INVARIANT_TOL = 1e-9
WITNESS_CHUNK = 4096  # witnesses, or climbing restarts, held at once
XOR_SECONDS = 2e-9  # a witness-shift-point on bit planes: 1.3 ns at (1,20)


class _Report:
    def to_json_dict(self) -> dict:
        """Every field that is set, a point witness as its list of ints; a
        vector witness stays out."""
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, GridFunction):
                value = None if value.is_vector else value.values.tolist()
            if value is not None:
                out[field.name] = value
        return out


@dataclass(frozen=True)
class CotypeReport(_Report):
    n: int
    m: int
    p: float
    q: float
    lhs: float
    rhs_raw: float
    gamma_hat: float
    degenerate: bool
    mode: str  # "exact" or "sampled"
    stderr: float = 0.0  # of rhs_raw, sampled mode only
    seed: int | None = None
    budget: int | None = None
    witness: GridFunction | None = None


def _require_even_m(m: int) -> None:
    if m % 2 != 0:
        raise OddMError(f"even m required, got {m}")


@dataclass(frozen=True)
class _Ratio:
    """One quantity root(lhs / (weight * rhs_raw)) on Z_m^n: lhs adds the
    means of the n long shifts that lead its table, rhs_raw averages those
    of its edge patterns, or estimates that from samples of them (strata).
    root is 1/p, or None for a correctly rounded square root (x ** 0.5 is
    libm pow, which need not round the same); a value above the ceiling is
    a defect and raises."""

    n: int
    family: str
    amount: int
    p: float  # exponent of the distances
    patterns: int
    weight: float
    root: float | None = None
    ceiling: float = math.inf
    samples: int = 0

    @functools.cached_property
    def strata(self) -> tuple:
        """((weight, start, stop), ...) per number z = 0..n-1 of zero entries
        of eps: its share of {-1,0,1}^n and the table rows sampled from it;
        () when exact. Decided on first use, as its big integers grow with n."""
        n, k = self.n, self.samples
        weights = [comb(n, z) * 2 ** (n - z) / 3**n for z in range(n)] if k else []
        wsum, stop = ordered_sum(weights), n
        return tuple((w, stop, stop := stop + max(1, round(k * w / wsum))) for w in weights)

    def table(self, dom: TorusDomain) -> np.ndarray:
        return family_table(dom, tuple(b - a for _, a, b in self.strata) or self.family,
                            self.amount)

    def measure(self, f: GridFunction, space_or_norm) -> tuple[float, float, float]:
        """(lhs, rhs_raw, stderr) of one witness f into the codomain: row_sides
        of its per-shift means over table, and a sampled rhs_raw's stderr."""
        means = shift_energy(f.values, as_target(space_or_norm, f.values),
                             self.table(f.domain), self.p)
        (lhs,), (rhs_raw,) = self.row_sides(means[None])
        var = ordered_sum([w**2 * float(means[a:b].var(ddof=1)) / (b - a)
                           for w, a, b in self.strata if b - a > 1])
        return float(lhs), float(rhs_raw), math.sqrt(var)

    def row_sides(self, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lhs, rhs_raw) of each row of (W, S) means, added in row order from
        0.0 as += adds: the first n means, and the rest over the pattern count
        or, when sampled, each stratum's weight times its mean."""
        def added(terms):  # + 0.0 turns a -0.0 total into the 0.0 of 0.0 + -0.0
            return np.add.accumulate(terms, axis=1)[:, -1] + 0.0

        n, strata = self.n, [w * means[:, a:b].mean(axis=1) for w, a, b in self.strata]
        return added(means[:, :n]), (added(np.column_stack(strata)) if strata
                                     else added(means[:, n:]) / self.patterns)

    def value(self, lhs: float, rhs_raw: float) -> tuple[float, bool]:
        """(value, degenerate); 0 and degenerate when rhs_raw <= 0 or the
        value is not finite (an overflowed side)."""
        if rhs_raw <= 0.0:
            return 0.0, True
        x = lhs / (self.weight * rhs_raw)
        value = math.sqrt(x) if self.root is None else x ** self.root
        if not math.isfinite(value):
            return 0.0, True
        if value > self.ceiling:
            raise InvariantViolationError(
                f"{value} exceeds its ceiling {self.ceiling} at n={self.n}, "
                f"{self.family} shift {self.amount}")
        return value, False


def _gamma_ratio(n: int, m: int, p: float, q: float) -> _Ratio:
    """gamma_hat: half-circumference shifts over the {-1,0,1}^n edges. The
    edge average is exact while 3^n * m^n <= EPS_ENUM_BUDGET; past it,
    max(n, EPS_ENUM_BUDGET // m^n) patterns are sampled."""
    if p < 1:
        raise PreconditionViolationError(f"p must be >= 1, got {p}")
    if p > q:
        raise PreconditionViolationError(
            f"the weak functional needs p <= q, got p={p} q={q}"
        )
    _require_even_m(m)
    points = m**n
    samples = 0 if 3**n * points <= EPS_ENUM_BUDGET else max(n, EPS_ENUM_BUDGET // points)
    return _Ratio(n, "edges", m // 2, p, 3**n, m**p * n ** (1.0 - p / q),
                  1.0 / p, samples=samples)


def _b_ratio(n: int, m: int, ell: int) -> _Ratio:
    """b_hat: shifts by ell over the {-1,1}^n edges; it divides by ell^2,
    so the shift must be even and nonzero."""
    _require_even_m(m)
    if ell % 2 != 0:
        raise OddEllError(f"even shift required, got ell={ell}")
    if ell == 0:
        raise PreconditionViolationError("the shift must be nonzero, got ell=0")
    return _Ratio(n, "signs", ell, 2.0, 2**n, ell**2 * n,
                  ceiling=1.0 + B_INVARIANT_TOL)


def cotype_functionals(f: GridFunction, space_or_norm, p: float,
                       q: float) -> CotypeReport:
    """Evaluate lhs, rhs_raw, and gamma_hat for one witness.

    The eps average is exact while 3^n * m^n <= EPS_ENUM_BUDGET; past it,
    sampling seeded with 0, stratified by the number of zero entries of
    eps, estimates it (the x average stays exact) with its standard error.
    """
    dom = f.domain
    ratio = _gamma_ratio(dom.n, dom.m, p, q)
    lhs, rhs_raw, stderr = ratio.measure(f, space_or_norm)
    gamma_hat, degenerate = ratio.value(lhs, rhs_raw)
    return CotypeReport(
        n=dom.n, m=dom.m, p=p, q=q, lhs=lhs, rhs_raw=rhs_raw,
        gamma_hat=gamma_hat, degenerate=degenerate,
        mode="sampled" if ratio.samples else "exact", stderr=stderr,
    )


def gamma_hilbert_exact(n: int, m: int) -> tuple[float, tuple]:
    """Exact p=q=2 constant for maps into Hilbert space, with its maximizer.

    Both quadratic forms are diagonal in the character basis, so the
    constant is the max over frequencies k != 0 of

        sqrt( 4 t / (m^2 * D(k)) ),  t = #{j : k_j odd},
        D(k) = 2 - 2 * prod_j f(k_j),  f(r) = (1 + 2 cos(2 pi r / m)) / 3,

    and that max is at k = (1, ..., 1). Let c = f(1) and fix t >= 1.
    Every |f| <= 1, and f falls on [0, m/2] to f(m/2) >= -1/3, so an odd
    k_j, folded into [1, m/2], has |f(k_j)| <= c once m >= 4 (then
    c >= 1/3); at m = 2 the only odd residue is 1. So prod_j f(k_j) <= c^t,
    with equality at t ones and n - t zeros, and the quotient is at most
    2 t / (m^2 (1 - c^t)). That rises with t: for 0 < c < 1,
    (1 - c^t) / t = (1 - c) * mean(1, c, ..., c^(t-1)) falls, and for
    c = -1/3, (t + 1)(1 - c^t) - t(1 - c^(t+1)) = 1 - c^t (t + 1 - t c) > 0.
    So t = n. The product runs left to right from 1.0, so the value has
    the bits of the formula above evaluated term by term at (1, ..., 1).

    In float64 (u = 2^-53) c is within 2u of f(1), and each factor adds a
    relative u, so D is off by at most about 6nu < n * 2^-50. Where
    D < n * 2^-45, gamma could be off by more than 1/64, so such (n, m)
    raise PreconditionViolationError: for n <= 16, every m above
    30,550,072 (c rounds to 1.0 from m of about 6 * 10^8), and an m or n
    past float64 range before it becomes a float.
    """
    if n < 1 or m < 2:
        raise PreconditionViolationError(f"need n >= 1 and m >= 2, got n={n} m={m}")
    _require_even_m(m)
    require_float("m", m, ", where D = 2 - 2c^n is 0")
    require_float("n", n)
    # the argmax as gamma-hilbert prints it, a tuple, a list and a JSON
    # chunk an entry: 92-94 bytes traced at n = 10^5..10^6 and 1.0-1.5 us
    # timed at 10^5..3 * 10^6, m = 32; the product's 6-75 ns a factor is in it
    require_budget(f"a {n}-entry Hilbert argmax", 100 * n, 1.6e-6 * n)
    c = (1.0 + 2.0 * math.cos(2.0 * math.pi / m)) / 3.0
    dk = 2.0 - 2.0 * math.prod(itertools.repeat(c, n), start=1.0)
    if dk < n * 2.0**-45:
        raise PreconditionViolationError(
            f"at n={n} m={m}, D = 2 - 2c^n = {dk:.3g} is below n * 2^-45: "
            "float64 rounding could move gamma by more than 1/64")
    return math.sqrt(4.0 * n / (m * m * dk)), (1,) * n


def hilbert_gamma_power_iteration(n: int, m: int) -> float:
    """Independent oracle for gamma_hilbert_exact via dense quadratic forms.

    Assembles both forms as symmetric matrices from shift-table rows,
    whitens the edge form by its eigendecomposition (constants are its
    kernel and get deflated), then takes eigvalsh of the whitened matrix.
    """
    _require_even_m(m)
    dom = TorusDomain(n=n, m=m)
    N = dom.points  # ten (N, N) float64 matrices; 0.46-0.65 ns per N^3 at N = 1,024
    require_budget(f"a dense {N}-point oracle", 80 * N * N, 1e-9 * N**3)
    # a shift's permutation matrix P adds (P - I)^T (P - I) = 2I - P - P^T,
    # which is 0 for the zero pattern, so B sums the other edges
    eye = np.eye(N)
    table = family_table(dom, "edges", m // 2)
    A = sum(2.0 * eye - eye[row] - eye[row].T for row in table[:n])
    B = sum(2.0 * eye - eye[row] - eye[row].T for row in table[n:]) / 3**n

    w, Q = np.linalg.eigh(B)
    keep = w > 1e-12 * w.max()
    W = Q[:, keep] / np.sqrt(w[keep])
    lam = float(np.linalg.eigvalsh(W.T @ A @ W)[-1])
    return math.sqrt(max(lam, 0.0)) / m


def _bit_rows(start: int, stop: int, width: int) -> np.ndarray:
    """Binary digits (least significant first, width <= 32) of start..stop-1."""
    idx = np.arange(start, stop, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(idx, axis=1, bitorder="little")[:, :width]


def _xor_sides(witnesses: np.ndarray, table: np.ndarray, n: int,
               divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """Per 0/1 witness row, its xor counts over the N points, each divided by
    divisor (N gives the means into the unit two-point space), added over
    the first n shift rows of table and over the others, in row order.
    Each block of rows is transposed to (N, W) bit planes, whose rows gathered
    by each shift are xored with them and counted over the leading point
    axis. A block gathers at most SHIFT_BLOCK_ELEMENTS entries (or one row)."""
    N = witnesses.shape[1]
    lhs, rhs = np.zeros(len(witnesses)), np.zeros(len(witnesses))
    w_step = max(1, SHIFT_BLOCK_ELEMENTS // N)
    for w0 in range(0, len(witnesses), w_step):
        planes = witnesses[w0:w0 + w_step].T.copy()
        s_step = max(1, SHIFT_BLOCK_ELEMENTS // planes.size)
        for s0 in range(0, len(table), s_step):
            xor = np.take(planes, table[s0:s0 + s_step], axis=0)
            xor ^= planes
            counts = xor.sum(axis=1, dtype=np.min_scalar_type(N))  # each <= N
            del xor  # before the next block's gather
            for s, means in enumerate(counts / divisor, s0):
                (lhs if s < n else rhs)[w0:w0 + w_step] += means
    return lhs, rhs


@functools.lru_cache(maxsize=4)
def _two_point_winner(n: int, m: int, family: str, amount: int) -> int:
    """Index of the first two-point witness on Z_m^n whose xor count sums
    rank highest under _quotient, whatever the gap and exponents. A witness's
    complement, index 2^N - 1 - i, has its xor counts, so the first maximiser
    lies below 2^(N-1): only those stream, SHIFT_BLOCK_ELEMENTS // N at a
    time, and a later block wins only with a strictly higher score."""
    dom = TorusDomain(n=n, m=m)
    N, table = dom.points, family_table(dom, family, amount)
    half, step = 2 ** (N - 1), max(1, SHIFT_BLOCK_ELEMENTS // N)
    best, top = 0, -math.inf
    for w0 in range(0, half, step):
        scores = _quotient(*_xor_sides(_bit_rows(w0, min(w0 + step, half), N),
                                       table, n, 1))
        i = int(np.argmax(scores))
        if scores[i] > top:
            best, top = w0 + i, scores[i]
    return best


def _codomain_size(space) -> int:
    """Point count of the finite metric space a search or enumeration takes."""
    if not isinstance(space, FiniteMetricSpace):
        raise PreconditionViolationError(
            f"maxima over maps need a finite metric space, not {type(space).__name__}")
    return space.size


def _fits(K: int, N: int, budget: int) -> bool:
    """Whether the K^N maps of N points into K points are within budget
    evaluations, one a map; K^N is formed only below budget's bit length."""
    return (K < 2 or N < budget.bit_length()) and K**N <= budget


def _enumerate(space: FiniteMetricSpace, dom: TorusDomain, ratio: _Ratio,
               budget: int) -> GridFunction:
    """The best of every map dom -> space by _scorer's rule, the first index
    winning ties.

    A two-point space enumerates the bit tables of the witness indices on
    bit planes (point 0 the lowest bit), whose xor count sums _quotient
    ranks as _scorer's exact scores do (_two_point_winner); any other space
    enumerates assignments in mixed radix (point 0 the highest digit), scored
    by _scorer a chunk at a time. Past budget witnesses (_fits) or
    require_budget, it raises BudgetExceededError."""
    N, K = dom.points, _codomain_size(space)
    if not _fits(K, N, budget):
        raise BudgetExceededError(f"{K}^{N} witnesses exceed budget {budget}")
    count = K**N
    work = count * (ratio.n + ratio.patterns) * N  # witness-shift-points
    if K == 2:  # half the witnesses; a block's bits, sides, scores and planes
        # take 72 + N bytes a witness, its gather N + 9 a witness-shift
        # (traced: 98 a witness at (1,16), 106 at (1,20))
        block = min(count // 2, max(1, SHIFT_BLOCK_ELEMENTS // N))
        shifts = min(ratio.n + ratio.patterns,
                     max(1, SHIFT_BLOCK_ELEMENTS // (N * block)))
        require_budget(f"{count} two-point witnesses",
                       (72 + N + (N + 9) * shifts) * block, XOR_SECONDS * work / 2)
        best = _two_point_winner(dom.n, dom.m, ratio.family, ratio.amount)
        return GridFunction.points(dom, _bit_rows(best, best + 1, N)[0])
    # 2N + 9 int64/float64 entries a witness, 4 a block entry; 26 ns at (1,8)
    require_budget(f"{count} witnesses", count * (16 * N + 72)
                   + 32 * min(work, SHIFT_BLOCK_ELEMENTS), 30e-9 * work)
    idx = np.arange(count, dtype=np.int64)
    F = (idx[:, None] // K ** np.arange(N - 1, -1, -1)) % K
    kernel, scores = _scorer(space, ratio, dom)
    best = int(np.argmax(np.concatenate([scores(kernel(F[w0:w0 + WITNESS_CHUNK]))
                                         for w0 in range(0, count, WITNESS_CHUNK)])))
    return GridFunction.points(dom, F[best])


def gamma_exhaustive_two_point(n: int, m: int, p: float, q: float,
                               budget: int = DEFAULT_BUDGET) -> CotypeReport:
    """Maximize gamma_hat over every map into the two-point space.

    Enumerates all 2^(m^n) value tables, within budget, and reports the
    winner's cotype_functionals. Distances into the canonical two-point
    space are 0/1, so d^p is the xor of bit tables and gamma_hat is
    scale-invariant in the two-point gap.
    """
    space = two_point_space()
    witness = _enumerate(space, TorusDomain(n=n, m=m), _gamma_ratio(n, m, p, q), budget)
    return replace(cotype_functionals(witness, space, p, q), witness=witness)


def expected_random_gamma(n: int, m: int, p: float, q: float) -> float:
    """Ratio-of-expectations gamma for a uniformly random two-point witness.

    Both sides of the defining inequality average d^p = 1/2 per distinct
    pair, and the eps = 0 atom has weight 3^(-n), leaving
    n^(1/q) / (m * (1 - 3^(-n))^(1/p)).
    """
    _gamma_ratio(n, m, p, q)  # checks p, q and m
    return n ** (1.0 / q) / (m * (1.0 - 3.0 ** (-n)) ** (1.0 / p))


def random_two_point_mc(n: int, m: int, p: float, q: float, trials: int,
                        seed: int) -> dict:
    """Monte-Carlo comparison of random two-point witnesses with the formula.

    Estimates E[lhs] and E[rhs_raw] over uniformly random witnesses,
    WITNESS_CHUNK at a time, and plugs the means into the gamma formula
    (delta-method standard error, 0 when a mean side and so gamma_mc is
    0). A standard error needs at least two trials.
    """
    ratio = _gamma_ratio(n, m, p, q)
    if trials < 2:
        raise PreconditionViolationError(
            f"a standard error needs trials >= 2, got {trials}")
    dom = TorusDomain(n=n, m=m)
    N = dom.points
    # 64 bytes a trial, 16 a chunk's witness-point; draws cost 64 units a trial
    require_budget(f"{trials} random two-point witnesses", 64 * trials + 16 * N
                   * min(trials, WITNESS_CHUNK),
                   XOR_SECONDS * trials * ((n + ratio.patterns) * N + 64))
    rng = np.random.default_rng(seed)
    table = family_table(dom, ratio.family, ratio.amount)  # every edge, never a sample
    L, R = np.empty(trials), np.empty(trials)
    for done in range(0, trials, WITNESS_CHUNK):
        k = min(WITNESS_CHUNK, trials - done)
        bits = rng.integers(0, 2, size=(k, N), dtype=np.int64).astype(np.uint8)
        L[done:done + k], R[done:done + k] = _xor_sides(bits, table, n, N)
    R /= ratio.patterns

    Lbar, Rbar = float(L.mean()), float(R.mean())
    gamma_mc, _ = ratio.value(Lbar, Rbar)
    se = 0.0
    if gamma_mc > 0:  # delta method for g(L, R) = (L / (w R))^(1/p)
        vL = float(L.var(ddof=1)) / trials
        vR = float(R.var(ddof=1)) / trials
        cLR = float(np.cov(L, R, ddof=1)[0, 1]) / trials
        rel = vL / Lbar**2 + vR / Rbar**2 - 2.0 * cLR / (Lbar * Rbar)
        se = gamma_mc / p * math.sqrt(max(rel, 0.0))

    return {
        "gamma_mc": gamma_mc,
        "stderr": se,
        "formula": expected_random_gamma(n, m, p, q),
        "trials": trials,
        "seed": seed,
        "degenerate_count": int((R <= 0).sum()),
    }


@dataclass(frozen=True)
class BReport(_Report):
    n: int
    m: int
    ell: int
    lhs: float
    rhs_raw: float
    b_hat: float
    degenerate: bool
    mode: str = "exact"
    seed: int | None = None
    budget: int | None = None
    witness: GridFunction | None = None


def b_functionals(f: GridFunction, space_or_norm, ell: int) -> BReport:
    """Evaluate the diagonal-shift quantity for one witness (p = 2).

    Every witness satisfies b_hat <= 1; a numerical violation beyond
    1e-9 raises InvariantViolationError.
    """
    dom = f.domain
    ratio = _b_ratio(dom.n, dom.m, ell)
    lhs, rhs_raw, _ = ratio.measure(f, space_or_norm)
    b_hat, degenerate = ratio.value(lhs, rhs_raw)
    return BReport(n=dom.n, m=dom.m, ell=ell, lhs=lhs, rhs_raw=rhs_raw,
                   b_hat=b_hat, degenerate=degenerate)


def _quotient(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs / rhs per row, -inf where rhs is 0. For non-negative integers
    with a*d and c*b below 2^51, a/b > c/d gives a*d - b*c >= 1, a relative
    gap of at least 1/(a*d) that no rounding closes, and equal ratios give
    equal quotients: the quotients order and tie as the exact ratios do."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs > 0, lhs / rhs, -math.inf)


def _scorer(space, ratio: _Ratio, dom: TorusDomain):
    """(kernel, scores) for a maximum of ratio over maps dom -> space: kernel
    gives a stack of tables' memos and moves them (gridops.ShiftSums's
    interface), scores(memo) one float per row, -inf where degenerate.

    Where ratio's average is exact, the distance powers are non-negative
    integers, symmetric with a zero diagonal, and table = ratio.table(dom)
    has size times the largest D below 2^26, the memos are ShiftSums's
    integer sums, and a row scores _quotient(lhs_sum, rhs_sum), in which the
    value is monotone: lhs_sum <= n N D and rhs_sum <= (S - n) N D keep
    cross products below (S N D)^2 / 4. A two-point space's powers are one
    gap's power times the xor, so it scores by xor sums. Otherwise a memo
    is _FullSides' (lhs, rhs_raw), and scores by ratio.value."""
    table = ratio.table(dom)
    dist_p = 1.0 - np.eye(2) if space.size == 2 else dist_power(space.dist, ratio.p)
    if (not ratio.samples and np.all((dist_p >= 0) & (dist_p == np.floor(dist_p)))
            and np.array_equal(dist_p, dist_p.T) and not np.diagonal(dist_p).any()
            and table.size * dist_p.max() < 2**26):
        n = ratio.n
        return ShiftSums(dist_p, table), lambda memo: _quotient(
            memo[:, :n].sum(axis=1), memo[:, n:].sum(axis=1))

    def scores(memo):  # value takes Python floats, and powers with libm
        return np.array([-math.inf if degenerate else value for value, degenerate
                         in map(ratio.value, *memo.T.tolist())])

    return _FullSides(ratio, space, table), scores


class _FullSides:
    """gridops.ShiftSums's interface by full evaluation: a table's memo is
    its ratio.row_sides over table, and a move evaluates the moved tables."""

    def __init__(self, ratio: _Ratio, space, table: np.ndarray):
        self.ratio, self.space, self.table = ratio, space, table

    def __call__(self, tables: np.ndarray) -> np.ndarray:
        return np.column_stack(self.ratio.row_sides(
            shift_energy_batch(tables, self.space, self.table, self.ratio.p)))

    def move(self, tables: np.ndarray, memo, x: np.ndarray,
             b: np.ndarray) -> np.ndarray:
        moved = tables.copy()
        moved[np.arange(len(x)), x] = b
        return self(moved)


def _climb_chunk(tables: np.ndarray, rngs: list, steps: np.ndarray, K: int,
                 kernel, scores) -> tuple[float, np.ndarray]:
    """(score, table) of the best row of tables, the first winning ties,
    each row w climbed in lockstep by steps[w] steps drawn from rngs[w]: a
    point x, then a new value at x among the other K - 1 (no draw when
    K = 1). Row w's whole climb is drawn before the first step, in one
    integers call whose bounds alternate [0, 1, ...] / [N, K, ...]; it gives
    the values, and leaves the Generator in the state, of the alternating
    scalar calls integers(N), integers(1, K). The draws are held in the
    narrowest signed dtype holding max(N, K). kernel gives each table's memo
    and moves it (gridops.ShiftSums), scores(memo) the rows' scores, and a
    move is kept only when its score is higher."""
    N, rows, most = tables.shape[1], np.arange(len(tables)), int(steps.max())
    pair = 2 if K > 1 else 1  # draws per step
    lows, highs = np.tile([0, 1][:pair], most), np.tile([N, K][:pair], most)
    draws = np.zeros((len(tables), most, 2), np.min_scalar_type(-max(N, K)))
    for g, w, row in zip(rngs, steps.tolist(), draws):
        row[:w, :pair] = g.integers(lows[:pair * w], highs[:pair * w]).reshape(w, pair)
    memo = kernel(tables)
    best = scores(memo)
    for t in range(most):
        live = int(np.count_nonzero(steps > t))  # a prefix of the rows
        x, offset = draws[:live, t].T.astype(np.int64)
        b = (tables[rows[:live], x] + offset) % K
        moved = kernel.move(tables[:live], memo[:live], x, b)
        new = scores(moved)
        up = np.flatnonzero(new > best[:live])
        tables[up, x[up]], memo[up], best[up] = b[up], moved[up], new[up]
    w = int(np.argmax(best))
    return best[w], tables[w].copy()


def _search(space: FiniteMetricSpace, dom: TorusDomain, ratio: _Ratio,
            budget: int, seed: int, initial_values) -> np.ndarray:
    """The best table of maps dom -> space by _scorer's scores: every map
    (_enumerate, refusals standing) when ratio's average is exact and they
    fit budget (_fits), else a hill climb. A climb that scores by sampled
    evaluations is refused past require_budget first.

    Each restart spends m^n evaluations (at least 2) of the budget; provided
    starting witnesses, all checked, lead the restarts, and constant random
    starts are resampled. Restart i draws from child i of SeedSequence(seed)
    alone, so restarts climb in lockstep, WITNESS_CHUNK at a time, with the
    draws of one climb after another, each climb drawn up front
    (_climb_chunk). The earliest restart wins ties; when every restart
    scores -inf, the first restart's table is returned.
    """
    if budget < 1:
        raise PreconditionViolationError(f"budget must be >= 1, got {budget}")
    N, K = dom.points, _codomain_size(space)
    initial = [GridFunction.points(dom, v).values for v in initial_values]
    for vals in initial:
        require_indices(vals, K)
    if ratio.samples:  # a table of (n + samples) x N terms built (4-13 ns a term an
        # axis), then evaluated for the budget and the report (7.2-11.2 ns a term),
        # timed at (5,8) (7,4) (4,16) (9,2) (10,2) (13,2) (16,2) (2,684)
        require_budget(f"a {budget}-evaluation sampled search", seconds=(
            ratio.n + ratio.samples) * N * (10e-9 * ratio.n + 12e-9 * (budget + 1)))
    elif _fits(K, N, budget):
        return _enumerate(space, dom, ratio, budget).values
    kernel, scores = _scorer(space, ratio, dom)

    def start(i, rng):
        if i < len(initial):
            return initial[i]
        vals = random_point_values(dom, K, rng)
        while K > 1 and N > 1 and np.all(vals == vals[0]):
            vals = random_point_values(dom, K, rng)
        return vals

    per_restart = max(2, N)
    restarts = max(1, math.ceil(budget / per_restart))
    seeds = np.random.SeedSequence(seed)
    best_score, best = -math.inf, None
    for r0 in range(0, restarts, WITNESS_CHUNK):
        ri = np.arange(r0, min(r0 + WITNESS_CHUNK, restarts))
        rngs = [np.random.default_rng(s) for s in seeds.spawn(len(ri))]  # as one spawn
        got, top = _climb_chunk(
            np.stack(list(map(start, ri, rngs))), rngs,
            np.minimum(per_restart - 1, budget - 1 - per_restart * ri), K, kernel, scores)
        if best is None or got > best_score:
            best_score, best = got, top
        del rngs, top  # one chunk's state at a time
    return best


def gamma_search(space: FiniteMetricSpace, n: int, m: int, p: float, q: float,
                 budget: int, seed: int,
                 initial_witnesses=()) -> CotypeReport:
    """Maximize gamma_hat over maps Z_m^n -> space (budget >= 1 evaluations).

    Reported value is a lower bound on the true supremum, and exact when
    the maps fit the budget and are enumerated (_search). Caller-supplied
    witnesses (value tables) join the restart pool, so the result is
    always >= their evaluated gamma_hat. A move is kept only when it
    strictly raises the score of gamma_hat (_scorer), and the earliest
    restart wins ties; when every witness met is degenerate, the first
    restart's witness is reported with degenerate = True.
    """
    ratio = _gamma_ratio(n, m, p, q)
    dom = TorusDomain(n=n, m=m)
    witness = GridFunction.points(dom, _search(
        space, dom, ratio, budget, seed, initial_witnesses))
    return replace(cotype_functionals(witness, space, p, q),
                   seed=seed, budget=budget, witness=witness)


def b_quantity_search(space: FiniteMetricSpace, n: int, ell: int, m: int,
                      budget: int, seed: int,
                      initial_witnesses=()) -> BReport:
    """Maximize b_hat over maps Z_m^n -> space; result stays <= 1.

    Same search as gamma_search: budget >= 1 evaluations, strict
    improvement of the score, earliest restart wins ties, and the first
    restart's witness, flagged degenerate, when no witness met is
    nondegenerate.
    """
    ratio = _b_ratio(n, m, ell)
    dom = TorusDomain(n=n, m=m)
    witness = GridFunction.points(dom, _search(
        space, dom, ratio, budget, seed, initial_witnesses))
    return replace(b_functionals(witness, space, ell),
                   seed=seed, budget=budget, witness=witness)


def mod_inequality_check(f: GridFunction, space_or_norm, a: int,
                         r: int) -> InequalityCheck:
    """Shift-by-(a m + r) comparison against min(r^2, (m-r)^2) edge energy.

    Requires even m and even r with 0 <= r < m; odd r admits genuine
    counterexamples, e.g. parity of x_1 - x_2 on Z_4^2.
    """
    dom = f.domain
    n, m = dom.n, dom.m
    _require_even_m(m)
    if r % 2 != 0:
        raise PreconditionViolationError(f"even r required, got r={r}")
    if not 0 <= r < m:
        raise PreconditionViolationError(f"need 0 <= r < m, got r={r} m={m}")
    if a < 0:
        raise PreconditionViolationError(f"need a >= 0, got a={a}")
    ratio = _Ratio(n, "signs", a * m + r, 2.0, 2**n, min(r**2, (m - r) ** 2) * n)
    lhs, edge, _ = ratio.measure(f, space_or_norm)
    return make_check("shift-mod-bound", {"n": n, "m": m, "a": a, "r": r},
                      lhs, ratio.weight * edge)


def edge_sum_check(f: GridFunction, space_or_norm,
                   p: float) -> InequalityCheck:
    """Per-coordinate edge sum against 3 * 2^(p-1) * n times the eps average.

    The eps average runs over the full three-letter measure, exactly as in
    the cotype denominator: the zero pattern's mean is 0 and is left out of
    the sum, not of the count.
    """
    dom = f.domain
    n = dom.n
    if p < 1:
        raise PreconditionViolationError(f"p must be >= 1, got {p}")
    ratio = _Ratio(n, "edges", 1, p, 3**n, 3.0 * 2.0 ** (p - 1.0) * n)
    lhs, edge, _ = ratio.measure(f, space_or_norm)
    return make_check("edge-sum-bound", {"n": n, "m": dom.m, "p": p}, lhs,
                      ratio.weight * edge)


def contraction_principle_check(vectors, scalars, p: float,
                                norm: NormTarget) -> InequalityCheck:
    """E_eps ||sum_j eps_j a_j x_j||^p <= E_eps ||sum_j eps_j x_j||^p, |a_j| <= 1.

    Both sides by exact enumeration over the 2^n sign patterns.
    """
    X = np.asarray(vectors, dtype=np.complex128)
    a = np.asarray(scalars, dtype=np.float64)
    if X.ndim != 2 or a.shape != (X.shape[0],):
        raise PreconditionViolationError(
            "need an (n, d) vector array and n scalars"
        )
    if np.any(np.abs(a) > 1.0):
        raise PreconditionViolationError("scalars must satisfy |a_j| <= 1")
    if p < 1:
        raise PreconditionViolationError(f"p must be >= 1, got {p}")
    return make_check(
        "sign-contraction",
        {"n": X.shape[0], "p": p, "norm_p": norm.p},
        _sign_average(a[:, None] * X, p, norm),
        _sign_average(X, p, norm),
    )


def _sign_average(X: np.ndarray, p: float, norm: NormTarget) -> float:
    """E_eps ||sum_j eps_j x_j||^p over the 2^n full sign patterns."""
    n, d = X.shape
    # sign_patterns' list of n-tuples and arrays, the complex sums, their norms
    require_budget(f"a sum over {2**n} sign patterns", 2**n * (80 + 24 * (n + d)))
    signs = sign_patterns(n).astype(np.float64)
    return float(np.mean(norm.norm(signs @ X) ** p))


def exhaustive_b(space: FiniteMetricSpace, n: int, ell: int, m: int,
                 budget: int = DEFAULT_BUDGET) -> BReport:
    """Exact maximum of b_hat over all maps Z_m^n -> space (see _enumerate),
    reported as the winner's b_functionals."""
    witness = _enumerate(space, TorusDomain(n=n, m=m), _b_ratio(n, m, ell), budget)
    return replace(b_functionals(witness, space, ell), witness=witness)


def tensor_submultiplicativity_check(space: FiniteMetricSpace, ell: int,
                                     k: int, s: int, t: int,
                                     m: int) -> InequalityCheck:
    """Product rule across tensored dimensions for the diagonal-shift maximum.

    Compares the exact maximum on Z_m^(ell k) at shift s t against the
    product of exact component maxima at (ell, s) and (k, t), each
    enumeration within DEFAULT_BUDGET witnesses; the tori refuse ell or
    k below 1.
    """
    comp1 = exhaustive_b(space, ell, s, m)
    comp2 = exhaustive_b(space, k, t, m)
    full = exhaustive_b(space, ell * k, s * t, m)
    params = {"ell": ell, "k": k, "s": s, "t": t, "m": m, "mode": "exhaustive"}
    return make_check("b-tensor-submultiplicative", params, full.b_hat,
                      comp1.b_hat * comp2.b_hat)


def linear_exponential_witness(vectors, m: int) -> GridFunction:
    """f(x) = sum_j exp(2 pi i x_j / m) v_j on Z_m^n, n = number of vectors.

    Its half-circumference increments collapse coordinate-wise, making
    lhs exactly 2^p * sum_j ||v_j||^p, while every edge increment has
    operator angle at most 4 pi / m after sign averaging.
    """
    X = np.asarray(vectors, dtype=np.complex128)
    if X.ndim != 2:
        raise PreconditionViolationError("vectors must form a 2-d array")
    n = X.shape[0]
    _require_even_m(m)
    dom = TorusDomain(n=n, m=m)
    pts = dom.coords()
    phases = np.exp(2j * np.pi * pts / m)  # (N, n)
    return GridFunction.vector(dom, phases @ X)


def contraction_rhs_bound(vectors, m: int, p: float,
                          norm: NormTarget) -> float:
    """(4 pi / m)^p * E_eps || sum_j eps_j v_j ||^p over full signs."""
    X = np.asarray(vectors, dtype=np.complex128)
    return (4.0 * np.pi / m) ** p * _sign_average(X, p, norm)


@dataclass(frozen=True)
class ScanResult:
    found_m: int
    profile: list  # [(m, gamma_hat), ...] in scan order
    mode: str  # "exact" or "lower-bound"


def m_parameter_experiment(space_or_norm, n: int, p: float, q: float,
                           gamma_target: float, m_max: int,
                           budget: int = 2000, seed: int = 0) -> ScanResult:
    """Scan even m for the first value whose measured gamma meets the target.

    The codomain picks the evaluation. A norm target (None for l2) gets
    the exact Hilbert constant, which needs p = q = 2 and l2. A finite
    space goes through gamma_search, exact while the maps of a cell fit
    budget (_fits) and a lower bound past it; K^(m^n) grows with m, so the
    verdict is "exact" when the found cell fits. Raises NotFoundError with
    the profile when no even m <= m_max qualifies.
    """
    space = space_or_norm
    if not isinstance(space, FiniteMetricSpace):
        hilbertian = space is None or (isinstance(space, NormTarget) and space.p == 2.0)
        if q != 2.0 or p != 2.0 or not hilbertian:
            raise PreconditionViolationError(
                "hilbert mode computes the exact p = q = 2 constant of l2")
        space = None
    profile = []
    for m in range(2, m_max + 1, 2):
        g = gamma_hilbert_exact(n, m)[0] if space is None else \
            gamma_search(space, n, m, p, q, budget, seed).gamma_hat
        profile.append((m, g))
        if g <= gamma_target:
            exact = space is None or _fits(space.size, m**n, budget)
            return ScanResult(found_m=m, profile=profile,
                              mode="exact" if exact else "lower-bound")
    raise NotFoundError(
        f"no even m <= {m_max} reaches gamma <= {gamma_target}", profile
    )


def shift_growth_bound(n0: int, ell0: int, n: int) -> float:
    """Growth bound 2 * ell0 * n^(log ell0 / log n0) extrapolated from one cell."""
    if n0 < 2:
        raise PreconditionViolationError(f"n0 must be >= 2, got {n0}")
    if ell0 < 1 or n < 1:
        raise PreconditionViolationError("ell0 and n must be >= 1")
    return 2.0 * ell0 * n ** (math.log(ell0) / math.log(n0))


def grid_distortion_bound(n: int, q: float, K: float) -> float:
    """Distortion lower bound n^(1/q) / (2K) for bijections of Z_m^n."""
    if n < 1 or q < 1 or K <= 0:
        raise PreconditionViolationError("need n >= 1, q >= 1, K > 0")
    require_float("n", n)
    return n ** (1.0 / q) / (2.0 * K)
