"""Explicit embeddings, grid extraction, and distortion obstructions.

Cycle/grid/torus conversions, diagonal-graph geodesics, extraction of a
near-isometric grid copy from a near-extremal witness, the moduli-based
obstruction for maps of the exponential net, and the distortion lower
bound for injections of the torus into Hilbert-like targets.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .checks import InequalityCheck, make_check
from .cotype import cotype_functionals, gamma_hilbert_exact
from .errors import HypothesisFailedError, PreconditionViolationError
from .gridops import climb, family_table, ordered_sum, shift_energy
from .harmonic import GridFunction, _axis_window_sum
from .spaces import (
    EmbeddingRecord,
    FiniteMetricSpace,
    TorusDomain,
    count_text,
    distortion,
    grid_points,
    moduli,
    ROW_BLOCK,
    points_space,
    require_budget,
    require_float,
    snowflake,
    torus_space,
)
from .targets import as_target


@dataclass(frozen=True)
class GeodesicPath:
    """A length-s walk whose every step changes all coordinates by +/-1."""

    steps: np.ndarray  # (s+1, n) points mod m
    j: int
    through_index: int  # step at which the second prescribed point appears

    @property
    def length(self) -> int:
        return self.steps.shape[0] - 1


@dataclass(frozen=True)
class VSet:
    """Points with every coordinate even and within [0, s/2]."""

    s: int
    n: int
    members: np.ndarray  # ((s/4+1)^n, n)

    @classmethod
    def of(cls, s: int, n: int) -> "VSet":
        _require_extraction_scale(s, 2 * s)  # m = 2s leaves only the s check
        return cls(s=s, n=n, members=2 * grid_points(n, s // 4))

    def __contains__(self, point) -> bool:
        pt = np.asarray(point, dtype=np.int64)
        return bool(
            pt.shape == (self.n,)
            and np.all(pt % 2 == 0)
            and np.all(pt >= 0)
            and np.all(pt <= self.s // 2)
        )


def grid_to_torus(m: int, n: int) -> EmbeddingRecord:
    """Inclusion of the grid {0..m}^n into the circumference-2m torus.

    Coordinate differences never exceed m, so the wrap-around metric
    agrees with the grid metric: distortion exactly 1.
    """
    dom, points = TorusDomain(n=n, m=2 * m), (m + 1) ** n
    # 16 bytes a coordinate (np.indices and its int64 copy), 8 a mapping entry
    # and 8 float64 a distortion row-block entry; 1,150-1,450 a grid point traced
    require_budget(f"a {points}-point grid in a {dom.points}-point torus",
                   16 * n * (dom.points + points) + 8 * points * (1 + 8 * ROW_BLOCK))
    source_pts = grid_points(n, m)
    source = points_space(source_pts, math.inf)
    target = torus_space(dom)
    mapping = np.ravel_multi_index(tuple(source_pts.T), dom.shape)
    return distortion(mapping, source, target)


def _profile_embedding(m: int, n: int, eps: float | None = None) -> EmbeddingRecord:
    """x -> (d(x_j, a))_{j, a} in the sup-norm grid: the distances in
    Z_{2m} of each coordinate to every distinct anchor (every point of
    Z_{2m}, or of sparse_anchors(m, eps)), the n coordinates' blocks side
    by side, as a map of Z_{2m}^n."""
    dom = TorusDomain(n=n, m=2 * m)
    k = 2 * m if eps is None else _anchor_count(eps)
    # the anchors, three (N, n * distinct anchors) int64 tables, row blocks
    require_budget(f"a {dom.points}-point profile embedding",
                   8 * k + 8 * dom.points * (3 * n * min(k, 2 * m) + 8 * ROW_BLOCK))
    # each distinct anchor once, ascending (np.unique would import numpy.ma)
    anchors = np.flatnonzero(np.bincount(
        np.arange(2 * m) if eps is None else sparse_anchors(m, eps)))
    table = np.abs(np.arange(2 * m, dtype=np.int64)[:, None] - anchors[None, :])
    np.minimum(table, 2 * m - table, out=table)  # (2m, anchors)
    coords = dom.coords()
    vectors = np.concatenate([table[coords[:, j]] for j in range(n)], axis=1)
    mapping = np.arange(dom.points, dtype=np.int64)
    return distortion(mapping, torus_space(dom), points_space(vectors, math.inf))


def frechet_cycle(m: int) -> EmbeddingRecord:
    """x -> (d(x,0), ..., d(x,2m-1)): the cycle in the sup-norm grid.

    Coordinate a realizes the distance of the pair {x, y} whenever
    a = y, so the sup equals the cycle distance: distortion exactly 1.
    """
    return _profile_embedding(m, 1)


def _anchor_count(eps: float) -> int:
    if not 0 < eps <= 1:
        raise PreconditionViolationError(f"eps must lie in (0, 1], got {eps}")
    return math.ceil(min(1.0 / eps, 1e308)) + 1  # 1/eps is inf for a subnormal eps


def sparse_anchors(m: int, eps: float) -> np.ndarray:
    """ceil(1/eps)+1 anchor points spread around the cycle of length 2m.

    Anchors are evenly spaced at floor(2mt/(T+1)); spacing never exceeds
    2*eps*m. The two-anchor case avoids the antipodal pair {0, m}, which
    is fixed by a reflection and would collide x with 2m-x: it uses
    {0, floor(2m/3)} instead.
    """
    k = _anchor_count(eps)
    require_budget(f"{k} sparse anchors", 8 * k)  # scaled in place: one int64 each
    if k == 2:
        return np.array([0, (2 * m) // 3], dtype=np.int64)
    anchors = np.arange(k, dtype=np.int64)
    anchors *= 2 * m
    anchors //= k
    return anchors


def sparse_frechet_cycle(m: int, eps: float) -> EmbeddingRecord:
    """Distance profile against a sparse anchor set; distortion <= 1+6 eps."""
    return _profile_embedding(m, 1, eps)


def torus_to_grid_full(m: int, n: int) -> EmbeddingRecord:
    """Concatenated per-coordinate distance profiles: an isometry.

    Z_{2m}^n lands in the sup-norm grid of dimension 2mn; the sup over
    the n blocks recovers the torus metric coordinate by coordinate.
    """
    return _profile_embedding(m, n)


def _require_extraction_scale(s: int, m: int) -> None:
    if s % 4 != 0 or s < 4:
        raise PreconditionViolationError(
            f"extraction scale must be a positive multiple of 4, got s={s}"
        )
    if m < 2 * s:
        raise PreconditionViolationError(
            f"need m >= 2s for the diagonal constructions, got m={m} s={s}"
        )


def diag_geodesic_through(x, y, s: int, domain: TorusDomain) -> GeodesicPath:
    """A length-s all-diagonal walk from z in {x, y} to z + s e_j through both.

    j maximizes the coordinate gap |x_j - y_j| (smallest j on ties), t is
    that gap, and z is whichever of the two points has the smaller j-th
    coordinate; w is the other. At step k = 0..s axis j stands at z_j + k,
    and every other axis i, with gap a = |w_i - z_i|, stands walk(k) from z_i
    towards w_i (a zero gap counts as the + direction), where

        base = clip(min(k, t + a - k), 0, a),  walk = base + (k - base) % 2:

    it walks out a steps, steps one further and back while it waits, walks
    back by step t + a <= s and then steps out and back from z_i, so the
    walk meets w at step t and ends at z + s e_j (s is even). All gaps are
    even, so every step moves every coordinate by +/-1.
    """
    _require_extraction_scale(s, domain.m)
    vset = VSet.of(s, domain.n)
    xv = np.asarray(x, dtype=np.int64)
    yv = np.asarray(y, dtype=np.int64)
    for label, pt in (("x", xv), ("y", yv)):
        if pt not in vset:
            raise PreconditionViolationError(
                f"{label}={pt.tolist()} is not an even point of [0, s/2]^n"
            )
    gaps = np.abs(yv - xv)
    t = int(gaps.max())
    j = int(np.argmax(gaps))
    z, w = (xv, yv) if yv[j] >= xv[j] else (yv, xv)
    k = np.arange(s + 1, dtype=np.int64)[:, None]
    base = np.clip(np.minimum(k, t + gaps - k), 0, gaps)
    walk = base + (k - base) % 2
    walk[:, j] = k[:, 0]
    steps = (z + np.where(w >= z, 1, -1) * walk) % domain.m
    return GeodesicPath(steps=steps, j=j, through_index=t)


def _edge_table(f: GridFunction, target) -> np.ndarray:
    """(2^n, N) table of d(f(x+eps), f(x)), one row per sign pattern eps in
    the row order of sign_patterns(n)."""
    return target.pairwise(f.values[family_table(f.domain, "signs")],
                           f.values[None])


def _edge_activity(edge: np.ndarray) -> np.ndarray:
    """E over full sign patterns of d(f(x+eps), f(x))^2, per point, from
    the edge table of _edge_table."""
    return (edge ** 2).mean(axis=0)


def _ball_sum(domain: TorusDomain, values: np.ndarray,
              radius: int) -> np.ndarray:
    """Per-point sum of values over the sup-norm ball of the given radius,
    one axis at a time, offsets from -radius to radius in order."""
    grid = values.reshape(domain.shape)
    for ax in range(domain.n):
        grid = _axis_window_sum(grid, ax, range(-radius, radius + 1))
    return grid.ravel()


def _walks(k: int, v: int) -> int:
    """Number of +/-1 walks of k steps whose steps sum to v."""
    if abs(v) > k or (k + v) % 2:
        return 0
    return math.comb(k, (k + v) // 2)


def _axis_transitions(s: int, ell: int) -> list:
    """(u, e, count) for one free axis at step ell of a balanced length-s
    walk: count walks stand at u after ell-1 steps, step by e, and are
    back at 0 after step s. Only triples with count > 0 are listed."""
    out = []
    for u in range(1 - ell, ell, 2):
        for e in (-1, 1):
            w = _walks(ell - 1, u) * _walks(s - ell, -(u + e))
            if w:
                out.append((u, e, w))
    return out


def require_defect_budget(domain: TorusDomain, s: int) -> int:
    """Transition-point terms of the geodesic-defect sum at scale s (every
    axis, sign and step), after extract_grid's estimates pass require_budget."""
    n, N = domain.n, domain.points
    per_step = sum(len(_axis_transitions(s, ell)) ** (n - 1) for ell in range(1, s + 1))
    work = 2 * n * N * per_step
    wrapped = (domain.m + 2 * s - 2) ** n  # points of the (s - 1)-wrapped table
    # the edge table and its wrapped gather, the gather's index, 20 + 2n
    # float64 entries a point; traced peak 6.21 MiB of 6.36 at (4,8,4), 2.61
    # of 2.92 at (3,16,8), 123.6 of 127.1 at (4,16,8). 4.7 ns a term
    # (838,860,800 terms at (4,16,8): 3.96 s)
    require_float("extraction term count", work)
    require_budget(f"a geodesic-defect sum of {count_text(work)} transition-point terms",
                   8 * (2**n * (wrapped + N) + wrapped + (20 + 2 * n) * N),
                   5e-9 * work)
    return work


def _geodesic_defects(f: GridFunction, target, s: int,
                      edge: np.ndarray) -> np.ndarray:
    """Per-point sum over j, both signs, and every diagonal geodesic of
    the squared deviation of step distances from their path average.

    Geodesics from x to x + sign*s*e_j move coordinate j by sign each
    step while every other coordinate takes a balanced +/-1 pattern.
    Step ell of a path contributes (d(f(x+o+delta), f(x+o)) - base(x))^2
    with o the offset after ell-1 steps and delta the step, so the sum
    over paths is a sum over transitions (o, delta), each weighted by
    the number of paths through it:

        W = prod_{a != j} walks(ell-1, o_a) * walks(s-ell, -(o_a+delta_a)),

    with walks(k, v) = C(k, (k+v)/2) (0 for the wrong parity or |v| > k).
    Every term reads the edge table d(f(y+delta), f(y)) of _edge_table;
    extract_grid checks the scale with require_defect_budget before calling.
    """
    dom = f.domain
    n, m = dom.n, dom.m
    # roll(edge[delta], o) is a window of the table wrapped cyclically by
    # s - 1 on every axis, one gather: each offset o lies in [1 - s, s - 1]
    wrap = np.arange(1 - s, m + s - 1) % m
    pad = edge.take(np.ravel_multi_index(np.ix_(*[wrap] * n), dom.shape), axis=1)
    defect = np.zeros(dom.shape)
    term = np.empty(dom.shape)
    for j in range(n):
        rest = [ax for ax in range(n) if ax != j]
        for sign in (1, -1):
            far = family_table(dom, "axes", sign * s)[j]  # x + sign*s*e_j
            base = target.pairwise(f.values[far], f.values).astype(
                np.float64).reshape(dom.shape) / s
            for ell in range(1, s + 1):
                for combo in itertools.product(_axis_transitions(s, ell),
                                               repeat=n - 1):
                    offset = [sign * (ell - 1)] * n
                    step = [sign] * n
                    weight = 1
                    for ax, (u, e, count) in zip(rest, combo):
                        offset[ax], step[ax] = u, e
                        weight *= count
                    row = sum((e > 0) << (n - 1 - ax)
                              for ax, e in enumerate(step))  # sign-table row
                    np.subtract(pad[(row,) + tuple(slice(s - 1 + o, s - 1 + o + m)
                                                   for o in offset)], base, out=term)
                    term *= term
                    term *= float(weight)
                    defect += term
    return defect.ravel()


def extract_grid(f: GridFunction, space, s: int):
    """Recover a sup-norm grid copy from a witness with near-maximal
    long-shift energy; returns (EmbeddingRecord, report dict).

    Measures the deficiency eta of the witness, locates the basepoint
    pair by the averaged-defect functional, normalizes edge activity,
    reflects the coordinates, and maps x -> f(2x) on the even sub-box.
    When eta = 0 the returned map has distortion 1 (within 1e-9). A scale
    past require_defect_budget is refused before anything is built.
    """
    dom = f.domain
    n, m = dom.n, dom.m
    _require_extraction_scale(s, m)
    require_defect_budget(dom, s)
    target = as_target(space, f.values)

    lhs_s = ordered_sum(
        shift_energy(f.values, target, family_table(dom, "axes", s), 2.0))
    edge = _edge_table(f, target)
    activity = _edge_activity(edge)
    rhs_full = float(activity.mean())
    if rhs_full <= 0.0:
        raise HypothesisFailedError(
            "constant witness: long-shift energy is zero", eta=1.0
        )
    eta = max(0.0, 1.0 - lhs_s / (s**2 * n * rhs_full))
    if eta >= 1.0:
        raise HypothesisFailedError(
            "witness has no long-shift energy", eta=eta
        )

    defect = _geodesic_defects(f, target, s, edge)
    psi = 2.0 * eta * s * n * 2.0 ** (s * n) * activity - defect
    radius = s - 1
    psi_ball = _ball_sum(dom, psi, radius)
    x0 = int(np.argmax(psi_ball))

    act_ball = _ball_sum(dom, activity, radius)
    ball_points = float((2 * s - 1) ** n)
    avg_act = float(act_ball[x0]) / ball_points
    if avg_act <= 0.0:
        raise HypothesisFailedError(
            "no edge activity near the selected basepoint", eta=eta
        )
    scale = 1.0 / math.sqrt(avg_act)

    # y0: strongest normalized edge activity within the ball around x0
    x0c = np.asarray(dom.coord_of(x0), dtype=np.int64)
    masked = np.full(dom.points, -np.inf)
    offs = np.arange(-radius, radius + 1, dtype=np.int64)
    ball = np.ix_(*[(c + offs) % m for c in x0c])
    idx = np.ravel_multi_index(ball, dom.shape)
    masked[idx] = activity[idx]
    y0 = int(np.argmax(masked))
    y0c = np.asarray(dom.coord_of(y0), dtype=np.int64)

    sigma = np.where(((x0c - y0c) % m) < s, 1, -1).astype(np.int64)

    # f'(x) = f(y0 + sigma * x), restricted to the even sub-box, halved
    vset = VSet.of(s, n)
    src_pts = vset.members // 2  # the sup-norm box {0..s/4}^n
    src = points_space(src_pts, math.inf)
    mapped_points = (y0c[None, :] + sigma[None, :] * vset.members) % m
    mapped_idx = np.ravel_multi_index(tuple(mapped_points.T), dom.shape)

    if isinstance(target, FiniteMetricSpace):
        tgt_space = target
        mapping = np.asarray(f.values, dtype=np.int64)[mapped_idx]
    else:
        tgt_space = points_space(f.values[mapped_idx], target.p)
        mapping = np.arange(len(mapped_idx), dtype=np.int64)

    record = distortion(mapping, src, tgt_space)
    report = {
        "eta": eta,
        "lhs_long_shift": lhs_s,
        "rhs_edge_energy": rhs_full,
        "x0": [int(c) for c in x0c],
        "y0": [int(c) for c in y0c],
        "sigma": [int(c) for c in sigma],
        "scale": scale,
        "psi_ball_max": float(psi_ball[x0]),
        "activity_y0_normalized": float(activity[y0]) * scale**2,
        "s": s,
        "distortion": record.distortion,
    }
    return record, report


def coarse_obstruction_check(values, space, n: int, m: int, p: float,
                             q: float, r: float,
                             s_scale: float) -> InequalityCheck:
    """Compression/expansion moduli comparison for maps of the scaled
    exponential net u(x) = (s e^(2 pi i x_j / m))_j in l_r^n.

        n^(1/q) * omega(2s) <= gamma * m * Omega(2 pi s n^(1/r) / m)

    with gamma the measured torus functional of the induced map.
    omega/Omega are the infimum/supremum of target distances over net
    pairs at source distance >= / <= t.
    """
    dom = TorusDomain(n=n, m=m)
    vals = np.asarray(values, dtype=np.int64)
    if vals.shape != (dom.points,):
        raise PreconditionViolationError(
            f"need one target index per torus point ({dom.points})"
        )
    g = GridFunction.points(dom, vals)
    gamma = cotype_functionals(g, space, p, q).gamma_hat

    coords = dom.coords()
    net = s_scale * np.exp(2j * np.pi * coords / m)  # (N, n) complex
    net_space = points_space(net, r)
    tables = moduli(vals, net_space, space)
    omega = tables.compression_at(2.0 * s_scale)
    big_omega = tables.expansion_at(
        2.0 * np.pi * s_scale * n ** (1.0 / r) / m
    )
    lhs = n ** (1.0 / q) * omega
    rhs = gamma * m * big_omega
    return make_check(
        "net-moduli-obstruction",
        {"n": n, "m": m, "p": p, "q": q, "r": r, "s": s_scale,
         "gamma": repr(gamma)},
        lhs,
        rhs,
    )


def _collides(pts: np.ndarray) -> bool:
    """Whether two points of the cloud lie within 1e-9 of each other."""
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    dist[np.diag_indices(len(pts))] = np.inf
    return dist.min() <= 1e-9


def _random_injection(rng, count: int, d: int) -> np.ndarray:
    """Gaussian point cloud, resampled if any pair nearly collides."""
    while True:
        pts = rng.standard_normal((count, d))
        if not _collides(pts):
            return pts


def grid_lower_bound_check(n: int, m: int, d: int, trials: int, seed: int,
                           target: str = "l2",
                           adversarial_steps: int = 0) -> InequalityCheck:
    """Every sampled injection of the torus into l_2^d (or into l_1^d
    measured under square-rooted distances) has distortion at least
    sqrt(n) / (2 * exact Hilbert constant).

    Optionally descends on distortion by point nudges to stress the
    bound adversarially; the bound must survive every trial.
    """
    if target not in ("l2", "l1-sqrt"):
        raise PreconditionViolationError(f"unknown target {target!r}")
    if trials < 1:
        raise PreconditionViolationError(
            f"need at least one sampled injection, got trials={trials}"
        )
    dom = TorusDomain(n=n, m=m)
    gam, _ = gamma_hilbert_exact(n, m)
    bound = math.sqrt(n) / (2.0 * gam)
    source = torus_space(dom)
    rng = np.random.default_rng(seed)
    mapping = np.arange(dom.points, dtype=np.int64)

    def measure(pts: np.ndarray) -> float:
        if target == "l2":
            tgt = points_space(pts, 2.0)
        else:
            tgt = snowflake(points_space(pts, 1.0), 0.5)
        return distortion(mapping, source, tgt).distortion

    def score(pts: np.ndarray) -> float:
        return -math.inf if _collides(pts) else -measure(pts)

    def nudge(rng, old):
        return old + 0.25 * rng.standard_normal(d)

    worst = math.inf
    worst_pts = None
    for _ in range(trials):
        pts = _random_injection(rng, dom.points, d)
        val = measure(pts)
        if val < worst:
            worst = val
            worst_pts = pts
    worst = -climb(worst_pts, score, nudge, adversarial_steps, rng, best=-worst)
    return make_check(
        "injection-distortion-floor",
        {"n": n, "m": m, "d": d, "trials": trials, "seed": seed,
         "target": target, "adversarial_steps": adversarial_steps},
        bound,
        worst,
    )
