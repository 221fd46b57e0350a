"""The three workloads: seeded inputs and the fixed job list of one round.

``WORKLOADS[name](seed)`` builds a round's ops in the round's own
interpreter right after the cotypelab import; everything it does counts as
set-up. Each ``Op`` is
one timed sequence of calls into the public API of cotypelab; its ``check``
compares the result with ``oracles`` and returns the problems it finds
(an empty list means correct). An op with a ``fault`` fails on every input
today because of that fault in the program; its inputs do not depend on
the seed, and it counts as failed, not as incorrect, while the fault
stands.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import cotypelab as cl
import oracles as ref

SEARCH_EXACT_GAMMA_MAX_POINTS = 16  # searches on m^n <= 16 are bounded by brute force
SMOOTHING_WITNESSES = 8  # random witnesses per gate cell (the gate uses 500)
ADVERSARIAL_STEPS = 30  # per climb (the gate uses 50)
NORM = cl.NormTarget(p=2.0, dim=2)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fault: str = ""


def _problems(pairs) -> list:
    return [label for label, ok in pairs if not ok]


def _vector_witness(rng, n: int, m: int) -> np.ndarray:
    return rng.standard_normal((m**n, 2)) + 1j * rng.standard_normal((m**n, 2))


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _api(name: str, *args, **kwargs) -> Callable[[], object]:
    """A call of cotypelab.<name>, looked up when it runs, so a traced round sees its wrapper."""
    return lambda: getattr(cl, name)(*args, **kwargs)


# ---------------------------------------------------------------- search

@functools.cache
def _two_point_maxima(n: int, m: int) -> dict:
    return ref.two_point_max(n, m, [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 4.0)])


def _two_point_max(n: int, m: int, p: float, q: float) -> float:
    return _two_point_maxima(n, m)[(p, q)]


def _check_gamma_search(dist, n, m, p, q, start, rep) -> list:
    w = np.asarray(rep.witness.values)
    lhs, rhs, gamma = ref.cotype_point(w, dist, n, m, p, q)
    _, _, gamma_start = ref.cotype_point(start, dist, n, m, p, q)
    checks = [
        ("mode is exact", rep.mode == "exact"),
        ("not degenerate", not rep.degenerate),
        ("lhs matches the definition", ref.rel_close(rep.lhs, lhs, 1e-9)),
        ("rhs_raw matches the definition", ref.rel_close(rep.rhs_raw, rhs, 1e-9)),
        ("gamma matches the definition", ref.rel_close(rep.gamma_hat, gamma, 1e-9)),
        ("no worse than its starting witness", rep.gamma_hat >= gamma_start - 1e-12),
    ]
    if dist.shape[0] == 2 and m**n <= SEARCH_EXACT_GAMMA_MAX_POINTS:
        checks.append(("below the brute-force maximum",
                       rep.gamma_hat <= _two_point_max(n, m, p, q) + 1e-12))
    return _problems(checks)


def _check_b_search(dist, n, m, ell, start, rep) -> list:
    w = np.asarray(rep.witness.values)
    lhs, rhs, b = ref.b_point(w, dist, n, m, ell)
    _, _, b_start = ref.b_point(start, dist, n, m, ell)
    return _problems([
        ("not degenerate", not rep.degenerate),
        ("lhs matches the definition", ref.rel_close(rep.lhs, lhs, 1e-9)),
        ("rhs_raw matches the definition", ref.rel_close(rep.rhs_raw, rhs, 1e-9)),
        ("b matches the definition", ref.rel_close(rep.b_hat, b, 1e-9)),
        ("b <= 1", rep.b_hat <= 1.0 + 1e-9),
        ("no worse than its starting witness", rep.b_hat >= b_start - 1e-12),
    ])


def search(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    two = cl.two_point_space()
    torus16 = cl.torus_space(cl.TorusDomain(n=2, m=4))
    spaces = {
        "two-point": (two, np.array([[0.0, 1.0], [1.0, 0.0]])),
        "torus16": (torus16, ref.torus_dist(ref.coords(2, 4), 4)),
    }
    ops = []
    for label, n, m, p, q, budget in (
        ("two-point", 2, 6, 2.0, 2.0, 3000),
        ("two-point", 3, 6, 2.0, 4.0, 1000),
        ("two-point", 2, 4, 1.0, 2.0, 2000),
        ("torus16", 2, 6, 2.0, 2.0, 1500),
    ):
        space, dist = spaces[label]
        start = rng.integers(0, space.size, m**n)
        ops.append(Op(
            f"gamma-search/{label}/n{n}m{m}p{p:g}q{q:g}",
            _api("gamma_search", space, n, m, p, q, budget, _seed(rng), [start]),
            partial(_check_gamma_search, dist, n, m, p, q, start),
        ))
    for label, n, ell, m, budget in (
        ("torus16", 2, 2, 6, 2000),
        ("two-point", 2, 2, 4, 2000),
    ):
        space, dist = spaces[label]
        start = rng.integers(0, space.size, m**n)
        ops.append(Op(
            f"b-search/{label}/n{n}ell{ell}m{m}",
            _api("b_quantity_search", space, n, ell, m, budget, _seed(rng), [start]),
            partial(_check_b_search, dist, n, m, ell, start),
        ))
    return ops


# ----------------------------------------------------------------- audit

def _fourier_forward(values, n, m):
    return cl.fourier_forward(cl.GridFunction.vector(cl.TorusDomain(n=n, m=m), values)).coeffs


def _check_forward(values, n, m, coeffs) -> list:
    expect = np.fft.fftn(values.reshape((m,) * n + (2,)), axes=tuple(range(n)))
    expect = expect.reshape(m**n, 2) / m**n
    scale = float(np.sqrt((np.abs(values) ** 2).sum(axis=1)).max())
    return _problems([("coefficients match numpy fftn",
                       float(np.abs(coeffs - expect).max()) <= 1e-10 * scale)])


def _residual(name, values, n, m):
    return getattr(cl, name)(cl.GridFunction.vector(cl.TorusDomain(n=n, m=m), values))


def _check_residual(residual) -> list:
    return _problems([("residual below 1e-10", residual < 1e-10)])


def _smoothing_cell(n, m, k, witnesses, seeds):
    dom = cl.TorusDomain(n=n, m=m)
    pats = cl.sign_patterns(n)
    checks = []
    for i, values in enumerate(witnesses):
        f = cl.GridFunction.vector(dom, values)
        for p in (1.0, 2.0):
            checks.append(cl.check_lemma_approx(f, NORM, i % n, k, p))
            checks.append(cl.check_lemma_cancellation(f, NORM, k, p, pats[i % len(pats)]))
    ones = np.ones(n, dtype=np.int64)
    for p, (sa, sc) in zip((1.0, 2.0), seeds):
        checks.append(cl.adversarial_approx_search(
            n, m, 0, k, p, NORM, steps=ADVERSARIAL_STEPS, seed=sa))
        checks.append(cl.adversarial_cancellation_search(
            n, m, k, p, ones, NORM, steps=ADVERSARIAL_STEPS, seed=sc))
    return checks


def _all_pass(checks) -> list:
    return [f"{c.name} {c.params} fails or is not finite" for c in checks
            if not (c.passed and math.isfinite(c.lhs) and math.isfinite(c.rhs))]


def _check_smoothing_cell(n, m, k, witnesses, checks) -> list:
    out = _all_pass(checks)
    values = witnesses[0]
    eps = cl.sign_patterns(n)[0]
    for idx, p in ((0, 1.0), (2, 2.0)):  # witness 0: approx at p, then cancellation
        out += _problems([
            (f"approx lhs at p={p:g} matches the window average",
             ref.rel_close(checks[idx].lhs, ref.approx_lhs(values, n, m, 0, k, p), 1e-9)),
            (f"cancellation lhs at p={p:g} matches the window average",
             ref.rel_close(checks[idx + 1].lhs,
                           ref.cancellation_lhs(values, n, m, k, p, eps), 1e-9)),
        ])
    return out


def _check_exhaustive(n, m, p, q, rep) -> list:
    w = np.asarray(rep.witness.values)
    _, _, gamma = ref.cotype_point(w, np.array([[0.0, 1.0], [1.0, 0.0]]), n, m, p, q)
    return _problems([
        ("gamma is the brute-force maximum",
         ref.rel_close(rep.gamma_hat, _two_point_max(n, m, p, q), 1e-12)),
        ("witness attains the reported gamma", ref.rel_close(rep.gamma_hat, gamma, 1e-9)),
    ])


def _check_random_mean(trials, out) -> list:
    return _problems([
        ("formula is 3/8", abs(out["formula"] - ref.RANDOM_TWO_POINT_2_4) <= 1e-15),
        ("trials as asked", out["trials"] == trials),
        ("mean within 6 standard errors of 3/8",
         abs(out["gamma_mc"] - ref.RANDOM_TWO_POINT_2_4) <= 6.0 * out["stderr"]),
    ])


def _hilbert():
    return {
        "exact_1_4": cl.gamma_hilbert_exact(1, 4)[0],
        "exact_2_4": cl.gamma_hilbert_exact(2, 4)[0],
        "dense_1_4": cl.hilbert_gamma_power_iteration(1, 4),
        "dense_2_4": cl.hilbert_gamma_power_iteration(2, 4),
    }


def _check_hilbert(out) -> list:
    return _problems([
        ("gamma(1,4) = sqrt(3)/4", abs(out["exact_1_4"] - ref.HILBERT_1_4) <= 1e-12),
        ("gamma(2,4) = 3/(4 sqrt(2))", abs(out["exact_2_4"] - ref.HILBERT_2_4) <= 1e-12),
        ("dense oracle at (1,4)", abs(out["dense_1_4"] - ref.HILBERT_1_4) <= 1e-9),
        ("dense oracle at (2,4)", abs(out["dense_2_4"] - ref.HILBERT_2_4) <= 1e-9),
    ])


HOMOGENEITY_FAULT = ("NormTarget.norm squares raw values: gamma_hat(c f) overflows to NaN "
                     "at c=1e200 and underflows to 0 at c=1e-170, and make_check passes "
                     "lhs = rhs = inf")


def _homogeneity_ops() -> list:
    # Fixed input, independent of the seed: these ops fail on every input today.
    values = _vector_witness(np.random.default_rng(506201), 2, 6)
    dom = cl.TorusDomain(n=2, m=6)
    norm = cl.NormTarget(p=2.0)

    def gamma_pair(c):
        base = cl.cotype_functionals(cl.GridFunction.vector(dom, values), norm, 2.0, 2.0)
        scaled = cl.cotype_functionals(cl.GridFunction.vector(dom, c * values), norm, 2.0, 2.0)
        return base, scaled

    def check_gamma(pair) -> list:
        base, scaled = pair
        return _problems([
            ("scaled witness not degenerate", not scaled.degenerate),
            ("gamma_hat(c f) = gamma_hat(f)",
             ref.rel_close(scaled.gamma_hat, base.gamma_hat, 1e-9)),
        ])

    def approx(c):
        return cl.check_lemma_approx(cl.GridFunction.vector(dom, c * values), norm, 0, 1, 2.0)

    def check_approx(chk) -> list:
        return _problems([
            ("both sides finite", math.isfinite(chk.lhs) and math.isfinite(chk.rhs)),
            ("passes", chk.passed),
        ])

    fault = HOMOGENEITY_FAULT
    return [
        Op("homogeneity/gamma/c1e200", partial(gamma_pair, 1e200), check_gamma, fault),
        Op("homogeneity/gamma/c1e-170", partial(gamma_pair, 1e-170), check_gamma, fault),
        Op("homogeneity/approx/c1e200", partial(approx, 1e200), check_approx, fault),
    ]


def audit(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n, m in ((2, 64), (1, 512)):
        values = _vector_witness(rng, n, m)
        ops.append(Op(f"fourier-forward/n{n}m{m}", partial(_fourier_forward, values, n, m),
                      partial(_check_forward, values, n, m)))
    for label, n, m in (("parseval", 4, 8), ("parseval", 3, 8), ("roundtrip", 2, 32)):
        values = _vector_witness(rng, n, m)
        ops.append(Op(f"transform-{label}/n{n}m{m}",
                      partial(_residual, f"{label}_residual", values, n, m), _check_residual))
    for n in (1, 2, 3):
        for m in (6, 8, 10):
            for k in (1, 3):
                if k >= m / 2:
                    continue
                witnesses = [_vector_witness(rng, n, m) for _ in range(SMOOTHING_WITNESSES)]
                seeds = [(_seed(rng), _seed(rng)) for _ in range(2)]
                ops.append(Op(f"smoothing/n{n}m{m}k{k}",
                              partial(_smoothing_cell, n, m, k, witnesses, seeds),
                              partial(_check_smoothing_cell, n, m, k, witnesses)))
    ops.append(Op("verify/all", _api("run_suite", "all"), _all_pass))
    for p, q in ((1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (2.0, 4.0)):
        ops.append(Op(f"two-point-exhaustive/n4m2p{p:g}q{q:g}",
                      _api("gamma_exhaustive_two_point", 4, 2, p, q),
                      partial(_check_exhaustive, 4, 2, p, q)))
    trials = 1 << 16
    ops.append(Op("two-point-random-mean/n2m4",
                  _api("random_two_point_mc", 2, 4, 2.0, 2.0, trials, _seed(rng)),
                  partial(_check_random_mean, trials)))
    ops.append(Op("hilbert-constants", _hilbert, _check_hilbert))
    return ops + _homogeneity_ops()


# --------------------------------------------------------------- extract

def _isometry(rng, n: int, m: int) -> np.ndarray:
    """Value table of x -> sigma * x[perm] + t on Z_m^n, an isometry of its word metric."""
    perm = rng.permutation(n)
    sigma = rng.choice(np.array([-1, 1]), size=n)
    t = rng.integers(0, m, size=n)
    moved = (sigma * ref.coords(n, m)[:, perm] + t) % m
    return moved @ (m ** np.arange(n - 1, -1, -1, dtype=np.int64))


def _extract(n, m, s, values):
    dom = cl.TorusDomain(n=n, m=m)
    return cl.extract_grid(cl.GridFunction.points(dom, values), cl.torus_space(dom), s)


def _check_extract(n, m, s, out) -> list:
    record, report = out
    box = ref.coords(n, s // 4 + 1).astype(np.float64)
    image = ref.coords(n, m)[np.asarray(record.mapping)]
    lip, colip = ref.lip_colip(ref.sup_dist(box), ref.torus_dist(image, m))
    return _problems([
        ("eta = 0 for an isometric witness", abs(report["eta"]) <= 1e-12),
        ("distortion <= 1 + 1e-9", record.distortion <= 1.0 + 1e-9),
        ("distortion = lip * colip of the tables",
         ref.rel_close(record.distortion, lip * colip, 1e-12)),
    ])


def _grid_identity(n, m, q):
    pts = cl.grid_points(n, m)
    return cl.distortion(np.arange(len(pts)), cl.points_space(pts, math.inf),
                         cl.points_space(pts, q))


def _check_grid_identity(n, m, q, record) -> list:
    return _problems([
        ("distortion = n^(1/q)", ref.rel_close(record.distortion, n ** (1.0 / q), 1e-12)),
        ("distortion matches the pairwise ratios",
         ref.rel_close(record.distortion, ref.grid_identity_distortion(n, m, q), 1e-12)),
    ])


def _check_floor(chk) -> list:
    # sqrt(n) / (2 gamma(2,4)) with gamma(2,4) = 3/(4 sqrt(2)) is 4/3
    return _problems([
        ("bound is 4/3", abs(chk.lhs - math.sqrt(2.0) / (2.0 * ref.HILBERT_2_4)) <= 1e-12),
        ("every sampled injection is above the bound", chk.passed and chk.rhs >= chk.lhs),
    ])


def extract(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for label, n, m, s in (("identity", 4, 8, 4), ("isometry", 2, 24, 12),
                           ("identity", 2, 16, 8), ("isometry", 2, 16, 8),
                           ("identity", 3, 8, 4), ("isometry", 3, 8, 4)):
        if label == "identity":
            values = np.arange(m**n, dtype=np.int64)
        else:
            values = _isometry(rng, n, m)
        ops.append(Op(f"extract-grid/{label}/n{n}m{m}s{s}", partial(_extract, n, m, s, values),
                      partial(_check_extract, n, m, s)))
    ops.append(Op("injection-floor/n2m4d3",
                  _api("grid_lower_bound_check", 2, 4, 3, trials=40, seed=_seed(rng),
                          adversarial_steps=10),
                  _check_floor))
    for n, m, q in ((5, 4, 2.0), (3, 4, 4.0)):
        ops.append(Op(f"grid-identity/n{n}m{m}q{q:g}", partial(_grid_identity, n, m, q),
                      partial(_check_grid_identity, n, m, q)))
    return ops


WORKLOADS = {"search": search, "audit": audit, "extract": extract}
