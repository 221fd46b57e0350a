"""Verification suites: every finite inequality and identity in one sweep.

Each suite returns a list of InequalityCheck records. Residual-style
identities enter as lhs = measured residual against rhs = tolerance
budget, so a single pass/fail convention covers everything. Suites are
deterministic given the seed, and the CLI exposes them under `verify`.
"""
from __future__ import annotations

import math

import numpy as np

from .checks import InequalityCheck, check_order, make_check
from .cotype import (
    b_functionals,
    contraction_principle_check,
    contraction_rhs_bound,
    cotype_functionals,
    edge_sum_check,
    exhaustive_b,
    expected_random_gamma,
    gamma_exhaustive_two_point,
    gamma_hilbert_exact,
    hilbert_gamma_power_iteration,
    linear_exponential_witness,
    mod_inequality_check,
    random_two_point_mc,
    tensor_submultiplicativity_check,
)
from .embeddings import (
    coarse_obstruction_check,
    diag_geodesic_through,
    extract_grid,
    frechet_cycle,
    grid_lower_bound_check,
    grid_to_torus,
    sparse_frechet_cycle,
    torus_to_grid_full,
)
from .errors import HypothesisFailedError
from .gridops import random_point_values, random_vector_values
from .harmonic import (
    GridFunction,
    _direct_transform,
    avg_others,
    central_diff,
    edge_diff,
    fourier_forward,
    fourier_inverse,
    parseval_residual,
    rad_identity_residual,
    roundtrip_residual,
    scale_of,
    symbol_avg_others,
    symbol_central_diff,
    symbol_edge_diff,
    walsh_char,
)
from .smoothing import (
    adversarial_approx_search,
    adversarial_cancellation_search,
    check_lemma_approx,
    check_lemma_cancellation_all,
    smoothing_apply,
    smoothing_set,
)
from .spaces import TorusDomain, diag_distance, torus_space, two_point_space
from .targets import NormTarget

RESIDUAL_REL = 1e-10


def _residual_check(name: str, params: dict, residual: float,
                    scale: float) -> InequalityCheck:
    return InequalityCheck(name=name, params=params, lhs=residual,
                           rhs=RESIDUAL_REL * max(scale, 1e-300),
                           tolerance=0.0)


def _spectral_two_path(f: GridFunction, op, symbol) -> float:
    """max pointwise error between an operator and its transform-side twin."""
    direct = op(f)
    coeffs = fourier_forward(f)
    mult = symbol(f.domain)
    twisted = fourier_inverse(
        type(coeffs)(domain=coeffs.domain,
                     coeffs=coeffs.coeffs * mult[:, None])
    )
    return float(np.max(np.abs(direct.values - twisted.values)))


def harmonic_suite(seed: int = 7, trials: int = 5) -> list[InequalityCheck]:
    checks: list[InequalityCheck] = []
    rng = np.random.default_rng(seed)
    cells = [(1, 8), (2, 6), (3, 4)]
    for n, m in cells:
        dom = TorusDomain(n=n, m=m)
        for t in range(trials):
            f = GridFunction.vector(dom, random_vector_values(dom, 2, rng))
            sc = scale_of(f)
            params = {"n": n, "m": m, "trial": t}
            checks.append(_residual_check(
                "transform-roundtrip", params, roundtrip_residual(f), sc))
            checks.append(_residual_check(
                "transform-parseval", params, parseval_residual(f), sc * sc))
            oracle = _direct_transform(dom, f.values, -1.0) / dom.points
            checks.append(_residual_check(
                "transform-two-path", params,
                float(np.max(np.abs(oracle - fourier_forward(f).coeffs))), sc))
            checks.append(_residual_check(
                "projection-identity", params, rad_identity_residual(f), sc))
            checks.append(_residual_check(
                "central-difference-symbol", params,
                _spectral_two_path(f, lambda g: central_diff(g, 0),
                                   lambda d: symbol_central_diff(d, 0)), sc))
            checks.append(_residual_check(
                "window-average-symbol", params,
                _spectral_two_path(f, lambda g: avg_others(g, 0),
                                   lambda d: symbol_avg_others(d, 0)), sc))
            eps = np.zeros(n, dtype=np.int64)
            eps[0] = 1
            if n > 1:
                eps[1] = -1
            checks.append(_residual_check(
                "edge-difference-symbol", params,
                _spectral_two_path(f, lambda g: edge_diff(g, eps),
                                   lambda d: symbol_edge_diff(d, eps)), sc))
    # character orthonormality spot check
    dom = TorusDomain(n=2, m=6)
    k1 = np.array([1, 2])
    k2 = np.array([4, 5])
    w1 = walsh_char(dom, k1)
    w2 = walsh_char(dom, k2)
    inner_cross = abs(np.mean(w1 * np.conj(w2)))
    inner_self = abs(np.mean(w1 * np.conj(w1)) - 1.0)
    checks.append(_residual_check("character-orthogonality",
                                  {"n": 2, "m": 6}, inner_cross, 1.0))
    checks.append(_residual_check("character-normalization",
                                  {"n": 2, "m": 6}, inner_self, 1.0))
    return checks


def cotype_suite(seed: int = 11, trials: int = 50) -> list[InequalityCheck]:
    checks: list[InequalityCheck] = []
    rng = np.random.default_rng(seed)

    g14, _ = gamma_hilbert_exact(1, 4)
    g24, _ = gamma_hilbert_exact(2, 4)
    checks.append(_residual_check(
        "hilbert-closed-form", {"n": 1, "m": 4},
        abs(g14 - math.sqrt(3.0) / 4.0), 1.0))
    checks.append(_residual_check(
        "hilbert-closed-form", {"n": 2, "m": 4},
        abs(g24 - 3.0 / (4.0 * math.sqrt(2.0))), 1.0))
    for n, m in [(1, 4), (2, 4), (1, 6)]:
        exact, _ = gamma_hilbert_exact(n, m)
        oracle = hilbert_gamma_power_iteration(n, m)
        checks.append(InequalityCheck(
            name="hilbert-oracle-agreement", params={"n": n, "m": m},
            lhs=abs(exact - oracle), rhs=1e-9, tolerance=0.0))
    ceiling = math.sqrt(6.0) / math.pi
    for n in (1, 2, 3):
        m = 4
        while m < (2.0 / 3.0) * math.pi * math.sqrt(n):
            m += 4
        val, _ = gamma_hilbert_exact(n, m)
        checks.append(make_check("hilbert-ceiling", {"n": n, "m": m},
                                 val, ceiling, rel_tol=1e-12))

    e14 = gamma_exhaustive_two_point(1, 4, 2.0, 2.0)
    e12 = gamma_exhaustive_two_point(1, 2, 2.0, 2.0)
    checks.append(make_check(
        "two-point-monotone-m", {"n": 1, "m_fine": 4, "m_coarse": 2},
        e14.gamma_hat, e12.gamma_hat))
    checks.append(_residual_check(
        "two-point-closed-form", {"n": 1, "m": 4},
        abs(e14.gamma_hat - math.sqrt(3.0) / 4.0), 1.0))

    e24 = gamma_exhaustive_two_point(2, 4, 2.0, 2.0)
    pad_factor = (2.0 / 1.0) ** (1.0 - 2.0 / 2.0)
    checks.append(make_check(
        "dimension-padding", {"n": 2, "k": 1, "m": 4},
        e14.gamma_hat, pad_factor * e24.gamma_hat))

    gstar, kstar = gamma_hilbert_exact(2, 4)
    domw = TorusDomain(n=2, m=4)
    wit_vals = np.real(
        walsh_char(domw, np.asarray(kstar))
    )[:, None].astype(np.complex128)
    repw = cotype_functionals(GridFunction.vector(domw, wit_vals),
                              NormTarget(p=2.0), 2.0, 2.0)
    checks.append(InequalityCheck(
        name="hilbert-character-witness", params={"n": 2, "m": 4},
        lhs=abs(repw.gamma_hat - gstar), rhs=1e-6, tolerance=0.0))

    mc = random_two_point_mc(2, 4, 2.0, 2.0, trials=max(trials, 50), seed=seed)
    checks.append(make_check(
        "random-witness-mean",
        {"n": 2, "m": 4, "trials": mc["trials"], "seed": seed},
        abs(mc["gamma_mc"] - mc["formula"]), 3.0 * mc["stderr"],
    ))
    # sqrt(2)/(4 sqrt(8/9)) collapses to the rational 3/8 by hand
    checks.append(_residual_check(
        "random-witness-formula", {"n": 2, "m": 4},
        abs(expected_random_gamma(2, 4, 2.0, 2.0) - 0.375), 1.0))

    b = exhaustive_b(two_point_space(), 1, 2, 4)
    checks.append(make_check("b-ceiling", {"n": 1, "ell": 2, "m": 4},
                             b.b_hat, 1.0, rel_tol=1e-9))
    checks.append(tensor_submultiplicativity_check(
        two_point_space(), 1, 1, 2, 2, 16))

    space = two_point_space()
    dom = TorusDomain(n=2, m=6)
    worst = -math.inf
    worst_edge = -math.inf
    for _ in range(trials):
        vals = random_point_values(dom, 2, rng)
        f = GridFunction.points(dom, vals)
        chk = mod_inequality_check(f, space, a=1, r=2)
        worst = max(worst, chk.lhs - chk.rhs)
        for p_edge in (1.0, 2.0):
            ce = edge_sum_check(f, space, p_edge)
            worst_edge = max(worst_edge, ce.lhs - ce.rhs)
    checks.append(make_check(
        "shift-mod-bound-worst",
        {"n": 2, "m": 6, "a": 1, "r": 2, "trials": trials, "seed": seed},
        worst, 0.0))
    checks.append(make_check(
        "edge-sum-bound-worst",
        {"n": 2, "m": 6, "trials": trials, "seed": seed},
        worst_edge, 0.0))

    cvecs = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    cscal = rng.uniform(-1.0, 1.0, size=3)
    checks.append(contraction_principle_check(cvecs, cscal, 2.0,
                                              NormTarget(p=2.0)))

    dom_id = TorusDomain(n=2, m=6)
    ident = GridFunction.points(dom_id, np.arange(dom_id.points))
    rep = b_functionals(ident, torus_space(dom_id), 2)
    checks.append(_residual_check(
        "b-identity-witness", {"n": 2, "m": 6, "ell": 2},
        abs(rep.b_hat - 1.0), 1.0))

    vecs = np.array([[1.0, 0.0], [0.5, 0.5]], dtype=np.complex128)
    m_exp = 8
    norm = NormTarget(p=2.0)
    wit = linear_exponential_witness(vecs, m_exp)
    p = 2.0
    rep2 = cotype_functionals(wit, norm, p, 2.0)
    exact_lhs = 2.0**p * float(np.sum(norm.norm(vecs) ** p))
    checks.append(_residual_check(
        "exponential-witness-energy", {"n": 2, "m": m_exp, "p": p},
        abs(rep2.lhs - exact_lhs), max(exact_lhs, 1.0)))
    checks.append(make_check(
        "exponential-witness-contraction", {"n": 2, "m": m_exp, "p": p},
        rep2.rhs_raw, contraction_rhs_bound(vecs, m_exp, p, norm)))
    return checks


def smoothing_suite(seed: int = 13, trials: int = 20) -> list[InequalityCheck]:
    checks: list[InequalityCheck] = []
    rng = np.random.default_rng(seed)
    norm = NormTarget(p=2.0)

    for n, k in [(1, 1), (2, 1), (2, 3), (3, 1)]:
        dom = TorusDomain(n=n, m=8)
        sset = smoothing_set(0, k, dom)
        checks.append(_residual_check(
            "window-cardinality", {"n": n, "k": k},
            float(abs(sset.size - k * (k + 1) ** (n - 1))), 1.0))

    dom = TorusDomain(n=2, m=8)
    f = GridFunction.vector(dom, random_vector_values(dom, 2, rng))
    agree = smoothing_apply(f, 0, 1).values - avg_others(f, 0).values
    checks.append(_residual_check(
        "window-average-matches-k1", {"n": 2, "m": 8},
        float(np.max(np.abs(agree))), scale_of(f)))

    const = GridFunction.vector(dom, np.ones((dom.points, 2),
                                             dtype=np.complex128))
    fixed = smoothing_apply(const, 1, 3).values - const.values
    checks.append(_residual_check(
        "window-fixes-constants", {"n": 2, "m": 8, "k": 3},
        float(np.max(np.abs(fixed))), 1.0))

    k0 = np.array([1, 2])
    wchar = GridFunction.vector(
        dom, walsh_char(dom, k0)[:, None].astype(np.complex128))
    sset = smoothing_set(1, 3, dom)
    mult = sset.multiplier(k0, dom.m)
    spectral = smoothing_apply(wchar, 1, 3).values - mult * wchar.values
    checks.append(_residual_check(
        "window-spectral-multiplier", {"n": 2, "m": 8, "k": 3},
        float(np.max(np.abs(spectral))), 1.0))

    worst_a = -math.inf
    worst_c = -math.inf
    for n, m in [(2, 6), (2, 8), (3, 6)]:
        dom = TorusDomain(n=n, m=m)
        for k in (1, 3):
            if k >= m / 2:
                continue
            for p in (1.0, 2.0):
                for _ in range(trials):
                    f = GridFunction.vector(
                        dom, random_vector_values(dom, 2, rng))
                    ca = check_lemma_approx(f, norm, 0, k, p)
                    worst_a = max(worst_a, ca.lhs - ca.rhs)
                    for cc in check_lemma_cancellation_all(f, norm, k, p):
                        worst_c = max(worst_c, cc.lhs - cc.rhs)
    checks.append(make_check(
        "smoothing-approximation-worst",
        {"trials": trials, "seed": seed}, worst_a, 0.0))
    checks.append(make_check(
        "smoothing-cancellation-worst",
        {"trials": trials, "seed": seed}, worst_c, 0.0))

    adv_a = adversarial_approx_search(2, 6, 0, 1, 2.0, norm, steps=40,
                                      seed=seed)
    checks.append(make_check(
        "smoothing-approximation-adversarial", dict(adv_a.params),
        adv_a.lhs, adv_a.rhs))
    adv_c = adversarial_cancellation_search(2, 6, 1, 2.0, (1, -1), norm,
                                            steps=40, seed=seed)
    checks.append(make_check(
        "smoothing-cancellation-adversarial", dict(adv_c.params),
        adv_c.lhs, adv_c.rhs))
    return checks


def embeddings_suite(seed: int = 17, trials: int = 20) -> list[InequalityCheck]:
    checks: list[InequalityCheck] = []
    rng = np.random.default_rng(seed)

    for m in (2, 4, 8):
        rec = frechet_cycle(m)
        checks.append(_residual_check(
            "cycle-profile-isometric", {"m": m},
            abs(rec.distortion - 1.0), 1.0))
    rec = grid_to_torus(2, 2)
    checks.append(_residual_check(
        "grid-inclusion-isometric", {"m": 2, "n": 2},
        abs(rec.distortion - 1.0), 1.0))
    rec = torus_to_grid_full(2, 2)
    checks.append(_residual_check(
        "torus-profile-isometric", {"m": 2, "n": 2},
        abs(rec.distortion - 1.0), 1.0))
    for m in (8, 16):
        for eps in (0.5, 0.25):
            rec = sparse_frechet_cycle(m, eps)
            checks.append(make_check(
                "sparse-profile-distortion", {"m": m, "eps": eps},
                rec.distortion, 1.0 + 6.0 * eps))

    dom = TorusDomain(n=2, m=8)
    s = 4
    for x, y in [((0, 0), (2, 2)), ((0, 2), (2, 0)), ((0, 0), (0, 0))]:
        path = diag_geodesic_through(x, y, s, dom)
        t = int(np.max(np.abs(np.array(x) - np.array(y))))
        other = y if np.array_equal(path.steps[0] % dom.m,
                                    np.array(x) % dom.m) else x
        hit = float(np.max(np.abs(
            (path.steps[path.through_index] - np.array(other)) % dom.m)))
        params = {"x": str(x), "y": str(y), "s": s}
        checks.append(_residual_check(
            "diag-geodesic-length", params, float(path.length - s), 1.0))
        checks.append(_residual_check(
            "diag-geodesic-through", params, hit, 1.0))
        if not np.array_equal(np.array(x), np.array(y)):
            distance = diag_distance(dom, np.array(x), np.array(y))
            checks.append(_residual_check(
                "diag-geodesic-minimal", params, float(abs(distance - t)),
                1.0))

    dom = TorusDomain(n=2, m=8)
    ident = GridFunction.points(dom, np.arange(dom.points))
    rec, report = extract_grid(ident, torus_space(dom), 4)
    checks.append(make_check(
        "extraction-identity-isometric", {"n": 2, "m": 8, "s": 4},
        rec.distortion, 1.0, rel_tol=1e-9))
    checks.append(_residual_check(
        "extraction-identity-eta", {"n": 2, "m": 8, "s": 4},
        report["eta"], 1.0))
    try:
        extract_grid(GridFunction.points(dom, np.zeros(dom.points,
                                                       dtype=np.int64)),
                     torus_space(dom), 4)
        rejected = 1.0
    except HypothesisFailedError:
        rejected = 0.0
    checks.append(_residual_check(
        "extraction-rejects-constant", {"n": 2, "m": 8, "s": 4},
        rejected, 1.0))

    n, m = 2, 4
    net_dom = TorusDomain(n=n, m=m)
    from .spaces import points_space
    net_pts = 1.0 * np.exp(2j * np.pi * net_dom.coords() / m)
    net_space = points_space(net_pts, 2.0)
    ident_net = np.arange(net_dom.points, dtype=np.int64)
    checks.append(coarse_obstruction_check(
        ident_net, net_space, n, m, 2.0, 2.0, 2.0, 1.0))
    four = two_point_space()
    worst = -math.inf
    worst_params = None
    for t in range(trials):
        vals = rng.integers(0, 2, size=net_dom.points)
        chk = coarse_obstruction_check(vals, four, n, m, 2.0, 2.0, 2.0, 1.0)
        if chk.lhs - chk.rhs > worst:
            worst = chk.lhs - chk.rhs
            worst_params = chk.params
    checks.append(make_check(
        "net-moduli-obstruction-worst",
        {**(worst_params or {}), "trials": trials, "seed": seed}, worst, 0.0))

    checks.append(grid_lower_bound_check(2, 4, 3, trials=10, seed=seed,
                                         adversarial_steps=5))
    checks.append(grid_lower_bound_check(2, 4, 3, trials=5, seed=seed + 1,
                                         target="l1-sqrt"))
    return checks


SUITES = {
    "harmonic": harmonic_suite,
    "cotype": cotype_suite,
    "smoothing": smoothing_suite,
    "embeddings": embeddings_suite,
}


def run_suite(name: str, seed: int | None = None,
              trials: int | None = None) -> list[InequalityCheck]:
    """Run one named suite (or all of them) with canonical ordering."""
    if name == "all":
        out = []
        for key in sorted(SUITES):
            out.extend(run_suite(key, seed=seed, trials=trials))
        return out
    if name not in SUITES:
        from .errors import UnknownCommandError
        raise UnknownCommandError(f"no verification suite named {name!r}")
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    if trials is not None:
        kwargs["trials"] = trials
    checks = SUITES[name](**kwargs)
    return sorted(checks, key=check_order)
