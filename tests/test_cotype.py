import math
from dataclasses import replace

import numpy as np
import pytest

from cotypelab import (
    BudgetExceededError,
    FiniteMetricSpace,
    GridFunction,
    NormTarget,
    NotFoundError,
    OddEllError,
    OddMError,
    PreconditionViolationError,
    TorusDomain,
    b_functionals,
    b_quantity_search,
    check_lemma_approx,
    check_lemma_cancellation,
    contraction_principle_check,
    contraction_rhs_bound,
    cotype_functionals,
    edge_sum_check,
    exhaustive_b,
    expected_random_gamma,
    extract_grid,
    gamma_exhaustive_two_point,
    gamma_hilbert_exact,
    gamma_search,
    grid_distortion_bound,
    hilbert_gamma_power_iteration,
    linear_exponential_witness,
    m_parameter_experiment,
    mod_inequality_check,
    random_two_point_mc,
    shift_growth_bound,
    tensor_submultiplicativity_check,
    torus_space,
    two_point_space,
)

from cotypelab import cotype, spaces
from hilbert_reference import gamma_hilbert_scan

SQ2 = math.sqrt(2.0)

# exact maxima over all two-point witnesses, frozen after independent
# brute-force recomputation
TWO_POINT_MAXIMA = {
    (1, 2): 0.6123724356957945,
    (1, 4): 0.4330127018922193,
    (2, 2): 1.0606601717798212,
    (2, 4): 0.5303300858899106,
    (1, 6): 0.3535533905932738,
}


def rand_points(dom, size, seed):
    rng = np.random.default_rng(seed)
    return GridFunction.points(dom, rng.integers(0, size, size=dom.points))


class TestCotypeFunctionals:
    def test_constant_witness_is_degenerate(self):
        dom = TorusDomain(n=2, m=4)
        f = GridFunction.points(dom, np.zeros(16, dtype=np.int64))
        rep = cotype_functionals(f, two_point_space(), 2.0, 2.0)
        assert rep.degenerate
        assert rep.gamma_hat == 0.0 and rep.lhs == 0.0

    def test_exponential_witness_lhs_exact(self):
        # half-circumference shifts negate every phase, so each term is
        # ||2 f_j||^p summed over coordinates
        V = np.array([[1.0, 0.0], [0.5, 0.25]])
        f = linear_exponential_witness(V, 8)
        rep = cotype_functionals(f, NormTarget(p=2.0), 2.0, 2.0)
        want = 4.0 * float((np.abs(V) ** 2).sum())
        assert rep.lhs == pytest.approx(want, rel=1e-12)
        assert rep.mode == "exact"

    def test_metric_and_norm_targets_agree(self):
        dom = TorusDomain(n=1, m=6)
        vals = np.array([0, 1, 1, 0, 1, 0])
        f_pts = GridFunction.points(dom, vals)
        f_vec = GridFunction.vector(dom, vals[:, None].astype(complex) * 2.5)
        a = cotype_functionals(f_pts, two_point_space(2.5), 2.0, 4.0)
        b = cotype_functionals(f_vec, NormTarget(p=2.0), 2.0, 4.0)
        assert a.gamma_hat == pytest.approx(b.gamma_hat, rel=1e-12)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12)

    def test_parameter_validation(self):
        dom = TorusDomain(n=1, m=5)
        f = GridFunction.points(dom, np.arange(5) % 2)
        with pytest.raises(OddMError):
            cotype_functionals(f, two_point_space(), 2.0, 2.0)
        dom = TorusDomain(n=1, m=4)
        f = GridFunction.points(dom, np.arange(4) % 2)
        with pytest.raises(PreconditionViolationError):
            cotype_functionals(f, two_point_space(), 0.5, 2.0)
        with pytest.raises(PreconditionViolationError):
            cotype_functionals(f, two_point_space(), 3.0, 2.0)

    def test_sampled_mode_tracks_exact(self, monkeypatch):
        dom = TorusDomain(n=3, m=4)
        f = rand_points(dom, 2, seed=21)
        exact = cotype_functionals(f, two_point_space(), 2.0, 2.0)
        assert exact.mode == "exact"
        monkeypatch.setattr(cotype, "EPS_ENUM_BUDGET", 1000)
        est = cotype_functionals(f, two_point_space(), 2.0, 2.0)
        assert est.mode == "sampled"
        assert est.stderr > 0.0
        # a seed and a budget are a search's; the eps draws are seeded with 0
        assert est.seed is None and est.budget is None
        assert abs(est.rhs_raw - exact.rhs_raw) <= 5 * est.stderr
        # same witness, same estimate
        again = cotype_functionals(f, two_point_space(), 2.0, 2.0)
        assert again.rhs_raw == est.rhs_raw

    def test_an_overflowed_value_is_degenerate(self):
        # a (2, 6) vector witness scaled by 1e200: both sides overflow to
        # inf and their ratio is NaN, which is no value
        rng = np.random.default_rng(506201)
        values = rng.standard_normal((36, 2)) + 1j * rng.standard_normal((36, 2))
        f = GridFunction.vector(TorusDomain(n=2, m=6), 1e200 * values)
        with np.errstate(over="ignore"):
            rep = cotype_functionals(f, NormTarget(p=2.0), 2.0, 2.0)
            b_rep = b_functionals(f, NormTarget(p=2.0), 2)
        assert math.isinf(rep.lhs) and math.isinf(rep.rhs_raw)
        assert rep.degenerate and rep.gamma_hat == 0.0
        assert b_rep.degenerate and b_rep.b_hat == 0.0
        for ratio in (cotype._gamma_ratio(2, 6, 2.0, 2.0), cotype._b_ratio(2, 6, 2)):
            for lhs, rhs in ((math.inf, math.inf), (math.inf, 1.0), (math.nan, 1.0)):
                assert ratio.value(lhs, rhs) == (0.0, True)

    def test_report_serialization(self):
        dom = TorusDomain(n=1, m=4)
        f = GridFunction.points(dom, np.array([0, 1, 0, 1]))
        d = cotype_functionals(f, two_point_space(), 2.0, 2.0).to_json_dict()
        assert d["mode"] == "exact"
        assert set(d) >= {"n", "m", "p", "q", "lhs", "rhs_raw", "gamma_hat"}


def spelled_out_json(report, keys) -> dict:
    """The reports' serializer as each once spelled it out: its own keys,
    then seed, budget and a point witness, each where set."""
    out = {key: getattr(report, key) for key in keys}
    if report.seed is not None:
        out["seed"] = report.seed
    if report.budget is not None:
        out["budget"] = report.budget
    if report.witness is not None and not report.witness.is_vector:
        out["witness"] = [int(v) for v in report.witness.values]
    return out


@pytest.mark.parametrize("seed,budget", [(None, None), (0, None), (None, 1),
                                         (7, 400)])
@pytest.mark.parametrize("witness", ["absent", "point", "vector"])
def test_reports_serialize_their_fields_as_the_spelled_out_keys(seed, budget,
                                                                witness):
    dom, sp = TorusDomain(n=1, m=4), two_point_space()
    f = GridFunction.points(dom, [0, 1, 1, 0])
    w = {"absent": None, "point": f,
         "vector": GridFunction.vector(dom, np.arange(4.0))}[witness]
    for report, keys in (
            (cotype_functionals(f, sp, 2.0, 2.0), ("n", "m", "p", "q", "lhs", "rhs_raw",
                                                   "gamma_hat", "degenerate", "mode",
                                                   "stderr")),
            (b_functionals(f, sp, 2), ("n", "m", "ell", "lhs", "rhs_raw", "b_hat",
                                       "degenerate", "mode"))):
        report = replace(report, seed=seed, budget=budget, witness=w)
        got, want = report.to_json_dict(), spelled_out_json(report, keys)
        assert list(got.items()) == list(want.items())
        assert ("witness" in got) == (witness == "point")
        if witness == "point":
            assert [type(v) for v in got["witness"]] == [int] * 4


class TestHilbertExact:
    def test_closed_forms(self):
        g14, k14 = gamma_hilbert_exact(1, 4)
        assert g14 == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-12)
        assert k14 == (1,)
        g24, k24 = gamma_hilbert_exact(2, 4)
        assert g24 == pytest.approx(3.0 / (4.0 * SQ2), rel=1e-12)
        assert k24 == (1, 1)
        g16, _ = gamma_hilbert_exact(1, 6)
        assert g16 == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(OddMError):
            gamma_hilbert_exact(2, 5)
        with pytest.raises(PreconditionViolationError):
            gamma_hilbert_exact(0, 4)

    def test_closed_form_is_the_scan_bit_for_bit_on_a_grid(self):
        # every n <= 8 and even m <= 64 whose scan has at most 30,000
        # multisets: the whole block holds about 450 million
        cells = [(n, m) for n in range(1, 9) for m in range(2, 65, 2)
                 if math.comb(m // 2 + n, n) <= 30_000]
        assert len(cells) == 171
        for n, m in cells:
            got = gamma_hilbert_exact(n, m)
            assert got == gamma_hilbert_scan(n, m), (n, m)
            assert got[1] == (1,) * n

    @pytest.mark.parametrize("n,m", [(1, 10**5), (2, 2000), (3, 400), (6, 64)])
    def test_closed_form_is_the_scan_bit_for_bit_at_large_cells(self, n, m):
        assert gamma_hilbert_exact(n, m) == gamma_hilbert_scan(n, m)

    @pytest.mark.parametrize("n,m", [(1, 4), (2, 4), (1, 6), (2, 6), (3, 4),
                                     (2, 8), (3, 6)])
    def test_power_iteration_oracle_agrees(self, n, m):
        exact, _ = gamma_hilbert_exact(n, m)
        assert abs(hilbert_gamma_power_iteration(n, m) - exact) <= 1e-9

    def test_ceiling_on_divisible_m(self):
        # once m is a multiple of 4 and large against sqrt(n), the exact
        # constant stays below sqrt(6)/pi
        ceiling = math.sqrt(6.0) / math.pi
        for n, m in [(1, 4), (2, 4), (2, 8), (3, 8)]:
            if m % 4 == 0 and m >= (2.0 / 3.0) * math.pi * math.sqrt(n):
                g, _ = gamma_hilbert_exact(n, m)
                assert g <= ceiling + 1e-12

    def test_oracle_guards(self):
        with pytest.raises(OddMError):
            hilbert_gamma_power_iteration(1, 5)
        with pytest.raises(BudgetExceededError):
            hilbert_gamma_power_iteration(4, 10)


class TestTwoPointExhaustive:
    @pytest.mark.parametrize("cell,want", sorted(TWO_POINT_MAXIMA.items()))
    def test_frozen_maxima(self, cell, want):
        n, m = cell
        rep = gamma_exhaustive_two_point(n, m, 2.0, 2.0)
        assert rep.gamma_hat == pytest.approx(want, rel=1e-12)
        assert rep.mode == "exact"

    @pytest.mark.parametrize("n,m", [(1, m) for m in range(2, 17, 2)]
                             + [(2, 2), (2, 4), (3, 2), (4, 2)])
    def test_reports_the_value_of_its_witness(self, n, m):
        # every cell with 2^(m^n) <= 2^16: the maximum's value is powered
        # as cotype_functionals powers it (numpy's x ** (1/p) put the
        # (3, 2, 1.5, 2) maximum one bit away)
        for p, q in ((1, 1), (1, 2), (1.5, 2), (2, 2), (2, 3), (2, 4)):
            rep = gamma_exhaustive_two_point(n, m, p, q)
            again = cotype_functionals(rep.witness, two_point_space(), p, q)
            assert (rep.gamma_hat, rep.lhs, rep.rhs_raw) == \
                (again.gamma_hat, again.lhs, again.rhs_raw)

    def test_witness_reaches_reported_value(self):
        rep = gamma_exhaustive_two_point(1, 4, 2.0, 2.0)
        again = cotype_functionals(rep.witness, two_point_space(), 2.0, 2.0)
        assert again.gamma_hat == pytest.approx(rep.gamma_hat, rel=1e-12)

    def test_matches_hilbert_at_small_cells(self):
        # the best cut witness reproduces the Hilbert constant here
        for n, m in [(1, 4), (2, 4)]:
            g, _ = gamma_hilbert_exact(n, m)
            assert gamma_exhaustive_two_point(n, m, 2.0, 2.0).gamma_hat == \
                pytest.approx(g, rel=1e-9)

    def test_guards(self, budget_boundary):
        with pytest.raises(OddMError):
            gamma_exhaustive_two_point(1, 3, 2.0, 2.0)
        # 36 points: 2^36 witnesses pass the default budget, and at that
        # budget half of them would take hours on bit planes
        with pytest.raises(BudgetExceededError, match="^2\\^36 witnesses exceed"):
            gamma_exhaustive_two_point(2, 6, 2.0, 2.0)
        with pytest.raises(BudgetExceededError, match="^68719476736 two-point"):
            gamma_exhaustive_two_point(2, 6, 2.0, 2.0, budget=2**36)
        with pytest.raises(BudgetExceededError):
            gamma_exhaustive_two_point(1, 16, 2.0, 2.0, budget=2**10)
        # an exact power of two at the caller's budget, then both thresholds
        gamma_exhaustive_two_point(1, 16, 2.0, 2.0, budget=2**16)
        with pytest.raises(BudgetExceededError, match="^2\\^16 witnesses exceed"):
            gamma_exhaustive_two_point(1, 16, 2.0, 2.0, budget=2**16 - 1)
        budget_boundary(lambda: gamma_exhaustive_two_point(1, 16, 2.0, 2.0),
                        "65536 two-point witnesses")


class TestRandomWitnesses:
    def test_formula_hand_value(self):
        # n=2, m=4: 2^(1/2) / (4 * (8/9)^(1/2)) = 3/8
        assert expected_random_gamma(2, 4, 2.0, 2.0) == pytest.approx(0.375,
                                                                      rel=1e-15)
        with pytest.raises(OddMError):
            expected_random_gamma(1, 3, 2.0, 2.0)

    def test_mc_within_stderr(self):
        out = random_two_point_mc(2, 4, 2.0, 2.0, trials=4000, seed=3)
        assert abs(out["gamma_mc"] - out["formula"]) <= 4 * out["stderr"]
        assert out["degenerate_count"] >= 0
        again = random_two_point_mc(2, 4, 2.0, 2.0, trials=4000, seed=3)
        assert out["gamma_mc"] == again["gamma_mc"]

    @pytest.mark.parametrize("trials", [-1, 0, 1])
    def test_mc_needs_two_trials(self, trials):
        # one trial has no sample variance, none has no mean
        with pytest.raises(PreconditionViolationError, match="trials >= 2"):
            random_two_point_mc(2, 4, 2.0, 2.0, trials=trials, seed=0)
        out = random_two_point_mc(2, 4, 2.0, 2.0, trials=2, seed=0)
        assert math.isfinite(out["stderr"])

    # seeds whose two draws are all constant (mean rhs_raw 0), or have
    # mean lhs 0 with one draw constant; the delta method divides by both
    @pytest.mark.parametrize("m,seed,degenerate", [(2, 4, 2), (4, 15, 2),
                                                   (4, 38, 1)])
    def test_mc_with_a_zero_mean_side(self, m, seed, degenerate):
        out = random_two_point_mc(1, m, 2.0, 2.0, trials=2, seed=seed)
        assert out["gamma_mc"] == out["stderr"] == 0.0
        assert out["degenerate_count"] == degenerate
        assert out["formula"] == expected_random_gamma(1, m, 2.0, 2.0)


class TestBQuantity:
    def test_identity_witness_achieves_one(self):
        # on the cycle, shifting by ell costs exactly ell word steps
        dom = TorusDomain(n=1, m=8)
        sp = torus_space(dom)
        f = GridFunction.points(dom, np.arange(8))
        rep = b_functionals(f, sp, 2)
        assert rep.b_hat == pytest.approx(1.0, rel=1e-12)
        assert not rep.degenerate

    def test_frozen_two_point_maximum(self):
        rep = exhaustive_b(two_point_space(), 1, 2, 4)
        assert rep.b_hat == pytest.approx(1.0 / SQ2, rel=1e-12)
        again = b_functionals(rep.witness, two_point_space(), 2)
        assert again.b_hat == pytest.approx(rep.b_hat, rel=1e-12)

    @pytest.mark.parametrize("n,ell,m", [(1, 2, 4), (1, 2, 8), (2, 2, 4),
                                         (1, 4, 8)])
    def test_never_exceeds_one(self, n, ell, m):
        rep = exhaustive_b(two_point_space(), n, ell, m)
        assert rep.b_hat <= 1.0 + 1e-9

    def test_guards(self):
        dom = TorusDomain(n=1, m=4)
        f = GridFunction.points(dom, np.array([0, 1, 0, 1]))
        with pytest.raises(OddEllError):
            b_functionals(f, two_point_space(), 3)
        g = GridFunction.points(TorusDomain(n=1, m=5), np.zeros(5, dtype=int))
        with pytest.raises(OddMError):
            b_functionals(g, two_point_space(), 2)
        const = GridFunction.points(dom, np.zeros(4, dtype=int))
        rep = b_functionals(const, two_point_space(), 2)
        assert rep.degenerate and rep.b_hat == 0.0
        with pytest.raises(OddEllError):
            exhaustive_b(two_point_space(), 1, 3, 4)
        with pytest.raises(BudgetExceededError):
            exhaustive_b(two_point_space(), 1, 2, 16, budget=2**8)


class TestSearches:
    def test_gamma_search_dominates_seeded_witness(self):
        dom = TorusDomain(n=1, m=4)
        sp = torus_space(dom)
        ident = np.arange(4)
        base = cotype_functionals(GridFunction.points(dom, ident), sp,
                                  2.0, 2.0)
        rep = gamma_search(sp, 1, 4, 2.0, 2.0, budget=200, seed=0,
                           initial_witnesses=[ident])
        assert rep.gamma_hat >= base.gamma_hat - 1e-12
        assert rep.witness is not None

    def test_gamma_search_deterministic(self):
        sp = two_point_space()
        a = gamma_search(sp, 2, 4, 2.0, 2.0, budget=300, seed=11)
        b = gamma_search(sp, 2, 4, 2.0, 2.0, budget=300, seed=11)
        assert a.gamma_hat == b.gamma_hat
        np.testing.assert_array_equal(a.witness.values, b.witness.values)

    def test_gamma_search_vs_exhaustive(self):
        # the climber can only report a lower bound for the true maximum
        sp = two_point_space()
        exact = gamma_exhaustive_two_point(2, 4, 2.0, 2.0).gamma_hat
        got = gamma_search(sp, 2, 4, 2.0, 2.0, budget=2000, seed=1).gamma_hat
        assert got <= exact + 1e-12

    def test_b_search_capped_at_one(self):
        sp = torus_space(TorusDomain(n=1, m=6))
        rep = b_quantity_search(sp, 2, 2, 6, budget=400, seed=2,
                                initial_witnesses=[np.arange(36) % 6])
        assert rep.b_hat <= 1.0 + 1e-9
        assert rep.witness is not None

    def test_all_degenerate_restarts_report_the_first_witness(self):
        # one constant start, no room to move: nothing scores above -inf
        rep = gamma_search(two_point_space(), 1, 2, 2, 2, 1, 0, [[0, 0]])
        assert rep.degenerate and rep.gamma_hat == 0.0
        assert rep.witness.values.tolist() == [0, 0]
        assert (rep.seed, rep.budget) == (0, 1)
        # a one-point codomain makes every witness degenerate
        one = FiniteMetricSpace(labels=("a",), dist=np.zeros((1, 1)))
        rep = b_quantity_search(one, 1, 2, 4, 50, 3)
        assert rep.degenerate and rep.b_hat == 0.0
        assert rep.witness.values.tolist() == [0, 0, 0, 0]
        assert (rep.seed, rep.budget) == (3, 50)
        rep = gamma_search(one, 2, 4, 2.0, 2.0, 50, 3)
        assert rep.degenerate and rep.witness.values.tolist() == [0] * 16

    @pytest.mark.parametrize("budget", [0, -5])
    def test_searches_need_a_positive_budget(self, budget):
        sp = two_point_space()
        with pytest.raises(PreconditionViolationError, match="budget"):
            gamma_search(sp, 1, 4, 2.0, 2.0, budget, 0)
        with pytest.raises(PreconditionViolationError, match="budget"):
            b_quantity_search(sp, 1, 2, 4, budget, 0)


class TestModInequality:
    def test_even_r_passes_on_random_witnesses(self):
        rng = np.random.default_rng(8)
        dom = TorusDomain(n=2, m=6)
        for _ in range(10):
            f = GridFunction.points(dom, rng.integers(0, 2, size=36))
            for a, r in [(0, 2), (1, 0), (0, 4), (2, 2)]:
                chk = mod_inequality_check(f, two_point_space(), a, r)
                assert chk.passed, (a, r, chk.slack)

    def test_shift_reduces_mod_m(self):
        dom = TorusDomain(n=1, m=4)
        f = GridFunction.points(dom, np.array([0, 1, 1, 0]))
        c0 = mod_inequality_check(f, two_point_space(), 0, 2)
        c1 = mod_inequality_check(f, two_point_space(), 1, 2)
        assert c0.lhs == c1.lhs  # a m + r wraps back to r

    def test_odd_r_rejected_and_genuinely_false(self):
        dom = TorusDomain(n=2, m=4)
        vals = (dom.coords()[:, 0] - dom.coords()[:, 1]) % 2
        f = GridFunction.points(dom, vals)
        with pytest.raises(PreconditionViolationError):
            mod_inequality_check(f, two_point_space(), 0, 1)
        # the parity witness breaks the r=1 analogue by hand: every
        # single-axis step flips the value, every diagonal step fixes it
        sp = two_point_space()
        lhs = 0.0
        for j in range(2):
            e = np.zeros(2, dtype=int)
            e[j] = 1
            moved = (np.add(dom.coords(), e)[:, 0]
                     - np.add(dom.coords(), e)[:, 1]) % 2
            lhs += float(np.mean(sp.dist[vals, moved] ** 2))
        diag = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        edge = 0.0
        for e in diag:
            moved = ((dom.coords()[:, 0] + e[0])
                     - (dom.coords()[:, 1] + e[1])) % 2
            edge += float(np.mean(sp.dist[vals, moved] ** 2))
        edge /= len(diag)
        rhs = min(1, (4 - 1) ** 2) * 2 * edge
        assert lhs == 2.0 and rhs == 0.0  # inequality fails at odd r

    def test_other_guards(self):
        dom = TorusDomain(n=1, m=4)
        f = GridFunction.points(dom, np.array([0, 1, 1, 0]))
        with pytest.raises(PreconditionViolationError):
            mod_inequality_check(f, two_point_space(), -1, 2)
        with pytest.raises(PreconditionViolationError):
            mod_inequality_check(f, two_point_space(), 0, 6)
        g = GridFunction.points(TorusDomain(n=1, m=5), np.zeros(5, dtype=int))
        with pytest.raises(OddMError):
            mod_inequality_check(g, two_point_space(), 0, 2)


def test_edge_sum_check_random_and_guards():
    rng = np.random.default_rng(12)
    dom = TorusDomain(n=2, m=4)
    for p in (1.0, 2.0):
        f = GridFunction.points(dom, rng.integers(0, 3, size=16))
        sp = torus_space(TorusDomain(n=1, m=3))
        chk = edge_sum_check(f, sp, p)
        assert chk.passed
        assert chk.name == "edge-sum-bound"
        assert chk.params["p"] == p
    with pytest.raises(PreconditionViolationError):
        edge_sum_check(f, sp, 0.5)


class TestContractionPrinciple:
    def test_random_scalars_pass(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        a = rng.uniform(-1, 1, size=3)
        for p, normp in [(1.0, 1.0), (2.0, 2.0), (3.0, math.inf)]:
            chk = contraction_principle_check(X, a, p, NormTarget(p=normp))
            assert chk.passed

    def test_unit_scalars_give_equality(self):
        # flipping signs of the x_j permutes the sign patterns
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 3))
        chk = contraction_principle_check(X, [1, -1, 1, -1], 2.0,
                                          NormTarget(p=1.0))
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    def test_guards(self):
        X = np.eye(2)
        with pytest.raises(PreconditionViolationError):
            contraction_principle_check(X, [2.0, 0.0], 2.0, NormTarget(p=2.0))
        with pytest.raises(PreconditionViolationError):
            contraction_principle_check(X, [0.5], 2.0, NormTarget(p=2.0))
        with pytest.raises(PreconditionViolationError):
            contraction_principle_check(X, [0.5, 0.5], 0.5, NormTarget(p=2.0))
        with pytest.raises(BudgetExceededError):
            contraction_principle_check(np.eye(21), np.ones(21), 2.0,
                                        NormTarget(p=2.0))


def test_exponential_witness_contraction_bound():
    rng = np.random.default_rng(6)
    V = rng.standard_normal((2, 3))
    m, p = 8, 2.0
    norm = NormTarget(p=2.0)
    f = linear_exponential_witness(V, m)
    rep = cotype_functionals(f, norm, p, 2.0)
    assert rep.rhs_raw <= contraction_rhs_bound(V, m, p, norm) + 1e-12
    with pytest.raises(OddMError):
        linear_exponential_witness(V, 5)
    with pytest.raises(PreconditionViolationError):
        linear_exponential_witness(np.zeros(3), 4)


def test_contraction_rhs_bound_refuses_n_over_20(monkeypatch, budget_estimate):
    def no_patterns(n):
        raise AssertionError(f"2^{n} sign patterns built before the guard")

    def rhs(n):
        return contraction_rhs_bound(np.ones((n, 1)), 8, 2.0, NormTarget(p=2.0))

    nbytes, _ = budget_estimate(lambda: rhs(12), "a sum over 4096 sign patterns")
    monkeypatch.setattr(cotype, "sign_patterns", no_patterns)
    with pytest.raises(BudgetExceededError,
                       match="^a sum over 2097152 sign patterns needs"):
        rhs(21)  # 1.27 GB of patterns, sums and norms
    monkeypatch.setattr(spaces, "MEMORY_BUDGET", nbytes - 1)
    with pytest.raises(BudgetExceededError, match="^a sum over 4096 sign"):
        rhs(12)


@pytest.mark.parametrize("call", [
    lambda t: gamma_search(t, 1, 4, 2.0, 2.0, 10, 0),
    lambda t: b_quantity_search(t, 1, 2, 4, 10, 0),
    lambda t: exhaustive_b(t, 1, 2, 4),
    lambda t: tensor_submultiplicativity_check(t, 1, 1, 2, 2, 4),
], ids=["gamma_search", "b_quantity_search", "exhaustive_b",
        "tensor_submultiplicativity_check"])
def test_searches_and_enumerations_refuse_a_norm_target(call):
    # each took NormTarget(2.0) for a space and failed on its missing .size
    with pytest.raises(PreconditionViolationError, match="^maxima over maps "
                       "need a finite metric space, not NormTarget$"):
        call(NormTarget(2.0))


class TestTensorSubmultiplicativity:
    def test_exhaustive_cell(self):
        chk = tensor_submultiplicativity_check(two_point_space(), 1, 1, 2, 2,
                                               16)
        assert chk.passed
        assert chk.name == "b-tensor-submultiplicative"
        assert chk.params["mode"] == "exhaustive"

    def test_degenerate_full_shift(self):
        # s t = 0 mod m forces lhs = 0, so the bound holds trivially
        chk = tensor_submultiplicativity_check(two_point_space(), 2, 1, 2, 2,
                                               4)
        assert chk.passed and chk.lhs == 0.0

    def test_guards(self):
        sp = two_point_space()
        with pytest.raises(OddEllError):
            tensor_submultiplicativity_check(sp, 1, 1, 3, 2, 4)
        with pytest.raises(PreconditionViolationError):
            tensor_submultiplicativity_check(sp, 0, 1, 2, 2, 4)


def test_zero_shift_is_a_typed_error():
    # b_hat divides by ell^2, and 0 is even
    sp = two_point_space()
    f = GridFunction.points(TorusDomain(n=2, m=4), np.arange(16) % 2)
    for call in (lambda: b_functionals(f, sp, 0),
                 lambda: b_quantity_search(sp, 2, 0, 4, 10, 0),
                 lambda: exhaustive_b(sp, 1, 0, 4)):
        with pytest.raises(PreconditionViolationError, match="ell=0"):
            call()


@pytest.mark.parametrize("bad", [-1, 2])
def test_point_values_outside_the_codomain_are_refused(bad):
    sp = two_point_space()
    vals = [0, 1, bad, 0]
    f = GridFunction.points(TorusDomain(n=1, m=4), vals)
    for call in (lambda: gamma_search(sp, 1, 4, 2, 2, 1, 0, [vals]),
                 lambda: b_quantity_search(sp, 1, 2, 4, 1, 0, [vals]),
                 # 2^4 maps fit a budget of 16: enumerated, the starts checked
                 lambda: gamma_search(sp, 1, 4, 2, 2, 16, 0, [vals]),
                 lambda: b_quantity_search(sp, 1, 2, 4, 16, 0, [vals]),
                 lambda: cotype_functionals(f, sp, 2, 2),
                 lambda: b_functionals(f, sp, 2),
                 # -1 would wrap to the last point, K be a bare IndexError
                 lambda: mod_inequality_check(f, sp, 0, 2),
                 lambda: edge_sum_check(f, sp, 2.0),
                 lambda: check_lemma_approx(f, sp, 0, 1, 2.0)):
        with pytest.raises(PreconditionViolationError,
                           match=f"value {bad} at point 2 is not a point index"):
            call()


WITNESS_ENTRIES = {
    "cotype_functionals": lambda f, c: cotype_functionals(f, c, 2, 2),
    "b_functionals": lambda f, c: b_functionals(f, c, 2),
    "mod_inequality_check": lambda f, c: mod_inequality_check(f, c, 0, 2),
    "edge_sum_check": lambda f, c: edge_sum_check(f, c, 2.0),
    "extract_grid": lambda f, c: extract_grid(f, c, 4),
    "check_lemma_approx": lambda f, c: check_lemma_approx(f, c, 0, 1, 2.0),
    "check_lemma_cancellation":
        lambda f, c: check_lemma_cancellation(f, c, 1, 2.0, [1, 1]),
}


@pytest.mark.parametrize("entry", sorted(WITNESS_ENTRIES))
@pytest.mark.parametrize("kind", ["points-into-norm", "vectors-into-space"])
def test_a_witness_of_the_wrong_kind_is_refused(entry, kind):
    # point values were measured as vector coordinates, and vectors read as
    # point indices raised a bare TypeError
    dom = TorusDomain(n=2, m=8)  # m >= 2s for extract_grid at s = 4
    if kind == "points-into-norm":
        f = GridFunction.points(dom, np.arange(dom.points) % 2)
        codomain = NormTarget(2.0)
    else:
        rng = np.random.default_rng(0)
        f = GridFunction.vector(dom, rng.normal(size=(dom.points, 2)))
        codomain = two_point_space()
    with pytest.raises(PreconditionViolationError):
        WITNESS_ENTRIES[entry](f, codomain)


def test_fallback_climb_checks_the_point_range_once(monkeypatch):
    from cotypelab import cotype, targets
    from cotypelab.spaces import FiniteMetricSpace

    real, calls = targets.require_indices, []
    monkeypatch.setattr(targets, "require_indices", lambda values, size:
                        calls.append(len(values)) or real(values, size))
    # half-integer distances leave no exact shift sums: every climb step
    # evaluates the functionals, and only the reported witness is checked
    sp = FiniteMetricSpace(labels=("a", "b"), dist=np.array([[0, .5], [.5, 0]]))
    cotype.gamma_search(sp, 1, 4, 2, 2, 12, 0)
    cotype.b_quantity_search(sp, 1, 2, 4, 12, 0)
    assert calls == [4, 4]


class TestMParameterExperiment:
    def test_hilbert_scan(self):
        res = m_parameter_experiment(None, 2, 2.0, 2.0, 0.45, 10)
        assert res.found_m == 6
        assert res.mode == "exact"
        assert [m for m, _ in res.profile] == [2, 4, 6]
        assert res.profile[0][1] == pytest.approx(1.0606601717798212,
                                                  rel=1e-12)

    def test_returns_at_or_before_guaranteed_m(self):
        # a 4-divisible m >= (2/3) pi sqrt(n) always qualifies at the
        # ceiling, so the scan never needs to pass it
        for n in (1, 2, 3):
            guaranteed = 4
            while guaranteed < (2.0 / 3.0) * math.pi * math.sqrt(n):
                guaranteed += 4
            res = m_parameter_experiment(None, n, 2.0, 2.0,
                                         math.sqrt(6.0) / math.pi, 20)
            assert res.found_m <= guaranteed

    def test_two_point_auto_mode(self):
        res = m_parameter_experiment(two_point_space(), 1, 2.0, 2.0, 0.4, 16)
        assert res.found_m == 6
        assert res.mode == "exact"

    def test_search_mode_flags_lower_bound(self):
        # the found cell m = 2 has 3^2 maps into Z_3, one past the budget
        sp = torus_space(TorusDomain(n=1, m=3))
        res = m_parameter_experiment(sp, 1, 2.0, 2.0, 10.0, 4,
                                     budget=8, seed=0)
        assert res.found_m == 2
        assert res.mode == "lower-bound"
        # and 2^4 maps of Z_2^2 into a 2-point space
        res = m_parameter_experiment(two_point_space(), 2, 2.0, 2.0, 10.0, 6,
                                     budget=15, seed=0)
        assert res.mode == "lower-bound"

    def test_search_mode_flags_exact_when_the_found_cell_fits(self):
        sp = torus_space(TorusDomain(n=1, m=3))
        res = m_parameter_experiment(sp, 1, 2.0, 2.0, 10.0, 4,
                                     budget=9, seed=0)
        assert (res.found_m, res.mode) == (2, "exact")
        res = m_parameter_experiment(two_point_space(), 2, 2.0, 2.0, 10.0, 6,
                                     budget=16, seed=0)
        assert res.mode == "exact"
        assert res.profile == [(2, gamma_exhaustive_two_point(2, 2, 2.0, 2.0).gamma_hat)]

    def test_a_scan_climbs_past_its_budget(self):
        # at the default 2000 evaluations, m <= 10 enumerates 2^m maps and
        # m = 12 climbs; the found cell's flag is the lower bound's
        res = m_parameter_experiment(two_point_space(), 1, 2.0, 2.0, 0.26, 20)
        assert (res.found_m, res.mode) == (12, "lower-bound")
        assert res.profile[:5] == [
            (m, gamma_exhaustive_two_point(1, m, 2.0, 2.0).gamma_hat)
            for m in range(2, 12, 2)]

    def test_not_found_carries_profile(self):
        with pytest.raises(NotFoundError) as ei:
            m_parameter_experiment(None, 1, 2.0, 2.0, 0.01, 6)
        assert [m for m, _ in ei.value.profile] == [2, 4, 6]

    def test_mode_preconditions(self):
        # a norm target gets the exact Hilbert constant: p = q = 2 into l2
        with pytest.raises(PreconditionViolationError):
            m_parameter_experiment(None, 1, 2.0, 4.0, 0.5, 4)
        with pytest.raises(PreconditionViolationError):
            m_parameter_experiment(NormTarget(p=1.0), 1, 2.0, 2.0, 0.5, 4)
        res = m_parameter_experiment(NormTarget(p=2.0), 2, 2.0, 2.0, 0.45, 10)
        assert (res.found_m, res.mode) == (6, "exact")


def test_growth_and_distortion_bounds():
    # matching base cell makes the exponent 1
    assert shift_growth_bound(4, 4, 10) == pytest.approx(80.0)
    assert shift_growth_bound(2, 4, 3) == pytest.approx(8.0 * 3 ** 2.0)
    assert grid_distortion_bound(4, 2.0, 1.0) == pytest.approx(1.0)
    assert grid_distortion_bound(9, 2.0, 0.5) == pytest.approx(3.0)
    with pytest.raises(PreconditionViolationError):
        shift_growth_bound(1, 4, 10)
    with pytest.raises(PreconditionViolationError):
        grid_distortion_bound(4, 2.0, 0.0)
