"""The shift-energy kernel against a shift-by-shift reference, bit for bit.

The reference below is the evaluation the kernel replaced: one
roll_values, one pairwise and one mean per shift, added up in shift
order. Every functional built on the kernel must return the same floats
(==, not approx), so searches take the same steps and reports keep
their bytes.
"""
import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotypelab import (
    GridFunction,
    NormTarget,
    TorusDomain,
    b_functionals,
    cotype_functionals,
    edge_sum_check,
    exhaustive_b,
    gamma_exhaustive_two_point,
    mod_inequality_check,
    random_two_point_mc,
    sign_patterns,
    torus_space,
    two_point_space,
)
from cotypelab import cotype, gridops, smoothing
from cotypelab.embeddings import _edge_activity, _edge_table
from cotypelab.errors import InvariantViolationError
from cotypelab.gridops import (
    family_table,
    mean_power,
    ordered_sum,
    shift_energy,
    shift_energy_batch,
    shift_table,
)
from shift_reference import axis_shift, roll_values, three_patterns

# ------------------------------------------------------------- reference


def ref_mean_dp(f, target, shift, p):
    """avg_x d(f(x + shift), f(x))^p by one roll."""
    shifted = roll_values(f.domain, f.values, shift)
    d = target.pairwise(shifted, f.values)
    return float(np.mean(d ** p)) if p != 1 else float(np.mean(d))


def ref_axis_sum(f, target, amount, p):
    total = 0.0
    for j in range(f.domain.n):
        total += ref_mean_dp(f, target, axis_shift(f.domain, j, amount), p)
    return total


def ref_pattern_sum(f, target, pats, p):
    total = 0.0
    for eps in pats:
        if np.any(eps):
            total += ref_mean_dp(f, target, eps, p)
    return total


def ref_sampled(f, target, p, n_samples, rng):
    n = f.domain.n
    weights = [comb(n, z) * 2 ** (n - z) / 3**n for z in range(n)]
    wsum = 0.0
    for w in weights:
        wsum += w
    alloc = [max(1, round(n_samples * w / wsum)) for w in weights]
    est = 0.0
    var = 0.0
    for z, (w, k) in enumerate(zip(weights, alloc)):
        vals = np.empty(k)
        for i in range(k):
            eps = np.zeros(n, dtype=np.int64)
            nonzero = rng.choice(n, size=n - z, replace=False)
            eps[nonzero] = rng.choice((-1, 1), size=n - z)
            vals[i] = ref_mean_dp(f, target, eps, p)
        est += w * float(vals.mean())
        if k > 1:
            var += w**2 * float(vals.var(ddof=1)) / k
    return est, math.sqrt(var)


def ref_cotype(f, target, p, q, budget):
    dom = f.domain
    n, m = dom.n, dom.m
    lhs = ref_axis_sum(f, target, m // 2, p)
    if 3**n * dom.points <= budget:
        rhs = ref_pattern_sum(f, target, three_patterns(n), p) / 3**n
        stderr = 0.0
    else:
        n_samples = max(n, int(budget // dom.points))
        rhs, stderr = ref_sampled(f, target, p, n_samples,
                                  np.random.default_rng(0))
    gamma = 0.0 if rhs <= 0 else \
        (lhs / (m**p * n ** (1.0 - p / q) * rhs)) ** (1.0 / p)
    return lhs, rhs, gamma, stderr


def ref_edge_activity(f, target):
    pats = sign_patterns(f.domain.n)
    acc = np.zeros(f.domain.points)
    for eps in pats:
        shifted = roll_values(f.domain, f.values, eps)
        acc += target.pairwise(shifted, f.values) ** 2
    return acc / len(pats)


# ------------------------------------------------------------ witnesses

CYCLE5 = torus_space(TorusDomain(n=1, m=5))


@st.composite
def witnesses(draw):
    """(f, target): points into a 5-cycle or a 2.5-gap pair, or vectors in l_r^d."""
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from((2, 4, 6) if n < 3 else (2, 4)))
    dom = TorusDomain(n=n, m=m)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(("cycle", "pair", "vector")))
    if kind == "vector":
        d = draw(st.integers(1, 3))
        values = (rng.standard_normal((dom.points, d))
                  + 1j * rng.standard_normal((dom.points, d)))
        target = NormTarget(p=draw(st.sampled_from((1.0, 2.0, 3.0))))
        return GridFunction.vector(dom, values), target
    space = CYCLE5 if kind == "cycle" else two_point_space(2.5)
    values = rng.integers(0, space.size, dom.points)
    return GridFunction.points(dom, values), space


P_VALUES = st.sampled_from((1.0, 1.5, 2.0))

# ------------------------------------------------------------ properties


@settings(max_examples=60, deadline=None)
@given(witnesses(), P_VALUES, st.booleans())
def test_cotype_functionals_bit_exact(wit, p, sampled):
    f, target = wit
    dom = f.domain
    # one budget short of exact enumeration forces the sampled mode
    budget = dom.points * (3**dom.n - 1) if sampled else 1 << 22
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cotype, "EPS_ENUM_BUDGET", budget)
        rep = cotype_functionals(f, target, p, 2.0)
    lhs, rhs, gamma, stderr = ref_cotype(f, target, p, 2.0, budget)
    assert rep.mode == ("sampled" if 3**dom.n * dom.points > budget
                        else "exact")
    assert (rep.lhs, rep.rhs_raw, rep.gamma_hat, rep.stderr) == \
        (lhs, rhs, gamma, stderr)


@settings(max_examples=40, deadline=None)
@given(witnesses(), st.sampled_from((2, 4, 6)))
def test_b_functionals_bit_exact(wit, ell):
    f, target = wit
    rep = b_functionals(f, target, ell)
    lhs = ref_axis_sum(f, target, ell, 2.0)
    rhs = ref_pattern_sum(f, target, sign_patterns(f.domain.n), 2.0) \
        / 2**f.domain.n
    b_hat = 0.0 if rhs <= 0 else math.sqrt(lhs / (ell**2 * f.domain.n * rhs))
    assert (rep.lhs, rep.b_hat) == (lhs, b_hat)
    assert rep.rhs_raw == (rhs if rhs > 0 else 0.0)


@settings(max_examples=40, deadline=None)
@given(witnesses(), st.integers(0, 2), st.integers(0, 2), P_VALUES)
def test_mod_and_edge_sum_checks_bit_exact(wit, a, half_r, p):
    f, target = wit
    n, m = f.domain.n, f.domain.m
    r = min(2 * half_r, m - 2)
    chk = mod_inequality_check(f, target, a, r)
    edge = ref_pattern_sum(f, target, sign_patterns(n), 2.0) / 2**n
    assert chk.lhs == ref_axis_sum(f, target, a * m + r, 2.0)
    assert chk.rhs == min(r**2, (m - r) ** 2) * n * edge

    chk = edge_sum_check(f, target, p)
    total = ref_pattern_sum(f, target, three_patterns(n), p)
    assert chk.lhs == ref_axis_sum(f, target, 1, p)
    assert chk.rhs == 3.0 * 2.0 ** (p - 1.0) * n * (total / 3**n)


@settings(max_examples=40, deadline=None)
@given(witnesses(), P_VALUES)
def test_edge_energy_and_activity_bit_exact(wit, p):
    f, target = wit
    pats = sign_patterns(f.domain.n)
    total = 0.0
    for eps in pats:
        shifted = roll_values(f.domain, f.values, eps)
        total += float(np.mean(target.pairwise(shifted, f.values) ** p))
    n = f.domain.n  # the smoothing memo's sign rows d(f(x+eps), f(x))
    rows = smoothing._witness(f, target, 1).distances()[n:n + 2**n]
    assert ordered_sum(mean_power(rows, p)) / 2**n == total / len(pats)
    np.testing.assert_array_equal(_edge_activity(_edge_table(f, target)),
                                  ref_edge_activity(f, target))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5),
       st.lists(st.lists(st.integers(-13, 13), min_size=3, max_size=3),
                min_size=1, max_size=6))
def test_shift_table_rows_are_rolled_indices(n, m, shifts):
    dom = TorusDomain(n=n, m=m)
    shifts = np.array(shifts)[:, :n]
    table = shift_table(dom, shifts)
    assert table.shape == (len(shifts), dom.points)
    assert table.dtype == np.int64 and not table.flags.writeable
    idx = np.arange(dom.points)
    for row, s in zip(table, shifts):
        np.testing.assert_array_equal(row, roll_values(dom, idx, s))


def modulus_shift_table(dom, shifts):
    """shift_table as it was built: an int64 (coords + shift) % m per axis."""
    s = np.asarray(shifts, dtype=np.int64).reshape(-1, dom.n)
    coords = dom.coords()
    table = np.zeros((len(s), dom.points), dtype=np.int64)
    for ax in range(dom.n):
        table *= dom.m
        table += (coords[:, ax] + s[:, ax, None]) % dom.m
    return table


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 5), (3, 6), (1, 127),
                                 (1, 128), (2, 130)])
def test_shift_table_matches_the_modulus_construction(n, m):
    # 2m = 254 fits uint8, 2m = 256 needs uint16; shifts are negative,
    # at least m and at least 2m
    rng = np.random.default_rng(n * m)
    shifts = np.vstack([rng.integers(-3 * m - 2, 3 * m + 3, (20, n)),
                        [[-m] * n, [m] * n, [2 * m] * n, [2 * m + 1] * n,
                         [-2 * m - 1] * n, [m - 1] * n]])
    dom = TorusDomain(n=n, m=m)
    table = shift_table(dom, shifts)
    assert table.dtype == np.int64
    np.testing.assert_array_equal(table, modulus_shift_table(dom, shifts))


# ----------------------------------------------------- ratio records
# The formulas each evaluation, search step and enumeration used before
# gamma_hat and b_hat shared one record: gamma_hat's ** (1/p) is libm pow,
# b_hat's square root is correctly rounded, and the two need not agree.


# The old formulas, where a value that is not finite (an overflowed ratio)
# now counts as degenerate, 0, like a zero edge energy.

def finite(value):
    return (value, False) if math.isfinite(value) else (0.0, True)


def old_gamma(lhs, rhs, n, m, p, q):
    if rhs <= 0.0:
        return 0.0, True
    weight = m**p * n ** (1.0 - p / q)
    return finite((lhs / (weight * rhs)) ** (1.0 / p))


def old_b(lhs, rhs, n, ell):
    if rhs <= 0.0:
        return 0.0, True
    return finite(math.sqrt(lhs / (ell**2 * n * rhs)))


SIDES = st.lists(st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=False)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=False))),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(SIDES, st.integers(1, 6), st.sampled_from((2, 4, 6, 10, 16)),
       st.sampled_from((1.0, 1.5, 2.0, 3.0)), st.sampled_from((2.0, 3.0, 4.0)))
def test_gamma_ratio_matches_the_old_formula(sides, n, m, p, q):
    q = max(p, q)
    ratio = cotype._gamma_ratio(n, m, p, q)
    for lhs, rhs in sides:
        assert ratio.value(lhs, rhs) == old_gamma(lhs, rhs, n, m, p, q)


@settings(max_examples=200, deadline=None)
@given(SIDES, st.integers(1, 6), st.sampled_from((2, 4, 6)),
       st.sampled_from((2, 4, 6, 8)))
def test_b_ratio_matches_the_old_formula_and_ceiling(sides, n, m, ell):
    # scale lhs so that both sides of the b_hat <= 1 ceiling occur
    sides = [(lhs * 1e-6 * ell**2 * n * 1.1, rhs) for lhs, rhs in sides]
    ratio = cotype._b_ratio(n, m, ell)
    ceiling = 1.0 + cotype.B_INVARIANT_TOL
    for lhs, rhs in sides:
        want = old_b(lhs, rhs, n, ell)
        if want[0] > ceiling:
            with pytest.raises(InvariantViolationError):
                ratio.value(lhs, rhs)
        else:
            assert ratio.value(lhs, rhs) == want


def test_ratio_roots_keep_their_rounding():
    # at n = 1, m = ell = 2, p = q = 2 both ratios are sqrt(lhs / (4 rhs)),
    # taken by pow for gamma_hat and by a square root for b_hat
    gamma, b = cotype._gamma_ratio(1, 2, 2.0, 2.0), cotype._b_ratio(1, 2, 2)
    rng = np.random.default_rng(0)
    apart = 0
    for lhs, rhs in rng.random((5000, 2)) + (0.0, 0.5):
        lhs, rhs = float(lhs), float(rhs)
        assert gamma.value(lhs, rhs) == old_gamma(lhs, rhs, 1, 2, 2.0, 2.0)
        assert b.value(lhs, rhs) == old_b(lhs, rhs, 1, 2)
        apart += old_gamma(lhs, rhs, 1, 2, 2.0, 2.0) != old_b(lhs, rhs, 1, 2)
    assert apart > 0  # the sweep reaches values where the roots round apart


# ------------------------------------------------------- tables, blocks


def test_family_table_layout_and_cache():
    dom = TorusDomain(n=2, m=6)
    table = family_table(dom, "edges", 3)
    assert family_table(TorusDomain(n=2, m=6), "edges", 3) is table
    pats = three_patterns(2)
    expect = [axis_shift(dom, 0, 3), axis_shift(dom, 1, 3)] + \
        [eps for eps in pats if np.any(eps)]
    np.testing.assert_array_equal(table, shift_table(dom, expect))
    np.testing.assert_array_equal(family_table(dom, "signs"),
                                  shift_table(dom, sign_patterns(2)))


def test_block_cap_does_not_change_values(monkeypatch):
    dom = TorusDomain(n=2, m=4)
    rng = np.random.default_rng(4)
    table = family_table(dom, "edges", 2)
    vecs = rng.standard_normal((5, dom.points, 3))
    pts = rng.integers(0, 5, (7, dom.points))
    norm, cyc = NormTarget(p=2.0), CYCLE5
    whole_v = shift_energy_batch(vecs, norm, table, 1.5)
    whole_p = shift_energy_batch(pts, cyc, table, 2.0)
    for cap in (1, 17, 48, 200):
        monkeypatch.setattr(gridops, "SHIFT_BLOCK_ELEMENTS", cap)
        np.testing.assert_array_equal(
            shift_energy_batch(vecs, norm, table, 1.5), whole_v)
        np.testing.assert_array_equal(
            shift_energy_batch(pts, cyc, table, 2.0), whole_p)
    for w in range(len(pts)):
        np.testing.assert_array_equal(shift_energy(pts[w], cyc, table, 2.0),
                                      whole_p[w])


# ------------------------------------------------- batched enumerators


def _two_point_gamma_ref(n, m, p, q):
    dom = TorusDomain(n=n, m=m)
    target = two_point_space()
    best = None
    for idx in range(2**dom.points):
        bits = (idx >> np.arange(dom.points)) & 1
        f = GridFunction.points(dom, bits)
        lhs, rhs, gamma, _ = ref_cotype(f, target, p, q, 1 << 22)
        if best is None or gamma > best[2]:
            best = (lhs, rhs, gamma, list(bits))
    return best


def test_exhaustive_two_point_matches_reference():
    for n, m in ((1, 2), (1, 4), (2, 2), (1, 6)):
        for p, q in ((1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (2.0, 4.0)):
            rep = gamma_exhaustive_two_point(n, m, p, q)
            lhs, rhs, gamma, bits = _two_point_gamma_ref(n, m, p, q)
            assert (rep.lhs, rep.rhs_raw, rep.gamma_hat) == (lhs, rhs, gamma)
            assert list(rep.witness.values) == bits


def test_exhaustive_b_matches_reference():
    for n, ell, m in ((1, 2, 4), (2, 2, 2), (1, 2, 6)):
        dom = TorusDomain(n=n, m=m)
        for space in (two_point_space(), CYCLE5):
            rep = exhaustive_b(space, n, ell, m)
            best = None
            for idx in range(space.size**dom.points):
                if space.size == 2:  # bit tables: point 0 is the lowest bit
                    digits = [(idx >> k) & 1 for k in range(dom.points)]
                else:  # mixed radix: point 0 is the highest digit
                    digits = [(idx // space.size**k) % space.size
                              for k in range(dom.points - 1, -1, -1)]
                f = GridFunction.points(dom, digits)
                lhs = ref_axis_sum(f, space, ell, 2.0)
                rhs = ref_pattern_sum(f, space, sign_patterns(n), 2.0) / 2**n
                # a degenerate witness ranks below a zero value
                b_hat = math.sqrt(lhs / (ell**2 * n * rhs)) if rhs > 0 else -math.inf
                if best is None or b_hat > best:
                    best, at = b_hat, (lhs, rhs, digits)
            assert (rep.b_hat, rep.lhs, rep.rhs_raw) == (best, at[0], at[1])
            assert list(rep.witness.values) == at[2]


def test_random_two_point_mc_matches_reference(monkeypatch):
    n, m, trials, seed = 2, 4, 300, 9
    dom = TorusDomain(n=n, m=m)
    target = two_point_space()
    rng = np.random.default_rng(seed)
    L, R = [], []
    done = 0
    while done < trials:  # the same draws as the function, 128 per chunk
        k = min(128, trials - done)
        bits = rng.integers(0, 2, size=(k, dom.points), dtype=np.int64)
        for row in bits:
            f = GridFunction.points(dom, row)
            L.append(ref_axis_sum(f, target, m // 2, 1.0))
            R.append(ref_pattern_sum(f, target, three_patterns(n), 1.0) / 3**n)
        done += k
    monkeypatch.setattr(cotype, "WITNESS_CHUNK", 128)
    out = random_two_point_mc(n, m, 2.0, 2.0, trials, seed)
    weight = m**2.0 * n ** 0.0
    gamma_mc = (float(np.mean(L)) / (weight * float(np.mean(R)))) ** 0.5
    assert out["gamma_mc"] == gamma_mc
    assert out["degenerate_count"] == sum(r <= 0 for r in R)
