import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotypelab import (
    EvenKError,
    GridFunction,
    KTooLargeError,
    NormTarget,
    PreconditionViolationError,
    TorusDomain,
    adversarial_approx_search,
    adversarial_cancellation_search,
    avg_others,
    check_lemma_approx,
    check_lemma_cancellation,
    check_lemma_cancellation_all,
    fourier_forward,
    fourier_inverse,
    scale_of,
    sign_patterns,
    smoothing_apply,
    smoothing_set,
    two_point_space,
    walsh_char,
)
from cotypelab import smoothing
from shift_reference import roll_values


def rand_vec(dom, d, seed):
    rng = np.random.default_rng(seed)
    return GridFunction.vector(dom, rng.standard_normal((dom.points, d))
                               + 1j * rng.standard_normal((dom.points, d)))


def test_smoothing_set_members_k1():
    # k = 1: the j-th offset must be 0, the others odd in {-1, 1}
    dom = TorusDomain(n=2, m=6)
    sset = smoothing_set(0, 1, dom)
    got = {tuple(row) for row in sset.members}
    assert got == {(0, -1), (0, 1)}
    assert sset.size == 2


@pytest.mark.parametrize("n,k,want", [
    (1, 1, 1),
    (1, 3, 3),
    (2, 3, 12),
    (3, 3, 48),
])
def test_smoothing_set_cardinality(n, k, want):
    dom = TorusDomain(n=n, m=8)
    assert smoothing_set(0, k, dom).size == want


def test_smoothing_set_validation():
    dom = TorusDomain(n=2, m=6)
    with pytest.raises(EvenKError):
        smoothing_set(0, 2, dom)
    with pytest.raises(EvenKError):
        smoothing_set(0, -1, dom)
    with pytest.raises(KTooLargeError):
        smoothing_set(0, 3, dom)  # 3 is not < 6/2
    with pytest.raises(PreconditionViolationError):
        smoothing_set(2, 1, dom)


def test_smoothing_apply_k1_matches_sign_average():
    dom = TorusDomain(n=2, m=8)
    f = rand_vec(dom, 2, seed=0)
    got = smoothing_apply(f, 0, 1)
    want = avg_others(f, 0)
    assert np.abs(got.values - want.values).max() < 1e-12


def enumerated_average(f, j, k):
    # reference: roll once per member of the index set, then divide
    sset = smoothing_set(j, k, f.domain)
    acc = np.zeros_like(f.values)
    for y in sset.members:
        acc += roll_values(f.domain, f.values, y)
    return acc / sset.size


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_smoothing_apply_matches_the_enumeration(data):
    n = data.draw(st.integers(1, 4), label="n")
    m = data.draw(st.sampled_from([4, 6, 8, 10] if n < 4 else [4, 6]),
                  label="m")
    k = data.draw(st.sampled_from(range(1, (m + 1) // 2, 2)), label="k")
    f = rand_vec(TorusDomain(n=n, m=m), 2,
                 seed=data.draw(st.integers(0, 2**16), label="seed"))
    tol = 64 * 2.0**-52 * scale_of(f)
    for j in range(n):
        got = smoothing_apply(f, j, k).values
        assert np.abs(got - enumerated_average(f, j, k)).max() <= tol


def test_smoothing_apply_fixes_constants():
    dom = TorusDomain(n=2, m=8)
    c = GridFunction.vector(dom, np.full((64, 1), 3.0 - 1j))
    out = smoothing_apply(c, 1, 3)
    assert np.abs(out.values - c.values).max() < 1e-12


def test_smoothing_apply_rejects_point_values():
    dom = TorusDomain(n=1, m=8)
    pts = GridFunction.points(dom, np.zeros(8, dtype=np.int64))
    with pytest.raises(PreconditionViolationError):
        smoothing_apply(pts, 0, 1)


def test_smoothing_is_a_spectral_multiplier():
    dom = TorusDomain(n=2, m=8)
    f = rand_vec(dom, 2, seed=1)
    j, k = 1, 3
    sset = smoothing_set(j, k, dom)
    co = fourier_forward(f)
    mult = np.array([sset.multiplier(freq, dom.m) for freq in dom.coords()])
    lifted = type(co)(domain=dom, coeffs=co.coeffs * mult[:, None])
    spectral = fourier_inverse(lifted)
    spatial = smoothing_apply(f, j, k)
    assert np.abs(spectral.values - spatial.values).max() < 1e-10


def test_multiplier_on_single_character():
    dom = TorusDomain(n=2, m=8)
    freq = np.array([1, 2])
    f = GridFunction.vector(dom, walsh_char(dom, freq)[:, None])
    j, k = 0, 3
    out = smoothing_apply(f, j, k)
    lam = smoothing_set(j, k, dom).multiplier(freq, dom.m)
    assert np.abs(out.values - lam * f.values).max() < 1e-12


CELLS = [(2, 6), (2, 8), (3, 6)]


@pytest.mark.parametrize("n,m", CELLS)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_approx_inequality_random_witnesses(n, m, k, p):
    if k >= m / 2:
        pytest.skip("window exceeds the operator domain")
    dom = TorusDomain(n=n, m=m)
    norm = NormTarget(p=2.0)
    for seed in range(3):
        f = rand_vec(dom, 2, seed=seed)
        for j in range(n):
            chk = check_lemma_approx(f, norm, j, k, p)
            assert chk.passed, (n, m, j, k, p, chk.slack)


def test_approx_inequality_metric_witness():
    dom = TorusDomain(n=2, m=8)
    rng = np.random.default_rng(2)
    f = GridFunction.points(dom, rng.integers(0, 2, size=dom.points))
    chk = check_lemma_approx(f, two_point_space(), 0, 3, 2.0)
    assert chk.passed
    assert chk.name == "smoothing-approximation"


def test_approx_inequality_guards():
    dom = TorusDomain(n=2, m=8)
    f = rand_vec(dom, 1, seed=3)
    with pytest.raises(PreconditionViolationError):
        check_lemma_approx(f, NormTarget(p=2.0), 0, 3, 0.5)
    with pytest.raises(KTooLargeError):
        check_lemma_approx(f, NormTarget(p=2.0), 0, 5, 2.0)
    # metric codomain cannot measure the smoothed average itself
    pts = GridFunction.points(dom, np.zeros(dom.points, dtype=np.int64))
    chk = check_lemma_approx(pts, two_point_space(), 0, 3, 2.0)
    assert chk.lhs == 0.0  # constant witness, trivially tight


@pytest.mark.parametrize("n,m", CELLS)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cancellation_inequality_random_witnesses(n, m, k, p):
    if k >= m / 2:
        pytest.skip("window exceeds the operator domain")
    dom = TorusDomain(n=n, m=m)
    norm = NormTarget(p=2.0)
    f = rand_vec(dom, 2, seed=n + m + k)
    eps = np.ones(n, dtype=np.int64)
    chk = check_lemma_cancellation(f, norm, k, p, eps)
    assert chk.passed, (n, m, k, p, chk.slack)


def test_cancellation_all_patterns_share_work():
    dom = TorusDomain(n=2, m=8)
    norm = NormTarget(p=2.0)
    f = rand_vec(dom, 2, seed=4)
    checks = check_lemma_cancellation_all(f, norm, 3, 2.0)
    assert len(checks) == 4
    assert all(c.passed for c in checks)
    pats = {c.params["eps"] for c in checks}
    assert pats == {"--", "-+", "+-", "++"}
    # the shared-work path must agree with the one-pattern path
    lone = check_lemma_cancellation(f, norm, 3, 2.0, [1, 1])
    match = next(c for c in checks if c.params["eps"] == "++")
    assert lone.lhs == match.lhs and lone.rhs == match.rhs


def test_cancellation_guards():
    dom = TorusDomain(n=2, m=8)
    f = rand_vec(dom, 1, seed=5)
    norm = NormTarget(p=2.0)
    with pytest.raises(PreconditionViolationError):
        check_lemma_cancellation(f, norm, 3, 2.0, [1, 0])
    with pytest.raises(PreconditionViolationError):
        check_lemma_cancellation(f, norm, 3, 2.0, [1])
    pts = GridFunction.points(dom, np.zeros(dom.points, dtype=np.int64))
    with pytest.raises(PreconditionViolationError):
        check_lemma_cancellation(pts, two_point_space(), 3, 2.0, [1, 1])
    with pytest.raises(PreconditionViolationError):
        check_lemma_cancellation(f, norm, 3, 0.9, [1, 1])


def test_a_sign_pattern_is_parsed_once_and_a_bad_one_raises_every_time():
    dom = TorusDomain(n=2, m=8)
    f = rand_vec(dom, 1, seed=5)
    norm = NormTarget(p=2.0)
    smoothing._sign_pattern.cache_clear()
    for eps in ([1, -1], (1, -1), np.array([1, -1]), np.array([1.0, -1.0])):
        assert check_lemma_cancellation(f, norm, 3, 2.0, eps).params["eps"] == "+-"
    assert smoothing._sign_pattern.cache_info().misses == 1
    # a wrong length, a zero, a scalar and rows, twice each
    for bad in ([1, 0], [1], [1, -1, 1], 1, [[1, -1]], np.array([[1], [-1]])) * 2:
        with pytest.raises(PreconditionViolationError,
                           match="^eps must be a full sign pattern of length 2$"):
            check_lemma_cancellation(f, norm, 3, 2.0, bad)


def test_adversarial_searches_stay_negative():
    norm = NormTarget(p=2.0)
    chk = adversarial_approx_search(2, 8, 0, 3, 2.0, norm, steps=40, seed=6)
    assert chk.passed
    assert chk.lhs < chk.rhs
    chk = adversarial_cancellation_search(2, 8, 3, 2.0, [1, -1], norm,
                                          steps=40, seed=7)
    assert chk.passed
    assert chk.lhs < chk.rhs


def test_adversarial_search_deterministic():
    norm = NormTarget(p=2.0)
    a = adversarial_approx_search(2, 6, 1, 1, 2.0, norm, steps=25, seed=8)
    b = adversarial_approx_search(2, 6, 1, 1, 2.0, norm, steps=25, seed=8)
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_sign_patterns_cover_cancellation_params():
    assert len(sign_patterns(3)) == 8
