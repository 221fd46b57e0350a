import numpy as np
import pytest

from cotypelab import (
    BudgetExceededError,
    CotypeLabError,
    DimensionMismatchError,
    GridFunction,
    NonFiniteValuesError,
    PreconditionViolationError,
    TorusDomain,
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
from cotypelab.harmonic import _direct_transform
from shift_reference import axis_shift, roll_values


def character(domain, k):
    return GridFunction.vector(domain, walsh_char(domain, k)[:, None])


def random_vector(domain, d, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((domain.points, d)) \
        + 1j * rng.standard_normal((domain.points, d))
    return GridFunction.vector(domain, vals)


def test_walsh_char_values():
    dom = TorusDomain(n=1, m=4)
    np.testing.assert_allclose(walsh_char(dom, [0]), np.ones(4))
    assert walsh_char(dom, [1])[1] == pytest.approx(1j)
    assert walsh_char(dom, [1])[2] == pytest.approx(-1)
    # frequencies reduce mod m
    np.testing.assert_allclose(walsh_char(dom, [5]), walsh_char(dom, [1]))
    with pytest.raises(DimensionMismatchError):
        walsh_char(dom, [1, 2])


def test_walsh_char_orthogonality():
    dom = TorusDomain(n=2, m=3)
    chars = np.stack([walsh_char(dom, k) for k in dom.coords()])
    gram = chars @ chars.conj().T / dom.points
    np.testing.assert_allclose(gram, np.eye(dom.points), atol=1e-12)


def test_transform_of_constant_and_character():
    dom = TorusDomain(n=2, m=4)
    const = GridFunction.vector(dom, np.full((16, 1), 2.0 + 0j))
    co = fourier_forward(const)
    assert co.coeffs[0][0] == pytest.approx(2.0)
    assert np.abs(np.delete(co.coeffs, 0, axis=0)).max() < 1e-12

    f = character(dom, [1, 3])
    co = fourier_forward(f)
    k = np.ravel_multi_index((1, 3), dom.shape)
    assert co.coeffs[k][0] == pytest.approx(1.0)
    mask = np.ones(16, dtype=bool)
    mask[k] = False
    assert np.abs(co.coeffs[mask]).max() < 1e-12


def test_transform_two_paths_agree():
    # the FFT against the reference double sum, both ways round
    for n, m in [(1, 8), (2, 6), (3, 4), (2, 32)]:
        dom = TorusDomain(n=n, m=m)
        f = random_vector(dom, 3, seed=n * m)
        tol = 1e-10 * scale_of(f)
        oracle = _direct_transform(dom, f.values, -1.0) / dom.points
        co = fourier_forward(f)
        assert np.abs(co.coeffs - oracle).max() <= tol
        back = _direct_transform(dom, co.coeffs, +1.0)
        assert np.abs(fourier_inverse(co).values - back).max() <= tol
        assert np.abs(back - f.values).max() <= tol


def test_roundtrip_and_parseval():
    dom = TorusDomain(n=3, m=4)
    f = random_vector(dom, 2, seed=2)
    assert roundtrip_residual(f) < 1e-12
    assert parseval_residual(f) < 1e-12
    back = fourier_inverse(fourier_forward(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def two_path_residual(f, op, symbol):
    # apply the operator pointwise, then again through its symbol
    spatial = op(f)
    co = fourier_forward(f)
    lifted = type(co)(domain=co.domain, coeffs=co.coeffs * symbol[:, None])
    spectral = fourier_inverse(lifted)
    return np.abs(spatial.values - spectral.values).max()


def test_central_diff_symbol_cases():
    dom = TorusDomain(n=1, m=4)
    f = character(dom, [1])
    got = central_diff(f, 0)
    # symbol at k=1, m=4 is 2i sin(pi/2) = 2i
    np.testing.assert_allclose(got.values, 2j * f.values, atol=1e-12)
    half = character(dom, [2])  # sin(pi) = 0
    assert np.abs(central_diff(half, 0).values).max() < 1e-12


def test_avg_others_cases():
    dom1 = TorusDomain(n=1, m=5)
    f = random_vector(dom1, 2, seed=3)
    # no other axes to average over
    np.testing.assert_array_equal(avg_others(f, 0).values, f.values)

    dom2 = TorusDomain(n=2, m=4)
    g = character(dom2, [1, 1])  # cos(pi/2) = 0 along the other axis
    assert np.abs(avg_others(g, 0).values).max() < 1e-12
    with pytest.raises(IndexError):
        avg_others(g, 2)


def test_avg_others_keeps_the_half_sum_bits():
    # reference: per-axis half-sums 0.5 * (f(x + e) + f(x - e)), bit for bit;
    # a table of -0 + i entries also pins the sign of each zero
    for n, m in [(1, 4), (2, 6), (3, 5), (4, 4)]:
        dom = TorusDomain(n=n, m=m)
        signed_zero = np.full((dom.points, 2), complex(-0.0, 1.0))
        for f in (random_vector(dom, 2, seed=n + m),
                  GridFunction.vector(dom, signed_zero)):
            for j in range(n):
                vals = f.values
                for axis in range(n):
                    if axis != j:
                        e = axis_shift(dom, axis)
                        vals = 0.5 * (roll_values(dom, vals, e)
                                      + roll_values(dom, vals, -e))
                got = avg_others(f, j).values
                assert (got == vals).all()
                assert got.tobytes() == vals.tobytes()


def test_edge_diff_validation():
    dom = TorusDomain(n=2, m=4)
    f = random_vector(dom, 1, seed=4)
    const = GridFunction.vector(dom, np.ones((16, 1), dtype=complex))
    assert np.abs(edge_diff(const, [1, -1]).values).max() == 0.0
    with pytest.raises(PreconditionViolationError):
        edge_diff(f, [2, 0])
    with pytest.raises(DimensionMismatchError):
        edge_diff(f, [1])


@pytest.mark.parametrize("n,m", [(1, 4), (2, 6), (3, 4)])
def test_operators_match_their_symbols(n, m):
    dom = TorusDomain(n=n, m=m)
    f = random_vector(dom, 2, seed=10 * n + m)
    for j in range(n):
        r = two_path_residual(f, lambda g, j=j: central_diff(g, j),
                              symbol_central_diff(dom, j))
        assert r < 1e-10
        r = two_path_residual(f, lambda g, j=j: avg_others(g, j),
                              symbol_avg_others(dom, j))
        assert r < 1e-10
    eps = np.resize([1, -1, 0], n)
    r = two_path_residual(f, lambda g: edge_diff(g, eps),
                          symbol_edge_diff(dom, eps))
    assert r < 1e-10


def test_edge_diff_symbol_formula():
    dom = TorusDomain(n=2, m=4)
    eps = np.array([1, 1])
    ks = dom.coords()
    want = np.exp(2j * np.pi * (ks @ eps) / 4) - 1.0
    np.testing.assert_allclose(symbol_edge_diff(dom, eps), want)


def test_grid_function_helpers():
    dom = TorusDomain(n=1, m=4)
    f = GridFunction.vector(dom, np.array([[3.0], [0], [0], [4]],
                                          dtype=complex))
    assert f.is_vector and f.dim == 1
    assert scale_of(f) == 4.0

    pts = GridFunction.points(dom, [0, 1, 1, 0])
    assert not pts.is_vector
    with pytest.raises(PreconditionViolationError):
        scale_of(pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(np.inf, 0)])
def test_non_finite_value_tables_rejected(bad):
    dom = TorusDomain(n=2, m=4)
    vals = random_vector(dom, 2, 3).values
    bad_vals = vals.copy()
    bad_vals[5, 1] = bad
    with pytest.raises(NonFiniteValuesError, match="row 5"):
        GridFunction.vector(dom, bad_vals)
    assert issubclass(NonFiniteValuesError, CotypeLabError)
    # finite tables at extreme scales stay accepted
    GridFunction.vector(dom, 1e200 * vals)
    GridFunction.vector(dom, 1e-200 * vals)


def test_projection_identity_residual():
    for n, m in [(1, 4), (2, 6), (3, 4)]:
        f = random_vector(TorusDomain(n=n, m=m), 2, seed=n + m)
        assert rad_identity_residual(f) <= 1e-10 * scale_of(f)


def test_projection_identity_guards():
    dom = TorusDomain(n=2, m=4)
    pts = GridFunction.points(dom, np.zeros(16, dtype=np.int64))
    with pytest.raises(PreconditionViolationError):
        rad_identity_residual(pts)
    big = random_vector(TorusDomain(n=5, m=8), 32, seed=0)
    with pytest.raises(BudgetExceededError):
        rad_identity_residual(big)
