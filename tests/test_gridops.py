import numpy as np
import pytest

from cotypelab import (
    TorusDomain,
    random_point_values,
    random_vector_values,
    sign_patterns,
)
from shift_reference import axis_shift, roll_values, three_patterns


def test_roll_values_scalar_table():
    dom = TorusDomain(n=1, m=4)
    vals = np.array([10.0, 11.0, 12.0, 13.0])
    # g(x) = f(x + 1)
    np.testing.assert_array_equal(roll_values(dom, vals, [1]),
                                  [11.0, 12.0, 13.0, 10.0])
    np.testing.assert_array_equal(roll_values(dom, vals, [-1]),
                                  [13.0, 10.0, 11.0, 12.0])
    np.testing.assert_array_equal(roll_values(dom, vals, [5]),
                                  roll_values(dom, vals, [1]))


def test_roll_values_matches_index_arithmetic():
    dom = TorusDomain(n=2, m=3)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((dom.points, 2))
    shift = np.array([1, 2])
    rolled = roll_values(dom, vals, shift)
    for idx in range(dom.points):
        x = np.array(dom.coord_of(idx))
        at = np.ravel_multi_index(x + shift, dom.shape, mode="wrap")
        assert np.array_equal(rolled[idx], vals[at])


def test_roll_values_broadcasts_scalar_shift():
    dom = TorusDomain(n=2, m=3)
    vals = np.arange(9, dtype=np.float64)
    np.testing.assert_array_equal(roll_values(dom, vals, 1),
                                  roll_values(dom, vals, [1, 1]))


def test_axis_shift():
    dom = TorusDomain(n=3, m=5)
    np.testing.assert_array_equal(axis_shift(dom, 1), [0, 1, 0])
    np.testing.assert_array_equal(axis_shift(dom, 2, -2), [0, 0, -2])
    with pytest.raises(IndexError):
        axis_shift(dom, 3)


def test_sign_patterns():
    pats = sign_patterns(2)
    np.testing.assert_array_equal(
        pats, [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    )
    assert sign_patterns(5).shape == (32, 5)


def test_three_patterns_includes_zero_row():
    pats = three_patterns(2)
    assert pats.shape == (9, 2)
    assert any((row == 0).all() for row in pats)
    np.testing.assert_array_equal(pats[0], [-1, -1])
    np.testing.assert_array_equal(pats[-1], [1, 1])


def test_random_tables_shapes_and_determinism():
    dom = TorusDomain(n=2, m=4)
    a = random_vector_values(dom, 3, np.random.default_rng(5))
    b = random_vector_values(dom, 3, np.random.default_rng(5))
    assert a.shape == (16, 3) and np.iscomplexobj(a)
    np.testing.assert_array_equal(a, b)

    p = random_point_values(dom, 7, np.random.default_rng(5))
    assert p.shape == (16,)
    assert p.min() >= 0 and p.max() < 7


def test_climb_keeps_strict_improvements_only():
    from cotypelab.gridops import climb

    rng = np.random.default_rng(0)
    vals = np.zeros(6, dtype=np.int64)
    best = climb(vals, lambda v: float(v.sum()),
                 lambda rng, old: old + rng.integers(-1, 2), 200, rng)
    assert best == vals.sum() > 0  # the table ends as the best one seen

    # a flat score accepts nothing, so every proposed row is restored
    def nudge(rng, old):
        return old + rng.standard_normal(2)

    rows = np.arange(12.0).reshape(6, 2)
    assert climb(rows, lambda v: 0.0, nudge, 50, rng) == 0.0
    np.testing.assert_array_equal(rows, np.arange(12.0).reshape(6, 2))
    # a given starting score is used as is: one evaluation per step
    calls = []
    climb(rows, lambda v: calls.append(v) or 2.0, nudge, 3, rng, best=2.0)
    assert len(calls) == 3
    np.testing.assert_array_equal(rows, np.arange(12.0).reshape(6, 2))
