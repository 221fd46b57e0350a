import math

import numpy as np
import pytest

from cotypelab import (
    DimensionMismatchError,
    NormTarget,
    PreconditionViolationError,
    SchemaViolationError,
    TorusDomain,
    as_target,
    torus_space,
    two_point_space,
)


def test_metric_target_pairwise():
    t = two_point_space(3.0)  # a finite metric space is its own target
    got = t.pairwise(np.array([0, 0, 1]), np.array([0, 1, 1]))
    np.testing.assert_array_equal(got, [0.0, 3.0, 0.0])


@pytest.mark.parametrize("p,want", [
    (1.0, 7.0),
    (2.0, 5.0),
    (math.inf, 4.0),
    (3.0, (3 ** 3 + 4 ** 3) ** (1 / 3)),
])
def test_norm_target_exponents(p, want):
    t = NormTarget(p=p)
    assert t.norm(np.array([3.0, -4.0])) == pytest.approx(want)


def test_norm_target_pairwise_and_complex():
    t = NormTarget(p=2.0)
    a = np.array([[1 + 1j, 0], [0, 0]])
    b = np.array([[0, 0], [0, 3j]])
    got = t.pairwise(a, b)
    np.testing.assert_allclose(got, [math.sqrt(2), 3.0])


def test_norm_target_dim_enforcement():
    t = NormTarget(p=2.0, dim=3)
    t.norm(np.zeros((5, 3)))  # matches, fine
    with pytest.raises(DimensionMismatchError):
        t.norm(np.zeros((5, 2)))
    with pytest.raises(SchemaViolationError):
        NormTarget(p=0.5)


def test_as_target_coercion():
    sp = torus_space(TorusDomain(n=1, m=4))
    assert as_target(sp, np.array([0, 3, 1])) is sp
    nt = NormTarget(p=2.0)
    assert as_target(nt, np.zeros((3, 2))) is nt
    with pytest.raises(SchemaViolationError):
        as_target(42, np.array([0, 3, 1]))
    # a space takes a 1-D integer index array, a norm an (N, d) table
    for codomain, values in ((sp, np.array([0, 4])), (sp, np.zeros((3, 1), int)),
                             (sp, np.zeros(3)), (nt, np.array([0, 3, 1]))):
        with pytest.raises(PreconditionViolationError):
            as_target(codomain, values)

