import math

import numpy as np

from cotypelab import (
    GridFunction,
    InequalityCheck,
    NormTarget,
    TorusDomain,
    check_lemma_approx,
    make_check,
)


def test_pass_and_slack():
    chk = make_check("demo", {"n": 1}, 1.0, 2.0)
    assert chk.passed
    assert chk.slack > 1.0

    tight = make_check("demo", {}, 1.0, 1.0)
    assert tight.passed  # equality plus relative tolerance

    fail = InequalityCheck(name="demo", params={}, lhs=2.0, rhs=1.0,
                           tolerance=0.0)
    assert not fail.passed
    assert fail.slack == -1.0


def test_tolerance_scales_with_dominating_side():
    big = make_check("demo", {}, 1e9, 1e9 + 0.5)
    assert big.tolerance >= 1.0  # 1e-9 relative on 1e9
    assert big.passed


def test_json_and_csv_forms():
    chk = make_check("demo", {"b": 2, "a": 1}, 0.5, 1.0)
    d = chk.to_json_dict()
    assert d["pass"] is True
    assert d["params"] == {"b": 2, "a": 1}

    row = chk.csv_row("unit")
    assert row[0] == "unit"
    assert row[1] == "demo"
    assert row[2] == "a=1;b=2"  # sorted keys
    assert row[-1] == "true"
    # repr round-trips the floats exactly
    assert float(row[3]) == 0.5 and float(row[4]) == 1.0


def test_params_are_copied():
    src = {"k": 1}
    chk = make_check("demo", src, 0.0, 1.0)
    src["k"] = 99
    assert chk.params["k"] == 1


def test_non_finite_checks_fail():
    # inf <= inf + inf holds in floating point but certifies nothing
    for lhs, rhs in [(math.inf, math.inf), (math.nan, 0.0), (0.0, math.inf),
                     (-math.inf, 0.0)]:
        assert not make_check("demo", {}, lhs, rhs).passed, (lhs, rhs)
    chk = InequalityCheck(name="demo", params={}, lhs=0.0, rhs=1.0,
                          tolerance=math.inf)
    assert not chk.passed


def test_overflowing_witness_fails_the_approximation_check():
    dom = TorusDomain(n=2, m=6)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((dom.points, 2)) + 0j
    f = GridFunction.vector(dom, 1e200 * vals)
    with np.errstate(over="ignore", invalid="ignore"):
        chk = check_lemma_approx(f, NormTarget(p=2.0), 0, 1, 2.0)
    assert not (math.isfinite(chk.lhs) and math.isfinite(chk.rhs))
    assert not chk.passed
