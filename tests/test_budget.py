"""The one budget: spaces.require_budget refuses a call, before anything is
built, when its estimated peak bytes pass MEMORY_BUDGET or its estimated
seconds pass WORK_BUDGET. Each site estimates from its own inputs.

Every site is checked at its boundary (the call runs with the threshold at
its estimate and raises one unit below), and every bytes estimate is
checked against the tracemalloc peak of the call it guards at two cells.
"""
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cotypelab import (
    BudgetExceededError,
    GridFunction,
    NormTarget,
    TorusDomain,
    contraction_rhs_bound,
    distortion,
    exhaustive_b,
    extract_grid,
    frechet_cycle,
    gamma_exhaustive_two_point,
    gamma_search,
    grid_to_torus,
    gamma_hilbert_exact,
    hilbert_gamma_power_iteration,
    load_metric_space,
    moduli,
    points_space,
    rad_identity_residual,
    random_two_point_mc,
    random_vector_values,
    sparse_anchors,
    sparse_frechet_cycle,
    torus_space,
    two_point_space,
)
from cotypelab import cotype, embeddings, gridops, harmonic, spaces
from cotypelab.cli import main
from shift_reference import three_patterns

DATA = Path(__file__).parent / "data"
PATH4 = load_metric_space(str(DATA / "path4_space.json"))
UNEVEN3 = load_metric_space(str(DATA / "uneven3_space.json"))


def _complex_cloud(N: int, k: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))


def _vector(n: int, m: int, d: int, seed: int = 0) -> GridFunction:
    dom = TorusDomain(n=n, m=m)
    return GridFunction.vector(
        dom, random_vector_values(dom, d, np.random.default_rng(seed)))


def _dist(N: int):
    cloud = _complex_cloud(N, 3)
    return lambda: points_space(cloud, 2.0).dist  # a fresh space: .dist caches


def _moduli(n: int, m: int):
    net = _complex_cloud(m**n, n)
    source, target = points_space(net, 2.0), points_space(net.copy(), 2.0)
    return lambda: moduli(np.arange(m**n), source, target)


def _residual(n: int, m: int, d: int):
    f = _vector(n, m, d)
    return lambda: rad_identity_residual(f)


def _extract(n: int, m: int, s: int):
    dom = TorusDomain(n=n, m=m)
    f, space = GridFunction.points(dom, np.arange(dom.points)), torus_space(dom)
    return lambda: extract_grid(f, space, s)


def _signs(n: int, d: int):
    X = np.random.default_rng(n).standard_normal((n, d))
    return lambda: contraction_rhs_bound(X, 8, 2.0, NormTarget(p=2.0))


SPACES = {"path4": PATH4, "uneven3": UNEVEN3}

# label: (the work the site names, a call builder, two cells)
BYTES_SITES = {
    "dist": (lambda N: f"a {N}-point distance table", _dist, [(300,), (1000,)]),
    "moduli": (lambda n, m: "a moduli scan", _moduli, [(2, 20), (2, 40)]),
    "residual": (lambda n, m, d: "a projection residual", _residual,
                 [(3, 8, 8), (4, 6, 2)]),
    "bit-planes": (lambda n, m: f"{2 ** m ** n} two-point witnesses",
                   lambda n, m: lambda: gamma_exhaustive_two_point(n, m, 2.0, 2.0),
                   [(1, 16), (1, 20)]),
    "mixed-radix": (lambda name, m: f"{SPACES[name].size ** m} witnesses",
                    lambda name, m: lambda: exhaustive_b(SPACES[name], 1, 2, m, 1 << 20),
                    [("path4", 8), ("uneven3", 10)]),
    "dense-oracle": (lambda n, m: "a dense",
                     lambda n, m: lambda: hilbert_gamma_power_iteration(n, m),
                     [(1, 256), (2, 16)]),
    "sign-patterns": (lambda n, d: "a sum over", _signs, [(14, 3), (16, 2)]),
    "frechet-profile": (lambda m: f"a {2 * m}-point profile embedding",
                        lambda m: lambda: frechet_cycle(m), [(50,), (200,)]),
    "sparse-profile": (lambda m, eps: f"a {2 * m}-point profile embedding",
                       lambda m, eps: lambda: sparse_frechet_cycle(m, eps),
                       [(500, 0.01), (1000, 0.05)]),
    "grid-torus": (lambda m, n: f"a {(m + 1) ** n}-point grid in a {(2 * m) ** n}-point torus",
                   lambda m, n: lambda: grid_to_torus(m, n), [(10, 2), (10, 3)]),
    "random-mc": (lambda n, m, t: f"{t} random two-point witnesses",
                  lambda n, m, t: lambda: random_two_point_mc(n, m, 2.0, 2.0, t, 0),
                  [(2, 4, 1 << 16), (2, 16, 4096)]),
    "defect-sum": (lambda n, m, s: "a geodesic-defect sum", _extract,
                   [(4, 8, 4), (3, 16, 8)]),
    "hilbert-argmax": (lambda n, m: f"a {n}-entry Hilbert argmax",
                       lambda n, m: lambda: gamma_hilbert_exact(n, m),
                       [(16, 32), (10**5, 32)]),
    # 2m = 400 takes the uint16 coordinates
    "shift-table": (lambda n, m: f"a {3 ** n} x {m ** n} shift table",
                    lambda n, m: lambda: gridops.shift_table(
                        TorusDomain(n=n, m=m), three_patterns(n)),
                    [(3, 16), (2, 200)]),
    # priced from the row count before the patterns; uncached, so each call builds
    "family-table": (lambda n, m: f"a {2 ** n + n} x {m ** n} shift table",
                     lambda n, m: lambda: gridops.family_table.__wrapped__(
                         TorusDomain(n=n, m=m), "signs", 2),
                     [(3, 16), (2, 200)]),
    "random-points": (lambda n, m: f"{m ** n} random point values",
                      lambda n, m: lambda: gridops.random_point_values(
                          TorusDomain(n=n, m=m), 3, np.random.default_rng(0)),
                      [(1, 1000), (2, 300)]),
    "random-vectors": (lambda n, m, d: f"{m ** n} x {d} random vector values",
                       lambda n, m, d: lambda: random_vector_values(
                           TorusDomain(n=n, m=m), d, np.random.default_rng(0)),
                       [(3, 16, 2), (2, 64, 3)]),
}
CELLS = [pytest.param(what(*cell), build, cell,
                      id=f"{label}-{'-'.join(map(str, cell))}")
         for label, (what, build, cells) in BYTES_SITES.items() for cell in cells]


@pytest.mark.parametrize("what,build,cell", CELLS)
def test_bytes_estimates_bound_the_traced_peak(what, build, cell,
                                               budget_estimate):
    call = build(*cell)
    nbytes, _ = budget_estimate(call, what)
    gridops.family_table.cache_clear()
    cotype._two_point_winner.cache_clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= nbytes, (what, peak, nbytes)


@pytest.mark.parametrize("what,build,cell", CELLS)
def test_every_bytes_site_runs_at_its_estimates_and_not_one_unit_below(
        what, build, cell, budget_boundary):
    budget_boundary(build(*cell), what)


@pytest.mark.parametrize("what,call", [
    ("a distortion scan of 625 points", lambda: distortion(
        np.arange(625), points_space(np.indices((25, 25)).reshape(2, -1).T, 2.0),
        points_space(np.indices((25, 25)).reshape(2, -1).T, 1.0))),
    # one climbing evaluation and the report's, each of 5 + 128 shifts
    ("a 1-evaluation sampled search",
     lambda: gamma_search(two_point_space(), 5, 8, 2.0, 2.0, 1, 0)),
], ids=["distortion", "sampled-search"])
def test_every_seconds_only_site_runs_at_its_estimate_and_not_one_ulp_below(
        what, call, budget_boundary):
    nbytes, seconds = budget_boundary(call, what)
    assert nbytes == 0 and seconds > 0


def test_the_distortion_estimate_counts_coordinate_columns(budget_estimate):
    line = points_space(np.arange(40)[:, None], 2.0)
    wide = points_space(np.arange(40)[:, None] * np.ones(50, np.int64), 2.0)
    table = spaces.FiniteMetricSpace(labels=tuple(range(40)), dist=line.dist)
    ident, what = np.arange(40), "a distortion scan of 40 points"
    # a table reads as one column, and each pair costs 10 more; pairwise
    # loops over each coordinate column once a row block (two of 32 rows)
    assert budget_estimate(lambda: distortion(ident, table, table), what)[1] \
        == 1e-9 * 40 * 40 * 12
    assert budget_estimate(lambda: distortion(ident, line, wide), what)[1] \
        == 1e-9 * 40 * 40 * 61 + 4e-6 * 51 * 2


def test_the_distortion_estimate_refuses_one_coordinate_column_over(
        monkeypatch, budget_estimate):
    # 8 points by 20,000 columns: the column loop is 98 % of the estimate
    def call(cols):
        wide = points_space(np.arange(8)[:, None] * np.ones(cols, np.int64), 2.0)
        return lambda: distortion(np.arange(8), wide, wide)

    what = "a distortion scan of 8 points"
    seconds = budget_estimate(call(20_000), what)[1]
    assert seconds == 1e-9 * 8 * 8 * 40_010 + 4e-6 * 40_000
    monkeypatch.setattr(spaces, "WORK_BUDGET", seconds)
    call(19_999)()  # one column under
    call(20_000)()
    with pytest.raises(BudgetExceededError, match=f"^{what} needs about "):
        call(20_001)()  # one column over


def test_two_thresholds():
    assert (spaces.MEMORY_BUDGET, spaces.WORK_BUDGET) == (1 << 30, 5.0)
    for module, name in ((spaces, "TABLE_BUDGET_BYTES"), (spaces, "require_table"),
                         (embeddings, "DEFECT_BUDGET"),
                         (harmonic, "RESIDUAL_BUDGET"),
                         (cotype, "GENERAL_ENUM_CAP")):
        assert not hasattr(module, name), name


def test_a_refusal_names_the_work_and_the_budget(monkeypatch):
    with pytest.raises(BudgetExceededError) as bytes_over:
        spaces.require_budget("a job", nbytes=(1 << 30) + 1)
    assert str(bytes_over.value) == \
        f"a job needs {(1 << 30) + 1} bytes, budget is {1 << 30}"
    with pytest.raises(BudgetExceededError) as time_over:
        spaces.require_budget("a job", seconds=5.5)
    assert str(time_over.value) == "a job needs about 5.5 s, budget is 5.0 s"
    spaces.require_budget("a job", nbytes=1 << 30, seconds=5.0)  # at both: runs


# ------------------------------------------------------------- new guards

def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_sparse_profile_of_a_million_anchors_is_refused(capsys):
    # 10,000 points by 1,000,001 anchors, 10,000 distinct: the profile
    # would be 2.4 GB
    code, out, err = _run(capsys, ["embed", "sparse", "--m", "5000",
                                   "--eps", "0.000001"])
    assert code == 2 and out == ""
    assert err.startswith("error: a 10000-point profile embedding needs ")
    assert err.count("\n") == 1


def test_ten_billion_sparse_anchors_are_refused_before_they_exist(capsys):
    # 8 points by 10^10 + 1 anchors: the anchors alone would take 74.5 GiB
    code, out, err = _run(capsys, ["embed", "sparse", "--m", "4",
                                   "--eps", "0.0000000001"])
    assert code == 2 and out == ""
    assert err.startswith("error: a 8-point profile embedding needs ")
    assert err.count("\n") == 1
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^a 8-point profile"):
            sparse_frechet_cycle(4, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_subnormal_eps_is_refused_by_the_profile_estimate(capsys):
    # 1 / 5e-324 is inf: ceil(1/eps) raised OverflowError, exit 1
    code, out, err = _run(capsys, ["embed", "sparse", "--m", "4", "--eps", "5e-324"])
    assert code == 2 and out == ""
    assert err.startswith("error: a 8-point profile embedding needs ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("eps", [1e-10, 5e-324])
def test_sparse_anchors_past_the_budget_are_refused_before_they_exist(eps):
    # 10^10 + 1 int64 anchors would take 80 GB; at a subnormal eps, over
    # 10^308 of them, np.arange raised numpy's bare ValueError
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"^\d+ sparse anchors needs "):
            sparse_anchors(4, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sparse_anchors_run_at_their_estimate_and_not_one_byte_below(
        budget_boundary):
    nbytes, _ = budget_boundary(lambda: sparse_anchors(5000, 1e-6),
                                "1000001 sparse anchors")
    assert nbytes == 8 * 1_000_001
    tracemalloc.start()
    try:
        sparse_anchors(5000, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the anchors, scaled in place, and their array header
    assert nbytes < peak <= nbytes + 1024


def test_the_hilbert_constant_at_16_32_is_answered_in_closed_form(capsys):
    code, out, err = _run(capsys, ["gamma-hilbert", "--n", "16", "--m", "32"])
    assert code == 0 and err.startswith("runtime: ")
    res = json.loads(out)["results"]
    c = (1.0 + 2.0 * math.cos(math.pi / 16)) / 3.0
    assert res["gamma"] == pytest.approx(
        math.sqrt(4.0 * 16 / (32**2 * (2.0 - 2.0 * c**16))), rel=1e-12)
    assert res["argmax_frequency"] == [1] * 16


@pytest.mark.parametrize("n", [10**5, 2 * 10**5])
def test_the_hilbert_argmax_estimate_bounds_the_traced_report(
        capsys, budget_estimate, n):
    # the estimate covers the report gamma-hilbert prints, not only the
    # call; the command's own 0.1-0.25 MB is under 2.5 bytes an entry here
    argv = ["gamma-hilbert", "--n", str(n), "--m", "32"]
    nbytes, _ = budget_estimate(lambda: main(argv), f"a {n}-entry")
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)[
        "results"]["argmax_frequency"] == [1] * n
    assert 0 < peak <= nbytes, (peak, nbytes)


def test_the_largest_hilbert_argmax_admitted_runs_and_one_more_is_refused():
    # 1.6 us an entry against the 5 s budget; the command ran in 4.6 s
    assert gamma_hilbert_exact(3_125_000, 32)[1] == (1,) * 3_125_000
    with pytest.raises(BudgetExceededError,
                       match="^a 3125001-entry Hilbert argmax needs about 5 s"):
        gamma_hilbert_exact(3_125_001, 32)


def test_a_hilbert_argmax_of_a_billion_entries_is_refused(capsys):
    code, out, err = _run(capsys, ["gamma-hilbert", "--n", "1000000000",
                                   "--m", "32"])
    assert code == 2 and out == ""
    assert err == ("error: a 1000000000-entry Hilbert argmax needs "
                   f"100000000000 bytes, budget is {1 << 30}\n")


def test_a_shift_table_of_8_gib_is_refused(capsys, address_cap):
    # 70 shifts of 16^6 points: the int64 table alone is 8.75 GiB, and the
    # allocation ended in numpy's _ArrayMemoryError, exit 1
    address_cap(2 << 30)  # work begun anyway fails with MemoryError
    code, out, err = _run(capsys, ["mod-check", "--n", "6", "--m", "16",
                                   "--r", "2", "--trials", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: a 70 x 16777216 shift table needs ")
    assert err.endswith(f" bytes, budget is {1 << 30}\n") and err.count("\n") == 1


def test_a_default_budget_sampled_search_is_refused_before_it_evaluates(
        capsys, monkeypatch):
    # each sampled evaluation at (5, 8) takes about 0.15 s: 2^20 of them are
    # some 40 hours
    def no_evaluation(*args):
        raise AssertionError("an evaluation ran before the guard")

    monkeypatch.setattr(cotype._Ratio, "measure", no_evaluation)
    code, out, err = _run(capsys, ["gamma-search", "--n", "5", "--m", "8"])
    assert code == 2 and out == ""
    assert err.startswith("error: a 1048576-evaluation sampled search needs about ")
    assert err.endswith(" s, budget is 5.0 s\n") and err.count("\n") == 1


LARGE_N = [  # each ended in a traceback, exit 1, or ran without bound
    # (n + samples) m^n formed a float: OverflowError
    ("gamma-search --n 3000 --m 2 --budget 1",
     "an entry count of 3013 bits is past float64 range"),
    # the refusal printed 2^(2^100000): ValueError past 4,300 digits
    ("gamma-exhaustive --n 100000 --m 2", "2^~2^100000 witnesses exceed budget"),
    ("bq --exhaustive --n 100000 --m 2 --ell 2", "2^~2^100000 witnesses exceed budget"),
    # 2^3000 sign patterns were built before the table was priced
    ("bq --n 3000 --m 2 --ell 2 --budget 1",
     "a ~2^3000 x ~2^3000 shift table needs ~2^6003 bytes"),
    # an m^n-entry draw: numpy's ValueError
    ("mod-check --n 3000 --m 2 --r 0 --trials 1",
     "~2^3000 random point values needs ~2^3003 bytes"),
    ("moduli-check --n 3000 --m 2 --trials 1",
     "~2^3000 random point values needs ~2^3003 bytes"),
    # the defect sum's work printed past 4,300 digits: ValueError
    ("extract-grid --n 3000 --m 8 --s 4",
     "an extraction term count of 15012 bits is past float64 range"),
]


@pytest.mark.parametrize("line,message", LARGE_N)
def test_a_large_n_is_refused_in_one_error_line(capsys, line, message):
    code, out, err = _run(capsys, line.split())
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_a_count_past_2_to_the_64_prints_as_a_power_of_two():
    assert spaces.count_text((1 << 64) - 1) == str((1 << 64) - 1)
    assert spaces.count_text(1 << 64) == "~2^64"
    assert spaces.count_text(3 * 2**100000) == "~2^100002"  # past 4,300 digits
    assert spaces.count_text(2**5000 + 1) == "~2^5000"  # past float64 range


def test_a_trillion_random_witnesses_are_refused(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a Generator was made before the guard")

    monkeypatch.setattr(cotype.np.random, "default_rng", no_draws)
    with pytest.raises(BudgetExceededError,
                       match=f"^{2**40} random two-point witnesses needs"):
        random_two_point_mc(1, 2, 2.0, 2.0, 2**40, 0)


def test_the_residual_at_4_16_is_refused_before_its_tensors():
    f = _vector(4, 16, 16)  # 2^4 x 65,536 x 16 entries: 1.7 GB estimated
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^a projection residual"):
            rad_identity_residual(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20


def test_moduli_is_refused_where_its_own_peak_would_pass_the_budget(
        address_cap):
    # a complex source into a table peaks at 36.5 bytes per N^2 (0.70 of the
    # estimate at N = 400 and 1,600), so past 2^30 bytes from N = 5,424
    N = 5500
    assert 36.5 * N * N > spaces.MEMORY_BUDGET
    source = points_space(_complex_cloud(N, 2), 2.0)
    address_cap(1 << 30)  # work begun anyway fails with MemoryError
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^a moduli scan"):
            moduli(np.zeros(N, np.int64), source, two_point_space())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_extraction_at_n4_s8_is_within_the_budget(budget_estimate):
    # 838,860,800 transition-point terms: about 4.2 s estimated
    dom = TorusDomain(n=4, m=16)
    nbytes, seconds = budget_estimate(
        lambda: embeddings.require_defect_budget(dom, 8), "a geodesic-defect sum")
    assert nbytes <= spaces.MEMORY_BUDGET and seconds <= spaces.WORK_BUDGET
    assert embeddings.require_defect_budget(dom, 8) == 838_860_800

