"""The incremental shift sums against full evaluation, bit for bit.

gridops.ShiftSums scores a point-valued table by updating the per-shift
sums of the last table it scored. Every score below is compared with ==
(tobytes() for arrays) against the full kernel, and each search against
the search as it ran before, with cotype_functionals / b_functionals
scoring every step. The searches fall back to full evaluation when the
sums could round: non-integer distances, non-integer powers and the
sampled eps average.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from cotypelab import (
    GridFunction,
    TorusDomain,
    b_functionals,
    b_quantity_search,
    cotype_functionals,
    gamma_search,
    torus_space,
    two_point_space,
)
from cotypelab import cotype, gridops
from cotypelab.gridops import (
    ShiftSums,
    dist_power,
    family_table,
    ordered_sum,
    shift_energy,
)
from cotypelab.spaces import validate_metric
from cotypelab.targets import MetricTarget

SPACES = {
    "two-point": two_point_space(),
    "torus16": torus_space(TorusDomain(n=2, m=4)),  # K = 16
    "path3": validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
}
ONE_POINT = validate_metric([[0]])
UNEVEN = validate_metric([[0, 1, 2.2], [1, 0, 1.5], [2.2, 1.5, 0]])

# (n, m, family, amount): m = 2 has s = -s, ell = m a zero shift
TABLES = [(1, 2, "edges", 1), (2, 2, "edges", 1), (2, 6, "edges", 3),
          (3, 4, "edges", 2), (2, 4, "signs", 2), (2, 4, "signs", 4),
          (1, 2, "signs", 2), (3, 2, "signs", 2), (2, 6, "signs", 6)]


def full_means(values, space, p, table):
    return shift_energy(values, MetricTarget(space), table, p)


def edits(rng, N, K, steps):
    """A random sequence of edits: moves, reverts, and multi-point changes."""
    values = rng.integers(0, K, N)
    yield values
    for _ in range(steps):
        kind = rng.integers(4)
        if kind == 0:  # a move that is kept
            values[rng.integers(N)] = rng.integers(K)
        elif kind == 1:  # a move that is reverted, then another move
            x = rng.integers(N)
            old = values[x]
            values[x] = rng.integers(K)
            yield values
            values[x] = old
            values[rng.integers(N)] = rng.integers(K)
        elif kind == 2:  # two or three points change
            pts = rng.choice(N, size=min(int(rng.integers(2, 4)), N), replace=False)
            values[pts] = rng.integers(0, K, len(pts))
        else:  # a fresh table, as a restart brings
            values[:] = rng.integers(0, K, N)
        yield values


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("p", (1.0, 2.0))
@pytest.mark.parametrize("n,m,family,amount", TABLES)
def test_edit_sequences_match_full_evaluation(name, p, n, m, family, amount):
    space = SPACES[name]
    dom = TorusDomain(n=n, m=m)
    table = family_table(dom, family, amount)
    sums = ShiftSums(dist_power(space.dist, p), table)
    rng = np.random.default_rng([n, m, amount, int(p), space.size])
    for values in edits(rng, dom.points, space.size, 60):
        got = sums(values)
        assert got.tobytes() == full_means(values, space, p, table).tobytes()
        # the memo is a copy: later edits of values do not reach it
        assert np.array_equal(sums.values, values)


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 2.0), (1.0, 4.0), (2.0, 4.0)])
def test_search_scores_equal_the_reports(name, p, q):
    space = SPACES[name]
    for n, m in ((1, 2), (2, 2), (2, 4), (2, 6)):
        dom = TorusDomain(n=n, m=m)
        ratio = cotype._gamma_ratio(n, m, p, q)
        sums = cotype._exact_shift_sums(space, p, family_table(dom, "edges", m // 2))
        assert sums is not None
        rng = np.random.default_rng([n, m, int(p), int(q)])
        for values in edits(rng, dom.points, space.size, 30):
            got = ratio.value(*ratio.sides(sums(values)))
            rep = cotype_functionals(GridFunction.points(dom, values), space, p, q)
            assert got == (rep.gamma_hat, rep.degenerate)


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("ell", (2, 4))
def test_b_scores_equal_the_reports(name, ell):
    space = SPACES[name]
    for n, m in ((1, 2), (2, 4), (3, 2)):
        dom = TorusDomain(n=n, m=m)
        ratio = cotype._b_ratio(n, m, ell)
        sums = cotype._exact_shift_sums(space, 2.0, family_table(dom, "signs", ell))
        rng = np.random.default_rng([n, m, ell])
        for values in edits(rng, dom.points, space.size, 30):
            got = ratio.value(*ratio.sides(sums(values)))
            rep = b_functionals(GridFunction.points(dom, values), space, ell)
            assert got == (rep.b_hat, rep.degenerate)


def test_one_point_space_scores_zero():
    dom = TorusDomain(n=2, m=4)
    table = family_table(dom, "edges", 2)
    sums = ShiftSums(dist_power(ONE_POINT.dist, 2.0), table)
    values = np.zeros(dom.points, dtype=np.int64)
    for _ in range(3):
        want = full_means(values, ONE_POINT, 2.0, table)
        assert sums(values).tobytes() == want.tobytes()


# ------------------------------------------------ searches, as they were

def reference_gamma_search(space, n, m, p, q, budget, seed, initial=()):
    dom = TorusDomain(n=n, m=m)

    def score(vals):
        rep = cotype_functionals(GridFunction.points(dom, vals), space, p, q)
        return -math.inf if rep.degenerate else rep.gamma_hat

    witness = GridFunction.points(
        dom, cotype._hill_climb(dom, space.size, score, budget, seed, initial))
    return replace(cotype_functionals(witness, space, p, q),
                   seed=seed, budget=budget, witness=witness)


def reference_b_search(space, n, ell, m, budget, seed, initial=()):
    dom = TorusDomain(n=n, m=m)

    def score(vals):
        rep = b_functionals(GridFunction.points(dom, vals), space, ell)
        return -math.inf if rep.degenerate else rep.b_hat

    witness = GridFunction.points(
        dom, cotype._hill_climb(dom, space.size, score, budget, seed, initial))
    return replace(b_functionals(witness, space, ell),
                   seed=seed, budget=budget, witness=witness)


EXACT_SEARCHES = [(SPACES[name], n, m, p, q) for name in sorted(SPACES)
                  for n, m, p, q in ((2, 4, 2.0, 2.0), (2, 6, 1.0, 2.0),
                                     (1, 2, 2.0, 4.0), (3, 2, 1.0, 4.0))]
FALLBACK_SEARCHES = [
    (UNEVEN, 2, 4, 2.0, 2.0),  # non-integer distances
    (SPACES["path3"], 2, 4, 1.5, 2.0),  # 2^1.5 is no integer
    (SPACES["two-point"], 5, 8, 2.0, 2.0),  # 3^5 * 8^5 > 2^22: sampled
]


@pytest.mark.parametrize("case", range(len(EXACT_SEARCHES + FALLBACK_SEARCHES)))
def test_gamma_search_matches_the_full_evaluation_climb(case):
    space, n, m, p, q = (EXACT_SEARCHES + FALLBACK_SEARCHES)[case]
    budget = 3 if n == 5 else 400
    got = gamma_search(space, n, m, p, q, budget, case)
    want = reference_gamma_search(space, n, m, p, q, budget, case)
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("space", [SPACES["torus16"], SPACES["path3"],
                                   SPACES["two-point"], UNEVEN, ONE_POINT])
@pytest.mark.parametrize("n,ell,m", [(2, 2, 4), (2, 4, 4), (1, 2, 2), (3, 2, 2)])
def test_b_search_matches_the_full_evaluation_climb(space, n, ell, m):
    start = np.arange(m**n) % space.size
    got = b_quantity_search(space, n, ell, m, 300, 7, [start])
    want = reference_b_search(space, n, ell, m, 300, 7, [start])
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("search", [
    lambda: gamma_search(UNEVEN, 2, 4, 2.0, 2.0, 3, 0),
    lambda: gamma_search(SPACES["path3"], 2, 4, 1.5, 2.0, 3, 0),
    lambda: gamma_search(SPACES["two-point"], 5, 8, 2.0, 2.0, 3, 0),
    lambda: b_quantity_search(UNEVEN, 2, 2, 4, 3, 0),
])
def test_fallback_scores_with_the_full_evaluation(monkeypatch, search):
    def refuse(*args):
        raise AssertionError("incremental sums on an inexact case")

    monkeypatch.setattr(cotype, "ShiftSums", refuse)
    search()


def test_exact_search_runs_one_full_pass_per_restart(monkeypatch):
    calls = {"shift_energy": 0, "shift_sums": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cotype, "shift_energy", counted("shift_energy", shift_energy))
    monkeypatch.setattr(gridops, "shift_sums", counted("shift_sums", gridops.shift_sums))
    budget, N = 2000, 36
    gamma_search(two_point_space(), 2, 6, 2.0, 2.0, budget, 1)
    restarts = math.ceil(budget / N)
    assert calls["shift_energy"] == 1  # the final report
    assert 1 <= calls["shift_sums"] <= restarts
