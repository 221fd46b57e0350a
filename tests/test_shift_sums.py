"""The exact shift sums and the lockstep search against full evaluation,
bit for bit.

gridops.ShiftSums gives the per-shift sums of a stack of point-valued
tables, and of the tables one point move away, from the sums before the
move. Every sum below is compared with == (tobytes() for arrays) against a
full shift_sums pass over the edited table, and every score against the
full kernel. Each search is compared with the sequential oracle below:
one restart after another through gridops.climb, scoring every step by
the exact ratio of integer side sums (a Fraction of Python ints) where
the distance powers are integers, else by the cotype_functionals /
b_functionals value. The searches fall back to full evaluation when the
sums could round: non-integer distances, non-integer powers and the
sampled eps average.
"""
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotypelab import (
    GridFunction,
    TorusDomain,
    b_functionals,
    b_quantity_search,
    cotype_functionals,
    exhaustive_b,
    gamma_search,
    torus_space,
    two_point_space,
)
from cotypelab import cotype, gridops
from cotypelab.errors import (BudgetExceededError, InvariantViolationError,
                              PreconditionViolationError)
from cotypelab.gridops import (
    ShiftSums,
    climb,
    dist_power,
    family_table,
    random_point_values,
    shift_energy,
    shift_sums,
    shift_table,
)
from cotypelab.spaces import require_indices, validate_metric

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
    return shift_energy(values, space, table, p)


def moves(rng, N, K, W, steps):
    """A stack of W random tables, then steps rounds of one random move per
    table of a prefix of the stack, as the climb draws them: yields
    (tables, x, b) and applies the moves of the rows it is sent back."""
    tables = rng.integers(0, K, (W, N))
    for _ in range(steps):
        live = int(rng.integers(1, W + 1))
        x = rng.integers(0, N, live)
        b = (tables[np.arange(live), x] + rng.integers(1, max(K, 2), live)) % K
        kept = yield tables, x, b
        tables[kept, x[kept]] = b[kept]


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("p", (1.0, 2.0))
@pytest.mark.parametrize("n,m,family,amount", TABLES)
def test_edit_sequences_match_full_evaluation(name, p, n, m, family, amount):
    space = SPACES[name]
    dom = TorusDomain(n=n, m=m)
    table = family_table(dom, family, amount)
    dist_p = dist_power(space.dist, p)
    kernel = ShiftSums(dist_p, table)
    rng = np.random.default_rng([n, m, amount, int(p), space.size])
    edits = moves(rng, dom.points, space.size, 5, 40)
    tables, x, b = next(edits)
    sums = kernel(tables)
    for w, row in enumerate(tables):
        want = full_means(row, space, p, table)
        assert (sums[w] / dom.points).tobytes() == want.tobytes()
    while True:
        before, sums_before = tables.copy(), sums.copy()
        got = kernel.move(tables[:len(x)], sums[:len(x)], x, b)
        assert np.array_equal(tables, before) and np.array_equal(sums, sums_before)
        edited = tables[:len(x)].copy()
        edited[np.arange(len(x)), x] = b
        assert got.tobytes() == shift_sums(edited, dist_p, table).tobytes()
        kept = rng.random(len(x)) < 0.5
        sums[:len(x)][kept] = got[kept]
        try:
            tables, x, b = edits.send(np.flatnonzero(kept))
        except StopIteration:
            break
    assert sums.tobytes() == shift_sums(tables, dist_p, table).tobytes()


def block_scores(ratio, kernel, rng, N, K, steps):
    """((lhs, rhs_raw), tables) as the search forms them from exact sums:
    ratio.row_sides of the means of a block of tables, then of its moves."""
    edits = moves(rng, N, K, 4, steps)
    tables, x, b = next(edits)
    sums = kernel(tables)
    yield ratio.row_sides(sums / N), tables
    while True:
        edited = tables[:len(x)].copy()
        edited[np.arange(len(x)), x] = b
        moved = kernel.move(tables[:len(x)], sums[:len(x)], x, b)
        yield ratio.row_sides(moved / N), edited
        kept = np.flatnonzero(rng.random(len(x)) < 0.5)
        sums[kept] = moved[kept]
        try:
            tables, x, b = edits.send(kept)
        except StopIteration:
            return


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 2.0), (1.0, 4.0), (2.0, 4.0)])
def test_search_scores_equal_the_reports(name, p, q):
    space = SPACES[name]
    for n, m in ((1, 2), (2, 2), (2, 4), (2, 6)):
        dom = TorusDomain(n=n, m=m)
        ratio = cotype._gamma_ratio(n, m, p, q)
        kernel, _ = cotype._scorer(space, ratio, dom)
        assert isinstance(kernel, ShiftSums)
        rng = np.random.default_rng([n, m, int(p), int(q)])
        for (lhs, rhs), tables in block_scores(ratio, kernel, rng, dom.points,
                                               space.size, 15):
            for row, l, r in zip(tables, lhs.tolist(), rhs.tolist()):
                rep = cotype_functionals(GridFunction.points(dom, row), space, p, q)
                assert (l, r) == (rep.lhs, rep.rhs_raw)
                assert ratio.value(l, r) == (rep.gamma_hat, rep.degenerate)


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("ell", (2, 4))
def test_b_scores_equal_the_reports(name, ell):
    space = SPACES[name]
    for n, m in ((1, 2), (2, 4), (3, 2)):
        dom = TorusDomain(n=n, m=m)
        ratio = cotype._b_ratio(n, m, ell)
        kernel, _ = cotype._scorer(space, ratio, dom)
        assert isinstance(kernel, ShiftSums)
        rng = np.random.default_rng([n, m, ell])
        for (lhs, rhs), tables in block_scores(ratio, kernel, rng, dom.points,
                                               space.size, 15):
            for row, l, r in zip(tables, lhs.tolist(), rhs.tolist()):
                rep = b_functionals(GridFunction.points(dom, row), space, ell)
                assert (l, r) == (rep.lhs, rep.rhs_raw)
                assert ratio.value(l, r) == (rep.b_hat, rep.degenerate)


def test_one_point_space_scores_zero():
    dom = TorusDomain(n=2, m=4)
    table = family_table(dom, "edges", 2)
    kernel = ShiftSums(dist_power(ONE_POINT.dist, 2.0), table)
    values = np.zeros((3, dom.points), dtype=np.int64)
    sums = kernel(values)
    want = full_means(values[0], ONE_POINT, 2.0, table)
    assert (sums[0] / dom.points).tobytes() == want.tobytes()
    x, b = np.array([0, 5, 15]), np.zeros(3, dtype=np.int64)
    assert kernel.move(values, sums, x, b).tobytes() == sums.tobytes()


# ---------------------------------------------- the sequential oracle

def sequential_climb(dom, codomain_size, score, budget, seed, initial_values=()):
    """The restart policy as one climb after another: each restart spends
    m^n evaluations (at least 2), provided witnesses lead, constant random
    starts are resampled, and the earliest restart wins ties; when every
    restart scores -inf, the first restart's table."""
    if budget < 1:
        raise PreconditionViolationError(f"budget must be >= 1, got {budget}")
    N, K = dom.points, codomain_size
    per_restart = max(2, N)
    restarts = max(1, math.ceil(budget / per_restart))
    seeds = np.random.SeedSequence(seed).spawn(restarts)

    def reassign(rng, old):
        return (old + int(rng.integers(1, K))) % K if K > 1 else old

    best_score, best = -math.inf, None
    evals = 0
    initial = list(initial_values)
    for ri in range(restarts):
        if evals >= budget:
            break
        rng = np.random.default_rng(seeds[ri])
        if ri < len(initial):
            vals = GridFunction.points(dom, initial[ri]).values.copy()
            require_indices(vals, K)
        else:
            vals = random_point_values(dom, K, rng)
            while K > 1 and N > 1 and np.all(vals == vals[0]):
                vals = random_point_values(dom, K, rng)
        steps = min(per_restart - 1, budget - evals - 1)
        got = climb(vals, score, reassign, steps, rng)
        evals += 1 + steps
        if best is None or got > best_score:
            best_score, best = got, vals
    return best


def integer_powers(space, p):
    """The distance powers as Python ints (a two-point space's: the xor),
    or None when one is no integer."""
    if space.size == 2:
        return [[0, 1], [1, 0]]
    powers = [[float(d) ** p for d in row] for row in space.dist.tolist()]
    if all(x == int(x) for row in powers for x in row):
        return [[int(x) for x in row] for row in powers]
    return None


def exact_ratio(vals, powers, rows, n):
    """lhs_sum / rhs_sum as a Fraction (-inf when rhs_sum is 0): the integer
    powers summed over the points of the n long shifts and of the others,
    rows being shift_table(dom, shifts).tolist()."""
    v = vals.tolist()
    sums = [sum(powers[v[y]][v[x]] for x, y in enumerate(row)) for row in rows]
    lhs, rhs = sum(sums[:n]), sum(sums[n:])
    return Fraction(lhs, rhs) if rhs else -math.inf


def reference_gamma_search(space, n, m, p, q, budget, seed, initial=()):
    dom = TorusDomain(n=n, m=m)
    powers = integer_powers(space, p)
    if 3**n * dom.points > 1 << 22:  # a sampled eps average
        powers = None
    half = [[m // 2 * (i == j) for i in range(n)] for j in range(n)]
    edges = half + [[x - 1 for x in e] for e in np.ndindex(*(3,) * n)]  # zero adds 0
    rows = shift_table(dom, edges).tolist()

    def score(vals):
        if powers is not None:
            return exact_ratio(vals, powers, rows, n)
        rep = cotype_functionals(GridFunction.points(dom, vals), space, p, q)
        return -math.inf if rep.degenerate else rep.gamma_hat

    witness = GridFunction.points(
        dom, sequential_climb(dom, space.size, score, budget, seed, initial))
    return replace(cotype_functionals(witness, space, p, q),
                   seed=seed, budget=budget, witness=witness)


def reference_b_search(space, n, ell, m, budget, seed, initial=()):
    dom = TorusDomain(n=n, m=m)
    powers = integer_powers(space, 2.0)
    long = [[ell * (i == j) for i in range(n)] for j in range(n)]
    signs = long + [[2 * b - 1 for b in e] for e in np.ndindex(*(2,) * n)]
    rows = shift_table(dom, signs).tolist()

    def score(vals):
        if powers is not None:
            return exact_ratio(vals, powers, rows, n)
        rep = b_functionals(GridFunction.points(dom, vals), space, ell)
        return -math.inf if rep.degenerate else rep.b_hat

    witness = GridFunction.points(
        dom, sequential_climb(dom, space.size, score, budget, seed, initial))
    return replace(b_functionals(witness, space, ell),
                   seed=seed, budget=budget, witness=witness)


# every cell has more maps than the budget of 400, so each search climbs
EXACT_SEARCHES = [(SPACES[name], n, m, p, q) for name in sorted(SPACES)
                  for n, m, p, q in ((2, 4, 2.0, 2.0), (2, 6, 1.0, 2.0),
                                     (1, 10, 2.0, 4.0), (3, 4, 1.0, 4.0))]
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
@pytest.mark.parametrize("n,ell,m", [(2, 2, 4), (2, 4, 4), (1, 2, 2), (3, 2, 2),
                                     (1, 2, 10), (3, 2, 4)])
def test_b_search_matches_the_full_evaluation_climb(space, n, ell, m):
    # where the K^(m^n) maps fit the budget of 300 (every cell of the
    # one-point space, and the (1, 2, 2) and two-point (3, 2, 2) cells) the
    # search enumerates them, and matches the exhaustive maximum instead
    start = np.arange(m**n) % space.size
    got = b_quantity_search(space, n, ell, m, 300, 7, [start])
    if space.size ** m**n <= 300:
        want = replace(exhaustive_b(space, n, ell, m, 300), seed=7, budget=300)
    else:
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
        raise AssertionError("exact shift sums on an inexact case")

    monkeypatch.setattr(cotype, "ShiftSums", refuse)
    search()


def test_the_sampled_search_builds_no_edge_table():
    # the (3^5 + 5, 8^5) int64 edge table is 65 MB, and only the exact
    # scorer reads it; the report's own sampled evaluation peaks near 44 MB
    gridops.family_table.cache_clear()
    tracemalloc.start()
    try:
        gamma_search(SPACES["two-point"], 5, 8, 2.0, 2.0, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak


def test_exact_search_runs_one_full_pass_per_chunk(monkeypatch):
    calls = {"shift_energy": 0, "shift_sums": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cotype, "shift_energy", counted("shift_energy", shift_energy))
    monkeypatch.setattr(gridops, "shift_sums", counted("shift_sums", gridops.shift_sums))
    gamma_search(two_point_space(), 2, 6, 2.0, 2.0, 2000, 1)  # 56 restarts
    assert calls == {"shift_energy": 1, "shift_sums": 1}  # the report; the chunk
    calls.update(shift_energy=0, shift_sums=0)
    monkeypatch.setattr(cotype, "WITNESS_CHUNK", 10)
    gamma_search(two_point_space(), 2, 6, 2.0, 2.0, 2000, 1)
    assert calls == {"shift_energy": 1, "shift_sums": 6}


# ------------------------------------------------------ the exact order

SIDE = st.integers(0, 2**25)  # every cross product of two pairs below 2^50


@st.composite
def side_pairs(draw):
    """(lhs, rhs) pairs of non-negative integers: independent ones, and
    pairs of one ratio scaled by k, some nudged by one from that ratio."""
    a, b = draw(SIDE), draw(SIDE)
    pairs = [(a, b)]
    for k in draw(st.lists(st.integers(1, 2**25 // max(a, b, 1)), max_size=3)):
        nudge = draw(st.sampled_from((0, 1, -1))) if k * a > 0 else 0
        pairs.append((k * a + nudge, k * b))
    return pairs + draw(st.lists(st.tuples(SIDE, SIDE | st.just(0)), max_size=3))


def exact(lhs, rhs):
    return Fraction(lhs, rhs) if rhs else -math.inf


@settings(max_examples=400, deadline=None)
@given(side_pairs())
def test_quotients_order_and_tie_as_the_exact_ratios(pairs):
    lhs, rhs = np.array(pairs, dtype=np.float64).T
    got = cotype._quotient(lhs, rhs).tolist()
    want = [exact(a, b) for a, b in pairs]
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            assert (got[i] > got[j]) == (want[i] > want[j])
            assert (got[i] == got[j]) == (want[i] == want[j])
    assert int(np.argmax(got)) == want.index(max(want))


def test_quotients_separate_ratios_one_unit_apart():
    # near the bound, ratios one unit apart stay apart and equal ones tie
    a, b = 2**25 - 1, 2**25 - 3
    lhs = np.array([a, a + 1, 2 * a, 2 * a - 1], dtype=np.float64)
    rhs = np.array([b, b, 2 * b, 2 * b], dtype=np.float64)
    q = cotype._quotient(lhs, rhs)
    assert q[1] > q[0] == q[2] > q[3]


ENUMERATED = [  # (space, ratio, n, m): every witness ranked in Python
    (two_point_space(0.3), "b", 1, 12),  # bit planes at a non-integer gap
    (two_point_space(2.0), "gamma", 2, 2),
    (SPACES["path3"], "b", 1, 6),  # mixed radix
    (SPACES["path3"], "gamma", 1, 6),
    (validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), "gamma", 2, 2),
]


@pytest.mark.parametrize("case", range(len(ENUMERATED)))
def test_an_enumeration_reports_the_first_exact_maximiser(case):
    space, kind, n, m = ENUMERATED[case]
    dom, K = TorusDomain(n=n, m=m), space.size
    if kind == "b":
        ratio = cotype._b_ratio(n, m, 4 if m > 4 else 2)
        shifts = [[ratio.amount * (i == j) for i in range(n)] for j in range(n)] + \
            [[2 * b - 1 for b in e] for e in np.ndindex(*(2,) * n)]
    else:
        ratio = cotype._gamma_ratio(n, m, 1.0, 2.0)
        shifts = [[m // 2 * (i == j) for i in range(n)] for j in range(n)] + \
            [[x - 1 for x in e] for e in np.ndindex(*(3,) * n)]
    powers = integer_powers(space, ratio.p)
    witnesses = []
    for idx in range(K**dom.points):
        if K == 2:  # bit tables: point 0 is the lowest bit
            digits = [(idx >> k) & 1 for k in range(dom.points)]
        else:  # mixed radix: point 0 is the highest digit
            digits = [(idx // K**k) % K for k in range(dom.points - 1, -1, -1)]
        witnesses.append(np.array(digits))
    rows = shift_table(dom, shifts).tolist()
    scores = [exact_ratio(w, powers, rows, n) for w in witnesses]
    first = scores.index(max(scores))
    got = cotype._enumerate(space, dom, ratio, 1 << 20)
    assert got.values.tolist() == witnesses[first].tolist()


# ------------------------------------- a search enumerates when it fits

FITTING = [  # (space, n, m): every map of Z_m^n, by bit planes or mixed radix
    (SPACES["two-point"], 1, 8),
    (SPACES["two-point"], 2, 4),
    (SPACES["path3"], 1, 6),  # integer sums
    (UNEVEN, 1, 6),  # full evaluation
]


@pytest.mark.parametrize("case", range(len(FITTING)))
def test_a_search_that_fits_reports_the_exhaustive_maximum(case):
    space, n, m = FITTING[case]
    dom, budget = TorusDomain(n=n, m=m), space.size ** m**n
    got = gamma_search(space, n, m, 2.0, 2.0 + case, budget, 5)
    best = cotype._enumerate(space, dom, cotype._gamma_ratio(n, m, 2.0, 2.0 + case),
                             budget)
    want = cotype_functionals(best, space, 2.0, 2.0 + case)
    assert got.witness.values.tolist() == best.values.tolist()
    assert (got.gamma_hat, got.lhs, got.rhs_raw) == \
        (want.gamma_hat, want.lhs, want.rhs_raw)
    got = b_quantity_search(space, n, 2, m, budget, 5)
    want = exhaustive_b(space, n, 2, m, budget)
    assert got.to_json_dict() == replace(want, seed=5, budget=budget).to_json_dict()


def test_a_search_enumerates_at_k_to_the_n_and_climbs_one_below(monkeypatch):
    calls = []
    for name in ("_enumerate", "_climb_chunk"):
        real = getattr(cotype, name)
        monkeypatch.setattr(cotype, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    for space, n, m in FITTING:
        maps = space.size ** m**n
        for search in (lambda b: gamma_search(space, n, m, 2.0, 2.0, b, 0),
                       lambda b: b_quantity_search(space, n, 2, m, b, 0)):
            calls.clear()
            search(maps)
            assert calls == ["_enumerate"]
            calls.clear()
            search(maps - 1)
            assert set(calls) == {"_climb_chunk"}


def test_a_refused_enumeration_stands_for_the_search():
    # 3^18 maps fit the evaluation budget, not the memory budget: no climb
    with pytest.raises(BudgetExceededError, match=f"^{3**18} witnesses needs"):
        b_quantity_search(SPACES["path3"], 1, 2, 18, 3**18, 0)


# ------------------------------------------- lockstep against the oracle

def chunk_budget(N):
    """Evaluations for WITNESS_CHUNK + 2 restarts of N points, the last of
    which has no step left, so its start is scored only."""
    return (cotype.WITNESS_CHUNK + 1) * N + 1


CHUNK_BUDGET = chunk_budget(2)  # at (1, 2): 4098 restarts


def test_seed_children_spawned_in_pieces_equal_one_spawn():
    whole = np.random.SeedSequence(5).spawn(10)
    pieces = np.random.SeedSequence(5)
    parts = pieces.spawn(4) + pieces.spawn(1) + pieces.spawn(5)
    assert [s.generate_state(4).tolist() for s in parts] == \
        [s.generate_state(4).tolist() for s in whole]


@pytest.mark.parametrize("name", ["two-point", "path3", "uneven"])
def test_more_restarts_than_a_chunk(name):
    # 4098 restarts, on a cycle whose K^m maps exceed the budget
    m = 18 if name == "two-point" else 10
    budget = chunk_budget(m)
    assert SPACES.get(name, UNEVEN).size ** m > budget
    if name == "path3":
        got = b_quantity_search(SPACES[name], 1, 2, m, budget, 4)
        want = reference_b_search(SPACES[name], 1, 2, m, budget, 4)
    else:
        space, start = SPACES.get(name, UNEVEN), [[1, 0] * (m // 2)]
        got = gamma_search(space, 1, m, 2.0, 2.0, budget, 3, start)
        want = reference_gamma_search(space, 1, m, 2.0, 2.0, budget, 3, start)
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_small_chunks_match_the_oracle(monkeypatch, chunk):
    # 25 restarts at (2, 4): every chunk boundary falls inside the search
    monkeypatch.setattr(cotype, "WITNESS_CHUNK", chunk)
    for space in (SPACES["torus16"], SPACES["path3"], UNEVEN):
        start = np.arange(16) % space.size
        got = gamma_search(space, 2, 4, 1.0, 2.0, 400, chunk, [start])
        want = reference_gamma_search(space, 2, 4, 1.0, 2.0, 400, chunk, [start])
        assert got.to_json_dict() == want.to_json_dict()
        got = b_quantity_search(space, 2, 2, 4, 400, chunk)
        want = reference_b_search(space, 2, 2, 4, 400, chunk)
        assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("budget", [16 * 3 + 1, 16 * 3 + 5, 16 * 4 - 1])
def test_a_truncated_last_restart(budget):
    space = SPACES["torus16"]
    got = gamma_search(space, 2, 4, 1.0, 2.0, budget, 8)
    want = reference_gamma_search(space, 2, 4, 1.0, 2.0, budget, 8)
    assert got.to_json_dict() == want.to_json_dict()
    got = b_quantity_search(space, 2, 2, 4, budget, 9)
    want = reference_b_search(space, 2, 2, 4, budget, 9)
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("n,m,budget", [(2, 4, 100), (1, 2, CHUNK_BUDGET)])
def test_every_restart_degenerate_reports_the_first_table(n, m, budget):
    # a one-point codomain, and a two-point one from a constant start with no
    # step to leave it
    got = gamma_search(ONE_POINT, n, m, 2.0, 2.0, budget, 2)
    want = reference_gamma_search(ONE_POINT, n, m, 2.0, 2.0, budget, 2)
    assert got.degenerate and got.to_json_dict() == want.to_json_dict()
    start = [[0] * m**n]
    got = b_quantity_search(SPACES["two-point"], n, 2, m, 1, 2, start)
    want = reference_b_search(SPACES["two-point"], n, 2, m, 1, 2, start)
    assert got.degenerate and got.to_json_dict() == want.to_json_dict()


def test_the_b_ceiling_still_raises(monkeypatch):
    real = cotype._b_ratio
    monkeypatch.setattr(cotype, "_b_ratio", lambda *a: replace(real(*a), ceiling=0.5))
    space = SPACES["torus16"]
    with pytest.raises(InvariantViolationError):
        reference_b_search(space, 2, 2, 4, 300, 7)
    with pytest.raises(InvariantViolationError):
        b_quantity_search(space, 2, 2, 4, 300, 7)


def search_peak(budget):
    tracemalloc.start()
    try:
        gamma_search(two_point_space(), 1, 18, 2.0, 2.0, budget, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_search_holds_one_chunk_at_a_time(monkeypatch):
    # at (1, 18) a restart spends 18 evaluations: four chunks against one,
    # both below the 2^18 maps, after a first search has built what is
    # cached. Spawning every restart's seed up front grew the peak 1.5-fold.
    monkeypatch.setattr(cotype, "WITNESS_CHUNK", 512)
    search_peak(18 * 512)
    one = search_peak(18 * 512)
    four = search_peak(4 * 18 * 512)
    assert four < 1.25 * one, (one, four)


# ------------------------------------------------- pre-drawn climbs

def drawn_climb(rng, N, K, steps):
    """One restart's whole climb as _climb_chunk draws it: one integers call
    with alternating [0, 1] / [N, K] bounds, points only when K = 1."""
    if K > 1:
        return rng.integers(np.tile([0, 1], steps), np.tile([N, K], steps))
    return rng.integers(np.zeros(steps, dtype=np.int64), N)


def scalar_climb(rng, N, K, steps):
    """The same climb as gridops.climb draws it: a point, then an offset."""
    out = []
    for _ in range(steps):
        out.append(rng.integers(N))
        if K > 1:
            out.append(rng.integers(1, K))
    return out


@pytest.mark.parametrize("N,K", [(16, 2), (216, 3), (4, 1), (2, 2**33)])
@pytest.mark.parametrize("steps", ["none", "one", "N-1"])
def test_a_pre_drawn_climb_equals_the_alternating_scalar_draws(N, K, steps):
    # the search's report rests on this property of numpy's integers: a
    # release that changes its broadcast path fails here
    steps = {"none": 0, "one": 1, "N-1": N - 1}[steps]
    for seed in range(5):
        block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        assert drawn_climb(block, N, K, steps).tolist() == scalar_climb(scalar, N, K, steps)
        assert block.integers(2**62) == scalar.integers(2**62)  # the same state


def test_the_pre_drawn_steps_hold_less_than_the_tables():
    # one full chunk: 4096 restarts of 63 steps at (2, 8), 2 MiB of tables.
    # Drawing step by step peaked at 10.0 MiB; pre-drawn int64 draws would
    # add 4 MiB, the narrow dtype adds 0.5 MiB.
    assert cotype.WITNESS_CHUNK == 4096
    tracemalloc.start()
    try:
        gamma_search(two_point_space(), 2, 8, 2.0, 2.0, 2**18, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak / 2**20
