"""The vector kernels against the code they replaced, bit for bit.

Each oracle below keeps the evaluation that ran before the kernels worked
along long axes: the l_p norm reduced over the trailing coordinate axis,
np.roll for every shift, the cancellation check's signed sum as a complex
tensordot, and the two-point sides through the general shift-energy kernel
with an xor "distance". Every comparison is exact
(tobytes() or ==), so reports keep their bytes.
"""
import math
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotypelab import (
    GridFunction,
    NormTarget,
    TorusDomain,
    central_diff,
    check_lemma_approx,
    check_lemma_cancellation,
    check_lemma_cancellation_all,
    random_two_point_mc,
    sign_patterns,
    smoothing_apply,
    smoothing_set,
    torus_space,
    two_point_space,
)
from cotypelab import cotype, gridops, harmonic, smoothing
from cotypelab.gridops import SHIFT_BLOCK_ELEMENTS, family_table
from shift_reference import axis_shift, roll_values

# ------------------------------------------------------------- oracles


@dataclass(frozen=True)
class TrailingAxisNorm:
    """NormTarget as it was: each norm reduces over the trailing axis."""

    p: float

    def norm(self, v):
        a = np.abs(np.asarray(v))
        if a.ndim == 0:
            return a
        if math.isinf(self.p):
            return a.max(axis=-1)
        if self.p == 1:
            return a.sum(axis=-1)
        if self.p == 2:
            return np.sqrt((a * a).sum(axis=-1))
        return np.power(np.power(a, self.p).sum(axis=-1), 1.0 / self.p)

    def pairwise(self, a, b):
        return self.norm(np.asarray(a) - np.asarray(b))


def roll_central_diff(f, j):
    e = axis_shift(f.domain, j)
    return (roll_values(f.domain, f.values, e)
            - roll_values(f.domain, f.values, -e))


def roll_mean_dp(f, target, shift, p):
    d = target.pairwise(roll_values(f.domain, f.values, shift), f.values)
    return float(np.mean(d ** p)) if p != 1 else float(np.mean(d))


def roll_approx(f, target, j, k, p):
    """check_lemma_approx's (lhs, rhs) with one roll per shift."""
    dom = f.domain
    if f.is_vector:
        lhs = float(np.mean(
            target.norm(smoothing_apply(f, j, k).values - f.values) ** p))
    else:
        sset = smoothing_set(j, k, dom)
        lhs = 0.0
        for y in sset.members:
            lhs += roll_mean_dp(f, target, y, p)
        lhs /= sset.size
    ej = roll_values(dom, f.values, axis_shift(dom, j, 1))
    ej_term = float(np.mean(target.pairwise(ej, f.values) ** p))
    edge = 0.0
    for eps in sign_patterns(dom.n):
        edge += roll_mean_dp(f, target, eps, p)
    rhs = 2.0**p * k**p * (edge / 2**dom.n) + 2.0 ** (p - 1) * ej_term
    return lhs, rhs


def roll_cancellation(f, target, k, p, eps):
    """check_lemma_cancellation's (lhs, rhs) with one roll per shift."""
    dom = f.domain
    n = dom.n
    ev = np.asarray(eps, dtype=np.int64)
    diffs = np.stack([roll_central_diff(smoothing_apply(f, j, k), j)
                      for j in range(n)])
    signed = np.tensordot(ev.astype(np.complex128), diffs, axes=(0, 0))
    lhs = float(np.mean(target.norm(signed) ** p))
    fwd = roll_values(dom, f.values, ev)
    bwd = roll_values(dom, f.values, -ev)
    eps_term = float(np.mean(target.norm(fwd - bwd) ** p))
    edge_sum = 0.0
    for j in range(n):
        edge_sum += roll_mean_dp(f, target, axis_shift(dom, j, 1), p)
    rhs = (3.0 ** (p - 1) * eps_term
           + 24.0**p * n ** (2 * p - 1) / k**p * edge_sum)
    return lhs, rhs


UNIT_TWO_POINT = SimpleNamespace(pairwise=np.bitwise_xor)  # 0/1 tables


def side_sums_sides(witnesses, table, n, divisor):
    """The two-point sides through the general kernels, added as row_sides
    adds them, over one edge pattern so the rhs stays undivided: at divisor
    N the means of shift_energy_batch with an xor per entry, else the
    integer xor sums of shift_sums divided by divisor."""
    ratio = cotype._Ratio(n, "", 0, 1.0, 1, 1.0, 1.0)
    if divisor == witnesses.shape[1]:
        return ratio.row_sides(
            gridops.shift_energy_batch(witnesses, UNIT_TWO_POINT, table, 1.0))
    return ratio.row_sides(
        gridops.shift_sums(witnesses, 1.0 - np.eye(2), table) / divisor)


def rand_vec(dom, d, rng):
    return GridFunction.vector(dom, rng.standard_normal((dom.points, d))
                               + 1j * rng.standard_normal((dom.points, d)))


NORM_PS = (1.0, 1.5, 2.0, 3.0, math.inf)

# --------------------------------------------------------------- norms


@pytest.mark.parametrize("p", NORM_PS)
@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("kind", ("real", "complex"))
def test_norm_matches_the_trailing_axis_reduction(p, d, kind):
    rng = np.random.default_rng(d)
    v_shape = (3, 40, d)
    # magnitudes spread over 1e-26..1e26, so a change of order shows
    v = rng.standard_normal(v_shape) * np.exp(rng.uniform(-60, 60, v_shape))
    if kind == "complex":
        v = v + 1j * rng.standard_normal(v.shape)
    got, want = NormTarget(p=p).norm(v), TrailingAxisNorm(p).norm(v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert NormTarget(p=p).norm(v[0, 0]) == want[0, 0]  # one vector


@pytest.mark.parametrize("p", NORM_PS)
def test_norm_of_no_coordinates_is_zero(p):
    assert NormTarget(p=p).norm(np.zeros((5, 0))).tobytes() == bytes(40)


# ------------------------------------------------------------- rolls


@pytest.mark.parametrize("n,m", [(1, 6), (2, 3), (3, 4)])
@pytest.mark.parametrize("d", (1, 3))  # d = m: axis n is a valid value axis
def test_central_diff_matches_the_roll_difference(n, m, d):
    dom = TorusDomain(n=n, m=m)
    f = rand_vec(dom, d, np.random.default_rng(n * m + d))
    for j in range(n):
        got = central_diff(f, j).values
        assert got.shape == f.values.shape
        assert got.tobytes() == roll_central_diff(f, j).tobytes()
    for j in (n, -1):
        with pytest.raises(IndexError):
            central_diff(f, j)


@pytest.mark.parametrize("n,m", [(1, 6), (2, 8), (3, 6)])
def test_smoothing_checks_match_the_roll_bodies(n, m):
    dom = TorusDomain(n=n, m=m)
    rng = np.random.default_rng(10 * n + m)
    for d, norm_p in ((1, 2.0), (2, 2.0), (2, 1.0), (3, math.inf), (2, 3.0)):
        f = rand_vec(dom, d, rng)
        new, old = NormTarget(p=norm_p), TrailingAxisNorm(norm_p)
        for k in ((1, 3) if m > 6 else (1,)):
            for p in (1.0, 1.5, 2.0):
                for j in range(n):
                    chk = check_lemma_approx(f, new, j, k, p)
                    assert (chk.lhs, chk.rhs) == roll_approx(f, old, j, k, p)
                for eps in sign_patterns(n):
                    chk = check_lemma_cancellation(f, new, k, p, eps)
                    assert (chk.lhs, chk.rhs) == \
                        roll_cancellation(f, old, k, p, eps)
                every = check_lemma_cancellation_all(f, new, k, p)
                assert [(c.lhs, c.rhs) for c in every] == \
                    [roll_cancellation(f, old, k, p, e)
                     for e in sign_patterns(n)]


def test_metric_approx_matches_the_roll_body():
    dom = TorusDomain(n=2, m=8)
    space = torus_space(TorusDomain(n=1, m=5))
    rng = np.random.default_rng(5)
    f = GridFunction.points(dom, rng.integers(0, 5, dom.points))
    for j in range(2):
        for k, p in ((1, 1.0), (3, 2.0)):
            chk = check_lemma_approx(f, space, j, k, p)
            assert (chk.lhs, chk.rhs) == roll_approx(f, space, j, k, p)


def test_signed_sum_matches_the_tensordot():
    rng = np.random.default_rng(600)
    for _ in range(600):
        n, N, d = int(rng.integers(1, 5)), int(rng.integers(1, 1001)), int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-5, 5)
        diffs = scale * (rng.standard_normal((n, N, d))
                         + 1j * rng.standard_normal((n, N, d)))
        eps = rng.choice((-1, 1), size=n)
        want = np.tensordot(eps.astype(np.complex128), diffs, axes=(0, 0))
        assert smoothing._signed_sum(eps, diffs).tobytes() == want.tobytes()


# ------------------------------------------------------- bit planes


def side_sums_scores(n, m, family, amount):
    """_quotient of the integer side sums (side_sums_sides at divisor 1) of
    every two-point witness on Z_m^n, by index: -inf where rhs is 0."""
    dom = TorusDomain(n=n, m=m)
    rows = cotype._bit_rows(0, 2**dom.points, dom.points)
    lhs, rhs = side_sums_sides(rows, family_table(dom, family, amount), n, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs > 0, lhs / rhs, -np.inf)


@pytest.mark.parametrize("n,m", [(4, 2), (2, 4), (1, 20), (1, 18), (3, 2)])
def test_bit_plane_sides_match_side_sums(n, m):
    # the planes hold integer counts at divisor 1 and the means of the
    # general kernel at divisor N, and the streamed winner is the first
    # maximiser of the counts' quotients over every witness
    dom = TorusDomain(n=n, m=m)
    rows = cotype._bit_rows(0, 2**dom.points, dom.points)
    families = [("edges", m // 2)] + [("signs", 2)] * (dom.points <= 16)
    for family, amount in families:
        table = family_table(dom, family, amount)
        for divisor in (1, dom.points):
            got = cotype._xor_sides(rows, table, n, divisor)
            want = side_sums_sides(rows, table, n, divisor)
            assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
            assert divisor > 1 or all(np.array_equal(s, np.round(s)) for s in got)
        assert cotype._two_point_winner(n, m, family, amount) == int(
            np.argmax(side_sums_scores(n, m, family, amount)))


# every torus of at most 16 points, and the one-point torus Z_1
SMALL_TORI = [(1, 1)] + [(n, m) for n in range(1, 5) for m in range(2, 17, 2)
                         if m**n <= 16]
_SCORES = {}


@pytest.mark.parametrize("n,m", SMALL_TORI)
@pytest.mark.parametrize("family", ("edges", "signs"))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_the_streamed_winner_is_the_first_full_range_maximiser(n, m, family,
                                                               data):
    # gamma's half-circumference edges, or b's signs at an even shift
    amount = m // 2 if family == "edges" else data.draw(
        st.sampled_from(range(2, max(m, 2) + 1, 2)), label="ell")
    key = (n, m, family, amount)
    if key not in _SCORES:
        _SCORES[key] = side_sums_scores(*key)
    scores, N = _SCORES[key], m**n
    half = 2 ** (N - 1)
    # blocks of one witness up to one block for them all, at most 64 blocks
    step = data.draw(st.integers(max(1, -(-half // 64)), half + 1), label="step")
    cap = data.draw(st.integers(max(1, step * N), step * N + N - 1), label="cap")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cotype, "SHIFT_BLOCK_ELEMENTS", cap)
        got = cotype._two_point_winner.__wrapped__(*key)
    assert got == int(np.argmax(scores))
    # the stream never reads the upper half, where each maximum's
    # complement ties it; the constant witness 0 scores -inf, and so does
    # every witness of Z_1
    assert got < half and scores[-1 - got] == scores[got]
    assert scores[0] == -np.inf and (N > 1 or scores.tolist() == [-np.inf] * 2)


@pytest.mark.parametrize("m", (16, 20))
def test_the_enumeration_peak_is_one_block_whatever_the_witness_count(m):
    # 2^16 and 2^20 witnesses under one bound: only a block is held at once
    dom = TorusDomain(n=1, m=m)
    ratio = cotype._gamma_ratio(1, m, 2.0, 2.0)
    ratio.table(dom)  # the cached shift table is built outside the trace
    cotype._two_point_winner.cache_clear()
    tracemalloc.start()
    try:
        cotype._enumerate(two_point_space(), dom, ratio, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * SHIFT_BLOCK_ELEMENTS, peak  # a block's entries at 8 bytes


@pytest.mark.parametrize("cap", (1, 17, 48, 200, 1 << 12))
def test_bit_plane_blocks_do_not_change_values(monkeypatch, cap):
    # N = 36 is no power of two, so the order of the adds shows
    dom = TorusDomain(n=2, m=6)
    rows = np.random.default_rng(cap).integers(0, 2, (333, dom.points),
                                               dtype=np.uint8)
    table = family_table(dom, "edges", 3)
    want = [side_sums_sides(rows, table, 2, d) for d in (1, dom.points)]
    monkeypatch.setattr(cotype, "SHIFT_BLOCK_ELEMENTS", cap)
    for divisor, sides in zip((1, dom.points), want):
        got = cotype._xor_sides(rows, table, 2, divisor)
        assert [s.tobytes() for s in got] == [s.tobytes() for s in sides]


@pytest.mark.parametrize("n,m,trials", [(2, 4, 5000), (2, 10, 5000), (1, 2, 7)])
def test_random_two_point_mc_matches_side_sums(monkeypatch, n, m, trials):
    got = random_two_point_mc(n, m, 2.0, 2.0, trials, 13)
    divisors = []

    def means(witnesses, table, n, divisor):
        divisors.append(divisor)
        return side_sums_sides(witnesses, table, n, divisor)

    monkeypatch.setattr(cotype, "_xor_sides", means)
    assert got == random_two_point_mc(n, m, 2.0, 2.0, trials, 13)
    assert set(divisors) == {m**n}


def test_bit_plane_temporaries_stay_within_a_block():
    # at most three uint8 arrays of one block each are alive at once (the
    # last block's planes and xor while the next planes are copied), with
    # per-shift counts and means of 9/N of one block
    dom = TorusDomain(n=4, m=2)
    N = dom.points
    rows = np.ascontiguousarray(cotype._bit_rows(0, 2**N, N))
    table = family_table(dom, "edges", 1)
    assert rows.nbytes >= 4 * SHIFT_BLOCK_ELEMENTS  # several blocks
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lhs, rhs = cotype._xor_sides(rows, table, dom.n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - base - lhs.nbytes - rhs.nbytes
    assert held <= (3 + 9 / N) * SHIFT_BLOCK_ELEMENTS + (1 << 15)


# ---------------------------------------------------------- witness memo


def assert_checks_match(f, norm_p, dim, k, rng):
    """A random approximation and cancellation check of f, at p = 1 then
    p = 2, against the roll bodies."""
    n = f.domain.n
    new, old = NormTarget(p=norm_p, dim=dim), TrailingAxisNorm(norm_p)
    j, eps = int(rng.integers(n)), sign_patterns(n)[rng.integers(2**n)]
    for p in (1.0, 2.0):
        chk = check_lemma_approx(f, new, j, k, p)
        assert (chk.lhs, chk.rhs) == roll_approx(f, old, j, k, p)
        chk = check_lemma_cancellation(f, new, k, p, eps)
        assert (chk.lhs, chk.rhs) == roll_cancellation(f, old, k, p, eps)


def edit(values, count, rng):
    """Change count random points of values in place (all when count < 0),
    some of them to signed zeros."""
    pts = np.arange(len(values)) if count < 0 else \
        rng.choice(len(values), count, replace=False)
    parts = rng.standard_normal((2, len(pts), values.shape[1]))
    parts[:, rng.random(len(pts)) < 0.3] = 0.0
    values[pts] = np.copysign(parts[0], rng.random(parts[0].shape) - 0.5) \
        + 1j * np.copysign(parts[1], rng.random(parts[1].shape) - 0.5)


@pytest.mark.parametrize("n,m,k", [(1, 6, 1), (2, 8, 3), (3, 6, 1), (1, 130, 3)])
@pytest.mark.parametrize("norm_p,d", [(2.0, 2), (1.0, 1), (math.inf, 3), (3.0, 2)])
def test_memo_edit_sequences_match_the_roll_bodies(n, m, k, norm_p, d):
    # 0, 1, 2 (a climb's revert and move), 3 and all points changed, in
    # place between calls, so every check meets a hit, an update or a rebuild
    dom = TorusDomain(n=n, m=m)
    rng = np.random.default_rng(7 * n + m)
    values = rand_vec(dom, d, rng).values
    f = GridFunction(dom, values)
    for count in (0, 1, 2, 0, 3, 1, -1, 2, 2, 1):
        edit(values, count, rng)
        assert_checks_match(f, norm_p, 0, k, rng)


def test_memo_follows_interleaved_witnesses_and_keys():
    rng = np.random.default_rng(11)
    dom = TorusDomain(n=2, m=8)
    f, g = rand_vec(dom, 2, rng), rand_vec(dom, 2, rng)
    for _ in range(6):
        edit(f.values, 1, rng)
        assert_checks_match(f, 2.0, 0, 1, rng)
        assert_checks_match(g, 2.0, 0, 3, rng)  # another witness and k
        assert_checks_match(g, 2.0, 2, 3, rng)  # another target dim
        assert_checks_match(f, 1.0, 0, 1, rng)  # another target p
    # the same table read on three domains of 16 points
    values = rand_vec(TorusDomain(n=4, m=2), 2, rng).values
    for shape in ((1, 16), (2, 4), (1, 16)):
        dom = TorusDomain(n=shape[0], m=shape[1])
        assert_checks_match(GridFunction(dom, values), 2.0, 0, 1, rng)
        edit(values, 1, rng)


def test_memo_sees_a_zero_change_sign():
    # -0.0 and 0.0 give the same distances, so only the held copy shows
    # that the change was seen
    dom = TorusDomain(n=2, m=6)
    values = np.zeros((dom.points, 2), dtype=np.complex128)
    f = GridFunction(dom, values)
    norm = NormTarget(p=2.0)
    check_lemma_cancellation(f, norm, 1, 2.0, [1, 1])
    values[5, 1] = complex(-0.0, 0.0)
    values[9, 0] = complex(0.0, -0.0)
    check_lemma_approx(f, norm, 1, 1, 2.0)
    held = smoothing._MEMO.witness.values
    assert held.tobytes() == values.tobytes() and held is not values
    assert np.signbit(held[5, 1].real) and np.signbit(held[9, 0].imag)


MEMO_MAX_M = {1: 24, 2: 12, 3: 9, 4: 7}  # at most 2,401 points


def assert_memo_is_fresh(w):
    """Every array the memo w holds equals a fresh build from its values."""
    dom, k, v = w.dom, w.k, w.values
    for j, layers in w.layers.items():
        axes = smoothing._window_axes(j, k, dom)
        fresh = harmonic._window_layers(dom, v, axes)[1:]
        assert [a.tobytes() for a in layers] == [a.tobytes() for a in fresh]
        average = smoothing_apply(GridFunction(dom, v), j, k)
        assert layers[-1].tobytes() == average.values.tobytes()
    if w.diff is not None:
        for j, diff in enumerate(w.diff):
            average = smoothing_apply(GridFunction(dom, v), j, k)
            assert diff.tobytes() == central_diff(average, j).values.tobytes()
    if w.rows is not None:
        fresh = smoothing._Witness(w.key, v).distances()
        assert w.rows.tobytes() == fresh.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_memo_arrays_after_any_moves_match_fresh_builds(data):
    # 0, 1 and 2 moved points update the memo, 3 and all rebuild it; between
    # moves the checks ask for some A_j f, perhaps all with their central
    # differences, with or without the distance rows (a point-valued
    # witness for its rows alone), so the held set grows and restacks
    n = data.draw(st.integers(1, 4), "n")
    m = data.draw(st.integers(3, MEMO_MAX_M[n]), "m")
    k = data.draw(st.sampled_from(range(1, (m + 1) // 2, 2)), "k")
    d = data.draw(st.sampled_from([1, 2, 3]), "d")
    points = data.draw(st.booleans(), "points")
    counts = data.draw(st.lists(st.sampled_from([0, 1, 2, 3, -1]), min_size=1,
                                max_size=6), "counts")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    dom = TorusDomain(n=n, m=m)
    if points:
        target, values = torus_space(TorusDomain(n=1, m=5)), np.zeros(dom.points, int)
    else:
        target, values = NormTarget(p=2.0), np.zeros((dom.points, d), complex)
    f = GridFunction(dom, values)
    for count in [-1] + counts:
        count = min(count, dom.points)
        if points:
            pts = np.arange(dom.points) if count < 0 else rng.choice(dom.points, count)
            values[pts] = rng.integers(0, 5, len(pts))
        else:
            edit(values, count, rng)
        w = smoothing._witness(f, target, k)
        assert w.values.tobytes() == values.tobytes()
        for j in [] if points else sorted(data.draw(st.sets(st.integers(0, n - 1)))):
            w.average(j)
        if not points and data.draw(st.booleans(), "diffs"):
            w.diffs()
        if points or data.draw(st.booleans(), "rows"):
            w.distances()
        assert_memo_is_fresh(w)


def test_memo_holds_its_arrays_and_the_delta_rows_after_a_move():
    # n^2 axis sums of the A_j f (the last of each being A_j f), n central
    # differences, the held values and the distance rows, plus the cached
    # delta rows; moves add nothing that stays
    dom, k = TorusDomain(n=3, m=10), 3
    rng = np.random.default_rng(5)
    values = rand_vec(dom, 2, rng).values
    f, target = GridFunction(dom, values), NormTarget(p=2.0)

    def climb():
        w = smoothing._witness(f, target, k)
        w.diffs(), w.distances()
        for _ in range(3):
            edit(values, 1, rng)
            assert smoothing._witness(f, target, k) is w
            w.diffs(), w.distances()
        return w

    climb()  # imports and cached shift tables
    smoothing._MEMO.witness = None
    smoothing._window_plan.cache_clear()
    smoothing._row_deltas.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        w = climb()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    deltas = sum(a.nbytes for a in smoothing._window_plan(dom, k, (0, 1, 2), True)[:2])
    deltas += sum(a.nbytes for a in smoothing._row_deltas(dom))
    bound = (dom.n**2 + dom.n + 1) * values.nbytes + w.rows.nbytes + deltas
    assert held <= bound + (1 << 15)


def reference_climb(dom, sides, steps, seed):
    """The adversarial climb with every step scored by sides(f) -> (lhs, rhs)."""
    rng = np.random.default_rng(seed)
    values = smoothing.random_vector_values(dom, smoothing.ADVERSARIAL_DIM, rng)
    f = GridFunction(dom, values)
    scores = []

    def margin(_):
        lhs, rhs = sides(f)
        scores.append(lhs - rhs)
        return scores[-1]

    def nudge(rng, old):
        return old + 0.7 * (rng.standard_normal(smoothing.ADVERSARIAL_DIM)
                            + 1j * rng.standard_normal(smoothing.ADVERSARIAL_DIM))

    gridops.climb(values, margin, nudge, steps, rng)
    return sides(f), scores


def recorded_climb(monkeypatch, search):
    """Run search, recording every score its climb computes."""
    scores = []

    def climb(values, score, *args):
        return gridops.climb(values, lambda v: scores.append(score(v)) or scores[-1],
                             *args)

    monkeypatch.setattr(smoothing, "climb", climb)
    chk = search()
    return (chk.lhs, chk.rhs), scores


@pytest.mark.parametrize("n,m,k,p,seed", [(1, 6, 1, 1.0, 3), (2, 8, 3, 2.0, 4),
                                          (3, 6, 1, 2.0, 5)])
def test_adversarial_searches_match_a_reference_climb(monkeypatch, n, m, k, p, seed):
    dom = TorusDomain(n=n, m=m)
    norm, old = NormTarget(p=2.0), TrailingAxisNorm(2.0)
    j, eps = n - 1, sign_patterns(n)[seed % 2**n]
    got = recorded_climb(monkeypatch, lambda: smoothing.adversarial_approx_search(
        n, m, j, k, p, norm, steps=30, seed=seed))
    assert got == reference_climb(
        dom, lambda f: roll_approx(f, old, j, k, p), 30, seed)
    got = recorded_climb(monkeypatch, lambda: smoothing.adversarial_cancellation_search(
        n, m, k, p, eps, norm, steps=30, seed=seed))
    assert got == reference_climb(
        dom, lambda f: roll_cancellation(f, old, k, p, eps), 30, seed)
