import dataclasses
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from cotypelab import (
    BudgetExceededError,
    GridFunction,
    HypothesisFailedError,
    NormTarget,
    PreconditionViolationError,
    TorusDomain,
    VSet,
    coarse_obstruction_check,
    diag_distance,
    diag_geodesic_through,
    distortion,
    extract_grid,
    frechet_cycle,
    grid_lower_bound_check,
    grid_to_torus,
    points_space,
    snowflake,
    sparse_anchors,
    sparse_frechet_cycle,
    torus_space,
    torus_to_grid_full,
    two_point_space,
)
from cotypelab import embeddings, spaces
from cotypelab.gridops import family_table
from cotypelab.spaces import FiniteMetricSpace
from shift_reference import axis_shift, roll_values


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_frechet_cycle_is_isometric(m):
    rec = frechet_cycle(m)
    assert rec.distortion == pytest.approx(1.0, rel=1e-12)
    assert rec.source_size == 2 * m
    with pytest.raises(PreconditionViolationError):
        frechet_cycle(0)


def test_grid_inclusion_is_isometric():
    rec = grid_to_torus(2, 2)
    assert rec.distortion == pytest.approx(1.0, rel=1e-12)
    assert rec.source_size == 9
    # the grid {0..40}^3 has 68,921 points: about 76 s of distortion scan
    with pytest.raises(BudgetExceededError, match="^a distortion scan of 68921 points"):
        grid_to_torus(40, 3)


def test_torus_profile_is_isometric():
    rec = torus_to_grid_full(2, 2)
    assert rec.distortion == pytest.approx(1.0, rel=1e-12)
    assert rec.source_size == 16


class TestSparseProfiles:
    def test_anchor_layout(self):
        a = sparse_anchors(16, 0.25)
        np.testing.assert_array_equal(a, [0, 6, 12, 19, 25])
        gaps = np.diff(np.append(a, a[0] + 32))
        assert gaps.max() <= 2 * 0.25 * 16

    def test_two_anchor_case_avoids_antipodes(self):
        a = sparse_anchors(8, 1.0)
        np.testing.assert_array_equal(a, [0, 5])
        # the would-be antipodal pair {0, m} cannot separate x from -x
        rec = sparse_frechet_cycle(8, 1.0)
        assert rec.distortion <= 1.0 + 6.0

    def test_eps_validation(self):
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(PreconditionViolationError):
                sparse_anchors(8, eps)

    @pytest.mark.parametrize("m,eps", [(8, 0.5), (8, 0.25), (16, 0.5),
                                       (16, 0.25)])
    def test_distortion_bound(self, m, eps):
        rec = sparse_frechet_cycle(m, eps)
        assert rec.distortion <= 1.0 + 6.0 * eps

    def test_frozen_instance(self):
        rec = sparse_frechet_cycle(16, 0.25)
        assert rec.distortion == pytest.approx(4.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1, 1e-6])
    def test_repeated_anchors_change_no_bit(self, eps, monkeypatch):
        # the profile keeps each distinct anchor once (8 of the 11 and of the
        # 1,000,001 anchors at m = 4); the sup over every anchor, repeats
        # kept, is the same integer, so its table and record keep their bits
        m, targets, measure = 4, [], embeddings.distortion
        monkeypatch.setattr(embeddings, "distortion",
                            lambda f, s, t: targets.append(t) or measure(f, s, t))
        rec = sparse_frechet_cycle(m, eps)
        anchors, sup = sparse_anchors(m, eps), np.zeros((2 * m, 2 * m), np.int64)
        for c in range(0, anchors.size, 1 << 15):  # 16 MB of gaps a block
            gap = np.abs(np.arange(2 * m)[:, None] - anchors[None, c:c + (1 << 15)])
            col = np.minimum(gap, 2 * m - gap)
            np.maximum(sup, np.abs(col[:, None] - col[None]).max(axis=2), out=sup)
        dist = sup.astype(np.float64)
        assert targets[0].coords.shape == (2 * m, np.unique(anchors).size)
        assert targets[0].dist.tobytes() == dist.tobytes()
        want = distortion(np.arange(2 * m), torus_space(TorusDomain(n=1, m=2 * m)),
                          FiniteMetricSpace(labels=tuple(range(2 * m)), dist=dist))
        for field in dataclasses.fields(rec):
            assert np.asarray(getattr(rec, field.name)).tobytes() == \
                np.asarray(getattr(want, field.name)).tobytes(), field.name


class TestVSet:
    def test_members_small(self):
        v = VSet.of(4, 2)
        got = {tuple(row) for row in v.members}
        assert got == {(0, 0), (0, 2), (2, 0), (2, 2)}

    def test_membership_predicate(self):
        v = VSet.of(8, 2)
        assert [0, 4] in v
        assert [2, 2] in v
        assert [1, 2] not in v   # odd coordinate
        assert [0, 6] not in v   # beyond s/2
        assert [0, -2] not in v

    def test_scale_validation(self):
        for s in (2, 3, 6, 0):
            with pytest.raises(PreconditionViolationError):
                VSet.of(s, 2)


class TestDiagGeodesic:
    dom = TorusDomain(n=2, m=8)

    @pytest.mark.parametrize("x,y", [((0, 0), (2, 2)), ((0, 2), (2, 0)),
                                     ((0, 0), (0, 2)), ((0, 0), (0, 0))])
    def test_walk_certificate(self, x, y):
        s = 4
        path = diag_geodesic_through(x, y, s, self.dom)
        assert path.length == s
        # every step is fully diagonal
        steps = path.steps.astype(np.int64)
        for a, b in zip(steps, steps[1:]):
            d = (b - a) % self.dom.m
            assert all(v in (1, self.dom.m - 1) for v in d)
        # starts at one endpoint, passes the other at the advertised step
        start = tuple(steps[0])
        assert start in (x, y)
        other = y if start == x else x
        assert tuple(steps[path.through_index]) == other
        # ends at start + s e_j
        want_end = np.array(start)
        want_end[path.j] += s
        np.testing.assert_array_equal(steps[-1], want_end % self.dom.m)

    def test_prefix_is_minimal(self):
        # the through-step count equals the BFS distance
        for x, y in [((0, 0), (2, 2)), ((0, 2), (2, 0)), ((2, 0), (0, 2))]:
            path = diag_geodesic_through(x, y, 4, self.dom)
            assert path.through_index == diag_distance(self.dom,
                                                       np.array(x),
                                                       np.array(y))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [4, 8, 12])
    @pytest.mark.parametrize("extra", [0, 4])
    def test_closed_form_walk_on_every_pair(self, n, s, extra):
        dom = TorusDomain(n=n, m=2 * s + extra)
        members = VSet.of(s, n).members
        for x in members:
            for y in members:
                path = diag_geodesic_through(x, y, s, dom)
                steps = path.steps
                assert steps.shape == (s + 1, n)
                assert steps.min() >= 0 and steps.max() < dom.m
                diffs = np.diff(steps, axis=0) % dom.m
                assert np.all((diffs == 1) | (diffs == dom.m - 1))
                gaps = np.abs(y - x)
                assert path.j == int(np.argmax(gaps))
                assert path.through_index == int(gaps.max())
                if not np.array_equal(x, y):
                    assert path.through_index == diag_distance(dom, x, y)
                start = steps[0]
                assert np.array_equal(start, x) or np.array_equal(start, y)
                other = y if np.array_equal(start, x) else x
                np.testing.assert_array_equal(steps[path.through_index], other)
                want_end = start.copy()
                want_end[path.j] += s
                np.testing.assert_array_equal(steps[-1], want_end % dom.m)

    def test_validation(self):
        with pytest.raises(PreconditionViolationError):
            diag_geodesic_through((0, 0), (2, 2), 6, self.dom)
        with pytest.raises(PreconditionViolationError):
            diag_geodesic_through((0, 0), (2, 2), 4, TorusDomain(n=2, m=6))
        with pytest.raises(PreconditionViolationError):
            diag_geodesic_through((1, 0), (2, 2), 4, self.dom)


class TestExtractGrid:
    dom = TorusDomain(n=2, m=8)

    def test_identity_witness_yields_isometry(self):
        ident = GridFunction.points(self.dom, np.arange(self.dom.points))
        rec, report = extract_grid(ident, torus_space(self.dom), 4)
        assert rec.distortion <= 1.0 + 1e-9
        assert report["eta"] <= 1e-12
        assert report["s"] == 4
        assert rec.source_size == 4  # the {0,1}^2 sub-box at s=4

    def test_snowflaked_witness_loses_isometry(self):
        # halving the exponent bends long distances; at s = 8 the
        # recovered box spans two scales, so the bend becomes visible
        dom = TorusDomain(n=2, m=16)
        ident = GridFunction.points(dom, np.arange(dom.points))
        from cotypelab import snowflake
        rec, report = extract_grid(ident, snowflake(torus_space(dom), 0.5),
                                   8)
        assert rec.distortion == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert 0.0 < report["eta"] < 1.0

    def test_constant_witness_rejected(self):
        const = GridFunction.points(self.dom,
                                    np.zeros(self.dom.points, dtype=np.int64))
        with pytest.raises(HypothesisFailedError) as ei:
            extract_grid(const, torus_space(self.dom), 4)
        assert ei.value.eta == 1.0

    def test_norm_valued_witness(self):
        coords = self.dom.coords()
        vals = np.exp(2j * np.pi * coords / self.dom.m)
        f = GridFunction.vector(self.dom, vals)
        from cotypelab import NormTarget
        rec, report = extract_grid(f, NormTarget(p=2.0), 4)
        assert rec.distortion >= 1.0
        assert 0.0 <= report["eta"] < 1.0

    def test_scale_guard(self):
        ident = GridFunction.points(self.dom, np.arange(self.dom.points))
        with pytest.raises(PreconditionViolationError):
            extract_grid(ident, torus_space(self.dom), 8)  # m < 2s

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_point_values_outside_the_codomain_are_refused(self, bad):
        vals = np.arange(self.dom.points)
        vals[5] = bad
        f = GridFunction.points(self.dom, vals)
        with pytest.raises(PreconditionViolationError,
                           match=f"value {bad} at point 5 is not a point index"):
            extract_grid(f, torus_space(self.dom), 4)


def pairwise_row_table(values, target):
    """Reference for extract_grid's target space on vector values: the
    (k, k) table of target.pairwise one row at a time, symmetrised, with a
    zero diagonal."""
    k = len(values)
    table = np.zeros((k, k))
    for i in range(k):
        table[i] = target.pairwise(np.broadcast_to(values[i], values.shape),
                                   values)
    table = (table + table.T) / 2.0
    np.fill_diagonal(table, 0.0)
    return table


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_points_space_matches_the_row_table_bit_for_bit(p):
    # k = (s/4 + 1)^n members of V at (n, s) = (2, 4), (3, 8), (4, 8), (3, 16)
    rng = np.random.default_rng(int(p) if math.isfinite(p) else 0)
    target = NormTarget(p=p)
    for scale in 10.0 ** np.arange(-3, 4):
        for k, d in ((4, 1), (27, 2), (81, 3), (125, 2)):
            values = scale * (rng.standard_normal((k, d))
                              + 1j * rng.standard_normal((k, d)))
            got = points_space(values, p).dist
            assert got.tobytes() == pairwise_row_table(values, target).tobytes()
    # and extract_grid measures its recovered box in that space
    dom = TorusDomain(n=2, m=16)
    f = GridFunction.vector(dom, rng.standard_normal((dom.points, 2))
                            + 1j * rng.standard_normal((dom.points, 2)))
    rec, report = extract_grid(f, target, 8)
    members = VSet.of(8, 2).members
    box = (np.array(report["y0"]) + np.array(report["sigma"]) * members) % 16
    values = f.values[np.ravel_multi_index(tuple(box.T), dom.shape)]
    k = len(values)
    want = distortion(np.arange(k), points_space(members // 2, math.inf),
                      FiniteMetricSpace(labels=tuple(map(str, range(k))),
                                        dist=pairwise_row_table(values, target)))
    assert (rec.lip, rec.colip, rec.lip_pair, rec.colip_pair) == \
        (want.lip, want.colip, want.lip_pair, want.colip_pair)


def _balanced_sign_rows(s):
    """All {-1,1} rows of length s summing to zero, as a (C(s,s/2), s) array."""
    rows = []
    for pos in combinations(range(s), s // 2):
        row = -np.ones(s, dtype=np.int64)
        row[list(pos)] = 1
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def path_walk_defects(f, target, s):
    """Reference for embeddings._geodesic_defects: walks every balanced
    path, rolling the whole table once per step."""
    dom = f.domain
    n = dom.n
    N = dom.points
    balanced = _balanced_sign_rows(s)  # (paths_per_axis, s)
    defect = np.zeros(N)
    for j in range(n):
        for sign in (1, -1):
            base = target.pairwise(
                roll_values(dom, f.values, axis_shift(dom, j, sign * s)),
                f.values,
            ).astype(np.float64) / s
            index_rest = [ax for ax in range(n) if ax != j]
            pattern_sets = np.meshgrid(
                *([np.arange(balanced.shape[0])] * len(index_rest)),
                indexing="ij",
            )
            combos = (np.stack([g.ravel() for g in pattern_sets], axis=-1)
                      if index_rest else np.zeros((1, 0), dtype=np.int64))
            for combo in combos:
                offsets = np.zeros((s + 1, n), dtype=np.int64)
                offsets[1:, j] = sign * np.arange(1, s + 1)
                for ax, pat in zip(index_rest, combo):
                    offsets[1:, ax] = np.cumsum(balanced[pat])
                prev = f.values
                for ell in range(1, s + 1):
                    curv = roll_values(dom, f.values, offsets[ell])
                    d = target.pairwise(curv, prev).astype(np.float64)
                    defect += (d - base) ** 2
                    prev = curv
    return defect


def padded_defects(f, target, s, edge):
    """Reference for embeddings._geodesic_defects, bit for bit: the same
    transition sum, its windows read from a float64 copy of the edge
    table padded cyclically by s with np.pad, a fresh array a term."""
    dom = f.domain
    n, m = dom.n, dom.m
    pad = np.pad(edge.astype(np.float64).reshape((len(edge),) + dom.shape),
                 [(0, 0)] + [(s, s)] * n, mode="wrap")
    defect = np.zeros(dom.shape)
    for j in range(n):
        rest = [ax for ax in range(n) if ax != j]
        for sign in (1, -1):
            far = family_table(dom, "axes", sign * s)[j]
            base = target.pairwise(f.values[far], f.values).astype(
                np.float64).reshape(dom.shape) / s
            for ell in range(1, s + 1):
                for combo in product(embeddings._axis_transitions(s, ell),
                                     repeat=n - 1):
                    offset = [sign * (ell - 1)] * n
                    step = [sign] * n
                    weight = 1
                    for ax, (u, e, count) in zip(rest, combo):
                        offset[ax], step[ax] = u, e
                        weight *= count
                    row = sum((e > 0) << (n - 1 - ax) for ax, e in enumerate(step))
                    term = pad[(row,) + tuple(slice(s + o, s + o + m)
                                              for o in offset)] - base
                    term *= term
                    term *= float(weight)
                    defect += term
    return defect.ravel()


def _point_witness(kind, dom, rng):
    """Identity, a random isometry x -> sigma * x[perm] + t, or a random
    bijection of Z_m^n, as a point-valued witness into torus_space(dom)."""
    if kind == "identity":
        values = np.arange(dom.points)
    elif kind == "isometry":
        sigma = rng.choice([-1, 1], size=dom.n)
        t = rng.integers(0, dom.m, size=dom.n)
        moved = (sigma * dom.coords()[:, rng.permutation(dom.n)] + t) % dom.m
        values = moved @ (dom.m ** np.arange(dom.n - 1, -1, -1))
    else:
        values = rng.permutation(dom.points)
    return GridFunction.points(dom, values)


# (n, m, s) with m = 2s; the path walk costs C(s,s/2)^(n-1) rolls per step,
# so the largest sizes compare the random witness only
SMALL_SCALES = [(1, 8, 4), (1, 16, 8), (1, 24, 12), (2, 8, 4), (2, 16, 8),
                (3, 8, 4)]
LARGE_SCALES = [(2, 24, 12), (4, 8, 4)]
DEFECT_CASES = ([(n, m, s, kind) for n, m, s in SMALL_SCALES
                 for kind in ("identity", "isometry", "random")]
                + [(n, m, s, "random") for n, m, s in LARGE_SCALES])


def _defect_case(n, m, s, kind):
    dom = TorusDomain(n=n, m=m)
    rng = np.random.default_rng([n, m, s])
    if kind == "snowflake":
        f = GridFunction.points(dom, np.arange(dom.points))
        return f, snowflake(torus_space(dom), 0.5)
    if kind == "vector":
        return (GridFunction.vector(dom, rng.standard_normal((dom.points, 2))
                                    + 1j * rng.standard_normal((dom.points, 2))),
                NormTarget(p=2.0))
    return _point_witness(kind, dom, rng), torus_space(dom)


class TestGeodesicDefects:
    @pytest.mark.parametrize(
        "n,m,s,kind",
        DEFECT_CASES + [(2, 16, 8, "snowflake"), (3, 8, 4, "snowflake"),
                        (2, 16, 8, "vector"), (3, 8, 4, "vector"),
                        # m > 2s, where x + s e_j and x - s e_j differ
                        (2, 12, 4, "random"), (2, 12, 4, "vector")])
    def test_transition_sum_matches_the_path_walk(self, n, m, s, kind,
                                                  monkeypatch):
        f, space = _defect_case(n, m, s, kind)
        edge = embeddings._edge_table(f, space)
        got = embeddings._geodesic_defects(f, space, s, edge)
        # the wrapped gather keeps every bit of the padded sum
        assert got.tobytes() == padded_defects(f, space, s, edge).tobytes()
        want = path_walk_defects(f, space, s)
        if kind in ("identity", "isometry"):
            assert not want.any() and not got.any()  # exact zeros
        else:
            assert want.max() > 0
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * want.max())
        # the extraction outcome does not depend on the summation order
        rec, report = extract_grid(f, space, s)
        monkeypatch.setattr(embeddings, "_geodesic_defects",
                            lambda *args: want)
        ref_rec, ref_report = extract_grid(f, space, s)
        for key in ("x0", "y0", "sigma", "distortion"):
            assert report[key] == ref_report[key], key
        assert rec.distortion == ref_rec.distortion

    def test_extraction_at_4_8_4_peaks_below_the_padded_copy(self):
        # an s-padded float64 copy of the edge table alone (padded_defects')
        # is 16 * 16^4 * 8 B = 8 MiB, and the extraction that made one peaked
        # at 11.66 MiB traced; with the (s - 1)-wrapped gather it peaks at 6.21
        dom = TorusDomain(n=4, m=8)
        f, space = GridFunction.points(dom, np.arange(dom.points)), torus_space(dom)
        family_table.cache_clear()
        tracemalloc.start()
        try:
            rec, _ = extract_grid(f, space, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.distortion == 1.0
        assert peak < 8 << 20, peak

    @pytest.mark.parametrize("n,m,s", LARGE_SCALES + [(3, 16, 8)])
    def test_isometric_witnesses_give_exact_zeros(self, n, m, s):
        dom = TorusDomain(n=n, m=m)
        target = torus_space(dom)
        rng = np.random.default_rng(s)
        for kind in ("identity", "isometry"):
            f = _point_witness(kind, dom, rng)
            edge = embeddings._edge_table(f, target)
            assert not embeddings._geodesic_defects(f, target, s, edge).any()

    def test_budget_boundary(self, budget_boundary):
        # extract_grid owns the budget check; the defect sum does not repeat it
        dom = TorusDomain(n=3, m=8)
        f = GridFunction.points(dom, np.arange(dom.points))
        space = torus_space(dom)
        work = embeddings.require_defect_budget(dom, 4)
        # transitions per step at s=4: 2, 4, 4, 2 per free axis, squared
        assert work == 2 * 3 * dom.points * (4 + 16 + 16 + 4)
        nbytes, seconds = budget_boundary(lambda: extract_grid(f, space, 4),
                                          f"a geodesic-defect sum of {work} ")
        # the (2^n, (m + 2s - 2)^n) wrapped edge table is the largest array
        assert nbytes >= 8 * 2**3 * (8 + 8 - 2) ** 3 and seconds > 0

    def test_extract_grid_refuses_an_over_budget_scale_first(
            self, monkeypatch, budget_estimate):
        def no_table(*args):
            raise AssertionError("the edge table is built before the guard")

        dom = TorusDomain(n=4, m=16)  # 8.4e8 defect terms at s = 8
        estimate = budget_estimate(
            lambda: embeddings.require_defect_budget(dom, 8), "a geodesic-defect sum")
        monkeypatch.setattr(embeddings, "_edge_table", no_table)
        # a constant witness is refused for its budget too, not for its energy
        for name, below in zip(("MEMORY_BUDGET", "WORK_BUDGET"),
                               (estimate[0] - 1, math.nextafter(estimate[1], 0))):
            with monkeypatch.context() as patch:
                patch.setattr(spaces, name, below)
                for values in (np.arange(dom.points), np.zeros(dom.points, np.int64)):
                    with pytest.raises(BudgetExceededError, match=f"budget is {below}"):
                        extract_grid(GridFunction.points(dom, values),
                                     torus_space(dom), 8)


def roll_ball_sum(domain, values, radius):
    """Reference for embeddings._ball_sum: rolls the whole table once per
    offset and axis, adding the rolls with Python's sum."""
    acc = values
    for ax in range(domain.n):
        acc = sum(
            roll_values(domain, acc, axis_shift(domain, ax, r))
            for r in range(-radius, radius + 1)
        )
    return acc


@pytest.mark.parametrize("n,m,s", [(2, 24, 12), (4, 8, 4), (3, 16, 8),
                                   (2, 16, 8)])
@pytest.mark.parametrize("kind", ["random", "squared", "zero"])
def test_ball_sum_matches_the_roll_sum_bit_for_bit(n, m, s, kind):
    dom = TorusDomain(n=n, m=m)
    values = np.random.default_rng([n, m, s]).standard_normal(dom.points)
    if kind == "squared":
        values = values**2
    elif kind == "zero":
        values = np.zeros(dom.points)
    got = embeddings._ball_sum(dom, values, s - 1)
    want = roll_ball_sum(dom, values, s - 1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCoarseObstruction:
    def test_identity_net(self):
        n, m = 2, 4
        dom = TorusDomain(n=n, m=m)
        net_pts = np.exp(2j * np.pi * dom.coords() / m)
        net_space = points_space(net_pts, 2.0)
        chk = coarse_obstruction_check(np.arange(dom.points), net_space,
                                       n, m, 2.0, 2.0, 2.0, 1.0)
        assert chk.passed
        assert chk.name == "net-moduli-obstruction"

    def test_random_two_point_maps(self):
        n, m = 2, 4
        dom = TorusDomain(n=n, m=m)
        rng = np.random.default_rng(13)
        for _ in range(10):
            vals = rng.integers(0, 2, size=dom.points)
            chk = coarse_obstruction_check(vals, two_point_space(), n, m,
                                           2.0, 2.0, 2.0, 1.0)
            assert chk.passed, chk.slack

    def test_shape_guard(self):
        with pytest.raises(PreconditionViolationError):
            coarse_obstruction_check([0, 1], two_point_space(), 2, 4,
                                     2.0, 2.0, 2.0, 1.0)


class TestGridLowerBound:
    def test_l2_floor_value_and_pass(self):
        chk = grid_lower_bound_check(2, 4, 3, trials=5, seed=1)
        # sqrt(2) / (2 * 3 / (4 sqrt(2))) = 4/3
        assert chk.lhs == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert chk.passed
        assert chk.name == "injection-distortion-floor"

    def test_adversarial_descent_keeps_floor(self):
        chk = grid_lower_bound_check(2, 4, 3, trials=3, seed=2,
                                     adversarial_steps=5)
        assert chk.passed

    def test_l1_sqrt_variant(self):
        chk = grid_lower_bound_check(2, 4, 3, trials=3, seed=3,
                                     target="l1-sqrt")
        assert chk.passed
        assert chk.params["target"] == "l1-sqrt"

    def test_unknown_target(self):
        with pytest.raises(PreconditionViolationError):
            grid_lower_bound_check(2, 4, 3, trials=1, seed=0, target="linf")

    @pytest.mark.parametrize("trials,steps", [(0, 0), (0, 5), (-1, 0)])
    def test_needs_at_least_one_trial(self, trials, steps):
        # no sampled injection leaves no floor to check, nor one to descend
        with pytest.raises(PreconditionViolationError):
            grid_lower_bound_check(2, 4, 3, trials=trials, seed=0,
                                   adversarial_steps=steps)

    def test_deterministic(self):
        a = grid_lower_bound_check(2, 4, 2, trials=3, seed=4)
        b = grid_lower_bound_check(2, 4, 2, trials=3, seed=4)
        assert a.rhs == b.rhs
