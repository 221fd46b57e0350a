import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotypelab import (
    AlphaOutOfRangeError,
    AsymmetryError,
    BudgetExceededError,
    DimensionMismatchError,
    NegativeDistanceError,
    NonzeroDiagonalError,
    NotInjectiveError,
    OddMError,
    PreconditionViolationError,
    SchemaViolationError,
    TorusDomain,
    TriangleViolationError,
    UnreachableError,
    ZeroOffDiagonalError,
    diag_distance,
    distortion,
    grid_points,
    load_metric_space,
    moduli,
    points_space,
    snowflake,
    torus_space,
    two_point_space,
    validate_metric,
)
from cotypelab import spaces
from cotypelab.spaces import EmbeddingRecord, FiniteMetricSpace


def test_torus_domain_roundtrip():
    dom = TorusDomain(n=2, m=4)
    assert dom.points == 16
    assert dom.shape == (4, 4)
    for idx in range(dom.points):
        assert np.ravel_multi_index(dom.coord_of(idx), dom.shape) == idx


@pytest.mark.parametrize("x,y,m,want", [
    (0, 3, 4, 1),          # wraparound beats the direct route
    (1, 3, 8, 2),
    ((0, 0), (2, 3), 4, 2),
    ((0, 0, 0), (2, 2, 2), 4, 2),
])
def test_torus_distance_values(x, y, m, want):
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    dom = TorusDomain(n=len(x), m=m)
    assert torus_space(dom).dist[np.ravel_multi_index(x, dom.shape),
                                 np.ravel_multi_index(y, dom.shape)] == want


def test_torus_distance_antipodal_is_max():
    m, n = 6, 2
    dom = TorusDomain(n=n, m=m)
    full = torus_space(dom)
    assert full.dist.max() == m / 2
    assert full.dist[0, np.ravel_multi_index((3, 3), dom.shape)] == 3


def test_validate_metric_reports_first_violation():
    with pytest.raises(NegativeDistanceError) as ei:
        validate_metric([[0, -1], [-1, 0]])
    assert ei.value.indices == (0, 1)
    assert ei.value.json_path == "$.dist[0][1]"

    with pytest.raises(NonzeroDiagonalError):
        validate_metric([[1, 2], [2, 0]])
    with pytest.raises(AsymmetryError):
        validate_metric([[0, 1], [2, 0]])
    with pytest.raises(ZeroOffDiagonalError):
        validate_metric([[0, 0], [0, 0]])

    # each axiom's message, indices and path at its row-major first
    # violation; a table breaking several reports the earliest axiom of
    # negativity, diagonal, symmetry, separation
    for table, error, message, indices in [
        ([[0, 1, 2], [1, 0, -3], [2, -3, 0]], NegativeDistanceError,
         "dist[1][2] = -3.0 is negative", (1, 2)),
        ([[1, 0, -1], [0, 0, 2], [-1, 3, 0]], NegativeDistanceError,
         "dist[0][2] = -1.0 is negative", (0, 2)),
        ([[0, 1, 1], [1, 0.5, 1], [1, 1, 2]], NonzeroDiagonalError,
         "dist[1][1] = 0.5 must be 0", (1, 1)),
        ([[0, 0, 1], [1, 0, 1], [1, 1, 4]], NonzeroDiagonalError,
         "dist[2][2] = 4.0 must be 0", (2, 2)),
        ([[0, 1, 1], [1, 0, 2], [1, 3, 0]], AsymmetryError,
         "dist[1][2] = 2.0 but dist[2][1] = 3.0", (1, 2)),
        ([[0, 1, 0], [1, 0, 2], [1, 2, 0]], AsymmetryError,
         "dist[0][2] = 0.0 but dist[2][0] = 1.0", (0, 2)),
        ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], ZeroOffDiagonalError,
         "distinct points 1 and 2 are at distance 0", (1, 2)),
    ]:
        with pytest.raises(error) as ei:
            validate_metric(table)
        assert str(ei.value) == message
        assert ei.value.indices == indices
        assert ei.value.json_path == f"$.dist[{indices[0]}][{indices[1]}]"

    # 0 -> 2 direct costs 10 but the route through 1 costs 2
    with pytest.raises(TriangleViolationError) as ei:
        validate_metric([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
    assert ei.value.indices == (0, 2, 1)

    with pytest.raises(SchemaViolationError):
        validate_metric([[0, 1, 1], [1, 0, 1]])
    with pytest.raises(SchemaViolationError):
        validate_metric([[0, math.nan], [math.nan, 0]])


def _first_triangle_violation(arr: np.ndarray):
    """(i, k, j) of the row-major first triangle violation, or None, by the
    whole (N, N, N) scan."""
    slack = spaces.TRIANGLE_SLACK_REL * float(arr.max())
    through = arr[:, :, None] + arr[None, :, :]
    viol = arr[:, None, :] > through + slack
    flat = np.flatnonzero(viol)
    return None if flat.size == 0 else np.unravel_index(flat[0], viol.shape)


@pytest.mark.parametrize("seed", range(40))
def test_triangle_scan_reports_the_first_violation(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(3, 25))
    arr = points_space(rng.standard_normal((N, 2)), 2.0).dist.copy()
    for _ in range(seed % 4):  # stretch or shrink a few pairs
        i, j = rng.choice(N, 2, replace=False)
        arr[i, j] = arr[j, i] = arr[i, j] * rng.uniform(0.3, 3.0)
    want = _first_triangle_violation(arr)
    if want is None:
        assert validate_metric(arr).dist.tobytes() == arr.tobytes()
        return
    with pytest.raises(TriangleViolationError) as ei:
        validate_metric(arr)
    i, k, j = want
    assert ei.value.indices == (int(i), int(j), int(k))
    assert ei.value.json_path == f"$.dist[{i}][{j}]"


def test_triangle_scan_memory_is_quadratic():
    # the whole (N, N, N) scan held two 216 MB arrays at N = 300
    arr = points_space(np.random.default_rng(0).standard_normal((300, 3)),
                       2.0).dist
    assert _peak_bytes(lambda: validate_metric(arr)) <= 4 * arr.nbytes


def test_validate_metric_accepts_tight_triangle():
    # equality in the triangle inequality is legal (points on a line)
    sp = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], labels="abc")
    assert sp.labels == ("a", "b", "c")
    assert sp.dist.max() == 2.0


def test_load_metric_space(tmp_path):
    doc = {"labels": ["u", "v"], "dist": [[0.0, 2.5], [2.5, 0.0]]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    sp = load_metric_space(str(path))
    assert sp.labels == ("u", "v")
    assert sp.dist[0, 1] == 2.5

    assert load_metric_space(doc).size == 2
    with pytest.raises(SchemaViolationError) as ei:
        load_metric_space({"labels": ["u"]})
    assert ei.value.json_path == "$.dist"
    with pytest.raises(SchemaViolationError):
        load_metric_space({"dist": "nope"})


def test_two_point_space():
    sp = two_point_space(3.0)
    assert sp.size == 2
    assert sp.dist[0, 1] == 3.0


def test_snowflake_values_and_range():
    line = validate_metric([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    half = snowflake(line, 0.5)
    assert half.dist[0, 2] == pytest.approx(math.sqrt(3))
    assert snowflake(line, 1.0).dist[0, 2] == 3.0
    for alpha in (0.0, 1.5, -1.0):
        with pytest.raises(AlphaOutOfRangeError):
            snowflake(line, alpha)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
             min_size=2, max_size=5, unique=True),
    st.floats(min_value=0.1, max_value=1.0),
)
def test_snowflake_stays_a_metric(pts, alpha):
    sp = points_space(np.asarray(pts, dtype=np.int64), 2.0)
    validate_metric(snowflake(sp, alpha).dist)  # must not raise


def test_torus_space_cycle_table():
    sp = torus_space(TorusDomain(n=1, m=4))
    want = np.array([[0, 1, 2, 1],
                     [1, 0, 1, 2],
                     [2, 1, 0, 1],
                     [1, 2, 1, 0]], dtype=np.float64)
    np.testing.assert_array_equal(sp.dist, want)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (2, 2), (2, 7), (3, 4),
                                 (3, 5), (4, 3)])
def test_torus_space_matches_broadcast_formula(n, m):
    # reference: the word metric from one (N, N, n) table of coordinate gaps
    dom = TorusDomain(n=n, m=m)
    pts = dom.coords()
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    want = np.minimum(diff, m - diff).max(axis=2).astype(np.float64)
    got = torus_space(dom).dist
    assert got.dtype == want.dtype and (got == want).all()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 12])
@pytest.mark.parametrize("p", [math.inf, 1.0, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("complex_points", [False, True])
def test_points_space_matches_broadcast_formula(d, p, complex_points):
    # reference: the l_p norm of one (N, N, d) table of coordinate gaps,
    # summed over its last axis
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((40, d))
    if complex_points:
        pts = pts + 1j * rng.standard_normal((40, d))
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if math.isinf(p):
        want = diff.max(axis=2)
    else:
        want = np.power(np.power(diff, p).sum(axis=2), 1.0 / p)
    want[np.diag_indices(len(pts))] = 0.0
    got = points_space(pts, p).dist
    if math.isinf(p) or d < 8:
        # numpy adds fewer than 8 terms left to right, as the per-axis sum does
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=8 * 2.0**-52, atol=0)


def test_grid_points_enumeration():
    pts = grid_points(2, 2)
    assert pts.shape == (9, 2)
    np.testing.assert_array_equal(pts[:4], [[0, 0], [0, 1], [0, 2], [1, 0]])


def test_points_space_norms():
    pts = np.array([[0, 0], [3, 4], [0, 1]])
    assert points_space(pts, 2.0).dist[0, 1] == 5.0
    assert points_space(pts, math.inf).dist[0, 1] == 4.0
    assert points_space(pts, 1.0).dist[0, 1] == 7.0
    # complex coordinates measure differences by modulus
    cx = points_space(np.array([[0j], [3 + 4j]]), 2.0)
    assert cx.dist[0, 1] == 5.0


def bfs_diag_depths(domain, start):
    """Reference for diag_distance: breadth-first search from start over
    the steps that move every coordinate by +/-1. The depth of every point
    in linear-index order, -1 where no walk reaches it."""
    deltas = np.array(list(itertools.product((-1, 1), repeat=domain.n)))
    depth = np.full(domain.points, -1)
    frontier = np.array([np.ravel_multi_index(tuple(start), domain.shape)])
    depth[frontier] = 0
    while frontier.size:
        coords = np.stack(np.unravel_index(frontier, domain.shape), axis=1)
        nbrs = np.mod(coords[None] + deltas[:, None], domain.m)
        idx = np.ravel_multi_index(tuple(nbrs.reshape(-1, domain.n).T),
                                   domain.shape)
        idx = np.unique(idx[depth[idx] < 0])
        depth[idx] = depth[frontier[0]] + 1
        frontier = idx
    return depth


# every cell with n <= 5, even m <= 10 and m^n <= 60,000: 59,314 points
DIAG_CELLS = [(n, m) for n in range(1, 6) for m in range(2, 11, 2)
              if m**n <= 60_000]


class TestDiagDistance:
    dom = TorusDomain(n=2, m=8)

    @pytest.mark.parametrize("y,want", [
        ((1, 1), 1),
        ((2, 0), 2),
        ((3, 1), 3),
        ((0, 4), 4),
        ((6, 6), 2),   # wrapping as (-2, -2)
    ])
    def test_values_from_origin(self, y, want):
        assert diag_distance(self.dom, (0, 0), y) == want

    def test_matches_word_metric_on_reachable_pairs(self):
        # with even m, each diagonal step is one word-metric step and the
        # circular coordinate gaps share a parity, so the two agree
        word = torus_space(self.dom).dist
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = rng.integers(0, 8, size=2)
            y = x + 2 * rng.integers(-3, 4, size=2)
            assert diag_distance(self.dom, x, y) == \
                word[np.ravel_multi_index(x, self.dom.shape, mode="wrap"),
                     np.ravel_multi_index(y, self.dom.shape, mode="wrap")]

    def test_mixed_parity_is_unreachable(self):
        with pytest.raises(UnreachableError):
            diag_distance(self.dom, (0, 0), (1, 0))

    def test_requires_even_m(self):
        with pytest.raises(OddMError):
            diag_distance(TorusDomain(n=2, m=5), (0, 0), (1, 1))

    def test_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            diag_distance(self.dom, (0, 0, 0), (1, 1, 1))

    @pytest.mark.parametrize("n,m", DIAG_CELLS)
    def test_matches_the_breadth_first_search(self, n, m):
        dom = TorusDomain(n=n, m=m)
        origin = (0,) * n
        for y, want in zip(dom.coords(), bfs_diag_depths(dom, origin)):
            if want < 0:
                with pytest.raises(UnreachableError):
                    diag_distance(dom, origin, y)
            else:
                assert diag_distance(dom, origin, y) == want

    def test_answers_on_a_domain_of_10_to_the_8_points(self):
        assert diag_distance(TorusDomain(n=8, m=10), (0,) * 8, (2,) * 8) == 2


def test_distortion_identity_and_scaling():
    sp = torus_space(TorusDomain(n=1, m=6))
    rec = distortion(np.arange(6), sp, sp)
    assert rec.distortion == 1.0
    assert rec.lip == 1.0 and rec.colip == 1.0

    src = two_point_space(1.0)
    tgt = two_point_space(2.0)
    rec = distortion([0, 1], src, tgt)
    assert rec.lip == 2.0
    assert rec.colip == 0.5
    assert rec.distortion == 1.0


def test_distortion_cycle_into_line():
    # cutting the cycle open stretches the seam pair 0-3 from 1 to 3
    cycle = torus_space(TorusDomain(n=1, m=4))
    line = points_space(np.arange(4)[:, None], 1.0)
    rec = distortion(np.arange(4), cycle, line)
    assert rec.lip == 3.0
    assert rec.colip == 1.0
    assert rec.distortion == 3.0
    assert set(rec.lip_pair) == {0, 3}
    d = rec.to_json_dict()
    assert d["mapping"] == [0, 1, 2, 3]
    assert d["distortion"] == 3.0


def test_distortion_rejects_bad_mappings():
    sp = torus_space(TorusDomain(n=1, m=4))
    with pytest.raises(NotInjectiveError) as ei:
        distortion([0, 1, 1, 2], sp, sp)
    assert ei.value.pair == (1, 2)
    with pytest.raises(PreconditionViolationError):
        distortion([0, 1, 2, 9], sp, sp)
    with pytest.raises(DimensionMismatchError):
        distortion([0, 1], sp, sp)


def test_moduli_hand_table():
    cycle = torus_space(TorusDomain(n=1, m=4))
    tab = moduli([0, 1, 1, 0], cycle, cycle)
    assert tab.expansion_at(1) == 1.0
    assert tab.expansion_at(2) == 1.0
    assert tab.compression_at(1) == 0.0
    assert tab.compression_at(2) == 1.0
    # outside the realized range
    assert tab.expansion_at(0) == 0.0
    assert tab.compression_at(99) == math.inf
    assert tab.thresholds.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("bad", [-1, 2])
def test_moduli_refuses_indices_outside_the_target(bad):
    # -1 wrapped to the last point, and 2 raised a bare IndexError
    src = points_space(np.array([[0], [1], [2]]), 2)
    with pytest.raises(PreconditionViolationError,
                       match=f"value {bad} at point 0 is not a point index"):
        moduli([bad, 0, 1], src, two_point_space())


def test_moduli_identity_between_norms():
    # the same nine grid points measured in l_inf and then in l_2
    pts = grid_points(2, 2)
    src = points_space(pts, math.inf)
    tgt = points_space(pts, 2.0)
    tab = moduli(np.arange(9), src, tgt)
    assert tab.expansion_at(1) == pytest.approx(math.sqrt(2))
    assert tab.compression_at(2) == pytest.approx(2.0)
    assert tab.expansion_at(2) == pytest.approx(2 * math.sqrt(2))
    assert tab.compression_at(1) == pytest.approx(1.0)


def test_moduli_sandwich_every_pair():
    rng = np.random.default_rng(11)
    src = torus_space(TorusDomain(n=2, m=3))
    tgt = torus_space(TorusDomain(n=1, m=8))
    f = rng.integers(0, tgt.size, size=src.size)
    tab = moduli(f, src, tgt)
    for i in range(src.size):
        for j in range(i + 1, src.size):
            ds = src.dist[i, j]
            dt = tgt.dist[f[i], f[j]]
            assert tab.compression_at(ds) <= dt <= tab.expansion_at(ds)


# ------------------------------------------------------------------ oracles
# Reference builders and scan with no product structure and no row blocks:
# two (N, N) torus tables, one full (N, N) gap buffer, and a distortion scan
# over full-width rows masked by np.where. The package must match them byte
# for byte, pairs included.

def two_table_torus_space(domain: TorusDomain) -> FiniteMetricSpace:
    """Materialize Z_m^n with its word metric as a FiniteMetricSpace."""
    pts = domain.coords()
    half = domain.m / 2
    dist = np.zeros((domain.points, domain.points))
    gap = np.empty_like(dist)
    for c in pts.T.astype(np.float64):
        # max over axes of the circular gap min(d, m - d) = m/2 - |d - m/2|
        # for d = |x_a - y_a|, built in place: two (N, N) tables in all
        np.subtract(c[:, None], c[None, :], out=gap)
        np.abs(gap, out=gap)
        gap -= half
        np.abs(gap, out=gap)
        np.subtract(half, gap, out=gap)
        np.maximum(dist, gap, out=dist)
    dist.flags.writeable = False
    labels = tuple(",".join(map(str, p)) for p in pts)
    return FiniteMetricSpace(labels=labels, dist=dist)


def full_gap_points_space(points: np.ndarray, p: float) -> FiniteMetricSpace:
    """Finite metric space of vectors under the l_p norm, built one
    coordinate at a time into one (N, N) table.

    Complex coordinates are allowed; differences are measured by modulus.
    """
    pts = np.asarray(points)
    if not np.iscomplexobj(pts):
        pts = pts.astype(np.float64)
    n = pts.shape[0]
    dist = np.zeros((n, n))
    gap = np.empty_like(dist)
    for c in pts.T:
        if np.iscomplexobj(pts):
            np.abs(c[:, None] - c[None, :], out=gap)
        else:
            np.subtract(c[:, None], c[None, :], out=gap)
            np.abs(gap, out=gap)
        if math.isinf(p):
            np.maximum(dist, gap, out=dist)
        else:
            np.power(gap, p, out=gap)
            dist += gap
    if not math.isinf(p):
        np.power(dist, 1.0 / p, out=dist)
    dist[np.diag_indices(n)] = 0.0
    dist.flags.writeable = False
    return FiniteMetricSpace(labels=tuple(str(i) for i in range(n)), dist=dist)


def product_torus_space(domain: TorusDomain) -> FiniteMetricSpace:
    """Materialize Z_m^n with its word metric as a FiniteMetricSpace.

    The table is the max of the per-axis circular gaps, built from its
    product structure: each further axis writes one fresh table.
    """
    m = domain.m
    half = m / 2
    # circular gap min(d, m - d) = m/2 - |d - m/2| for d = |x - y|
    c = np.arange(m, dtype=np.float64)
    gap = half - np.abs(np.abs(c[:, None] - c[None, :]) - half)
    dist = gap
    for _ in range(domain.n - 1):
        size = dist.shape[0]
        # D_{k+1}[(a, b), (c, d)] = max(D_k[a, c], gap[b, d]), row-major
        nxt = np.empty((size * m, size * m))
        np.maximum(dist[:, None, :, None], gap[None, :, None, :],
                   out=nxt.reshape(size, m, size, m))
        dist = nxt
    dist.flags.writeable = False
    labels = tuple(",".join(map(str, p)) for p in domain.coords())
    return FiniteMetricSpace(labels=labels, dist=dist)


def row_block_points_space(points: np.ndarray, p: float) -> FiniteMetricSpace:
    """Finite metric space of vectors under the l_p norm, built one
    coordinate at a time into one (N, N) table, ROW_BLOCK rows at a time
    through one (ROW_BLOCK, N) gap buffer.

    Complex coordinates are allowed; differences are measured by modulus.
    """
    pts = np.asarray(points)
    if not np.iscomplexobj(pts):
        pts = pts.astype(np.float64)
    n = pts.shape[0]
    dist = np.zeros((n, n))
    buf = np.empty((min(spaces.ROW_BLOCK, n), n))
    for lo in range(0, n, spaces.ROW_BLOCK):
        hi = min(lo + spaces.ROW_BLOCK, n)
        rows, gap = dist[lo:hi], buf[:hi - lo]
        for c in pts.T:
            if np.iscomplexobj(pts):
                np.abs(c[lo:hi, None] - c[None, :], out=gap)
            else:
                np.subtract(c[lo:hi, None], c[None, :], out=gap)
                np.abs(gap, out=gap)
            if math.isinf(p):
                np.maximum(rows, gap, out=rows)
            else:
                np.power(gap, p, out=gap)
                rows += gap
        if not math.isinf(p):
            np.power(rows, 1.0 / p, out=rows)
    dist[np.diag_indices(n)] = 0.0
    dist.flags.writeable = False
    return FiniteMetricSpace(labels=tuple(str(i) for i in range(n)), dist=dist)


def full_row_distortion(mapping, source: FiniteMetricSpace,
                        target: FiniteMetricSpace,
                        block: int = 256) -> EmbeddingRecord:
    """Measure lip, colip, and distortion of an injective map.

    mapping[i] is the target index of source point i. Raises
    NotInjectiveError on a collision, witnessed by the colliding pair.
    """
    f = np.asarray(mapping, dtype=np.int64)
    ns = source.size
    if f.shape != (ns,):
        raise DimensionMismatchError(
            f"mapping must have shape ({ns},), got {f.shape}"
        )
    if ns and (f.min() < 0 or f.max() >= target.size):
        raise PreconditionViolationError(
            "mapping contains an out-of-range target index"
        )
    order = np.argsort(f, kind="stable")
    fs = f[order]
    dup = np.flatnonzero(fs[1:] == fs[:-1])
    if dup.size:
        a, b = int(order[dup[0]]), int(order[dup[0] + 1])
        raise NotInjectiveError(
            f"source points {a} and {b} share target index {int(f[a])}",
            pair=(a, b),
        )
    if ns < 2:
        return EmbeddingRecord(ns, target.size, f, 1.0, 1.0, 1.0)

    cols = np.arange(ns)
    lip, colip = -np.inf, -np.inf
    lip_pair = colip_pair = (0, 0)
    for lo in range(0, ns, block):
        hi = min(lo + block, ns)
        ds = source.dist[lo:hi, :].copy()
        dt = target.dist[f[lo:hi], :][:, f]
        keep = cols[None, :] > np.arange(lo, hi)[:, None]  # j > i only
        with np.errstate(invalid="ignore", divide="ignore"):
            up = np.where(keep, dt / ds, -np.inf)
            down = np.where(keep, ds / dt, -np.inf)
        k = int(np.argmax(up))
        if up.reshape(-1)[k] > lip:
            lip = float(up.reshape(-1)[k])
            i, j = np.unravel_index(k, up.shape)
            lip_pair = (int(i) + lo, int(j))
        k = int(np.argmax(down))
        if down.reshape(-1)[k] > colip:
            colip = float(down.reshape(-1)[k])
            i, j = np.unravel_index(k, down.shape)
            colip_pair = (int(i) + lo, int(j))
    return EmbeddingRecord(
        source_size=ns,
        target_size=target.size,
        mapping=f,
        lip=lip,
        colip=colip,
        distortion=lip * colip,
        lip_pair=lip_pair,
        colip_pair=colip_pair,
    )


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 7), (1, 64), (2, 5),
                                 (3, 5), (2, 24), (4, 3), (4, 8)])
def test_torus_space_matches_the_two_table_oracle(n, m):
    dom = TorusDomain(n=n, m=m)
    got, want = torus_space(dom), two_table_torus_space(dom)
    assert got.dist.shape == want.dist.shape
    assert got.dist.tobytes() == want.dist.tobytes()
    assert got.labels == want.labels
    assert not got.dist.flags.writeable


# N straddles row-block edges: 256 is a whole number of ROW_BLOCK rows
@pytest.mark.parametrize("N", [255, 256, 257, 600])
@pytest.mark.parametrize("p", [math.inf, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("complex_points", [False, True])
def test_points_space_matches_the_full_gap_oracle(N, p, complex_points):
    assert 256 % spaces.ROW_BLOCK == 0
    rng = np.random.default_rng(N)
    pts = rng.standard_normal((N, 3))
    if complex_points:
        pts = pts + 1j * rng.standard_normal((N, 3))
    got, want = points_space(pts, p), full_gap_points_space(pts, p)
    assert got.dist.tobytes() == want.dist.tobytes()
    assert got.labels == want.labels


def _same_reads(space, want: np.ndarray, seed: int) -> None:
    """pairs, block and .dist of a coordinate space give the bytes of the
    table want, and pairs and block build no table."""
    N = want.shape[0]
    assert space.pairwise(0, N - 1).tobytes() == want[0, N - 1].tobytes()
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, N, (2, 3, 50))
    assert space.pairwise(a, b).tobytes() == want[a, b].tobytes()
    rows, cols = rng.integers(0, N, 40), rng.permutation(N)[:N // 2 + 1]
    assert space.block(rows, cols).tobytes() == want[rows][:, cols].tobytes()
    assert (space.block(slice(1, None), slice(None, -1)).tobytes()
            == want[1:, :-1].tobytes())
    assert "dist" not in vars(space)
    assert space.dist.tobytes() == want.tobytes()
    assert not space.dist.flags.writeable


# odd m; m = 128, whose coordinates fit int8 but whose period does not; m = 129
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 7), (2, 5), (3, 4),
                                 (2, 8), (3, 8), (2, 3), (1, 128), (1, 129)])
def test_torus_reads_match_the_product_oracle(n, m):
    dom = TorusDomain(n=n, m=m)
    want = product_torus_space(dom)
    got = torus_space(dom)
    assert got.coords.dtype == (np.int8 if m < 128 else np.int16)
    assert "labels" not in vars(got)
    assert got.labels == want.labels
    _same_reads(got, want.dist, n * 100 + m)


def _span_at_2_53(p: float, k: int) -> int:
    """The largest span s of k integer columns whose sum of k gap powers
    k * s**p (s for p = inf) stays below 2**53."""
    if math.isinf(p):
        return 2**53 - 1
    s = int((2**53 / k) ** (1 / p))
    while k * (s + 1) ** p < 2**53:
        s += 1
    while k * s**p >= 2**53:
        s -= 1
    return s


# integer points run in an integer dtype for p in {1, 2, 3, 4, inf} up to the
# largest span whose sum of gap powers stays below 2**53 ("2^53-under"), and
# in float64 one span unit over ("2^53-over") or at p = 1.5; both must give
# the float64 bytes. "negative" and "positive" hold coordinates wider than
# their gaps.
@pytest.mark.parametrize("N", [1, 33, 100])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("kind", ["real", "complex", "integer", "negative",
                                  "positive", "uint8", "2^53-under",
                                  "2^53-over"])
def test_points_reads_match_the_row_block_oracle(N, p, kind):
    rng = np.random.default_rng(N)
    pts = {"real": lambda: rng.standard_normal((N, 3)),
           "complex": lambda: (rng.standard_normal((N, 3))
                               + 1j * rng.standard_normal((N, 3))),
           "integer": lambda: rng.integers(-5, 6, (N, 3)),
           "negative": lambda: rng.integers(-200, -100, (N, 3)),
           "positive": lambda: rng.integers(150, 250, (N, 3)),
           "uint8": lambda: rng.integers(0, 256, (N, 3), dtype=np.uint8),
           "2^53-under": lambda: rng.integers(0, 2, (N, 3)) * _span_at_2_53(p, 3),
           "2^53-over": lambda: (rng.integers(0, 2, (N, 3))
                                 * (_span_at_2_53(p, 3) + 1))}[kind]()
    want = row_block_points_space(pts, p)
    got = points_space(pts, p)
    exact = kind not in ("real", "complex", "2^53-over") and p != 1.5
    assert got.coords.dtype.kind == ("i" if exact else "c" if kind == "complex"
                                     else "f")
    assert (got.coords == pts).all()
    assert "labels" not in vars(got)
    assert got.labels == want.labels
    _same_reads(got, want.dist, N)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_real_and_complex_coordinates_give_the_same_distances(p):
    # the dtype is the coordinate array's, so one test of it answers for
    # every column: 300 columns, and the same points with zero imaginary
    # parts, whose moduli are the real gaps
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((9, 300))
    a, b = np.triu_indices(9, 1)
    want = row_block_points_space(pts, p).dist[a, b]
    for space in (points_space(pts, p), points_space(pts + 0j, p)):
        assert space.pairwise(a, b).tobytes() == want.tobytes()


def _table_or_coords(space, table: bool):
    return FiniteMetricSpace(space.labels, dist=space.dist) if table else space


@pytest.mark.parametrize("case", ["torus-to-points", "grid-to-points"])
@pytest.mark.parametrize("source_table", [False, True])
@pytest.mark.parametrize("target_table", [False, True])
def test_distortion_and_moduli_read_tables_and_coordinates_alike(
        case, source_table, target_table):
    rng = np.random.default_rng(3)
    if case == "torus-to-points":
        dom = TorusDomain(n=2, m=6)
        source, want_source = torus_space(dom), product_torus_space(dom)
        pts = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        target, want_target = points_space(pts, 3.0), row_block_points_space(pts, 3.0)
        f = rng.permutation(50)[:36]
    else:
        grid = grid_points(2, 6)
        source = points_space(grid, math.inf)
        want_source = row_block_points_space(grid, math.inf)
        target, want_target = points_space(grid, 2.0), row_block_points_space(grid, 2.0)
        f = rng.permutation(len(grid))
    source = _table_or_coords(source, source_table)
    target = _table_or_coords(target, target_table)
    _same_record(distortion(f, source, target),
                 distortion(f, want_source, want_target))
    got, want = moduli(f, source, target), moduli(f, want_source, want_target)
    for name in ("thresholds", "expansion", "compression"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_grid_identity_distortion_needs_no_table(address_cap):
    # the two 3,125-point tables would take 156 MB
    pts = grid_points(5, 4)
    address_cap(64 << 20)
    rec = distortion(np.arange(len(pts)), points_space(pts, math.inf),
                     points_space(pts, 2.0))
    assert rec.distortion == pytest.approx(math.sqrt(5), rel=1e-12)
    assert (rec.lip_pair, rec.colip_pair) == ((0, 781), (0, 1))


def _same_record(got, want):
    assert got.lip == want.lip
    assert got.colip == want.colip
    assert got.distortion == want.distortion
    assert got.lip_pair == want.lip_pair
    assert got.colip_pair == want.colip_pair


@pytest.mark.parametrize("ns", [2, 3, 31, 32, 33, 255, 256, 257, 600])
def test_distortion_matches_the_full_row_oracle_on_injections(ns, monkeypatch):
    rng = np.random.default_rng(ns)
    source = points_space(rng.standard_normal((ns, 2)), 2.0)
    target = points_space(rng.standard_normal((ns + 7, 3)), 1.0)
    f = rng.permutation(ns + 7)[:ns]
    _same_record(distortion(f, source, target),
                 full_row_distortion(f, source, target))
    for block in (1, 7, 1000):  # the pair rule does not depend on blocking
        monkeypatch.setattr(spaces, "ROW_BLOCK", block)
        _same_record(distortion(f, source, target),
                     full_row_distortion(f, source, target))


@pytest.mark.parametrize("n,m,q", [(2, 4, 2.0), (3, 4, 4.0), (2, 16, 2.0),
                                   (4, 3, 1.0)])
def test_distortion_matches_the_full_row_oracle_on_grid_identities(n, m, q):
    # many pairs tie for both maxima; the first in row-major order wins
    pts = grid_points(n, m)
    source, target = points_space(pts, math.inf), points_space(pts, q)
    f = np.arange(len(pts))
    _same_record(distortion(f, source, target),
                 full_row_distortion(f, source, target))


@pytest.mark.parametrize("ns", [2, 33, 257])
@pytest.mark.parametrize("below", [0.01, 100.0])
def test_distortion_reads_only_pairs_i_below_j(ns, below, monkeypatch):
    # unvalidated asymmetric tables: the source's entries below the
    # diagonal are scaled so that reading them would win lip or colip
    rng = np.random.default_rng(ns)

    def table(size, scale):
        dist = rng.uniform(1.0, 2.0, (size, size))
        dist[np.tril_indices(size, -1)] *= scale
        np.fill_diagonal(dist, 0.0)
        return FiniteMetricSpace(labels=tuple(range(size)), dist=dist)

    source, target = table(ns, below), table(ns + 3, 1.0)
    f = rng.permutation(ns + 3)[:ns]
    for block in (1, 7, spaces.ROW_BLOCK):
        monkeypatch.setattr(spaces, "ROW_BLOCK", block)
        _same_record(distortion(f, source, target),
                     full_row_distortion(f, source, target))


def _pairwise_first_max(ratio, ns):
    """Largest ratio(i, j) over pairs i < j in row-major order, the first
    pair reaching it, and NaN ratios skipped."""
    best, pair = -math.inf, (0, 0)
    for i in range(ns):
        for j in range(i + 1, ns):
            r = ratio(i, j)
            if r > best:
                best, pair = r, (i, j)
    return best, pair


def test_distortion_skips_pairs_coincident_in_both_spaces(monkeypatch):
    # unvalidated tables with zero off-diagonal entries give 0/0 and x/0;
    # a 0/0 pair is skipped, so the answer does not depend on the blocking
    rng = np.random.default_rng(5)
    blocks = (1, 7, spaces.ROW_BLOCK, 1000)
    for ns in (5, 40, 70):
        source = points_space(rng.integers(0, 3, (ns, 2)), 2.0)
        target = points_space(rng.integers(0, 3, (ns, 2)), 1.0)
        f = rng.permutation(ns)
        ds, dt = source.dist, target.dist[f][:, f]
        with np.errstate(invalid="ignore", divide="ignore"):
            lip = _pairwise_first_max(lambda i, j: dt[i, j] / ds[i, j], ns)
            colip = _pairwise_first_max(lambda i, j: ds[i, j] / dt[i, j], ns)
            assert np.isnan(ds / dt).any()
        for block in blocks:
            monkeypatch.setattr(spaces, "ROW_BLOCK", block)
            rec = distortion(f, source, target)
            assert (rec.lip, rec.lip_pair) == lip
            assert (rec.colip, rec.colip_pair) == colip


@pytest.mark.parametrize("build,points", [
    (lambda N: torus_space(TorusDomain(n=1, m=N)), 12),
    (lambda N: points_space(np.arange(N)[:, None], 2.0), 12),
])
def test_table_budget_boundary(build, points, monkeypatch, budget_estimate):
    table = 8 * points * points
    need, _ = budget_estimate(lambda: build(points).dist,
                              f"a {points}-point distance table")
    assert need >= table  # the table and one row block's buffers
    for budget in (need + 1, need):
        monkeypatch.setattr(spaces, "MEMORY_BUDGET", budget)
        assert build(points).dist.nbytes == table
    monkeypatch.setattr(spaces, "MEMORY_BUDGET", need - 1)
    space = build(points)  # the guard is on the table read, not the space
    assert space.pairwise(0, 1) > 0
    with pytest.raises(BudgetExceededError):
        space.dist


def test_all_pair_scans_keep_the_table_budget(budget_boundary):
    # distortion and moduli visit every pair, so their work is counted
    # although neither reads a table: distortion in seconds, moduli in both
    space = points_space(np.arange(12)[:, None], 2.0)
    ident = np.arange(12)
    assert distortion(ident, space, space).distortion == 1.0
    assert moduli(ident, space, space).expansion_at(11.0) == 11.0
    nbytes, seconds = budget_boundary(lambda: distortion(ident, space, space),
                                      "a distortion scan of 12 points")
    assert nbytes == 0 and seconds == 1e-9 * 12 * 12 * (1 + 1 + 10) + 4e-6 * 2
    nbytes, seconds = budget_boundary(lambda: moduli(ident, space, space),
                                      "a moduli scan of 12 points")
    assert nbytes >= 40.5 * 12 * 12 and seconds > 0


def test_points_space_refuses_an_exponent_below_1():
    # (0,0), (1,0), (1,1) under p = 0.5: d = 4 > 1 + 1, not a metric
    pts = np.array([[0, 0], [1, 0], [1, 1]])
    table = (np.abs(pts[:, None] - pts[None]) ** 0.5).sum(axis=2) ** 2
    with pytest.raises(TriangleViolationError):
        validate_metric(table)
    for p in (0.5, 0.0, -1.0, -math.inf):
        with pytest.raises(SchemaViolationError, match="norm exponent must be >= 1"):
            points_space(pts, p)
    assert points_space(pts, 1.0).pairwise(0, 2) == 2.0


def _peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_table_per_space():
    # a space holds coordinates and labels, O(N n); the first .dist read
    # adds the (N, N) table and one ROW_BLOCK-row block's buffers
    slack = 1 << 18
    N = 1024
    peak = _peak_bytes(lambda: torus_space(TorusDomain(n=2, m=32)))
    assert peak <= 64 * N * 2 + slack
    space = torus_space(TorusDomain(n=2, m=32))
    table, row_block = 8 * N * N, 8 * spaces.ROW_BLOCK * N
    peak = _peak_bytes(lambda: space.dist)
    assert table <= peak <= table + 4 * row_block + slack
    N = 600
    pts = np.random.default_rng(0).standard_normal((N, 3))
    table, row_block = 8 * N * N, 8 * spaces.ROW_BLOCK * N
    for p in (math.inf, 2.0):
        peak = _peak_bytes(lambda: points_space(pts, p))
        assert peak <= 64 * N * 3 + slack
        space = points_space(pts, p)
        peak = _peak_bytes(lambda: space.dist)
        assert table <= peak <= table + 4 * row_block + slack
