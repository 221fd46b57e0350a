"""Finite metric spaces, torus domains, and embedding measurements.

Points of a finite metric space are integer indices; their distances
come from a validated table or from coordinates. Points of the discrete
torus are n-tuples of residues mod m, linearized row-major (last
coordinate varies fastest); that linearization is part of the file and
report contract.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
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
    TriangleViolationError,
    UnreachableError,
    ZeroOffDiagonalError,
)

TRIANGLE_SLACK_REL = 1e-12  # additive slack is this times the largest distance
MEMORY_BUDGET = 1 << 30  # estimated peak bytes of one call (require_budget)
WORK_BUDGET = 5.0  # estimated seconds, at costs timed on a 2-core x86, numpy 2.4
# rows per block of .dist and distortion: 32 rows of an N = 3125 table are
# 0.8 MB, so a block's buffers stay in a 2 MB L2 cache (256 rows ran
# distortion 4x slower on a 2-core x86 desk machine, numpy 2.4)
ROW_BLOCK = 32


class FiniteMetricSpace:
    """A finite metric space: labels, and distances read from a validated
    (N, N) table or computed from (N, k) coordinates.

    Coordinate distances are the l_p norm (max for p = inf) of the gaps
    g = |c_i - c_j|, or, with a period m, of the circular gaps
    min(g, m - g). Every reader goes through pairwise (elementwise) or block
    (outer); .dist is the whole table. A coordinate space without given
    labels builds them on first read: "a,b,c" from a torus point's
    coordinates, the index otherwise.
    """

    def __init__(self, labels=None, dist=None, coords=None, p=math.inf,
                 period=0):
        if labels is not None:
            self.labels = labels
        if coords is not None:  # copied: later edits move no distance
            coords = np.array(coords, dtype=_working_dtype(coords, p, period))
        self.coords, self.p, self.period = coords, p, period
        if dist is not None:
            self.dist = dist

    @functools.cached_property
    def labels(self) -> tuple:
        if self.period:
            return tuple(",".join(map(str, c)) for c in self.coords)
        return tuple(str(i) for i in range(len(self.coords)))

    @property
    def size(self) -> int:
        return len(self.labels if self.coords is None else self.coords)

    @functools.cached_property
    def dist(self) -> np.ndarray:
        """(N, N) float64 table, symmetric, zero diagonal, built from block
        ROW_BLOCK rows at a time on first read (a block's buffers hold 8
        float64 entries a row entry at most), after require_budget."""
        require_budget(f"a {self.size}-point distance table",
                       8 * self.size * (self.size + 8 * ROW_BLOCK))
        out = np.empty((self.size, self.size))
        for lo in range(0, self.size, ROW_BLOCK):
            out[lo:lo + ROW_BLOCK] = self.block(slice(lo, lo + ROW_BLOCK),
                                                slice(None))
        out.flags.writeable = False
        return out

    def pairwise(self, a, b) -> np.ndarray:
        """d(a, b) for index arrays a and b, elementwise (broadcast), as
        float64. Integer coordinates are summed in their own exact dtype,
        so the float64 sums, and their roots, are those of a float64 loop."""
        if self.coords is None:
            return self.dist[a, b]
        exact, modulus = self.coords.dtype.kind == "i", np.iscomplexobj(self.coords)
        total = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)),
                         self.coords.dtype if exact else np.float64)
        gap = np.empty_like(total)
        spare = np.empty_like(total) if exact else None
        for c in self.coords.T:
            if modulus:
                np.abs(c[a] - c[b], out=gap)
            else:
                np.subtract(c[a], c[b], out=gap)
                np.abs(gap, out=gap)
            if self.period:
                np.subtract(self.period, gap, out=spare)
                np.minimum(gap, spare, out=gap)
            if math.isinf(self.p):
                np.maximum(total, gap, out=total)
            else:
                total += (_int_power(gap, int(self.p), spare) if exact
                          else np.power(gap, self.p, out=gap))
        total = total.astype(np.float64, copy=False)
        if not math.isinf(self.p):
            np.power(total, 1.0 / self.p, out=total)
        return total

    def block(self, rows, cols) -> np.ndarray:
        """The fresh array of d(i, j) over i in rows and j in cols, each an
        index array or a slice."""
        idx = np.arange(self.size)
        return self.pairwise(idx[rows][:, None], idx[cols][None])


def _int_power(gap: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """gap**p as p - 1 products into out: numpy's integer power loop runs
    30-40x slower than a product (numpy 2.4)."""
    np.copyto(out, gap)
    for _ in range(p - 1):
        out *= gap
    return out


def _working_dtype(coords, p, period) -> np.dtype:
    """The dtype pairwise measures coordinates in: the narrowest signed
    integer dtype holding every coordinate, gap, period and sum of k gap
    powers when the coordinates are integers, p is an integer in [1, 52]
    or inf and all of those are below 2^53 (where float64 is exact too);
    complex or float64 otherwise."""
    arr = np.asarray(coords)
    # p > 52 stays float64: k * span**p < 2**53 would need a span below 2
    if (arr.dtype.kind in "iu"
            and (math.isinf(p) or (float(p).is_integer() and 1 <= p <= 52))):
        lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
        span = hi - lo  # the largest gap; the sum of gap powers is no less
        peak = span if math.isinf(p) else arr.shape[1] * span ** int(p)
        bound = max(-lo, hi, peak, period)
        if bound < 2**53:  # a signed dtype holding -bound - 1 holds bound
            return np.min_scalar_type(-bound - 1)
    return arr.dtype if np.iscomplexobj(arr) else np.dtype(np.float64)


def count_text(k: int) -> str:
    """k in digits, or as ~2^e from 2^64 on: str() refuses an int past 4,300
    digits, and float() one past float64 range."""
    return f"{k}" if k < 1 << 64 else f"~2^{round(math.log2(k))}"


def require_budget(what: str, nbytes: int = 0, seconds: float = 0.0) -> None:
    """Raise BudgetExceededError, before the work named what starts, when its
    estimated peak bytes pass MEMORY_BUDGET or its estimated seconds pass
    WORK_BUDGET; no clock is read, so a refusal is the same on every host."""
    if nbytes > MEMORY_BUDGET:
        raise BudgetExceededError(
            f"{what} needs {count_text(nbytes)} bytes, budget is {MEMORY_BUDGET}")
    if seconds > WORK_BUDGET:
        raise BudgetExceededError(
            f"{what} needs about {seconds:.3g} s, budget is {WORK_BUDGET} s")


def require_float(name: str, value: int, why: str = "") -> None:
    """Refuse an integer past float64 range before it becomes a float."""
    if value > sys.float_info.max:
        raise PreconditionViolationError(
            f"an {name} of {value.bit_length()} bits is past float64 range{why}")


def require_indices(values: np.ndarray, size: int) -> None:
    """Raise PreconditionViolationError unless values are the point indices
    of a size-point space, in a 1-D integer array, naming the first that is not."""
    if values.dtype.kind not in "iu" or values.ndim != 1:
        raise PreconditionViolationError(
            f"{values.dtype} values of shape {values.shape} are not point indices")
    if values.size and (values.min() < 0 or values.max() >= size):
        bad = int(np.flatnonzero((values < 0) | (values >= size))[0])
        raise PreconditionViolationError(
            f"value {int(values[bad])} at point {bad} is not a point index "
            f"of a {size}-point space"
        )


@dataclass(frozen=True)
class TorusDomain:
    """The group Z_m^n as an indexing domain.

    Linear indices follow row-major order on (m,)*n, so the last
    coordinate is the fastest-varying one.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise PreconditionViolationError(
                f"torus needs n >= 1 and m >= 1, got n={self.n} m={self.m}"
            )

    @property
    def points(self) -> int:
        return self.m**self.n

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.n

    def coords(self) -> np.ndarray:
        """All points as an (m^n, n) int array in linear-index order."""
        grids = np.indices(self.shape).reshape(self.n, self.points)
        return grids.T.copy()

    def coord_of(self, index: int) -> tuple:
        return tuple(int(v) for v in np.unravel_index(index, self.shape))


def _first_true(mask: np.ndarray):
    """Index tuple of the row-major first True entry, or None."""
    flat = np.flatnonzero(mask)
    if flat.size == 0:
        return None
    return np.unravel_index(flat[0], mask.shape)


def validate_metric(table, labels: Iterable | None = None) -> FiniteMetricSpace:
    """Validate a distance table and wrap it as a FiniteMetricSpace.

    Reports the first violated axiom (scanning row-major) with witness
    indices and the JSON path of the offending entry under $.dist.
    Triangle checks allow additive slack of 1e-12 times the largest
    distance.
    """
    arr = np.asarray(table, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SchemaViolationError(
            f"distance table must be square, got shape {arr.shape}", "$.dist"
        )
    n = arr.shape[0]
    if n == 0:
        raise SchemaViolationError("distance table is empty", "$.dist")
    if not np.all(np.isfinite(arr)):
        i, j = _first_true(~np.isfinite(arr))
        raise SchemaViolationError(
            f"non-finite entry at ({i},{j})", f"$.dist[{i}][{j}]"
        )

    # each axiom's violation mask is built once the axioms before it hold
    for violations, error, message in (
        (lambda: arr < 0, NegativeDistanceError, "dist[{i}][{j}] = {a} is negative"),
        (lambda: np.diag(np.diagonal(arr) != 0), NonzeroDiagonalError,
         "dist[{i}][{j}] = {a} must be 0"),
        (lambda: arr != arr.T, AsymmetryError,
         "dist[{i}][{j}] = {a} but dist[{j}][{i}] = {b}"),
        (lambda: (arr == 0) & ~np.eye(n, dtype=bool), ZeroOffDiagonalError,
         "distinct points {i} and {j} are at distance 0"),
    ):
        loc = _first_true(violations())
        if loc is not None:
            i, j = map(int, loc)
            raise error(message.format(i=i, j=j, a=arr[i, j], b=arr[j, i]),
                        indices=(i, j), json_path=f"$.dist[{i}][{j}]")
    slack = TRIANGLE_SLACK_REL * float(arr.max())
    for i in range(n):  # one (N, N) slice of the (i, k, j) scan at a time
        # viol[k, j]: going through k beats the direct entry by more than slack
        viol = arr[i][None, :] > (arr[i][:, None] + arr) + slack
        loc = _first_true(viol)
        if loc is not None:
            k, j = loc
            raise TriangleViolationError(
                f"dist[{i}][{j}] = {arr[i, j]} exceeds "
                f"dist[{i}][{k}] + dist[{k}][{j}] = {arr[i, k] + arr[k, j]}",
                indices=(int(i), int(j), int(k)),
                json_path=f"$.dist[{i}][{j}]",
            )

    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise SchemaViolationError(
                f"{len(labels)} labels for a {n}x{n} table", "$.labels"
            )
    out = arr.copy()
    out.flags.writeable = False
    return FiniteMetricSpace(labels=labels, dist=out)


def load_metric_space(source) -> FiniteMetricSpace:
    """Load and validate a metric space from a JSON file path or dict."""
    if isinstance(source, str):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaViolationError("document must be a JSON object")
    if "dist" not in doc:
        raise SchemaViolationError("missing key 'dist'", "$.dist")
    dist = doc["dist"]
    if not isinstance(dist, list) or not all(isinstance(r, list) for r in dist):
        raise SchemaViolationError("'dist' must be a list of rows", "$.dist")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise SchemaViolationError("'labels' must be a list", "$.labels")
    return validate_metric(dist, labels)


def two_point_space(d: float = 1.0) -> FiniteMetricSpace:
    return validate_metric([[0.0, d], [d, 0.0]], labels=("u", "v"))


def snowflake(space: FiniteMetricSpace, alpha: float) -> FiniteMetricSpace:
    """Raise every distance to the power alpha, 0 < alpha <= 1.

    Concavity of t^alpha preserves the triangle inequality, so the
    result is again a metric space.
    """
    if not (0 < alpha <= 1):
        raise AlphaOutOfRangeError(f"alpha must be in (0, 1], got {alpha}")
    out = np.power(space.dist, alpha)
    out.flags.writeable = False
    return FiniteMetricSpace(labels=space.labels, dist=out)


def torus_space(domain: TorusDomain) -> FiniteMetricSpace:
    """Z_m^n with its word metric, the max of the per-axis circular gaps,
    computed from the coordinates of the points it is asked about."""
    return FiniteMetricSpace(coords=domain.coords(), period=domain.m)


def grid_points(n: int, m: int) -> np.ndarray:
    """All points of {0,...,m}^n as an ((m+1)^n, n) array, row-major."""
    return TorusDomain(n, m + 1).coords()


def points_space(points: np.ndarray, p: float) -> FiniteMetricSpace:
    """Finite metric space of the (N, k) vectors under the l_p norm.

    Complex coordinates are allowed; differences are measured by modulus.
    """
    if p < 1:
        raise SchemaViolationError(f"norm exponent must be >= 1, got {p}")
    return FiniteMetricSpace(coords=points, p=p)


def diag_distance(domain: TorusDomain, x, y) -> int:
    """Graph distance on Z_m^n where a step moves every coordinate by +/-1.

    Requires even m. Points whose coordinate differences have mixed parity
    are unreachable. Otherwise every circular gap min(g, m - g) has the
    parity of the largest, so each coordinate covers its gap and pads with
    back-and-forth steps: the distance is the torus word metric.
    """
    if domain.m % 2 != 0:
        raise OddMError(f"even side length required, got m={domain.m}")
    xs = np.mod(np.asarray(x, dtype=np.int64), domain.m)
    ys = np.mod(np.asarray(y, dtype=np.int64), domain.m)
    if xs.shape != (domain.n,) or ys.shape != (domain.n,):
        raise DimensionMismatchError(
            f"points must have shape ({domain.n},), got {xs.shape} {ys.shape}"
        )
    gap = np.mod(ys - xs, domain.m)  # even m keeps each difference's parity
    par = gap % 2
    if par.min() != par.max():
        raise UnreachableError(
            f"{tuple(int(v) for v in xs)} and {tuple(int(v) for v in ys)} "
            "lie in different parity classes"
        )
    return int(np.minimum(gap, domain.m - gap).max())


@dataclass(frozen=True)
class EmbeddingRecord:
    """Outcome of measuring a map between finite metric spaces."""

    source_size: int
    target_size: int
    mapping: np.ndarray  # (source_size,) target indices
    lip: float  # largest expansion ratio
    colip: float  # largest contraction ratio (inverse map on the image)
    distortion: float
    lip_pair: tuple = ()
    colip_pair: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "source_size": self.source_size,
            "target_size": self.target_size,
            "mapping": [int(v) for v in self.mapping],
            "lip": self.lip,
            "colip": self.colip,
            "distortion": self.distortion,
            "lip_pair": list(self.lip_pair),
            "colip_pair": list(self.colip_pair),
        }


def _block_max(ratios: np.ndarray, lo: int) -> tuple:
    """Largest ratio of the row block from row lo and column lo + 1, and
    the first pair (i, j) reaching it in row-major order. NaN ratios
    (pairs at distance 0 in both spaces) are skipped."""
    k = int(np.argmax(ratios))
    if np.isnan(ratios.flat[k]):  # argmax stops at the first NaN
        np.copyto(ratios, -np.inf, where=np.isnan(ratios))
        k = int(np.argmax(ratios))
    i, j = np.unravel_index(k, ratios.shape)
    return float(ratios.flat[k]), (int(i) + lo, int(j) + lo + 1)


def distortion(mapping, source: FiniteMetricSpace,
               target: FiniteMetricSpace) -> EmbeddingRecord:
    """Measure lip, colip, and distortion of an injective map.

    mapping[i] is the target index of source point i. Each ratio is the
    max over pairs i < j, skipping 0/0 pairs, scanned ROW_BLOCK rows at a
    time; lip_pair and colip_pair are the first pair in row-major order to
    reach it, whatever the block. Raises NotInjectiveError on a
    collision, witnessed by the colliding pair, and BudgetExceededError
    (require_budget) for a scan estimated past WORK_BUDGET.
    """
    f = np.asarray(mapping, dtype=np.int64)
    ns = source.size
    if f.shape != (ns,):
        raise DimensionMismatchError(f"mapping must have shape ({ns},), got {f.shape}")
    # 1.1-1.5 ns a pair and column (a table counts 1, the pair itself 10) at
    # 6,000 points of 2 + 2 columns and the 1,000-point Frechet cycle, and
    # 4 us a coordinate column per row block, pairwise's loop: 8 points by
    # 10^5 (10^6) columns took 0.33-0.37 s (2.96-3.42 s), 64 by 2 * 10^4 0.27-0.32 s
    cols = [1 if sp.coords is None else sp.coords.shape[1] for sp in (source, target)]
    loops = sum(c for sp, c in zip((source, target), cols) if sp.coords is not None)
    require_budget(f"a distortion scan of {ns} points",
                   seconds=1e-9 * ns * ns * (sum(cols) + 10)
                   + 4e-6 * loops * len(range(0, ns - 1, ROW_BLOCK)))
    require_indices(f, target.size)
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

    lip, colip = -np.inf, -np.inf
    lip_pair = colip_pair = (0, 0)
    # each row block scans only columns j > lo; the j <= i corner reads -inf
    for lo in range(0, ns - 1, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, ns)
        ds = source.block(slice(lo, hi), slice(lo + 1, None))
        dt = target.block(f[lo:hi], f[lo + 1:])
        with np.errstate(invalid="ignore", divide="ignore"):
            up = dt / ds
            down = np.divide(ds, dt, out=dt)
        corner = np.tri(hi - lo, min(hi - lo, ns - lo - 1), -1, dtype=bool)
        up[:, :corner.shape[1]][corner] = -np.inf
        down[:, :corner.shape[1]][corner] = -np.inf
        val, pair = _block_max(up, lo)
        if val > lip:
            lip, lip_pair = val, pair
        val, pair = _block_max(down, lo)
        if val > colip:
            colip, colip_pair = val, pair
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


@dataclass(frozen=True)
class ModuliTables:
    """Step functions bounding how a map stretches and compresses distances.

    expansion_at(t) is the largest target distance over source pairs at
    distance <= t; compression_at(t) the smallest over pairs at distance
    >= t (min over an empty set is +inf). Both are nondecreasing in t
    and sandwich every realized pair.
    """

    thresholds: np.ndarray  # distinct realized positive source distances, asc
    expansion: np.ndarray  # aligned prefix maxima of target distances
    compression: np.ndarray  # aligned suffix minima of target distances

    def expansion_at(self, t: float) -> float:
        if t < 0:
            return 0.0
        i = int(np.searchsorted(self.thresholds, t, side="right")) - 1
        return float(self.expansion[i]) if i >= 0 else 0.0

    def compression_at(self, t: float) -> float:
        if t <= 0:
            return 0.0
        i = int(np.searchsorted(self.thresholds, t, side="left"))
        if i >= len(self.thresholds):
            return math.inf
        return float(self.compression[i])


def moduli(mapping, source: FiniteMetricSpace,
           target: FiniteMetricSpace) -> ModuliTables:
    """Tabulate both moduli of a (not necessarily injective) map.

    Raises BudgetExceededError (require_budget) past either budget."""
    f = np.asarray(mapping, dtype=np.int64)
    ns = source.size
    if f.shape != (ns,):
        raise DimensionMismatchError(f"mapping must have shape ({ns},), got {f.shape}")
    # 52 bytes and 160 ns per ns^2 (complex coordinates on both sides; a net
    # into a table: 36.5 bytes at 1,600 points, 153 ns at 4,096)
    require_budget(f"a moduli scan of {ns} points", 52 * ns * ns, 160e-9 * ns * ns)
    require_indices(f, target.size)
    iu, ju = np.triu_indices(ns, k=1)
    ds = source.pairwise(iu, ju)
    dt = target.pairwise(f[iu], f[ju])
    ts, inv = np.unique(ds, return_inverse=True)
    gmax = np.full(ts.shape, -np.inf)
    np.maximum.at(gmax, inv, dt)
    gmin = np.full(ts.shape, np.inf)
    np.minimum.at(gmin, inv, dt)
    expansion = np.maximum.accumulate(gmax)
    compression = np.minimum.accumulate(gmin[::-1])[::-1]
    return ModuliTables(thresholds=ts, expansion=expansion, compression=compression)
