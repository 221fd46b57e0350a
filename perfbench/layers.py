"""Reference timings for single layer calls, one process, warm.

    python3 perfbench/layers.py

Run from the root of a checkout. Each row is one call (or one call per
evaluation for the hill climb) timed ``REPEATS`` times after one
untimed warm-up call; the row gives the median and the minimum. These are
the layer rows the ROADMAP asks every performance change to quote; the
benchmark proper (``run.py``) measures whole workloads in fresh processes.
BLAS threads are held at 1, as in the benchmark's rounds.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

from run import THREAD_VARS  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
os.environ.update({v: "1" for v in THREAD_VARS})  # as in every benchmark round

import numpy as np  # noqa: E402

import cotypelab as cl  # noqa: E402

REPEATS = 7


def rows():
    rng = np.random.default_rng(20050620)
    two = cl.two_point_space()
    for n, m in ((2, 6), (3, 6), (4, 4)):
        dom = cl.TorusDomain(n=n, m=m)
        f = cl.GridFunction.points(dom, rng.integers(0, 2, dom.points))
        yield (f"cotype_functionals two-point n={n} m={m}", 1,
               lambda f=f: cl.cotype_functionals(f, two, 2.0, 2.0))
    for n, m in ((1, 512), (2, 64)):
        dom = cl.TorusDomain(n=n, m=m)
        f = cl.GridFunction.vector(dom, cl.random_vector_values(dom, 2, rng))
        yield f"fourier_forward N={dom.points}", 1, lambda f=f: cl.fourier_forward(f)
    dom = cl.TorusDomain(n=3, m=10)
    f = cl.GridFunction.vector(dom, cl.random_vector_values(dom, 2, rng))
    norm = cl.NormTarget(p=2.0, dim=2)
    yield "smoothing_apply n=3 m=10 k=3", 1, lambda: cl.smoothing_apply(f, 0, 3)
    yield ("check_lemma_cancellation n=3 m=10 k=3", 1,
           lambda: cl.check_lemma_cancellation(f, norm, 3, 2.0, np.ones(3, dtype=np.int64)))
    pts = cl.grid_points(5, 4)
    sup, l2 = cl.points_space(pts, math.inf), cl.points_space(pts, 2.0)
    yield "distortion N=3125", 1, lambda: cl.distortion(np.arange(len(pts)), sup, l2)
    budget = 2000
    yield ("gamma_search hill climb per evaluation n=2 m=6", budget,
           lambda: cl.gamma_search(two, 2, 6, 2.0, 2.0, budget, 0))


def main() -> int:
    for label, per, fn in rows():
        fn()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) / per)
        print(json.dumps({"row": label, "median_ms": 1e3 * statistics.median(times),
                          "min_ms": 1e3 * min(times), "repeats": REPEATS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
