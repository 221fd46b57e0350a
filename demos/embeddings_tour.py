#!/usr/bin/env python3
"""Embedding constructions at desk scale: cycle profiles, grid
extraction, and the diagonal-walk certificates behind it."""

import numpy as np

from cotypelab import (
    GridFunction,
    TorusDomain,
    VSet,
    diag_distance,
    diag_geodesic_through,
    extract_grid,
    frechet_cycle,
    snowflake,
    sparse_anchors,
    sparse_frechet_cycle,
    torus_space,
)


def cycle_profiles() -> None:
    print("distance profiles embed the m-cycle isometrically:")
    for m in (4, 8, 16):
        emb = frechet_cycle(m)
        print(f"  m={m:2d}  full profile, dim {2 * m}, "
              f"distortion {emb.distortion:.12f}")

    print("\nsparse anchor profiles trade dimension for distortion <= 1 + 6 eps:")
    for m, eps in ((16, 0.5), (16, 0.25), (64, 0.125)):
        emb = sparse_frechet_cycle(m, eps)
        anchors = [int(a) for a in sparse_anchors(m, eps)]
        print(f"  m={m:2d} eps={eps:<5}  anchors {anchors}  "
              f"distortion {emb.distortion:.6f}  budget {1 + 6 * eps:.3f}")


def diagonal_walks() -> None:
    dom = TorusDomain(n=2, m=8)
    print("\nall-diagonal walks on Z_8^2 certify the graph distance:")
    for x, y in (((0, 0), (2, 2)), ((0, 2), (2, 0)), ((0, 0), (0, 2))):
        path = diag_geodesic_through(np.array(x), np.array(y), 4, dom)
        d = diag_distance(dom, np.array(x), np.array(y))
        route = " -> ".join(str(tuple(int(c) for c in s)) for s in path.steps)
        print(f"  {x} to {y}: distance {d}, hit at step {path.through_index}")
        print(f"    {route}")


def extraction() -> None:
    print("\ngrid extraction from an identity witness (no defect, no loss):")
    dom = TorusDomain(n=2, m=8)
    ident = GridFunction.points(dom, np.arange(dom.points))
    rec, report = extract_grid(ident, torus_space(dom), 4)
    print(f"  source {rec.source_size} points  distortion {rec.distortion:.12f}"
          f"  eta {report['eta']:.2e}")

    print("\nsame witness into the snowflaked torus (scales now disagree):")
    dom = TorusDomain(n=2, m=16)
    ident = GridFunction.points(dom, np.arange(dom.points))
    rec, report = extract_grid(ident, snowflake(torus_space(dom), 0.5), 8)
    print(f"  source {rec.source_size} points  distortion {rec.distortion:.12f}"
          f"  eta {report['eta']:.4f}")
    print(f"  V at s=8 has {len(VSet.of(8, 2).members)} members")


if __name__ == "__main__":
    cycle_profiles()
    diagonal_walks()
    extraction()
