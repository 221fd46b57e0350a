#!/usr/bin/env python3
"""Exhaustive versus searched versus random two-point witnesses.

Maps into the two-point space are subsets of the torus, so tiny
instances can be enumerated outright. A search enumerates too while the
2^(m^n) maps fit its budget; past it, the hill climb only reports a lower
bound. Random witnesses concentrate near a closed-form mean. All three
views are printed side by side.
"""

import numpy as np

from cotypelab import (
    expected_random_gamma,
    gamma_exhaustive_two_point,
    gamma_search,
    random_two_point_mc,
    two_point_space,
)

CELLS = [(1, 2), (1, 4), (2, 2), (2, 4), (1, 6)]
BUDGET = 400
CLIMBED = [(1, 10), (1, 12), (2, 4), (1, 16)]  # 2^(m^n) maps past BUDGET


def main() -> None:
    space = two_point_space()

    print("exhaustive maxima (p = q = 2), witness shown as a subset mask")
    for n, m in CELLS:
        rep = gamma_exhaustive_two_point(n, m, 2.0, 2.0)
        mask = "".join(str(int(v)) for v in rep.witness.values)
        print(f"  n={n} m={m}   gamma = {rep.gamma_hat:.12f}   f = {mask}")

    print(f"\nhill-climb lower bounds ({BUDGET} evaluations) against the enumerated truth")
    for n, m in CLIMBED:
        truth = gamma_exhaustive_two_point(n, m, 2.0, 2.0).gamma_hat
        found = gamma_search(space, n, m, 2.0, 2.0, budget=BUDGET, seed=0).gamma_hat
        gap = truth - found
        print(f"  n={n} m={m}   search {found:.12f}   truth {truth:.12f}   gap {gap:.2e}")

    print("\nuniform random witnesses at n=2, m=4 (10^4 draws)")
    out = random_two_point_mc(2, 4, 2.0, 2.0, trials=10**4, seed=0)
    formula = expected_random_gamma(2, 4, 2.0, 2.0)
    print(f"  mc mean    {out['gamma_mc']:.6f} +- {out['stderr']:.6f}")
    print(f"  closed form {formula:.6f}")
    z = abs(out["gamma_mc"] - formula) / out["stderr"]
    print(f"  |gap| = {z:.2f} standard errors")


if __name__ == "__main__":
    main()
