#!/usr/bin/env python3
"""How large must the modulus be before the constant drops to a target?

Scans even m upward, evaluating the functional that the codomain picks
at each step, and stops at the first modulus meeting the target. With
the Hilbert target (None) the scan is exact; a finite space is
enumerated exactly while its maps fit the budget, and searched past it,
with a lower-bound caveat.
"""

import argparse

from cotypelab import NotFoundError, m_parameter_experiment, two_point_space


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--target", type=float, default=0.45)
    ap.add_argument("--m-max", type=int, default=16)
    args = ap.parse_args()

    print(f"hilbert scan, n={args.n}, target gamma <= {args.target}")
    try:
        res = m_parameter_experiment(None, args.n, 2.0, 2.0,
                                     args.target, args.m_max)
        for m, g in res.profile:
            mark = " <-- first hit" if m == res.found_m else ""
            print(f"  m={m:2d}  gamma = {g:.9f}{mark}")
    except NotFoundError as exc:
        print(f"  no modulus up to {args.m_max} reaches the target")
        for m, g in exc.profile:
            print(f"  m={m:2d}  gamma = {g:.9f}")
        return

    print("\nsame scan over two-point witnesses, n=1 (2000 evaluations a cell)")
    res = m_parameter_experiment(two_point_space(), 1, 2.0, 2.0,
                                 args.target, args.m_max)
    for m, g in res.profile:
        mark = f" <-- first hit, {res.mode}" if m == res.found_m else ""
        print(f"  m={m:2d}  gamma = {g:.9f}{mark}")


if __name__ == "__main__":
    main()
