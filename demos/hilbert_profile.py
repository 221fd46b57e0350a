#!/usr/bin/env python3
"""Profile the exact Hilbert-space constant over the modulus.

For maps of Z_m^n into Hilbert space with p = q = 2 the extremal ratio
has a closed form per frequency, and the maximizing frequency is always
(1, ..., 1): the constant is sqrt(4n / (m^2 (2 - 2c^n))) with
c = (1 + 2 cos(2 pi / m)) / 3. This walk prints the profile for a few
dimensions, marks the sqrt(6)/pi ceiling that kicks in once m is a
multiple of 4 and large against sqrt(n), and cross-checks two cells
against the dense oracle, which whitens the edge form with eigh and
takes the largest eigenvalue of the whitened shift form with eigvalsh.

    python3 demos/hilbert_profile.py [out.svg]
"""

import math
import sys

from cotypelab import emit_plot, gamma_hilbert_exact, hilbert_gamma_power_iteration

CEILING = math.sqrt(6.0) / math.pi


def main() -> None:
    print("exact constant gamma(n, m), maximizing frequency in brackets")
    print(f"ceiling for 4 | m and m >= (2/3) pi sqrt(n): {CEILING:.6f}\n")

    series = []
    for n in (1, 2, 3):
        pts = []
        print(f"n = {n}")
        for m in range(2, 25, 2):
            g, argmax = gamma_hilbert_exact(n, m)
            tag = " <= ceiling" if m % 4 == 0 and m >= (2.0 / 3.0) * math.pi * math.sqrt(n) else ""
            print(f"  m = {m:2d}   gamma = {g:.9f}   {list(argmax)}{tag}")
            pts.append((m, g))
        series.append((f"n={n}", pts))
        print()

    # an independent route to the same numbers: eigenvalues of the two
    # dense quadratic forms instead of the closed form
    for n, m in ((1, 4), (2, 4)):
        exact, _ = gamma_hilbert_exact(n, m)
        oracle = hilbert_gamma_power_iteration(n, m)
        print(f"oracle check (n={n}, m={m}): exact {exact:.12f}  "
              f"eigvalsh oracle {oracle:.12f}  gap {abs(exact - oracle):.2e}")

    if len(sys.argv) > 1:
        path = emit_plot(series, sys.argv[1],
                         title="Hilbert constant vs modulus",
                         xlabel="m", ylabel="gamma",
                         reference=("sqrt(6)/pi", CEILING))
        print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
