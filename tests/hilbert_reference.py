"""The exhaustive frequency scan: the oracle for the value and maximizer of
gamma_hilbert_exact's closed form.

The constant is the max over frequencies k != 0 of
sqrt(4 * #{j : k_j odd} / (m^2 * D(k))), D(k) = 2 - 2 * prod_j f(k_j),
f(r) = (1 + 2 cos(2 pi r / m)) / 3. The quotient is invariant under
coordinate permutations and under k_j -> m - k_j, so the scan runs over
multisets of folded residues in [0, m/2], in lexicographic order, and
keeps the first strictly larger quotient.
"""
import itertools
import math


def gamma_hilbert_scan(n: int, m: int) -> tuple[float, tuple]:
    """(constant, first maximizing multiset) over all C(m/2 + n, n)."""
    half = m // 2
    factors = [(1.0 + 2.0 * math.cos(2.0 * math.pi * r / m)) / 3.0
               for r in range(half + 1)]
    odd_flags = [r % 2 for r in range(half + 1)]
    best = -1.0
    best_k: tuple = ()
    for combo in itertools.combinations_with_replacement(range(half + 1), n):
        odd = 0
        prod = 1.0
        for r in combo:
            odd += odd_flags[r]
            prod *= factors[r]
        if odd == 0:
            continue  # numerator vanishes (covers the excluded k = 0 too)
        dk = 2.0 - 2.0 * prod
        ratio = 4.0 * odd / (m * m * dk)
        if ratio > best:
            best = ratio
            best_k = combo
    return math.sqrt(best), best_k
