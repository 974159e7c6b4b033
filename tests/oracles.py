"""Reference implementations that the tests compare the runtime against.

None of these is fast; each is the plain definition of what the runtime
computes by a faster route.
"""

import math
from fractions import Fraction

from oncograph import hitting_set as hs

ORACLE_UNIVERSE_LIMIT = 20


def oracle_solve(instance, objective="weight"):
    """Exhaustive reference solver over all 2^|U| subsets (|U| <= 20)."""
    n = len(instance.universe)
    assert n <= ORACLE_UNIVERSE_LIMIT, f"universe size {n} > {ORACLE_UNIVERSE_LIMIT}"
    if objective == "weight":
        weights = instance.weights
    elif objective == "cardinality":
        weights = dict.fromkeys(instance.universe, 1)
    else:
        raise ValueError(f"unknown objective '{objective}'")
    # Integer weights scaled by the LCM of the denominators: exact, and far
    # cheaper to sum per subset than Fractions.
    scale = math.lcm(*(weights[d].denominator for d in instance.universe))
    cost = [int(weights[d] * scale) for d in instance.universe]
    masks = [sum(1 << instance.universe.index(d) for d in s) for s in instance.family]
    best = (sum(cost) + 1, 0, ())  # (weight, size, drug tuple), worse than any cover
    for mask in range(1 << n):
        if any(mask & m == 0 for m in masks):
            continue
        total = sum(c for i, c in enumerate(cost) if mask >> i & 1)
        if total <= best[0]:
            drugs = tuple(d for i, d in enumerate(instance.universe) if mask >> i & 1)
            best = min(best, (total, len(drugs), drugs))
    # _assemble checks that the cover hits every target set.
    return hs._assemble(instance, frozenset(best[2]))


def hamming_distance(a, b):
    """Number of mutations affecting exactly one of the two patients."""
    return len(a.mutations ^ b.mutations)


def jaccard_distance(a, b):
    """Symmetric difference over union; two empty profiles are at distance 0."""
    union = a.mutations | b.mutations
    if not union:
        return Fraction(0)
    return Fraction(len(a.mutations ^ b.mutations), len(union))
