"""Exact minimum-cardinality and minimum-weight hitting set over drug targets.

A treatment instance maps each selected mutation of a patient to the set of
drugs acting on it; a hitting set is a drug subset touching every one of
those sets. The solver is one deterministic branch and bound over Python
ints: drugs are bits, target sets are masks, and the exact rational weights
are scaled by the LCM of their denominators to integers, so no floating
point enters the optimality comparison. It branches on the uncovered target
set with fewest candidate drugs, most-covering drug first (so its first
descent is the greedy cover), and bounds with a greedy packing of
pairwise-disjoint uncovered sets. Exponential in the worst case, but target
sets are small in practice.

Tie-breaking is fixed everywhere: total weight, then cardinality, then the
lexicographically smallest sorted drug-id tuple.

Instances come from a patient's graph neighborhood (``build_instance``) or
from bare drug-id sets (``make_instance``); they have no file format.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction

from . import errors
from .graph import KnowledgeGraph, MutationKey

ORACLE_UNIVERSE_LIMIT = 20


class HittingSetInstance:
    """Target sets over a universe of drugs, checked when the instance is made."""

    universe: tuple[str, ...]                 # sorted drug ids
    family: tuple[frozenset[str], ...]        # one non-empty set per mutation
    weights: Mapping[str, Fraction]
    origin: Mapping[int, MutationKey]         # family index -> its mutation

    def __init__(self, universe, family, weights, origin=None) -> None:
        u = set(universe)
        for i, s in enumerate(family):
            if not s:
                raise errors.Untargetable(f"set #{i}")
            if not s <= u:
                raise ValueError(f"family set #{i} not within universe")
        self.universe, self.family, self.weights = universe, family, weights
        self.origin = {} if origin is None else origin


# The chosen drugs, their exact total weight, and each target mutation's
# chosen drugs.
TreatmentSolution = namedtuple("TreatmentSolution", "drugs total_weight hits")


def build_instance(
    graph: KnowledgeGraph,
    patient_id: str,
    target_mutations: Iterable[MutationKey],
) -> HittingSetInstance:
    """Instance for a patient's selected target mutations.

    The universe is restricted to the union of the per-mutation drug sets
    (equivalent optimum, smaller search space); weights come from the drug
    nodes' toxicity weights.
    """
    carried = graph.mutations_of_patient(patient_id)
    targets = sorted(set(target_mutations))
    family = []
    origin = {}
    for i, m in enumerate(targets):
        if m not in carried:
            raise errors.NotPatientMutation(
                f"{m.display()} is not a mutation of patient {patient_id}"
            )
        drugs = graph.target_drugs(m)
        if not drugs:
            raise errors.Untargetable(m.display())
        family.append(frozenset(drugs))
        origin[i] = m
    universe = tuple(sorted(set().union(*family)))
    weights = {d: graph.drug(d).toxicity_weight for d in universe}
    return HittingSetInstance(universe, tuple(family), weights, origin)


def make_instance(
    family: Iterable[Iterable[str]],
    weights: Mapping[str, Fraction | int] | None = None,
) -> HittingSetInstance:
    """Instance from bare drug-id sets; missing weights default to 1.

    A drug id may not contain a comma: ids follow the rule of the parse
    boundary, where ids are comma-joined in outputs and ``treat --targets``.
    """
    fam = tuple(frozenset(s) for s in family)
    universe = tuple(sorted(set().union(*fam)))
    for d in universe:
        if "," in d:
            raise errors.InvalidLabel(f"comma in drug id '{d}'")
    w = dict.fromkeys(universe, Fraction(1))
    for d, v in (weights or {}).items():
        if d in w:
            if Fraction(v) < 0:
                raise errors.InvalidLabel(f"negative weight for {d}")
            w[d] = Fraction(v)
    return HittingSetInstance(universe, fam, w)


def _assemble(instance: HittingSetInstance, drugs: frozenset[str]) -> TreatmentSolution:
    for i, s in enumerate(instance.family):
        if not s & drugs:  # soundness checked on every call
            raise AssertionError(f"solver output misses family set #{i}")
    total = sum((instance.weights[d] for d in drugs), Fraction(0))
    hits = {m: instance.family[i] & drugs for i, m in instance.origin.items()}
    return TreatmentSolution(drugs=drugs, total_weight=total, hits=hits)


def _branch_and_bound(instance: HittingSetInstance, weights: Mapping) -> frozenset[str]:
    """The hitting set of least (weight, size, sorted drug tuple).

    Drug ``i`` of the sorted universe is bit ``n-1-i``: among drug sets of one
    size the larger mask is the smaller tuple, so the key is
    ``(weight, size, -mask)``. Target masks are sorted once into pivot order
    (fewest drugs, then id tuple). A branch bans the drugs of its earlier
    siblings, whose subtrees already hold every cover containing them.
    """
    n = len(instance.universe)
    bit = {d: 1 << (n - 1 - i) for i, d in enumerate(instance.universe)}
    scale = math.lcm(*(weights[d].denominator for d in instance.universe))
    cost = {bit[d]: int(weights[d] * scale) for d in instance.universe}
    targets = sorted(
        {sum(bit[d] for d in s) for s in instance.family},
        key=lambda t: (t.bit_count(), -t),
    )
    cheapest = {t: min(c for b, c in cost.items() if t & b) for t in targets}
    best = (sum(cost.values()) + 1, 0, 0)  # worse than any cover

    def search(chosen: int, weight: int, size: int, uncovered: list[int], banned: int):
        nonlocal best
        if not uncovered:
            best = min(best, (weight, size, -chosen))
            return
        bound, packed = weight, 0
        for t in uncovered:
            if not t & packed:
                packed |= t
                bound += cheapest[t]
        if (bound, size + 1) > best[:2]:
            return
        drugs = []
        free = uncovered[0] & ~banned
        while free:
            drugs.append(free & -free)
            free &= free - 1
        drugs.sort(key=lambda b: (-sum(1 for t in uncovered if t & b), -b))
        for b in drugs:
            rest = [t for t in uncovered if not t & b]
            search(chosen | b, weight + cost[b], size + 1, rest, banned)
            banned |= b

    search(0, 0, 0, targets, 0)
    return frozenset(d for d in instance.universe if -best[2] & bit[d])


def solve_min_weight(instance: HittingSetInstance) -> TreatmentSolution:
    """Hitting set of provably minimum total weight (exact, deterministic)."""
    return _assemble(instance, _branch_and_bound(instance, instance.weights))


def solve_min_cardinality(instance: HittingSetInstance) -> TreatmentSolution:
    """Hitting set of provably minimum size; reported weight uses the
    instance's real drug weights even though the objective ignores them."""
    unit = dict.fromkeys(instance.universe, 1)
    return _assemble(instance, _branch_and_bound(instance, unit))


def oracle_solve(
    instance: HittingSetInstance, objective: str = "weight"
) -> TreatmentSolution:
    """Exhaustive reference solver over all 2^|U| subsets (|U| <= 20)."""
    n = len(instance.universe)
    if n > ORACLE_UNIVERSE_LIMIT:
        raise errors.UniverseTooLarge(f"universe size {n} > {ORACLE_UNIVERSE_LIMIT}")
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
    return _assemble(instance, frozenset(best[2]))

