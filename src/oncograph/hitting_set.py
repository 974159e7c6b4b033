"""Exact minimum-cardinality and minimum-weight hitting set over drug targets.

A treatment instance maps each selected mutation of a patient to the set of
drugs acting on it; a hitting set is a drug subset touching every one of
those sets. The solver is one deterministic branch and bound over Python
ints. The exact rational weights are scaled by the LCM of their
denominators to integers and folded, with the tie-break, into one strict
integer cost per drug, so no floating point and no tuple comparison enters
the search. Two exact reductions shrink the instance first: a target set
that holds another is dropped, and so is a drug that a cheaper drug
dominates. The search state is the bitset of uncovered targets; it
branches on the uncovered target with fewest drugs, most-covering drug
first (so its first descent is the greedy cover), and bounds with a greedy
packing of pairwise-disjoint uncovered targets. Exponential in the worst
case, but target sets are small in practice.

Tie-breaking is fixed everywhere: total weight, then cardinality, then the
lexicographically smallest sorted drug-id tuple.

An instance is a named tuple, and ``make_instance`` is the only code that
forms one: it checks the target sets and the weights. ``build_instance``
reads a patient's target drug sets and the drug weights off the graph and
passes them to it. Instances have no file format.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction

from . import errors
from .graph import KnowledgeGraph, MutationKey


# The sorted drug ids, one non-empty drug set per target mutation, and each
# drug's exact weight; only make_instance forms one.
HittingSetInstance = namedtuple("HittingSetInstance", "universe family weights")
# The chosen drugs and their exact total weight.
TreatmentSolution = namedtuple("TreatmentSolution", "drugs total_weight")


def build_instance(
    graph: KnowledgeGraph,
    patient_id: str,
    target_mutations: Iterable[MutationKey],
) -> HittingSetInstance:
    """Instance for a patient's selected target mutations.

    The universe is restricted to the union of the per-mutation drug sets
    (equivalent optimum, smaller search space); weights come from the drug
    nodes' toxicity weights, and ``make_instance`` checks both.
    """
    carried = graph.mutations_of_patient(patient_id)
    family = []
    for m in sorted(set(target_mutations)):
        if m not in carried:
            raise errors.NotPatientMutation(m.display(), patient_id)
        drugs = graph.target_drugs(m)
        if not drugs:
            raise errors.Untargetable(m.display())
        family.append(drugs)
    weights = {d: graph.drug(d).toxicity_weight for d in set().union(*family)}
    return make_instance(family, weights)


def make_instance(
    family: Iterable[Iterable[str]],
    weights: Mapping[str, Fraction | int] | None = None,
) -> HittingSetInstance:
    """Instance from drug-id sets; missing weights default to 1.

    Every set must be non-empty (``Untargetable`` names the first empty
    one by its position). A drug id may not contain a comma: ids follow the
    rule of the parse boundary, where ids are comma-joined in outputs and
    ``treat --targets``.
    A weight must be an ``int`` or a ``Fraction``: a float is a binary
    fraction, not the decimal it was written as.
    """
    fam = tuple(frozenset(s) for s in family)
    for i, s in enumerate(fam):
        if not s:
            raise errors.Untargetable(f"set #{i}")
    universe = tuple(sorted(set().union(*fam)))
    for d in universe:
        if "," in d:
            raise errors.InvalidLabel(f"comma in drug id '{d}'")
    w = dict.fromkeys(universe, Fraction(1))
    for d, v in (weights or {}).items():
        if d in w:
            if not isinstance(v, (int, Fraction)):
                raise errors.InvalidLabel(f"weight for {d} is not an int or a Fraction: {v!r}")
            if v < 0:
                raise errors.InvalidLabel(f"negative weight for {d}")
            w[d] = Fraction(v)
    return HittingSetInstance(universe, fam, w)


def _assemble(instance: HittingSetInstance, drugs: frozenset[str]) -> TreatmentSolution:
    for i, s in enumerate(instance.family):
        if not s & drugs:  # soundness checked on every call
            raise AssertionError(f"solver output misses family set #{i}")
    total = sum((instance.weights[d] for d in drugs), Fraction(0))
    return TreatmentSolution(drugs=drugs, total_weight=total)


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _branch_and_bound(instance: HittingSetInstance, weights: Mapping) -> frozenset[str]:
    """The hitting set of least (weight, size, sorted drug tuple).

    Drug ``i`` of the sorted universe is bit ``n-1-i``, so among drug sets of
    one size the larger mask is the smaller tuple. With ``B = 2**n`` and
    ``A = B*(n+2)``, drug ``d`` costs ``weight(d)*scale*A + B - bit(d)``, and
    a set costs ``W*A + size*B - mask``: one integer per set, distinct for
    distinct sets, ordered exactly as the tie-break orders them. The mask of
    a set is its cost's residue ``-cost % B``.

    Two exact reductions run first, until neither applies: a target set that
    holds another is dropped, and so is a drug when another drug of lower
    cost hits every target it hits (swapping it for that drug lowers the
    cost of any cover, so the optimum never holds it). The targets left are
    then bits of their own, in pivot order (fewest drugs, then id tuple),
    and the search state is the ``int`` of uncovered targets. Each node
    branches on its lowest uncovered target, most-covering drug first (so
    the first descent is the greedy cover), and is pruned when a greedy
    packing of pairwise-disjoint uncovered targets, each paying its cheapest
    drug, costs at least the best cover found. A branch bans the drugs of
    its earlier siblings, whose subtrees already hold every cover containing
    them. The search runs on an explicit stack, so a cover may hold more
    drugs than the recursion limit.
    """
    n = len(instance.universe)
    bit = {d: 1 << (n - 1 - i) for i, d in enumerate(instance.universe)}
    scale = math.lcm(*(weights[d].denominator for d in instance.universe))
    B = 1 << n
    A = B * (n + 2)
    cost = {bit[d]: int(weights[d] * scale) * A + B - bit[d] for d in instance.universe}
    targets = {sum(bit[d] for d in s) for s in instance.family}
    while True:
        # Pivot order puts a subset before its supersets; a subset of t has
        # its lowest drug in t.
        drugs_of, by_low = {}, {}  # target bit (1 << i for the i-th kept) -> drugs
        for t in sorted(targets, key=lambda t: (t.bit_count(), -t)):
            if all(k & ~t for b in _bits(t) for k in by_low.get(b, ())):
                by_low.setdefault(t & -t, []).append(t)
                drugs_of[1 << len(drugs_of)] = t
        hits = {}  # drug bit -> its target bits
        for tb, t in drugs_of.items():
            for b in _bits(t):
                hits[b] = hits.get(b, 0) | tb
        # Cheapest first, so a drug's dominator, if it has one, is already
        # kept; it hits the drug's first target.
        left = 0
        for b in sorted(hits, key=cost.__getitem__):
            h = hits[b]
            if all(h & ~hits[k] for k in _bits(drugs_of[h & -h] & left)):
                left |= b
        if left.bit_count() == len(hits):
            break
        targets = {t & left for t in drugs_of.values()}
    cheapest = {tb: min(map(cost.__getitem__, _bits(t))) for tb, t in drugs_of.items()}
    best = sum(cost.values()) + 1  # worse than any cover

    def enter(total: int, uncovered: int, banned: int):
        """A node's frame: its state and its drugs not yet tried, the next
        one last; None for a cover, a node that the bound rules out, or one
        whose drugs are all banned."""
        nonlocal best
        if not uncovered:
            best = min(best, total)
            return None
        bound, packed, rest = total, 0, uncovered
        while rest:
            low = rest & -rest
            rest ^= low
            t = drugs_of[low]
            if not t & packed:
                packed |= t
                bound += cheapest[low]
                if bound >= best:
                    return None
        # Ascending, as the last is tried first: the most-covering drug, and
        # of those the larger bit, the one earlier in the universe.
        drugs = sorted(_bits(drugs_of[uncovered & -uncovered] & ~banned),
                       key=lambda b: ((hits[b] & uncovered).bit_count(), b))
        return [total, uncovered, banned, drugs] if drugs else None

    root = enter(0, (1 << len(drugs_of)) - 1, 0)
    stack = [root] if root else []
    while stack:
        total, uncovered, banned, drugs = frame = stack[-1]
        b = drugs.pop()
        if drugs:
            frame[2] = banned | b  # the later siblings ban b; this child does not
        else:
            stack.pop()
        child = enter(total + cost[b], uncovered & ~hits[b], banned)
        if child:
            stack.append(child)
    mask = -best % B
    return frozenset(d for d in instance.universe if mask & bit[d])


def solve_min_weight(instance: HittingSetInstance) -> TreatmentSolution:
    """Hitting set of provably minimum total weight (exact, deterministic)."""
    return _assemble(instance, _branch_and_bound(instance, instance.weights))


def solve_min_cardinality(instance: HittingSetInstance) -> TreatmentSolution:
    """Hitting set of provably minimum size; reported weight uses the
    instance's real drug weights even though the objective ignores them."""
    unit = dict.fromkeys(instance.universe, 1)
    return _assemble(instance, _branch_and_bound(instance, unit))
