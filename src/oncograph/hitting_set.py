"""Exact minimum-cardinality and minimum-weight hitting set over drug targets.

A treatment instance maps each selected mutation of a patient to the set of
drugs acting on it; a hitting set is a drug subset touching every one of
those sets. The solver is a deterministic branch and bound: branch on the
uncovered target set with fewest candidate drugs, bound with a greedy
packing of pairwise-disjoint uncovered sets, warm-start from a greedy
cover. Exponential in the worst case, but target sets are small in
practice. All weights are exact rationals; no floating point enters the
optimality comparison.

Tie-breaking is fixed everywhere: total weight, then cardinality, then the
lexicographically smallest sorted drug-id tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, TextIO

from . import errors
from .graph import KnowledgeGraph, MutationKey

ORACLE_UNIVERSE_LIMIT = 20


@dataclass(frozen=True)
class HittingSetInstance:
    universe: tuple[str, ...]                 # sorted drug ids
    family: tuple[frozenset[str], ...]        # one non-empty set per mutation
    weights: Mapping[str, Fraction]
    origin: Mapping[int, MutationKey] = field(default_factory=dict)

    def __post_init__(self):
        u = set(self.universe)
        for i, s in enumerate(self.family):
            if not s:
                m = self.origin.get(i)
                raise errors.Untargetable(m.display() if m else f"set #{i}")
            if not s <= u:
                raise ValueError(f"family set #{i} not within universe")


@dataclass(frozen=True)
class TreatmentSolution:
    drugs: frozenset[str]
    total_weight: Fraction
    optimal: bool
    hits: Mapping[MutationKey, frozenset[str]]


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
    universe = sorted(set().union(*family)) if family else []
    weights = {d: graph.drug(d).toxicity_weight for d in universe}
    return HittingSetInstance(
        universe=tuple(universe),
        family=tuple(family),
        weights=weights,
        origin=origin,
    )


def make_instance(
    family: Iterable[Iterable[str]],
    weights: Mapping[str, Fraction | int] | None = None,
    origin: Mapping[int, MutationKey] | None = None,
) -> HittingSetInstance:
    """Instance from bare drug-id sets; missing weights default to 1."""
    fam = tuple(frozenset(s) for s in family)
    universe = sorted(set().union(*fam)) if fam else []
    w = {d: Fraction(1) for d in universe}
    if weights:
        for d, v in weights.items():
            if d in w:
                if Fraction(v) < 0:
                    raise errors.InvalidLabel(f"negative weight for {d}")
                w[d] = Fraction(v)
    return HittingSetInstance(
        universe=tuple(universe), family=fam, weights=w, origin=origin or {}
    )


def _solution_key(drugs: frozenset[str], weights) -> tuple:
    total = sum((weights[d] for d in drugs), Fraction(0))
    return (total, len(drugs), tuple(sorted(drugs)))


def _assemble(instance: HittingSetInstance, drugs: frozenset[str]) -> TreatmentSolution:
    for i, s in enumerate(instance.family):
        if not s & drugs:  # soundness checked on every call
            raise AssertionError(f"solver output misses family set #{i}")
    total = sum((instance.weights[d] for d in drugs), Fraction(0))
    hits = {
        m: frozenset(instance.family[i] & drugs) for i, m in instance.origin.items()
    }
    return TreatmentSolution(drugs=drugs, total_weight=total, optimal=True, hits=hits)


def _greedy(family, weights) -> frozenset[str]:
    """Warm-start upper bound: repeatedly take the drug with the best
    covered-sets-per-weight ratio (ties by drug id)."""
    uncovered = list(range(len(family)))
    chosen: set[str] = set()
    while uncovered:
        best = None
        for d in sorted({d for i in uncovered for d in family[i]}):
            cover = sum(1 for i in uncovered if d in family[i])
            w = weights[d]
            score = (Fraction(cover) / w) if w > 0 else Fraction(cover) * 10**9 + 1
            if best is None or score > best[0]:
                best = (score, d)
        chosen.add(best[1])
        uncovered = [i for i in uncovered if best[1] not in family[i]]
    return frozenset(chosen)


def _packing_bound(family_idx, family, weights) -> Fraction:
    """Greedy packing of pairwise-disjoint uncovered sets; the cheapest
    drug of each packed set is a valid lower bound on the remaining cost."""
    bound = Fraction(0)
    used: set[str] = set()
    for i in sorted(family_idx, key=lambda i: (len(family[i]), sorted(family[i]))):
        s = family[i]
        if s & used:
            continue
        used |= s
        bound += min(weights[d] for d in s)
    return bound


def _branch_and_bound(instance: HittingSetInstance, weights) -> frozenset[str]:
    family = instance.family
    if not family:
        return frozenset()
    best = _greedy(family, weights)
    best_key = _solution_key(best, weights)

    def recurse(chosen: set[str], weight: Fraction, uncovered: list[int]) -> None:
        nonlocal best, best_key
        if not uncovered:
            key = (weight, len(chosen), tuple(sorted(chosen)))
            if key < best_key:
                best, best_key = frozenset(chosen), key
            return
        if weight + _packing_bound(uncovered, family, weights) > best_key[0]:
            return
        # Branch on the uncovered set with fewest candidates; try its drugs
        # most-covering first for early good bounds, id order on ties.
        pivot = min(uncovered, key=lambda i: (len(family[i]), sorted(family[i])))
        candidates = sorted(
            family[pivot],
            key=lambda d: (-sum(1 for i in uncovered if d in family[i]), d),
        )
        for d in candidates:
            chosen.add(d)
            recurse(
                chosen,
                weight + weights[d],
                [i for i in uncovered if d not in family[i]],
            )
            chosen.remove(d)

    recurse(set(), Fraction(0), list(range(len(family))))
    return best


def solve_min_weight(instance: HittingSetInstance) -> TreatmentSolution:
    """Hitting set of provably minimum total weight (exact, deterministic)."""
    return _assemble(instance, _branch_and_bound(instance, dict(instance.weights)))


def solve_min_cardinality(instance: HittingSetInstance) -> TreatmentSolution:
    """Hitting set of provably minimum size; reported weight uses the
    instance's real drug weights even though the objective ignores them."""
    unit = {d: Fraction(1) for d in instance.universe}
    return _assemble(instance, _branch_and_bound(instance, unit))


def oracle_solve(
    instance: HittingSetInstance, objective: str = "weight"
) -> TreatmentSolution:
    """Exhaustive reference solver over all 2^|U| subsets (|U| <= 20)."""
    n = len(instance.universe)
    if n > ORACLE_UNIVERSE_LIMIT:
        raise errors.UniverseTooLarge(f"universe size {n} > {ORACLE_UNIVERSE_LIMIT}")
    if objective == "weight":
        weights = dict(instance.weights)
    elif objective == "cardinality":
        weights = {d: Fraction(1) for d in instance.universe}
    else:
        raise ValueError(f"unknown objective '{objective}'")
    masks = [
        sum(1 << instance.universe.index(d) for d in s) for s in instance.family
    ]
    best = None
    best_key = None
    for mask in range(1 << n):
        if any(mask & m == 0 for m in masks):
            continue
        drugs = frozenset(
            instance.universe[i] for i in range(n) if mask & (1 << i)
        )
        key = _solution_key(drugs, weights)
        if best_key is None or key < best_key:
            best, best_key = drugs, key
    return _assemble(instance, best)


# ----------------------------------------------------------------------
# Small text interchange format: one line per family set (comma-separated
# drug ids); optional weight lines "drug<TAB>weight".

def write_instance(instance: HittingSetInstance, stream: TextIO) -> None:
    for s in instance.family:
        stream.write(",".join(sorted(s)) + "\n")
    for d in instance.universe:
        if instance.weights[d] != 1:
            stream.write(f"{d}\t{instance.weights[d]}\n")


def read_instance(stream: TextIO) -> HittingSetInstance:
    family: list[frozenset[str]] = []
    weights: dict[str, Fraction] = {}
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" in line:
            drug, w = line.split("\t", 1)
            weights[drug.strip()] = Fraction(w.strip())
        else:
            family.append(frozenset(p.strip() for p in line.split(",") if p.strip()))
    return make_instance(family, weights)
