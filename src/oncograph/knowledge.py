"""Knowledge-vs-evidence consistency checking per disease.

For a disease d the data evidence is the union and intersection of the
mutation sets of its diagnosed patients; the curated knowledge is the set
of mutations associated with d above a score threshold. Comparing the
intersection against the knowledge set classifies the disease into one of
four consistency statuses.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from . import errors
from .cohort import profiles_from_graph
from .graph import KnowledgeGraph, MutationKey

DEFAULT_GDA_THRESHOLD = Fraction(4, 5)


class ConsistencyStatus(enum.Enum):
    PERFECT_MATCH = "perfect_match"
    INCOMPLETE_KNOWLEDGE = "incomplete_knowledge"
    INCONSISTENT_EVIDENCE = "inconsistent_evidence"
    COMBINATION = "combination"


# Frozensets: the disease's patients, and the union and intersection of their
# profiles and the known set, at the check's granularity.
DiseaseEvidence = namedtuple(
    "DiseaseEvidence", "patients union_mutations common_mutations known_mutations"
)
# The status and three frozensets: items in the common evidence but not known,
# known but not common, and known but absent even from the union.
ConsistencyVerdict = namedtuple(
    "ConsistencyVerdict",
    "status missing_from_knowledge unsupported_knowledge coverage_violations",
)


def known_mutations(
    graph: KnowledgeGraph, disease_id: str, gda_threshold: Fraction = DEFAULT_GDA_THRESHOLD
) -> set[MutationKey]:
    """Mutations associated with the disease at score >= threshold; the
    scores are exact Fractions, so an exact threshold is compared exactly."""
    if not 0 <= gda_threshold <= 1:
        raise errors.InvalidLabel(f"gda_threshold {gda_threshold} outside [0, 1]")
    return {
        m for m, s in graph.gda_scores(disease_id).items() if s >= gda_threshold
    }


def classify(missing: frozenset, unsupported: frozenset) -> ConsistencyStatus:
    """Status as a pure function of the two difference sets."""
    if missing and unsupported:
        return ConsistencyStatus.COMBINATION
    if missing:
        return ConsistencyStatus.INCOMPLETE_KNOWLEDGE
    if unsupported:
        return ConsistencyStatus.INCONSISTENT_EVIDENCE
    return ConsistencyStatus.PERFECT_MATCH


def check_consistency(
    graph: KnowledgeGraph,
    disease_id: str,
    gda_threshold: Fraction = DEFAULT_GDA_THRESHOLD,
    gene_level: bool = True,
) -> tuple[DiseaseEvidence, ConsistencyVerdict]:
    """Compare curated knowledge against evidence for one disease.

    The patients' profiles come from ``cohort.profiles_from_graph``. At
    gene level (the default) they and the knowledge set are downgraded to
    gene symbols before the union/intersection is taken (curated sources
    record genes, not loci), so two patients carrying different mutations
    of the same gene still share that gene.
    """
    cohort = frozenset(graph.patients_of_disease(disease_id))
    known = frozenset(known_mutations(graph, disease_id, gda_threshold))
    if gene_level:
        known = frozenset(m.gene for m in known)
    items = [p.mutations for p in profiles_from_graph(graph, cohort, gene_level)]
    union = frozenset().union(*items)
    common = frozenset(items[0]).intersection(*items[1:]) if items else frozenset()
    evidence = DiseaseEvidence(
        patients=cohort,
        union_mutations=union,
        common_mutations=common,
        known_mutations=known,
    )
    missing = common - known
    unsupported = known - common
    verdict = ConsistencyVerdict(
        status=classify(missing, unsupported),
        missing_from_knowledge=missing,
        unsupported_knowledge=unsupported,
        coverage_violations=known - union,
    )
    return evidence, verdict
