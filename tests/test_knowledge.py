import io
import random
from fractions import Fraction

import pytest

from oncograph import (
    DiagnosisEdge,
    DiseaseNode,
    EdgeColor,
    GdaAssociation,
    GeneticEdge,
    KnowledgeGraph,
    PatientRecord,
    errors,
    ingest,
    knowledge,
)
from oncograph.knowledge import ConsistencyStatus

from conftest import make_mutation, random_graph


def graph_with(profiles, known=(), disease="D1", scores=None):
    """profiles: {patient: [mutations]}; known: mutations linked to disease."""
    g = KnowledgeGraph()
    g.add_node(DiseaseNode(disease))
    all_muts = {m for muts in profiles.values() for m in muts} | set(known)
    for m in sorted(all_muts):
        g.add_node(m)
    for pid, muts in profiles.items():
        g.add_node(PatientRecord(pid, 10, True))
        g.add_edges([DiagnosisEdge(disease, pid)])
        for m in muts:
            g.add_edges([GeneticEdge(pid, m, 0.5)])
    for m in known:
        score = (scores or {}).get(m, 1.0)
        g.add_edges([GdaAssociation(disease, m, score)])
    return g


M1 = make_mutation("KRAS", 100)
M2 = make_mutation("TP53", 200)
M3 = make_mutation("EGFR", 300)


def evidence_of(g, disease="D1"):
    evidence, _ = knowledge.check_consistency(g, disease, gene_level=False)
    return evidence


class TestSetOperations:
    def test_patients_of_empty(self):
        g = graph_with({})
        assert g.patients_of_disease("D1") == set()

    def test_patients_of_fixture(self):
        g = graph_with({"P1": [M1], "P2": [M2]})
        g.add_node(DiseaseNode("D2"))
        g.add_node(PatientRecord("P3", 5, False))
        g.add_edges([DiagnosisEdge("D2", "P3")])
        assert g.patients_of_disease("D1") == {"P1", "P2"}

    def test_union_intersection_fixture(self):
        evidence = evidence_of(graph_with({"P1": [M1, M2], "P2": [M2]}))
        assert evidence.union_mutations == {M1, M2}
        assert evidence.common_mutations == {M2}

    def test_empty_cohort_convention(self):
        evidence = evidence_of(graph_with({}))
        assert evidence.union_mutations == set()
        assert evidence.common_mutations == set()

    def test_unknown_disease(self):
        g = graph_with({})
        with pytest.raises(errors.UnknownDisease):
            g.patients_of_disease("NOPE")

    def test_single_patient_union_equals_intersection(self):
        evidence = evidence_of(graph_with({"P1": [M1, M3]}))
        assert evidence.union_mutations == evidence.common_mutations == {M1, M3}


class TestKnownMutations:
    def test_threshold_zero_returns_all(self):
        g = graph_with({}, known=[M1, M2], scores={M1: 0.3, M2: 0.9})
        assert knowledge.known_mutations(g, "D1", 0.0) == {M1, M2}

    def test_threshold_one_boundary(self):
        g = graph_with({}, known=[M1, M2], scores={M1: 0.95, M2: 1.0})
        assert knowledge.known_mutations(g, "D1", 1.0) == {M2}

    @pytest.mark.parametrize("threshold", [Fraction(-1, 10), Fraction(11, 10)])
    def test_threshold_outside_unit_interval(self, threshold):
        g = graph_with({}, known=[M1])
        with pytest.raises(errors.InvalidLabel, match=rf"^gda_threshold {threshold} outside"):
            knowledge.known_mutations(g, "D1", threshold)

    def test_antitone_in_threshold(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, max_nodes=30)
            for d in g.diseases:
                t1, t2 = sorted((rng.random(), rng.random()))
                assert knowledge.known_mutations(g, d, t2) <= knowledge.known_mutations(
                    g, d, t1
                )

    def test_scores_read_from_text_are_compared_exactly(self):
        # float("0.29999999999999999") is 0.3, but the score is below 3/10; and
        # the default threshold is exactly 4/5, which a score of 0.8 reaches.
        gda = ingest.parse_gda_table(
            io.StringIO(
                "gene\tdisease\tgda_score\nKRAS\tD1\t0.3\n"
                "TP53\tD1\t0.29999999999999999\nBRAF\tD1\t0.8\n"
            )
        )
        g, _ = ingest.build_graph(
            [GeneticEdge("P1", make_mutation(gene, 1)) for gene in ("KRAS", "TP53", "BRAF")],
            [(PatientRecord("P1", 10, True), DiagnosisEdge("D1", "P1"))],
            gda.rows,
            [],
        )

        def genes(*threshold):
            return {m.gene for m in knowledge.known_mutations(g, "D1", *threshold)}

        assert genes(Fraction(3, 10)) == {"KRAS", "BRAF"}
        assert genes() == {"BRAF"}


class TestConsistency:
    def test_perfect_match(self):
        g = graph_with({"P1": [M1], "P2": [M1]}, known=[M1])
        _, verdict = knowledge.check_consistency(g, "D1", gene_level=False)
        assert verdict.status is ConsistencyStatus.PERFECT_MATCH

    def test_incomplete_knowledge(self):
        g = graph_with({"P1": [M1, M2], "P2": [M1, M2]}, known=[M1])
        _, verdict = knowledge.check_consistency(g, "D1", gene_level=False)
        assert verdict.status is ConsistencyStatus.INCOMPLETE_KNOWLEDGE
        assert verdict.missing_from_knowledge == {M2}

    def test_inconsistent_evidence(self):
        g = graph_with({"P1": [M1], "P2": []}, known=[M1])
        _, verdict = knowledge.check_consistency(g, "D1", gene_level=False)
        assert verdict.status is ConsistencyStatus.INCONSISTENT_EVIDENCE
        assert verdict.unsupported_knowledge == {M1}

    def test_combination(self):
        g = graph_with({"P1": [M2], "P2": [M2]}, known=[M1])
        _, verdict = knowledge.check_consistency(g, "D1", gene_level=False)
        assert verdict.status is ConsistencyStatus.COMBINATION

    def test_classify_is_pure_function_of_differences(self):
        empty, full = frozenset(), frozenset({M1})
        assert knowledge.classify(empty, empty) is ConsistencyStatus.PERFECT_MATCH
        assert knowledge.classify(full, empty) is ConsistencyStatus.INCOMPLETE_KNOWLEDGE
        assert knowledge.classify(empty, full) is ConsistencyStatus.INCONSISTENT_EVIDENCE
        assert knowledge.classify(full, full) is ConsistencyStatus.COMBINATION

    def test_coverage_violation_reported(self):
        g = graph_with({"P1": [M1]}, known=[M1, M3])
        _, verdict = knowledge.check_consistency(g, "D1", gene_level=False)
        assert verdict.coverage_violations == {M3}

    def test_gene_granularity_merges_same_gene_mutations(self):
        kras_a, kras_b = make_mutation("KRAS", 1), make_mutation("KRAS", 2)
        g = graph_with({"P1": [kras_a], "P2": [kras_b]}, known=[kras_a])
        evidence, verdict = knowledge.check_consistency(g, "D1")
        assert evidence.common_mutations == {"KRAS"}
        assert verdict.status is ConsistencyStatus.PERFECT_MATCH


def brute_force_sets(g, disease, threshold, gene_level):
    """Recompute all four sets straight from the raw colored edge lists."""
    pats = set()
    for e in g.edge_records(EdgeColor.RED):
        if isinstance(e, DiagnosisEdge) and e.disease_id == disease:
            pats.add(e.patient_id)
    prof = {p: set() for p in pats}
    for e in g.edge_records(EdgeColor.GREEN):
        if e.patient_id in prof:
            prof[e.patient_id].add(e.mutation)
    known = set()
    for e in g.edge_records(EdgeColor.MAGENTA):
        if isinstance(e, GdaAssociation) and e.disease_id == disease:
            if e.gda_score >= threshold:
                known.add(e.mutation)
    if gene_level:
        prof = {p: {m.gene for m in ms} for p, ms in prof.items()}
        known = {m.gene for m in known}
    union = set().union(*prof.values()) if prof else set()
    common = set.intersection(*prof.values()) if prof else set()
    return pats, union, common, known


class TestBruteForceAgreement:
    @pytest.mark.parametrize("gene_level", [False, True])
    def test_random_graphs(self, gene_level):
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, max_nodes=50)
            for d in g.diseases:
                t = round(rng.random(), 2)
                pats, union, common, known = brute_force_sets(g, d, t, gene_level)
                evidence, verdict = knowledge.check_consistency(
                    g, d, gda_threshold=t, gene_level=gene_level
                )
                assert evidence.patients == pats
                assert evidence.union_mutations == union
                assert evidence.common_mutations == common
                assert evidence.known_mutations == known
                assert common <= union
                assert verdict.status is knowledge.classify(
                    frozenset(common - known), frozenset(known - common)
                )
