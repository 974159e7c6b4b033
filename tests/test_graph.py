import copy
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from oncograph import (
    DiagnosisEdge,
    DiseaseNode,
    DrugNode,
    EdgeColor,
    Effectiveness,
    GdaAssociation,
    GeneticEdge,
    KnowledgeGraph,
    MutationKey,
    PatientRecord,
    TargetEdge,
    TreatmentEdge,
    cohort,
    errors,
    hitting_set,
    ingest,
    knowledge,
    validate,
)
from oncograph.cohort import profiles_from_graph

from conftest import random_graph

KRAS_MUT = MutationKey("KRAS", "12", 25398284, 25398284)
TERT_MUT = MutationKey("TERT", "5", 1295228, 1295228)


def small_graph():
    g = KnowledgeGraph()
    g.add_node(PatientRecord("P1", 40, True))
    g.add_node(PatientRecord("P2", 10, False))
    g.add_node(PatientRecord("P3", 5, False))
    g.add_node(KRAS_MUT)
    g.add_node(TERT_MUT)
    g.add_node(DiseaseNode("D1"))
    g.add_node(DrugNode("drugA"))
    return g


class TestAddNode:
    def test_single_insert(self):
        g = KnowledgeGraph()
        g.add_node(PatientRecord("P1", 40, True))
        assert g.partition_sizes()["Pa"] == 1

    def test_duplicate_patient_rejected(self):
        g = KnowledgeGraph()
        g.add_node(PatientRecord("P1", 40, True))
        with pytest.raises(errors.DuplicateNode):
            g.add_node(PatientRecord("P1", 12, False))

    def test_partition_sizes(self):
        g = small_graph()
        assert g.partition_sizes() == {"Pa": 3, "Mu": 2, "Di": 1, "Dr": 1}

    def test_bad_mutation_locus(self):
        g = KnowledgeGraph()
        with pytest.raises(errors.InvalidLabel):
            g.add_node(MutationKey("KRAS", "12", 10, 5))


class TestAddEdge:
    def test_valid_genetic_edge(self):
        g = small_graph()
        g.add_edges([GeneticEdge("P1", KRAS_MUT, 0.3)])
        assert g.mutations_of_patient("P1") == {KRAS_MUT}

    def test_vaf_out_of_range(self):
        g = small_graph()
        with pytest.raises(errors.InvalidLabel):
            g.add_edges([GeneticEdge("P1", KRAS_MUT, 1.5)])

    def test_unknown_disease_endpoint(self):
        g = small_graph()
        with pytest.raises(errors.MissingEndpoint):
            g.add_edges([DiagnosisEdge("NOPE", "P1")])

    def test_duplicate_genetic_edge(self):
        g = small_graph()
        g.add_edges([GeneticEdge("P1", KRAS_MUT, 0.3)])
        with pytest.raises(errors.DuplicateEdge):
            g.add_edges([GeneticEdge("P1", KRAS_MUT, 0.4)])

    def test_vaf_of_an_unknown_patient(self):
        g = small_graph()
        with pytest.raises(errors.UnknownNode, match="patient P9"):
            g.vaf("P9", KRAS_MUT)

    def test_vaf_of_a_mutation_the_patient_lacks(self):
        g = small_graph()
        g.add_edges([GeneticEdge("P1", KRAS_MUT, 0.3), GeneticEdge("P2", TERT_MUT, 0.2)])
        for pid, mutation in (("P1", TERT_MUT), ("P3", KRAS_MUT)):
            with pytest.raises(errors.NotPatientMutation) as exc:
                g.vaf(pid, mutation)
            assert str(exc.value) == f"{mutation.display()} is not a mutation of patient {pid}"


class TestDuplicateEdges:
    @pytest.mark.parametrize(
        "edge",
        [
            GeneticEdge("P1", KRAS_MUT, 0.3),
            DiagnosisEdge("D1", "P1"),
            GdaAssociation("D1", KRAS_MUT, 0.9),
            TargetEdge(KRAS_MUT, "drugA"),
        ],
    )
    def test_pairwise_unique_kinds_reject_repeat(self, edge):
        g = small_graph()
        g.add_edges([edge])
        with pytest.raises(errors.DuplicateEdge):
            g.add_edges([edge])
        assert sum(len(g.edge_records(c)) for c in EdgeColor) == 1

    def test_treatment_repeats_across_lines(self):
        g = small_graph()
        first = TreatmentEdge("P1", "drugA", 1, Effectiveness.REDUCED)
        second = TreatmentEdge("P1", "drugA", 3, Effectiveness.POSITIVE)
        g.add_edges([first])
        g.add_edges([second])
        assert g.edge_records(EdgeColor.RED) == (first, second)
        assert validate(g) == []

    def test_repeat_policy_replaces_the_held_record_in_place(self):
        g = small_graph()
        g.add_node(DiseaseNode("D2"))
        edges = [
            GeneticEdge("P1", KRAS_MUT, 0.1),
            GeneticEdge("P1", TERT_MUT, 0.2),
            GeneticEdge("P1", KRAS_MUT, 0.5),
            GeneticEdge("P2", KRAS_MUT, 0.3),
            GeneticEdge("P1", KRAS_MUT, 0.4),
        ]
        calls = []

        def policy(held, new):
            calls.append((held, new))
            return max(held, new, key=lambda e: e.vaf)

        g.add_edges(edges, repeat=policy)
        # Once per repeat, with the record held at the time and the new edge:
        # the first repeat replaces the held record, the second keeps it.
        assert len(calls) == 2
        assert calls[0][0] is edges[0] and calls[0][1] is edges[2]
        assert calls[1][0] is edges[2] and calls[1][1] is edges[4]
        assert g.edge_records(EdgeColor.GREEN) == (edges[2], edges[1], edges[3])
        assert g.mutations_of_patient("P1") == {KRAS_MUT, TERT_MUT}
        for e in g.edge_records(EdgeColor.GREEN):
            assert g.vaf(e.patient_id, e.mutation) == e.vaf
        # A policy covers the other indexed kinds too, and GDA scores are
        # read off the record at the pair's position.
        gda = [GdaAssociation("D2", TERT_MUT, Fraction(1, 4)),
               GdaAssociation("D1", KRAS_MUT, Fraction(1, 2)),
               GdaAssociation("D2", TERT_MUT, Fraction(3, 4))]
        g.add_edges(gda, repeat=lambda held, new: max(held, new, key=lambda e: e.gda_score))
        assert g.edge_records(EdgeColor.MAGENTA) == (gda[2], gda[1])
        assert g.gda_scores("D2") == {TERT_MUT: Fraction(3, 4)}
        assert g.gda_scores("D1") == {KRAS_MUT: Fraction(1, 2)}
        assert validate(g) == []

    @pytest.mark.parametrize(
        "third",
        [
            GeneticEdge("P2", KRAS_MUT, 7.5),  # another pair, and a label out of range
            GeneticEdge("P2", KRAS_MUT, 0.5),  # another pair
            GeneticEdge("P1", KRAS_MUT, 0.9),  # the pair, with a fresh label
            GeneticEdge("P1", KRAS_MUT, 0.1 + 0.5),  # the two edges merged
            GdaAssociation("P1", KRAS_MUT, 0.5),  # equal to the new edge as a tuple
            None,
        ],
    )
    def test_a_third_edge_from_repeat_is_refused(self, third):
        g = small_graph()
        held, new = GeneticEdge("P1", KRAS_MUT, 0.1), GeneticEdge("P1", KRAS_MUT, 0.5)
        g.add_edges([held])
        with pytest.raises(errors.DuplicateEdge) as raised:
            g.add_edges([new], repeat=lambda held, new: third)
        assert str(raised.value) == f"genetic edge P1-{KRAS_MUT.display()}"
        assert g.edge_records(EdgeColor.GREEN)[0] is held
        assert g.edge_records(EdgeColor.GREEN) == (held,)
        assert g.vaf("P1", KRAS_MUT) == 0.1
        assert g.mutations_of_patient("P2") == set()
        assert validate(g) == []


class TestClosedGraph:
    """Nothing but add_node and add_edges writes to a graph."""

    @pytest.mark.parametrize(
        "view, node",
        [
            ("patients", PatientRecord("X", 3, True)),
            ("diseases", DiseaseNode("X")),
            ("drugs", DrugNode("X")),
        ],
    )
    def test_node_views_are_read_only(self, view, node):
        g = small_graph()
        with pytest.raises(TypeError):
            getattr(g, view)["X"] = node
        with pytest.raises(TypeError):
            del getattr(g, view)[next(iter(getattr(g, view)))]
        assert "X" not in getattr(g, view)
        assert g.partition_sizes() == {"Pa": 3, "Mu": 2, "Di": 1, "Dr": 1}

    @pytest.mark.parametrize("color", list(EdgeColor))
    def test_edge_records_are_a_tuple(self, color):
        g = small_graph()
        g.add_edges([GeneticEdge("P1", KRAS_MUT, 0.3)])
        with pytest.raises(AttributeError):
            g.edge_records(color).append(GeneticEdge("P2", KRAS_MUT, 0.3))
        assert g.edge_counts() == {"green": 1, "red": 0, "magenta": 0}


def add_random_treatments(g, rng):
    for pid in g.patients:
        for order in range(rng.randint(0, 2)):
            drug = rng.choice(sorted(g.drugs))
            g.add_edges([TreatmentEdge(pid, drug, order, rng.choice(list(Effectiveness)))])


class TestIndexesMatchRecords:
    """Every query equals a recomputation from the raw edge records."""

    def test_random_graphs(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_graph(rng, max_nodes=40)
            add_random_treatments(g, rng)
            green = g.edge_records(EdgeColor.GREEN)
            magenta = g.edge_records(EdgeColor.MAGENTA)
            red = g.edge_records(EdgeColor.RED)
            for pid in g.patients:
                assert g.mutations_of_patient(pid) == {
                    e.mutation for e in green if e.patient_id == pid
                }
            for e in green:
                assert g.vaf(e.patient_id, e.mutation) == e.vaf
            for m in g.mutations:
                assert g.target_drugs(m) == {
                    e.drug_id for e in magenta
                    if isinstance(e, TargetEdge) and e.mutation == m
                }
                assert g.mutation_by_display(m.display()) is g._mutations[m]
            for d in g.diseases:
                assert g.patients_of_disease(d) == {
                    e.patient_id for e in red
                    if isinstance(e, DiagnosisEdge) and e.disease_id == d
                }
                assert g.gda_scores(d) == {
                    e.mutation: e.gda_score for e in magenta
                    if isinstance(e, GdaAssociation) and e.disease_id == d
                }
            assert validate(g) == []

    def test_unknown_display(self):
        with pytest.raises(errors.UnknownMutation):
            small_graph().mutation_by_display("KRAS_12_1_1")


class TestNeighbors:
    def test_empty_neighborhood(self):
        g = small_graph()
        assert g.patients_of_disease("D1") == set()

    def test_diagnosis_fixture(self):
        g = small_graph()
        g.add_node(DiseaseNode("D2"))
        g.add_edges([DiagnosisEdge("D1", "P1")])
        g.add_edges([DiagnosisEdge("D1", "P2")])
        g.add_edges([DiagnosisEdge("D2", "P3")])
        assert g.patients_of_disease("D1") == {"P1", "P2"}

    def test_target_drugs_is_magenta_drug_neighborhood(self):
        g = small_graph()
        g.add_node(DrugNode("drugB"))
        g.add_edges([TargetEdge(KRAS_MUT, "drugA")])
        g.add_edges([TargetEdge(KRAS_MUT, "drugB")])
        assert g.target_drugs(KRAS_MUT) == {"drugA", "drugB"}

    @pytest.mark.parametrize(
        "query, key, exc, text",
        [
            ("drug", "NOPE", errors.UnknownNode, "drug NOPE"),
            ("target_drugs", MutationKey("GHOST", "9", 5, 5), errors.UnknownMutation,
             "GHOST_9_5_5"),
        ],
    )
    def test_unknown_key(self, query, key, exc, text):
        with pytest.raises(exc) as raised:
            getattr(small_graph(), query)(key)
        assert str(raised.value) == text


GHOST_MUT = MutationKey("GHOST", "9", 5, 5)
COLOR_OF = {
    GeneticEdge: EdgeColor.GREEN,
    DiagnosisEdge: EdgeColor.RED,
    TreatmentEdge: EdgeColor.RED,
    GdaAssociation: EdgeColor.MAGENTA,
    TargetEdge: EdgeColor.MAGENTA,
}
KRAS = KRAS_MUT.display()
POS = Effectiveness.POSITIVE


@pytest.mark.parametrize(
    "method, items, exc, text",
    [
        # A missing endpoint, first or second, for each edge kind.
        ("add_edge", [GeneticEdge("NOPE", KRAS_MUT, 0.3)], errors.MissingEndpoint, "patient NOPE"),
        ("add_edge", [GeneticEdge("P1", GHOST_MUT, 0.3)], errors.MissingEndpoint,
         "mutation GHOST_9_5_5"),
        ("add_edge", [DiagnosisEdge("NOPE", "P1")], errors.MissingEndpoint, "disease NOPE"),
        ("add_edge", [DiagnosisEdge("D1", "NOPE")], errors.MissingEndpoint, "patient NOPE"),
        ("add_edge", [TreatmentEdge("NOPE", "drugA", 1, POS)], errors.MissingEndpoint,
         "patient NOPE"),
        ("add_edge", [TreatmentEdge("P1", "NOPE", 1, POS)], errors.MissingEndpoint, "drug NOPE"),
        ("add_edge", [GdaAssociation("NOPE", KRAS_MUT, Fraction(1, 2))], errors.MissingEndpoint,
         "disease NOPE"),
        ("add_edge", [GdaAssociation("D1", GHOST_MUT, Fraction(1, 2))], errors.MissingEndpoint,
         "mutation GHOST_9_5_5"),
        ("add_edge", [TargetEdge(GHOST_MUT, "drugA")], errors.MissingEndpoint,
         "mutation GHOST_9_5_5"),
        ("add_edge", [TargetEdge(KRAS_MUT, "NOPE")], errors.MissingEndpoint, "drug NOPE"),
        # A repeated pair of each kind that may not repeat.
        ("add_edge", [GeneticEdge("P1", KRAS_MUT, 0.3)] * 2, errors.DuplicateEdge,
         f"genetic edge P1-{KRAS}"),
        ("add_edge", [DiagnosisEdge("D1", "P1")] * 2, errors.DuplicateEdge, "diagnosis D1-P1"),
        ("add_edge", [GdaAssociation("D1", KRAS_MUT, Fraction(1, 2))] * 2, errors.DuplicateEdge,
         f"gda D1-{KRAS}"),
        ("add_edge", [TargetEdge(KRAS_MUT, "drugA")] * 2, errors.DuplicateEdge,
         f"target {KRAS}-drugA"),
        # A reused id in each partition.
        ("add_node", [PatientRecord("P1", 3, True)], errors.DuplicateNode, "patient P1"),
        ("add_node", [KRAS_MUT], errors.DuplicateNode, f"mutation {KRAS}"),
        ("add_node", [DiseaseNode("D1")], errors.DuplicateNode, "disease D1"),
        ("add_node", [DrugNode("drugA")], errors.DuplicateNode, "drug drugA"),
        # Types that are not nodes or edges; a plain tuple is not a MutationKey.
        ("add_node", [("KRAS", "12", 1, 1)], TypeError, "unsupported node type tuple"),
        ("add_edge", [("P1", KRAS_MUT)], TypeError, "unsupported edge type tuple"),
        # The label is checked before the endpoints.
        ("add_edge", [GeneticEdge("NOPE", GHOST_MUT, 1.5)], errors.InvalidLabel,
         "vaf 1.5 outside [0, 1]"),
    ],
)
def test_insertion_error_texts(method, items, exc, text):
    g = small_graph()
    # "add_edge" inserts one edge at a time through add_edges.
    insert = g.add_node if method == "add_node" else lambda edge: g.add_edges([edge])
    for item in items[:-1]:
        insert(item)
    with pytest.raises(exc) as raised:
        insert(items[-1])
    assert raised.type is exc
    assert str(raised.value) == text


TINY = Fraction(1, 10**30)
OUTSIDE = errors.InvalidLabel


@pytest.mark.parametrize("edge_type, field", [(GeneticEdge, "vaf"), (GdaAssociation, "gda_score")])
@pytest.mark.parametrize(
    "label, exc, text",
    [
        (Fraction(0), None, None),
        (Fraction(1), None, None),
        (1 + TINY, OUTSIDE, f"{1 + TINY} outside [0, 1]"),
        (-TINY, OUTSIDE, f"{-TINY} outside [0, 1]"),
        (0, None, None),
        (1, None, None),
        (7, OUTSIDE, "7 outside [0, 1]"),
        (True, None, None),
        (1.5, OUTSIDE, "1.5 outside [0, 1]"),
        (float("nan"), OUTSIDE, "nan outside [0, 1]"),
        (float("inf"), OUTSIDE, "inf outside [0, 1]"),
        (float("-inf"), OUTSIDE, "-inf outside [0, 1]"),
        (Decimal("0.5"), None, None),
        (Decimal("1.0000000000000000000001"), OUTSIDE,
         "1.0000000000000000000001 outside [0, 1]"),
        ("0.5", TypeError, "'<=' not supported between instances of 'int' and 'str'"),
    ],
    ids=repr,
)
def test_unit_label_rule(edge_type, field, label, exc, text):
    """The [0, 1] rule of VAF and GDA score labels, exact for every number
    type; a label that is not a number is a TypeError, not a verdict."""
    g = small_graph()
    edge = edge_type("P1" if edge_type is GeneticEdge else "D1", KRAS_MUT, label)
    if exc is None:
        g.add_edges([edge])
        assert g.edge_counts()[COLOR_OF[edge_type].value] == 1
        return
    with pytest.raises(exc) as raised:
        g.add_edges([edge])
    assert raised.type is exc
    assert str(raised.value) == (text if exc is TypeError else f"{field} {text}")
    assert g.edge_counts()[COLOR_OF[edge_type].value] == 0


def test_a_missing_label_is_a_vaf_only():
    g = small_graph()
    g.add_edges([GeneticEdge("P1", KRAS_MUT, None)])
    assert g.vaf("P1", KRAS_MUT) is None
    with pytest.raises(TypeError) as raised:
        g.add_edges([GdaAssociation("D1", KRAS_MUT, None)])
    assert raised.type is TypeError
    assert str(raised.value) == "'<=' not supported between instances of 'int' and 'NoneType'"


def held_graph():
    """small_graph with one held edge of each kind that may not repeat."""
    g = small_graph()
    g.add_edges([
        GeneticEdge("P1", KRAS_MUT, 0.3),
        DiagnosisEdge("D1", "P1"),
        GdaAssociation("D1", KRAS_MUT, Fraction(1, 2)),
        TargetEdge(KRAS_MUT, "drugA"),
    ])
    return g


def forged_report(g, where, key, record):
    """validate's report once ``record`` is written where no insert puts it:
    in the color ``where``'s edge records (at position ``key``, or last when
    ``key`` is None), or in the private node table named ``where`` (under
    ``key``). Asserts that the report opens with the text of the gate's own
    refusal of ``record``, if the gate refuses it, and returns the rest."""
    spare = copy.deepcopy(g)
    insert = spare.add_node if isinstance(where, str) else lambda r: spare.add_edges([r])
    try:
        insert(record)
        refusal = []
    except (errors.OncographError, TypeError) as exc:
        refusal = [str(exc)]
    if isinstance(where, str):
        getattr(g, where)[key] = record
    elif key is None:
        g._records[where].append(record)
    else:
        g._records[where][key] = record
    report = validate(g)
    assert report[:len(refusal)] == refusal
    return report[len(refusal):]


def differs(*where):
    """The entries after the refusals: each node table ("patient") and each
    edge color that the replay fills differently."""
    return [f"{w.value} edges differ from their replay" if isinstance(w, EdgeColor)
            else f"{w} table differs from its replay" for w in where]


GREEN, RED, MAGENTA = EdgeColor


@pytest.mark.parametrize(
    "where, key, record, rest",
    [
        pytest.param(GREEN, None, DiagnosisEdge("D1", "P2"), differs(GREEN, RED),
                     id="wrong colour"),
        pytest.param(GREEN, None, ("P2", TERT_MUT), differs(GREEN), id="not an edge"),
        pytest.param(GREEN, None, GeneticEdge("P2", GHOST_MUT, 0.3), differs(GREEN),
                     id="dangling"),
        pytest.param(MAGENTA, None, GdaAssociation("D1", TERT_MUT, Fraction(3, 2)),
                     differs(MAGENTA), id="label"),
        pytest.param(GREEN, None, GeneticEdge("P1", KRAS_MUT, 0.4), differs(GREEN),
                     id="duplicate"),
        pytest.param("_patients", "BAD", PatientRecord("BAD", -1, True), differs("patient"),
                     id="node rule"),
        pytest.param("_drugs", "X", PatientRecord("X", 3, True), differs("patient", "drug"),
                     id="node in another table"),
        pytest.param("_patients", "A", PatientRecord("B", 3, True), differs("patient"),
                     id="node under another key"),
        pytest.param("_diseases", "D9", ("D9",), differs("disease"), id="not a node"),
        # What an unchecked repeat policy could leave: P1's held record
        # replaced by an edge of P2, while the index still files it as P1's.
        pytest.param(GREEN, 0, GeneticEdge("P2", KRAS_MUT, 0.3), differs(GREEN),
                     id="repeat under another pair"),
    ],
)
def test_a_private_write_is_reported(where, key, record, rest):
    g = held_graph()
    assert validate(g) == []
    assert forged_report(g, where, key, record) == rest


class TestValidate:
    def test_well_formed_fixture(self):
        g = small_graph()
        g.add_edges([GeneticEdge("P1", KRAS_MUT, 0.3)])
        g.add_edges([DiagnosisEdge("D1", "P1")])
        assert validate(g) == []

    def test_forged_same_partition_edge(self):
        g = small_graph()
        assert forged_report(g, GREEN, None, DiagnosisEdge("D1", "P1")) == differs(GREEN, RED)

    def test_gda_score_injected_out_of_range(self):
        g = small_graph()
        edge = GdaAssociation("D1", KRAS_MUT, 1.2)
        assert forged_report(g, MAGENTA, None, edge) == differs(MAGENTA)
        assert validate(g)[0] == "gda_score 1.2 outside [0, 1]"

    @pytest.mark.parametrize(
        "edge, color, text",
        [
            (edge, color, f"{color.value} edge joins {ends}")
            for edge, ends in (
                (GeneticEdge("P1", KRAS_MUT, 0.3), "patient and mutation"),
                (DiagnosisEdge("D1", "P1"), "disease and patient"),
                (TreatmentEdge("P1", "drugA", 1, POS), "patient and drug"),
                (GdaAssociation("D1", KRAS_MUT, Fraction(1, 2)), "disease and mutation"),
                (TargetEdge(KRAS_MUT, "drugA"), "mutation and drug"),
            )
            for color in EdgeColor
            if color is not COLOR_OF[type(edge)]
        ],
    )
    def test_edge_under_a_wrong_color(self, edge, color, text):
        # The replay files the edge under its own color, so both colors differ.
        g = small_graph()
        both = [c for c in EdgeColor if c in (color, COLOR_OF[type(edge)])]
        assert forged_report(g, color, None, edge) == differs(*both), text

    def test_record_that_is_not_an_edge(self):
        g = small_graph()
        assert forged_report(g, GREEN, None, ("P1", KRAS_MUT)) == differs(GREEN)
        assert validate(g)[0] == "unsupported edge type tuple"

    @pytest.mark.parametrize(
        "edge",
        [
            GeneticEdge("NOPE", KRAS_MUT, 0.3),
            GeneticEdge("P1", GHOST_MUT, 0.3),
            DiagnosisEdge("NOPE", "P1"),
            DiagnosisEdge("D1", "NOPE"),
            TreatmentEdge("NOPE", "drugA", 1, POS),
            TreatmentEdge("P1", "NOPE", 1, POS),
            GdaAssociation("NOPE", KRAS_MUT, Fraction(1, 2)),
            GdaAssociation("D1", GHOST_MUT, Fraction(1, 2)),
            TargetEdge(GHOST_MUT, "drugA"),
            TargetEdge(KRAS_MUT, "NOPE"),
        ],
    )
    def test_forged_edge_with_a_missing_endpoint(self, edge):
        g = small_graph()
        color = COLOR_OF[type(edge)]
        assert forged_report(g, color, None, edge) == differs(color)
        assert "NOPE" in validate(g)[0] or "GHOST" in validate(g)[0]

    def test_randomized_construction_always_clean(self):
        rng = random.Random(11)
        for _ in range(25):
            assert validate(random_graph(rng, max_nodes=30)) == []


class TestOneStatementPerRule:
    """validate reports a node or label that breaks a rule in the gate's words."""

    @pytest.mark.parametrize(
        "node, table, key",
        [
            (PatientRecord("BAD", -1, True), "_patients", "BAD"),
            (MutationKey("", "1", 5, 5), "_mutations", None),
            (MutationKey("KRAS", "12", 10, 5), "_mutations", None),
            (MutationKey("KRAS", "12", -2, 5), "_mutations", None),
            (DrugNode("BAD", toxicity_weight=Fraction(-1)), "_drugs", "BAD"),
            # Survival is whole months and a weight exact, so neither may be a
            # float, and neither may be absent.
            (PatientRecord("P", None, True), "_patients", "P"),
            (PatientRecord("P", 1.5, True), "_patients", "P"),
            (DrugNode("a", None, 0.5), "_drugs", "a"),
            (DrugNode("b", None, None), "_drugs", "b"),
        ],
    )
    def test_node_rules(self, node, table, key):
        g = KnowledgeGraph()
        with pytest.raises(errors.InvalidLabel):
            g.add_node(node)
        part = table[1:-1]  # "_patients" -> "patient"
        assert forged_report(g, table, node if key is None else key, node) == differs(part)

    @pytest.mark.parametrize(
        "edge, color",
        [
            (GeneticEdge("P1", KRAS_MUT, 1.5), EdgeColor.GREEN),
            (GdaAssociation("D1", KRAS_MUT, -0.1), EdgeColor.MAGENTA),
            (TreatmentEdge("P1", "drugA", -1, Effectiveness.POSITIVE), EdgeColor.RED),
            (TreatmentEdge("P1", "drugA", 1, "p"), EdgeColor.RED),
        ],
    )
    def test_edge_label_rules(self, edge, color):
        g = small_graph()
        with pytest.raises(errors.InvalidLabel):
            g.add_edges([edge])
        assert forged_report(g, color, None, edge) == differs(color)


class TestValidateAgreesWithTheGate:
    """Every edge refusal in validate's report is the one add_edges gives."""

    REFUSAL = {
        "label_out_of_range": errors.InvalidLabel,
        "dangling_endpoint": errors.MissingEndpoint,
        "duplicate_edge": errors.DuplicateEdge,
    }

    @pytest.mark.parametrize(
        "edge, refusal",
        [
            (GeneticEdge("P2", KRAS_MUT, 1.5), "label_out_of_range"),
            (GeneticEdge("P2", GHOST_MUT, 0.3), "dangling_endpoint"),
            (GeneticEdge("P1", KRAS_MUT, 0.4), "duplicate_edge"),
            (DiagnosisEdge("D1", "NOPE"), "dangling_endpoint"),
            (DiagnosisEdge("D1", "P1"), "duplicate_edge"),
            (TreatmentEdge("P1", "drugA", -1, POS), "label_out_of_range"),
            (TreatmentEdge("P1", "NOPE", 1, POS), "dangling_endpoint"),
            (GdaAssociation("D1", KRAS_MUT, Fraction(3, 2)), "label_out_of_range"),
            (GdaAssociation("D1", KRAS_MUT, Fraction(1, 3)), "duplicate_edge"),
            (TargetEdge(GHOST_MUT, "drugA"), "dangling_endpoint"),
            (TargetEdge(KRAS_MUT, "drugA"), "duplicate_edge"),
            # Two rules broken at once: the label is judged first.
            (GeneticEdge("NOPE", GHOST_MUT, 1.5), "label_out_of_range"),
            (GeneticEdge("P1", KRAS_MUT, 1.5), "label_out_of_range"),
            (GdaAssociation("NOPE", KRAS_MUT, Fraction(-1)), "label_out_of_range"),
        ],
    )
    def test_single_forged_record(self, edge, refusal):
        g = held_graph()
        with pytest.raises(self.REFUSAL[refusal]):
            g.add_edges([edge])
        color = COLOR_OF[type(edge)]
        assert forged_report(g, color, None, edge) == differs(color)

    def test_every_faulty_record_of_a_color_is_reported(self):
        # Each record is replayed on its own, so a refusal does not hide the
        # records after it; refusals come in record order.
        g = held_graph()
        g._records[GREEN].extend([
            GeneticEdge("P1", KRAS_MUT, 0.4),  # repeats the held pair
            GeneticEdge("P2", KRAS_MUT, 0.5),
            GeneticEdge("P2", TERT_MUT, 7),
            DiagnosisEdge("D1", "P3"),
            GeneticEdge("P3", TERT_MUT, 0.1),
            GeneticEdge("NOPE", TERT_MUT, 0.2),
            GeneticEdge("P3", TERT_MUT, 0.9),  # repeats a pair after two refusals
        ])
        assert validate(g) == [
            f"genetic edge P1-{KRAS}",
            "vaf 7 outside [0, 1]",
            "patient NOPE",
            f"genetic edge P3-{TERT_MUT.display()}",
            *differs(GREEN, RED),
        ]


class TestNodePlacement:
    """A node must sit in its own partition's table, under its own key."""

    def test_node_in_another_partition_table(self):
        g = small_graph()
        assert forged_report(g, "_drugs", "X", PatientRecord("X", 3, True)) == differs(
            "patient", "drug"
        )

    def test_node_under_another_key(self):
        for table, key, node in (("_patients", "A", PatientRecord("B", 3, True)),
                                 ("_mutations", KRAS_MUT, TERT_MUT)):
            assert forged_report(KnowledgeGraph(), table, key, node) == differs(table[1:-1])

    def test_object_that_is_not_a_node(self):
        for table, key, item in (("_diseases", "D1", ("D1",)), ("_drugs", "d", None)):
            assert forged_report(KnowledgeGraph(), table, key, item) == differs(table[1:-1])


class TestDowngrade:
    """Gene-level profiles are the one place a mutation becomes its gene."""

    @staticmethod
    def gene_profile(*mutations):
        g = KnowledgeGraph()
        g.add_node(PatientRecord("P1", 12, True))
        for m in mutations:
            g.add_node(m)
            g.add_edges([GeneticEdge("P1", m, 0.5)])
        [profile] = profiles_from_graph(g, gene_level=True)
        return profile.mutations

    def test_kras(self):
        assert self.gene_profile(KRAS_MUT) == {"KRAS"}

    def test_tert(self):
        assert self.gene_profile(TERT_MUT) == {"TERT"}

    def test_two_tp53_mutations_share_symbol(self):
        a = MutationKey("TP53", "17", 7578406, 7578406)
        b = MutationKey("TP53", "17", 7577120, 7577120)
        assert self.gene_profile(a, b) == {"TP53"}
        assert self.gene_profile(a, b, KRAS_MUT) == {"TP53", "KRAS"}


class TestRecords:
    """Records are named tuples: immutable, and told apart by their type."""

    @pytest.mark.parametrize(
        "record_type",
        [
            PatientRecord, MutationKey, DiseaseNode, DrugNode, GeneticEdge,
            DiagnosisEdge, TreatmentEdge, GdaAssociation, TargetEdge,
            ingest.ReportEntry, ingest.GdaTableRow, ingest.DrugTargetTableRow,
            cohort.MutationProfile, cohort.SurvivalPartition, cohort.CoexistenceSet,
            cohort.CoMutationRow, knowledge.DiseaseEvidence, knowledge.ConsistencyVerdict,
            hitting_set.TreatmentSolution, hitting_set.HittingSetInstance,
        ],
    )
    def test_fields_cannot_be_set(self, record_type):
        record = record_type(*[None] * len(record_type._fields))
        for name in record_type._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)

    def test_equal_tuples_of_two_edge_types_stay_apart(self):
        # Both are ("X", KRAS_MUT, 1/2), so they compare equal as tuples.
        green = GeneticEdge("X", KRAS_MUT, Fraction(1, 2))
        magenta = GdaAssociation("X", KRAS_MUT, Fraction(1, 2))
        assert green == magenta
        g = KnowledgeGraph()
        g.add_node(PatientRecord("X", 1, True))
        g.add_node(DiseaseNode("X"))
        g.add_node(KRAS_MUT)
        g.add_edges([green])
        g.add_edges([magenta])
        assert g.edge_counts() == {"green": 1, "red": 0, "magenta": 1}
        assert g.mutations_of_patient("X") == {KRAS_MUT}
        assert g.gda_scores("X") == {KRAS_MUT: Fraction(1, 2)}
        assert validate(g) == []
        with pytest.raises(errors.DuplicateEdge, match="^genetic edge X-"):
            g.add_edges([green])
        with pytest.raises(errors.DuplicateEdge, match="^gda X-"):
            g.add_edges([magenta])
        # Swapped through the private records, each is still told apart.
        swapped = copy.deepcopy(g)
        swapped._records[EdgeColor.GREEN][0] = magenta
        swapped._records[EdgeColor.MAGENTA][0] = green
        assert validate(swapped) == differs(GREEN, MAGENTA)
        # A forged repeat of one is a duplicate of its own color only.
        assert forged_report(g, MAGENTA, None, magenta) == differs(MAGENTA)
        assert validate(g)[0] == f"gda X-{KRAS_MUT.display()}"
