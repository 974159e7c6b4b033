"""In-memory 4-partite medical knowledge graph.

Node partitions: patients, gene mutations, diseases, drugs. Three colored
edge sets join them: green (patient-mutation, labeled with VAF), red
(disease-patient diagnoses and patient-drug treatments), magenta
(disease-mutation associations scored in [0,1] and mutation-drug targets).

One table declares each edge type: its color, its two endpoint partitions
in order, how its endpoint keys and label are read, the range rule of its
label, and whether a pair may repeat; another gives each node type's
partition and key. So an edge's type fixes which partitions it joins, and
no edge can join two nodes of one partition. ``add_node``, ``add_edges``,
``has_node``, ``neighbors`` and ``validate`` read these tables. Each
color's record list holds the typed edges themselves, and those records are
the source of truth; ``validate`` reads only them, so it also catches
records that bypassed ``add_edges``.
Each edge type also fills an index of its own, of one shape, first key ->
{second key: label}, where the label is the VAF, the GDA score or None:
patient -> mutations, disease -> patients, disease -> mutations, mutation
-> drugs and patient -> drugs. Duplicate checks and queries are lookups in
these indexes.

The build phase is single-writer; once constructed, all queries are pure
reads and safe for concurrent use.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable, KeysView
from fractions import Fraction

from . import errors


class Partition(enum.Enum):
    PATIENT = "patient"
    MUTATION = "mutation"
    DISEASE = "disease"
    DRUG = "drug"


class EdgeColor(enum.Enum):
    GREEN = "green"
    RED = "red"
    MAGENTA = "magenta"


class Effectiveness(enum.Enum):
    """Outcome label on a treatment edge."""

    POSITIVE = "p"
    UNALTERED = "u"
    REDUCED = "r"
    NEGATIVE = "n"


# A pseudonymized patient with survival period in whole months.
PatientRecord = namedtuple("PatientRecord", "patient_id survival_months alive")


class MutationKey(namedtuple("MutationKey", "gene chromosome start end")):
    """Structured identity of a gene mutation.

    The underscore-joined form (e.g. ``KRAS_12_25398284_25398284``) is a
    rendering only; identity is the 4-field tuple, so a key equals, hashes
    and sorts as the plain tuple of its fields.
    """

    __slots__ = ()

    def display(self) -> str:
        return f"{self.gene}_{self.chromosome}_{self.start}_{self.end}"


DiseaseNode = namedtuple("DiseaseNode", "disease_id")
DrugNode = namedtuple(
    "DrugNode", "drug_id adverse_effects toxicity_weight", defaults=(None, Fraction(1))
)
# Green patient-mutation edge; vaf is None when the export lacked it.
GeneticEdge = namedtuple("GeneticEdge", "patient_id mutation vaf", defaults=(None,))
DiagnosisEdge = namedtuple("DiagnosisEdge", "disease_id patient_id")
# Red patient-drug edge; drugs in a cocktail share the same order.
TreatmentEdge = namedtuple("TreatmentEdge", "patient_id drug_id order effectiveness")
GdaAssociation = namedtuple("GdaAssociation", "disease_id mutation gda_score")
TargetEdge = namedtuple("TargetEdge", "mutation drug_id")

Edge = GeneticEdge | DiagnosisEdge | TreatmentEdge | GdaAssociation | TargetEdge

# A node reference is (partition, key); keys are patient/disease/drug id
# strings or MutationKey instances.
NodeRef = tuple[Partition, object]

Violation = namedtuple("Violation", "category message")

# Violation categories emitted by validate().
PARTITION_VIOLATION = "partition_violation"
DANGLING_ENDPOINT = "dangling_endpoint"
LABEL_OUT_OF_RANGE = "label_out_of_range"
DUPLICATE_EDGE = "duplicate_edge"
NODE_INVARIANT = "node_invariant"


def _vaf_issue(e: GeneticEdge) -> str | None:
    if e.vaf is not None and not 0 <= e.vaf <= 1:
        return f"vaf {e.vaf} outside [0, 1]"
    return None


def _gda_issue(e: GdaAssociation) -> str | None:
    # The score is an exact Fraction: compared with the ints 0 and 1, never
    # with a float.
    if not 0 <= e.gda_score <= 1:
        return f"gda_score {e.gda_score} outside [0, 1]"
    return None


def _treatment_issue(e: TreatmentEdge) -> str | None:
    if e.order < 0:
        return "treatment order < 0"
    if not isinstance(e.effectiveness, Effectiveness):
        return f"bad effectiveness {e.effectiveness!r}"
    return None


# How one edge type sits in the graph: its color and endpoint partitions;
# read, edge -> (first key, second key, label); check, edge -> the label rule
# it breaks or None (check is None for diagnoses and targets, which carry no
# label); and duplicate, what a repeated pair reports (None: it may repeat).
_EdgeKind = namedtuple("_EdgeKind", "color first second read check duplicate")

_EDGE_KINDS = {
    GeneticEdge: _EdgeKind(
        EdgeColor.GREEN, Partition.PATIENT, Partition.MUTATION,
        lambda e: (e.patient_id, e.mutation, e.vaf), _vaf_issue, "genetic edge",
    ),
    DiagnosisEdge: _EdgeKind(
        EdgeColor.RED, Partition.DISEASE, Partition.PATIENT,
        lambda e: (e.disease_id, e.patient_id, None), None, "diagnosis",
    ),
    TreatmentEdge: _EdgeKind(
        EdgeColor.RED, Partition.PATIENT, Partition.DRUG,
        lambda e: (e.patient_id, e.drug_id, None), _treatment_issue, None,
    ),
    GdaAssociation: _EdgeKind(
        EdgeColor.MAGENTA, Partition.DISEASE, Partition.MUTATION,
        lambda e: (e.disease_id, e.mutation, e.gda_score), _gda_issue, "gda",
    ),
    TargetEdge: _EdgeKind(
        EdgeColor.MAGENTA, Partition.MUTATION, Partition.DRUG,
        lambda e: (e.mutation, e.drug_id, None), None, "target",
    ),
}

# Each node type's partition and the field holding its key (None: the node
# is its own key).
_NODE_KINDS = {
    PatientRecord: (Partition.PATIENT, "patient_id"),
    MutationKey: (Partition.MUTATION, None),
    DiseaseNode: (Partition.DISEASE, "disease_id"),
    DrugNode: (Partition.DRUG, "drug_id"),
}


class KnowledgeGraph:
    """The union graph H over the four partitions and three edge colors."""

    def __init__(self) -> None:
        # One table per partition, key -> node; the queries name them.
        self._nodes: dict[Partition, dict] = {part: {} for part in Partition}
        self._patients, self._mutations, self._diseases, self._drugs = self._nodes.values()
        self._by_gene: dict[str, set[MutationKey]] = {}
        self._by_display: dict[str, MutationKey] = {}
        self._records: dict[EdgeColor, list[Edge]] = {c: [] for c in EdgeColor}
        # One index per edge type, first key -> {second key: label}, filled
        # by add_edge alongside the records.
        self._index: dict[type, dict[object, dict]] = {t: {} for t in _EDGE_KINDS}
        # Per edge type, all that add_edge touches: its kind, both endpoint
        # tables, its index and its color's records, so that no edge hashes
        # a Partition or EdgeColor.
        self._by_type = {
            t: (kind, self._nodes[kind.first], self._nodes[kind.second],
                self._index[t], self._records[kind.color])
            for t, kind in _EDGE_KINDS.items()
        }

    # ------------------------------------------------------------------
    # Nodes

    def add_node(self, node) -> NodeRef:
        """Insert a node into its partition; raises DuplicateNode on id reuse
        and InvalidLabel when the node breaks a rule of its partition."""
        try:
            part, field = _NODE_KINDS[type(node)]
        except KeyError:
            raise TypeError(f"unsupported node type {type(node).__name__}") from None
        key = node if field is None else getattr(node, field)
        table = self._nodes[part]
        if key in table:
            raise errors.DuplicateNode(f"{part.value} {key_text(key)}")
        issue = _node_issue(node)
        if issue:
            raise errors.InvalidLabel(issue)
        table[key] = node
        if part is Partition.MUTATION:
            self._by_gene.setdefault(node.gene, set()).add(node)
            self._by_display.setdefault(node.display(), node)
        return (part, key)

    def patient(self, patient_id: str) -> PatientRecord:
        try:
            return self._patients[patient_id]
        except KeyError:
            raise errors.UnknownNode(f"patient {patient_id}") from None

    def disease(self, disease_id: str) -> DiseaseNode:
        try:
            return self._diseases[disease_id]
        except KeyError:
            raise errors.UnknownDisease(disease_id) from None

    def drug(self, drug_id: str) -> DrugNode:
        try:
            return self._drugs[drug_id]
        except KeyError:
            raise errors.UnknownNode(f"drug {drug_id}") from None

    @property
    def patients(self) -> dict[str, PatientRecord]:
        return self._patients

    @property
    def mutations(self) -> KeysView[MutationKey]:
        return self._mutations.keys()

    @property
    def diseases(self) -> dict[str, DiseaseNode]:
        return self._diseases

    @property
    def drugs(self) -> dict[str, DrugNode]:
        return self._drugs

    def mutations_of_gene(self, gene: str) -> set[MutationKey]:
        return set(self._by_gene.get(gene, ()))

    def mutation_by_display(self, text: str) -> MutationKey:
        """The first-added mutation whose rendering is ``text``."""
        try:
            return self._by_display[text]
        except KeyError:
            raise errors.UnknownMutation(text) from None

    def partition_sizes(self) -> dict[str, int]:
        return {
            "Pa": len(self._patients),
            "Mu": len(self._mutations),
            "Di": len(self._diseases),
            "Dr": len(self._drugs),
        }

    # ------------------------------------------------------------------
    # Edges

    def add_edge(self, edge: Edge) -> Edge:
        """Insert one typed edge; see ``add_edges``."""
        self.add_edges((edge,))
        return edge

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Insert typed edges in order, each into its colored set.

        At the first edge that breaks a rule, raises InvalidLabel for an
        out-of-range label (checked first, as it depends on the edge alone),
        MissingEndpoint if an endpoint node is absent, or DuplicateEdge for a
        repeated pair of a kind that may not repeat; the edges before it
        stay inserted. The tables of an edge type are looked up once per run
        of edges of that type.
        """
        edge_type = None
        for edge in edges:
            if type(edge) is not edge_type:
                edge_type = type(edge)
                try:
                    kind, firsts, seconds, index, records = self._by_type[edge_type]
                except KeyError:
                    raise TypeError(f"unsupported edge type {edge_type.__name__}") from None
                read, check, duplicate = kind.read, kind.check, kind.duplicate
            if check:
                issue = check(edge)
                if issue:
                    raise errors.InvalidLabel(issue)
            a, b, label = read(edge)
            if a not in firsts or b not in seconds:
                part, key = (kind.first, a) if a not in firsts else (kind.second, b)
                raise errors.MissingEndpoint(f"{part.value} {key_text(key)}")
            adjacent = index.get(a)
            if adjacent is None:
                adjacent = index[a] = {}
            elif duplicate and b in adjacent:
                raise errors.DuplicateEdge(f"{duplicate} {key_text(a)}-{key_text(b)}")
            adjacent[b] = label
            records.append(edge)

    def edge_records(self, color: EdgeColor) -> list[Edge]:
        """The typed edges of one color (used by validate and audit code)."""
        return self._records[color]

    def edge_counts(self) -> dict[str, int]:
        return {c.value: len(self._records[c]) for c in EdgeColor}

    # ------------------------------------------------------------------
    # Queries

    def has_node(self, ref: NodeRef) -> bool:
        part, key = ref
        return key in self._nodes.get(part, ())

    def neighbors(
        self, ref: NodeRef, colors: EdgeColor | tuple[EdgeColor, ...] | None = None
    ) -> set[NodeRef]:
        """Nodes adjacent to ``ref`` via edges of the requested color(s)."""
        if not self.has_node(ref):
            raise errors.UnknownNode(str(ref))
        if colors is None:
            colors = tuple(EdgeColor)
        elif isinstance(colors, EdgeColor):
            colors = (colors,)
        part, key = ref
        out: set[NodeRef] = set()
        for edge_type, kind in _EDGE_KINDS.items():
            if kind.color not in colors:
                continue
            index = self._index[edge_type]
            if part is kind.first:
                out.update((kind.second, k) for k in index.get(key, ()))
            elif part is kind.second:  # reverse direction: scan the index
                out.update((kind.first, k) for k, adj in index.items() if key in adj)
        return out

    def mutations_of_patient(self, patient_id: str) -> set[MutationKey]:
        self.patient(patient_id)
        return set(self._index[GeneticEdge].get(patient_id, ()))

    def patients_of_disease(self, disease_id: str) -> set[str]:
        self.disease(disease_id)
        return set(self._index[DiagnosisEdge].get(disease_id, ()))

    def gda_scores(self, disease_id: str) -> dict[MutationKey, Fraction]:
        """Magenta disease-mutation neighbors of d with their scores."""
        self.disease(disease_id)
        return dict(self._index[GdaAssociation].get(disease_id, {}))

    def target_drugs(self, mutation: MutationKey) -> set[str]:
        """Drugs with a known effect on the mutation (magenta neighbors)."""
        if mutation not in self._mutations:
            raise errors.UnknownMutation(mutation.display())
        return set(self._index[TargetEdge].get(mutation, ()))

    def vaf(self, patient_id: str, mutation: MutationKey) -> float | None:
        return self._index[GeneticEdge][patient_id][mutation]


def validate(graph: KnowledgeGraph) -> list[Violation]:
    """Check every structural invariant; returns one entry per violation.

    Each edge record yields at most one entry: first whether its type has
    the record's color, then whether both of its endpoints exist, then its
    label range. Repeated pairs are reported after all per-record entries.
    """
    out: list[Violation] = []
    for table in graph._nodes.values():
        for node in table.values():
            issue = _node_issue(node)
            if issue:
                out.append(Violation(NODE_INVARIANT, issue))

    seen: set[tuple] = set()
    repeats: list[Violation] = []
    for color in EdgeColor:
        edge_type = None
        for edge in graph.edge_records(color):
            if type(edge) is not edge_type:  # look a type up once per run of its edges
                edge_type = type(edge)
                kind = _EDGE_KINDS.get(edge_type)
                if kind:
                    firsts, seconds = graph._nodes[kind.first], graph._nodes[kind.second]
            if kind is None or kind.color is not color:
                text = (f"{color.value} edge joins {kind.first.value} and {kind.second.value}"
                        if kind else f"{color.value} record {edge_type.__name__} is not an edge")
                out.append(Violation(PARTITION_VIOLATION, text))
                continue
            a, b, _ = kind.read(edge)
            if a not in firsts or b not in seconds:
                out.append(
                    Violation(DANGLING_ENDPOINT, f"{color.value} edge references a missing node")
                )
                continue
            label_issue = kind.check and kind.check(edge)
            if label_issue:
                out.append(Violation(LABEL_OUT_OF_RANGE, label_issue))
                continue
            pair = (edge_type, a, b)  # edges of two types can be equal tuples
            if kind.duplicate and pair in seen:
                repeats.append(Violation(
                    DUPLICATE_EDGE, f"duplicate {color.value} edge {key_text(a)}-{key_text(b)}"))
            seen.add(pair)
    return out + repeats


def key_text(key) -> str:
    """A node key as text: a mutation by its display form, an id as itself."""
    return key.display() if isinstance(key, MutationKey) else str(key)


def _node_issue(node) -> str | None:
    """The rule of its partition that a node breaks, if any."""
    if isinstance(node, PatientRecord):
        if node.survival_months < 0:
            return f"patient {node.patient_id}: negative survival"
    elif isinstance(node, MutationKey):
        if not node.gene:
            return f"mutation {node.display()}: empty gene"
        if node.start > node.end or node.start < 0:
            return f"mutation {node.display()}: bad locus range"
    elif isinstance(node, DrugNode):
        if node.toxicity_weight < 0:
            return f"drug {node.drug_id}: negative weight"
    return None
