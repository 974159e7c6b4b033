"""In-memory 4-partite medical knowledge graph.

Node partitions: patients, gene mutations, diseases, drugs. Three colored
edge sets join them: green (patient-mutation, labeled with VAF), red
(disease-patient diagnoses and patient-drug treatments), magenta
(disease-mutation associations scored in [0,1] and mutation-drug targets).
No edge joins two nodes of the same partition and the colored sets are
pairwise disjoint; ``validate`` reports every violation of these rules.

The per-color edge records are the source of truth; ``validate`` reads only
them, so it also catches records that bypassed ``add_edge``. ``add_edge``
also files each edge in the one index of its kind, keyed by plain ids:
patient -> {mutation: vaf}, disease -> patients,
disease -> {mutation: score}, mutation -> drugs and patient -> drugs.
Duplicate checks and queries are lookups in these indexes.

The build phase is single-writer; once constructed, all queries are pure
reads and safe for concurrent use.
"""

from __future__ import annotations

import enum
from collections.abc import KeysView
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class PatientRecord:
    """A pseudonymized patient with survival period in whole months."""

    patient_id: str
    survival_months: int
    alive: bool


@dataclass(frozen=True, order=True, slots=True)
class MutationKey:
    """Structured identity of a gene mutation.

    The underscore-joined form (e.g. ``KRAS_12_25398284_25398284``) is a
    rendering only; identity is the 4-field tuple.
    """

    gene: str
    chromosome: str
    start: int
    end: int

    def display(self) -> str:
        return f"{self.gene}_{self.chromosome}_{self.start}_{self.end}"


@dataclass(frozen=True, slots=True)
class DiseaseNode:
    disease_id: str


@dataclass(frozen=True, slots=True)
class DrugNode:
    drug_id: str
    adverse_effects: str | None = None
    toxicity_weight: Fraction = Fraction(1)


@dataclass(frozen=True, slots=True)
class GeneticEdge:
    """Green patient-mutation edge; vaf is None when the export lacked it."""

    patient_id: str
    mutation: MutationKey
    vaf: float | None = None


@dataclass(frozen=True, slots=True)
class DiagnosisEdge:
    disease_id: str
    patient_id: str


@dataclass(frozen=True, slots=True)
class TreatmentEdge:
    """Red patient-drug edge; drugs in a cocktail share the same order."""

    patient_id: str
    drug_id: str
    order: int
    effectiveness: Effectiveness


@dataclass(frozen=True, slots=True)
class GdaAssociation:
    disease_id: str
    mutation: MutationKey
    gda_score: Fraction


@dataclass(frozen=True, slots=True)
class TargetEdge:
    mutation: MutationKey
    drug_id: str


Edge = GeneticEdge | DiagnosisEdge | TreatmentEdge | GdaAssociation | TargetEdge

# A node reference is (partition, key); keys are patient/disease/drug id
# strings or MutationKey instances.
NodeRef = tuple[Partition, object]


@dataclass(frozen=True, slots=True)
class Violation:
    category: str
    message: str


# Violation categories emitted by validate().
PARTITION_VIOLATION = "partition_violation"
DANGLING_ENDPOINT = "dangling_endpoint"
LABEL_OUT_OF_RANGE = "label_out_of_range"
DUPLICATE_EDGE = "duplicate_edge"
EDGE_SET_OVERLAP = "edge_set_overlap"
NODE_INVARIANT = "node_invariant"


@dataclass(slots=True)
class _EdgeRecord:
    """Raw stored edge: declared endpoint refs plus the typed edge object.

    Kept as plain mutable records so validate() can detect forged or
    corrupted entries that bypassed add_edge.
    """

    a: NodeRef
    b: NodeRef
    edge: Edge


# Allowed (ordered) partition pairs per color, each numbered so that
# validate can name an endpoint pair by a plain tuple.
_ALLOWED_PAIRS = {
    EdgeColor.GREEN: {(Partition.PATIENT, Partition.MUTATION): 0},
    EdgeColor.RED: {
        (Partition.DISEASE, Partition.PATIENT): 1,
        (Partition.PATIENT, Partition.DRUG): 2,
    },
    EdgeColor.MAGENTA: {
        (Partition.DISEASE, Partition.MUTATION): 3,
        (Partition.MUTATION, Partition.DRUG): 4,
    },
}

# Edge types for which at most one edge per endpoint pair may exist.
_PAIRWISE_UNIQUE = (GeneticEdge, DiagnosisEdge, GdaAssociation, TargetEdge)

# Per color: (partition, partition, index) for each edge kind; the index
# maps a key of the first partition to the adjacent keys of the second.
_EDGE_INDEXES = {
    EdgeColor.GREEN: ((Partition.PATIENT, Partition.MUTATION, "_vaf"),),
    EdgeColor.RED: (
        (Partition.DISEASE, Partition.PATIENT, "_diagnosed"),
        (Partition.PATIENT, Partition.DRUG, "_treated"),
    ),
    EdgeColor.MAGENTA: (
        (Partition.DISEASE, Partition.MUTATION, "_gda"),
        (Partition.MUTATION, Partition.DRUG, "_targets"),
    ),
}


class KnowledgeGraph:
    """The union graph H over the four partitions and three edge colors."""

    def __init__(self) -> None:
        self._patients: dict[str, PatientRecord] = {}
        self._mutations: dict[MutationKey, MutationKey] = {}
        self._diseases: dict[str, DiseaseNode] = {}
        self._drugs: dict[str, DrugNode] = {}
        self._by_gene: dict[str, set[MutationKey]] = {}
        self._by_display: dict[str, MutationKey] = {}
        self._records: dict[EdgeColor, list[_EdgeRecord]] = {
            c: [] for c in EdgeColor
        }
        # One index per edge kind, filled by add_edge alongside the records.
        self._vaf: dict[str, dict[MutationKey, float | None]] = {}
        self._diagnosed: dict[str, set[str]] = {}
        self._gda: dict[str, dict[MutationKey, Fraction]] = {}
        self._targets: dict[MutationKey, set[str]] = {}
        self._treated: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    # Nodes

    def add_node(self, node) -> NodeRef:
        """Insert a node into its partition; raises DuplicateNode on id reuse
        and InvalidLabel when the node breaks a rule of its partition."""
        if isinstance(node, PatientRecord):
            part, key, table = Partition.PATIENT, node.patient_id, self._patients
        elif isinstance(node, MutationKey):
            part, key, table = Partition.MUTATION, node, self._mutations
        elif isinstance(node, DiseaseNode):
            part, key, table = Partition.DISEASE, node.disease_id, self._diseases
        elif isinstance(node, DrugNode):
            part, key, table = Partition.DRUG, node.drug_id, self._drugs
        else:
            raise TypeError(f"unsupported node type {type(node).__name__}")
        if key in table:
            raise errors.DuplicateNode(f"{part.value} {_key_text(key)}")
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
        """Insert a typed edge into its colored set.

        Raises InvalidLabel for out-of-range labels (checked first, as they
        depend on the edge alone), MissingEndpoint if an endpoint node is
        absent, DuplicateEdge for pairwise-unique types.
        """
        issue = _label_issue(edge)
        if issue:
            raise errors.InvalidLabel(issue)
        if isinstance(edge, GeneticEdge):
            pid, mutation = edge.patient_id, edge.mutation
            self._require_patient(pid)
            self._require_mutation(mutation)
            vafs = self._vaf.setdefault(pid, {})
            if mutation in vafs:
                raise errors.DuplicateEdge(f"genetic edge {pid}-{mutation.display()}")
            vafs[mutation] = edge.vaf
            a, b = (Partition.PATIENT, pid), (Partition.MUTATION, mutation)
            color = EdgeColor.GREEN
        elif isinstance(edge, DiagnosisEdge):
            did, pid = edge.disease_id, edge.patient_id
            self._require_disease(did)
            self._require_patient(pid)
            patients = self._diagnosed.setdefault(did, set())
            if pid in patients:
                raise errors.DuplicateEdge(f"diagnosis {did}-{pid}")
            patients.add(pid)
            a, b = (Partition.DISEASE, did), (Partition.PATIENT, pid)
            color = EdgeColor.RED
        elif isinstance(edge, TreatmentEdge):
            self._require_patient(edge.patient_id)
            self._require_drug(edge.drug_id)
            self._treated.setdefault(edge.patient_id, set()).add(edge.drug_id)
            a, b = (Partition.PATIENT, edge.patient_id), (Partition.DRUG, edge.drug_id)
            color = EdgeColor.RED
        elif isinstance(edge, GdaAssociation):
            did, mutation = edge.disease_id, edge.mutation
            self._require_disease(did)
            self._require_mutation(mutation)
            scores = self._gda.setdefault(did, {})
            if mutation in scores:
                raise errors.DuplicateEdge(f"gda {did}-{mutation.display()}")
            scores[mutation] = edge.gda_score
            a, b = (Partition.DISEASE, did), (Partition.MUTATION, mutation)
            color = EdgeColor.MAGENTA
        elif isinstance(edge, TargetEdge):
            mutation, drug_id = edge.mutation, edge.drug_id
            self._require_mutation(mutation)
            self._require_drug(drug_id)
            drugs = self._targets.setdefault(mutation, set())
            if drug_id in drugs:
                raise errors.DuplicateEdge(f"target {mutation.display()}-{drug_id}")
            drugs.add(drug_id)
            a, b = (Partition.MUTATION, mutation), (Partition.DRUG, drug_id)
            color = EdgeColor.MAGENTA
        else:
            raise TypeError(f"unsupported edge type {type(edge).__name__}")
        self._records[color].append(_EdgeRecord(a, b, edge))
        return edge

    def _require_patient(self, pid: str) -> None:
        if pid not in self._patients:
            raise errors.MissingEndpoint(f"patient {pid}")

    def _require_mutation(self, m: MutationKey) -> None:
        if m not in self._mutations:
            raise errors.MissingEndpoint(f"mutation {m.display()}")

    def _require_disease(self, did: str) -> None:
        if did not in self._diseases:
            raise errors.MissingEndpoint(f"disease {did}")

    def _require_drug(self, did: str) -> None:
        if did not in self._drugs:
            raise errors.MissingEndpoint(f"drug {did}")

    def edge_records(self, color: EdgeColor) -> list[_EdgeRecord]:
        """Raw colored edge records (used by validate and audit code)."""
        return self._records[color]

    def edge_counts(self) -> dict[str, int]:
        return {c.value: len(self._records[c]) for c in EdgeColor}

    # ------------------------------------------------------------------
    # Queries

    def has_node(self, ref: NodeRef) -> bool:
        part, key = ref
        if part is Partition.PATIENT:
            return key in self._patients
        if part is Partition.MUTATION:
            return key in self._mutations
        if part is Partition.DISEASE:
            return key in self._diseases
        if part is Partition.DRUG:
            return key in self._drugs
        return False

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
        for color in colors:
            for first, second, name in _EDGE_INDEXES[color]:
                index = getattr(self, name)
                if part is first:
                    out.update((second, k) for k in index.get(key, ()))
                elif part is second:  # reverse direction: scan the index
                    out.update((first, k) for k, adj in index.items() if key in adj)
        return out

    def mutations_of_patient(self, patient_id: str) -> set[MutationKey]:
        self.patient(patient_id)
        return set(self._vaf.get(patient_id, ()))

    def patients_of_disease(self, disease_id: str) -> set[str]:
        self.disease(disease_id)
        return set(self._diagnosed.get(disease_id, ()))

    def gda_scores(self, disease_id: str) -> dict[MutationKey, Fraction]:
        """Magenta disease-mutation neighbors of d with their scores."""
        self.disease(disease_id)
        return dict(self._gda.get(disease_id, {}))

    def target_drugs(self, mutation: MutationKey) -> set[str]:
        """Drugs with a known effect on the mutation (magenta neighbors)."""
        if mutation not in self._mutations:
            raise errors.UnknownMutation(mutation.display())
        return set(self._targets.get(mutation, ()))

    def vaf(self, patient_id: str, mutation: MutationKey) -> float | None:
        return self._vaf[patient_id][mutation]


def validate(graph: KnowledgeGraph) -> list[Violation]:
    """Check every structural invariant; returns one entry per violation.

    Each edge record yields at most one entry: partition check first, then
    endpoint existence, then label ranges. Duplicate-pair and cross-color
    overlap checks run over structurally sound records only.
    """
    out: list[Violation] = []
    for table in (graph._patients.values(), graph._mutations, graph._drugs.values()):
        for node in table:
            issue = _node_issue(node)
            if issue:
                out.append(Violation(NODE_INVARIANT, issue))

    # A sound record's endpoint pair is one plain tuple: the number of its
    # partition pair, then its keys in that pair's order. Repeated pairs are
    # reported after all per-record violations.
    first_color: dict[tuple, EdgeColor] = {}
    repeats: list[Violation] = []
    for color in EdgeColor:
        allowed = _ALLOWED_PAIRS[color]
        for rec in graph.edge_records(color):
            (pa, ka), (pb, kb) = rec.a, rec.b
            if pa == pb:
                out.append(
                    Violation(
                        PARTITION_VIOLATION,
                        f"{color.value} edge joins two {pa.value} nodes",
                    )
                )
                continue
            kind = allowed.get((pa, pb))
            pair = (kind, ka, kb)
            if kind is None:
                kind = allowed.get((pb, pa))
                pair = (kind, kb, ka)
            if kind is None:
                out.append(
                    Violation(
                        PARTITION_VIOLATION,
                        f"{color.value} edge joins {pa.value} and {pb.value}",
                    )
                )
                continue
            if not graph.has_node(rec.a) or not graph.has_node(rec.b):
                out.append(
                    Violation(
                        DANGLING_ENDPOINT,
                        f"{color.value} edge references a missing node",
                    )
                )
                continue
            label_issue = _label_issue(rec.edge)
            if label_issue:
                out.append(Violation(LABEL_OUT_OF_RANGE, label_issue))
                continue
            prev = first_color.get(pair)
            if prev is None:
                first_color[pair] = color
            elif prev != color:
                repeats.append(
                    Violation(
                        EDGE_SET_OVERLAP,
                        f"pair {_pair_text(rec)} appears in both {prev.value} and {color.value}",
                    )
                )
            elif isinstance(rec.edge, _PAIRWISE_UNIQUE):
                repeats.append(
                    Violation(DUPLICATE_EDGE, f"duplicate {color.value} edge {_pair_text(rec)}")
                )
    return out + repeats


def _key_text(key) -> str:
    return key.display() if isinstance(key, MutationKey) else str(key)


def _pair_text(rec: _EdgeRecord) -> str:
    return f"{_key_text(rec.a[1])}-{_key_text(rec.b[1])}"


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


def _label_issue(edge: Edge) -> str | None:
    """The label range that an edge breaks, if any."""
    if isinstance(edge, GeneticEdge):
        if edge.vaf is not None and not 0.0 <= edge.vaf <= 1.0:
            return f"vaf {edge.vaf} outside [0, 1]"
    elif isinstance(edge, GdaAssociation):
        if not 0.0 <= edge.gda_score <= 1.0:
            return f"gda_score {edge.gda_score} outside [0, 1]"
    elif isinstance(edge, TreatmentEdge):
        if edge.order < 0:
            return "treatment order < 0"
        if not isinstance(edge.effectiveness, Effectiveness):
            return f"bad effectiveness {edge.effectiveness!r}"
    return None
