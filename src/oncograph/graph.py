"""In-memory 4-partite medical knowledge graph.

Node partitions: patients, gene mutations, diseases, drugs. Three colored
edge sets join them: green (patient-mutation, labeled with VAF), red
(disease-patient diagnoses and patient-drug treatments), magenta
(disease-mutation associations scored in [0,1] and mutation-drug targets).

One table declares each edge type: its color, its two endpoint partitions
in order, whose keys are the edge's first two fields, the range rule of its
label, and whether a pair may repeat; another gives each node type's
partition and key. So an edge's type fixes which partitions it joins, and
no edge can join two nodes of one partition. ``add_node`` and ``add_edges``
read these tables and are the gate, which states each rule once. Node tables
are read through read-only views and edge records as tuples, so only the
gate writes to a graph, and ``validate`` replays a graph through it.
Each edge type has one store, its edges' only copy. A type whose pairs may
not repeat keeps first key -> {second key: edge}: patient -> mutations,
disease -> patients, disease -> mutations and mutation -> drugs. Duplicate
checks and queries are lookups in these stores: a neighbourhood query
returns a live read-only view of its store's keys, not a copy, a query
reads a label (VAF, GDA score) off the stored edge, and a key that names
no node raises ``UnknownNode``. A repeated pair raises, or goes to the
caller's ``repeat`` policy, which keeps the held edge or puts the new one
in its slot. Treatments may repeat and no query reads them, so their store
is a list, and a color's edge records are read off its types' stores; the
graph keeps no other index, none by gene.

The build phase is single-writer; once constructed, all queries are pure
reads and safe for concurrent use.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Callable, Iterable, KeysView, Mapping
from fractions import Fraction
from types import MappingProxyType

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
# Green patient-mutation edge; vaf is in [0, 1] (a Fraction from ingest), None if not given.
GeneticEdge = namedtuple("GeneticEdge", "patient_id mutation vaf", defaults=(None,))
DiagnosisEdge = namedtuple("DiagnosisEdge", "disease_id patient_id")
# Red patient-drug edge; drugs in a cocktail share the same order.
TreatmentEdge = namedtuple("TreatmentEdge", "patient_id drug_id order effectiveness")
GdaAssociation = namedtuple("GdaAssociation", "disease_id mutation gda_score")
TargetEdge = namedtuple("TargetEdge", "mutation drug_id")

Edge = GeneticEdge | DiagnosisEdge | TreatmentEdge | GdaAssociation | TargetEdge


def _unit_label_issue(e: GeneticEdge | GdaAssociation) -> str | None:
    # The third field: a VAF (None if not given) or a GDA score, compared
    # exactly through its integer ratio, which costs one call where a
    # Fraction's two rich comparisons run in pure Python.
    name, label = e._fields[2], e[2]
    if label is None and name == "vaf":
        return None
    try:
        n, d = label.as_integer_ratio()  # d > 0
        inside = 0 <= n <= d
    except AttributeError:  # not a number: the comparison raises TypeError
        inside = 0 <= label <= 1
    except (ValueError, OverflowError):  # a NaN or an infinity
        inside = False
    return None if inside else f"{name} {label} outside [0, 1]"


def _treatment_issue(e: TreatmentEdge) -> str | None:
    if e.order < 0:
        return "treatment order < 0"
    if not isinstance(e.effectiveness, Effectiveness):
        return f"bad effectiveness {e.effectiveness!r}"
    return None


# How one edge type sits in the graph: its color and endpoint partitions,
# whose keys are its first two fields; check, edge -> the label rule it
# breaks or None (check is None for diagnoses and targets, which carry no
# label); and duplicate, what a repeated pair reports (None: it may repeat,
# and the type's store is a list).
_EdgeKind = namedtuple("_EdgeKind", "color first second check duplicate")

_EDGE_KINDS = {
    GeneticEdge: _EdgeKind(
        EdgeColor.GREEN, Partition.PATIENT, Partition.MUTATION, _unit_label_issue, "genetic edge"
    ),
    DiagnosisEdge: _EdgeKind(
        EdgeColor.RED, Partition.DISEASE, Partition.PATIENT, None, "diagnosis"
    ),
    TreatmentEdge: _EdgeKind(
        EdgeColor.RED, Partition.PATIENT, Partition.DRUG, _treatment_issue, None
    ),
    GdaAssociation: _EdgeKind(
        EdgeColor.MAGENTA, Partition.DISEASE, Partition.MUTATION, _unit_label_issue, "gda"
    ),
    TargetEdge: _EdgeKind(
        EdgeColor.MAGENTA, Partition.MUTATION, Partition.DRUG, None, "target"
    ),
}

# Each color's edge types, in the order above.
_TYPES_OF = {c: [t for t, kind in _EDGE_KINDS.items() if kind.color is c] for c in EdgeColor}

_NO_EDGES = MappingProxyType({})  # what a key with no edges of a type maps to

# Each node type's partition and the field holding its key (None: the node is the key).
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
        # One store per edge type, filled by add_edges (see the module docstring).
        self._edges = {t: {} if kind.duplicate else [] for t, kind in _EDGE_KINDS.items()}

    # ------------------------------------------------------------------
    # Nodes

    def add_node(self, node) -> None:
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

    def patient(self, patient_id: str) -> PatientRecord:
        try:
            return self._patients[patient_id]
        except KeyError:
            raise errors.UnknownNode("patient", patient_id) from None

    def disease(self, disease_id: str) -> DiseaseNode:
        try:
            return self._diseases[disease_id]
        except KeyError:
            raise errors.UnknownDisease("disease", disease_id) from None

    def drug(self, drug_id: str) -> DrugNode:
        try:
            return self._drugs[drug_id]
        except KeyError:
            raise errors.UnknownNode("drug", drug_id) from None

    @property
    def patients(self) -> Mapping[str, PatientRecord]:
        return MappingProxyType(self._patients)

    @property
    def mutations(self) -> KeysView[MutationKey]:
        return self._mutations.keys()

    @property
    def diseases(self) -> Mapping[str, DiseaseNode]:
        return MappingProxyType(self._diseases)

    @property
    def drugs(self) -> Mapping[str, DrugNode]:
        return MappingProxyType(self._drugs)

    def mutation_by_display(self, text: str) -> MutationKey:
        """The first-added mutation whose rendering is ``text``: of two loci
        that render alike (a ``_`` inside a gene or chromosome), the one whose
        first accepted row comes first in ``build_graph``'s input."""
        for mutation in self._mutations:  # in insertion order
            if mutation.display() == text:
                return mutation
        raise errors.UnknownMutation("mutation", text)

    def partition_sizes(self) -> dict[str, int]:
        names = ("Pa", "Mu", "Di", "Dr")  # in Partition order, as _nodes is
        return {name: len(table) for name, table in zip(names, self._nodes.values())}

    # ------------------------------------------------------------------
    # Edges

    def add_edges(self, edges: Iterable[Edge], repeat: Callable | None = None) -> None:
        """Insert typed edges in order, each into its colored set.

        At the first edge that breaks a rule, raises InvalidLabel for an
        out-of-range label (checked first, as it depends on the edge alone),
        MissingEndpoint if an endpoint node is absent, or DuplicateEdge for a
        repeated pair of a kind that may not repeat; the edges before it
        stay inserted. With ``repeat``, a repeated pair calls ``repeat(held,
        new)`` instead, which must return one of its two arguments: the held
        edge stays, or the new one replaces it in the pair's slot; any other
        result raises DuplicateEdge, and the held edge stays. The tables of
        an edge type are looked up once per run of its edges.
        """
        edge_type = None
        for edge in edges:
            if type(edge) is not edge_type:
                edge_type = type(edge)
                try:
                    kind = _EDGE_KINDS[edge_type]
                except KeyError:
                    raise TypeError(f"unsupported edge type {edge_type.__name__}") from None
                check, store = kind.check, self._edges[edge_type]
                firsts, seconds = self._nodes[kind.first], self._nodes[kind.second]
            if check:
                issue = check(edge)
                if issue:
                    raise errors.InvalidLabel(issue)
            a, b = edge[0], edge[1]
            if a not in firsts or b not in seconds:
                part, key = (kind.first, a) if a not in firsts else (kind.second, b)
                raise errors.MissingEndpoint(f"{part.value} {key_text(key)}")
            if kind.duplicate is None:
                store.append(edge)
            elif (adjacent := store.get(a)) is None:
                store[a] = {b: edge}
            elif (held := adjacent.get(b)) is None:
                adjacent[b] = edge
            else:
                kept = None if repeat is None else repeat(held, edge)
                if kept is not held and kept is not edge:
                    raise errors.DuplicateEdge(f"{kind.duplicate} {key_text(a)}-{key_text(b)}")
                adjacent[b] = kept

    def edge_records(self, color: EdgeColor) -> tuple[Edge, ...]:
        """The typed edges of one color, as a tuple that only add_edges
        writes: type by type in _EDGE_KINDS order, treatments in input order,
        other types grouped by first key in first-seen order."""
        return tuple(e for t in _TYPES_OF[color] for e in _stored(self._edges[t]))

    def edge_counts(self) -> dict[str, int]:
        return {c.value: len(self.edge_records(c)) for c in EdgeColor}

    # ------------------------------------------------------------------
    # Queries

    def mutations_of_patient(self, patient_id: str) -> KeysView[MutationKey]:
        self.patient(patient_id)
        return self._edges[GeneticEdge].get(patient_id, _NO_EDGES).keys()

    def patients_of_disease(self, disease_id: str) -> KeysView[str]:
        self.disease(disease_id)
        return self._edges[DiagnosisEdge].get(disease_id, _NO_EDGES).keys()

    def gda_scores(self, disease_id: str) -> dict[MutationKey, Fraction]:
        """The mutations of a disease's magenta edges, with their GDA scores."""
        self.disease(disease_id)
        edges = self._edges[GdaAssociation].get(disease_id, {})
        return {m: e.gda_score for m, e in edges.items()}

    def target_drugs(self, mutation: MutationKey) -> KeysView[str]:
        """Drugs with a known effect on the mutation (its magenta drug edges)."""
        if mutation not in self._mutations:
            raise errors.UnknownMutation("mutation", mutation.display())
        return self._edges[TargetEdge].get(mutation, _NO_EDGES).keys()

    def vaf(self, patient_id: str, mutation: MutationKey) -> Fraction | None:
        """The VAF on the patient's green edge to ``mutation`` (a Fraction from ingest) or None."""
        self.patient(patient_id)
        edge = self._edges[GeneticEdge].get(patient_id, {}).get(mutation)
        if edge is None:
            raise errors.NotPatientMutation(key_text(mutation), patient_id)
        return edge.vaf


def validate(graph: KnowledgeGraph) -> list[str]:
    """Replay ``graph`` through the gate: insert its nodes, then each edge
    type's stored edges in order, into an empty graph. Returns the text of
    each refusal, then one entry per partition or color whose table or edge
    stores the replay fills differently; empty exactly when the graph
    equals its replay, as a graph built through the gate does."""
    replay, out = KnowledgeGraph(), []
    nodes = (node for table in graph._nodes.values() for node in table.values())
    edges = ((edge,) for store in graph._edges.values() for edge in _stored(store))
    for insert, items in ((replay.add_node, nodes), (replay.add_edges, edges)):
        for item in items:
            try:
                insert(item)
            except (errors.OncographError, TypeError) as exc:
                out.append(str(exc))
    for part in Partition:
        if not _same(replay._nodes[part], graph._nodes[part], dict.values):
            out.append(f"{part.value} table differs from its replay")
    for color in EdgeColor:
        if not all(_same(replay._edges[t], graph._edges[t], _stored) for t in _TYPES_OF[color]):
            out.append(f"{color.value} edges differ from their replay")
    return out


def _stored(store):
    """The edges in one type's store, in order: a list, or first key -> {second key: edge}."""
    return store if isinstance(store, list) else (e for d in store.values() for e in d.values())


def _same(a, b, values=iter) -> bool:
    """``a == b``, and each value of one has the type of the other's: records
    of two types with equal fields compare equal."""
    return a == b and list(map(type, values(a))) == list(map(type, values(b)))


def key_text(key) -> str:
    """A node key as text: a mutation by its display form, an id as itself."""
    return key.display() if isinstance(key, MutationKey) else str(key)


def _node_issue(node) -> str | None:
    """The rule of its partition that a node breaks, if any."""
    if isinstance(node, PatientRecord):
        if not isinstance(node.survival_months, int):
            return f"patient {node.patient_id}: survival {node.survival_months!r} is not an int"
        if node.survival_months < 0:
            return f"patient {node.patient_id}: negative survival"
    elif isinstance(node, MutationKey):
        if not node.gene:
            return f"mutation {node.display()}: empty gene"
        if node.start > node.end or node.start < 0:
            return f"mutation {node.display()}: bad locus range"
    elif isinstance(node, DrugNode):
        if not isinstance(node.toxicity_weight, (int, Fraction)):
            return f"drug {node.drug_id}: weight {node.toxicity_weight!r} is not int or Fraction"
        if node.toxicity_weight < 0:
            return f"drug {node.drug_id}: negative weight"
    return None
