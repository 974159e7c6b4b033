"""oncograph: 4-partite oncology knowledge graph analytics.

Construction and validation of a patient/mutation/disease/drug knowledge
graph from tabular exports, knowledge-vs-evidence consistency checking,
patient-cohort partitioning, and exact minimum-(weight) hitting-set drug
treatment optimization.
"""

from .graph import (
    DiagnosisEdge,
    DiseaseNode,
    DrugNode,
    EdgeColor,
    Effectiveness,
    GdaAssociation,
    GeneticEdge,
    KnowledgeGraph,
    MutationKey,
    Partition,
    PatientRecord,
    TargetEdge,
    TreatmentEdge,
    validate,
)

__all__ = [
    "KnowledgeGraph",
    "PatientRecord",
    "MutationKey",
    "DiseaseNode",
    "DrugNode",
    "GeneticEdge",
    "DiagnosisEdge",
    "TreatmentEdge",
    "GdaAssociation",
    "TargetEdge",
    "Partition",
    "EdgeColor",
    "Effectiveness",
    "validate",
    "cohort",
    "errors",
    "hitting_set",
    "ingest",
    "knowledge",
]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: submodules load on first use, so a CLI call imports only what it runs.
    if name in ("cohort", "hitting_set", "ingest", "knowledge"):
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
