import random
from pathlib import Path

import pytest

from oncograph import (
    DiagnosisEdge,
    DiseaseNode,
    DrugNode,
    GdaAssociation,
    GeneticEdge,
    KnowledgeGraph,
    MutationKey,
    PatientRecord,
    TargetEdge,
    ingest,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

GENE_POOL = ["KRAS", "TP53", "EGFR", "BRAF", "APC", "STK11", "PIK3CA", "TERT"]


@pytest.fixture
def fixture_paths():
    return {
        "mutations": FIXTURES / "mutations.tsv",
        "clinical": FIXTURES / "clinical.tsv",
        "gda": FIXTURES / "gda.tsv",
        "drugs": FIXTURES / "drugs.tsv",
    }


@pytest.fixture
def fixture_graph(fixture_paths):
    mut = ingest.parse_mutation_table(fixture_paths["mutations"])
    cli = ingest.parse_clinical_table(fixture_paths["clinical"])
    gda = ingest.parse_gda_table(fixture_paths["gda"])
    drg = ingest.parse_drug_target_table(fixture_paths["drugs"])
    graph, _ = ingest.build_graph(mut.rows, cli.rows, gda.rows, drg.rows)
    return graph


def make_mutation(gene: str, locus: int) -> MutationKey:
    return MutationKey(gene, "1", locus, locus)


def random_graph(rng: random.Random, max_nodes: int = 50) -> KnowledgeGraph:
    """Graph built through the public API only; always well-formed."""
    g = KnowledgeGraph()
    n_pat = rng.randint(1, max(1, max_nodes // 4))
    n_mut = rng.randint(1, max(1, max_nodes // 4))
    n_dis = rng.randint(1, 3)
    n_drug = rng.randint(1, 4)
    patients = [f"P{i}" for i in range(n_pat)]
    mutations = [
        make_mutation(rng.choice(GENE_POOL), 1000 + i) for i in range(n_mut)
    ]
    diseases = [f"D{i}" for i in range(n_dis)]
    drugs = [f"drug{i}" for i in range(n_drug)]
    for pid in patients:
        g.add_node(PatientRecord(pid, rng.randint(0, 120), rng.random() < 0.5))
    for m in mutations:
        g.add_node(m)
    for d in diseases:
        g.add_node(DiseaseNode(d))
    for d in drugs:
        g.add_node(DrugNode(d))
    for pid in patients:
        for m in rng.sample(mutations, rng.randint(0, n_mut)):
            g.add_edges([GeneticEdge(pid, m, round(rng.random(), 3))])
        g.add_edges([DiagnosisEdge(rng.choice(diseases), pid)])
    for d in diseases:
        for m in rng.sample(mutations, rng.randint(0, n_mut)):
            g.add_edges([GdaAssociation(d, m, round(rng.random(), 3))])
    for m in mutations:
        for dr in rng.sample(drugs, rng.randint(0, n_drug)):
            g.add_edges([TargetEdge(m, dr)])
    return g
