"""Acceptance suite: one test per criterion; each prints a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The external-dataset replay is skipped unless ONCOGRAPH_MSK_DIR
points to a directory with user-supplied exports (mutations.tsv,
clinical.tsv, gda.tsv, drugs.tsv).
"""

import operator
import os
import random
import time
from pathlib import Path

import pytest

from oncograph import (
    DiagnosisEdge,
    EdgeColor,
    GeneticEdge,
    KnowledgeGraph,
    PatientRecord,
    cli,
    cohort,
    errors,
    hitting_set as hs,
    ingest,
    knowledge,
    validate,
)

from conftest import FIXTURES, GOLDEN, make_mutation, random_graph
from oracles import hamming_distance, jaccard_distance, oracle_solve
from test_cohort import brute_force_coexist, prof
from test_hitting_set import random_instance
from test_knowledge import brute_force_sets


def ok(name):
    print(f"PASS: {name}")


def test_hitting_set_oracle_equivalence():
    """>=500 random instances, |U|<=12, <=8 family sets, random weights."""
    rng = random.Random(2024)
    start = time.monotonic()
    for i in range(500):
        inst = random_instance(rng, max_universe=12, max_family=8, weighted=True)
        assert (
            hs.solve_min_weight(inst).total_weight
            == oracle_solve(inst, "weight").total_weight
        )
        unit = hs.make_instance(inst.family)
        assert len(hs.solve_min_cardinality(unit).drugs) == len(
            oracle_solve(unit, "cardinality").drugs
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"hitting-set acceptance took {elapsed:.1f}s"
    ok(f"hitting-set oracle equivalence (500 instances, {elapsed:.1f}s)")


def test_coexisting_sets_oracle_equivalence():
    """>=200 random profile collections, <=15 distinct mutations, random k."""
    rng = random.Random(2025)
    universe = [f"m{i}" for i in range(15)]
    start = time.monotonic()
    for i in range(200):
        n_items = rng.randint(1, 15)
        items = universe[:n_items]
        ps = [
            prof(f"P{j}", *rng.sample(items, rng.randint(0, min(n_items, 8))))
            for j in range(rng.randint(1, 10))
        ]
        k = rng.choice([1, 5, 10, 20, 33.3, 50, 66.7, 80, 100])
        got = {
            c.mutations: c.supporting_patients
            for c in cohort.coexisting_mutation_sets(ps, k)
        }
        want = brute_force_coexist(ps, k)
        assert got == want
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"coexistence acceptance took {elapsed:.1f}s"
    ok(f"coexisting-set oracle equivalence (200 collections, {elapsed:.1f}s)")


def test_metric_axioms():
    """>=1000 random profile triples: symmetry, identity, range, triangle."""
    rng = random.Random(2026)
    universe = [f"m{i}" for i in range(12)]
    for _ in range(1000):
        a, b, c = (
            prof(f"P{j}", *rng.sample(universe, rng.randint(0, 8)))
            for j in range(3)
        )
        for dist in (hamming_distance, jaccard_distance):
            assert dist(a, b) == dist(b, a)
            assert dist(a, b) >= 0
            assert (dist(a, b) == 0) == (a.mutations == b.mutations)
            assert dist(a, c) <= dist(a, b) + dist(b, c)
        assert 0 <= jaccard_distance(a, b) <= 1
    ok("metric axioms (1000 random triples)")


def test_knowledge_check_correctness():
    """Exhaustive 4-case classification + brute-force agreement <=50 nodes."""
    m1, m2 = make_mutation("KRAS", 1), make_mutation("TP53", 2)
    from test_knowledge import graph_with
    from oncograph.knowledge import ConsistencyStatus

    cases = [
        ({"P1": [m1], "P2": [m1]}, [m1], ConsistencyStatus.PERFECT_MATCH),
        ({"P1": [m1, m2], "P2": [m1, m2]}, [m1], ConsistencyStatus.INCOMPLETE_KNOWLEDGE),
        ({"P1": [m1], "P2": []}, [m1], ConsistencyStatus.INCONSISTENT_EVIDENCE),
        ({"P1": [m2], "P2": [m2]}, [m1], ConsistencyStatus.COMBINATION),
    ]
    for profiles, known, expected in cases:
        g = graph_with(profiles, known=known)
        _, verdict = knowledge.check_consistency(g, "D1", gene_level=False)
        assert verdict.status is expected

    rng = random.Random(2027)
    for _ in range(40):
        g = random_graph(rng, max_nodes=50)
        for d in g.diseases:
            t = round(rng.random(), 2)
            pats, union, common, known = brute_force_sets(g, d, t, gene_level=False)
            evidence, _ = knowledge.check_consistency(
                g, d, gda_threshold=t, gene_level=False
            )
            assert evidence.patients == pats
            assert evidence.union_mutations == union
            assert evidence.common_mutations == common
            assert evidence.known_mutations == known
            assert common <= union
    ok("knowledge-check correctness (4-case + brute force)")


def test_coexisting_sets_with_hypermutated_patients():
    """300 small profiles plus 4 patients sharing 28 items, at k=0.3: one
    patient is support enough, so the frequent sets number over 2^28, and
    every set returned is frequent, closed and maximal."""
    rng = random.Random(2026)
    genes = [f"g{i:03d}" for i in range(300)]
    shared = [f"h{i:02d}" for i in range(28)]
    ps = [prof(f"P{j:03d}", *rng.sample(genes, rng.randint(1, 6))) for j in range(300)]
    ps += [prof(f"H{j}", *shared, *rng.sample(genes, 3)) for j in range(4)]
    start = time.monotonic()
    out = cohort.coexisting_mutation_sets(ps, 0.3)
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"coexisting sets took {elapsed:.1f}s"
    min_count = 1  # ceil(0.3 * 304 / 100)
    carriers = {}
    for p in ps:
        for item in p.mutations:
            carriers.setdefault(item, set()).add(p.patient_id)
    assert set().union(*(c.mutations for c in out)) == set(carriers)
    for c in out:
        patients = set.intersection(*(carriers[i] for i in c.mutations))
        assert c.supporting_patients == patients and len(patients) >= min_count
        assert not any(  # maximal, so closed too
            len(patients & carriers[i]) >= min_count for i in carriers if i not in c.mutations
        )
    assert {c.mutations for c in out} >= {p.mutations for p in ps[-4:]}
    ok(f"coexisting sets with hypermutated patients ({len(out)} sets, {elapsed:.1f}s)")


def test_graph_invariants():
    """Random constructions replay clean; 5 violation classes are refused by
    the gate or by a read-only view, and a private write of each is reported."""
    rng = random.Random(2028)
    for _ in range(30):
        assert validate(random_graph(rng, max_nodes=40)) == []

    m, ghost = make_mutation("KRAS", 1), make_mutation("GHOST", 9)
    green = EdgeColor.GREEN
    bad = PatientRecord("BAD", -1, True)
    cases = [
        # 1. partition violation: a disease-patient edge filed as green
        (lambda g: g.edge_records(green).append(DiagnosisEdge("D1", "P1")), AttributeError,
         lambda g: g._records[green].append(DiagnosisEdge("D1", "P1"))),
        # 2. dangling endpoint: green edge to a mutation node never added
        (lambda g: g.add_edges([GeneticEdge("P2", ghost, 0.5)]), errors.MissingEndpoint,
         lambda g: g._records[green].append(GeneticEdge("P2", ghost, 0.5))),
        # 3. label out of range: vaf past 1
        (lambda g: g.add_edges([GeneticEdge("P2", m, 1.5)]), errors.InvalidLabel,
         lambda g: g._records[green].append(GeneticEdge("P2", m, 1.5))),
        # 4. duplicate pairwise-unique edge
        (lambda g: g.add_edges([GeneticEdge("P1", m, 0.4)]), errors.DuplicateEdge,
         lambda g: g._records[green].append(GeneticEdge("P1", m, 0.4))),
        # 5. node invariant: negative survival put into the partition
        (lambda g: operator.setitem(g.patients, "BAD", bad), TypeError,
         lambda g: operator.setitem(g._patients, "BAD", bad)),
    ]
    for attempt, refused, forge in cases:
        g = KnowledgeGraph()
        g.add_node(PatientRecord("P1", 10, True))
        g.add_node(PatientRecord("P2", 20, False))
        g.add_node(m)
        g.add_edges([GeneticEdge("P1", m, 0.5)])
        with pytest.raises(refused):
            attempt(g)
        assert validate(g) == []
        forge(g)
        assert validate(g)

    ok("graph invariants (random clean + 5 violation classes refused and reported)")


def _fixture_args(out):
    return [
        "--mutations", str(FIXTURES / "mutations.tsv"),
        "--clinical", str(FIXTURES / "clinical.tsv"),
        "--gda", str(FIXTURES / "gda.tsv"),
        "--drugs", str(FIXTURES / "drugs.tsv"),
        "--out", str(out),
    ]


def test_fixture_golden_files(tmp_path, capsys):
    """All six commands reproduce the hand-verified TSVs byte-exactly."""
    runs = [
        (["build"], ["build_report.tsv"]),
        (["check"], ["knowledge_check.tsv"]),
        (["cohort", "--k", "2"], ["survival_bands.tsv", "profile_groups.tsv"]),
        (["freq", "--mode", "mutation"], ["frequency.tsv"]),
        (["coexist", "--k", "30"], ["coexisting_sets.tsv"]),
        (
            ["treat", "--patient", "P1",
             "--targets", "KRAS_12_25398284_25398284,EGFR_7_55259515_55259515"],
            ["treatment.tsv"],
        ),
    ]
    for argv, outputs in runs:
        assert cli.main(argv + _fixture_args(tmp_path)) == 0
        for name in outputs:
            got = (tmp_path / name).read_bytes()
            want = (GOLDEN / name).read_bytes()
            assert got == want, f"{name} differs from golden"
    # weighted variant of the treatment command
    assert cli.main(
        ["treat", "--patient", "P1",
         "--targets", "KRAS_12_25398284_25398284,EGFR_7_55259515_55259515",
         "--weighted"] + _fixture_args(tmp_path)
    ) == 0
    assert (tmp_path / "treatment.tsv").read_bytes() == (
        GOLDEN / "treatment_weighted.tsv"
    ).read_bytes()
    capsys.readouterr()
    ok("fixture golden files (six commands, byte-exact)")


def test_survival_boundary_semantics():
    g = KnowledgeGraph()
    g.add_node(PatientRecord("LONG", 36, True))
    g.add_node(PatientRecord("SHORT", 6, False))
    g.add_node(PatientRecord("REST", 6, True))
    part = cohort.survival_partition(g, t_long=36, t_short=6)
    assert part.long_survivors == {"LONG"}
    assert part.short_deceased == {"SHORT"}
    assert part.rest == {"REST"}
    ok("survival boundary semantics")


@pytest.mark.skipif(
    "ONCOGRAPH_MSK_DIR" not in os.environ,
    reason="optional replay: set ONCOGRAPH_MSK_DIR to user-supplied exports",
)
def test_replay_msk_mettropism_top_mutation():
    base = Path(os.environ["ONCOGRAPH_MSK_DIR"])
    mut = ingest.parse_mutation_table(base / "mutations.tsv")
    cli_rows = ingest.parse_clinical_table(base / "clinical.tsv")
    gda = ingest.parse_gda_table(base / "gda.tsv")
    drg = ingest.parse_drug_target_table(base / "drugs.tsv")
    g, _ = ingest.build_graph(mut.rows, cli_rows.rows, gda.rows, drg.rows)
    profiles = cohort.profiles_from_graph(g)
    rows = cohort.frequency_table(profiles, cohort.FrequencyMode.MUTATION, top_n=1)
    item, pct = rows[0]
    assert item == "KRAS_12_25398284_25398284"
    assert abs(float(pct) - 12.7) <= 0.1
    ok("replay: MSK top mutation frequency")
