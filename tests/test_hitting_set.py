import random
import time
from fractions import Fraction

import pytest

from oncograph import (
    DiseaseNode,
    DrugNode,
    GeneticEdge,
    KnowledgeGraph,
    PatientRecord,
    TargetEdge,
    errors,
    hitting_set as hs,
)

from conftest import make_mutation
from oracles import oracle_solve

M1 = make_mutation("KRAS", 100)
M2 = make_mutation("EGFR", 200)
M3 = make_mutation("BRAF", 300)


def target_graph():
    g = KnowledgeGraph()
    g.add_node(PatientRecord("P1", 20, True))
    for m in (M1, M2, M3):
        g.add_node(m)
    for d in ("d1", "d2", "d3"):
        g.add_node(DrugNode(d))
    g.add_edges([GeneticEdge("P1", M1, 0.4)])
    g.add_edges([GeneticEdge("P1", M2, 0.3)])
    g.add_edges([GeneticEdge("P1", M3, 0.2)])
    g.add_edges([TargetEdge(M1, "d1")])
    g.add_edges([TargetEdge(M1, "d2")])
    g.add_edges([TargetEdge(M2, "d2")])
    g.add_edges([TargetEdge(M2, "d3")])
    return g


class TestInstanceConstruction:
    def test_drugs_for_mutation(self):
        g = target_graph()
        assert g.target_drugs(M1) == {"d1", "d2"}

    def test_drugs_for_untargeted_mutation(self):
        g = target_graph()
        assert g.target_drugs(M3) == set()

    def test_build_instance_shape(self):
        g = target_graph()
        inst = hs.build_instance(g, "P1", [M1, M2])
        assert set(inst.universe) == {"d1", "d2", "d3"}
        assert sorted(map(sorted, inst.family)) == [["d1", "d2"], ["d2", "d3"]]

    def test_empty_targets(self):
        g = target_graph()
        inst = hs.build_instance(g, "P1", [])
        assert inst.family == ()
        assert hs.solve_min_cardinality(inst).drugs == frozenset()

    def test_untargetable_names_mutation(self):
        g = target_graph()
        with pytest.raises(errors.Untargetable) as exc:
            hs.build_instance(g, "P1", [M3])
        assert M3.display() in str(exc.value)

    def test_not_patient_mutation(self):
        g = target_graph()
        g.add_node(PatientRecord("P2", 5, False))
        with pytest.raises(errors.NotPatientMutation):
            hs.build_instance(g, "P2", [M1])

    def test_float_weight_on_a_graph_drug_is_rejected(self):
        # add_node refuses the float, as make_instance does for bare drug sets.
        g = target_graph()
        with pytest.raises(errors.InvalidLabel, match="^drug d4: weight 0.5 is not int or"):
            g.add_node(DrugNode("d4", None, 0.5))

    def test_empty_set_is_untargetable_by_position(self):
        with pytest.raises(errors.Untargetable) as exc:
            hs.make_instance([{"a"}, set()])
        assert str(exc.value) == "untargetable mutation set #1"


class TestSolvers:
    def test_common_element_wins(self):
        inst = hs.make_instance([{"d1", "d2"}, {"d2", "d3"}])
        assert hs.solve_min_cardinality(inst).drugs == {"d2"}
        assert oracle_solve(inst, "cardinality").drugs == {"d2"}

    def test_disjoint_singletons_force_all(self):
        inst = hs.make_instance([{"d1"}, {"d2"}, {"d3"}])
        sol = hs.solve_min_cardinality(inst)
        assert sol.drugs == {"d1", "d2", "d3"}

    def test_weighted_avoids_heavy_drug(self):
        inst = hs.make_instance(
            [{"d1", "d2"}, {"d2", "d3"}], weights={"d2": 5, "d1": 1, "d3": 1}
        )
        sol = hs.solve_min_weight(inst)
        assert sol.drugs == {"d1", "d3"}
        assert sol.total_weight == 2

    def test_zero_weight_forced_single(self):
        inst = hs.make_instance([{"d1"}], weights={"d1": 0})
        sol = hs.solve_min_weight(inst)
        assert sol.drugs == {"d1"}
        assert sol.total_weight == 0

    def test_empty_family(self):
        inst = hs.make_instance([])
        for solve in (hs.solve_min_cardinality, hs.solve_min_weight, oracle_solve):
            sol = solve(inst)
            assert sol.drugs == frozenset()
            assert sol.total_weight == 0

    def test_cover_larger_than_the_recursion_limit(self):
        # Each target needs its own drug, so every cover holds all 1,100.
        inst = hs.make_instance([{f"d{i}"} for i in range(1100)])
        for solve in (hs.solve_min_cardinality, hs.solve_min_weight):
            assert solve(inst).drugs == set(inst.universe)

    def test_hits_map(self):
        g = target_graph()
        inst = hs.build_instance(g, "P1", [M1, M2])
        sol = hs.solve_min_cardinality(inst)
        assert sol.drugs == {"d2"}


def random_instance(rng, max_universe=12, max_family=8, weighted=True):
    n = rng.randint(1, max_universe)
    drugs = [f"d{i:02d}" for i in range(n)]
    family = []
    for _ in range(rng.randint(1, max_family)):
        family.append(set(rng.sample(drugs, rng.randint(1, n))))
    weights = (
        {d: Fraction(rng.randint(0, 20), rng.randint(1, 4)) for d in drugs}
        if weighted
        else None
    )
    return hs.make_instance(family, weights)


class TestOracleAgreement:
    def test_weighted_matches_oracle(self):
        rng = random.Random(71)
        for _ in range(120):
            inst = random_instance(rng)
            assert (
                hs.solve_min_weight(inst).total_weight
                == oracle_solve(inst, "weight").total_weight
            )

    def test_unit_weight_cardinality_matches(self):
        rng = random.Random(73)
        for _ in range(120):
            inst = random_instance(rng, weighted=False)
            sol = hs.solve_min_cardinality(inst)
            oracle = oracle_solve(inst, "cardinality")
            assert len(sol.drugs) == len(oracle.drugs)
            assert sol.drugs == oracle.drugs  # identical under fixed tie-breaking

    def test_weighted_drug_set_matches_oracle_under_ties(self):
        # Zero and repeated weights make many optima; the drug set itself is
        # fixed by the tie-break (weight, cardinality, sorted drug tuple).
        rng = random.Random(107)
        for _ in range(300):
            n = rng.randint(1, 10)
            drugs = [f"d{i:02d}" for i in range(n)]
            family = [
                rng.sample(drugs, rng.randint(1, min(n, 4)))
                for _ in range(rng.randint(1, 8))
            ]
            weights = {
                d: Fraction(rng.choice([0, 0, 1, 1, 2]), rng.choice([1, 2]))
                for d in drugs
            }
            inst = hs.make_instance(family, weights)
            assert (
                hs.solve_min_weight(inst).drugs
                == oracle_solve(inst, "weight").drugs
            )

    def test_unit_weight_solvers_coincide(self):
        rng = random.Random(79)
        for _ in range(50):
            inst = random_instance(rng, weighted=False)
            a = hs.solve_min_cardinality(inst)
            b = hs.solve_min_weight(inst)
            assert len(a.drugs) == len(b.drugs)
            assert a.total_weight == b.total_weight


class TestReductionTies:
    def test_twin_drugs_keep_the_lower_id(self):
        # Drugs come in groups of twins: the same targets and the same
        # weight. Only the lowest id of a group may survive the reduction,
        # and the full drug set must equal the oracle's under both objectives.
        rng = random.Random(113)
        group_weights = [0, 0, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)]
        for _ in range(200):
            ids = [f"d{i:02d}" for i in range(rng.randint(2, 10))]
            rng.shuffle(ids)
            groups, weights = [], {}
            while ids:
                group = [ids.pop() for _ in range(min(len(ids), rng.randint(1, 3)))]
                w = rng.choice(group_weights)
                weights.update(dict.fromkeys(group, w))
                groups.append(group)
            family = [
                [d for g in rng.sample(groups, rng.randint(1, len(groups))) for d in g]
                for _ in range(rng.randint(1, 6))
            ]
            inst = hs.make_instance(family, weights)
            assert hs.solve_min_weight(inst).drugs == oracle_solve(inst, "weight").drugs
            assert (
                hs.solve_min_cardinality(inst).drugs
                == oracle_solve(inst, "cardinality").drugs
            )


def seeded_random_instance(targets, drugs, seed=1):
    """Each target on 2-6 random drugs, integer weights 1-20: the make-up of
    the benchmark's random solver instances."""
    rng = random.Random(f"{seed}-{targets}x{drugs}")
    names = [f"D{i:03d}" for i in range(drugs)]
    family = [rng.sample(names, rng.randint(2, 6)) for _ in range(targets)]
    weights = {d: rng.randint(1, 20) for d in names}
    return hs.make_instance(family, weights)


def treatment_shaped_instance(seed=1):
    """28 target genes of 40, 60 drugs each on 3-6 genes, weights with two
    decimals (1 when the table leaves it out): a hypermutated patient."""
    rng = random.Random(f"treatment-{seed}")
    drugs_on, weights = {}, {}
    for k in range(1, 61):
        d = f"D{k:03d}"
        weights[d] = Fraction(1) if rng.random() < 0.1 else Fraction(rng.randrange(25, 301), 100)
        for gene in rng.sample(range(40), rng.randint(3, 6)):
            drugs_on.setdefault(gene, set()).add(d)
    family = [drugs_on[gene] for gene in rng.sample(sorted(drugs_on), 28)]
    return hs.make_instance(family, weights)


def drug_ids(numbers):
    return {f"D{int(i):03d}" for i in numbers.split()}


class TestPinnedAnswers:
    # Beyond the oracle's universe limit: answers recorded from the earlier
    # tuple-keyed branch and bound, tie-break included.
    @pytest.mark.parametrize("make, solve, drugs, total", [
        (lambda: seeded_random_instance(50, 100), hs.solve_min_weight,
         "3 5 14 19 21 24 27 28 33 40 46 56 66 74 77 84 88 89 91 95", 126),
        (lambda: seeded_random_instance(50, 100), hs.solve_min_cardinality,
         "0 2 14 16 18 19 21 23 24 33 34 40 46 62 66 77 84 93 94", 175),
        (treatment_shaped_instance, hs.solve_min_weight,
         "1 8 11 12 36 40 48 50 52 56", Fraction(197, 20)),
        (treatment_shaped_instance, hs.solve_min_cardinality,
         "1 6 8 11 12 32 40 48 56", Fraction(533, 50)),
    ], ids=["50x100-weight", "50x100-cardinality", "treatment-weight",
            "treatment-cardinality"])
    def test_pinned(self, make, solve, drugs, total):
        sol = solve(make())
        assert (sol.drugs, sol.total_weight) == (drug_ids(drugs), total)

    def test_80x150_cardinality_under_a_second(self):
        inst = seeded_random_instance(80, 150)
        start = time.perf_counter()
        sol = hs.solve_min_cardinality(inst)
        elapsed = time.perf_counter() - start
        assert sol.drugs == drug_ids(
            "1 3 6 10 14 15 17 25 28 34 40 50 59 64 66 68 75 80 93 104 109 115"
            " 124 125 132 137 138 141"
        )
        assert sol.total_weight == 320
        assert elapsed < 1, f"80x150 cardinality took {elapsed:.2f}s"


class TestProperties:
    def test_soundness_checked(self):
        rng = random.Random(83)
        for _ in range(50):
            inst = random_instance(rng)
            sol = hs.solve_min_weight(inst)
            for s in inst.family:
                assert s & sol.drugs

    def test_monotone_in_family(self):
        rng = random.Random(89)
        for _ in range(40):
            inst = random_instance(rng, max_universe=8, max_family=5)
            base = hs.solve_min_weight(inst).total_weight
            extra = set(rng.sample(inst.universe, rng.randint(1, len(inst.universe))))
            bigger = hs.make_instance(list(inst.family) + [extra], dict(inst.weights))
            assert hs.solve_min_weight(bigger).total_weight >= base

    def test_weight_scaling(self):
        rng = random.Random(97)
        for _ in range(30):
            inst = random_instance(rng, max_universe=8, max_family=5)
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled = hs.make_instance(
                inst.family, {d: w * c for d, w in inst.weights.items()}
            )
            sol = hs.solve_min_weight(inst)
            sol_scaled = hs.solve_min_weight(scaled)
            assert sol_scaled.total_weight == sol.total_weight * c
            # the chosen set remains an optimum of the scaled instance
            chosen_cost = sum(scaled.weights[d] for d in sol.drugs)
            assert chosen_cost == sol_scaled.total_weight

    def test_determinism(self):
        rng = random.Random(101)
        for _ in range(20):
            inst = random_instance(rng)
            first = hs.solve_min_weight(inst).drugs
            for _ in range(3):
                assert hs.solve_min_weight(inst).drugs == first


class TestTextFormat:
    def test_comma_in_drug_id_is_rejected(self):
        # Drug ids follow the rule of the parse boundary: joined as "a,b,c",
        # the set {"a,b", "c"} would read as {a, b, c}.
        with pytest.raises(errors.InvalidLabel, match="comma in drug id 'a,b'"):
            hs.make_instance([{"a,b", "c"}])

    def test_negative_weight_is_rejected(self):
        with pytest.raises(errors.InvalidLabel, match="^negative weight for a$"):
            hs.make_instance([{"a", "b"}], {"a": Fraction(-1, 2)})

    @pytest.mark.parametrize("weight", [0.1, float("nan"), "1"])
    def test_weight_that_is_not_exact_is_rejected(self, weight):
        # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10.
        with pytest.raises(errors.InvalidLabel, match="weight for a is not an int or a Fraction"):
            hs.make_instance([{"a", "b"}], {"a": weight})
