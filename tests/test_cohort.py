import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oncograph import (
    DiseaseNode,
    EdgeColor,
    GeneticEdge,
    KnowledgeGraph,
    MutationKey,
    PatientRecord,
    cohort,
    errors,
)
from oncograph.cohort import (
    FrequencyMode,
    MutationProfile,
    coexisting_mutation_sets,
    co_mutation_survival_table,
    format_percent,
    frequency_table,
    group_by_threshold,
    survival_partition,
)

from conftest import make_mutation, random_graph
from oracles import hamming_distance, jaccard_distance


def prof(pid, *items):
    return MutationProfile(pid, frozenset(items))


profiles_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=20), max_size=12),
    min_size=2,
    max_size=3,
)


class TestDistances:
    def test_hamming_identity(self):
        a = prof("P1", "a", "b")
        assert hamming_distance(a, a) == 0

    def test_hamming_symmetric_difference(self):
        assert hamming_distance(prof("P1", "m1", "m2"), prof("P2", "m2", "m3")) == 2

    def test_hamming_disjoint(self):
        assert hamming_distance(prof("P1"), prof("P2", "m1", "m2", "m3")) == 3

    def test_jaccard_identical(self):
        a = prof("P1", "a", "b")
        assert jaccard_distance(a, a) == 0

    def test_jaccard_disjoint(self):
        assert jaccard_distance(prof("P1", "a"), prof("P2", "b")) == 1

    def test_jaccard_two_thirds(self):
        assert jaccard_distance(prof("P1", "m1", "m2"), prof("P2", "m2", "m3")) == Fraction(2, 3)

    def test_jaccard_both_empty(self):
        assert jaccard_distance(prof("P1"), prof("P2")) == 0

    @settings(max_examples=200)
    @given(profiles_strategy)
    def test_metric_axioms(self, sets):
        ps = [MutationProfile(f"P{i}", s) for i, s in enumerate(sets)]
        for a, b in combinations(ps, 2):
            for dist in (hamming_distance, jaccard_distance):
                assert dist(a, b) == dist(b, a) >= 0
                assert (dist(a, b) == 0) == (a.mutations == b.mutations)
        if len(ps) >= 3:
            a, b, c = ps[:3]
            for dist in (hamming_distance, jaccard_distance):
                assert dist(a, c) <= dist(a, b) + dist(b, c)
        for a, b in combinations(ps, 2):
            assert 0 <= jaccard_distance(a, b) <= 1


class TestGrouping:
    def test_k0_all_distinct_singletons(self):
        ps = [prof("P1", "a"), prof("P2", "b"), prof("P3", "c")]
        assert group_by_threshold(ps, "hamming", 0) == [["P1"], ["P2"], ["P3"]]

    def test_chaining_components(self):
        # pairwise Hamming: (P1,P2)=4, (P2,P3)=4, (P1,P3)=8
        p1 = prof("P1", *"abcd")
        p2 = prof("P2", *"cdef")  # vs P1: {a,b,e,f} -> 4
        p3 = prof("P3", *"efgh")  # vs P2: {c,d,g,h} -> 4; vs P1: 8
        assert hamming_distance(p1, p2) == 4
        assert hamming_distance(p2, p3) == 4
        assert hamming_distance(p1, p3) == 8
        assert group_by_threshold([p1, p2, p3], "hamming", 5) == [["P1", "P2", "P3"]]

    def test_clique_strategy_splits_chain(self):
        p1 = prof("P1", *"abcd")
        p2 = prof("P2", *"cdef")
        p3 = prof("P3", *"efgh")
        groups = group_by_threshold([p1, p2, p3], "hamming", 5, strategy="cliques")
        assert groups == [["P1", "P2"], ["P2", "P3"]]

    def test_cliques_sharing_a_leader_in_member_order(self):
        # Hamming k=1 cliques {P0,P1,P4}, {P0,P2}, {P2,P3}: the search finds
        # the two led by P0 in an order set by the hash seed.
        ps = [
            prof("P0", "m3", "m4"), prof("P1", "m3"), prof("P2", "m4"),
            prof("P3", "m1", "m4"), prof("P4", "m3"),
        ]
        groups = group_by_threshold(ps, "hamming", 1, strategy="cliques")
        assert groups == [["P0", "P1", "P4"], ["P0", "P2"], ["P2", "P3"]]

    def test_jaccard_threshold_is_inclusive_and_exact(self):
        a = prof("P1", *"abcdefghij")
        b = prof("P2", *"abcdefg")
        assert jaccard_distance(a, b) == Fraction(3, 10)
        assert group_by_threshold([a, b], "jaccard", Fraction("0.3")) == [["P1", "P2"]]

    def test_output_is_partition(self):
        rng = random.Random(23)
        for _ in range(20):
            ps = [
                prof(f"P{i}", *rng.sample("abcdefghij", rng.randint(0, 6)))
                for i in range(rng.randint(1, 10))
            ]
            groups = group_by_threshold(ps, "hamming", rng.randint(0, 5))
            flat = [pid for g in groups for pid in g]
            assert sorted(flat) == sorted(p.patient_id for p in ps)
            assert len(flat) == len(set(flat))


def test_a_clique_larger_than_the_recursion_limit():
    # Every pair is at Hamming distance 2, so the threshold graph is complete.
    ps = [prof(f"P{i:04d}", f"m{i}") for i in range(1200)]
    groups = group_by_threshold(ps, "hamming", 2, strategy="cliques")
    assert groups == [[p.patient_id for p in ps]]


def oracle_groups(profiles, metric, k, strategy):
    """The k-threshold graph built pair by pair from the reference distances,
    then its components or its maximal cliques by plain enumeration."""
    dist = {"hamming": hamming_distance, "jaccard": jaccard_distance}[metric]
    ids = [p.patient_id for p in profiles]
    adj = {pid: set() for pid in ids}
    for a, b in combinations(profiles, 2):
        if dist(a, b) <= k:
            adj[a.patient_id].add(b.patient_id)
            adj[b.patient_id].add(a.patient_id)
    groups = []
    if strategy == "components":
        seen = set()
        for pid in ids:
            if pid in seen:
                continue
            comp, stack = {pid}, [pid]
            while stack:
                for other in adj[stack.pop()] - comp:
                    comp.add(other)
                    stack.append(other)
            seen |= comp
            groups.append(comp)
    else:
        # Every clique, grown only by later ids, with the ids adjacent to all
        # of its members; keep those that no id extends.
        stack = [(pid, {pid}, adj[pid]) for pid in ids]
        while stack:
            last, clique, common = stack.pop()
            if not common:
                groups.append(clique)
            for pid in common:
                if pid > last:
                    stack.append((pid, clique | {pid}, common & adj[pid]))
    return sorted(sorted(g) for g in groups)


def random_profiles(rng):
    """Up to 10 profiles over a small universe of gene symbols or
    MutationKeys, with empty and repeated profiles."""
    if rng.random() < 0.5:
        universe = [f"G{i}" for i in range(rng.randint(1, 9))]
    else:
        universe = [make_mutation("G", i) for i in range(rng.randint(1, 9))]
    sets = []
    for _ in range(rng.randint(0, 10)):
        if sets and rng.random() < 0.25:
            sets.append(rng.choice(sets))
        else:
            sets.append(frozenset(rng.sample(universe, rng.randint(0, len(universe)))))
    return [MutationProfile(f"P{i:02d}", s) for i, s in enumerate(sets)]


class TestGroupingOracle:
    JACCARD_KS = [0, Fraction(3, 10), Fraction(1, 2), 1, Fraction(3, 2), 0.3, Fraction(2, 3)]

    def test_matches_pairwise_threshold_graph(self):
        rng = random.Random(71)
        for _ in range(200):
            ps = random_profiles(rng)
            largest = max((len(p.mutations) for p in ps), default=0)
            cases = [("hamming", k) for k in [*range(largest + 3), 1.5, Fraction(5, 2)]]
            cases += [("jaccard", k) for k in self.JACCARD_KS]
            for metric, k in cases:
                for strategy in ("components", "cliques"):
                    assert group_by_threshold(ps, metric, k, strategy) == oracle_groups(
                        ps, metric, k, strategy
                    ), (metric, k, strategy, ps)

    @pytest.mark.parametrize("strategy", ["components", "cliques"])
    def test_no_profiles_no_groups(self, strategy):
        assert group_by_threshold([], "hamming", 1, strategy) == []

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric 'cosine'"):
            group_by_threshold([prof("P1", "a")], "cosine", 1)

    @pytest.mark.parametrize(
        "k, strategy, exc, message",
        [
            (-1, "components", errors.InvalidThresholds, "^k must be >= 0$"),
            (1, "louvain", ValueError, "^unknown strategy 'louvain'$"),
        ],
    )
    def test_negative_k_and_unknown_strategy(self, k, strategy, exc, message):
        with pytest.raises(exc, match=message):
            group_by_threshold([prof("P1", "a")], "hamming", k, strategy)


class TestSurvivalPartition:
    def make_graph(self, records):
        g = KnowledgeGraph()
        for pid, months, alive in records:
            g.add_node(PatientRecord(pid, months, alive))
        return g

    def test_boundaries(self):
        g = self.make_graph(
            [("A", 36, True), ("B", 6, True), ("C", 6, False), ("D", 20, True)]
        )
        part = survival_partition(g)
        assert "A" in part.long_survivors        # >= 36, inclusive
        assert "B" in part.rest                  # alive blocks short group
        assert "C" in part.short_deceased        # <= 6 and deceased, inclusive
        assert "D" in part.rest

    def test_disjoint_cover(self):
        rng = random.Random(31)
        for _ in range(20):
            g = self.make_graph(
                [(f"P{i}", rng.randint(0, 80), rng.random() < 0.5) for i in range(15)]
            )
            t_short = rng.randint(0, 10)
            t_long = rng.randint(t_short + 1, 60)
            part = survival_partition(g, t_long, t_short)
            all_ids = part.long_survivors | part.short_deceased | part.rest
            assert all_ids == set(g.patients)
            assert (
                len(part.long_survivors) + len(part.short_deceased) + len(part.rest)
                == len(g.patients)
            )

    def test_invalid_thresholds(self):
        g = self.make_graph([("A", 1, True)])
        with pytest.raises(errors.InvalidThresholds):
            survival_partition(g, t_long=6, t_short=36)


def brute_force_coexist(profiles, k_percent):
    """Exhaustive oracle over all non-empty itemsets."""
    n = len(profiles)
    items = sorted({i for p in profiles for i in p.mutations}, key=str)
    frequent = {}
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            s = frozenset(combo)
            supp = frozenset(
                p.patient_id for p in profiles if s <= p.mutations
            )
            if Fraction(100 * len(supp), n) >= Fraction(k_percent):
                frequent[s] = supp
    return {
        s: supp for s, supp in frequent.items()
        if not any(s < other for other in frequent)
    }


class TestCoexistingSets:
    def test_maximality_example(self):
        ps = [prof("P1", "a", "b"), prof("P2", "a", "b"), prof("P3", "a")]
        out = coexisting_mutation_sets(ps, 60)
        assert [set(c.mutations) for c in out] == [{"a", "b"}]
        assert out[0].support_percent == Fraction(200, 3)

    def test_k100(self):
        ps = [prof("P1", "a", "b"), prof("P2", "a", "b"), prof("P3", "a")]
        out = coexisting_mutation_sets(ps, 100)
        assert [set(c.mutations) for c in out] == [{"a"}]

    def test_invalid_percent(self):
        with pytest.raises(errors.InvalidPercent):
            coexisting_mutation_sets([prof("P1", "a")], 0)

    def test_oracle_equivalence_random(self):
        rng = random.Random(41)
        universe = list("abcdefghij")
        for _ in range(40):
            ps = [
                prof(f"P{i}", *rng.sample(universe, rng.randint(0, 6)))
                for i in range(rng.randint(1, 8))
            ]
            k = rng.choice([5, 10, 25, 40, 50, 75, 100])
            got = {c.mutations: c.supporting_patients for c in coexisting_mutation_sets(ps, k)}
            want = brute_force_coexist(ps, k)
            assert got == want

    def test_antimonotone_support(self):
        ps = [prof(f"P{i}", *s) for i, s in enumerate([("a", "b"), ("a", "b"), ("a",), ("b",)])]
        out = coexisting_mutation_sets(ps, 50)
        n = len(ps)
        for c in out:
            for item in c.mutations:
                sub_supp = sum(1 for p in ps if (c.mutations - {item}) <= p.mutations)
                assert Fraction(100 * sub_supp, n) >= 50


class TestClosedSetSearch:
    def test_oracle_past_one_machine_word(self):
        # More than 64 patients, so tidsets span several words; items are
        # MutationKeys, ordered by their rendering.
        rng = random.Random(97)
        for _ in range(40):
            universe = [make_mutation(f"G{i % 4}", i) for i in range(rng.randint(1, 10))]
            sizes = [rng.randint(0, min(5, len(universe))) for _ in range(rng.randint(65, 130))]
            ps = [
                MutationProfile(f"P{j:03d}", frozenset(rng.sample(universe, size)))
                for j, size in enumerate(sizes)
            ]
            k = rng.choice([Fraction(1, 3), 1, 5, 10, 25, 50])
            out = coexisting_mutation_sets(ps, k)
            assert {c.mutations: c.supporting_patients for c in out} == brute_force_coexist(ps, k)
            for c in out:
                assert c.support_percent == Fraction(100 * len(c.supporting_patients), len(ps))

    def test_no_profiles_no_sets(self):
        assert coexisting_mutation_sets([], 50) == []

    def test_one_patient_with_twenty_items_is_one_step(self):
        ps = [prof("P1", *(f"g{i:02d}" for i in range(20)))]
        start = time.perf_counter()
        out = coexisting_mutation_sets(ps, 100)
        assert time.perf_counter() - start < 0.01
        assert [(len(c.mutations), c.supporting_patients) for c in out] == [(20, {"P1"})]


class TestFrequencyTable:
    def test_degenerate_single_patient(self):
        m = make_mutation("G", 1)
        ps = [MutationProfile("P1", frozenset([m]))]
        for mode in FrequencyMode:
            rows = frequency_table(ps, mode)
            assert len(rows) == 1
            assert rows[0][1] == 100

    def test_three_modes_hand_count(self):
        g1a, g1b = make_mutation("G1", 1), make_mutation("G1", 2)
        ps = [
            MutationProfile("P1", frozenset([g1a, g1b])),
            MutationProfile("P2", frozenset([g1a])),
        ]
        rows = frequency_table(ps, FrequencyMode.MUTATION)
        assert dict(rows)[g1a.display()] == Fraction(200, 3)
        rows = frequency_table(ps, FrequencyMode.GENE_WITH_MULTIPLICITY)
        assert dict(rows)["G1"] == 100
        rows = frequency_table(ps, FrequencyMode.GENE_WITHOUT_MULTIPLICITY)
        assert dict(rows)["G1"] == 100

    def test_mutation_mode_percentages_sum_to_100(self):
        rng = random.Random(53)
        for _ in range(15):
            ps = [
                prof(f"P{i}", *rng.sample("abcdefgh", rng.randint(0, 5)))
                for i in range(rng.randint(1, 8))
            ]
            if not any(p.mutations for p in ps):
                continue
            rows = frequency_table(ps, FrequencyMode.MUTATION, top_n=None)
            assert sum(pct for _, pct in rows) == 100

    def test_empty_population(self):
        with pytest.raises(errors.EmptyPopulation):
            frequency_table([], FrequencyMode.MUTATION)

    @pytest.mark.parametrize(
        "mode", [FrequencyMode.MUTATION, FrequencyMode.GENE_WITH_MULTIPLICITY]
    )
    def test_profiles_without_mutations(self, mode):
        with pytest.raises(errors.EmptyPopulation, match="^profiles carry no mutations$"):
            frequency_table([prof("P1"), prof("P2")], mode)

    def test_negative_top_n_is_refused(self):
        # rows[:-1] would drop the last row: on a one-row table, every row.
        ps = [MutationProfile("P1", frozenset([make_mutation("G", 1)]))]
        assert frequency_table(ps, top_n=0) == ()
        with pytest.raises(ValueError, match=r"^top_n -1 must be >= 0$"):
            frequency_table(ps, top_n=-1)

    def test_rounding_half_up_at_render_only(self):
        assert format_percent(Fraction(200, 3)) == "66.7"
        assert format_percent(Fraction(100, 6)) == "16.7"
        assert format_percent(Fraction(25, 2)) == "12.5"
        assert format_percent(Fraction(1, 8) * 100) == "12.5"
        assert format_percent(Fraction(115, 1000) * 100) == "11.5"


class TestCoMutationSurvival:
    def make_graph(self, spec):
        """spec: {pid: (alive, [(gene, locus), ...])}"""
        g = KnowledgeGraph()
        muts = {}
        for pid, (alive, mutations) in spec.items():
            g.add_node(PatientRecord(pid, 12, alive))
            for gene, locus in dict.fromkeys(mutations):
                key = (gene, locus)
                if key not in muts:
                    muts[key] = make_mutation(gene, locus)
                    g.add_node(muts[key])
                g.add_edges([GeneticEdge(pid, muts[key], 0.5)])
        return g

    def test_disjoint_carriers_empty_population(self):
        g = self.make_graph({"P1": (True, [("E", 1)]), "P2": (True, [("K", 2)])})
        with pytest.raises(errors.EmptyPopulation):
            co_mutation_survival_table(g, ("E", "K"))

    def test_hand_count(self):
        g = self.make_graph(
            {
                "P1": (True, [("E", 1), ("K", 2), ("A", 3)]),
                "P2": (False, [("E", 1), ("K", 2)]),
            }
        )
        rows = co_mutation_survival_table(g, ("E", "K"))
        by_gene = {r.gene: r for r in rows}
        assert by_gene["A"].pct_patients == 50
        assert by_gene["A"].pct_living == 100
        assert by_gene["A"].pct_deceased == 0
        assert by_gene["E"].pct_patients == 100
        assert by_gene["E"].pct_living == 50

    def test_unknown_gene(self):
        g = self.make_graph({"P1": (True, [("E", 1)])})
        with pytest.raises(errors.UnknownGene):
            co_mutation_survival_table(g, ("E", "NOPE"))

    def test_negative_top_n_is_refused(self):
        g = self.make_graph({"P1": (True, [("E", 1), ("K", 2)])})
        assert len(co_mutation_survival_table(g, ("E", "K"))) == 2
        with pytest.raises(ValueError, match=r"^top_n -1 must be >= 0$"):
            co_mutation_survival_table(g, ("E", "K"), top_n=-1)

    def test_living_plus_deceased_is_100(self):
        rng = random.Random(61)
        for _ in range(10):
            spec = {
                f"P{i}": (
                    rng.random() < 0.5,
                    [("E", 1), ("K", 2)]
                    + [(rng.choice("ABC"), rng.randint(3, 5)) for _ in range(rng.randint(0, 3))],
                )
                for i in range(rng.randint(1, 6))
            }
            g = self.make_graph(spec)
            for r in co_mutation_survival_table(g, ("E", "K"), top_n=None):
                assert r.pct_living + r.pct_deceased == 100

    def test_random_graphs_against_green_edge_records(self):
        rng = random.Random(67)
        checked = 0
        for _ in range(40):
            g = random_graph(rng, max_nodes=40)
            genes = {pid: set() for pid in g.patients}
            for e in g.edge_records(EdgeColor.GREEN):
                genes[e.patient_id].add(e.mutation.gene)
            present = sorted(set().union(*genes.values()))
            for pair in combinations(present, 2):
                cohort = [pid for pid, gs in genes.items() if set(pair) <= gs]
                if not cohort:
                    with pytest.raises(errors.EmptyPopulation):
                        co_mutation_survival_table(g, pair)
                    continue
                expected = []
                for gene in set().union(*(genes[pid] for pid in cohort)):
                    carriers = [pid for pid in cohort if gene in genes[pid]]
                    living = sum(g.patient(pid).alive for pid in carriers)
                    expected.append((
                        gene,
                        Fraction(100 * len(carriers), len(cohort)),
                        Fraction(100 * living, len(carriers)),
                        Fraction(100 * (len(carriers) - living), len(carriers)),
                    ))
                expected.sort(key=lambda row: (-row[1], row[0]))
                rows = [
                    (r.gene, r.pct_patients, r.pct_living, r.pct_deceased)
                    for r in co_mutation_survival_table(g, pair, top_n=None)
                ]
                assert rows == expected
                assert [r.gene for r in co_mutation_survival_table(g, pair, top_n=2)] == [
                    row[0] for row in expected[:2]
                ]
                checked += 1
        assert checked > 50
