"""Patient-cohort analytics: profile distances, grouping, survival bands,
maximal coexisting-mutation sets, and the frequency/co-mutation tables.

All of them read one profile layer: ``profiles_from_graph`` turns each
patient's green edges into a ``MutationProfile``, a frozenset of items that
are MutationKeys, or gene symbols at gene level. It is the only code that
builds per-patient item sets and the only place a mutation is downgraded to
its gene; the knowledge check reads its cohort's profiles from it too.

Grouping is a similarity join over integer bitmasks: identical profiles
merge, sizes rule out most pairs, and the rest must share one of their
rarest items before the distance is tested exactly in integers.

Percentages are carried as exact Fractions and rounded half-up to one
decimal only when rendered, so table comparisons are reproducible.
"""

from __future__ import annotations

import decimal
import enum
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction

from . import errors
from .graph import KnowledgeGraph, MutationKey, key_text


# A patient's green neighborhood as a frozenset of mutation items: MutationKeys
# at mutation granularity or gene symbols after a gene-level downgrade.
MutationProfile = namedtuple("MutationProfile", "patient_id mutations")
# Three frozensets of patient ids.
SurvivalPartition = namedtuple("SurvivalPartition", "long_survivors short_deceased rest")
# The items, their exact support percentage and the frozenset of patients carrying them all.
CoexistenceSet = namedtuple("CoexistenceSet", "mutations support_percent supporting_patients")


class FrequencyMode(enum.Enum):
    MUTATION = "mutation"
    GENE_WITH_MULTIPLICITY = "gene_with_multiplicity"
    GENE_WITHOUT_MULTIPLICITY = "gene_without_multiplicity"


def format_percent(value: Fraction) -> str:
    """Render an exact percentage with one decimal, rounding half-up."""
    d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(d.quantize(decimal.Decimal("0.1"), rounding=decimal.ROUND_HALF_UP))


def profiles_from_graph(
    graph: KnowledgeGraph,
    patient_ids=None,
    gene_level: bool = False,
) -> list[MutationProfile]:
    """Profiles of the given patients (default: all), ordered by patient id.

    At gene level each mutation is downgraded to its gene symbol, so two
    mutations of one gene make a single item.
    """
    if patient_ids is None:
        patient_ids = graph.patients.keys()
    out = []
    for pid in sorted(patient_ids):
        muts = graph.mutations_of_patient(pid)
        items = frozenset(m.gene for m in muts) if gene_level else frozenset(muts)
        out.append(MutationProfile(pid, items))
    return out


def hamming_distance(a: MutationProfile, b: MutationProfile) -> int:
    """Number of mutations affecting exactly one of the two patients."""
    return len(a.mutations ^ b.mutations)


def jaccard_distance(a: MutationProfile, b: MutationProfile) -> Fraction:
    """Symmetric difference over union; two empty profiles are at distance 0."""
    union = a.mutations | b.mutations
    if not union:
        return Fraction(0)
    return Fraction(len(a.mutations ^ b.mutations), len(union))


def _overlap_rule(metric: str, k: Fraction) -> tuple[int, int, int]:
    """Integers (a, b, c) such that two profiles of sizes s and t that share
    o items are within distance k exactly when ``a*o >= b*(s+t) - c``."""
    if metric == "hamming":
        # s + t - 2o <= k; the distance is whole, so k rounds down.
        return 2, 1, k.numerator // k.denominator
    if metric == "jaccard":
        num, den = k.numerator, k.denominator
        if num >= den:  # no Jaccard distance exceeds 1
            return 1, 0, 0
        # (s + t - 2o) / (s + t - o) <= num / den
        return 2 * den - num, den - num, 0
    raise ValueError(f"unknown metric '{metric}'")


def _joins(keys: list[frozenset], a: int, b: int, c: int):
    """For each profile j of ``keys`` (distinct, by ascending size), the
    earlier profiles within the distance of ``_overlap_rule``: every i below
    a bound, whose size alone decides, and a list of others.

    Items become bits, rarest first. The others must share an item, and a
    pair that shares at least o items shares one among the first
    ``size - o + 1`` of each profile's items (prefix filtering; Bayardo, Ma
    & Srikant, WWW 2007; Xiao et al., PPJoin, WWW 2008). So each profile is
    probed with that prefix for the least overlap a smaller partner can
    need, and indexed with it for the least a larger one can; each
    candidate is then tested exactly on the masks.
    """
    freq = Counter(item for key in keys for item in key)
    bit = {item: n for n, (item, _) in enumerate(reversed(freq.most_common()))}
    sizes = [len(key) for key in keys]
    masks: list[int] = []
    postings: list[list[int]] = [[] for _ in bit]
    for j, key in enumerate(keys):
        t = sizes[j]
        tokens = sorted(bit[item] for item in key)
        mask = sum(1 << token for token in tokens)
        masks.append(mask)
        # Sizes s with b*(s+t) <= c join whatever they share.
        direct = bisect_right(sizes, c // b - t, 0, j) if b else j
        # The smallest possible partner has ceil((t*b - c)/(a - b)) items,
        # all inside this profile; every partner shares at least as many.
        smallest = max(1, -((c - t * b) // (a - b)))
        candidates = set()
        if direct < j:
            # Postings run in ascending size, and `smallest` never falls:
            # profiles too small for this one are too small for every later one.
            first = bisect_left(sizes, smallest)
            for token in tokens[: t - smallest + 1]:
                post = postings[token]
                del post[: bisect_left(post, first)]
                candidates.update(post)
        near = [
            i for i in candidates
            if i >= direct and (masks[i] & mask).bit_count() * a >= (sizes[i] + t) * b - c
        ]
        yield direct, near
        # A later partner is no smaller, so it shares at least
        # ceil((2*t*b - c)/a) items, the bound for two profiles of size t.
        least = max(1, -((c - 2 * t * b) // a))
        for token in tokens[: t - least + 1]:
            postings[token].append(j)


def group_by_threshold(
    profiles: list[MutationProfile],
    metric: str = "hamming",
    k=0,
    strategy: str = "components",
) -> list[list[str]]:
    """Group patients whose profiles are within distance k of each other.

    ``strategy="components"`` (default) takes connected components of the
    k-threshold graph (distance chains allowed), by union-find;
    ``"cliques"`` returns its maximal cliques instead (every pair within k;
    exact enumeration). Members are ordered by patient id, and groups by
    their sorted member lists.

    ``k`` is compared exactly, as ``Fraction(k)``. Identical profiles are
    merged first; they are at distance 0. The pairs of distinct profiles
    are found by a join over integer bitmasks: pairs that the profile sizes
    rule out are never formed, and the rest must share one of their rarest
    items before the distance is tested in integers (see ``_joins``).
    """
    k = Fraction(k)
    if k < 0:
        raise errors.InvalidThresholds("k must be >= 0")
    rule = _overlap_rule(metric, k)
    if strategy not in ("components", "cliques"):
        raise ValueError(f"unknown strategy '{strategy}'")
    classes: dict[frozenset, list[str]] = {}
    for p in profiles:
        classes.setdefault(p.mutations, []).append(p.patient_id)
    keys = sorted(classes, key=len)
    joins = _joins(keys, *rule)

    if strategy == "components":
        parent = list(range(len(keys)))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        for j, (direct, near) in enumerate(joins):
            # The profiles below `direct` are joined with each other already.
            if direct:
                parent[root(0)] = root(j)
            for i in near:
                parent[root(i)] = root(j)
        members: dict[int, list[str]] = {}
        for j, key in enumerate(keys):
            members.setdefault(root(j), []).extend(classes[key])
        groups = list(members.values())
    else:
        adj: dict[int, set[int]] = {j: set() for j in range(len(keys))}
        for j, (direct, near) in enumerate(joins):
            adj[j].update(range(direct), near)
            for i in adj[j]:
                adj[i].add(j)
        # Patients with one profile are twins, so the maximal cliques over
        # patients are those over profiles, each expanded to its patients.
        groups = [
            [pid for j in clique for pid in classes[keys[j]]]
            for clique in _maximal_cliques(adj)
        ]
    return sorted(sorted(g) for g in groups)


def _maximal_cliques(adj: dict[int, set[int]]):
    """Bron-Kerbosch with pivoting over the threshold graph."""
    cliques: list[set[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(set(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v]))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            # p and x are this call's own sets: move v across in place.
            p.remove(v)
            x.add(v)

    if adj:  # no patients make no group, not one empty one
        expand(set(), set(adj), set())
    return cliques


def survival_partition(
    graph: KnowledgeGraph, t_long: int = 36, t_short: int = 6
) -> SurvivalPartition:
    """Split patients into long survivors, short-lived deceased, and the rest.

    Long: survival >= t_long months (regardless of vital status).
    Short: survival <= t_short months AND deceased.
    """
    if t_short >= t_long:
        raise errors.InvalidThresholds(f"t_short {t_short} must be < t_long {t_long}")
    long_s, short_d, rest = set(), set(), set()
    for p in graph.patients.values():
        if p.survival_months >= t_long:
            long_s.add(p.patient_id)
        elif p.survival_months <= t_short and not p.alive:
            short_d.add(p.patient_id)
        else:
            rest.add(p.patient_id)
    return SurvivalPartition(frozenset(long_s), frozenset(short_d), frozenset(rest))


def coexisting_mutation_sets(
    profiles: list[MutationProfile], k_percent
) -> list[CoexistenceSet]:
    """Maximal mutation sets carried simultaneously by >= k% of patients.

    Depth-first search over tidsets (Eclat; Zaki, TKDE 2000): a set grows
    only by frequent items that sort after its last one, so each frequent
    set is reached once. A set is kept when no frequent item outside it,
    earlier or later, can join it at the minimum support (GenMax; Gouda &
    Zaki, ICDM 2001).
    """
    k = Fraction(k_percent)
    if not 0 < k <= 100:
        raise errors.InvalidPercent(f"k_percent {k_percent} outside (0, 100]")
    n = len(profiles)
    if n == 0:
        return []

    # Smallest patient count whose percentage reaches k.
    min_count = -(-(k * n) // 100)  # ceil(k*n/100)

    tidsets: dict[object, set[str]] = {}
    for p in profiles:
        for item in p.mutations:
            tidsets.setdefault(item, set()).add(p.patient_id)
    items = sorted((i for i, t in tidsets.items() if len(t) >= min_count), key=key_text)

    out = []
    stack = [((), {p.patient_id for p in profiles}, 0)]
    while stack:
        chosen, tids, start = stack.pop()
        grown = False
        for j in range(start, len(items)):
            supp = tids & tidsets[items[j]]
            if len(supp) >= min_count:
                stack.append((chosen + (items[j],), supp, j + 1))
                grown = True
        # A set no later item grew is maximal unless an earlier item can join it.
        if grown or not chosen or any(
            len(tids & tidsets[i]) >= min_count for i in items[:start] if i not in chosen
        ):
            continue
        out.append(
            CoexistenceSet(
                mutations=frozenset(chosen),
                support_percent=Fraction(100 * len(tids), n),
                supporting_patients=frozenset(tids),
            )
        )
    out.sort(key=lambda c: (-c.support_percent, sorted(key_text(i) for i in c.mutations)))
    return out


def frequency_table(
    profiles: list[MutationProfile],
    mode: FrequencyMode = FrequencyMode.MUTATION,
    top_n: int | None = 10,
) -> tuple[tuple[str, Fraction], ...]:
    """Most frequent mutations or genes as (item id, exact percent) rows,
    by descending percent, then item id.

    mutation: per-mutation occurrences over total occurrences.
    gene_with_multiplicity: per-gene occurrences (every mutation instance
    counted) over total occurrences.
    gene_without_multiplicity: patients with >= 1 mutation on the gene over
    the patient count.
    """
    if not profiles:
        raise errors.EmptyPopulation("no profiles")
    if mode is FrequencyMode.GENE_WITHOUT_MULTIPLICITY:
        denominator = len(profiles)
        counts = Counter(g for p in profiles for g in {_gene_of(i) for i in p.mutations})
    else:
        denominator = sum(len(p.mutations) for p in profiles)
        if denominator == 0:
            raise errors.EmptyPopulation("profiles carry no mutations")
        name = key_text if mode is FrequencyMode.MUTATION else _gene_of
        counts = Counter()
        for item, c in Counter(i for p in profiles for i in p.mutations).items():
            counts[name(item)] += c
    rows = sorted(
        ((name, Fraction(100 * c, denominator)) for name, c in counts.items()),
        key=lambda r: (-r[1], r[0]),
    )
    if top_n is not None:
        rows = rows[:top_n]
    return tuple(rows)


def _gene_of(item) -> str:
    return item.gene if isinstance(item, MutationKey) else str(item)


# A gene and its exact percentages.
CoMutationRow = namedtuple("CoMutationRow", "gene pct_patients pct_living pct_deceased")


def co_mutation_survival_table(
    graph: KnowledgeGraph,
    gene_pair: tuple[str, str],
    top_n: int | None = 10,
) -> list[CoMutationRow]:
    """Survival breakdown of genes mutated alongside a fixed gene pair.

    Restricted to patients carrying at least one mutation on EACH gene of
    the pair; for every gene mutated in that sub-population, reports the
    percentage of carriers and, among carriers, the living/deceased split.
    """
    for gene in gene_pair:
        if not graph.mutations_of_gene(gene):
            raise errors.UnknownGene(gene)
    cohort = [
        p for p in profiles_from_graph(graph, gene_level=True)
        if gene_pair[0] in p.mutations and gene_pair[1] in p.mutations
    ]
    if not cohort:
        raise errors.EmptyPopulation(
            f"no patient has both {gene_pair[0]} and {gene_pair[1]} mutated"
        )
    carriers: dict[str, list[str]] = {}
    for p in cohort:
        for gene in p.mutations:
            carriers.setdefault(gene, []).append(p.patient_id)
    rows = []
    for gene in carriers:
        pids = carriers[gene]
        living = sum(1 for pid in pids if graph.patient(pid).alive)
        rows.append(
            CoMutationRow(
                gene=gene,
                pct_patients=Fraction(100 * len(pids), len(cohort)),
                pct_living=Fraction(100 * living, len(pids)),
                pct_deceased=Fraction(100 * (len(pids) - living), len(pids)),
            )
        )
    rows.sort(key=lambda r: (-r.pct_patients, r.gene))
    if top_n is not None:
        rows = rows[:top_n]
    return rows
