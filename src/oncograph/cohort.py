"""Patient-cohort analytics: grouping by Hamming or Jaccard profile distance,
survival bands, maximal coexisting-mutation sets, and the frequency and
co-mutation tables.

All of them read one profile layer: ``profiles_from_graph`` turns each
patient's green edges into a ``MutationProfile``, a sorted tuple of the
patient's distinct items, which are MutationKeys, or gene symbols at gene
level. It is the only code that builds per-patient item sets; the knowledge
check reads its cohort's profiles from it too. Each analytic accepts any
collection of distinct items as a profile's items (grouping needs it
hashable), so a caller's frozenset profiles give the same answers.
``frequency_table``'s gene modes and the knowledge check's known set also
downgrade a mutation to its gene.

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
from collections.abc import Collection
from fractions import Fraction
from itertools import chain

from . import errors
from .graph import KnowledgeGraph, MutationKey, key_text


# A patient's green neighborhood as a tuple of its distinct mutation items in
# ascending order: MutationKeys at mutation granularity or gene symbols after
# a gene-level downgrade. A tuple costs a fraction of a frozenset's memory,
# and its order does not depend on the hash seed.
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

    Each profile's items are distinct and ascending: MutationKeys in key
    order, or gene symbols at gene level, where each mutation is downgraded
    to its gene, so two mutations of one gene make a single item.
    """
    if patient_ids is None:
        patient_ids = graph.patients.keys()
    out = []
    for pid in sorted(patient_ids):
        muts = graph.mutations_of_patient(pid)
        items = sorted({m.gene for m in muts} if gene_level else muts)
        out.append(MutationProfile(pid, tuple(items)))
    return out


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


def _joins(keys: list[Collection], a: int, b: int, c: int):
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
    classes: dict[Collection, list[str]] = {}
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
    """Bron-Kerbosch with pivoting over the threshold graph.

    The search runs on an explicit stack, so a clique may be larger than the
    recursion limit. A frame holds a clique r, its candidates p, its
    excluded vertices x and the branch vertices not yet tried, the members
    of p that the pivot does not reach, in ascending order from the end.
    """
    cliques: list[set[int]] = []

    def frame(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(r)
            return None
        pivot = max(p | x, key=lambda v: len(adj[v]))
        return r, p, x, sorted(p - adj[pivot], reverse=True)

    stack = [frame(set(), set(adj), set())] if adj else []  # no patients, no group
    while stack:
        r, p, x, branches = stack[-1]
        if not branches:
            stack.pop()
            continue
        v = branches.pop()
        child = frame(r | {v}, p & adj[v], x & adj[v])
        # p and x are this frame's own sets: move v across in place.
        p.remove(v)
        x.add(v)
        if child:
            stack.append(child)
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

    Every maximal frequent set is closed, so only closed sets are searched
    (LCM; Uno, Kiyomi & Arimura, FIMI 2004). Patient b is bit b, an item's
    tidset (its patients) an int, and a tidset's closed set every item whose
    tidset contains it. A set grows by an item j past its core only if each
    item before j that the grown tidset keeps is in it already, so each
    closed set is reached once. It is kept when nothing can join it.
    """
    k = Fraction(k_percent)
    if not 0 < k <= 100:
        raise errors.InvalidPercent(f"k_percent {k_percent} outside (0, 100]")
    n = len(profiles)
    min_count = -(-(k * n) // 100)  # ceil(k*n/100): the least count reaching k%

    # Only a frequent item gets a tidset: most items are rare, and each
    # tidset is an int as wide as its last patient's bit.
    support = Counter(chain.from_iterable(p.mutations for p in profiles))
    items = sorted((i for i, c in support.items() if c >= min_count), key=key_text)
    tidsets = dict.fromkeys(items, 0)
    for b, p in enumerate(profiles):
        for item in p.mutations:
            if item in tidsets:
                tidsets[item] |= 1 << b
    masks = list(tidsets.values())

    out = []
    stack = [((1 << n) - 1, 0)]
    while stack:
        tids, start = stack.pop()
        closed = [m & tids == tids for m in masks]
        maximal = True
        for j, mask in enumerate(masks):
            grown = tids & mask
            if closed[j] or grown.bit_count() < min_count:
                continue
            maximal = False
            if j >= start and all(closed[i] or masks[i] & grown != grown for i in range(j)):
                stack.append((grown, j + 1))
        if maximal and any(closed):
            patients, rest = [], tids
            while rest:
                low = rest & -rest
                patients.append(profiles[low.bit_length() - 1].patient_id)
                rest ^= low
            out.append(CoexistenceSet(
                mutations=frozenset(i for i, c in zip(items, closed) if c),
                support_percent=Fraction(100 * len(patients), n),
                supporting_patients=frozenset(patients),
            ))
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
    _check_top_n(top_n)
    if not profiles:
        raise errors.EmptyPopulation("no profiles")
    if mode is FrequencyMode.GENE_WITHOUT_MULTIPLICITY:
        denominator = len(profiles)
        counts = Counter(chain.from_iterable({_gene_of(i) for i in p.mutations} for p in profiles))
    else:
        denominator = sum(len(p.mutations) for p in profiles)
        if denominator == 0:
            raise errors.EmptyPopulation("profiles carry no mutations")
        items = chain.from_iterable(p.mutations for p in profiles)
        counts = Counter(items if mode is FrequencyMode.MUTATION else map(_gene_of, items))
    # Two loci that render alike are two rows, in key order.
    rows = sorted(counts.items(), key=lambda r: (-r[1], key_text(r[0]), r[0]))
    return tuple((key_text(item), Fraction(100 * c, denominator)) for item, c in rows[:top_n])


def _check_top_n(top_n: int | None) -> None:
    if top_n is not None and top_n < 0:
        raise ValueError(f"top_n {top_n} must be >= 0")


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
    _check_top_n(top_n)
    genes = {m.gene for m in graph.mutations}
    for gene in gene_pair:
        if gene not in genes:
            raise errors.UnknownGene("gene", gene)
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
    return rows[:top_n]
