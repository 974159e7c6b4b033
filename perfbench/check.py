"""Independent checks of oncograph outputs, recomputed from the raw TSVs.

Nothing here imports oncograph. The raw tables are read with the rules the
README documents (comment lines, header row, required fields, numeric
ranges); every output is recomputed from them with separate code: exact
integer arithmetic for thresholds and percentages, numpy/scipy/networkx for
the threshold graphs, scipy's MILP solver for the hitting-set optimum.

Each ``check_*`` returns ``(verdict, counters)``. The verdict is ``OK``,
``FAULT`` (the output matches the known float-threshold fault of ROADMAP
5(a) and not the exact computation) or a message naming the first
difference found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse.csgraph import connected_components

OK = "ok"
FAULT = "fault"

_VAF_MISSING = {"", "na", "nan", "n/a", "unknown", "."}
_LIVING = {"living", "alive", "0:living"}
_DECEASED = {"deceased", "dead", "1:deceased"}


def _rows(path: Path, required: list[str], optional: list[str] = ()):
    """Yield dicts of stripped fields for rows whose required fields are set."""
    header = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = [f.strip() for f in line.split("\t")]
            if header is None:
                header = fields
                continue
            row = dict(zip(header, fields))
            if all(row.get(c) for c in required):
                yield {c: row.get(c, "") for c in required + list(optional)}


def _int(text: str) -> int | None:
    return int(text) if text.lstrip("-").isdigit() else None


def _unit_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if 0.0 <= value <= 1.0 else None


def half_up(value: Fraction) -> str:
    """One-decimal rendering of a non-negative fraction, rounding half up."""
    tenths = (20 * value.numerator + value.denominator) // (2 * value.denominator)
    return f"{tenths // 10}.{tenths % 10}"


@dataclass
class Model:
    """The graph the inputs describe, built apart from the program."""

    patients: dict[str, tuple[str, int, bool]] = field(default_factory=dict)
    profile: dict[str, set[str]] = field(default_factory=dict)   # pid -> mutation ids
    gene_of: dict[str, str] = field(default_factory=dict)       # mutation id -> gene
    gda: dict[tuple[str, str], float] = field(default_factory=dict)
    gda_diseases: set[str] = field(default_factory=set)
    weight: dict[str, Fraction] = field(default_factory=dict)
    drug_genes: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, mutations: Path, clinical: Path, gda: Path, drugs: Path) -> "Model":
        m = cls()
        for r in _rows(clinical, ["sample_id", "cancer_type", "os_months", "os_status"]):
            try:
                months = float(r["os_months"])
            except ValueError:
                continue
            status = r["os_status"].lower()
            if months < 0 or status not in _LIVING | _DECEASED:
                continue
            if r["sample_id"] not in m.patients:
                m.patients[r["sample_id"]] = (r["cancer_type"], math.floor(months), status in _LIVING)
        m.profile = {pid: set() for pid in m.patients}
        cols = ["sample_id", "gene", "chromosome", "start_position", "end_position"]
        for r in _rows(mutations, cols, ["vaf"]):
            start, end = _int(r["start_position"]), _int(r["end_position"])
            if start is None or end is None or not 0 <= start <= end:
                continue
            if r["vaf"].lower() not in _VAF_MISSING and _unit_float(r["vaf"]) is None:
                continue
            if r["sample_id"] in m.patients:
                mid = f"{r['gene']}_{r['chromosome']}_{start}_{end}"
                m.profile[r["sample_id"]].add(mid)
                m.gene_of[mid] = r["gene"]
        for r in _rows(gda, ["gene", "disease", "gda_score"]):
            score = _unit_float(r["gda_score"])
            if score is not None:
                key = (r["disease"], r["gene"])
                m.gda[key] = max(score, m.gda.get(key, score))
                m.gda_diseases.add(r["disease"])
        for r in _rows(drugs, ["drug", "gene"], ["weight"]):
            w = Fraction(r["weight"]) if r["weight"] else Fraction(1)
            m.weight.setdefault(r["drug"], w)
            m.drug_genes.setdefault(r["drug"], set()).add(r["gene"])
        return m

    def genes_with_nodes(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for gene in self.gene_of.values():
            out[gene] = out.get(gene, 0) + 1
        return out

    def diseases(self) -> set[str]:
        return {d for d, _, _ in self.patients.values()} | self.gda_diseases


def _read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


# ----------------------------------------------------------------------
# build, check, freq

def check_build(m: Model, out: Path, stdout: str):
    per_gene = m.genes_with_nodes()
    magenta = sum(per_gene.get(g, 0) for (_, g) in m.gda)
    for genes in m.drug_genes.values():
        magenta += sum(per_gene.get(g, 0) for g in genes)
    expect = (
        f"Pa={len(m.patients)} Mu={len(m.gene_of)} Di={len(m.diseases())} "
        f"Dr={len(m.weight)} green={sum(len(p) for p in m.profile.values())} "
        f"red={len(m.patients)} magenta={magenta}"
    )
    got = stdout.strip()
    return (OK if got == expect else f"build printed {got!r}, expected {expect!r}"), {}


def check_knowledge(m: Model, out: Path, stdout: str, threshold: float = 0.8):
    has_node = m.genes_with_nodes()
    expect = []
    for d in sorted(m.diseases()):
        cohort = [pid for pid, (dd, _, _) in m.patients.items() if dd == d]
        genes = [{m.gene_of[x] for x in m.profile[pid]} for pid in cohort]
        union = set().union(*genes)
        common = set.intersection(*genes) if genes else set()
        known = {g for (dd, g), s in m.gda.items() if dd == d and s >= threshold and g in has_node}
        missing, unsupported = common - known, known - common
        if not cohort:
            status = "no_evidence"
        elif missing and unsupported:
            status = "combination"
        elif missing:
            status = "incomplete_knowledge"
        elif unsupported:
            status = "inconsistent_evidence"
        else:
            status = "perfect_match"
        expect.append([d, str(len(cohort)), str(len(union)), str(len(common)), str(len(known)),
                       status, str(len(missing)), str(len(unsupported)), str(len(known - union))])
    got = _read_tsv(out / "knowledge_check.tsv")
    return _same_rows("knowledge_check.tsv", got, expect), {}


def check_freq(m: Model, out: Path, stdout: str, top_n: int = 10):
    counts: dict[str, int] = {}
    for items in m.profile.values():
        for x in items:
            counts[x] = counts.get(x, 0) + 1
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    expect = [[x, half_up(Fraction(100 * c, total))] for x, c in ranked]
    return _same_rows("frequency.tsv", _read_tsv(out / "frequency.tsv"), expect), {}


def _same_rows(name: str, got: list, expect: list):
    if got == expect:
        return OK
    for i, (a, b) in enumerate(zip(got, expect)):
        if a != b:
            return f"{name} row {i + 1}: got {a}, expected {b}"
    return f"{name}: {len(got)} rows, expected {len(expect)}"


# ----------------------------------------------------------------------
# coexist: an independent depth-first miner over integer tidsets

def check_coexist(m: Model, out: Path, stdout: str, k_text: str, gene_level: bool):
    pids = sorted(m.patients)
    n = len(pids)
    k = Fraction(k_text)
    min_count = -(-(k * n) // 100)
    tids: dict[str, int] = {}
    for i, pid in enumerate(pids):
        items = {m.gene_of[x] for x in m.profile[pid]} if gene_level else m.profile[pid]
        for x in items:
            tids[x] = tids.get(x, 0) | (1 << i)
    frequent = sorted((x, t) for x, t in tids.items() if t.bit_count() >= min_count)

    found: dict[frozenset, int] = {}

    def grow(prefix: tuple, mask: int, tail: list) -> None:
        for j, (x, t) in enumerate(tail):
            both = mask & t
            if both.bit_count() >= min_count:
                found[frozenset(prefix + (x,))] = both
                grow(prefix + (x,), both, tail[j + 1:])

    grow((), -1, frequent)
    maximal = {
        s: t for s, t in found.items()
        if not any((t & tx).bit_count() >= min_count for x, tx in frequent if x not in s)
    }
    counters = {"cohort.frequent_items": len(frequent)}
    got = _read_tsv(out / "coexisting_sets.tsv")
    seen = {}
    for row in got:
        items = frozenset(row[0].split(","))
        members = row[3].split(",") if row[3] else []
        seen[items] = (row[1], int(row[2]), members)
    if set(seen) != set(maximal):
        extra, lost = set(seen) - set(maximal), set(maximal) - set(seen)
        return (f"coexist k={k_text}: {len(extra)} sets not maximal-frequent "
                f"(e.g. {sorted(map(sorted, extra))[:1]}), {len(lost)} maximal sets missing "
                f"(e.g. {sorted(map(sorted, lost))[:1]})"), counters
    for s, t in maximal.items():
        members = [pids[i] for i in range(n) if t >> i & 1]
        expect = (half_up(Fraction(100 * len(members), n)), len(members), members)
        if seen[s] != expect:
            return f"coexist set {sorted(s)}: got {seen[s][:2]}, expected {expect[:2]}", counters
    order = [(-int(r[2]), sorted(r[0].split(","))) for r in got]
    if order != sorted(order):
        return "coexisting_sets.tsv is not ordered by support, then items", counters
    return OK, counters


# ----------------------------------------------------------------------
# cohort: survival bands and threshold-graph groups

def check_bands(m: Model, out: Path, t_long: int = 36, t_short: int = 6) -> str:
    expect = []
    for pid in sorted(m.patients):
        _, months, alive = m.patients[pid]
        band = "long" if months >= t_long else "short" if months <= t_short and not alive else "rest"
        expect.append([pid, band])
    return _same_rows("survival_bands.tsv", _read_tsv(out / "survival_bands.tsv"), expect)


def _pair_matrices(m: Model):
    pids = sorted(m.patients)
    index: dict[str, int] = {}
    rows, cols = [], []
    for i, pid in enumerate(pids):
        for x in m.profile[pid]:
            rows.append(i)
            cols.append(index.setdefault(x, len(index)))
    p = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(len(pids), len(index))
    )
    inter = (p @ p.T).toarray()
    size = np.asarray(p.sum(axis=1)).ravel()
    union = size[:, None] + size[None, :] - inter
    return pids, inter, union


def _groups(pids: list[str], adj: np.ndarray, strategy: str) -> list[list[str]]:
    if strategy == "components":
        _, labels = connected_components(sparse.csr_matrix(adj), directed=False)
        comps: dict[int, list[str]] = {}
        for pid, lab in zip(pids, labels):
            comps.setdefault(lab, []).append(pid)
        groups = list(comps.values())
    else:
        g = nx.Graph()
        g.add_nodes_from(range(len(pids)))
        g.add_edges_from(zip(*np.nonzero(np.triu(adj, 1))))
        groups = [[pids[i] for i in c] for c in nx.find_cliques(g)]
    return sorted(sorted(grp) for grp in groups)


def check_cohort(m: Model, out: Path, stdout: str, metric: str, k_text: str, strategy: str):
    """Groups of the k-threshold graph, with k read exactly from its text.

    For Jaccard the distance |a^b|/|a|b| is compared as
    ``|a^b| * den(k) <= num(k) * |a|b|`` in integers. A pair at exactly
    distance k is the only kind a binary-float k can misjudge; the groups
    that float reading gives are computed too, so that output is reported
    as the named fault rather than as a wrong answer.
    """
    bands = check_bands(m, out)
    if bands != OK:
        return bands, {}
    pids, inter, union = _pair_matrices(m)
    sym = union - inter
    k = Fraction(k_text)
    if metric == "hamming":
        within = sym * k.denominator <= k.numerator
        at = sym * k.denominator == k.numerator
    else:
        within = sym * k.denominator <= k.numerator * union
        at = (sym * k.denominator == k.numerator * union) & (union > 0)
    np.fill_diagonal(within, False)
    np.fill_diagonal(at, False)
    exact = _groups(pids, within, strategy)
    as_float = within & ~at if Fraction(float(k_text)) < k else within
    faulty = _groups(pids, as_float, strategy)
    n = len(pids)
    counters = {
        "cohort.pairs": n * (n - 1) // 2,
        "cohort.pairs_within_k": int(np.triu(within, 1).sum()),
    }
    if metric == "jaccard":
        counters["cohort.jaccard_pairs_at_k"] = int(np.triu(at, 1).sum())
    got_rows = _read_tsv(out / "profile_groups.tsv")
    got = [r[2].split(",") for r in got_rows]
    counters["cohort.groups"] = len(got)
    if any(int(r[0]) != i + 1 or int(r[1]) != len(g) for i, (r, g) in enumerate(zip(got_rows, got))):
        return "profile_groups.tsv: group numbers or sizes do not match the members", counters
    if [g[0] for g in got] != sorted(g[0] for g in got):
        return "profile_groups.tsv: groups not ordered by first member", counters
    got_set = sorted(sorted(g) for g in got)
    if got_set == exact:
        return OK, counters
    if got_set == faulty:
        return FAULT, counters
    return (f"{metric} {strategy} k={k_text}: {len(got)} groups, exact threshold graph has "
            f"{len(exact)}"), counters


# ----------------------------------------------------------------------
# treat: coverage, weight, and the optimum from an independent MILP

def check_treat(m: Model, out: Path, stdout: str, targets: list[str], weighted: bool):
    got = _read_tsv(out / "treatment.tsv")
    chosen = [r[0] for r in got]
    for drug, w in got:
        if drug not in m.weight or Fraction(w) != m.weight[drug]:
            return f"treatment.tsv: drug {drug} weight {w} not in the drug table", {}
    total = sum((m.weight[d] for d in chosen), Fraction(0))
    if stdout.strip() != f"drugs={len(chosen)} total_weight={total}":
        return f"treat printed {stdout.strip()!r}; table gives {len(chosen)} drugs, {total}", {}
    family = []
    for t in targets:
        hitting = sorted(d for d, genes in m.drug_genes.items() if m.gene_of[t] in genes)
        if not set(hitting) & set(chosen):
            return f"treat leaves target {t} unhit", {}
        family.append(hitting)
    universe = sorted(set().union(*map(set, family)))
    if weighted:
        scale = math.lcm(*(m.weight[d].denominator for d in universe))
        cost = [int(m.weight[d] * scale) for d in universe]
        value = total * scale
    else:
        cost = [1] * len(universe)
        value = len(chosen)
    col = {d: j for j, d in enumerate(universe)}
    a = np.zeros((len(family), len(universe)))
    for i, hitting in enumerate(family):
        a[i, [col[d] for d in hitting]] = 1
    res = milp(
        np.array(cost, dtype=float),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(universe)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if not res.success or round(res.fun) != value:
        return f"treat objective {value} (scaled) but MILP optimum is {res.fun}", {}
    return OK, {}
