"""Seeded synthetic inputs for the oncograph benchmark.

Uses only stdlib ``random``; the same seed and shape give byte-identical
TSVs. The program under test sees only the files written here. The shape
covers the properties the program's cost depends on: cohort size, mutations
per patient, gene skew, loci per gene, the share of bad rows, and drugs per
gene and genes per drug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

MUTATION_HEADER = "sample_id\tgene\tchromosome\tstart_position\tend_position\tvaf"
CLINICAL_HEADER = "sample_id\tcancer_type\tos_months\tos_status"
GDA_HEADER = "gene\tdisease\tgda_score"
DRUG_HEADER = "drug\tgene\tweight\tadverse_effects"

# The planted pair: two patients whose profiles are at Jaccard distance
# exactly 3/10 (|a^b| = 3, |a|b| = 10), on genes no other patient carries.
# Independent of the seed, so a float-parsed `--k 0.3` keeps them apart on
# every seed (ROADMAP 5(a)).
PLANTED_PAIR = ("PJ00001", "PJ00002")
_PLANTED_GENES = [f"JX{i:02d}" for i in range(1, 11)]
PLANTED_PROFILES = (_PLANTED_GENES[:9], _PLANTED_GENES[:7] + _PLANTED_GENES[9:])


@dataclass(frozen=True)
class Shape:
    """Make-up of one synthetic cohort."""

    patients: int
    mean_mutations: float      # valid mutation rows per patient (mean)
    genes: int                 # gene vocabulary
    gene_skew: float           # Zipf exponent over gene ranks
    max_loci: int              # loci per gene, hottest genes get the most
    diseases: int
    bad_share: float           # malformed + orphan + duplicate mutation rows
    drugs: int
    genes_per_drug: tuple[int, int]
    targetable: int            # top-ranked genes the drug table acts on
    extract_patients: int = 0  # patients in the extract disease, besides the planted pair
    hypermutated: int = 0      # patients carrying `hyper_targets` drug targets
    hyper_targets: int = 0
    treat_patients: int = 1    # ordinary patients given one `treat` call


@dataclass
class Inputs:
    """Paths and the analyst's call plan for one generated cohort."""

    mutations: Path
    clinical: Path
    gda: Path
    drugs: Path
    treat: list[tuple[str, list[str]]] = field(default_factory=list)
    extract: "Inputs | None" = None  # the extract disease's patients only


def _zipf_cum(n: int, s: float) -> list[float]:
    """Cumulative Zipf weights over ranks 0..n-1, for ``choices(cum_weights=)``."""
    total, out = 0.0, []
    for r in range(n):
        total += 1.0 / (r + 1) ** s
        out.append(total)
    return out


def _gene_name(rank: int) -> str:
    return f"G{rank:04d}"


def _locus(rank: int, j: int) -> tuple[str, int, int]:
    chrom = str(rank % 22 + 1)
    start = 1_000_000 * (rank + 1) + 137 * j
    end = start + (j % 3)  # SNVs and short indels
    return chrom, start, end


def generate(shape: Shape, seed: int, out: Path) -> Inputs:
    """Write mutations/clinical/gda/drugs TSVs under ``out`` for ``seed``,
    and an extract of one disease's patients when ``extract_patients`` is set."""
    rng = random.Random(seed)
    # The drug catalogue and the hypermutated patients' target genes come
    # from a fixed panel, the same on every seed: branch-and-bound time is
    # heavy-tailed over random instances, so seeded instances would make the
    # solver's share of a run differ from seed to seed.
    panel = random.Random(f"panel-{shape.drugs}-{shape.targetable}-{shape.hyper_targets}")
    out.mkdir(parents=True, exist_ok=True)
    genes = [_gene_name(r) for r in range(shape.genes)]
    gene_cw = _zipf_cum(shape.genes, shape.gene_skew)
    gene_ranks = range(shape.genes)
    loci_n = [
        max(1, round(shape.max_loci * (1.0 - r / shape.genes) ** 2)) for r in range(shape.genes)
    ]
    diseases = [f"C{d:02d}" for d in range(1, shape.diseases + 1)]
    disease_cw = _zipf_cum(shape.diseases - 1, 0.7)
    drivers = {d: rng.sample(range(min(60, shape.genes)), 2) for d in diseases}
    extract_disease = diseases[-1]

    # Clinical table: one row per patient, plus a few rejected and duplicate rows.
    width = len(str(shape.patients + shape.hypermutated))
    pids = [f"P{i:0{width}d}" for i in range(1, shape.patients + 1)]
    hyper = [f"H{i:03d}" for i in range(1, shape.hypermutated + 1)]
    # A fixed number of patients, so grouping the extract costs the same on
    # every seed.
    extract_set = set(rng.sample(pids, shape.extract_patients)) | set(PLANTED_PAIR)
    disease_of: dict[str, str] = {}
    clinical: list[str] = []
    bad_clinical: set[str] = set()
    for pid in pids + hyper + list(PLANTED_PAIR):
        if pid in extract_set:
            d = extract_disease
        else:
            d = rng.choices(diseases[:-1], cum_weights=disease_cw)[0]
        disease_of[pid] = d
        months = rng.randrange(0, 1200) / 10
        status = "deceased" if rng.random() < 0.45 else "living"
        if pid not in PLANTED_PAIR and not pid.startswith("H") and rng.random() < 0.002:
            clinical.append(f"{pid}\t{d}\tunknown\t{status}")  # rejected row
            bad_clinical.add(pid)
            continue
        clinical.append(f"{pid}\t{d}\t{months}\t{status}")
        if rng.random() < 0.002:
            other = rng.choice(diseases)
            clinical.append(f"{pid}\t{other}\t{months}\t{status}")  # duplicate, first kept
    rng.shuffle(clinical)

    # Mutation table: valid rows, then malformed, orphan and duplicate rows.
    profile: dict[str, set[tuple[int, int]]] = {}
    for pid in pids:
        n = max(1, min(40, round(rng.expovariate(1.0 / shape.mean_mutations))))
        items: set[tuple[int, int]] = set()
        for r in drivers[disease_of[pid]]:
            if rng.random() < 0.35:
                items.add((r, 0))
        while len(items) < n:
            for r in rng.choices(gene_ranks, cum_weights=gene_cw, k=n - len(items)):
                items.add((r, min(int(rng.expovariate(1.2)), loci_n[r] - 1)))
        profile[pid] = items
    for pid in hyper:
        ranks = panel.sample(range(shape.targetable), shape.hyper_targets)
        profile[pid] = {(r, 0) for r in ranks} | {
            (r, 0) for r in panel.sample(range(shape.targetable, shape.genes), 5)
        }
    rows: list[str] = []
    for pid, items in profile.items():
        for r, j in sorted(items):
            chrom, start, end = _locus(r, j)
            vaf = "NA" if rng.random() < 0.05 else f"{rng.randrange(1, 100) / 100}"
            rows.append(f"{pid}\t{genes[r]}\t{chrom}\t{start}\t{end}\t{vaf}")
    for pid, names in zip(PLANTED_PAIR, PLANTED_PROFILES):
        for i, gene in enumerate(names):
            rows.append(f"{pid}\t{gene}\tX\t{5000 + 10 * i}\t{5000 + 10 * i}\t0.5")
    n_bad = round(len(rows) * shape.bad_share)
    bad: list[str] = []
    for i in range(n_bad):
        kind = i % 6
        r = rng.choices(gene_ranks, cum_weights=gene_cw)[0]
        chrom, start, end = _locus(r, 0)
        pid = rng.choice(pids)
        if kind == 0:
            bad.append(f"{pid}\t{genes[r]}\t{chrom}\t{start}x\t{end}\t0.2")
        elif kind == 1:
            bad.append(f"{pid}\t{genes[r]}\t{chrom}\t{end + 5}\t{start}\t0.2")
        elif kind == 2:
            bad.append(f"{pid}\t\t{chrom}\t{start}\t{end}\t0.2")
        elif kind == 3:
            bad.append(f"{pid}\t{genes[r]}\t{chrom}\t{start}\t{end}\t1.{rng.randrange(1, 9)}")
        elif kind == 4:
            bad.append(f"Q{rng.randrange(10**6):06d}\t{genes[r]}\t{chrom}\t{start}\t{end}\t0.3")
        else:
            src = rng.choice(rows).rsplit("\t", 1)[0]
            bad.append(f"{src}\t{rng.randrange(1, 100) / 100}")
    rows += bad
    rng.shuffle(rows)

    # Gene-disease associations: drivers score high, others anywhere in [0, 1].
    gda: list[str] = []
    for d in diseases:
        for r in drivers[d]:
            gda.append(f"{genes[r]}\t{d}\t{rng.randrange(80, 101) / 100}")
        for r in rng.sample(range(shape.genes), 8):
            gda.append(f"{genes[r]}\t{d}\t{rng.randrange(0, 101) / 100}")
        gda.append(f"NOVEL{rng.randrange(100):02d}\t{d}\t0.9")  # gene with no mutation node
    for _ in range(3):
        gda.append(rng.choice(gda[: len(diseases)]))  # duplicate rows
    gda.append(f"{genes[0]}\tLIT01\t0.95")  # disease with no diagnosed patient
    rng.shuffle(gda)

    # Drug-target table over the top-ranked targetable genes.
    drug_rows: list[str] = []
    lo, hi = shape.genes_per_drug
    for k in range(1, shape.drugs + 1):
        weight = "" if panel.random() < 0.1 else f"{panel.randrange(25, 301) / 100}"
        effects = panel.choice(["", "rash", "nausea", "fatigue"])
        for r in panel.sample(range(shape.targetable), panel.randint(lo, hi)):
            drug_rows.append(f"D{k:03d}\t{genes[r]}\t{weight}\t{effects}")
    drug_rows.append(f"D{shape.drugs + 1:03d}\tNOVEL00\t1\t")  # gene with no mutation node
    covered = {line.split("\t")[1] for line in drug_rows}

    inputs = Inputs(
        mutations=out / "mutations.tsv",
        clinical=out / "clinical.tsv",
        gda=out / "gda.tsv",
        drugs=out / "drugs.tsv",
    )
    _write(inputs.mutations, MUTATION_HEADER, rows)
    _write(inputs.clinical, CLINICAL_HEADER, clinical)
    _write(inputs.gda, GDA_HEADER, gda)
    _write(inputs.drugs, DRUG_HEADER, drug_rows)

    def targets(pid: str) -> list[str]:
        out_ = []
        for r, j in sorted(profile[pid]):
            if genes[r] in covered:
                chrom, start, end = _locus(r, j)
                out_.append(f"{genes[r]}_{chrom}_{start}_{end}")
        return out_

    for pid in hyper:
        inputs.treat.append((pid, targets(pid)))
    ordinary = [p for p in pids if p not in bad_clinical and len(targets(p)) >= 3]
    for pid in ordinary[: shape.treat_patients]:
        inputs.treat.append((pid, targets(pid)))

    if shape.extract_patients:
        keep = extract_set
        sub = out / "extract"
        sub.mkdir(exist_ok=True)
        inputs.extract = Inputs(
            mutations=sub / "mutations.tsv",
            clinical=sub / "clinical.tsv",
            gda=inputs.gda,
            drugs=inputs.drugs,
        )
        _write(inputs.extract.mutations, MUTATION_HEADER,
               [r for r in rows if r.split("\t", 1)[0] in keep])
        _write(inputs.extract.clinical, CLINICAL_HEADER,
               [r for r in clinical if r.split("\t", 1)[0] in keep])
    return inputs


def _write(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# synthetic export, benchmark generator\n{header}\n")
        fh.write("\n".join(rows))
        fh.write("\n")
