"""Tabular ingestion: TSV parsers and graph construction.

Inputs are tab-separated UTF-8 files with '#'-prefixed comment lines and a
header row; each table's header names are fixed, some columns optional.
Malformed rows are collected into a report with line numbers, never
silently dropped.

Each parser emits the graph objects its rows stand for: a mutation row is a
``GeneticEdge``, a treatment row a ``TreatmentEdge``, and a clinical row a
``(PatientRecord, DiagnosisEdge)`` pair; ``build_graph`` inserts those same
objects. GDA and drug-target rows are gene-level facts with no graph type of
their own, so they stay rows until ``build_graph`` fans them out to the
mutations of their gene.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, TextIO

from . import errors
from .graph import (
    DiagnosisEdge,
    DiseaseNode,
    DrugNode,
    Effectiveness,
    GdaAssociation,
    GeneticEdge,
    KnowledgeGraph,
    MutationKey,
    PatientRecord,
    TargetEdge,
    TreatmentEdge,
)

# Per table: logical column -> header name, the required columns, then the
# optional ones.
MUTATION_COLUMNS = (
    {
        "sample_id": "sample_id",
        "gene": "gene",
        "chromosome": "chromosome",
        "start": "start_position",
        "end": "end_position",
    },
    {"vaf": "vaf"},
)
CLINICAL_COLUMNS = (
    {
        "sample_id": "sample_id",
        "cancer_type": "cancer_type",
        "os_months": "os_months",
        "os_status": "os_status",
    },
    {},
)
GDA_COLUMNS = ({"gene": "gene", "disease": "disease", "gda_score": "gda_score"}, {})
DRUG_COLUMNS = (
    {"drug_id": "drug", "gene": "gene"},
    {"weight": "weight", "adverse_effects": "adverse_effects"},
)
TREATMENT_COLUMNS = (
    {
        "sample_id": "sample_id",
        "drug_id": "drug_id",
        "order": "order",
        "effectiveness": "effectiveness",
    },
    {},
)

_VAF_SENTINELS = {"", "na", "nan", "n/a", "unknown", "."}

# The most decimal places a gda_score may have (1e-400 has 400).
_MAX_SCORE_PLACES = 1000

# Identifier columns are comma-joined in outputs and in ``treat --targets``,
# so a comma inside one is rejected. Free-text columns (diseases, adverse
# effects) may hold commas.
_ID_COLUMNS = {"sample_id", "gene", "chromosome", "drug_id"}


class ReportEntry(NamedTuple):
    file: str
    line: int
    severity: str  # "error" | "warning" | "info"
    message: str


class GdaTableRow(NamedTuple):
    gene: str
    disease: str
    gda_score: Fraction


class DrugTargetTableRow(NamedTuple):
    drug_id: str
    gene: str
    toxicity_weight: Fraction | None = None  # None: not given, so it cannot conflict
    adverse_effects: str | None = None


class ParseResult:
    """A table's rows, issues and count of data lines, filled in as it is read."""

    def __init__(self) -> None:
        self.rows: list = []
        self.issues: list[ReportEntry] = []
        self.data_lines = 0


def _open(source) -> tuple[TextIO, str]:
    if hasattr(source, "read"):
        return source, getattr(source, "name", "<stream>")
    return open(source, "r", encoding="utf-8"), str(source)


def undecodable_line(path) -> int:
    """The number of the first line of ``path`` that is not UTF-8, else 0.
    (A newline byte never occurs inside a multi-byte UTF-8 sequence.)"""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


def _parse_table(source, columns: tuple[dict, dict], row_fn) -> ParseResult:
    """Shared TSV scaffolding: comments, header mapping, per-row conversion.

    ``row_fn(values: dict[str, str | None]) -> row`` raises ValueError with a
    message for malformed rows.
    """
    stream, name = _open(source)
    close = not hasattr(source, "read")
    result = ParseResult()
    required, optional = columns
    try:
        header: list[str] | None = None
        index: dict[str, int] = {}
        for lineno, raw in enumerate(stream, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if header is None:
                header = [h.strip() for h in fields]
                for logical, colname in (*required.items(), *optional.items()):
                    if colname in header:
                        index[logical] = header.index(colname)
                    elif logical in required:
                        raise errors.MissingColumn(
                            f"{name}: header lacks column '{colname}' ({logical})"
                        )
                continue
            result.data_lines += 1
            values: dict[str, str | None] = {}
            missing = [
                logical
                for logical, i in index.items()
                if logical in required and (i >= len(fields) or not fields[i].strip())
            ]
            if missing:
                result.issues.append(
                    ReportEntry(
                        name, lineno, "error", f"missing required field(s): {', '.join(missing)}"
                    )
                )
                continue
            if "," in line:
                bad = [
                    f"{c} '{fields[i].strip()}'"
                    for c, i in index.items()
                    if c in _ID_COLUMNS and "," in fields[i]
                ]
                if bad:
                    result.issues.append(
                        ReportEntry(name, lineno, "error", f"comma in {', '.join(bad)}")
                    )
                    continue
            for logical, i in index.items():
                values[logical] = fields[i].strip() if i < len(fields) else None
            try:
                result.rows.append(row_fn(values))
            except ValueError as exc:
                result.issues.append(ReportEntry(name, lineno, "error", str(exc)))
    except UnicodeDecodeError:
        # Text streams decode in chunks, so the failing line is found only
        # here, by decoding the file again line by line.
        where = f":{undecodable_line(source)}" if close else ""
        raise errors.InvalidEncoding(f"{name}{where}: not valid UTF-8") from None
    finally:
        if close:
            stream.close()
    return result


def _parse_vaf(text: str | None) -> float | None:
    if text is None or text.lower() in _VAF_SENTINELS:
        return None
    return _unit_interval("vaf", text)


def _unit_interval(column: str, text: str) -> float:
    """The float of a cell whose exact decimal value must lie in [0, 1].

    Rounding to a float is monotonic, so only a float of exactly 0.0 or 1.0
    can hide an out-of-range text; only then is the text compared exactly.
    """
    try:
        approx = float(text)
    except ValueError:
        raise ValueError(f"non-numeric {column} '{text}'") from None
    if not 0.0 <= approx <= 1.0:
        raise ValueError(f"{column} {approx} outside [0, 1]")
    if approx in (0.0, 1.0) and not 0 <= decimal.Decimal(text) <= 1:
        raise ValueError(f"{column} {text} outside [0, 1]")
    return approx


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"non-integer {what} '{text}'") from None


def parse_mutation_table(source) -> ParseResult:
    """Rows as GeneticEdges; the rows on one locus share one MutationKey."""
    loci: dict[tuple[str, str, int, int], MutationKey] = {}

    def row_fn(v):
        start = _parse_int(v["start"], "start_position")
        end = _parse_int(v["end"], "end_position")
        if start < 0 or start > end:
            raise ValueError(f"bad locus range {start}..{end}")
        locus = (v["gene"], v["chromosome"], start, end)
        mutation = loci.get(locus)
        if mutation is None:
            mutation = loci[locus] = MutationKey(*locus)
        return GeneticEdge(v["sample_id"], mutation, _parse_vaf(v.get("vaf")))

    return _parse_table(source, MUTATION_COLUMNS, row_fn)


_LIVING = {"living", "alive", "0:living"}
_DECEASED = {"deceased", "dead", "1:deceased"}


def parse_clinical_table(source) -> ParseResult:
    """Rows as (PatientRecord, DiagnosisEdge) pairs, survival floored to
    whole months; the disease is the verbatim cancer type."""

    def row_fn(v):
        try:
            months = float(v["os_months"])
        except ValueError:
            months = math.nan
        if not math.isfinite(months):
            raise ValueError(f"non-numeric os_months '{v['os_months']}'")
        if months < 0:
            raise ValueError(f"negative os_months {months}")
        status = v["os_status"].lower()
        if status not in _LIVING and status not in _DECEASED:
            raise ValueError(f"unrecognized os_status '{v['os_status']}'")
        pid = v["sample_id"]
        return (
            PatientRecord(pid, math.floor(months), status in _LIVING),
            DiagnosisEdge(v["cancer_type"].strip(), pid),
        )

    return _parse_table(source, CLINICAL_COLUMNS, row_fn)


def parse_gda_table(source) -> ParseResult:
    def row_fn(v):
        text = v["gda_score"]
        _unit_interval("gda_score", text)
        # The score is the exact value of the decimal text, whose integer
        # ratio grows with its exponent, so the exponent is bounded first.
        exact = decimal.Decimal(text)
        if exact.as_tuple().exponent < -_MAX_SCORE_PLACES:
            raise ValueError(f"gda_score {text} has more than {_MAX_SCORE_PLACES} decimal places")
        return GdaTableRow(gene=v["gene"], disease=v["disease"].strip(), gda_score=Fraction(exact))

    return _parse_table(source, GDA_COLUMNS, row_fn)


def parse_drug_target_table(source) -> ParseResult:
    def row_fn(v):
        weight = None
        wtext = v.get("weight")
        if wtext not in (None, ""):
            try:
                weight = Fraction(wtext)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"non-numeric weight '{wtext}'") from None
            if weight < 0:
                raise ValueError(f"negative weight {wtext}")
        return DrugTargetTableRow(
            drug_id=v["drug_id"],
            gene=v["gene"],
            toxicity_weight=weight,
            adverse_effects=v.get("adverse_effects") or None,
        )

    return _parse_table(source, DRUG_COLUMNS, row_fn)


def parse_treatment_table(source) -> ParseResult:
    codes = {e.value: e for e in Effectiveness}

    def row_fn(v):
        order = _parse_int(v["order"], "order")
        if order < 0:
            raise ValueError(f"negative order {order}")
        eff = codes.get(v["effectiveness"].lower())
        if eff is None:
            raise ValueError(f"unrecognized effectiveness '{v['effectiveness']}'")
        return TreatmentEdge(v["sample_id"], v["drug_id"], order, eff)

    return _parse_table(source, TREATMENT_COLUMNS, row_fn)


def build_graph(
    mutation_rows: Iterable[GeneticEdge],
    clinical_rows: Iterable[tuple[PatientRecord, DiagnosisEdge]],
    gda_rows: Iterable[GdaTableRow],
    drug_rows: Iterable[DrugTargetTableRow],
    treatment_rows: Iterable[TreatmentEdge] | None = None,
) -> tuple[KnowledgeGraph, list[ReportEntry]]:
    """Insert the parsed objects into a new knowledge graph.

    Patients come first, each with its diagnosis edge (disease nodes are
    created on first sight). A green edge of a known patient is inserted
    with its mutation node; duplicates of one (patient, mutation) pair
    collapse to the edge with the maximum VAF; edges of unknown samples are
    reported as orphans. Gene-level association and drug target rows fan
    out to every mutation node on the matching gene. The graph is not
    validated here: ``graph.validate`` does that.
    """
    graph = KnowledgeGraph()
    report: list[ReportEntry] = []

    def note(severity: str, message: str) -> None:
        report.append(ReportEntry("build", 0, severity, message))

    for patient, diagnosis in sorted(clinical_rows, key=lambda r: r[0].patient_id):
        if patient.patient_id in graph.patients:
            note("warning", f"duplicate clinical row for {patient.patient_id}; first kept")
            continue
        graph.add_node(patient)
        if diagnosis.disease_id not in graph.diseases:
            graph.add_node(DiseaseNode(diagnosis.disease_id))
        graph.add_edge(diagnosis)

    # Collapse duplicate (patient, mutation) edges keeping the max VAF (None
    # sorts below any number).
    best: dict[tuple[str, MutationKey], GeneticEdge] = {}
    orphans = 0
    for edge in mutation_rows:
        if edge.patient_id not in graph.patients:
            orphans += 1
            note("warning", f"orphan mutation row: unknown sample {edge.patient_id}")
            continue
        pair = (edge.patient_id, edge.mutation)
        prev = best.get(pair)
        if prev is not None:
            note(
                "info",
                f"duplicate mutation row for {edge.patient_id}/"
                f"{edge.mutation.display()}; max VAF kept",
            )
            if prev.vaf is not None and (edge.vaf is None or edge.vaf <= prev.vaf):
                continue
        best[pair] = edge
    for pair in sorted(best):
        edge = best[pair]
        if edge.mutation not in graph.mutations:
            graph.add_node(edge.mutation)
        graph.add_edge(edge)

    gda_best: dict[tuple[str, str], Fraction] = {}
    for row in gda_rows:
        key = (row.disease, row.gene)
        if key in gda_best:
            note("warning", f"duplicate gda row {row.gene}/{row.disease}; max score kept")
            gda_best[key] = max(gda_best[key], row.gda_score)
        else:
            gda_best[key] = row.gda_score
    for (disease, gene), score in sorted(gda_best.items()):
        if disease not in graph.diseases:
            graph.add_node(DiseaseNode(disease))
        matches = graph.mutations_of_gene(gene)
        if not matches:
            note("info", f"gda row {gene}/{disease}: no mutation node on gene {gene}")
            continue
        for mutation in sorted(matches):
            graph.add_edge(GdaAssociation(disease, mutation, score))

    drug_specs: dict[str, DrugTargetTableRow] = {}
    drug_genes: dict[str, list[str]] = {}
    for row in drug_rows:
        if row.drug_id in drug_specs:
            prev = drug_specs[row.drug_id]
            if row.toxicity_weight is not None and row.toxicity_weight != (
                prev.toxicity_weight
            ):
                note(
                    "warning",
                    f"conflicting weight for drug {row.drug_id}; first kept",
                )
        else:
            drug_specs[row.drug_id] = row
        drug_genes.setdefault(row.drug_id, []).append(row.gene)
    for drug_id in sorted(drug_specs):
        spec = drug_specs[drug_id]
        graph.add_node(
            DrugNode(
                drug_id=drug_id,
                adverse_effects=spec.adverse_effects,
                toxicity_weight=(
                    spec.toxicity_weight if spec.toxicity_weight is not None else Fraction(1)
                ),
            )
        )
        targeted = set()
        for gene in drug_genes[drug_id]:
            matches = graph.mutations_of_gene(gene)
            if not matches:
                note("info", f"drug row {drug_id}/{gene}: no mutation node on gene {gene}")
            targeted |= matches
        for mutation in sorted(targeted):
            graph.add_edge(TargetEdge(mutation, drug_id))

    if treatment_rows:
        for edge in sorted(treatment_rows, key=lambda e: (e.patient_id, e.order, e.drug_id)):
            if edge.patient_id not in graph.patients:
                note("warning", f"treatment row for unknown sample {edge.patient_id}")
                continue
            if edge.drug_id not in graph.drugs:
                note("warning", f"treatment row for unknown drug {edge.drug_id}")
                continue
            graph.add_edge(edge)

    if orphans:
        note("warning", f"{orphans} orphan mutation row(s) excluded")
    return graph, report

