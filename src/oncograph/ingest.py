"""Tabular ingestion: TSV parsers and graph construction.

Inputs are tab-separated UTF-8 files, with or without a byte-order mark,
with '#'-prefixed comment lines and a header row; each table's header names
are fixed, some columns optional. Malformed rows are collected into a report
with line numbers, never silently dropped.

Each parser emits the graph objects its rows stand for: a mutation row is a
``GeneticEdge``, a treatment row a ``TreatmentEdge``, and a clinical row a
``(PatientRecord, DiagnosisEdge)`` pair; ``build_graph`` inserts those same
objects. GDA and drug-target rows are gene-level facts with no graph type of
their own, so they stay rows until ``build_graph`` fans them out to the
mutations of their gene.

Within one parse, rows that repeat a value share one object for it (sample
ids, genes, chromosomes, cancer types, VAFs, GDA scores and drug weights),
and each distinct text is converted once. Only a conversion that succeeds
is kept, so a bad text is reported on every row that holds it.
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from operator import itemgetter

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
# optional ones. A row function takes the cells in this order.
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

# The most decimal places, and the most digits before the point, that an
# exact number may have (1e-400 has 400 places, 1e999 has 1000 digits).
_MAX_DIGITS = 1000

# Identifier columns are comma-joined in outputs and in ``treat --targets``,
# so a comma inside one is rejected. Free-text columns (diseases, adverse
# effects) may hold commas.
_ID_COLUMNS = {"sample_id", "gene", "chromosome", "drug_id"}


# severity is "error", "warning" or "info".
ReportEntry = namedtuple("ReportEntry", "file line severity message")
GdaTableRow = namedtuple("GdaTableRow", "gene disease gda_score")
# A toxicity_weight of None is not given, so it cannot conflict.
DrugTargetTableRow = namedtuple(
    "DrugTargetTableRow", "drug_id gene toxicity_weight adverse_effects", defaults=(None, None)
)


class ParseResult:
    """A table's rows and issues, filled in as it is read, and its count of data lines."""

    def __init__(self) -> None:
        self.rows: list = []
        self.issues: list[ReportEntry] = []
        self.data_lines = 0


def _open(source) -> tuple:
    if hasattr(source, "read"):
        return source, getattr(source, "name", "<stream>")
    return open(source, "r", encoding="utf-8-sig"), str(source)


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

    The header is mapped to column positions once. ``row_fn`` gets each data
    row's stripped cells as positional arguments, in the order ``columns``
    declares them; an optional column that the header lacks or a short row
    does not reach gives ``""``. A row with an empty required cell or a comma
    in an id is reported without calling it. ``row_fn`` returns the row or
    raises ValueError with a message for a malformed one.
    """
    stream, name = _open(source)
    close = not hasattr(source, "read")
    result = ParseResult()
    required, optional = columns
    names = [*required, *optional]
    n_required = len(required)
    rows, issues, strip = result.rows, result.issues, str.strip
    data_lines = 0
    try:
        pick = None
        for lineno, raw in enumerate(stream, start=1):
            head = raw.lstrip()
            if not head or head[0] == "#":
                continue
            # The line ending is blank, so stripping the last cell drops it.
            cells = raw.split("\t")
            if pick is None:
                header = [h.strip() for h in cells]
                for logical, colname in required.items():
                    if colname not in header:
                        raise errors.MissingColumn(
                            f"{name}: header lacks column '{colname}' ({logical})"
                        )
                # One blank cell past the header's stands for every absent column.
                width = len(header)
                pick = itemgetter(*(  # every table has two or more columns
                    header.index(c) if c in header else width
                    for c in (*required.values(), *optional.values())
                ))
                continue
            data_lines += 1
            if len(cells) != width:
                cells = (cells + [""] * width)[:width]
            cells.append("")
            row = tuple(map(strip, pick(cells)))
            if "" in row[:n_required]:
                missing = [c for c, cell in zip(names, row[:n_required]) if not cell]
                issues.append(ReportEntry(
                    name, lineno, "error", f"missing required field(s): {', '.join(missing)}"
                ))
                continue
            if "," in raw:
                bad = [f"{c} '{cell}'" for c, cell in zip(names, row)
                       if c in _ID_COLUMNS and "," in cell]
                if bad:
                    issues.append(
                        ReportEntry(name, lineno, "error", f"comma in {', '.join(bad)}")
                    )
                    continue
            try:
                rows.append(row_fn(*row))
            except ValueError as exc:
                issues.append(ReportEntry(name, lineno, "error", str(exc)))
    except UnicodeDecodeError:
        # Text streams decode in chunks, so the failing line is found only
        # here, by decoding the file again line by line.
        where = f":{undecodable_line(source)}" if close else ""
        raise errors.InvalidEncoding(f"{name}{where}: not valid UTF-8") from None
    finally:
        if close:
            stream.close()
    result.data_lines = data_lines
    return result


def _number(read, text: str, what: str, kind: str = "non-numeric"):
    """``read(text)`` for an ASCII text with no ``_``; raises ValueError
    ``{kind} {what} '{text}'`` for any other, or one that ``read`` refuses.
    int, float, Decimal and Fraction read ``1_0`` as 10 (Fraction from
    Python 3.11 on) and any Unicode digit (``１２`` as 12); no number does."""
    if text.isascii() and "_" not in text:
        try:
            return read(text)
        except (ValueError, ZeroDivisionError, decimal.InvalidOperation):
            pass
    raise ValueError(f"{kind} {what} '{text}'")


def exact_number(text: str, what: str = "number") -> Fraction:
    """The exact value of a decimal text (``_exact_decimal``) or of ``a/b``, whose
    ``a`` and ``b`` count as digits before the point if both are ASCII digits."""
    num, slash, den = text.partition("/")
    if not slash:
        return Fraction(_exact_decimal(text, what))
    num, den = num.strip().lstrip("+-"), den.strip()
    if num.isascii() and den.isascii() and num.isdigit() and den.isdigit():
        if max(len(num), len(den)) > _MAX_DIGITS:
            raise ValueError(f"{what} {text} has more than {_MAX_DIGITS} digits before the point")
    return _number(Fraction, text, what)


def _exact_decimal(text: str, what: str) -> decimal.Decimal:
    """A decimal text's exact value, never through a float. The integers of
    its Fraction grow with the exponent, which is bounded here: at most 1,000
    (``_MAX_DIGITS``) decimal places and as many digits before the point.
    Any other text (NaN, infinity, ``a/b``) raises ValueError naming ``what``."""
    value = _number(decimal.Decimal, text, what)
    if not value.is_finite():
        raise ValueError(f"non-numeric {what} '{text}'")
    _, digits, exponent = value.as_tuple()
    if -exponent > _MAX_DIGITS:
        raise ValueError(f"{what} {text} has more than {_MAX_DIGITS} decimal places")
    if len(digits) + exponent > _MAX_DIGITS:
        raise ValueError(f"{what} {text} has more than {_MAX_DIGITS} digits before the point")
    return value


def _unit_interval(column: str, text: str) -> Fraction:
    """The Fraction of a decimal cell whose exact value must lie in [0, 1]."""
    value = _exact_decimal(text, column)
    if not 0 <= value <= 1:
        raise ValueError(f"{column} {text} outside [0, 1]")
    return Fraction(value)


def whole_number(text: str, what: str) -> int:
    """The int of a decimal text, read by ``_number``; raises ValueError,
    naming ``what``, for any other."""
    return _number(int, text, what, "non-integer")


def parse_mutation_table(source) -> ParseResult:
    """Rows as GeneticEdges; the rows on one locus share one MutationKey,
    however its positions are spelled (``12`` and ``012``), and equal
    sample id, gene, chromosome and VAF cells share one object."""
    keys: dict[tuple[str, str, int, int], MutationKey] = {}
    # The key of each locus as its four cells spell it, so that a repeated
    # locus is not parsed again.
    spelled: dict[tuple[str, str, str, str], MutationKey] = {}
    ids: dict[str, str] = {}
    vafs: dict[str, Fraction | None] = {}

    def row_fn(sample_id, gene, chromosome, start_text, end_text, vaf):
        cells = (gene, chromosome, start_text, end_text)
        mutation = spelled.get(cells)
        if mutation is None:
            start = whole_number(start_text, "start_position")
            end = whole_number(end_text, "end_position")
            if start < 0 or start > end:
                raise ValueError(f"bad locus range {start}..{end}")
            locus = (ids.setdefault(gene, gene), ids.setdefault(chromosome, chromosome),
                     start, end)
            mutation = keys.get(locus)
            if mutation is None:
                mutation = keys[locus] = MutationKey(*locus)
            spelled[cells] = mutation
        try:
            value = vafs[vaf]
        except KeyError:  # a sentinel ("" too: not given) is None; a bad text raises
            value = vafs[vaf] = (
                None if vaf.lower() in _VAF_SENTINELS else _unit_interval("vaf", vaf)
            )
        return GeneticEdge(ids.setdefault(sample_id, sample_id), mutation, value)

    return _parse_table(source, MUTATION_COLUMNS, row_fn)


_LIVING = {"living", "alive", "0:living"}
_DECEASED = {"deceased", "dead", "1:deceased"}
# A float rounds this and more to infinity: an os_months there is refused as inf is.
_MONTHS_LIMIT = decimal.Decimal(2**1024 - 2**970)


def parse_clinical_table(source) -> ParseResult:
    """Rows as (PatientRecord, DiagnosisEdge) pairs, survival floored to
    whole months from the exact value of its text, never through a float;
    the disease is the verbatim cancer type, one object per distinct text."""
    diseases: dict[str, str] = {}

    def row_fn(pid, cancer_type, os_months, os_status):
        months = _exact_decimal(os_months, "os_months")
        if months.copy_abs() >= _MONTHS_LIMIT:
            raise ValueError(f"non-numeric os_months '{os_months}'")
        if months < 0:
            raise ValueError(f"negative os_months {os_months}")
        status = os_status.lower()
        if status not in _LIVING and status not in _DECEASED:
            raise ValueError(f"unrecognized os_status '{os_status}'")
        return (
            PatientRecord(pid, math.floor(months), status in _LIVING),
            DiagnosisEdge(diseases.setdefault(cancer_type, cancer_type), pid),
        )

    return _parse_table(source, CLINICAL_COLUMNS, row_fn)


def parse_gda_table(source) -> ParseResult:
    """Rows as GdaTableRows; equal score texts share one Fraction."""
    scores: dict[str, Fraction] = {}

    def row_fn(gene, disease, text):
        if text not in scores:
            scores[text] = _unit_interval("gda_score", text)
        return GdaTableRow(gene, disease, scores[text])

    return _parse_table(source, GDA_COLUMNS, row_fn)


def parse_drug_target_table(source) -> ParseResult:
    """Rows as DrugTargetTableRows; equal weight texts share one Fraction,
    and an empty one gives None."""
    weights: dict[str, Fraction] = {}

    def row_fn(drug_id, gene, wtext, adverse_effects):
        if wtext and wtext not in weights:
            weight = exact_number(wtext, "weight")
            if weight < 0:
                raise ValueError(f"negative weight {wtext}")
            weights[wtext] = weight
        return DrugTargetTableRow(drug_id, gene, weights.get(wtext), adverse_effects or None)

    return _parse_table(source, DRUG_COLUMNS, row_fn)


def parse_treatment_table(source) -> ParseResult:
    codes = {e.value: e for e in Effectiveness}

    def row_fn(pid, drug_id, order_text, effectiveness):
        order = whole_number(order_text, "order")
        if order < 0:
            raise ValueError(f"negative order {order}")
        eff = codes.get(effectiveness.lower())
        if eff is None:
            raise ValueError(f"unrecognized effectiveness '{effectiveness}'")
        return TreatmentEdge(pid, drug_id, order, eff)

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
    created on first sight). Green edges of known patients stream into one
    ``add_edges`` call, each mutation node added at its first accepted row;
    a pair that the green store finds repeated keeps the edge of maximum
    VAF, compared exactly (None is below any number; a tie keeps the earlier
    row), and rows of unknown samples are reported as orphans. Gene-level
    association and drug target rows fan out to every mutation node on their
    gene, through one gene -> nodes map made after the green pass. Every
    node and edge goes in through ``add_node`` and ``add_edges``, which
    check every rule of the graph, and ``max_vaf`` keeps one of the two
    edges it is given.

    Mutation nodes go in unsorted, in the order of their first accepted
    row, and the green store groups the edges by patient, in the order of
    each patient's first accepted row. The other rows are sorted, which
    fixes the order of the build report's notes.
    """
    graph = KnowledgeGraph()
    report: list[ReportEntry] = []

    def note(severity: str, message: str) -> None:
        report.append(ReportEntry("build", 0, severity, message))

    patients, mutations, diseases = graph.patients, graph.mutations, graph.diseases
    diagnoses = []
    for patient, diagnosis in sorted(clinical_rows, key=lambda r: r[0].patient_id):
        if patient.patient_id in patients:
            note("warning", f"duplicate clinical row for {patient.patient_id}; first kept")
            continue
        graph.add_node(patient)
        if diagnosis.disease_id not in diseases:
            graph.add_node(DiseaseNode(diagnosis.disease_id))
        diagnoses.append(diagnosis)
    graph.add_edges(diagnoses)

    orphans = 0

    def accepted():
        nonlocal orphans
        for edge in mutation_rows:
            if edge.patient_id not in patients:
                orphans += 1
                note("warning", f"orphan mutation row: unknown sample {edge.patient_id}")
                continue
            if edge.mutation not in mutations:
                graph.add_node(edge.mutation)
            yield edge

    def max_vaf(held: GeneticEdge, new: GeneticEdge) -> GeneticEdge:
        note("info", f"duplicate mutation row for {new.patient_id}/"
                     f"{new.mutation.display()}; max VAF kept")
        if held.vaf is not None and (new.vaf is None or new.vaf <= held.vaf):
            return held
        return new

    graph.add_edges(accepted(), repeat=max_vaf)
    by_gene: dict[str, list[MutationKey]] = {}
    for mutation in mutations:
        by_gene.setdefault(mutation.gene, []).append(mutation)

    gda_best: dict[tuple[str, str], Fraction] = {}
    for row in gda_rows:
        key = (row.disease, row.gene)
        if key in gda_best:
            note("warning", f"duplicate gda row {row.gene}/{row.disease}; max score kept")
        gda_best[key] = max(gda_best.get(key, row.gda_score), row.gda_score)
    associations = []
    for (disease, gene), score in sorted(gda_best.items()):
        if disease not in diseases:
            graph.add_node(DiseaseNode(disease))
        matches = by_gene.get(gene)
        if not matches:
            note("info", f"gda row {gene}/{disease}: no mutation node on gene {gene}")
            continue
        associations += [GdaAssociation(disease, mutation, score) for mutation in sorted(matches)]
    graph.add_edges(associations)

    drug_specs: dict[str, DrugTargetTableRow] = {}
    targets = []
    drug_genes: dict[str, list[str]] = {}
    for row in drug_rows:
        if row.drug_id in drug_specs:
            weight = row.toxicity_weight
            if weight is not None and weight != drug_specs[row.drug_id].toxicity_weight:
                note("warning", f"conflicting weight for drug {row.drug_id}; first kept")
        else:
            drug_specs[row.drug_id] = row
        drug_genes.setdefault(row.drug_id, []).append(row.gene)
    for drug_id in sorted(drug_specs):
        spec = drug_specs[drug_id]
        weight = Fraction(1) if spec.toxicity_weight is None else spec.toxicity_weight
        graph.add_node(DrugNode(drug_id, spec.adverse_effects, weight))
        targeted = set()
        for gene in drug_genes[drug_id]:
            matches = by_gene.get(gene, ())
            if not matches:
                note("info", f"drug row {drug_id}/{gene}: no mutation node on gene {gene}")
            targeted.update(matches)
        targets += [TargetEdge(mutation, drug_id) for mutation in sorted(targeted)]
    graph.add_edges(targets)

    if treatment_rows:
        treatments = []
        for edge in sorted(treatment_rows, key=lambda e: (e.patient_id, e.order, e.drug_id)):
            if edge.patient_id not in patients:
                note("warning", f"treatment row for unknown sample {edge.patient_id}")
                continue
            if edge.drug_id not in graph.drugs:
                note("warning", f"treatment row for unknown drug {edge.drug_id}")
                continue
            treatments.append(edge)
        graph.add_edges(treatments)

    if orphans:
        note("warning", f"{orphans} orphan mutation row(s) excluded")
    return graph, report

