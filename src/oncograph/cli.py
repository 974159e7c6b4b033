"""Command-line frontend.

Subcommands: build, check, cohort, freq, coexist, treat. Every command
loads the four TSV exports, builds the graph, and writes deterministic TSV
reports into the output directory (same inputs -> byte-identical outputs).

Exit codes: 0 success, 1 graph validation failure (build), 2 I/O or parse
failure, 3 domain infeasibility, 64 usage error. The ONCOGRAPH_CONFIG env
var may point to a JSON file supplying default flag values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import cohort as co
from . import errors, graph as kg, hitting_set as hs
from . import ingest, knowledge

EXIT_OK = 0
EXIT_INVALID_GRAPH = 1
EXIT_IO = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64

CONFIG_ENV = "ONCOGRAPH_CONFIG"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def exact_number(text: str) -> Fraction:
    """A threshold read exactly from its decimal text, never through a float."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def _config_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        line = ingest.undecodable_line(path)
        print(f"cannot read config {path}:{line}: not valid UTF-8", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _add_io_args(p: argparse.ArgumentParser, cfg: dict) -> None:
    p.add_argument("--mutations", default=cfg.get("mutations"), help="mutation table TSV")
    p.add_argument("--clinical", default=cfg.get("clinical"), help="clinical table TSV")
    p.add_argument("--gda", default=cfg.get("gda"), help="gene-disease association TSV")
    p.add_argument("--drugs", default=cfg.get("drugs"), help="drug target TSV")
    p.add_argument("--treatments", default=cfg.get("treatments"), help="optional treatment TSV")
    p.add_argument("--out", default=cfg.get("out", "."), help="output directory")


def _load(args) -> tuple[kg.KnowledgeGraph, list[ingest.ReportEntry]]:
    for name in ("mutations", "clinical", "gda", "drugs"):
        path = getattr(args, name)
        if path is None:
            print(f"missing required input: --{name}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        if not Path(path).is_file():
            print(f"cannot read {name} file: {path}", file=sys.stderr)
            raise SystemExit(EXIT_IO)
    try:
        mut = ingest.parse_mutation_table(args.mutations)
        cli = ingest.parse_clinical_table(args.clinical)
        gda = ingest.parse_gda_table(args.gda)
        drg = ingest.parse_drug_target_table(args.drugs)
        trt = (
            ingest.parse_treatment_table(args.treatments)
            if args.treatments
            else None
        )
    except (errors.MissingColumn, errors.InvalidEncoding) as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(EXIT_IO)
    if not mut.rows and mut.data_lines == 0:
        print("warning: mutation table has no data rows", file=sys.stderr)
    g, build_report = ingest.build_graph(
        mut.rows, cli.rows, gda.rows, drg.rows, trt.rows if trt else None
    )
    report = mut.issues + cli.issues + gda.issues + drg.issues
    if trt:
        report += trt.issues
    report += build_report
    return g, report


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_tsv(path: Path, header: list[str], rows) -> None:
    """Write a TSV atomically: into a temp file beside ``path``, then
    ``os.replace`` it, so a failure leaves the previous file as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(str(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# Commands

def cmd_build(args) -> int:
    g, report = _load(args)
    out = _outdir(args)
    _write_tsv(
        out / "build_report.tsv",
        ["file", "line", "severity", "message"],
        ((e.file, e.line, e.severity, e.message) for e in report),
    )
    sizes = g.partition_sizes()
    counts = g.edge_counts()
    print(
        f"Pa={sizes['Pa']} Mu={sizes['Mu']} Di={sizes['Di']} Dr={sizes['Dr']} "
        f"green={counts['green']} red={counts['red']} magenta={counts['magenta']}"
    )
    violations = kg.validate(g)
    for v in violations:
        print(f"violation [{v.category}]: {v.message}", file=sys.stderr)
    return EXIT_INVALID_GRAPH if violations else EXIT_OK


def cmd_check(args) -> int:
    if not 0 <= args.gda_threshold <= 1:
        print(f"--gda-threshold {args.gda_threshold} must be in [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    g, _ = _load(args)
    out = _outdir(args)
    rows = []
    for disease_id in sorted(g.diseases):
        evidence, verdict = knowledge.check_consistency(
            g,
            disease_id,
            gda_threshold=args.gda_threshold,
            granularity=knowledge.Granularity(args.granularity),
        )
        status = "no_evidence" if not evidence.patients else verdict.status.value
        rows.append(
            (
                disease_id,
                len(evidence.patients),
                len(evidence.union_mutations),
                len(evidence.common_mutations),
                len(evidence.known_mutations),
                status,
                len(verdict.missing_from_knowledge),
                len(verdict.unsupported_knowledge),
                len(verdict.coverage_violations),
            )
        )
    _write_tsv(
        out / "knowledge_check.tsv",
        [
            "disease", "n_patients", "n_union", "n_common", "n_known",
            "status", "n_missing_from_knowledge", "n_unsupported_knowledge",
            "n_coverage_violations",
        ],
        rows,
    )
    return EXIT_OK


def cmd_cohort(args) -> int:
    k = args.k
    if k < 0:
        print(f"--k {k} must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.metric == "hamming" and k.denominator != 1:
        print(f"--k {k} must be a whole number for hamming", file=sys.stderr)
        return EXIT_USAGE
    if _bad_bands(args):
        return EXIT_USAGE
    g, _ = _load(args)
    out = _outdir(args)
    bands = _survival_bands(g, args.t_long, args.t_short)
    _write_tsv(
        out / "survival_bands.tsv",
        ["patient_id", "band"],
        sorted((pid, band) for band, pids in bands.items() for pid in pids),
    )
    profiles = co.profiles_from_graph(g, gene_level=args.granularity == "gene")
    groups = co.group_by_threshold(
        profiles, metric=args.metric, k=k, strategy=args.strategy
    )
    _write_tsv(
        out / "profile_groups.tsv",
        ["group", "size", "patients"],
        (
            (i + 1, len(grp), ",".join(grp))
            for i, grp in enumerate(groups)
        ),
    )
    return EXIT_OK


# The names of the survival bands, in the order of SurvivalPartition's fields.
_BANDS = ("long", "short", "rest")


def _bad_bands(args) -> bool:
    """Reports a --t-short that is not below --t-long, before any input is read."""
    if args.t_short < args.t_long:
        return False
    print(f"t_short {args.t_short} must be < t_long {args.t_long}", file=sys.stderr)
    return True


def _survival_bands(g, t_long: int, t_short: int) -> dict[str, frozenset[str]]:
    part = co.survival_partition(g, t_long=t_long, t_short=t_short)
    return dict(zip(_BANDS, (part.long_survivors, part.short_deceased, part.rest)))


def cmd_freq(args) -> int:
    if args.top_n < 0:
        print(f"--top-n {args.top_n} must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.band != "all" and _bad_bands(args):
        return EXIT_USAGE
    g, _ = _load(args)
    out = _outdir(args)
    ids = None
    if args.disease:
        try:
            ids = g.patients_of_disease(args.disease)
        except errors.UnknownDisease:
            print(f"unknown disease {args.disease}", file=sys.stderr)
            return EXIT_DOMAIN
    if args.band != "all":
        band_ids = _survival_bands(g, args.t_long, args.t_short)[args.band]
        ids = band_ids if ids is None else (set(ids) & band_ids)
    profiles = co.profiles_from_graph(g, patient_ids=ids)
    rows = co.frequency_table(profiles, mode=co.FrequencyMode(args.mode), top_n=args.top_n)
    _write_tsv(
        out / "frequency.tsv",
        ["item", "percent"],
        ((name, co.format_percent(pct)) for name, pct in rows),
    )
    return EXIT_OK


def cmd_coexist(args) -> int:
    g, _ = _load(args)
    out = _outdir(args)
    profiles = co.profiles_from_graph(g, gene_level=args.granularity == "gene")
    try:
        sets = co.coexisting_mutation_sets(profiles, args.k)
    except errors.InvalidPercent as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    _write_tsv(
        out / "coexisting_sets.tsv",
        ["mutations", "support_percent", "n_patients", "patients"],
        (
            (
                ",".join(sorted(kg.key_text(m) for m in s.mutations)),
                co.format_percent(s.support_percent),
                len(s.supporting_patients),
                ",".join(sorted(s.supporting_patients)),
            )
            for s in sets
        ),
    )
    return EXIT_OK


def cmd_treat(args) -> int:
    g, _ = _load(args)
    out = _outdir(args)
    # An unknown patient or mutation, or an untargetable one, exits 3 in main.
    targets = [g.mutation_by_display(t) for t in args.targets.split(",") if t]
    instance = hs.build_instance(g, args.patient, targets)
    solution = (
        hs.solve_min_weight(instance)
        if args.weighted
        else hs.solve_min_cardinality(instance)
    )
    _write_tsv(
        out / "treatment.tsv",
        ["drug", "weight"],
        ((d, instance.weights[d]) for d in sorted(solution.drugs)),
    )
    print(
        f"drugs={len(solution.drugs)} total_weight={solution.total_weight}"
    )
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    cfg = _config_defaults()
    parser = _Parser(prog="oncograph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_io_args(p, cfg)
        p.set_defaults(fn=fn)
        return p

    add("build", cmd_build, "build the graph and report violations")

    p = add("check", cmd_check, "knowledge-vs-evidence consistency per disease")
    p.add_argument(
        "--gda-threshold", type=exact_number,
        default=str(cfg.get("gda_threshold", knowledge.DEFAULT_GDA_THRESHOLD)),
    )
    p.add_argument(
        "--granularity", choices=["mutation", "gene"],
        default=cfg.get("granularity", "gene"),
    )

    p = add("cohort", cmd_cohort, "survival bands and profile-similarity groups")
    p.add_argument("--metric", choices=["hamming", "jaccard"], default="hamming")
    p.add_argument("--k", type=exact_number, default=str(cfg.get("k", 0)))
    p.add_argument("--strategy", choices=["components", "cliques"], default="components")
    p.add_argument("--granularity", choices=["mutation", "gene"], default="mutation")
    p.add_argument("--t-long", type=int, default=cfg.get("t_long", 36))
    p.add_argument("--t-short", type=int, default=cfg.get("t_short", 6))

    p = add("freq", cmd_freq, "frequency table of mutations or genes")
    p.add_argument(
        "--mode",
        choices=[m.value for m in co.FrequencyMode],
        default="mutation",
    )
    p.add_argument("--top-n", type=int, default=cfg.get("top_n", 10))
    p.add_argument("--disease", default=None)
    p.add_argument("--band", choices=["all", *_BANDS], default="all")
    p.add_argument("--t-long", type=int, default=cfg.get("t_long", 36))
    p.add_argument("--t-short", type=int, default=cfg.get("t_short", 6))

    p = add("coexist", cmd_coexist, "maximal coexisting-mutation sets")
    p.add_argument("--k", type=exact_number, required=True, help="support percentage")
    p.add_argument("--granularity", choices=["mutation", "gene"], default="mutation")

    p = add("treat", cmd_treat, "optimal drug treatment for target mutations")
    p.add_argument("--patient", required=True)
    p.add_argument(
        "--targets", required=True,
        help="comma-separated mutation ids (GENE_chrom_start_end)",
    )
    p.add_argument("--weighted", action="store_true", help="minimize toxicity weight")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except errors.OncographError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
