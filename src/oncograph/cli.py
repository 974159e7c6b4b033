"""Command-line frontend.

Subcommands: build, check, cohort, freq, coexist, treat. Every command
loads the four TSV exports, builds the graph, and writes deterministic TSV
reports into the output directory (same inputs -> byte-identical outputs).

Exit codes: 0 success, 2 I/O or parse failure, 3 domain infeasibility (an
insert that breaks a graph rule included), 64 usage error. The
ONCOGRAPH_CONFIG env var may point to a JSON file supplying default flag
values.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import partial

# Each call is a new interpreter, so cohort, knowledge, hitting_set and json
# are imported only where they are used: an unneeded import is start-up cost.
from . import errors, graph as kg, ingest

EXIT_OK = 0
EXIT_IO = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64

CONFIG_ENV = "ONCOGRAPH_CONFIG"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _config_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    import json
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("not a JSON object")
        return cfg
    except UnicodeDecodeError:
        line = ingest.undecodable_line(path)
        print(f"cannot read config {path}:{line}: not valid UTF-8", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        print(f"cannot read config {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _configure(action: argparse.Action, cfg: dict) -> None:
    """Takes an option's default from the config, read as the option reads its
    command-line text: argparse converts only a string default and checks no
    default against the choices. An option with no type takes only a string."""
    if action.dest not in cfg:
        return
    value = cfg[action.dest]
    try:
        if action.type:
            value = action.type(str(value))
        elif not isinstance(value, str):
            raise ValueError
        if action.choices is not None and value not in action.choices:
            raise ValueError
    except (ValueError, argparse.ArgumentTypeError):
        path = os.environ[CONFIG_ENV]
        print(f"cannot read config {path}: bad {action.dest} value {cfg[action.dest]!r}",
              file=sys.stderr)
        raise SystemExit(EXIT_IO) from None
    action.default = value


def _option_type(parse):
    """``parse(text, "value")`` as an argparse type: argparse prints the
    reason of an ArgumentTypeError, where it drops that of a ValueError."""
    def read(text: str):
        try:
            return parse(text, "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


_exact = _option_type(ingest.exact_number)
_int = _option_type(ingest.whole_number)


def _add_io_args(p: argparse.ArgumentParser, configure) -> None:
    configure(p.add_argument("--mutations", help="mutation table TSV"))
    configure(p.add_argument("--clinical", help="clinical table TSV"))
    configure(p.add_argument("--gda", help="gene-disease association TSV"))
    configure(p.add_argument("--drugs", help="drug target TSV"))
    configure(p.add_argument("--treatments", help="optional treatment TSV"))
    configure(p.add_argument("--out", default=".", help="output directory"))


def _help_width() -> int:
    """The width argparse's HelpFormatter takes from shutil.get_terminal_size
    (COLUMNS, else stdout's terminal, else 80, less 2), read once and with no
    import of shutil and the compressors it loads."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns or 80) - 2


def _load(args) -> tuple[kg.KnowledgeGraph, list[ingest.ReportEntry]]:
    for name in ("mutations", "clinical", "gda", "drugs"):
        path = getattr(args, name)
        if path is None:
            print(f"missing required input: --{name}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        if not os.path.isfile(path):
            print(f"cannot read {name} file: {path}", file=sys.stderr)
            raise SystemExit(EXIT_IO)
    # The load makes no garbage cycles, so a collection during it would only
    # rescan what it built; frozen after it, the graph is never rescanned by
    # the collections of the command that reads it. The parser that main
    # built is young cyclic garbage by now: collected first, it is not frozen.
    gc.collect(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
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
        if not mut.data_lines:
            print("warning: mutation table has no data rows", file=sys.stderr)
        g, build_report = ingest.build_graph(
            mut.rows, cli.rows, gda.rows, drg.rows, trt.rows if trt else None
        )
        gc.freeze()
    finally:
        if enabled:  # on every exit: in-process callers keep their policy
            gc.enable()
    report = mut.issues + cli.issues + gda.issues + drg.issues
    if trt:
        report += trt.issues
    report += build_report
    return g, report


def _write_tsv(out_dir: str, name: str, header: list[str], rows) -> None:
    """Write a TSV atomically: into a temp file in ``out_dir``, then
    ``os.replace`` it, so a failure leaves the previous file as it was.
    ``out_dir`` is made here, so a command that fails first leaves none."""
    os.makedirs(out_dir or ".", exist_ok=True)  # an empty --out is the working directory
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(str(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ----------------------------------------------------------------------
# Commands

def cmd_build(args) -> int:
    g, report = _load(args)
    _write_tsv(
        args.out, "build_report.tsv",
        ["file", "line", "severity", "message"],
        ((e.file, e.line, e.severity, e.message) for e in report),
    )
    sizes = g.partition_sizes()
    counts = g.edge_counts()
    print(
        f"Pa={sizes['Pa']} Mu={sizes['Mu']} Di={sizes['Di']} Dr={sizes['Dr']} "
        f"green={counts['green']} red={counts['red']} magenta={counts['magenta']}"
    )
    return EXIT_OK


def cmd_check(args) -> int:
    from . import knowledge
    threshold = args.gda_threshold
    if threshold is None:
        threshold = knowledge.DEFAULT_GDA_THRESHOLD
    elif not 0 <= threshold <= 1:
        print(f"--gda-threshold {threshold} must be in [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    g, _ = _load(args)
    rows = []
    for disease_id in sorted(g.diseases):
        evidence, verdict = knowledge.check_consistency(
            g, disease_id, gda_threshold=threshold, gene_level=args.granularity == "gene"
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
        args.out, "knowledge_check.tsv",
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
    from . import cohort as co
    g, _ = _load(args)
    bands = _survival_bands(g, args.t_long, args.t_short)
    _write_tsv(
        args.out, "survival_bands.tsv",
        ["patient_id", "band"],
        sorted((pid, band) for band, pids in bands.items() for pid in pids),
    )
    profiles = co.profiles_from_graph(g, gene_level=args.granularity == "gene")
    groups = co.group_by_threshold(
        profiles, metric=args.metric, k=k, strategy=args.strategy
    )
    _write_tsv(
        args.out, "profile_groups.tsv",
        ["group", "size", "patients"],
        (
            (i + 1, len(grp), ",".join(grp))
            for i, grp in enumerate(groups)
        ),
    )
    return EXIT_OK


# The names of the survival bands, in the order of SurvivalPartition's fields.
_BANDS = ("long", "short", "rest")
# cohort.FrequencyMode's values, named here so that the parser needs no cohort.
_FREQUENCY_MODES = ("mutation", "gene_with_multiplicity", "gene_without_multiplicity")


def _bad_bands(args) -> bool:
    """Reports a --t-short that is not below --t-long, before any input is read."""
    if args.t_short < args.t_long:
        return False
    print(f"t_short {args.t_short} must be < t_long {args.t_long}", file=sys.stderr)
    return True


def _survival_bands(g, t_long: int, t_short: int) -> dict[str, frozenset[str]]:
    from . import cohort as co
    return dict(zip(_BANDS, co.survival_partition(g, t_long=t_long, t_short=t_short)))


def cmd_freq(args) -> int:
    if args.top_n < 0:
        print(f"--top-n {args.top_n} must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.band != "all" and _bad_bands(args):
        return EXIT_USAGE
    from . import cohort as co
    g, _ = _load(args)
    ids = g.patients_of_disease(args.disease) if args.disease else None
    if args.band != "all":
        band_ids = _survival_bands(g, args.t_long, args.t_short)[args.band]
        ids = band_ids if ids is None else ids & band_ids
    profiles = co.profiles_from_graph(g, patient_ids=ids)
    rows = co.frequency_table(profiles, mode=co.FrequencyMode(args.mode), top_n=args.top_n)
    _write_tsv(
        args.out, "frequency.tsv",
        ["item", "percent"],
        ((name, co.format_percent(pct)) for name, pct in rows),
    )
    return EXIT_OK


def cmd_coexist(args) -> int:
    if not 0 < args.k <= 100:
        print(f"--k {args.k} must be in (0, 100]", file=sys.stderr)
        return EXIT_USAGE
    from . import cohort as co
    g, _ = _load(args)
    profiles = co.profiles_from_graph(g, gene_level=args.granularity == "gene")
    sets = co.coexisting_mutation_sets(profiles, args.k)
    _write_tsv(
        args.out, "coexisting_sets.tsv",
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
    if not args.targets.strip(","):
        print(f"--targets {args.targets!r} names no mutation", file=sys.stderr)
        return EXIT_USAGE
    from . import hitting_set as hs
    g, _ = _load(args)
    # A target names one of the patient's mutations, the least by key of two
    # that render alike. An unknown patient or mutation, one the patient does
    # not carry, or an untargetable one exits 3 in main.
    own = {m.display(): m for m in sorted(g.mutations_of_patient(args.patient), reverse=True)}
    targets = [own.get(t) or g.mutation_by_display(t) for t in args.targets.split(",") if t]
    instance = hs.build_instance(g, args.patient, targets)
    solution = (
        hs.solve_min_weight(instance)
        if args.weighted
        else hs.solve_min_cardinality(instance)
    )
    _write_tsv(
        args.out, "treatment.tsv",
        ["drug", "weight"],
        ((d, instance.weights[d]) for d in sorted(solution.drugs)),
    )
    print(
        f"drugs={len(solution.drugs)} total_weight={solution.total_weight}"
    )
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    cfg = _config_defaults()
    configurable = set()

    def configure(action):
        configurable.add(action.dest)
        _configure(action, cfg)

    formatter = partial(argparse.HelpFormatter, width=_help_width())
    parser = _Parser(prog="oncograph", description=__doc__, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        _add_io_args(p, configure)
        p.set_defaults(fn=fn)
        return p

    add("build", cmd_build, "build the graph and write the build report")

    p = add("check", cmd_check, "knowledge-vs-evidence consistency per disease")
    configure(p.add_argument("--gda-threshold", type=_exact))
    configure(p.add_argument("--granularity", choices=["mutation", "gene"], default="gene"))

    p = add("cohort", cmd_cohort, "survival bands and profile-similarity groups")
    p.add_argument("--metric", choices=["hamming", "jaccard"], default="hamming")
    configure(p.add_argument("--k", type=_exact, default="0"))
    p.add_argument("--strategy", choices=["components", "cliques"], default="components")
    configure(p.add_argument("--granularity", choices=["mutation", "gene"], default="mutation"))
    configure(p.add_argument("--t-long", type=_int, default=36))
    configure(p.add_argument("--t-short", type=_int, default=6))

    p = add("freq", cmd_freq, "frequency table of mutations or genes")
    p.add_argument("--mode", choices=_FREQUENCY_MODES, default="mutation")
    configure(p.add_argument("--top-n", type=_int, default=10))
    p.add_argument("--disease", default=None)
    p.add_argument("--band", choices=["all", *_BANDS], default="all")
    configure(p.add_argument("--t-long", type=_int, default=36))
    configure(p.add_argument("--t-short", type=_int, default=6))

    p = add("coexist", cmd_coexist, "maximal coexisting-mutation sets")
    p.add_argument("--k", type=_exact, required=True, help="support percentage")
    configure(p.add_argument("--granularity", choices=["mutation", "gene"], default="mutation"))

    p = add("treat", cmd_treat, "optimal drug treatment for target mutations")
    p.add_argument("--patient", required=True)
    p.add_argument(
        "--targets", required=True,
        help="comma-separated mutation ids (GENE_chrom_start_end)",
    )
    p.add_argument("--weighted", action="store_true", help="minimize toxicity weight")

    unknown = [key for key in cfg if key not in configurable]
    if unknown:
        path = os.environ[CONFIG_ENV]
        print(f"cannot read config {path}: unknown setting {unknown[0]!r}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    return parser


def main(argv: list[str] | None = None) -> int:
    # The parser is not kept: _load collects it before it freezes the graph.
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except errors.OncographError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
