"""Seeded end-to-end and per-layer benchmark of the oncograph CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload registry --seed 1 --seconds 40 --trace 0

``--trace 0`` drives the CLI the way an analyst does: one client, each
subcommand a fresh ``python -S`` process that runs ``oncograph.cli`` as
``-m`` would, one after another, on inputs generated beforehand. Whole
rounds of the workload's calls repeat while the next round fits in
``--seconds``; each kind of call's time is the first decile over rounds,
and ``session_s`` is their sum. ``--trace 1`` runs the same calls through
``cli.main`` in this process with spans around every public layer call, and
reports per-layer self times and counters instead. Every output is checked against a computation made apart from the program
(``check.py``). The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
from spans import Tracer, instrument, wrap  # noqa: E402

# Set-up generates the inputs SETUP_REPEATS times before the rounds. With
# tracing off it also times SETUP_REPEATS_PER_ROUND generations, into a
# directory of its own, after every round, so that set-up samples are spread
# over the run like the calls' and a change of machine speed for a few
# seconds moves few of them.
SETUP_REPEATS = 5
SETUP_REPEATS_PER_ROUND = 3
# The interpreter that runs the CLI. `-S` skips site-packages and their
# `.pth` start-up hooks, which run imports of their own at every interpreter
# start and differ between installations; oncograph needs only the
# standard library.
PYTHON = [sys.executable, "-S"]
# Runs the CLI module as `python -m` does, then writes the peak resident set
# of the process's own address space (VmHWM, in kB) to the file named by the
# first argument. The child's rusage would not do: on exec, Linux carries
# the parent's high-water mark into the child's ru_maxrss, and the
# benchmark process holds numpy, scipy and networkx.
CLI_SHIM = """\
import runpy, sys
rss_file = sys.argv.pop(1)
try:
    runpy.run_module("oncograph.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(rss_file, "w", encoding="ascii") as out:
        out.write(kb)
"""
COEXIST_K = "5"

# Why each workload exists is in README.md; each has a different dominant
# layer, which takes about half or more of its session. Sizes keep a round
# near 4.5-7 s, so a 40 s run gives every kind of call five or more samples.
WORKLOADS = {
    "registry": gen.Shape(
        patients=1_600, mean_mutations=6, genes=600, gene_skew=1.1, max_loci=8,
        diseases=30, bad_share=0.015, drugs=150, genes_per_drug=(1, 4), targetable=80,
        extract_patients=150,
    ),
    "similarity": gen.Shape(
        patients=800, mean_mutations=6, genes=300, gene_skew=1.1, max_loci=6,
        diseases=20, bad_share=0.015, drugs=60, genes_per_drug=(1, 3), targetable=40,
    ),
    "treatment": gen.Shape(
        patients=300, mean_mutations=6, genes=300, gene_skew=1.1, max_loci=6,
        diseases=20, bad_share=0.015, drugs=60, genes_per_drug=(3, 6), targetable=40,
        hypermutated=4, hyper_targets=28, treat_patients=0,
    ),
}

# The kinds of call in every round. Each kind's time goes to the readable
# breakdown on standard error; their sum is the end-to-end `session_s`.
KINDS = [
    "build", "check", "freq", "coexist_mutation", "coexist_gene",
    "cohort_hamming", "cohort_jaccard", "cohort_cliques",
    "treat_weighted", "treat_cardinality",
]

LAYER_TIMES = [
    "ingest.parse_mutation_table", "ingest.parse_other_tables", "ingest.build_graph",
    "graph.validate", "graph.mutation_by_display", "knowledge.check_consistency",
    "cohort.profiles_from_graph", "cohort.survival_partition", "cohort.group_hamming",
    "cohort.group_jaccard", "cohort.group_cliques", "cohort.frequency_table",
    "cohort.coexist_mutation", "cohort.coexist_gene", "hitting_set.build_instance",
    "hitting_set.solve_min_weight", "hitting_set.solve_min_cardinality", "cli.other",
]

LAYER_COUNTS = [
    "ingest.rows_read", "ingest.rows_rejected", "ingest.report_entries", "graph.nodes",
    "graph.edges_green", "graph.edges_red", "graph.edges_magenta",
    "knowledge.diseases_checked", "cohort.pairs", "cohort.pairs_within_k", "cohort.groups",
    "cohort.frequent_items", "cohort.maximal_sets", "hitting_set.instances",
    "hitting_set.targets", "hitting_set.universe_size",
]


@dataclass
class Op:
    """One CLI call; ``kind`` is one of ``KINDS``."""

    kind: str
    argv: list[str]
    out: Path
    check: object  # (stdout) -> (verdict, counters)
    stdout: str = ""


def plan(inputs: gen.Inputs, model: check.Model, cohort_model: check.Model, out: Path) -> list[Op]:
    """The workload's calls, in the order an analyst makes them."""

    def io_args(inp: gen.Inputs, op_out: Path) -> list[str]:
        return ["--mutations", str(inp.mutations), "--clinical", str(inp.clinical),
                "--gda", str(inp.gda), "--drugs", str(inp.drugs), "--out", str(op_out)]

    ops: list[Op] = []

    def add(kind, argv, checker, inp=inputs, m=model):
        op_out = out / f"{len(ops):02d}-{kind}"
        ops.append(Op(kind, argv + io_args(inp, op_out), op_out,
                      lambda stdout, _o=op_out: checker(m, _o, stdout)))

    add("build", ["build"], check.check_build)
    add("check", ["check"], check.check_knowledge)
    add("freq", ["freq"], check.check_freq)
    for gran in ("mutation", "gene"):
        add(f"coexist_{gran}", ["coexist", "--k", COEXIST_K, "--granularity", gran],
            lambda m, o, s, g=gran: check.check_coexist(m, o, s, COEXIST_K, g == "gene"))
    # Grouping is O(n^2) pairs: on the registry it runs on one disease's
    # extract, as an analyst would, so the registry still measures loading.
    cohort_in = inputs.extract or inputs
    for kind, metric, k, strategy in (
        ("cohort_hamming", "hamming", "2", "components"),
        ("cohort_jaccard", "jaccard", "0.3", "components"),
        ("cohort_cliques", "hamming", "1", "cliques"),
    ):
        add(kind, ["cohort", "--metric", metric, "--k", k, "--strategy", strategy],
            lambda m, o, s, a=(metric, k, strategy): check.check_cohort(m, o, s, *a),
            inp=cohort_in, m=cohort_model)
    for weighted in (True, False):
        for pid, targets in inputs.treat:
            add("treat_weighted" if weighted else "treat_cardinality",
                ["treat", "--patient", pid, "--targets", ",".join(targets)]
                + (["--weighted"] if weighted else []),
                lambda m, o, s, t=targets, w=weighted: check.check_treat(m, o, s, t, w))
    return ops


def cli_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ONCOGRAPH_CONFIG"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(op: Op, env: dict[str, str]) -> tuple[float, float, int]:
    """Run one CLI call; returns wall seconds, peak RSS in MB, exit code."""
    op.out.mkdir(parents=True, exist_ok=True)
    rss_file = op.out / "rss_kb"
    rss_file.unlink(missing_ok=True)
    with open(op.out / "stdout.txt", "wb") as so, open(op.out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        code = subprocess.call(
            [*PYTHON, "-c", CLI_SHIM, str(rss_file), *op.argv], stdout=so, stderr=se, env=env
        )
        seconds = time.perf_counter() - start
    op.stdout = (op.out / "stdout.txt").read_text(encoding="utf-8")
    rss = int(rss_file.read_text(encoding="ascii")) / 1024 if rss_file.exists() else 0.0
    return seconds, rss, code


def run_inprocess(op: Op, tracer: Tracer | None) -> int:
    from oncograph import cli

    op.out.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call("cli.main", cli.main, op.argv) if tracer else cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
    op.stdout = out.getvalue()
    return code


def snapshot(op: Op) -> dict[str, bytes]:
    files = {p.name: p.read_bytes() for p in sorted(op.out.glob("*.tsv"))}
    files["stdout"] = op.stdout.encode()
    return files


class Verifier:
    """Records each call's outputs while rounds run, and checks them after.

    During the rounds it only compares each call's outputs with the call's
    first outputs, which must be byte-identical; the independent checks run
    once, after the timed rounds, on those outputs.
    """

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.faults: set[int] = set()
        self.counters: dict[str, int] = {}
        self.ops: dict[int, Op] = {}
        self.first: dict[int, dict[str, bytes]] = {}
        self.ok_runs: dict[int, int] = {}
        self.exit_failures = 0

    def record(self, i: int, op: Op, code: int) -> None:
        if code != 0:
            print(f"{op.kind}: exit code {code}", file=sys.stderr)
            self.exit_failures += 1
            return
        self.ok_runs[i] = self.ok_runs.get(i, 0) + 1
        self.ops[i] = op
        got = snapshot(op)
        if self.first.setdefault(i, got) != got:
            self.errors.append(f"{op.kind}: outputs differ between runs of the call")

    def finish(self) -> int:
        """Run the independent checks; returns the number of failed calls."""
        for i in sorted(self.first):
            op = self.ops[i]
            verdict, counters = op.check(op.stdout)
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            if verdict == check.FAULT:
                self.faults.add(i)
            elif verdict != check.OK:
                self.errors.append(f"{op.kind}: {verdict}")
        return self.exit_failures + sum(self.ok_runs[i] for i in self.faults)


def rounds(seconds: float, one_round) -> int:
    """Repeat whole rounds while the next one is expected to end in time."""
    start = time.perf_counter()
    n = 0
    while True:
        r0 = time.perf_counter()
        one_round()
        n += 1
        last = time.perf_counter() - r0
        if time.perf_counter() - start + last > seconds:
            return n


def end_to_end(ops: list[Op], env: dict[str, str], seconds: float, verifier: Verifier,
               after_round):
    """``session_s`` is the sum over kinds of call of the first decile over
    rounds of that kind's time in one round; ``peak_rss_mb`` is the largest
    peak of any call. ``after_round()`` runs after every round."""
    samples: dict[str, list[float]] = {kind: [] for kind in KINDS}
    peak_rss = 0.0

    def one_round() -> None:
        nonlocal peak_rss
        times = dict.fromkeys(KINDS, 0.0)
        for i, op in enumerate(ops):
            dt, rss, code = run_cli(op, env)
            times[op.kind] += dt
            peak_rss = max(peak_rss, rss)
            verifier.record(i, op, code)
        for kind, dt in times.items():
            samples[kind].append(dt)
        after_round()

    n = rounds(seconds, one_round)
    session = 0.0
    for kind, values in samples.items():
        value = low_decile(values)
        session += value
        print(f"  {kind + '_s':36s} {value:14.6g} s", file=sys.stderr)
    return {"session_s": (session, "s"), "peak_rss_mb": (peak_rss, "MB")}, n


def low_decile(values: list[float]) -> float:
    """The first decile of a run's samples of one time.

    The reference machine is shared, and its speed drifts by up to ~1.7x
    from one minute to the next. The drift only ever slows a call, so a low
    quantile moves less between identical runs than a median, which follows
    the drift (see README.md, "Noise")."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def startup_seconds(env: dict[str, str], repeats: int = 5) -> float:
    """Interpreter start plus ``import oncograph.cli``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([*PYTHON, "-c", "import oncograph.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def span_cost(on_result, repeats: int = 20_000) -> float:
    """Seconds one span adds to the call it wraps: a no-op through the same
    wrapper ``spans.instrument`` installs, against a bare one."""

    def noop():
        return None

    traced = wrap(Tracer(), noop, "noop", on_result)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        traced()
    return max(0.0, (time.perf_counter() - start - bare) / repeats)


def per_layer(ops: list[Op], env: dict[str, str], seconds: float, verifier: Verifier):
    """Per-layer self times, per round of the workload's calls, and counters
    from the first round."""
    tracer = Tracer()
    counts: dict[str, int] = dict.fromkeys(LAYER_COUNTS, 0)
    per_round: list[dict[str, float]] = []
    spans_per_round: list[float] = []
    counting = False

    def on_result(name, result):
        if not counting:
            return
        if tracer.op == "build" and name.startswith("ingest.parse"):
            counts["ingest.rows_read"] += result.data_lines
            counts["ingest.rows_rejected"] += len(result.issues)
            counts["ingest.report_entries"] += len(result.issues)
        elif tracer.op == "build" and name == "ingest.build_graph":
            graph, report = result
            counts["ingest.report_entries"] += len(report)
            counts["graph.nodes"] = sum(graph.partition_sizes().values())
            for color, n in graph.edge_counts().items():
                counts[f"graph.edges_{color}"] = n
        elif tracer.op == "check" and name == "knowledge.check_consistency":
            counts["knowledge.diseases_checked"] += 1
        elif name.startswith("cohort.coexist"):
            counts["cohort.maximal_sets"] += len(result)
        elif name == "hitting_set.build_instance":
            counts["hitting_set.instances"] += 1
            counts["hitting_set.targets"] += len(result.family)
            counts["hitting_set.universe_size"] += len(result.universe)

    def one_round() -> None:
        nonlocal counting
        first = len(tracer.spans)
        counting = not per_round
        for i, op in enumerate(ops):
            gc.collect()
            tracer.op = op.kind
            verifier.record(i, op, run_inprocess(op, tracer))
        counting = False
        own: dict[str, float] = {}
        for (_kind, name), dt in tracer.self_times(first).items():
            name = "cli.other" if name == "cli.main" else name
            own[name] = own.get(name, 0.0) + dt
        per_round.append({name: own.get(name, 0.0) for name in LAYER_TIMES})
        spans_per_round.append(len(tracer.spans) - first)

    with instrument(tracer, on_result):
        n = rounds(seconds, one_round)
    failed = verifier.finish()
    metrics = {f"{name}_s": (statistics.median(r[name] for r in per_round), "s")
               for name in LAYER_TIMES}
    metrics["cli.startup_s"] = (startup_seconds(env), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(spans_per_round) * span_cost(on_result), "s")
    for name in ("cohort.pairs", "cohort.pairs_within_k", "cohort.groups",
                 "cohort.frequent_items"):
        counts[name] = verifier.counters.get(name, 0)
    metrics.update({name: (value, "count") for name, value in counts.items()})
    return metrics, n, failed, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oncograph" / "cli.py").is_file():
        print(f"no oncograph sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    # Set-iteration order (and so the solver's and the clique search's
    # tie-breaks) follows the hash seed; tie it to --seed so a seed always
    # means the same work.
    hash_seed = str(args.seed % 4_294_967_296)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=hash_seed))
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench" / f"work-{os.getpid()}"
    try:
        shape = WORKLOADS[args.workload]
        setup: list[float] = []

        def generate(dest: Path) -> gen.Inputs:
            gc.collect()
            start = time.perf_counter()
            inputs = gen.generate(shape, args.seed, dest)
            setup.append(time.perf_counter() - start)
            return inputs

        for _ in range(SETUP_REPEATS):
            inputs = generate(work / "in")
        model = check.Model.load(inputs.mutations, inputs.clinical, inputs.gda, inputs.drugs)
        sub = inputs.extract
        cohort_model = (
            check.Model.load(sub.mutations, sub.clinical, sub.gda, sub.drugs) if sub else model
        )
        ops = plan(inputs, model, cohort_model, work / "out")
        env = cli_env(root)
        subprocess.run([*PYTHON, "-c", "import oncograph.cli"], env=env, check=True)
        verifier = Verifier()
        if args.trace:
            metrics, n, failed, tracer = per_layer(ops, env, args.seconds, verifier)
            traces = root / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                {"spans": tracer.as_json(), "metrics": metrics, "rounds": n}))
        else:
            metrics, n = end_to_end(ops, env, args.seconds, verifier,
                                    lambda: [generate(work / "setup")
                                             for _ in range(SETUP_REPEATS_PER_ROUND)])
            failed = verifier.finish()
            metrics["setup_s"] = (low_decile(setup), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in verifier.errors:
        print(f"WRONG {line}", file=sys.stderr)
    calls = len(ops)
    print(f"{args.workload} seed={args.seed}: {n} round(s) of {calls} calls, "
          f"{len(verifier.faults)} failing by the float --k fault, "
          f"{verifier.counters.get('cohort.jaccard_pairs_at_k', 0)} Jaccard pair(s) at exactly k",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not verifier.errors,
        "attempted": n * calls,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
