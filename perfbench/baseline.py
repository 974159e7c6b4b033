"""Stage timings at fixed cohort sizes, in the layout of the ROADMAP baseline table.

    python3 perfbench/baseline.py --patients 1000 5000 20000 [--seed 1] [--instances 50x100]

Run from the root of a source checkout. For each size it generates a
registry-shaped cohort (the ``registry`` workload's make-up at that size),
times each library stage once in process, then times the CLI end to end.
Grouping is quadratic, so it runs on at most the first HAMMING_CAP /
JACCARD_CAP patients, the sizes the ROADMAP table used. The
hitting-set rows solve one seeded random instance per ``TARGETSxDRUGS``
size. Prints markdown tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from run import PYTHON, WORKLOADS, cli_env  # noqa: E402

HAMMING_CAP = 5000
JACCARD_CAP = 2000


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def random_instance(hs, targets: int, drugs: int, seed: int):
    rng = random.Random(f"{seed}-{targets}x{drugs}")
    names = [f"D{i:03d}" for i in range(drugs)]
    family = [rng.sample(names, rng.randint(2, 6)) for _ in range(targets)]
    weights = {d: rng.randint(1, 20) for d in names}
    return hs.make_instance(family, weights)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patients", type=int, nargs="+", default=[1000, 5000, 20000])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--instances", nargs="*", default=["50x100"])
    args = parser.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from oncograph import cohort, graph, hitting_set, ingest, knowledge

    env = cli_env(root)
    rows: dict[str, dict[int, str]] = {}

    def put(stage: str, n: int, value) -> None:
        rows.setdefault(stage, {})[n] = f"{value:.2f} s" if isinstance(value, float) else value

    work = root / ".perfbench" / "baseline"
    solver: list[str] = []
    try:
        for n in args.patients:
            shape = dataclasses.replace(WORKLOADS["registry"], patients=n, extract_patients=0)
            inp = gen.generate(shape, args.seed, work / str(n))
            t, mut = timed(ingest.parse_mutation_table, inp.mutations)
            put("mutation rows accepted", n, f"{len(mut.rows):,}")
            put("parse mutations", n, t)
            cli_rows = ingest.parse_clinical_table(inp.clinical).rows
            gda_rows = ingest.parse_gda_table(inp.gda).rows
            drug_rows = ingest.parse_drug_target_table(inp.drugs).rows
            t, (g, _) = timed(ingest.build_graph, mut.rows, cli_rows, gda_rows, drug_rows)
            put("build_graph", n, t)
            put("validate", n, timed(graph.validate, g)[0])
            put("check_consistency, every disease", n, timed(
                lambda: [knowledge.check_consistency(g, d) for d in sorted(g.diseases)])[0])
            for gene_level, label in ((False, "mutation"), (True, "gene")):
                profiles = cohort.profiles_from_graph(g, gene_level=gene_level)
                put(f"coexisting_mutation_sets k=5, {label}", n,
                    timed(cohort.coexisting_mutation_sets, profiles, 5)[0])
            profiles = cohort.profiles_from_graph(g)
            for metric, k, cap in (("hamming", 2, HAMMING_CAP), ("jaccard", 0.5, JACCARD_CAP)):
                m = min(n, cap)
                put(f"group_by_threshold {metric} k={k}, at most {cap} patients", n,
                    timed(cohort.group_by_threshold, profiles[:m], metric, k)[0])
            io_args = ["--mutations", str(inp.mutations), "--clinical", str(inp.clinical),
                       "--gda", str(inp.gda), "--drugs", str(inp.drugs),
                       "--out", str(work / f"out{n}")]
            for name, extra in (("build", []), ("check", []), ("freq", []),
                                ("coexist", ["--k", "5"]), ("cohort", ["--k", "2"])):
                if name == "cohort" and n > HAMMING_CAP:
                    put(f"CLI {name}", n, "skipped")
                    continue
                t, _ = timed(subprocess.run,
                             [*PYTHON, "-m", "oncograph.cli", name, *extra, *io_args],
                             env=env, check=True, capture_output=True)
                put(f"CLI {name}", n, t)
            del g, profiles, mut
        for size in args.instances:
            targets, drugs = map(int, size.split("x"))
            inst = random_instance(hitting_set, targets, drugs, args.seed)
            t = timed(hitting_set.solve_min_weight, inst)[0]
            solver.append(f"| hitting set, {targets} targets / {drugs} drugs (random) | {t:.2f} s |")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sizes = args.patients
    print("| stage | " + " | ".join(f"{n:,} patients" for n in sizes) + " |")
    print("| --- |" + " --- |" * len(sizes))
    for stage, cells in rows.items():
        print(f"| {stage} | " + " | ".join(cells.get(n, "") for n in sizes) + " |")
    if solver:
        print("\n| solver stage | time |\n| --- | --- |\n" + "\n".join(solver))
    return 0


if __name__ == "__main__":
    sys.exit(main())
