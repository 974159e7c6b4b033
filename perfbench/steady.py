"""Steadiness check: run each workload with several seeds and report spreads.

    python3 perfbench/steady.py --runs 10 [--workload registry ...] [--first-seed 1]

For every end-to-end metric of every workload it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json,
plus the share of failed operations, and flags every spread above a third
of its bound or above the bound. With ``--runs 1`` it is the one command
that runs every workload once and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"attempted {sum(r['attempted'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)}, "
              f"failed share {' / '.join(f'{s:.6f}' for s in shares)}")
        for name, (unit, bound) in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med
            flag = ("  ABOVE BOUND" if spread > bound
                    else "  above bound/3" if spread > bound / 3 else "")
            print(f"  {name:22s} median {med:10.4f} {unit:3s} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {bound:.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
