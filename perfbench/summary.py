"""Print the end-to-end metrics of every workload, and the tracing overhead.

Usage, from the root of a checkout:

    python3 perfbench/summary.py --seed 1 --seconds 20 [--traced]

Runs ``perfbench/run.py`` once per workload, one after another, and prints
every end-to-end metric by name with its unit, plus ``failed_share`` (failed
over attempted operations).  ``--traced`` adds one traced run per workload
and prints traced against untraced operations per second.  ``hiding`` is
not in BENCHMARK.json: its Monte Carlo mutual-information intervals miss the
closed form at four of its seven grid points, so it cannot be a workload on
which no operation fails; it is kept here beside ``hiding-exact``, its exact
points alone, which is listed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sessions-n64", "sessions-geometry", "reports", "hiding-exact", "hiding")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    for workload in WORKLOADS:
        result = run(workload, args.seed, args.seconds, 0)
        attempted, failed = result["attempted"], result["failed"]
        print(f"{workload}: {attempted} operations, {failed} failed, correct={result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<14} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  {'failed_share':<14} {failed / attempted:>14.6g} ratio")
        if args.traced:
            traced = run(workload, args.seed, args.seconds, 1)["metrics"]
            print(
                f"  tracing: {traced['trace.traced_ops_per_s']['value']:.6g} traced against "
                f"{traced['trace.untraced_ops_per_s']['value']:.6g} untraced ops/s "
                f"(ratio {traced['trace.ops_per_s_ratio']['value']:.4f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
