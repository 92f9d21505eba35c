"""Run ``certbit.cli.main`` with the benchmark's span wrappers installed.

Usage: python3 perfbench/child.py SPANS_OUT CLI_ARG...

The reports workload starts one of these per config in its traced run.
Spans, counters and gauges are written to SPANS_OUT (.npz) when the CLI
returns; the exit status is the CLI's.
"""

import sys

import certbit.cli

from spans import Tracer


def main() -> int:
    spans_out, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return certbit.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
