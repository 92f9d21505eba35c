"""certbit benchmark: one workload, one run, metrics as the last line of stdout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sessions-n64 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed number of operations twice, untraced and then with
span wrappers installed, and reports per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; provenance is printed
on the line before and saved with the result under ``.perfbench_out/``.
The program is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path
from statistics import median

from measure import (
    HostSpeed,
    block_tail,
    fresh_import_seconds,
    peak_rss_mb,
    pin_blas_threads,
    pin_to_one_cpu,
    provenance,
    tail,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_PASSES = 2
REFERENCE_EVERY_S = 0.1
TAIL_BLOCK = 240  # four sessions-geometry blocks


def run_ops(workload, *, seconds=None, count=None, tracer=None, trace_dir=None, speed=None):
    """Closed loop, one client: ``count`` operations, or until ``seconds`` have passed.

    A workload with passes runs the whole number of passes whose total time is
    closest to ``seconds``, and at least ``MIN_PASSES`` of them.
    Returns per-operation latencies (ns) and whether each operation passed;
    a ``HostSpeed`` given as ``speed`` also receives every latency.
    """
    workload.begin()
    workload.speed = speed
    latencies, oks = array("q"), []
    start = time.perf_counter()
    index = 0
    while True:
        if count is not None:
            if index >= count:
                break
        elif workload.pass_length is None:
            if index and time.perf_counter() - start >= seconds:
                break
        elif index % workload.pass_length == 0 and index >= MIN_PASSES * workload.pass_length:
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 / (index // workload.pass_length)) >= seconds:
                break
        op = workload.op(index)
        call = workload.bind(index, op, trace_dir)
        if tracer is not None:
            tracer.op_id = index
        t0 = time.perf_counter_ns()
        try:
            output = call()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            output, error = None, exc
        t1 = time.perf_counter_ns()
        if error is None:
            try:
                ok = bool(workload.check(index, op, output))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if error is not None:
            print(f"{workload.name}: operation {index} failed: {error!r}", file=sys.stderr)
        latency = t1 - t0 - (speed.sampled_ns() if speed is not None else 0)
        latencies.append(latency)
        if speed is not None:
            speed.add(latency / 1e9)
        oks.append(ok)
        index += 1
    if speed is not None:
        speed.flush()
    for failed in workload.finish():
        oks[failed] = False
    return latencies, oks


def end_to_end(workload, seed: int, seconds: float):
    setup = HostSpeed(every_s=0.0)
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_seconds(ROOT, "certbit")
        t0 = time.perf_counter()
        workload.generate(seed)
        setup.add(imported + time.perf_counter() - t0)
    speed = HostSpeed(every_s=REFERENCE_EVERY_S)
    latencies, oks = run_ops(workload, seconds=seconds, speed=speed)
    attempted, failed = len(oks), oks.count(False)
    scaled = speed.scaled
    raw_rate = attempted / (sum(latencies) / 1e9)
    if workload.pass_length is None:
        rate = attempted / sum(scaled)
        p50 = median(scaled)
        tail_s, tail_pct, n, blocks = block_tail(scaled, TAIL_BLOCK)
        tail_note = f"p{tail_pct:.2f} of {n} samples, median over {blocks} blocks"
        described = f"median of {attempted} operations"
    else:
        # Each operation of the pass stands for itself with its median over the passes.
        length = workload.pass_length
        per_op = [median(scaled[i::length]) for i in range(length)]
        rate = length / sum(per_op)
        p50 = median(per_op)
        tail_s, tail_pct, n = tail(per_op)
        tail_note = f"p{tail_pct:.2f} of {n} samples"
        described = f"{length} operations, each its median of {attempted // length} passes"
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if workload.children_rss else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (median(setup.scaled), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS}",
        "ops_per_s": f"unscaled {raw_rate:.6g}/s: the host ran at {raw_rate / rate:.3f} of nominal speed",
        "op_p50_ms": described,
        "op_tail_ms": tail_note,
        "ok_share": f"failed_share {failed / attempted:.6g} ({failed} of {attempted})",
    }
    return metrics, notes, attempted, failed


def per_layer(workload, seed: int, name: str):
    # Imported here so an untraced run never loads the wrappers.
    from spans import Profile, Tracer
    from workloads import CONFIGS

    n = workload.trace_ops
    workload.generate(seed)
    plain, plain_ok = run_ops(workload, count=n)

    trace_dir = OUT / "spans" / f"{name}-seed{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.npz"):
        old.unlink()
    workload.generate(seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_ok = run_ops(workload, count=n, tracer=tracer, trace_dir=trace_dir)
    finally:
        tracer.uninstall()
    tracer.dump(trace_dir / "main.npz")

    profile = Profile()
    profile.add_tracer(tracer)
    for dump in sorted(trace_dir.glob("[0-9]*.npz")):
        profile.add_dump(dump)
    metrics = profile.metrics()

    config_ms = dict.fromkeys(CONFIGS, 0.0)
    if workload.name == "reports":
        for index, latency in enumerate(plain):
            config_ms[workload.op(index)] += latency / 1e6
    for config, ms in config_ms.items():
        metrics[f"scenarios.{config}.ms"] = (ms, "ms")

    metrics["setup.import_certbit_ms"] = (
        1e3 * median([fresh_import_seconds(ROOT, "certbit") for _ in range(IMPORT_REPEATS)]),
        "ms",
    )
    metrics["setup.import_scipy_optimize_ms"] = (
        1e3 * median(
            [fresh_import_seconds(ROOT, "scipy.optimize", preload="numpy") for _ in range(IMPORT_REPEATS)]
        ),
        "ms",
    )
    plain_rate = len(plain) / (sum(plain) / 1e9)
    traced_rate = len(traced) / (sum(traced) / 1e9)
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_ratio"] = (traced_rate / plain_rate, "ratio")
    oks = plain_ok + traced_ok
    notes = {"trace.ops_per_s_ratio": f"traced over untraced ops_per_s, {n} operations each"}
    return metrics, notes, len(oks), oks.count(False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "certbit" / "__init__.py").is_file():
        print(f"error: no certbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    cores = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import certbit

    if Path(certbit.__file__).resolve().parent != (ROOT / "src" / "certbit").resolve():
        print(f"error: certbit imported from {certbit.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT)
    if args.trace:
        metrics, notes, attempted, failed = per_layer(workload, args.seed, args.workload)
    else:
        metrics, notes, attempted, failed = end_to_end(workload, args.seed, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>16.6f} {unit}{note}")
    info = provenance(ROOT, args.seed, args.workload, attempted, bool(args.trace))
    info.update(nproc=cores, pinned_cpu=cpu)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": info, "notes": notes, **result}, indent=1) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
