"""Statistics, host speed, child processes and provenance shared by the benchmark scripts."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_NOMINAL_S = 0.010


def pin_blas_threads() -> None:
    """One BLAS thread, so load comes from one thread; call before importing numpy."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_to_one_cpu() -> int:
    """Run this process, and the children it starts, on one CPU; returns it.

    The reference blocks of ``HostSpeed`` then measure the CPU the
    operations run on.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class _Reference:
    """A fixed block of work in three parts, each a third of it on a quiet host.

    Interpreter work like a session's (tuples, dicts, float maths, string
    formatting), small numpy arithmetic, and lookups in random order in a
    dict of about 10 MB, more than a core's own caches hold, like the exact
    hiding enumeration's view tables.
    """

    def __init__(self):
        import numpy

        self.vector = numpy.arange(4.0)
        self.table = {key: key & 0xFF for key in range(0, 7 * 150_000, 7)}
        self.order = random.Random(0).sample(list(self.table), 28_000)

    def work(self) -> float:
        counts: dict[int, float] = {}
        total = 0.0
        for i in range(4600):
            point = (i % 7, i % 11, float(i))
            counts[point[0]] = counts.get(point[0], 0.0) + math.hypot(point[1], point[2])
            total += len(f"{i}:{point[1]}")
        x = self.vector
        for _ in range(720):
            x = abs(self.vector * 1j + x)[::-1] / 2.0
        table = self.table
        for key in self.order:
            total += table[key]
        return total + float(x.sum()) + sum(counts.values())


_REFERENCE: _Reference | None = None


def reference_seconds() -> float:
    """CPU seconds one fixed reference block takes now, with the collector paused.

    CPU time, so a block run while a child holds the same CPU counts only
    its own time.
    """
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = _Reference()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _REFERENCE.work()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Scales operation times to a host that runs the reference block in 10 ms.

    Other tenants of the host slow this machine by up to 2x for spells of
    seconds to minutes; thread CPU time slows with wall time, so it is not
    preemption, and a spell can cover a whole run.  A fixed reference block
    runs after every ``every_s`` seconds of operations, and the operations
    between two blocks are scaled by ``REFERENCE_NOMINAL_S`` over the mean of
    those two blocks and of any block ``sample`` ran during them.  A change
    to the program moves the scaled times as it moves the raw ones, since
    the reference block does not change.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        reference_seconds()  # warm-up
        self.blocks = [reference_seconds()]
        self.during: list[float] = []
        self.pending: list[float] = []
        self.scaled: list[float] = []

    def sample(self) -> None:
        """Run a block while an operation is under way, as when it waits for a child."""
        self.during.append(reference_seconds())

    def sampled_ns(self) -> int:
        """CPU time of the blocks run during the current operation, to take out of its time."""
        return round(sum(self.during) * 1e9)

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)
        if sum(self.pending) >= self.every_s:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        self.blocks.append(reference_seconds())
        around = [self.blocks[-2], *self.during, self.blocks[-1]]
        factor = REFERENCE_NOMINAL_S * len(around) / sum(around)
        self.scaled.extend(seconds * factor for seconds in self.pending)
        self.pending, self.during = [], []


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, env, cwd, timeout: float = 170.0, speed: HostSpeed | None = None) -> tuple[int, str]:
    """Run a child to completion: (exit code, stderr).

    With ``speed``, ``speed.sample()`` runs a reference block every 0.1 s
    while the child runs, on the CPU the two share.
    """
    with tempfile.TemporaryFile(mode="w+") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=stderr, text=True)
        try:
            while True:
                try:
                    proc.wait(timeout=timeout if speed is None else 0.1)
                    break
                except subprocess.TimeoutExpired:
                    if speed is None or time.perf_counter() - start > timeout:
                        raise
                    speed.sample()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        stderr.seek(0)
        return proc.returncode, stderr.read()


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size; Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def fresh_import_seconds(root: Path, module: str, preload: str = "") -> float:
    """Seconds to import ``module`` in a new interpreter, after untimed ``preload``."""
    code = (
        "import time\n"
        f"{'import ' + preload if preload else ''}\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(root),
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def tail(samples) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than 21 samples
    that percentile would sit at or below the median, so the maximum is
    reported instead, as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11
    if index <= (n - 1) // 2:
        return ordered[-1], 100.0, n
    return ordered[index], 100.0 * (index + 1) / n, n


def block_tail(samples, block: int) -> tuple[float, float, int, int]:
    """``tail`` of each ``block`` consecutive samples, and the median over the blocks.

    Over a whole run the percentile would climb with the operation count,
    which follows the host's speed, and cross from ordinary operations into
    the few collector pauses.  A fixed block keeps it at one percentile.
    Returns (value, percentile, samples per block, blocks); a run shorter
    than one block is one block.
    """
    from statistics import median

    starts = range(0, len(samples) - block + 1, block) or [0]
    tails = [tail(samples[i:i + block]) for i in starts]
    return median(t[0] for t in tails), tails[0][1], tails[0][2], len(tails)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, seed: int, workload: str, operations: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "operations": operations,
        "git_sha": _git_sha(root),
        "src_sha256": _source_sha256(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
