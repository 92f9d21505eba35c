"""The workloads: inputs made from a seed, one timed call per operation, its check.

Every workload is a closed loop with one client.  ``generate`` makes the
inputs (it is part of set-up time) and ``op(i)`` returns the i-th operation.
A workload with a ``pass_length`` runs whole passes over a fixed list; the
others run an open-ended sequence.  ``bind`` prepares one operation outside
the timed region and returns the call to time, and ``check`` judges its
output.  ``finish`` applies checks that need the whole run.

certbit must be importable before this module is imported.
"""

from __future__ import annotations

import functools
import math
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import certbit.analysis as analysis
import certbit.protocol as protocol
from certbit.adversary import ClassicalFlip, Honest
from certbit.protocol import ProtocolParams, ReductionScenario
from certbit.rng import RandomStream
from certbit.spacetime import Message, Site

import checks
from measure import child_env, run_child

HERE = Path(__file__).resolve().parent

CONFIGS = (
    "causal-violation",
    "entangle-demo",
    "flip-sweep",
    "honest-default",
    "oracle-degradation",
    "purification-nogo",
)


class Workload:
    """Defaults: an open-ended run, no run-level check, peak RSS of this process."""

    pass_length: int | None = None
    children_rss = False
    speed = None  # the run's HostSpeed, for workloads that sample it during an operation

    def __init__(self, root: Path):
        self.root = root

    def begin(self) -> None:
        pass

    def finish(self) -> list[int]:
        """Indices of operations that fail a check over the whole run."""
        return []


class SessionsN64(Workload):
    """Honest ``run_session`` at n0=64, m=16 on the default line, one seeded stream."""

    name = "sessions-n64"
    trace_ops = 300

    def generate(self, seed: int) -> None:
        self.params = ProtocolParams(n0=64, m=16)
        self.scenario = protocol.default_scenario()
        self.stream = RandomStream(seed)

    def op(self, index: int):
        return None

    def bind(self, index: int, op, trace_dir=None):
        return functools.partial(
            protocol.run_session, Honest(), self.params, self.scenario, self.stream
        )

    def check(self, index: int, op, transcript) -> bool:
        return checks.honest_session_ok(transcript)


@dataclass(frozen=True)
class GeometryOp:
    kind: str  # "honest" | "flip" | "tampered"
    params: ProtocolParams
    scenario: ReductionScenario
    k: int = 0


def superluminal_spin0(b0: Site):
    """Tamper: spin[0] reaches B0's worldline halfway through its light travel time."""

    def tamper(messages):
        out = []
        for message in messages:
            if message.payload == "spin[0]":
                early = b0.event_at(0.5 * (message.emit.t + message.receive.t))
                message = Message(message.sender, message.receiver, message.emit, early, message.payload)
            out.append(message)
        return out

    return tamper


def _velocity(rng: random.Random) -> tuple[float, float, float]:
    return tuple(rng.uniform(-0.3, 0.3) for _ in range(3))


def _position(rng: random.Random) -> tuple[float, float, float]:
    # At least unit distance from B0's start, so spin[0]'s flight is not tiny.
    while True:
        position = tuple(rng.uniform(-4.0, 4.0) for _ in range(3))
        if math.dist(position, (0.0, 0.0, 0.0)) >= 1.0:
            return position


def random_scenario(
    rng: random.Random, tampered: bool, committers: int, receivers: int, rounds: int
) -> ReductionScenario:
    """Seeded positions and velocities for a given shape of scenario."""
    b0 = Site("B0", (0.0, 0.0, 0.0), _velocity(rng))
    sender_sites = [Site(f"A{i + 1}", _position(rng), _velocity(rng)) for i in range(committers)]
    receiver_sites = [Site(f"B{i + 1}", _position(rng), _velocity(rng)) for i in range(receivers)]
    return ReductionScenario(
        name="benchmark-geometry",
        sites=(b0, *sender_sites, *receiver_sites),
        b0_id="B0",
        alice_id="A1",
        oracle_pairs=tuple((a.id, b.id) for a in sender_sites for b in receiver_sites),
        suspension_rounds=rounds,
        tamper=superluminal_spin0(b0) if tampered else None,
    )


# One block of 60 sessions: (n0, sessions) with 6 honest, 3 flip and 1 tampered
# per 10.  n0 = 64 fills 30 of the 60 so the median latency falls well inside
# the n0 = 64 cluster rather than on its lower edge or in the gap below it,
# where it would jump.
GEOMETRY_BLOCK = ((16, 10), (32, 10), (64, 30), (128, 10))
GEOMETRY_KINDS = ("honest",) * 6 + ("flip",) * 3 + ("tampered",)
# Every block has the same shapes: (n0, kind, committers, receivers, suspension
# rounds), with the 3 x 3 x 4 site counts and rounds cycled through the block,
# so every run has the same mix.  Positions, velocities, flip k and the order
# within the block come from the seed.
GEOMETRY_SHAPES = tuple(
    (n0, kind, 1 + j % 3, 1 + (j // 3) % 3, j % 4)
    for j, (n0, kind) in enumerate(
        (n0, kind) for n0, count in GEOMETRY_BLOCK for kind in GEOMETRY_KINDS * (count // len(GEOMETRY_KINDS))
    )
)


class SessionsGeometry(Workload):
    """Every session on a fresh seeded geometry: moving sites, 1-3 committers and receivers."""

    name = "sessions-geometry"
    trace_ops = 300

    def generate(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.params = {n0: ProtocolParams(n0=n0, m=n0 // 4) for n0, _ in GEOMETRY_BLOCK}
        self.stream = RandomStream(seed)
        self.block_start = 0
        self.block = self._next_block()

    def _next_block(self) -> list[GeometryOp]:
        block = []
        for n0, kind, committers, receivers, rounds in GEOMETRY_SHAPES:
            m = self.params[n0].m
            k = self.rng.randint(1, min(m, 8)) if kind == "flip" else 0
            scenario = random_scenario(self.rng, kind == "tampered", committers, receivers, rounds)
            block.append(GeometryOp(kind, self.params[n0], scenario, k))
        self.rng.shuffle(block)
        return block

    def op(self, index: int) -> GeometryOp:
        """Operations are drawn in order, one block at a time; no geometry repeats."""
        while index >= self.block_start + len(self.block):
            self.block_start += len(self.block)
            self.block = self._next_block()
        return self.block[index - self.block_start]

    def bind(self, index: int, op: GeometryOp, trace_dir=None):
        strategy = ClassicalFlip(op.k) if op.kind == "flip" else Honest()
        return functools.partial(protocol.run_session, strategy, op.params, op.scenario, self.stream)

    def begin(self) -> None:
        self.flips: list[tuple[int, int, bool]] = []

    def check(self, index: int, op: GeometryOp, transcript) -> bool:
        if op.kind == "honest":
            return checks.honest_session_ok(transcript)
        if op.kind == "tampered":
            return checks.tampered_session_ok(transcript)
        self.flips.append((index, op.k, transcript.verdict.value == "accept"))
        return checks.flip_session_ok(transcript)

    def finish(self) -> list[int]:
        """Every flip session fails when the run's pass count misses 4 sigma of sum 2^-k."""
        passed = sum(accepted for _, _, accepted in self.flips)
        if checks.flip_passes_ok(passed, [k for _, k, _ in self.flips]):
            return []
        return [index for index, _, _ in self.flips]


class Reports(Workload):
    """Each shipped config as a cold ``certbit run`` in its own interpreter."""

    name = "reports"
    pass_length = len(CONFIGS)
    trace_ops = len(CONFIGS)
    children_rss = True

    def __init__(self, root: Path):
        super().__init__(root)
        self.scratch = root / ".perfbench_out" / "reports"
        self.env = child_env(root)

    def generate(self, seed: int) -> None:
        missing = [c for c in CONFIGS if not (self.root / "configs" / f"{c}.ini").is_file()]
        if missing:
            raise FileNotFoundError(f"shipped configs missing: {', '.join(missing)}")
        self.expected = {
            c: checks.read_expected_reports(self.root / "runs" / c) for c in CONFIGS
        }
        for config, files in self.expected.items():
            if files["report.jsonl"] is None:
                raise FileNotFoundError(f"runs/{config}/report.jsonl is not in the checkout")
        order = list(CONFIGS)
        random.Random(seed).shuffle(order)
        self.ops = order

    def op(self, index: int) -> str:
        return self.ops[index % len(self.ops)]

    def bind(self, index: int, config: str, trace_dir: Path | None = None):
        out = self.scratch / config
        shutil.rmtree(out, ignore_errors=True)
        cli = ["run", str(self.root / "configs" / f"{config}.ini"), "--format", "machine", "--out", str(out)]
        if trace_dir is None:
            argv = [sys.executable, "-m", "certbit.cli", *cli]
        else:
            spans_out = trace_dir / f"{index:03d}-{config}.npz"
            argv = [sys.executable, str(HERE / "child.py"), str(spans_out), *cli]

        def call():
            status, stderr = run_child(argv, self.env, self.root, speed=self.speed)
            return status, out, stderr

        return call

    def check(self, index: int, config: str, result) -> bool:
        status, out, stderr = result
        ok = checks.report_status_ok(config, status) and checks.reports_match(out, self.expected[config])
        if not ok:
            print(f"reports: {config} failed (exit {status}): {stderr.strip()[-500:]}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return ok


HIDING_EXACT_SIZES = ((6, 1), (6, 2))
HIDING_LEAKS = (0.0, 0.01, 0.05, 0.1, 1.0)
HIDING_TRIALS = 50_000


@dataclass(frozen=True)
class HidingOp:
    mode: str  # "exact" | "monte-carlo"
    params: ProtocolParams
    stream_seed: int = 0


class Hiding(Workload):
    """``bob_information`` over a fixed grid: exact enumeration and leak-sweep Monte Carlo."""

    name = "hiding"
    exact_sizes = HIDING_EXACT_SIZES
    leaks = HIDING_LEAKS

    @property
    def pass_length(self) -> int:
        return len(self.exact_sizes) + len(self.leaks)

    trace_ops = pass_length

    def generate(self, seed: int) -> None:
        rng = random.Random(seed)
        ops = [
            HidingOp("exact", ProtocolParams(n0=n0, m=m, strict=False)) for n0, m in self.exact_sizes
        ]
        ops += [
            HidingOp("monte-carlo", ProtocolParams(n0=64, m=16, leak_probability=q), rng.getrandbits(63))
            for q in self.leaks
        ]
        self.ops = ops

    def op(self, index: int) -> HidingOp:
        return self.ops[index % len(self.ops)]

    def bind(self, index: int, op: HidingOp, trace_dir=None):
        if op.mode == "exact":
            return functools.partial(analysis.bob_information, op.params, mode="exact")
        return functools.partial(
            analysis.bob_information,
            op.params,
            trials=HIDING_TRIALS,
            randomness=RandomStream(op.stream_seed),
            mode="monte-carlo",
        )

    def check(self, index: int, op: HidingOp, bob) -> bool:
        if op.mode == "exact":
            return checks.hiding_exact_ok(bob)
        return checks.hiding_mc_ok(bob, op.params.leak_probability, op.params.m)


class HidingExact(Hiding):
    """The exact points of ``hiding`` alone: the exact view enumeration, on which nothing fails."""

    name = "hiding-exact"
    leaks = ()


WORKLOADS = {w.name: w for w in (SessionsN64, SessionsGeometry, Reports, Hiding, HidingExact)}
