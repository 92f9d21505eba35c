"""Span and counter recording around calls into certbit's public functions.

A :class:`Tracer` replaces each listed function with a wrapper in every
certbit namespace that holds it (``certbit.protocol.validate_schedule`` as
well as ``certbit.spacetime.validate_schedule``), and each listed method on
its class.  Wrappers append one span per call (name, start, end, parent
span, operation id) to in-memory arrays; counters are plain integers.
Nothing is written until :meth:`Tracer.dump` runs at the end of a run.
``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (metric prefix, module, attribute path) for every function that gets spans.
# Several entries may share a prefix: their spans are reported together.
SPANNED = (
    ("spacetime.validate_schedule", "certbit.spacetime", "validate_schedule"),
    ("spacetime.earliest_commitment_time", "certbit.spacetime", "earliest_commitment_time"),
    ("spacetime.in_past_cone", "certbit.spacetime", "in_past_cone"),
    ("protocol.run_session", "certbit.protocol", "run_session"),
    ("protocol.ReductionScenario.build_schedule", "certbit.protocol", "ReductionScenario.build_schedule"),
    ("protocol.draw_challenge", "certbit.protocol", "draw_challenge"),
    ("protocol.verify_tested", "certbit.protocol", "verify_tested"),
    ("protocol.verify_reveal", "certbit.protocol", "verify_reveal"),
    ("protocol.IdealCommitmentOracle.commit", "certbit.protocol", "IdealCommitmentOracle.commit"),
    ("protocol.SessionTranscript.to_records", "certbit.protocol", "SessionTranscript.to_records"),
    ("quantum.measure_label", "certbit.quantum", "measure_label"),
    ("quantum.measure", "certbit.quantum", "measure"),
    ("quantum.apply_purifier_unitary", "certbit.quantum", "apply_purifier_unitary"),
    ("quantum.purify", "certbit.quantum", "purify"),
    ("quantum.fidelity", "certbit.quantum", "fidelity"),
    ("adversary.plan_declarations", "certbit.adversary", "Honest.plan_declarations"),
    ("adversary.plan_declarations", "certbit.adversary", "ClassicalFlip.plan_declarations"),
    ("adversary.reveal_claim", "certbit.adversary", "Honest.reveal_claim"),
    ("adversary.reveal_claim", "certbit.adversary", "ClassicalFlip.reveal_claim"),
    ("adversary.purification_attack", "certbit.adversary", "purification_attack"),
    ("adversary.sweep_open_probability", "certbit.adversary", "sweep_open_probability"),
    ("adversary.weak_oracle_degradation", "certbit.adversary", "weak_oracle_degradation"),
    ("analysis.detection_probability_mc", "certbit.analysis", "detection_probability_mc"),
    ("analysis.bob_information.exact", "certbit.analysis", "_exact_view_statistics"),
    ("analysis.bob_information.monte_carlo", "certbit.analysis", "_sampled_view_statistics"),
    ("analysis.cheat_sum", "certbit.analysis", "cheat_sum"),
    ("analysis.evaluate_relativistic", "certbit.analysis", "evaluate_relativistic"),
    ("analysis.nogo_tradeoff_sweep", "certbit.analysis", "nogo_tradeoff_sweep"),
    ("analysis.SecurityReport.to_records", "certbit.analysis", "SecurityReport.to_records"),
    ("cli.parse_config", "certbit.cli", "parse_config"),
    ("cli.run_experiment", "certbit.cli", "run_experiment"),
)

# (counter name, module, attribute path): calls are counted, not timed.
COUNTED = (
    ("spacetime.Event.built", "certbit.spacetime", "Event.__post_init__"),
    ("quantum.StateVector.built", "certbit.quantum", "StateVector.__post_init__"),
    ("rng.split.calls", "certbit.rng", "RandomStream.split"),
) + tuple(
    ("rng.calls", "certbit.rng", f"RandomStream.{method}")
    for method in ("random", "integers", "bit", "bits", "permutation", "choice", "multinomial")
)

VERDICT_COUNTERS = (
    "protocol.verdict.accept",
    "protocol.verdict.reject_tested",
    "protocol.verdict.reject_reveal",
    "protocol.verdict.abort_schedule",
)
MI_GAUGE = "analysis.bob_information.mi_abs_error"

SPAN_PREFIXES = tuple(dict.fromkeys(prefix for prefix, _, _ in SPANNED))
COUNTER_NAMES = tuple(dict.fromkeys(name for name, _, _ in COUNTED)) + VERDICT_COUNTERS


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span store plus counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter({name: 0 for name in COUNTER_NAMES})
        self.gauges: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function, importing the certbit modules that hold them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for prefix, module_name, path in SPANNED:
            after = {
                "protocol.run_session": self._count_verdict,
                "analysis.bob_information.monte_carlo": self._gauge_mi,
            }.get(prefix)
            self._replace(module_name, path, lambda fn, p=prefix, a=after: self._span_wrapper(p, fn, a))
        for name, module_name, path in COUNTED:
            self._replace(module_name, path, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, module_name: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        # A module-level function: rebind it wherever certbit looks it up.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "certbit" or name.startswith("certbit.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, prefix: str, fn, after):
        if prefix not in self._name_ids:
            self._name_ids[prefix] = len(self.names)
            self.names.append(prefix)
        nid = self._name_ids[prefix]
        name_id, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack
        )
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(index)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_verdict(self, transcript, args) -> None:
        verdict = transcript.verdict.value
        stage = transcript.failed_stage.value if transcript.failed_stage else None
        key = {
            ("accept", None): "protocol.verdict.accept",
            ("reject", "tested-verify"): "protocol.verdict.reject_tested",
            ("reject", "reveal"): "protocol.verdict.reject_reveal",
            ("abort", "schedule"): "protocol.verdict.abort_schedule",
        }.get((verdict, stage))
        if key is not None:
            self.counters[key] += 1

    def _gauge_mi(self, result, args) -> None:
        params = args[0]
        if params.flip_probability != 0.0:
            return  # the closed form below holds for a leak-only oracle
        closed = 1.0 - (1.0 - params.leak_probability) ** params.m
        error = abs(result[1].value - closed)
        self.gauges[MI_GAUGE] = max(self.gauges.get(MI_GAUGE, 0.0), error)

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans, counters and gauges to ``path`` (numpy .npz)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
            gauge_names=np.array(list(self.gauges), dtype=str),
            gauge_values=np.array(list(self.gauges.values()), dtype=np.float64),
        )


class Profile:
    """Per-function calls, inclusive and self time, plus counters and gauges."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter({name: 0 for name in COUNTER_NAMES})
        self.gauges: dict[str, float] = {}

    def add_spans(self, names, name_id, start, end, parent) -> None:
        """Fold in one process's spans.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so that is the covered time.
        """
        name_id = np.asarray(name_id)
        duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
        parent = np.asarray(parent)
        has_parent = parent >= 0
        child_ns = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_ns = duration - child_ns
        for nid, name in enumerate(names):
            mask = name_id == nid
            self.calls[name] += int(np.count_nonzero(mask))
            self.ns[name] += int(duration[mask].sum())
            self.self_ns[name] += float(self_ns[mask].sum())

    def add_counts(self, counters: dict, gauges: dict) -> None:
        for name, value in counters.items():
            self.counters[name] += int(value)
        for name, value in gauges.items():
            self.gauges[name] = max(self.gauges.get(name, 0.0), float(value))

    def add_tracer(self, tracer: Tracer) -> None:
        self.add_spans(tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent)
        self.add_counts(tracer.counters, tracer.gauges)

    def add_dump(self, path) -> None:
        with np.load(path) as data:
            self.add_spans(
                [str(n) for n in data["names"]],
                data["name_id"], data["start"], data["end"], data["parent"],
            )
            self.add_counts(
                dict(zip((str(n) for n in data["counter_names"]), data["counter_values"])),
                dict(zip((str(n) for n in data["gauge_names"]), data["gauge_values"])),
            )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric this module defines, as name -> (value, unit)."""
        out = {}
        for prefix in SPAN_PREFIXES:
            out[f"{prefix}.calls"] = (self.calls[prefix], "count")
            out[f"{prefix}.ms"] = (self.ns[prefix] / 1e6, "ms")
            out[f"{prefix}.self_ms"] = (self.self_ns[prefix] / 1e6, "ms")
        for name in COUNTER_NAMES:
            out[name] = (self.counters[name], "count")
        sessions = self.calls["protocol.run_session"]
        accepted = self.counters["protocol.verdict.accept"]
        out["protocol.accept_ratio"] = (accepted / sessions if sessions else 0.0, "ratio")
        out[MI_GAUGE] = (self.gauges.get(MI_GAUGE, 0.0), "bits")
        return out
