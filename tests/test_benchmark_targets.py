"""The benchmark's trace targets and session checks hold against the library.

``perfbench/spans.py`` wraps certbit functions and methods by module and
attribute name, and a name that does not resolve stops its traced runs.
This loads that file by path, without changing it, and resolves every
target the way its tracer does, so a rename in ``src/`` that would break
the benchmark fails here first.  The tracer replaces a method through its
class's own ``__dict__``, so a method a class only inherits does not
resolve.  ``perfbench/checks.py`` judges every session the benchmark runs
by the transcript's fields; it is loaded the same way, and must accept the
sessions it is written for and reject the bad transcripts the benchmark's
own tests build.
"""

import dataclasses
import importlib.util
from pathlib import Path

from certbit.adversary import ClassicalFlip, Honest
from certbit.protocol import ProtocolParams, default_scenario, run_session
from certbit.quantum import basis_eigenstates
from certbit.rng import RandomStream
from certbit.spacetime import Message

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = load("spans")
    targets = [(module, path) for _, module, path in spans.SPANNED + spans.COUNTED]
    assert targets
    missing = []
    for module, path in targets:
        try:
            owner, attr = spans._resolve(module, path)
            if isinstance(owner, type):
                owner.__dict__[attr]
            else:
                getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{path}")
    assert missing == []


def superluminal_spin0(messages):
    """spin[0] reaches B0 halfway through its light travel time, as in the benchmark's tampered sessions."""
    b0 = default_scenario().sites[0]
    out = []
    for m in messages:
        if m.payload == "spin[0]":
            m = Message(m.sender, m.receiver, m.emit, b0.event_at(0.5 * (m.emit.t + m.receive.t)), m.payload)
        out.append(m)
    return out


def test_session_checks_accept_good_sessions_and_reject_bad_transcripts():
    checks = load("checks")
    params = ProtocolParams(n0=64, m=16)

    def session(strategy=Honest(), scenario=None):
        return run_session(strategy, params, scenario, RandomStream(3))

    tampered = session(scenario=dataclasses.replace(default_scenario(), tamper=superluminal_spin0))
    assert checks.honest_session_ok(session())
    assert checks.flip_session_ok(session(ClassicalFlip(3)))
    assert checks.tampered_session_ok(tampered)
    assert not checks.tampered_session_ok(session()) and not checks.flip_session_ok(tampered)

    # The two bad transcripts perfbench's tests build.
    transcript = session()
    labels = list(transcript.claimed_labels)
    labels[0] = next(x for x in basis_eigenstates(labels[0].basis) if x is not labels[0])
    assert not checks.honest_session_ok(dataclasses.replace(transcript, claimed_labels=tuple(labels)))
    first, *rest = transcript.declarations
    flipped = dataclasses.replace(first, basis_for_zero=first.basis_for_zero.conjugate())
    assert not checks.honest_session_ok(dataclasses.replace(transcript, declarations=(flipped, *rest)))
