"""State machine for the oracle-certified bit-commitment reduction.

One run: a batch of 2*N0 ideal-oracle commitments to random bits, a
sequence of N0 conjugate-basis spin particles correlated with the
committed pairs, a random challenge opening all but M of them, basis
declarations that bind a single protocol bit to the surviving particles,
an optional suspension period, and a final reveal that the verifier
checks by single-shot measurements.

The commitment oracle is ideal by default: a revealed bit always equals
the committed bit, and nothing leaks before reveal.  Two knobs let it be
degraded deliberately (see :class:`IdealCommitmentOracle`); the oracle
accepts classical bits only.
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quantum import (
    Basis,
    SpinLabel,
    basis_eigenstates,
    signal_probabilities,
)
from .rng import RandomStream
from .spacetime import (
    Event,
    Flight,
    Schedule,
    Site,
    Violation,
    _arrival,
    _group_flights,
    earliest_commitment_time,
    validate_schedule,
)

__all__ = [
    "ProtocolParams",
    "DEFAULT_ENCODING",
    "Declaration",
    "IdealCommitmentOracle",
    "Verdict",
    "Stage",
    "TestedOutcome",
    "RevealOutcome",
    "SessionTranscript",
    "ReductionScenario",
    "default_scenario",
    "draw_challenge",
    "verify_tested",
    "honest_declarations",
    "verify_reveal",
    "run_session",
    "run_sessions",
]


# Smallest n0 / m that a strict ProtocolParams accepts.
MIN_RATIO = 4


@dataclass(frozen=True)
class ProtocolParams:
    """Sizes and oracle knobs for one reduction run.

    ``n0 >> m`` is operationalized as ``n0 >= MIN_RATIO * m``; pass
    ``strict=False`` to relax it for small test instances.
    ``flip_probability`` and ``leak_probability`` degrade the oracle; at
    zero it is ideal.
    """

    n0: int
    m: int
    flip_probability: float = 0.0
    leak_probability: float = 0.0
    strict: bool = True

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n0 < self.m:
            raise ValueError(f"n0={self.n0} must be >= m={self.m}")
        if self.strict and self.n0 < MIN_RATIO * self.m:
            raise ValueError(
                f"n0={self.n0} must be >= {MIN_RATIO}*m={MIN_RATIO * self.m}"
                " (pass strict=False for degenerate test sizes)"
            )
        for name in ("flip_probability", "leak_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def n_commitments(self) -> int:
        return 2 * self.n0

    @property
    def n_tested(self) -> int:
        return self.n0 - self.m

    @property
    def epsilons(self) -> tuple[float, float]:
        """The (fidelity-defect, leak) pair in force."""
        return (self.flip_probability, self.leak_probability)


# Committed bit pair -> spin state sent: (0,0) -> up, (0,1) -> down,
# (1,0) -> left, (1,1) -> right.  The first bit selects the basis, the
# second the eigenstate within it.
DEFAULT_ENCODING = {
    (0, 0): SpinLabel.UP,
    (0, 1): SpinLabel.DOWN,
    (1, 0): SpinLabel.LEFT,
    (1, 1): SpinLabel.RIGHT,
}

# The sessions name each signal state by the code 2*b0 + b1 of the pair
# (b0, b1) that sends it.
_SIGNALS = tuple(DEFAULT_ENCODING[divmod(code, 2)] for code in range(4))
# _P0[s, c]: Born probability of outcome 0 for signal s measured in the basis of signal c.
_P0 = np.array([[signal_probabilities(s, c.basis)[0] for c in _SIGNALS] for s in _SIGNALS])
# _OUTCOME[c]: the outcome that collapses onto signal c in its own basis.
_OUTCOME = np.array([basis_eigenstates(c.basis).index(c) for c in _SIGNALS])
# _CODES[label value]: the pair code that sends the signal state.
_CODES = {label.value: code for code, label in enumerate(_SIGNALS)}
# _BASIS_FOR_ZERO[bit][label value]: the basis a declaration must bind to bit 0
# for ``bit`` to name the label's own basis.  Keyed by value, as
# ``SpinLabel.basis`` is; a dict keyed by bit has no entry for -1 or 2, and
# ``verify_reveal`` reads it for integer bits only, since 1.0 would find 1.
_BASIS_FOR_ZERO = {
    0: {label.value: label.basis for label in SpinLabel},
    1: {label.value: label.basis.conjugate() for label in SpinLabel},
}


def _collapses(sent, target, uniforms) -> np.ndarray:
    """Whether each signal ``sent``, measured in the basis of signal ``target``, collapses onto ``target``.

    Signals are pair codes, with one uniform per measurement.  Outcome 0
    comes iff the uniform is below its Born probability, as in
    ``quantum.measure_label``, so one uniform gives both the same outcome.
    """
    return (uniforms >= _P0[sent, target]) == _OUTCOME[target]


def _first_failure(particles: np.ndarray, passed: np.ndarray) -> int | None:
    """The first particle whose check failed, or None if all passed."""
    checks = passed.tolist()
    return int(particles[checks.index(False)]) if False in checks else None


@dataclass(frozen=True)
class Declaration:
    """Public binding of each possible protocol bit to a basis for one particle.

    Reads as: if the protocol bit is 0 the particle is an eigenstate of
    ``basis_for_zero``, if it is 1 an eigenstate of the conjugate basis.
    """

    particle: int
    basis_for_zero: Basis

    @property
    def basis_for_one(self) -> Basis:
        return self.basis_for_zero.conjugate()

    def basis_for(self, bit: int) -> Basis:
        return self.basis_for_zero if bit == 0 else self.basis_for_one


class IdealCommitmentOracle:
    """Trusted functionality certifying that reveals return the committed bit.

    ``commit(bits, randomness)`` commits a whole batch once; bit ``i`` sits
    at index ``i``.  With both knobs at zero, ``reveal(i)`` returns exactly
    ``bits[i]`` and the receiver learns nothing earlier.  With
    ``flip_probability`` > 0 the certified value differs from the committed
    input with that probability (a fidelity defect, drawn once at commit
    time); with ``leak_probability`` > 0 the certified value becomes part of
    the receiver's view at commit time.  Inputs are classical bits only.

    ``commit`` makes one array draw: shape ``(n, 2)`` with both knobs above
    zero (column 0 decides each flip, column 1 each leak, so row by row the
    order of one flip and then one leak uniform per bit), shape ``(n,)``
    with one knob above zero, and no draw with both at zero.
    """

    def __init__(self, flip_probability: float = 0.0, leak_probability: float = 0.0):
        for name, value in (("flip_probability", flip_probability), ("leak_probability", leak_probability)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        self.flip_probability = flip_probability
        self.leak_probability = leak_probability
        self._stored = np.zeros(0, dtype=np.int64)
        self._committed = False
        self._opened: set[int] = set()
        self._leaked = np.zeros(0, dtype=np.int64)

    def commit(self, bits, randomness: RandomStream) -> None:
        if self._committed:
            raise ValueError("bits already committed")
        bits = np.asarray(bits)
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("oracle accepts classical bits only")
        n = len(bits)
        flip = leak = np.zeros(n, dtype=bool)
        if self.flip_probability > 0.0 and self.leak_probability > 0.0:
            uniforms = randomness.random((n, 2))
            flip = uniforms[:, 0] < self.flip_probability
            leak = uniforms[:, 1] < self.leak_probability
        elif self.flip_probability > 0.0:
            flip = randomness.random(n) < self.flip_probability
        elif self.leak_probability > 0.0:
            leak = randomness.random(n) < self.leak_probability
        self._stored = bits.astype(np.int64) ^ flip
        self._leaked = np.flatnonzero(leak)
        self._committed = True

    def reveal(self, index):
        """The certified bit at ``index``, or the array of them at an integer index array.

        Every index read counts as opened.
        """
        indices = np.asarray(index)
        if not ((indices >= 0) & (indices < len(self._stored))).all():
            raise KeyError(f"no commitment at index {index}")
        self._opened.update(indices.ravel().tolist())
        certified = self._stored[indices]
        return int(certified) if indices.ndim == 0 else certified

    @property
    def opened_indices(self) -> frozenset[int]:
        return frozenset(self._opened)

    @property
    def leaked_view(self) -> dict[int, int]:
        """What the receiver saw before any reveal."""
        return dict(zip(self._leaked.tolist(), self._stored[self._leaked].tolist()))


class Verdict(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ABORT = "abort"


class Stage(enum.Enum):
    """The stage at which a session was aborted or rejected."""

    SCHEDULE = "schedule"
    TESTED = "tested-verify"
    REVEAL = "reveal"


@dataclass(frozen=True)
class TestedOutcome:
    accepted: bool
    reject_index: int | None = None


@dataclass(frozen=True)
class RevealOutcome:
    accepted: bool
    reject_index: int | None = None
    reason: str = ""


def spin_labels(bits) -> list[SpinLabel]:
    bits = tuple(int(b) for b in bits)
    return [DEFAULT_ENCODING[(bits[2 * i], bits[2 * i + 1])] for i in range(len(bits) // 2)]


def draw_challenge(params: ProtocolParams, randomness: RandomStream) -> tuple[int, ...]:
    """Uniformly random subset of n0 - m particle indices, sorted."""
    picked = randomness.permutation(params.n0)[: params.n_tested]
    return tuple(np.sort(picked).tolist())


def verify_tested(tested, opened, sent, randomness: RandomStream) -> TestedOutcome:
    """Measure each challenged particle in the basis its opened pair names.

    ``opened[j]`` is the pair code 2*b0 + b1 the oracle certified for
    particle ``tested[j]``, and particle ``i`` is in the signal state of
    pair code ``sent[i]``.  Accepts iff every single-shot outcome is the
    exact eigenstate the opened pair encodes (each particle is one copy);
    a rejection names the first tested particle that failed.

    Draws once: ``randomness.random(len(tested))``, uniform ``j`` for
    particle ``tested[j]``.  The whole array is drawn even when a particle
    fails, so a fresh stream gives the outcome a draw per particle up to the
    first failure would, and a shared stream is further along after a
    rejection.
    """
    tested = np.asarray(tested, dtype=np.int64)
    opened = np.asarray(opened, dtype=np.int64)
    if opened.shape != tested.shape:
        raise ValueError(f"{opened.size} oracle reveals for {tested.size} tested particles")
    sent = np.asarray(sent, dtype=np.int64)
    reject = _first_failure(tested, _collapses(sent[tested], opened, randomness.random(tested.size)))
    return TestedOutcome(reject is None, reject_index=reject)


def honest_declarations(bit: int, particles, labels) -> tuple[Declaration, ...]:
    """Truthful declarations: bind ``bit`` (any nonzero bit as 1) to each particle's actual basis."""
    bases = _BASIS_FOR_ZERO[0 if bit == 0 else 1]
    return tuple([Declaration(particle, bases[label._value_]) for particle, label in zip(particles, labels)])


def verify_reveal(
    claimed_bit: int,
    claimed_labels,
    declarations,
    sent,
    randomness: RandomStream,
) -> RevealOutcome:
    """Check a reveal claim against the declarations by measurement.

    Each declared particle, in the signal state of pair code
    ``sent[particle]``, is measured in the basis the declarations assign to
    the claimed bit; the claim passes only if every outcome matches the
    claimed eigenstate.  A malformed claim (a bit that is not the integer 0
    or 1, the wrong length, or a label outside its declared basis) is
    rejected without measurement and without a draw.

    Otherwise it draws once: ``randomness.random(len(declarations))``, one
    uniform per declaration in order, all of them even when a particle
    fails, as ``verify_tested`` does.
    """
    bases = _BASIS_FOR_ZERO.get(claimed_bit) if isinstance(claimed_bit, numbers.Integral) else None
    if bases is None:
        return RevealOutcome(False, reason="claimed bit outside {0, 1}")
    claimed_labels = list(claimed_labels)
    if len(claimed_labels) != len(declarations):
        return RevealOutcome(False, reason="claim length mismatch")
    for declaration, label in zip(declarations, claimed_labels):
        if declaration.basis_for_zero is not bases[label._value_]:
            return RevealOutcome(
                False,
                reject_index=declaration.particle,
                reason="claimed label outside declared basis",
            )
    particles = np.array([d.particle for d in declarations], dtype=np.int64)
    claimed = np.array([_CODES[label._value_] for label in claimed_labels], dtype=np.int64)
    sent = np.asarray(sent, dtype=np.int64)
    reject = _first_failure(particles, _collapses(sent[particles], claimed, randomness.random(particles.size)))
    return RevealOutcome(reject is None, reject_index=reject, reason="" if reject is None else "measurement mismatch")


@dataclass(frozen=True, kw_only=True)
class SessionTranscript:
    """Everything one run produced, stamped with schedule events.

    Fields are keyword-only.  What a session never reached keeps its empty
    default: an aborted session has no bits, labels or events, and a
    session rejected at tested verification has no declarations or claim.
    ``claimed_bit`` is ``None`` unless the strategy claimed an integer.
    """

    params: ProtocolParams
    strategy: str
    committed_bits: tuple[int, ...] = ()
    sent_labels: tuple[SpinLabel, ...] = ()
    challenge: tuple[int, ...] = ()
    untested: tuple[int, ...] = ()
    declarations: tuple[Declaration, ...] = ()
    claimed_bit: int | None = None
    claimed_labels: tuple[SpinLabel, ...] = ()
    verdict: Verdict
    failed_stage: Stage | None = None
    reject_index: int | None = None
    events: dict = field(default_factory=dict)
    schedule: Schedule
    violations: tuple[Violation, ...] = ()
    opened_indices: frozenset

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT

    def to_records(self) -> list[dict]:
        """Line-delimited transcript records (schema v1)."""
        records = [
            {
                "schema": 1,
                "type": "params",
                "n0": self.params.n0,
                "m": self.params.m,
                "flip_probability": self.params.flip_probability,
                "leak_probability": self.params.leak_probability,
                "strategy": self.strategy,
            }
        ]
        for seq, message in enumerate(self.schedule.messages):
            records.append(
                {
                    "schema": 1,
                    "type": "message",
                    "seq": seq,
                    "from": message.sender,
                    "to": message.receiver,
                    "emit": {"t": message.emit.t, "x": list(message.emit.x)},
                    "receive": {"t": message.receive.t, "x": list(message.receive.x)},
                    "payload": message.payload,
                }
            )
        for name in sorted(self.events):
            event = self.events[name]
            records.append(
                {
                    "schema": 1,
                    "type": "stage",
                    "name": name,
                    "t": event.t,
                    "x": list(event.x),
                }
            )
        records.append(
            {
                "schema": 1,
                "type": "verdict",
                "verdict": self.verdict.value,
                "failed_stage": self.failed_stage.value if self.failed_stage else None,
                "reject_index": self.reject_index,
                "claimed_bit": self.claimed_bit,
                "challenge_size": len(self.challenge),
                "violations": [str(v) for v in self.violations],
            }
        )
        return records


# Most distinct (scenario, n0) keys whose schedules ``run_session`` keeps.
SCHEDULE_CACHE_SIZE = 16

# Time from the commitment time t_c to the emission of the spin particles.
SPIN_DELAY = 1.0


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _payload_names(n0: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The 2*n0 commit payloads and the n0 spin payloads, in message order."""
    return tuple([f"commit[{i}]" for i in range(2 * n0)]), tuple([f"spin[{i}]" for i in range(n0)])


@dataclass(frozen=True)
class ReductionScenario:
    """Site geometry and transmission timing for one reduction run.

    The default layout puts the verifier anchor ``B0`` at the origin at
    rest, with committer and verifier sites alternating along a line at
    unit separations.  All messages travel at light speed.  ``tamper``
    exists so shipped scenarios can inject causal violations: it takes the
    built schedule's messages as a list of ``Message`` and returns a list.
    The session plan applies it (``build_schedule`` ignores it), groups the
    result into flights, times it from the commit and oracle-reveals
    messages it carries, and aborts on every built payload it drops.  A
    payload counts as carried only from the sender to the receiver the
    builder sent it between.  It must be a pure function of the message
    list, because ``run_session`` plans a scenario once per
    ``(scenario, n0)`` and reuses the plan.  A scenario must therefore also
    be hashable, as the frozen fields it is made of are.
    """

    name: str = "line-default"
    sites: tuple[Site, ...] = (
        Site("B0", (0.0, 0.0, 0.0)),
        Site("A1", (1.0, 0.0, 0.0)),
        Site("B1", (2.0, 0.0, 0.0)),
        Site("A2", (3.0, 0.0, 0.0)),
    )
    b0_id: str = "B0"
    alice_id: str = "A1"
    oracle_pairs: tuple[tuple[str, str], ...] = (("A1", "B1"), ("A2", "B1"))
    suspension_rounds: int = 0
    tamper: Callable | None = None

    def _flight(self, sender: Site, receiver: Site, emit: Event, payloads, positions) -> Flight:
        return Flight(sender.id, receiver.id, emit, receiver.event_at(_arrival(receiver, emit)), payloads, positions)

    def build_schedule(self, n0: int) -> Schedule:
        """The schedule of a run with ``n0`` spin particles and ``2 * n0`` oracle commitments."""
        sites = {site.id: site for site in self.sites}
        b0, alice = sites[self.b0_id], sites[self.alice_id]
        n_commitments = 2 * n0
        commit_names, spin_names = _payload_names(n0)

        # Oracle commitments, one per committed bit, assigned round-robin
        # over the committer/receiver site pairs: all commitments of one
        # pair are one flight, whose receive event is a confirmation.
        stride = len(self.oracle_pairs)
        senders = {a_id for a_id, _ in self.oracle_pairs}
        t0 = {a_id: sites[a_id].event_at(0.0) for a_id in senders}  # each sender's event at t = 0
        flights = [
            self._flight(sites[a_id], sites[b_id], t0[a_id], commit_names[j::stride], range(j, n_commitments, stride))
            for j, (a_id, b_id) in enumerate(self.oracle_pairs[:n_commitments])
        ]
        confirmations = tuple([flight.receive for flight in flights])
        t_c = earliest_commitment_time(b0, confirmations)
        commitment_point = b0.event_at(t_c)

        # Spin particles, emitted strictly after t_c, all on the same flight.
        spins_emit_t = t_c + SPIN_DELAY
        spins = self._flight(
            alice, b0, alice.event_at(spins_emit_t), spin_names, range(n_commitments, n_commitments + n0)
        )
        flights.append(spins)

        # Every later flight carries one message, in the order they are sent.
        # A reply leaves from the event at which its prompt arrived.
        offset = n_commitments + n0 - len(flights)

        def send(sender: Site, receiver: Site, emit: Event, payload: str) -> Flight:
            flight = self._flight(sender, receiver, emit, (payload,), (offset + len(flights),))
            flights.append(flight)
            return flight

        # Challenge out once the spins are in; openings and declarations back.
        spins_in = spins.receive if spins.receive.t >= spins_emit_t else b0.event_at(spins_emit_t)
        challenge = send(b0, alice, spins_in, "challenge")
        chal_recv = challenge.receive

        t_r = t_c
        endpoints = sorted({b_id for _, b_id in self.oracle_pairs})
        for b_id in endpoints:
            open_recv = send(alice, sites[b_id], chal_recv, f"open-instruction[{b_id}]").receive
            t_r = max(t_r, send(sites[b_id], b0, open_recv, f"oracle-reveals[{b_id}]").receive.t)

        declarations = send(alice, b0, chal_recv, "declarations")

        # Content-free suspension heartbeats keep the commitment open.
        beat = b0.event_at(max(t_r, declarations.receive.t))
        for round_index in range(self.suspension_rounds):
            out_recv = send(b0, alice, beat, f"heartbeat-out[{round_index}]").receive
            beat = send(alice, b0, out_recv, f"heartbeat-back[{round_index}]").receive

        reveal = send(alice, b0, alice.event_at(max(beat.t, chal_recv.t) + 1.0), "reveal")

        stages = (("challenge", challenge), ("declarations", declarations), ("reveal", reveal), (spin_names[-1], spins))
        return Schedule(
            sites=sites,
            flights=tuple(flights),
            commitment_point=commitment_point,
            t_c=t_c,
            t_r=t_r,
            confirmations=confirmations,
            committer_ids=frozenset([self.alice_id, *senders]),
            stage_flights=stages,
        )


def default_scenario(suspension_rounds: int = 0) -> ReductionScenario:
    return ReductionScenario(suspension_rounds=suspension_rounds)


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _session_plan(
    scenario: ReductionScenario, n0: int
) -> tuple[Schedule, tuple[Violation, ...], dict[str, Event]]:
    """Schedule, its causal violations and the stage events for one key.

    Everything here depends on the scenario and n0 alone, never on a
    session's randomness, so it is computed once per key and shared.
    """
    schedule = scenario.build_schedule(n0)
    found, late, missing = [], [], []
    if scenario.tamper is not None:
        # A tamper may drop, rename, repeat, re-time, reroute or reorder
        # messages.  A payload counts as carried only on the route (sender,
        # receiver) the builder sent it on.  The tampered schedule is timed
        # from the flights that so carry commit and oracle-reveals payloads,
        # and scanned for the messages of the payloads read here, for spins
        # that leave at or before t_c and for the built payloads it drops.
        built = schedule
        routes: dict[tuple[str, str], set[str]] = {}
        for flight in built.flights:
            routes.setdefault((flight.sender, flight.receiver), set()).update(flight.payloads)
        flights = _group_flights(scenario.tamper(list(built.messages)))
        kept = [routes.get((flight.sender, flight.receiver), set()).intersection(flight.payloads) for flight in flights]
        commits, spins = map(frozenset, _payload_names(n0))
        reveals = {f"oracle-reveals[{b_id}]" for _, b_id in scenario.oracle_pairs}
        b0 = built.sites[scenario.b0_id]
        confirmations = tuple([f.receive for f, k in zip(flights, kept) if not k.isdisjoint(commits)])
        t_c = earliest_commitment_time(b0, confirmations) if confirmations else built.t_c
        t_r = max([t_c, *[f.receive.t for f, k in zip(flights, kept) if not k.isdisjoint(reveals)]])
        timing = dict(commitment_point=b0.event_at(t_c), t_c=t_c, t_r=t_r, confirmations=confirmations)
        schedule = Schedule(sites=built.sites, flights=flights, committer_ids=built.committer_ids, **timing)
        wanted = {"declarations", "reveal", "challenge", f"spin[{n0 - 1}]"}
        for flight, k in zip(flights, kept):
            payloads, positions = flight.payloads, flight.positions
            found += [(positions[payloads.index(p)], p, flight) for p in wanted.intersection(k)]
            if flight.emit.t <= t_c and not k.isdisjoint(spins):
                late += [(position, p) for position, p in zip(positions, payloads) if p in k and p in spins]
        carried = set().union(*kept)
        missing = [message.payload for message in built.messages if message.payload not in carried]
    # A built schedule names the flights read here; in a tampered one the
    # first message of each payload, in message order, is the one used.
    first = dict(schedule.stage_flights)
    for _, payload, flight in sorted(found):
        first.setdefault(payload, flight)
    violations = validate_schedule(schedule)
    violations += [Violation("ordering", p, "spin emitted at or before t_c") for _, p in sorted(late)]
    violations += [Violation("missing", p, "no message carries it") for p in missing]
    # The reveal must leave strictly after the declarations it opens.
    declarations, reveal = first.get("declarations"), first.get("reveal")
    if declarations and reveal and reveal.emit.t <= declarations.emit.t:
        violations.append(Violation("ordering", "reveal", "reveal emitted at or before the declarations"))

    def received(payload: str) -> Event | None:
        flight = first.get(payload)
        return flight.receive if flight else None

    def emitted(payload: str) -> Event | None:
        flight = first.get(payload)
        return flight.emit if flight else None

    events = {
        "commitment_point": schedule.commitment_point,
        "spins_received": received(f"spin[{n0 - 1}]") or schedule.commitment_point,
        "challenge_received": received("challenge"),
        "tested_verified": schedule.sites[scenario.b0_id].event_at(schedule.t_r),
        "declarations_received": received("declarations"),
        "reveal_received": received("reveal"),
        "declarations_emitted": emitted("declarations"),
        "reveal_emitted": emitted("reveal"),
    }
    return schedule, tuple(violations), events


def run_session(
    strategy,
    params: ProtocolParams,
    scenario: ReductionScenario | None = None,
    randomness: RandomStream | None = None,
) -> SessionTranscript:
    """Execute one full run and return its transcript.

    Stages: commit, spins, challenge, tested verification, declarations,
    suspension, reveal, verdict.  Any stage failure yields a transcript
    whose verdict is reject/abort with the stage recorded.  The suspended
    (untested) commitments are never opened.  Each stage works on numpy
    arrays of pair codes 2*b0 + b1; spin labels and tuples are built for
    the strategy and the transcript.  A strategy that commits the wrong
    number of bits, or whose declarations do not name the untested
    particles once each in order, is a ``ValueError``.

    The schedule, its validation and the stage events depend only on
    ``(scenario, params.n0)``; they are memoized per key (at most
    ``SCHEDULE_CACHE_SIZE`` keys), so transcripts of one key share one
    read-only ``Schedule``.  Only the strategy, oracle and measurements
    draw randomness, all from ``randomness``, which is required.

    Draws, in order: the strategy's committed bits, the oracle's one array
    (see ``IdealCommitmentOracle``), the challenge permutation, one array of
    ``n0 - m`` tested uniforms, the strategy's declaration and claim draws,
    and one array of ``m`` reveal uniforms.  These are the values, in the
    order, that one draw per bit and per measured particle would take, so a
    transcript started from a fresh stream is the one such draws give.  A
    stage that rejects has still drawn its whole array, so a stream shared
    across sessions is further along after a rejection.  A schedule abort
    draws nothing.
    """
    if scenario is None:
        scenario = default_scenario()
    if randomness is None:
        raise ValueError("run_session needs a seeded RandomStream")
    oracle = IdealCommitmentOracle(params.flip_probability, params.leak_probability)

    schedule, violations, events = _session_plan(scenario, params.n0)

    def transcript(verdict: Verdict, **fields) -> SessionTranscript:
        return SessionTranscript(
            params=params,
            strategy=getattr(strategy, "name", type(strategy).__name__),
            verdict=verdict,
            schedule=schedule,
            opened_indices=oracle.opened_indices,
            **fields,
        )

    if violations:
        return transcript(Verdict.ABORT, failed_stage=Stage.SCHEDULE, violations=violations)

    # Commit phase: the oracle certifies all 2*N0 bits in one batch.
    # The oracle checks the strategy's own values before they are cast.
    committed = np.asarray(strategy.commit_bits(params, randomness))
    if committed.shape != (params.n_commitments,):
        raise ValueError(f"strategy committed {committed.size} bits, expected {params.n_commitments}")
    oracle.commit(committed, randomness)
    bits = committed.astype(np.int64, copy=False)

    # Spin transmission: B0 holds particle i in the state of pair code sent[i].
    sent = 2 * bits[0::2] + bits[1::2]
    labels = tuple([_SIGNALS[code] for code in sent.tolist()])

    # Challenge and tested verification on the certified pairs of the tested particles.
    tested = draw_challenge(params, randomness)
    tested_at = np.array(tested, dtype=np.int64)
    untested_mask = np.ones(params.n0, dtype=bool)
    untested_mask[tested_at] = False
    untested = tuple(np.flatnonzero(untested_mask).tolist())
    certified = oracle.reveal(2 * tested_at[:, None] + (0, 1))
    tested_outcome = verify_tested(tested_at, 2 * certified[:, 0] + certified[:, 1], sent, randomness)

    base = dict(
        committed_bits=tuple(bits.tolist()),
        sent_labels=labels,
        challenge=tested,
        untested=untested,
        events=dict(events),
    )
    if not tested_outcome.accepted:
        return transcript(
            Verdict.REJECT, failed_stage=Stage.TESTED, reject_index=tested_outcome.reject_index, **base
        )

    # Declarations over the untested particles.
    untested_labels = tuple(labels[i] for i in untested)
    bit, declarations = strategy.plan_declarations(untested, untested_labels, randomness)
    declarations = tuple(declarations)
    if tuple([declaration.particle for declaration in declarations]) != untested:
        raise ValueError("strategy must declare every untested particle exactly once")

    # Reveal and verdict.  The suspended commitments are never opened.
    claimed_bit, claimed_labels = strategy.reveal_claim(bit, untested_labels, declarations, randomness)
    reveal_outcome = verify_reveal(claimed_bit, claimed_labels, declarations, sent, randomness)
    return transcript(
        Verdict.ACCEPT if reveal_outcome.accepted else Verdict.REJECT,
        failed_stage=None if reveal_outcome.accepted else Stage.REVEAL,
        reject_index=reveal_outcome.reject_index,
        declarations=declarations,
        claimed_bit=int(claimed_bit) if isinstance(claimed_bit, numbers.Integral) else None,
        claimed_labels=tuple(claimed_labels),
        **base,
    )


# Sessions per block of ``run_sessions``: its arrays hold at most this many
# rows, so its peak memory does not grow with ``n``.
SESSION_CHUNK = 4096


def run_sessions(
    params: ProtocolParams,
    n: int,
    randomness: RandomStream,
    scenario: ReductionScenario | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``n`` honest sessions as numpy arrays; the Monte Carlo path.

    Returns each session's acceptance and the number of commitments the
    oracle leaked in it.  The rules are those of :func:`run_session` with
    an honest committer: the oracle flips and leaks each of the 2*n0
    committed bits independently, the challenge is a uniform (n0 - m)-subset,
    and each tested particle is measured in the basis of its certified pair
    and must collapse onto that pair's state.  The honest reveal measures
    each untested particle in its sent basis, so it always matches and is
    not simulated.  Every session aborts when the scenario's schedule has
    causal violations.

    The sessions follow the scalar path's distributions but not its random
    numbers: each kind of draw is one array draw per block of
    ``SESSION_CHUNK`` sessions, so the number of ``RandomStream`` calls
    grows with the number of blocks, not with ``n``.
    """
    if n < 1:
        raise ValueError("run_sessions needs n >= 1")
    if scenario is None:
        scenario = default_scenario()
    _, violations, _ = _session_plan(scenario, params.n0)
    if violations:
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    blocks = [
        _honest_block(params, min(SESSION_CHUNK, n - start), randomness) for start in range(0, n, SESSION_CHUNK)
    ]
    accepted, leaked = zip(*blocks)
    return np.concatenate(accepted), np.concatenate(leaked)


def _honest_block(params: ProtocolParams, n: int, randomness: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance and leak count of ``n`` honest sessions, one array draw per kind of randomness."""
    bits = randomness.integers(0, 2, size=(n, params.n_commitments))
    certified = bits
    if params.flip_probability > 0.0:
        certified = bits ^ (randomness.random(bits.shape) < params.flip_probability)
    leaked = np.zeros(n, dtype=np.int64)
    if params.leak_probability > 0.0:
        leaked = np.count_nonzero(randomness.random(bits.shape) < params.leak_probability, axis=1)

    challenge = np.argsort(randomness.random((n, params.n0)), axis=1)[:, : params.n_tested]
    rows = np.arange(n)[:, None]
    sent = (2 * bits[:, 0::2] + bits[:, 1::2])[rows, challenge]
    opened = (2 * certified[:, 0::2] + certified[:, 1::2])[rows, challenge]
    return _collapses(sent, opened, randomness.random(sent.shape)).all(axis=1), leaked
