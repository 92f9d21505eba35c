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
from dataclasses import dataclass, field, fields
from itertools import filterfalse
from operator import attrgetter
from typing import Callable

import numpy as np

from .quantum import (
    Basis,
    SpinLabel,
    _frozen,
    basis_eigenstates,
    born_outcomes,
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
    "SessionTranscript",
    "ReductionScenario",
    "default_scenario",
    "draw_challenge",
    "verify_tested",
    "honest_bases",
    "verify_reveal",
    "run_session",
    "run_sessions",
]


# Smallest n0 / m that a strict ProtocolParams accepts.
MIN_RATIO = 4


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        for name in ("n0", "m"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
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
            if not 0.0 <= getattr(self, name) <= 1.0:
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
# (b0, b1) that sends it; an array of codes indexes this array of labels.
_SIGNALS = np.array([DEFAULT_ENCODING[divmod(code, 2)] for code in range(4)], dtype=object)
# _P0[s, c]: Born probability of outcome 0 for signal s measured in the basis of signal c.
_P0 = np.array([[signal_probabilities(s, c.basis)[0] for c in _SIGNALS] for s in _SIGNALS])
# _OUTCOME[c]: the outcome that collapses onto signal c in its own basis, a bool as outcomes are.
_OUTCOME = np.array([basis_eigenstates(c.basis).index(c) for c in _SIGNALS], dtype=bool)
# _CODES[label value]: the pair code that sends the signal state.
_CODES = {label.value: code for code, label in enumerate(_SIGNALS)}
# _BASES[b]: the basis of basis code b, which pair codes 2b and 2b + 1 send eigenstates of.
_BASES = (_SIGNALS[0].basis, _SIGNALS[2].basis)
_PAIR_WEIGHTS = np.array([2, 1])  # the weights of the bits (b0, b1) in the pair code 2*b0 + b1


def _collapses(sent, target, uniforms) -> np.ndarray:
    """Whether each signal ``sent``, measured in the basis of signal ``target``, collapses onto ``target``.

    Signals are pair codes, with one uniform per measurement.  ``quantum.born_outcomes`` decides each
    outcome, as in ``measure`` and ``measure_label``, so one uniform gives all three the same outcome.
    """
    return born_outcomes(_P0[sent, target], uniforms) == _OUTCOME[target]


def _first_failure(particles: np.ndarray, passed: np.ndarray) -> int | None:
    """The first particle whose check failed, or None if all passed."""
    return None if np.count_nonzero(passed) == passed.size else int(particles[passed.tolist().index(False)])


@dataclass(frozen=True)
class Declaration:
    """Public binding of each possible protocol bit to a basis for one particle.

    Reads as: if the protocol bit is 0 the particle is an eigenstate of
    ``basis_for_zero``, if it is 1 an eigenstate of the conjugate basis.
    """

    particle: int
    basis_for_zero: Basis

    def basis_for(self, bit: int) -> Basis:
        return self.basis_for_zero if bit == 0 else self.basis_for_zero.conjugate()


def _codes(values, width: int, what: str) -> np.ndarray:
    """``values``, taken whole, as a 1-d int64 array of ``width``-bit codes; anything else is a ``ValueError``."""
    codes = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if codes.ndim != 1 or codes.size and (codes.dtype.kind not in "iu" or np.count_nonzero(codes >> width)):
        raise ValueError(f"{what} must be a 1-d array of integers in [0, {2**width})")
    return codes.astype(np.int64, copy=False)


def _oracle_masks(shape, flip_probability: float, leak_probability: float, randomness: RandomStream):
    """The oracle's flip and leak masks over committed bits of ``shape``, from one array draw.

    The draw is ``(*shape, 2)`` uniforms with both knobs above zero (bit by
    bit, one flip and then one leak uniform), ``shape`` with one, and none
    with both at zero.
    """
    flip = leak = np.zeros(shape, dtype=bool)
    if flip_probability > 0.0 and leak_probability > 0.0:
        uniforms = randomness.random((*shape, 2))
        flip, leak = uniforms[..., 0] < flip_probability, uniforms[..., 1] < leak_probability
    elif flip_probability > 0.0:
        flip = randomness.random(shape) < flip_probability
    elif leak_probability > 0.0:
        leak = randomness.random(shape) < leak_probability
    return flip, leak


def _certify(bits: np.ndarray, flip_probability: float, leak_probability: float, randomness: RandomStream):
    """Classical ``bits`` certified as int64 (int64 bits uncopied at flip 0) and the leak mask; others raise first."""
    if np.count_nonzero((bits != 0) != bits):
        raise ValueError("oracle accepts classical bits only")
    flip, leak = _oracle_masks(bits.shape, flip_probability, leak_probability, randomness)
    certified = bits.astype(np.int64, copy=False)
    return (certified ^ flip if flip_probability > 0.0 else certified), leak


class IdealCommitmentOracle:
    """Trusted functionality certifying that reveals return the committed bit.

    ``commit(bits, randomness)`` commits a whole batch once; bit ``i`` sits
    at index ``i``.  With both knobs at zero, ``reveal(i)`` returns exactly
    ``bits[i]`` and the receiver learns nothing earlier.  With
    ``flip_probability`` > 0 the certified value differs from the committed
    input with that probability (a fidelity defect, drawn once at commit
    time); with ``leak_probability`` > 0 the certified value becomes part of
    the receiver's view at commit time.  Inputs are classical bits only.

    No session builds one: sessions certify in ``_commit_and_test`` through
    ``_certify``, which ``commit`` calls too, so this is the tested model of that rule.
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
        # A copy: at flip 0 ``_certify`` returns its input, which the caller may still write to.
        self._stored, leak = _certify(np.array(bits), self.flip_probability, self.leak_probability, randomness)
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
    def opened(self) -> frozenset[int]:
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


def draw_challenge(params: ProtocolParams, n: int, randomness: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``n`` sessions' tested and untested particle indices, as rows of two arrays.

    One ``permutation(n0, rows=n)`` draw, whose rows are those of ``n`` successive
    ``permutation(n0)`` calls: its first n0 - m columns and its other m, each sorted in
    place, so the two halves are views of the one freshly drawn array.
    """
    order = randomness.permutation(params.n0, rows=n)
    tested, untested = order[:, : params.n_tested], order[:, params.n_tested :]
    tested.sort(axis=1)
    untested.sort(axis=1)
    return tested, untested


def verify_tested(sent, opened, randomness: RandomStream) -> np.ndarray:
    """Measure each session's challenged particles in the bases their opened pairs name.

    Row ``r`` is session ``r``: its ``j``-th tested particle is in the
    signal state of pair code ``sent[r, j]``, and ``opened[r, j]`` is the
    pair code 2*b0 + b1 the oracle certified for it.  Returns whether each
    particle's single-shot outcome is the exact eigenstate its opened pair
    encodes (each particle is one copy); a session passes iff its row does.

    Draws once: ``randomness.random(sent.shape)``, uniform ``[r, j]`` for particle ``[r, j]``, all of it
    even when a particle fails, so a shared stream is further along after a rejection.
    """
    sent = np.asarray(sent, dtype=np.int64)
    opened = np.asarray(opened, dtype=np.int64)
    if opened.shape != sent.shape:
        raise ValueError(f"oracle reveals of shape {opened.shape} for tested particles of shape {sent.shape}")
    return _collapses(sent, opened, randomness.random(sent.shape))


def _commit_and_test(params: ProtocolParams, bits: np.ndarray, randomness: RandomStream):
    """Commit and tested verification of one session per row of committed ``bits``.

    Returns per row: pair codes sent, tested and untested particles (read through commitments 2i, 2i + 1),
    pass flags, leak mask.  Where ``_certify`` returns ``bits`` itself, the opened codes are the sent ones.
    """
    certified, leak = _certify(bits, params.flip_probability, params.leak_probability, randomness)
    sent = bits.reshape(len(bits), params.n0, 2) @ _PAIR_WEIGHTS
    tested, untested = draw_challenge(params, len(bits), randomness)
    at = (np.arange(len(bits))[:, None], tested)
    sent_tested = sent[at]
    opened = sent_tested if certified is bits else (certified.reshape(len(bits), params.n0, 2) @ _PAIR_WEIGHTS)[at]
    passed = verify_tested(sent_tested, opened, randomness)
    return sent, tested, untested, passed, leak


def honest_bases(bit: int, sent: np.ndarray) -> np.ndarray:
    """The honest declaration rule: the basis code that binds ``bit`` to the basis of each sent pair code."""
    return (sent >> 1) ^ bit


def verify_reveal(bound, claimed, held, randomness: RandomStream) -> np.ndarray:
    """Measure one session's untested particles in the bases its declarations bind to the claimed bit.

    For the ``j``-th untested particle, ``bound[j]`` is the basis (0 for Z,
    1 for X) that its declaration binds to the claimed bit, ``claimed[j]``
    the pair code 2*b0 + b1 of the label claimed for it, and ``held[j]`` the
    pair code of the signal state it is in.  Returns whether each particle
    passes: its claimed label lies in its bound basis and its single-shot
    outcome there is that label.

    A claim with a label outside its bound basis fails at those particles
    without measurement and without a draw.  Otherwise it draws once:
    ``randomness.random(held.size)``, one uniform per particle in order,
    all of them even when a particle fails, as ``verify_tested`` does.
    """
    held = np.asarray(held, dtype=np.int64)
    claimed = np.asarray(claimed, dtype=np.int64)
    in_basis = claimed >> 1 == np.asarray(bound)
    if np.count_nonzero(in_basis) < in_basis.size:
        return in_basis
    return _collapses(held, claimed, randomness.random(held.size))


@dataclass(frozen=True, kw_only=True)
class SessionTranscript:
    """Everything one run produced, stamped with schedule events.

    Fields are keyword-only.  What a session never reached keeps its empty
    default: an aborted session has no labels or events, and a session
    rejected at tested verification has no declarations or claim.
    ``claimed_bit`` is ``None`` unless the strategy claimed an integer.
    """

    params: ProtocolParams
    strategy: str
    sent_labels: tuple[SpinLabel, ...] = ()
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
                "challenge_size": 0 if self.verdict is Verdict.ABORT else self.params.n_tested,
                "violations": [str(v) for v in self.violations],
            }
        )
        return records


# Most distinct (scenario, n0) keys whose schedules ``run_session`` keeps.
SCHEDULE_CACHE_SIZE = 16

# Time from the commitment time t_c to the emission of the spin particles.
SPIN_DELAY = 1.0


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _payloads(n0: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]]:
    """The 2*n0 commit payloads, the n0 spin payloads, and the positions of their messages, in order."""
    return tuple(f"commit[{i}]" for i in range(2 * n0)), tuple(f"spin[{i}]" for i in range(n0)), tuple(range(3 * n0))


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _payload_sets(n0: int) -> tuple[frozenset[str], frozenset[str]]:
    """The commit and spin payloads of ``_payloads(n0)`` as sets."""
    return tuple(map(frozenset, _payloads(n0)[:2]))


@dataclass(frozen=True)
class ReductionScenario:
    """Site geometry and transmission timing for one reduction run.

    The default layout puts the verifier anchor ``B0`` at the origin at
    rest, with committer and verifier sites alternating along a line at
    unit separations.  All messages travel at light speed.  ``tamper``
    exists so shipped scenarios can inject causal violations: it takes the
    built schedule's messages as a list of ``Message`` and returns a list,
    whose events it may rebuild freely.  The session plan applies it
    (``build_schedule`` ignores it), groups the result into flights by value,
    times it from the commit and oracle-reveals messages it carries, and
    aborts on every built payload it drops.  A payload counts as carried only
    from the sender to the receiver the builder sent it between.  A tamper
    must be a pure function of the message list, because ``run_session``
    plans a scenario once per ``(scenario, n0)`` and reuses the plan.  A
    scenario must therefore also be hashable, as its frozen fields are.
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

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The fields' hash, computed once: ``run_session`` looks its plan up by scenario on every call."""
        return hash(tuple([getattr(self, f.name) for f in fields(self)]))

    def _flight(self, sender: Site, receiver: Site, emit: Event, payloads, positions) -> Flight:
        return Flight(sender.id, receiver.id, emit, receiver.event_at(_arrival(receiver, emit)), payloads, positions)

    def build_schedule(self, n0: int) -> Schedule:
        """The schedule of a run with ``n0`` spin particles and ``2 * n0`` oracle commitments."""
        sites = {site.id: site for site in self.sites}
        b0, alice = sites[self.b0_id], sites[self.alice_id]
        n_commitments = 2 * n0
        commit_names, spin_names, positions = _payloads(n0)

        # Oracle commitments, one per committed bit, assigned round-robin
        # over the committer/receiver site pairs: all commitments of one
        # pair are one flight, whose receive event is a confirmation.
        stride = len(self.oracle_pairs)
        senders = {a_id for a_id, _ in self.oracle_pairs}
        t0 = {a_id: sites[a_id].event_at(0.0) for a_id in senders}  # each sender's event at t = 0
        flights = [
            self._flight(sites[a_id], sites[b_id], t0[a_id], commit_names[j::stride], positions[j:n_commitments:stride])
            for j, (a_id, b_id) in enumerate(self.oracle_pairs[:n_commitments])
        ]
        confirmations = tuple([flight.receive for flight in flights])
        t_c = earliest_commitment_time(b0, confirmations)
        commitment_point = b0.event_at(t_c)

        # Spin particles, emitted strictly after t_c, all on the same flight.
        spins_emit_t = t_c + SPIN_DELAY
        spins = self._flight(alice, b0, alice.event_at(spins_emit_t), spin_names, positions[n_commitments:])
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
            t_r=t_r,
            confirmations=confirmations,
            committer_ids=frozenset([self.alice_id, *senders]),
            stage_flights=stages,
        )


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def default_scenario(suspension_rounds: int = 0) -> ReductionScenario:
    """The default line scenario, one shared object per ``suspension_rounds``, so its hash is computed once."""
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
        # A tamper may drop, rename, repeat, re-time, reroute, reorder or rebuild
        # messages.  A payload counts as carried only on the route (sender,
        # receiver) the builder sent it on.  The tampered schedule is timed from
        # the flights that so carry commit and oracle-reveals payloads, and scanned
        # for the messages of the payloads read here, for spins that leave at or
        # before t_c and for the built payloads it drops.
        built = schedule
        routes: dict[tuple[str, str], set[str]] = {}
        for flight in built.flights:
            routes.setdefault((flight.sender, flight.receiver), set()).update(flight.payloads)
        flights = _group_flights(scenario.tamper(list(built.messages)))
        kept = [routes.get((flight.sender, flight.receiver), set()).intersection(flight.payloads) for flight in flights]
        commits, spins = _payload_sets(n0)
        reveals = {f"oracle-reveals[{b_id}]" for _, b_id in scenario.oracle_pairs}
        b0 = built.sites[scenario.b0_id]
        confirmations = tuple([f.receive for f, k in zip(flights, kept) if not k.isdisjoint(commits)])
        t_c = earliest_commitment_time(b0, confirmations) if confirmations else built.t_c
        t_r = max([t_c, *[f.receive.t for f, k in zip(flights, kept) if not k.isdisjoint(reveals)]])
        timing = dict(commitment_point=b0.event_at(t_c), t_r=t_r, confirmations=confirmations)
        schedule = Schedule(sites=built.sites, flights=flights, committer_ids=built.committer_ids, **timing)
        wanted = {"declarations", "reveal", "challenge", f"spin[{n0 - 1}]"}
        for flight, k in zip(flights, kept):
            payloads, positions = flight.payloads, flight.positions
            if not wanted.isdisjoint(k):
                found += [(positions[payloads.index(p)], p, flight) for p in wanted.intersection(k)]
            if flight.emit.t <= t_c and not k.isdisjoint(spins):
                late += [(position, p) for position, p in zip(positions, payloads) if p in k and p in spins]
        carried = set().union(*kept)
        if len(carried) < len(built.messages):  # carried holds only built payloads: as many means none is missing
            missing = list(filterfalse(carried.__contains__, map(attrgetter("payload"), built.messages)))
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


@functools.lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _declaration_table(n0: int) -> np.ndarray:
    """The shared declarations ``table[b, i]`` of particle i with basis code b for bit 0."""
    return _frozen(np.array([[Declaration(i, basis) for i in range(n0)] for basis in _BASES], dtype=object))


def run_session(
    strategy,
    params: ProtocolParams,
    scenario: ReductionScenario | None = None,
    randomness: RandomStream | None = None,
) -> SessionTranscript:
    """Execute one full run and return its transcript.

    Stages: commit, spins, challenge, tested verification, declarations,
    suspension, reveal, verdict; a failing stage is recorded with a
    reject/abort verdict, and untested commitments are never opened.
    Stages and strategy rules work on arrays of pair codes 2*b0 + b1:
    ``plan_declarations(untested, sent, randomness)`` returns the protocol
    bit and the basis code (0 for Z, 1 for X) each declaration binds to bit
    0, ``reveal_claim(bit, sent, bases, randomness)`` the claimed bit and
    pair codes.  Commit and tested verification are row 0 of
    ``run_sessions``' ``_commit_and_test``.  Committing the wrong number of
    bits or a non-classical one, declaring anything but one basis code per
    untested particle, or claiming a code outside 0..3 is a ``ValueError``.
    The plan of each ``(scenario, params.n0)`` is memoized (at most
    ``SCHEDULE_CACHE_SIZE`` keys), so its transcripts share one ``Schedule``.

    Draws, all from the required ``randomness``, in order: the committed
    bits (one ``bits`` call for ``Honest`` and ``ClassicalFlip``), the
    oracle's one array (see ``_oracle_masks``), the challenge permutation,
    ``n0 - m`` tested uniforms, the protocol bit, for ``ClassicalFlip(k)``
    one ``permutation(m)`` and one ``bits(k)``, and ``m`` reveal uniforms
    (see ``verify_reveal``): the values, in order, of one draw per bit and
    per measured particle.  A rejecting stage has drawn its whole array.  A
    schedule abort draws nothing, and neither does a malformed claim, which
    is rejected at the reveal: a claimed bit other than the integer 0 or 1
    or a claim whose length is not ``m`` (with no reject index), or a
    claimed code outside the basis its declaration binds to the claimed bit.
    """
    if scenario is None:
        scenario = default_scenario()
    if randomness is None:
        raise ValueError("run_session needs a seeded RandomStream")
    schedule, violations, events = _session_plan(scenario, params.n0)
    common = dict(params=params, strategy=getattr(strategy, "name", type(strategy).__name__), schedule=schedule)
    if violations:
        return SessionTranscript(verdict=Verdict.ABORT, failed_stage=Stage.SCHEDULE, violations=violations, **common)

    # Commit and tested verification check the strategy's own values before they are cast.
    committed = np.asarray(strategy.commit_bits(params, randomness))
    if committed.shape != (params.n_commitments,):
        raise ValueError(f"strategy committed {committed.size} bits, expected {params.n_commitments}")
    sent, tested, untested, passed, _ = _commit_and_test(params, committed[None], randomness)
    sent, tested, untested, passed = sent[0], tested[0], untested[0], passed[0]
    reject = _first_failure(tested, passed)

    # Spin transmission: B0 holds particle i in the state of pair code sent[i].
    sent = sent.astype(np.int64, copy=False)
    base = dict(
        common, sent_labels=tuple(_SIGNALS[sent].tolist()), untested=tuple(untested.tolist()), events=dict(events)
    )
    if reject is not None:
        return SessionTranscript(verdict=Verdict.REJECT, failed_stage=Stage.TESTED, reject_index=reject, **base)

    # Declarations: one basis code per untested particle, from arrays the session reads on, so read-only.
    untested, held = _frozen(untested), _frozen(sent[untested])
    bit, bases = strategy.plan_declarations(untested, held, randomness)
    bases = _codes(bases, 1, "declared basis codes")
    if bases.shape != untested.shape:
        raise ValueError(f"declared basis codes must be one per untested particle: {bases.size} for {untested.size}")

    # Reveal and verdict.  The suspended commitments are never opened.  The
    # claim is made an array once, so what is checked is what is recorded.
    claimed_bit, claimed = strategy.reveal_claim(bit, held, bases, randomness)
    claimed = _codes(claimed, 2, "claimed pair codes")
    integral = isinstance(claimed_bit, numbers.Integral)
    reject = None
    well_formed = integral and claimed_bit in (0, 1) and claimed.shape == untested.shape
    if well_formed:
        # A declaration binds bit 1 to the conjugate of its basis for bit 0.
        reject = _first_failure(untested, verify_reveal(bases ^ int(claimed_bit), claimed, held, randomness))
    accepted = well_formed and reject is None
    return SessionTranscript(
        verdict=Verdict.ACCEPT if accepted else Verdict.REJECT,
        failed_stage=None if accepted else Stage.REVEAL,
        reject_index=reject,
        declarations=tuple(_declaration_table(params.n0)[bases, untested].tolist()),
        claimed_bit=int(claimed_bit) if integral else None,
        claimed_labels=tuple(_SIGNALS[claimed].tolist()),
        **base,
    )


# Rows per draw block of ``run_sessions`` and the Monte Carlo samplers, so their
# peak memory does not grow with the number of sessions or trials.
SESSION_CHUNK = 4096


def _row_blocks(rows: int) -> list[slice]:
    """Consecutive slices of at most ``SESSION_CHUNK`` rows covering ``range(rows)``: draw blocks (see ``rng``)."""
    return [slice(start, min(start + SESSION_CHUNK, rows)) for start in range(0, rows, SESSION_CHUNK)]


def run_sessions(
    params: ProtocolParams,
    n: int,
    randomness: RandomStream,
    scenario: ReductionScenario | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``n`` honest sessions as numpy arrays; the Monte Carlo path.

    Returns each session's acceptance and the number of commitments the
    oracle leaked in it.  The stages are :func:`run_session`'s with an
    honest committer: each block runs ``_commit_and_test``, the commit and
    tested rule ``run_session`` runs on one row.  The honest
    reveal measures each untested particle in its sent basis, so it always
    matches and is not simulated.  Every session aborts when the scenario's
    schedule has causal violations.

    Each block of at most ``SESSION_CHUNK`` sessions makes one array draw
    per stage, in ``run_session``'s order, so the ``RandomStream`` calls
    grow with the number of blocks, not with ``n``.  At n = 1 the numbers,
    and so the verdict, are those of ``run_session(Honest(), ...)``.
    """
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be an integer >= 1, not {n!r}")
    if scenario is None:
        scenario = default_scenario()
    _, violations, _ = _session_plan(scenario, params.n0)
    if violations:
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    accepted, leaked = [], []
    for block in _row_blocks(n):
        bits = randomness.bits((block.stop - block.start, params.n_commitments))
        *_, passed, leak = _commit_and_test(params, bits, randomness)
        accepted.append(passed.all(axis=1))
        leaked.append(np.count_nonzero(leak, axis=1))
    return np.concatenate(accepted), np.concatenate(leaked)
