"""Sites, events, light cones and causal validation of message schedules.

Units have c = 1.  Time coordinates refer to the rest frame of the
verifier's anchor site, conventionally ``B0``.  The past light cone is
closed: lightlike-separated events count as causally ordered, which keeps
the causal order transitive.

A schedule is stored as its flights: the messages of one flight share one
sender, one receiver, one emit event and one receive event, so timing,
validation and planning cost one check per flight.  ``Schedule.messages``
builds the individual messages, in order, only when something reads them;
``_group_flights`` groups a tampered or hand-built message list back into
flights.  Each pays once per message: a flight's messages come from one
constructor pass in C, and grouping is one pass over the list.

An ``Event`` whose time and position are already exact floats, as every
``Site.event_at`` event is, is kept as given once they are shown finite;
any other input is converted and checked component by component.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

__all__ = [
    "CONE_ATOL",
    "Event",
    "Site",
    "Message",
    "Flight",
    "Schedule",
    "Violation",
    "in_past_cone",
    "validate_schedule",
    "earliest_commitment_time",
]

CONE_ATOL = 1e-9

Vec3 = tuple[float, float, float]


def _as_vec3(x) -> Vec3:
    v = tuple(map(float, x))
    if len(v) == 1:
        v = (v[0], 0.0, 0.0)
    if len(v) != 3:
        raise ValueError(f"position must have 1 or 3 components, got {len(v)}")
    if not all(map(math.isfinite, v)):
        raise ValueError("coordinates must be finite")
    return v


def _dist(a: Vec3, b: Vec3) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x) in the anchor frame."""

    t: float
    x: Vec3

    def __post_init__(self):
        t, x = self.t, self.x
        if type(t) is float and type(x) is tuple and len(x) == 3 and type(x[0]) is type(x[1]) is type(x[2]) is float:
            if math.isfinite(t + x[0] + x[1] + x[2]):  # every term finite; an overflow takes the full path
                return
        if not math.isfinite(self.t):
            raise ValueError("time must be finite")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", _as_vec3(self.x))


@dataclass(frozen=True)
class Site:
    """A lab with a timelike constant-velocity worldline."""

    id: str
    position: Vec3
    velocity: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position))
        object.__setattr__(self, "velocity", _as_vec3(self.velocity))
        speed = math.sqrt(sum(v * v for v in self.velocity))
        if speed >= 1.0:
            raise ValueError(f"site {self.id}: speed {speed} is not subluminal")

    def position_at(self, t: float) -> Vec3:
        p, v = self.position, self.velocity
        return (p[0] + v[0] * t, p[1] + v[1] * t, p[2] + v[2] * t)

    def event_at(self, t: float) -> Event:
        return Event(t, self.position_at(t))

    def on_worldline(self, event: Event) -> bool:
        """Whether ``event`` lies on the worldline, within ``CONE_ATOL``."""
        return _dist(event.x, self.position_at(event.t)) <= CONE_ATOL


def in_past_cone(q: Event, p: Event, atol: float = CONE_ATOL) -> bool:
    """True iff q lies in the (closed) past light cone of p."""
    return (p.t - q.t) - _dist(p.x, q.x) >= -atol


class Message(NamedTuple):
    """One transmission: emitted at one site, received at another.

    A named tuple, so it is immutable and its equality, hash and repr are
    those of its five fields in order.
    """

    sender: str
    receiver: str
    emit: Event
    receive: Event
    payload: str


class Flight(NamedTuple):
    """Messages that share one emission and one reception.

    ``payloads[i]`` is carried by the message at index ``positions[i]`` of
    the schedule's message order; positions increase.
    """

    sender: str
    receiver: str
    emit: Event
    receive: Event
    payloads: tuple[str, ...]
    positions: Sequence[int]


@dataclass(frozen=True)
class Violation:
    """A causality or ordering defect found in a schedule."""

    kind: str  # "superluminal" | "off-worldline" | "ordering" | "missing"
    payload: str
    detail: str

    def __str__(self):
        return f"{self.kind} [{self.payload}]: {self.detail}"


@dataclass(frozen=True)
class Schedule:
    """Message timings for one protocol run, as flights, plus its distinguished events.

    ``flights`` holds each distinct flight once, in the order of its first
    message.  ``commitment_point`` is where the verifier's anchor site first
    knows every oracle commitment is in its causal past; ``t_c`` is read
    from it as its time coordinate, and ``t_r`` is the deadline for
    tested-commitment openings.  ``confirmations`` holds the receive event
    of each flight that carries a commitment, built or tampered.  ``sites``
    is stored as a read-only mapping, since one schedule may be shared by
    many transcripts; a pickle or copy holds it as a plain dict and wraps it
    again.  ``committer_ids`` names the sites whose messages are committer
    actions.  ``stage_flights`` pairs the payloads whose events a session
    plan reads with the flight that carries each, as built; a schedule made
    from messages has none, and it takes no part in comparing schedules.
    """

    sites: Mapping[str, Site] = field(repr=False)
    flights: tuple[Flight, ...]
    commitment_point: Event
    t_r: float
    confirmations: tuple = ()
    committer_ids: frozenset[str] = frozenset()
    stage_flights: tuple[tuple[str, Flight], ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", MappingProxyType(dict(self.sites)))

    def __getstate__(self):
        return {**self.__dict__, "sites": dict(self.sites)}

    def __setstate__(self, state):
        self.__dict__.update(state, sites=MappingProxyType(state["sites"]))

    @property
    def t_c(self) -> float:
        return self.commitment_point.t

    @functools.cached_property
    def messages(self) -> tuple[Message, ...]:
        """Every message in order, built on first read; a flight's messages share its events."""
        slots: list = [None] * sum(len(flight.positions) for flight in self.flights)
        for sender, receiver, emit, receive, payloads, positions in self.flights:
            # tuple.__new__ is what Message's generated __new__ calls, without its Python frame.
            shared = zip(repeat(sender), repeat(receiver), repeat(emit), repeat(receive), payloads)
            for position, message in zip(positions, map(tuple.__new__, repeat(Message), shared)):
                slots[position] = message
        return tuple(slots)


def _group_flights(messages) -> tuple[Flight, ...]:
    """The flights of ``messages``, in order of their first message.

    Messages that share sender, receiver and emit and receive ``Event``
    objects form one flight.  One pass appends each message's payload and
    position to its flight's lists.
    """
    groups: dict[tuple, tuple] = {}
    for position, (sender, receiver, emit, receive, payload) in enumerate(messages):
        key = (sender, receiver, id(emit), id(receive))
        group = groups.get(key)
        if group is None:
            groups[key] = (sender, receiver, emit, receive, [payload], [position])
        else:
            group[4].append(payload)
            group[5].append(position)
    return tuple([Flight(s, r, e, v, tuple(p), tuple(q)) for s, r, e, v, p, q in groups.values()])


def validate_schedule(schedule: Schedule) -> list[Violation]:
    """Every causal defect in the schedule; empty means causally valid.

    Light cones and worldlines are checked within ``CONE_ATOL``.  Each
    flight is checked once.  Every message of a failing flight gets its own
    violations, and violations come in message order.
    """
    failing = []
    for flight in schedule.flights:
        sender_id, receiver_id, emit, receive, payloads, positions = flight
        sender = schedule.sites.get(sender_id)
        receiver = schedule.sites.get(receiver_id)
        checks = (
            in_past_cone(emit, receive),
            sender is None or sender.on_worldline(emit),
            receiver is None or receiver.on_worldline(receive),
        )
        if not all(checks):
            failing += [(position, payload, flight, checks) for position, payload in zip(positions, payloads)]
    failing.sort(key=itemgetter(0))
    violations = []
    for _, payload, flight, (in_cone, sender_ok, receiver_ok) in failing:
        if not in_cone:
            violations.append(
                Violation(
                    "superluminal",
                    payload,
                    f"receive at t={flight.receive.t} outside causal future of emit at t={flight.emit.t}",
                )
            )
        if not sender_ok:
            violations.append(
                Violation("off-worldline", payload, f"emit event not on worldline of site {flight.sender}")
            )
        if not receiver_ok:
            violations.append(
                Violation("off-worldline", payload, f"receive event not on worldline of site {flight.receiver}")
            )
    if not schedule.t_r > schedule.t_c:
        violations.append(
            Violation(
                "ordering",
                "t_r",
                f"t_r={schedule.t_r} must be strictly after t_c={schedule.t_c}",
            )
        )
    return violations


def _arrival(observer: Site, event: Event) -> float:
    """First frame time on the observer's worldline with ``event`` in its past cone."""
    p, v, x = observer.position, observer.velocity, event.x
    d0, d1, d2 = p[0] - x[0], p[1] - x[1], p[2] - x[2]
    v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    if v2 == 0.0:
        return event.t + math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    # Solve (t - e.t)^2 = |d + v t|^2 for the future intersection of the
    # worldline with the event's forward light cone.
    a = 1.0 - v2
    b = -2.0 * (event.t + (d0 * v[0] + d1 * v[1] + d2 * v[2]))
    c = event.t**2 - (d0 * d0 + d1 * d1 + d2 * d2)
    disc = b * b - 4.0 * a * c
    return (-b + math.sqrt(max(disc, 0.0))) / (2.0 * a)


def earliest_commitment_time(observer: Site, confirmations) -> float:
    """Earliest frame time when every confirmation is in the observer's past cone.

    For each confirmation event e, solves for the first point of the
    observer's worldline with e inside its past light cone, and returns the
    maximum over confirmations.
    """
    arrivals = [_arrival(observer, event) for event in confirmations]
    if not arrivals:
        raise ValueError("need at least one confirmation event")
    return max(arrivals)
