"""Sites, events, light cones and causal validation of message schedules.

Units have c = 1.  Time coordinates refer to the rest frame of the
verifier's anchor site, conventionally ``B0``.  The past light cone is
closed: lightlike-separated events count as causally ordered, which keeps
the causal order transitive.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

__all__ = [
    "CONE_ATOL",
    "Event",
    "Site",
    "Message",
    "Schedule",
    "Violation",
    "in_past_cone",
    "lorentz_boost",
    "validate_schedule",
    "earliest_commitment_time",
]

CONE_ATOL = 1e-9

Vec3 = tuple[float, float, float]


def _as_vec3(x) -> Vec3:
    v = tuple(float(c) for c in x)
    if len(v) == 1:
        v = (v[0], 0.0, 0.0)
    if len(v) != 3:
        raise ValueError(f"position must have 1 or 3 components, got {len(v)}")
    for c in v:
        if not math.isfinite(c):
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
        return tuple(p + v * t for p, v in zip(self.position, self.velocity))

    def event_at(self, t: float) -> Event:
        return Event(t, self.position_at(t))

    def on_worldline(self, event: Event, atol: float = CONE_ATOL) -> bool:
        return _dist(event.x, self.position_at(event.t)) <= atol


def in_past_cone(q: Event, p: Event, atol: float = CONE_ATOL) -> bool:
    """True iff q lies in the (closed) past light cone of p."""
    return (p.t - q.t) - _dist(p.x, q.x) >= -atol


def lorentz_boost(event: Event, beta: Vec3) -> Event:
    """Coordinates of ``event`` in a frame moving at velocity ``beta``."""
    beta = _as_vec3(beta)
    b2 = sum(b * b for b in beta)
    if b2 >= 1.0:
        raise ValueError("boost velocity must be subluminal")
    if b2 == 0.0:
        return event
    gamma = 1.0 / math.sqrt(1.0 - b2)
    bx = sum(b * c for b, c in zip(beta, event.x))
    t_new = gamma * (event.t - bx)
    scale = (gamma - 1.0) * bx / b2 - gamma * event.t
    x_new = tuple(c + scale * b for c, b in zip(event.x, beta))
    return Event(t_new, x_new)


@dataclass(frozen=True)
class Message:
    """One transmission: emitted at one site, received at another."""

    sender: str
    receiver: str
    emit: Event
    receive: Event
    payload: str


@dataclass(frozen=True)
class Violation:
    """A causality or ordering defect found in a schedule."""

    kind: str  # "superluminal" | "off-worldline" | "ordering"
    payload: str
    detail: str

    def __str__(self):
        return f"{self.kind} [{self.payload}]: {self.detail}"


@dataclass(frozen=True)
class Schedule:
    """Message timings for one protocol run, plus its distinguished events.

    ``commitment_point`` is where the verifier's anchor site first knows
    every oracle commitment is in its causal past; ``t_c`` is its time
    coordinate and ``t_r`` the deadline for tested-commitment openings.
    ``sites`` is stored as a read-only mapping, since one schedule may be
    shared by many transcripts.  ``committer_ids`` names the sites whose
    messages are committer actions.
    """

    sites: Mapping[str, Site] = field(repr=False)
    messages: tuple
    commitment_point: Event
    t_c: float
    t_r: float
    confirmations: tuple = ()
    committer_ids: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "sites", MappingProxyType(dict(self.sites)))

    def site(self, site_id: str) -> Site:
        return self.sites[site_id]


def validate_schedule(schedule: Schedule, atol: float = CONE_ATOL) -> list[Violation]:
    """Every causal defect in the schedule; empty means causally valid.

    Messages that share a flight (the same sender, receiver and emit and
    receive ``Event`` objects, as one oracle pair's commitments do) are
    checked once; each failing message still gets its own violations.
    """
    violations = []
    flight_checks: dict[tuple, tuple[bool, bool, bool]] = {}
    for message in schedule.messages:
        key = (message.sender, message.receiver, id(message.emit), id(message.receive))
        checks = flight_checks.get(key)
        if checks is None:
            sender = schedule.sites.get(message.sender)
            receiver = schedule.sites.get(message.receiver)
            checks = flight_checks[key] = (
                in_past_cone(message.emit, message.receive, atol),
                sender is None or sender.on_worldline(message.emit, atol),
                receiver is None or receiver.on_worldline(message.receive, atol),
            )
        in_cone, sender_ok, receiver_ok = checks
        if not in_cone:
            violations.append(
                Violation(
                    "superluminal",
                    message.payload,
                    f"receive at t={message.receive.t} outside causal future of "
                    f"emit at t={message.emit.t}",
                )
            )
        if not sender_ok:
            violations.append(
                Violation(
                    "off-worldline",
                    message.payload,
                    f"emit event not on worldline of site {message.sender}",
                )
            )
        if not receiver_ok:
            violations.append(
                Violation(
                    "off-worldline",
                    message.payload,
                    f"receive event not on worldline of site {message.receiver}",
                )
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


def earliest_commitment_time(observer: Site, confirmations) -> float:
    """Earliest frame time when every confirmation is in the observer's past cone.

    For each confirmation event e, solves for the first point of the
    observer's worldline with e inside its past light cone, and returns the
    maximum over confirmations.
    """
    confirmations = list(confirmations)
    if not confirmations:
        raise ValueError("need at least one confirmation event")
    t_c = -math.inf
    v = observer.velocity
    v2 = sum(c * c for c in v)
    for event in confirmations:
        d = tuple(p - e for p, e in zip(observer.position, event.x))
        if v2 == 0.0:
            t = event.t + math.sqrt(sum(c * c for c in d))
        else:
            # Solve (t - e.t)^2 = |d + v t|^2 for the future intersection of
            # the worldline with the confirmation's forward light cone.
            a = 1.0 - v2
            b = -2.0 * (event.t + sum(dc * vc for dc, vc in zip(d, v)))
            c = event.t**2 - sum(dc * dc for dc in d)
            disc = b * b - 4.0 * a * c
            t = (-b + math.sqrt(max(disc, 0.0))) / (2.0 * a)
        t_c = max(t_c, t)
    return t_c
