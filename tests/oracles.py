"""Independent oracles the tests check the library against.

Nothing here imports the code paths it verifies: fidelity goes through
scipy's Schur-based matrix square root instead of the library's
eigendecomposition, purifier alignment is maximized by brute parameter
sweep instead of SVD, pass probabilities come from exhaustive enumeration
of outcome strings instead of the closed form, the unitary sweep's grid is
scanned one point at a time instead of in one numpy batch, schedules are
validated one message at a time instead of once per shared flight, session
plans are derived one message at a time, with t_c found by bisection with
``math.dist``, instead of from flights grouped by value and the
closed-form light arrival, honest reveals are judged against the sent
states one particle at a time instead of by whole-tuple comparison, and
the regimes of points after commitment are found by sampling points
instead of from closed-form witnesses, the exact hiding statistics sum a
dict of every pre-reveal view, built as tuples, instead of counting
integer view codes, and a reference session commits, reveals and measures
one bit or particle at a time through a dict oracle and
``quantum.measure_label`` instead of in arrays of pair codes, and the
Monte Carlo samplers make each of their draws as one whole array instead
of in row blocks.  The library needs no Lorentz boost; ``lorentz_boost`` is
here as the instrument that shows the library's light-cone verdicts do not
depend on the frame.  Nor does it need a Schmidt decomposition:
``schmidt_decompose`` is here because only the numerical-core property
checks read it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy import linalg, optimize

from certbit import protocol
from certbit.protocol import DEFAULT_ENCODING, Declaration, SessionTranscript, Stage, Verdict
from certbit.quantum import StateVector, measure_label
from certbit.spacetime import Event

# The basis of basis code b: the one whose eigenstates pairs (b, 0) and (b, 1) send.
BASIS_OF_CODE = (DEFAULT_ENCODING[0, 0].basis, DEFAULT_ENCODING[1, 0].basis)


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return amps / np.linalg.norm(amps)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def fidelity_sqrtm(rho0: np.ndarray, rho1: np.ndarray) -> float:
    """Uhlmann fidelity via scipy.linalg.sqrtm (squared convention)."""
    sq = linalg.sqrtm(rho0)
    inner = linalg.sqrtm(sq @ rho1 @ sq)
    return float(np.trace(inner).real ** 2)


def unitary_2x2(theta: float, alpha: float, beta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c * np.exp(1j * alpha), s * np.exp(1j * beta)],
            [-s * np.exp(-1j * beta), c * np.exp(-1j * alpha)],
        ]
    )


def brute_force_purifier_overlap(
    psi_from: np.ndarray, psi_to: np.ndarray, system_dim: int, grid: int = 24
) -> float:
    """Max |<to| (I x U) |from>|^2 over 2x2 purifier unitaries, by sweep."""
    purifier_dim = psi_from.size // system_dim
    if purifier_dim != 2:
        raise ValueError("brute-force oracle only handles 2-dimensional purifiers")
    a_from = psi_from.reshape(system_dim, purifier_dim)
    a_to = psi_to.reshape(system_dim, purifier_dim)

    def overlap_sq(params):
        u = unitary_2x2(*params)
        moved = a_from @ u.T
        return abs(np.vdot(a_to, moved)) ** 2

    best_value, best_point = -1.0, None
    for theta in np.linspace(0.0, np.pi / 2.0, grid):
        for alpha in np.linspace(0.0, 2.0 * np.pi, 2 * grid, endpoint=False):
            for beta in np.linspace(0.0, 2.0 * np.pi, 2 * grid, endpoint=False):
                value = overlap_sq((theta, alpha, beta))
                if value > best_value:
                    best_value, best_point = value, (theta, alpha, beta)
    refined = optimize.minimize(
        lambda p: -overlap_sq(p),
        np.array(best_point),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 5000},
    )
    return max(best_value, -float(refined.fun))


def _open_acceptance(accept_test: np.ndarray, joint_state: np.ndarray, system_dim: int):
    """Acceptance after a 2x2 purifier unitary, as a function of its angles."""
    purifier_dim = joint_state.size // system_dim
    if purifier_dim != 2:
        raise ValueError("brute-force oracle only handles 2-dimensional purifiers")
    a = joint_state.reshape(system_dim, purifier_dim)

    def accept(params):
        moved = (a @ unitary_2x2(*params).T).reshape(-1)
        return float(np.vdot(moved, accept_test @ moved).real)

    return accept


def reference_grid_search(
    accept_test: np.ndarray, joint_state: np.ndarray, system_dim: int, grid: int = 18
) -> tuple[float, tuple]:
    """Best ``(value, (theta, alpha, beta))`` on the sweep grid, one point at a time.

    Scans theta, then alpha, then beta, keeping the first strict maximum.
    """
    accept = _open_acceptance(accept_test, joint_state, system_dim)
    best_value, best_point = -1.0, (0.0, 0.0, 0.0)
    for theta in np.linspace(0.0, np.pi / 2.0, grid):
        for alpha in np.linspace(0.0, 2.0 * np.pi, 2 * grid, endpoint=False):
            for beta in np.linspace(0.0, 2.0 * np.pi, 2 * grid, endpoint=False):
                value = accept((theta, alpha, beta))
                if value > best_value:
                    best_value, best_point = value, (theta, alpha, beta)
    return best_value, best_point


def brute_force_open_probability(
    accept_test: np.ndarray, joint_state: np.ndarray, system_dim: int, grid: int = 24
) -> float:
    """Max acceptance over 2x2 purifier unitaries, by sweep."""
    accept = _open_acceptance(accept_test, joint_state, system_dim)
    best_value, best_point = reference_grid_search(accept_test, joint_state, system_dim, grid)
    refined = optimize.minimize(
        lambda p: -accept(p),
        np.array(best_point),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 5000},
    )
    return max(best_value, -float(refined.fun))


class SchmidtDecomposition(NamedTuple):
    """A bipartite Schmidt decomposition.

    ``coefficients`` descend; ``left_vectors``/``right_vectors`` hold the
    orthonormal Schmidt vectors as columns.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> StateVector:
        amps = np.zeros(self.left_vectors.shape[0] * self.right_vectors.shape[0], dtype=np.complex128)
        for i, c in enumerate(self.coefficients):
            amps += c * np.kron(self.left_vectors[:, i], self.right_vectors[:, i])
        return StateVector(amps)


def schmidt_decompose(state: StateVector, left_qubits: int) -> SchmidtDecomposition:
    """Schmidt decomposition across the cut after the first ``left_qubits``, by SVD."""
    if not 1 <= left_qubits < state.n_qubits:
        raise ValueError(f"cut {left_qubits} invalid for {state.n_qubits} qubits")
    dim_left = 2**left_qubits
    matrix = state.amplitudes.reshape(dim_left, state.dim // dim_left)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return SchmidtDecomposition(coefficients=s, left_vectors=u, right_vectors=vh.T)


def lorentz_boost(event: Event, beta) -> Event:
    """Coordinates of ``event`` in a frame moving at velocity ``beta`` (c = 1)."""
    beta = tuple(map(float, beta))
    b2 = sum(b * b for b in beta)
    if b2 >= 1.0:
        raise ValueError("boost velocity must be subluminal")
    if b2 == 0.0:
        return event
    gamma = 1.0 / math.sqrt(1.0 - b2)
    bx = sum(b * c for b, c in zip(beta, event.x))
    t_new = gamma * (event.t - bx)
    scale = (gamma - 1.0) * bx / b2 - gamma * event.t
    return Event(t_new, tuple(c + scale * b for c, b in zip(event.x, beta)))


def reference_violations(schedule, atol: float = 1e-9) -> list[tuple[str, str, str]]:
    """``(kind, payload, detail)`` of every causal defect, checking each message on its own.

    Uses ``math.dist`` for the light-cone and worldline distances instead of
    the library's component sums.
    """

    def on_worldline(site, event) -> bool:
        expected = [p + v * event.t for p, v in zip(site.position, site.velocity)]
        return math.dist(event.x, expected) <= atol

    found = []
    for message in schedule.messages:
        emit, receive = message.emit, message.receive
        if (receive.t - emit.t) - math.dist(receive.x, emit.x) < -atol:
            found.append(
                (
                    "superluminal",
                    message.payload,
                    f"receive at t={receive.t} outside causal future of emit at t={emit.t}",
                )
            )
        sender = schedule.sites.get(message.sender)
        if sender is not None and not on_worldline(sender, emit):
            found.append(
                ("off-worldline", message.payload, f"emit event not on worldline of site {message.sender}")
            )
        receiver = schedule.sites.get(message.receiver)
        if receiver is not None and not on_worldline(receiver, receive):
            found.append(
                ("off-worldline", message.payload, f"receive event not on worldline of site {message.receiver}")
            )
    if not schedule.t_r > schedule.t_c:
        found.append(("ordering", "t_r", f"t_r={schedule.t_r} must be strictly after t_c={schedule.t_c}"))
    return found


def light_arrival(site, event) -> float:
    """First time on ``site``'s worldline whose closed past light cone holds ``event``.

    Bisects on ``(t - event.t) - math.dist(x(t), event.x)``, which grows with
    t on a subluminal worldline, until the bracket is two adjacent floats,
    instead of solving the library's quadratic.
    """

    def reached(t: float) -> bool:
        here = [p + v * t for p, v in zip(site.position, site.velocity)]
        return (t - event.t) - math.dist(here, event.x) >= 0.0

    lo = hi = event.t
    step = 1.0
    while not reached(hi):
        lo, hi, step = hi, event.t + step, 2.0 * step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


class ReferencePlan(NamedTuple):
    """What a session plan derives from a scenario's messages, one message at a time."""

    messages: list
    violations: list[tuple[str, str]]  # (kind, payload), in the plan's order
    t_c: float
    t_r: float
    confirmations: set
    events: dict


def reference_plan(scenario, n0: int) -> ReferencePlan:
    """The session plan of ``scenario`` at ``n0``, message by message.

    Applies the tamper to the built messages and walks the result one
    message at a time, with no flights: a message carries its payload only
    on the (sender, receiver) route the builder sent that payload on; t_c is
    the latest ``light_arrival`` at the anchor site of a carried commitment,
    or of a built one if none is carried; t_r is the latest carried
    oracle-reveals reception, or t_c; causality comes from
    ``reference_violations``, then every carried spin emitted at or before
    t_c, every built payload no message carries, and a first carried reveal
    emitted at or before the first carried declarations.  The stage events
    are read from the first carried message of each payload.
    """
    built = scenario.build_schedule(n0).messages
    messages = list(built) if scenario.tamper is None else list(scenario.tamper(list(built)))
    sites = {site.id: site for site in scenario.sites}
    anchor = sites[scenario.b0_id]
    route = {m.payload: (m.sender, m.receiver) for m in built}
    carried = [m for m in messages if route.get(m.payload) == (m.sender, m.receiver)]

    def receptions(prefix: str, among) -> set:
        return {m.receive for m in among if m.payload.startswith(prefix)}

    def anchor_event(t: float) -> Event:
        return Event(t, tuple(p + v * t for p, v in zip(anchor.position, anchor.velocity)))

    confirmations = receptions("commit[", carried)
    t_c = max(light_arrival(anchor, e) for e in confirmations or receptions("commit[", built))
    t_r = max([t_c, *(e.t for e in receptions("oracle-reveals[", carried))])
    timed = SimpleNamespace(messages=messages, sites=sites, t_c=t_c, t_r=t_r)
    violations = [(kind, payload) for kind, payload, _ in reference_violations(timed)]
    violations += [("ordering", m.payload) for m in carried if m.payload.startswith("spin[") and m.emit.t <= t_c]
    payloads = {m.payload for m in carried}
    violations += [("missing", m.payload) for m in built if m.payload not in payloads]
    first = {}
    for m in carried:
        first.setdefault(m.payload, m)
    declarations, reveal = first.get("declarations"), first.get("reveal")
    if declarations and reveal and reveal.emit.t <= declarations.emit.t:
        violations.append(("ordering", "reveal"))
    commitment_point = anchor_event(t_c)
    last_spin = first.get(f"spin[{n0 - 1}]")
    events = {
        "commitment_point": commitment_point,
        "spins_received": last_spin.receive if last_spin else commitment_point,
        "tested_verified": anchor_event(t_r),
    }
    for payload in ("challenge", "declarations", "reveal"):
        message = first.get(payload)
        events[f"{payload}_received"] = message and message.receive
        if payload != "challenge":
            events[f"{payload}_emitted"] = message and message.emit
    return ReferencePlan(messages, violations, t_c, t_r, confirmations, events)


def enumerate_flip_pass_probability(k: int) -> float:
    """Reveal pass probability for k false declarations, by enumeration.

    Sums over every (guess string, outcome string) pair: guesses are
    uniform over the two eigenstates of the declared basis, outcomes are
    uniform because the measurement basis is conjugate to the state.
    """
    if k == 0:
        return 1.0
    total = 0.0
    weight = (0.5**k) * (0.5**k)
    for guesses in itertools.product((0, 1), repeat=k):
        for outcomes in itertools.product((0, 1), repeat=k):
            if guesses == outcomes:
                total += weight
    return total


def one_shot_pass_count(k: int, trials: int, randomness) -> int:
    """``detection_probability_mc``'s passing trials from one ``random((trials, k))`` draw."""
    draws = randomness.random((trials, k))
    return int(np.count_nonzero(protocol._collapses(0, 3, draws).sum(axis=1) == k))


def one_shot_view_atoms(params, trials: int, bit: int, randomness) -> np.ndarray:
    """``analysis._sample_view_atoms`` from one ``(trials * m, 2)`` sent-pair draw and one leak draw."""
    n = trials * params.m
    sent = randomness.integers(0, 2, size=(n, 2)) @ (2, 1)  # each atom's pair code 2*b0 + b1
    _, leaked = protocol._oracle_masks((n,), 0.0, params.leak_probability, randomness)
    return (protocol.honest_bases(bit, sent) * 5 + np.where(leaked, 1 + sent, 0)).reshape(trials, params.m)


def helstrom_advantage_sweep(rho0: np.ndarray, rho1: np.ndarray, steps: int = 2000) -> float:
    """Best single-qubit distinguishing advantage over projective sweeps."""
    best = 0.0
    for theta in np.linspace(0.0, np.pi, steps):
        for phi in np.linspace(0.0, np.pi, steps // 100):
            ket = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
            projector = np.outer(ket, ket.conj())
            p0 = float(np.trace(projector @ rho0).real)
            p1 = float(np.trace(projector @ rho1).real)
            best = max(best, 0.5 * abs(p0 - p1))
    return best


def honest_claim_ok(transcript) -> bool:
    """An honest reveal judged by the states sent, particle by particle.

    Each untested particle, in order, has one declaration, its claimed label
    is the label it was sent with, and its declaration binds the claimed bit
    to that label's basis.  The strategy's own record of its bit is never
    consulted.
    """
    sent = transcript.sent_labels
    untested = transcript.untested
    bit = transcript.claimed_bit
    if bit is None or not (len(transcript.claimed_labels) == len(transcript.declarations) == len(untested)):
        return False
    for particle, label, declaration in zip(untested, transcript.claimed_labels, transcript.declarations):
        if declaration.particle != particle or label is not sent[particle]:
            return False
        if declaration.basis_for(bit) is not sent[particle].basis:
            return False
    return True


def stages_seen(stage_events: dict, q, atol: float = 1e-9) -> tuple[str, ...]:
    """Names of the stage events in the closed past light cone of ``q``, by ``math.dist``."""
    return tuple(
        name for name, e in stage_events.items() if (q.t - e.t) - math.dist(q.x, e.x) >= -atol
    )


def sampled_regimes(
    stage_events: dict, horizon: float, samples: int = 20_000, seed: int = 0, atol: float = 1e-9
) -> set[tuple[str, ...]]:
    """Every set of stage events seen by points sampled in the future cone of ``stage_events["commit"]``.

    Times are uniform up to ``horizon`` after the commitment point; at each
    time the position is uniform in the ball the commitment point's light
    cone has reached.
    """
    gen = np.random.default_rng(seed)
    commitment = stage_events["commit"]
    elapsed = gen.uniform(0.0, horizon, samples)
    direction = gen.normal(size=(samples, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = elapsed * gen.uniform(0.0, 1.0, samples) ** (1.0 / 3.0)
    t = commitment.t + elapsed
    x = np.asarray(commitment.x) + direction * radius[:, None]
    names = list(stage_events)
    seen = np.stack(
        [
            (t - e.t) - np.linalg.norm(x - np.asarray(e.x), axis=1) >= -atol
            for e in stage_events.values()
        ],
        axis=1,
    )
    return {tuple(name for name, s in zip(names, row) if s) for row in np.unique(seen, axis=0)}


def enumerate_views(n0: int, m: int, declare):
    """Exact distribution of the verifier's pre-reveal view, per protocol bit.

    Enumerates all committed bit strings and challenge subsets for a
    committer who declares by ``declare(bit, sent)`` (the signature of
    ``protocol.honest_bases``: the basis code each declaration binds to bit
    0, from the untested particles' pair codes) against the ideal oracle.
    The view is everything the verifier holds before reveal: challenge
    subset, opened tested pairs, tested measurement outcomes, and the
    declarations.
    """
    subsets = list(itertools.combinations(range(n0), n0 - m))
    weight = 0.5 ** (2 * n0) / len(subsets)
    distributions = ({}, {})
    for bits in itertools.product((0, 1), repeat=2 * n0):
        labels = [DEFAULT_ENCODING[bits[2 * i], bits[2 * i + 1]] for i in range(n0)]
        for subset in subsets:
            tested_view = tuple((i, bits[2 * i], bits[2 * i + 1], labels[i].value) for i in subset)
            untested = tuple(i for i in range(n0) if i not in subset)
            sent = np.array([2 * bits[2 * i] + bits[2 * i + 1] for i in untested], dtype=np.int64)
            for a in (0, 1):
                decl_view = tuple(zip(untested, (int(b) for b in declare(a, sent))))
                view = (subset, tested_view, decl_view)
                distributions[a][view] = distributions[a].get(view, 0.0) + weight
    return distributions


def enumerated_view_statistics(n0: int, m: int, declare) -> tuple[float, float]:
    """TV distance and mutual information (bits) between the two view distributions, by dict sums."""
    dist0, dist1 = enumerate_views(n0, m, declare)
    support = set(dist0) | set(dist1)
    tv = 0.5 * sum(abs(dist0.get(v, 0.0) - dist1.get(v, 0.0)) for v in support)
    mi = 0.0
    for view in support:
        p0 = dist0.get(view, 0.0)
        p1 = dist1.get(view, 0.0)
        mix = 0.5 * (p0 + p1)
        for p in (p0, p1):
            if p > 0.0:
                mi += 0.5 * p * math.log2(p / mix)
    return tv, mi


class DictCommitmentOracle:
    """The commitment oracle one index at a time, in dicts.

    ``commit`` draws the flip uniform and then the leak uniform of each bit
    as it is committed, one scalar draw each, skipping a knob at zero.
    """

    def __init__(self, flip_probability: float, leak_probability: float):
        self.flip_probability = flip_probability
        self.leak_probability = leak_probability
        self.stored: dict[int, int] = {}
        self.leaked: dict[int, int] = {}
        self.opened: set[int] = set()

    def commit(self, index: int, bit: int, randomness) -> None:
        if bit not in (0, 1) or index in self.stored:
            raise ValueError(f"bad commitment of {bit!r} at index {index}")
        stored = bit
        if self.flip_probability > 0.0 and randomness.random() < self.flip_probability:
            stored = 1 - bit
        self.stored[index] = stored
        if self.leak_probability > 0.0 and randomness.random() < self.leak_probability:
            self.leaked[index] = stored

    def reveal(self, index: int) -> int:
        self.opened.add(index)
        return self.stored[index]


def _is_code(value) -> bool:
    """Whether a strategy's basis or pair code is an integer; a bool is not a code."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def scalar_run_session(strategy, params, scenario=None, randomness=None) -> SessionTranscript:
    """One session, one scalar draw per committed bit and per measured particle.

    Follows the stages of ``protocol.run_session`` with the memoized schedule
    plan and the strategy's own draws, but commits each bit through a
    ``DictCommitmentOracle``, opens each tested pair by index, and measures
    each particle with ``quantum.measure_label``, stopping at the first
    failure of a stage.  It asserts that its oracle opened exactly the
    tested pairs, which no transcript field records.
    """
    scenario = scenario or protocol.default_scenario()
    n0 = params.n0
    oracle = DictCommitmentOracle(params.flip_probability, params.leak_probability)
    schedule, violations, events = protocol._session_plan(scenario, n0)
    fields = dict(params=params, strategy=getattr(strategy, "name", type(strategy).__name__), schedule=schedule)

    def transcript(verdict, **changes):
        # The oracle opened exactly the tested pairs, or nothing before the schedule passed.
        challenged = set(range(n0)).difference(fields.get("untested", range(n0)))
        assert oracle.opened == {j for i in challenged for j in (2 * i, 2 * i + 1)}, oracle.opened
        return SessionTranscript(**{**fields, **changes}, verdict=verdict)

    if violations:
        return transcript(Verdict.ABORT, failed_stage=Stage.SCHEDULE, violations=tuple(violations))

    bits = tuple(int(b) for b in strategy.commit_bits(params, randomness))
    for index, bit in enumerate(bits):
        oracle.commit(index, bit, randomness)
    labels = tuple(DEFAULT_ENCODING[bits[2 * i], bits[2 * i + 1]] for i in range(n0))
    tested = tuple(sorted(int(i) for i in randomness.permutation(n0)[: params.n_tested]))
    untested = tuple(i for i in range(n0) if i not in tested)
    fields.update(sent_labels=labels, untested=untested, events=dict(events))

    opened = {i: DEFAULT_ENCODING[oracle.reveal(2 * i), oracle.reveal(2 * i + 1)] for i in tested}
    for particle in tested:
        if measure_label(labels[particle], opened[particle].basis, randomness) is not opened[particle]:
            return transcript(Verdict.REJECT, failed_stage=Stage.TESTED, reject_index=particle)

    # The strategy rules take and return arrays of codes; each is read here one particle at a time.
    codes = np.array([2 * bits[2 * i] + bits[2 * i + 1] for i in untested], dtype=np.int64)
    bit, bases = strategy.plan_declarations(np.array(untested, dtype=np.int64), codes.copy(), randomness)
    bases = list(bases)
    if len(bases) != len(untested) or not all(_is_code(b) and b in (0, 1) for b in bases):
        raise ValueError("declared basis codes must be one 0 or 1 per untested particle")
    declarations = tuple(Declaration(i, BASIS_OF_CODE[b]) for i, b in zip(untested, bases))
    claimed_bit, claimed = strategy.reveal_claim(bit, codes.copy(), np.array(bases, dtype=np.int64), randomness)
    claimed = list(claimed)
    if not all(_is_code(c) and 0 <= c < 4 for c in claimed):
        raise ValueError("claimed pair codes must lie in 0..3")
    claimed_labels = tuple(DEFAULT_ENCODING[divmod(int(c), 2)] for c in claimed)
    integral = isinstance(claimed_bit, numbers.Integral)
    fields.update(
        declarations=declarations,
        claimed_bit=int(claimed_bit) if integral else None,
        claimed_labels=claimed_labels,
    )

    def reject_reveal(particle):
        return transcript(Verdict.REJECT, failed_stage=Stage.REVEAL, reject_index=particle)

    if not integral or claimed_bit not in (0, 1) or len(claimed_labels) != len(declarations):
        return reject_reveal(None)
    for declaration, label in zip(declarations, claimed_labels):
        if label.basis is not declaration.basis_for(claimed_bit):
            return reject_reveal(declaration.particle)
    for declaration, label in zip(declarations, claimed_labels):
        if measure_label(labels[declaration.particle], declaration.basis_for(claimed_bit), randomness) is not label:
            return reject_reveal(declaration.particle)
    return transcript(Verdict.ACCEPT)
