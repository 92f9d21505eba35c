"""Committer strategies and the attacks that drive the security analysis.

Three families:

* declaration-flipping on the reduction protocol (classical cheating,
  caught with probability 1 - 2^-k for k false declarations),
* the entangled commit, where the committed bit is held in superposition
  with an ancilla the committer keeps,
* the purification attack on finite two-state commitment abstractions,
  which steers a kept purifier between the two honest openings and
  achieves p0 + p1 = 1 + sqrt(F).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .protocol import _BASES, _CODES, ProtocolParams, _is_integer, honest_bases, run_sessions
from .quantum import (
    DensityMatrix,
    StateVector,
    align_purifications,
    apply_purifier_unitary,
    basis_eigenstates,
    fidelity,
    partial_trace,
    purify,
)
from .rng import RandomStream

__all__ = [
    "Honest",
    "ClassicalFlip",
    "entangled_commit",
    "entangled_reveal_probability",
    "sample_entangled_reveals",
    "ToyBCProtocol",
    "PurificationAttackResult",
    "purification_attack",
    "sweep_open_probability",
    "WeakOracleReport",
    "weak_oracle_degradation",
]


class Honest:
    """Follows the protocol; commits random bits and one random protocol bit."""

    name = "honest"

    def commit_bits(self, params: ProtocolParams, randomness: RandomStream) -> np.ndarray:
        return randomness.bits(params.n_commitments)

    def plan_declarations(self, particles, sent, randomness: RandomStream):
        bit = randomness.bit()
        return bit, honest_bases(bit, sent)

    def reveal_claim(self, bit, sent, bases, randomness: RandomStream):
        return bit, sent


# _EIGENSTATES[b]: the pair codes of ``basis_eigenstates`` of basis code b, in its order.
_EIGENSTATES = np.array([[_CODES[label.value] for label in basis_eigenstates(basis)] for basis in _BASES])


class ClassicalFlip:
    """Hedged declarations: exactly k of them are false for the target bit.

    The target bit is drawn at random.  The committer declares truthfully
    for the non-target bit on k particles (so those declarations are false
    for the target) and truthfully for the target bit on the rest.  At
    reveal the committer claims the target bit; on each falsely declared
    particle it must name an eigenstate of a basis conjugate to the
    particle's actual state, and the guess picks one of the two uniformly.
    Each such particle passes the measurement check with probability 1/2,
    so the reveal is accepted with probability 2^-k.
    """

    name = "classical-flip"

    def __init__(self, k: int):
        if not _is_integer(k):
            raise ValueError(f"k must be an integer, not {k!r}")
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k

    def commit_bits(self, params: ProtocolParams, randomness: RandomStream) -> np.ndarray:
        if self.k > params.m:
            raise ValueError(f"k={self.k} exceeds the {params.m} untested particles")
        return randomness.bits(params.n_commitments)

    def plan_declarations(self, particles, sent, randomness: RandomStream):
        if self.k > len(particles):
            raise ValueError(f"k={self.k} exceeds the {len(particles)} untested particles")
        bit = randomness.bit()
        bases = honest_bases(bit, sent)
        bases[randomness.choice(len(particles), size=self.k, replace=False)] ^= 1
        return bit, bases

    def reveal_claim(self, bit, sent, bases, randomness: RandomStream):
        # A declaration false for the claimed bit leaves a uniform guess in its basis.
        false = np.flatnonzero(bases ^ bit != sent >> 1)
        claims = sent.copy()
        claims[false] = _EIGENSTATES[bases[false] ^ bit, randomness.integers(0, 2, size=false.size)]
        return bit, claims


def entangled_commit(alpha: complex, beta: complex) -> StateVector:
    """Joint state alpha|00> + beta|11> on (commit qubit, kept ancilla).

    Tracing out the ancilla leaves the improper mixture
    |alpha|^2 |0><0| + |beta|^2 |1><1| on the commit qubit.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {norm!r} != 1")
    return StateVector(np.array([alpha, 0.0, 0.0, beta], dtype=np.complex128))


def entangled_reveal_probability(alpha: complex, beta: complex) -> float:
    """Probability the ancilla measurement makes the committer reveal 0.

    Equals |alpha|^2: measuring the kept ancilla in the computational basis
    just before reveal reproduces exactly the statistics of honestly
    committing a random bit with that bias.
    """
    state = entangled_commit(alpha, beta)
    ancilla = partial_trace(state, [1])
    return float(ancilla.entries[0, 0].real)


def sample_entangled_reveals(alpha, beta, trials: int, randomness: RandomStream) -> np.ndarray:
    """Monte Carlo of the delayed ancilla measurement; returns revealed bits."""
    p_zero = entangled_reveal_probability(alpha, beta)
    return (randomness.random(trials) >= p_zero).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ToyBCProtocol:
    """Finite two-state commitment abstraction.

    Committing bit b honestly means preparing the canonical purification of
    ``commit_states[b]`` (:func:`~certbit.quantum.purify`, whose purifier
    is as large as the state) and handing the system half to the verifier;
    opening hands over the purifier, and the verifier applies the bit's
    accept test on the joint state.  ``purifications`` holds the two honest
    joint states and ``accept_tests`` the rank-1 projectors onto them, both
    built here, so honest runs are accepted with probability 1.
    """

    commit_states: tuple[DensityMatrix, DensityMatrix]
    purifications: tuple[StateVector, StateVector] = field(init=False)
    accept_tests: tuple[np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self):
        rho0, rho1 = self.commit_states
        if rho0.dim != rho1.dim:
            raise ValueError("commit states must share a dimension")
        joint = rho0.dim * rho0.dim
        if joint > 64:
            raise ValueError(f"joint dimension {joint} exceeds the 2^6 cap")
        purifications = tuple(purify(rho) for rho in self.commit_states)
        object.__setattr__(self, "purifications", purifications)
        tests = tuple(np.outer(psi.amplitudes, psi.amplitudes.conj()) for psi in purifications)
        object.__setattr__(self, "accept_tests", tests)

    @property
    def system_dim(self) -> int:
        return self.commit_states[0].dim

    def open_probability(self, joint_state: StateVector, bit: int) -> float:
        """Acceptance probability of opening ``bit`` from a joint state."""
        amps = joint_state.amplitudes
        return float(np.vdot(amps, self.accept_tests[bit] @ amps).real)


@dataclass(frozen=True, eq=False)
class PurificationAttackResult:
    p0: float
    p1: float
    commit_state: StateVector
    fidelity: float

    @property
    def p_sum(self) -> float:
        return self.p0 + self.p1


def purification_attack(protocol: ToyBCProtocol) -> PurificationAttackResult:
    """Optimal purifier-steering attack on a finite commitment abstraction.

    The committer prepares the equal superposition of two maximally aligned
    purifications of the two honest commit states (their reduced state sits
    midway between them), keeps the purifier, and at opening time applies
    the purifier rotation that aligns her state with the requested honest
    opening.  Each opening is then accepted with probability
    (1 + sqrt(F))/2, so p0 + p1 = 1 + sqrt(F(rho0, rho1)): binding degrades
    exactly as hiding improves.
    """
    rho0, rho1 = protocol.commit_states
    psi0, psi1 = protocol.purifications
    # Rotate psi1's purifier so the two purifications overlap by sqrt(F).
    aligner, _ = align_purifications(psi1, psi0, protocol.system_dim)
    psi1_aligned = apply_purifier_unitary(psi1, aligner, protocol.system_dim)
    midpoint = psi0.amplitudes + psi1_aligned.amplitudes
    midpoint = StateVector(midpoint / np.linalg.norm(midpoint))

    probabilities = []
    for bit, honest in enumerate((psi0, psi1)):
        unitary, _ = align_purifications(midpoint, honest, protocol.system_dim)
        steered = apply_purifier_unitary(midpoint, unitary, protocol.system_dim)
        probabilities.append(protocol.open_probability(steered, bit))

    return PurificationAttackResult(
        p0=probabilities[0],
        p1=probabilities[1],
        commit_state=midpoint,
        fidelity=fidelity(rho0, rho1),
    )


def _unitary_2x2(theta, alpha, beta) -> np.ndarray:
    """U(2) up to global phase.

    Array angles broadcast: the result then has shape ``(2, 2, *shape)``,
    one unitary per angle triple along the trailing axes.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c * np.exp(1j * alpha), s * np.exp(1j * beta)],
            [-s * np.exp(-1j * beta), c * np.exp(-1j * alpha)],
        ],
        dtype=np.complex128,
    )


# The sweep's start grid has SWEEP_GRID angles theta in [0, pi/2] and
# 2 * SWEEP_GRID phases each for alpha and beta.  Its local search stops
# once every step is below SWEEP_MIN_STEP radians.
SWEEP_GRID = 18
SWEEP_MIN_STEP = 1e-12

# The 3 x 3 x 3 local grid around the best point, in units of one step.
_LOCAL_OFFSETS = np.stack(np.meshgrid(*[(-1, 0, 1)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def sweep_open_probability(protocol: ToyBCProtocol, joint_state: StateVector, bit: int) -> float:
    """Best acceptance of opening ``bit`` over purifier unitaries, numerically.

    Needs a 2-dimensional purifier, so one-qubit commit states, and sweeps
    U(2) up to global phase in the angles ``(theta, alpha, beta)`` of
    :func:`_unitary_2x2`.  The ``SWEEP_GRID`` x ``2 SWEEP_GRID`` x
    ``2 SWEEP_GRID`` start grid is evaluated in one numpy batch.  A pattern
    search then evaluates the 3 x 3 x 3 points one step either side of the
    best point so far, moves to the best of them, and halves the steps when
    none beats it, until every step is below ``SWEEP_MIN_STEP``.  The steps halve only on no
    gain because halving every round can strand the search short of the
    optimum: by ~1e-3 for a pure commit state against a mixed one.  The
    result never falls below the best grid value, and is independent of
    the Uhlmann construction behind :func:`purification_attack`.  No
    shipped run calls it: it is kept as the tests' optimality oracle for
    that attack and because the benchmark's trace targets name it.
    """
    if protocol.system_dim != 2:
        raise ValueError(f"the unitary sweep needs a 2-dimensional purifier, not {protocol.system_dim}")
    amp = joint_state.amplitudes.reshape(protocol.system_dim, 2)
    test = protocol.accept_tests[bit]

    def accept(points: np.ndarray) -> np.ndarray:
        unitaries = _unitary_2x2(*points.T)
        steered = np.einsum("il,jlk->kij", amp, unitaries).reshape(len(points), -1)
        return np.einsum("ka,ab,kb->k", steered.conj(), test, steered).real

    angles = np.linspace(0.0, np.pi / 2.0, SWEEP_GRID)
    phases = np.linspace(0.0, 2.0 * np.pi, 2 * SWEEP_GRID, endpoint=False)
    grid = np.stack(np.meshgrid(angles, phases, phases, indexing="ij"), axis=-1).reshape(-1, 3)
    values = accept(grid)
    best = int(np.argmax(values))
    value, point = values[best], grid[best]
    step = np.array([angles[1], phases[1], phases[1]])
    while step.max() >= SWEEP_MIN_STEP:
        candidates = point + _LOCAL_OFFSETS * step
        values = accept(candidates)
        best = int(np.argmax(values))
        if values[best] > value:
            value, point = values[best], candidates[best]
        else:
            step /= 2.0
    return float(value)


@dataclass(frozen=True)
class WeakOracleReport:
    """How oracle imperfection degrades the composed protocol."""

    flip_probability: float
    leak_probability: float
    trials: int
    accepted: int
    leaked: int
    commitments: int

    @property
    def honest_accept_rate(self) -> float:
        return self.accepted / self.trials

    @property
    def leaked_fraction(self) -> float:
        return self.leaked / self.commitments


def weak_oracle_degradation(
    params: ProtocolParams,
    trials: int,
    randomness: RandomStream,
    scenario=None,
) -> WeakOracleReport:
    """Monte Carlo of honest sessions against a degraded oracle.

    Measures how the flip knob (certified values differing from committed
    inputs) destroys completeness, and how much of the receiver's view the
    leak knob exposes.  With both knobs at zero the degradation is zero.
    """
    accepted, leaked = run_sessions(params, trials, randomness, scenario=scenario)
    return WeakOracleReport(
        flip_probability=params.flip_probability,
        leak_probability=params.leak_probability,
        trials=trials,
        accepted=int(np.count_nonzero(accepted)),
        leaked=int(leaked.sum()),
        commitments=trials * params.n_commitments,
    )
