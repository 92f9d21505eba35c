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

from .protocol import Declaration, ProtocolParams, honest_declarations
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

    def __init__(self, bit: int | None = None):
        if bit not in (None, 0, 1):
            raise ValueError("bit must be 0, 1 or None")
        self.bit = bit
        self.last_bit: int | None = None

    def commit_bits(self, params: ProtocolParams, randomness: RandomStream) -> tuple[int, ...]:
        return randomness.bits(params.n_commitments)

    def plan_declarations(self, particles, labels, randomness: RandomStream):
        self.last_bit = self.bit if self.bit is not None else randomness.bit()
        return honest_declarations(self.last_bit, particles, labels)

    def reveal_claim(self, particles, labels, declarations, randomness: RandomStream):
        return self.last_bit, tuple(labels)


class ClassicalFlip:
    """Hedged declarations: exactly k of them are false for the target bit.

    The committer declares truthfully for the non-target bit on k particles
    (so those declarations are false for ``target_bit``) and truthfully for
    the target bit on the rest.  At reveal she claims ``target_bit``; on
    each falsely declared particle she must name an eigenstate of a basis
    conjugate to the particle's actual state, and the default guess rule
    picks one of the two uniformly.  Each such particle passes the
    measurement check with probability 1/2, so the reveal is accepted with
    probability 2^-k.
    """

    name = "classical-flip"

    def __init__(self, k: int, target_bit: int | None = None):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self.target_bit = target_bit
        self.last_bit: int | None = None
        self.false_particles: tuple[int, ...] = ()

    def commit_bits(self, params: ProtocolParams, randomness: RandomStream) -> tuple[int, ...]:
        if self.k > params.m:
            raise ValueError(f"k={self.k} exceeds the {params.m} untested particles")
        return randomness.bits(params.n_commitments)

    def plan_declarations(self, particles, labels, randomness: RandomStream):
        if self.k > len(particles):
            raise ValueError(f"k={self.k} exceeds the {len(particles)} untested particles")
        self.last_bit = self.target_bit if self.target_bit is not None else randomness.bit()
        flipped = randomness.choice(len(particles), size=self.k, replace=False)
        flip_positions = set(int(i) for i in np.atleast_1d(flipped))
        self.false_particles = tuple(
            particles[pos] for pos in sorted(flip_positions)
        )
        declarations = []
        for pos, (particle, label) in enumerate(zip(particles, labels)):
            basis = label.basis
            if pos in flip_positions:
                basis = basis.conjugate()  # false for the target bit
            basis_for_zero = basis if self.last_bit == 0 else basis.conjugate()
            declarations.append(Declaration(particle, basis_for_zero))
        return tuple(declarations)

    def reveal_claim(self, particles, labels, declarations, randomness: RandomStream):
        claims = []
        false_set = set(self.false_particles)
        for declaration, label in zip(declarations, labels):
            basis = declaration.basis_for(self.last_bit)
            if declaration.particle in false_set:
                claims.append(basis_eigenstates(basis)[randomness.bit()])
            else:
                claims.append(label)
        return self.last_bit, tuple(claims)


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
    ``commit_states[b]`` and handing the system half to the verifier;
    opening hands over the purifier, and the verifier applies the bit's
    accept test on the joint state.  Default accept tests are rank-1
    projectors onto the honest joint states, so honest runs are accepted
    with probability 1.
    """

    commit_states: tuple[DensityMatrix, DensityMatrix]
    accept_tests: tuple[np.ndarray, np.ndarray] = field(default=None)
    purifier_dim: int = field(default=None)

    def __post_init__(self):
        rho0, rho1 = self.commit_states
        if rho0.dim != rho1.dim:
            raise ValueError("commit states must share a dimension")
        purifier_dim = self.purifier_dim or rho0.dim
        object.__setattr__(self, "purifier_dim", purifier_dim)
        joint = rho0.dim * purifier_dim
        if joint > 64:
            raise ValueError(f"joint dimension {joint} exceeds the 2^6 cap")
        if self.accept_tests is None:
            tests = []
            for rho in self.commit_states:
                psi = purify(rho, purifier_dim)
                tests.append(np.outer(psi.amplitudes, psi.amplitudes.conj()))
            object.__setattr__(self, "accept_tests", tuple(tests))
        for bit, test in enumerate(self.accept_tests):
            if test.shape != (joint, joint):
                raise ValueError(f"accept test {bit} has shape {test.shape}, expected {(joint, joint)}")
            if not np.allclose(test, test.conj().T, atol=1e-9):
                raise ValueError(f"accept test {bit} is not Hermitian")
            if not np.allclose(test @ test, test, atol=1e-9):
                raise ValueError(f"accept test {bit} is not idempotent")
            honest = purify(self.commit_states[bit], purifier_dim)
            accept = float(np.vdot(honest.amplitudes, test @ honest.amplitudes).real)
            if abs(accept - 1.0) > 1e-9:
                raise ValueError(f"honest state for bit {bit} accepted with p={accept!r}, not 1")

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
    open_unitaries: tuple[np.ndarray, np.ndarray]
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
    p_dim = protocol.purifier_dim
    psi0 = purify(rho0, p_dim)
    psi1 = purify(rho1, p_dim)
    # Rotate psi1's purifier so the two purifications overlap by sqrt(F).
    aligner, overlap = align_purifications(psi1, psi0, protocol.system_dim)
    psi1_aligned = apply_purifier_unitary(psi1, aligner, protocol.system_dim)
    midpoint = psi0.amplitudes + psi1_aligned.amplitudes
    midpoint = StateVector(midpoint / np.linalg.norm(midpoint))

    unitaries = []
    probabilities = []
    for bit, honest in enumerate((psi0, psi1)):
        unitary, _ = align_purifications(midpoint, honest, protocol.system_dim)
        steered = apply_purifier_unitary(midpoint, unitary, protocol.system_dim)
        probabilities.append(protocol.open_probability(steered, bit))
        unitaries.append(unitary)

    return PurificationAttackResult(
        p0=probabilities[0],
        p1=probabilities[1],
        commit_state=midpoint,
        open_unitaries=(unitaries[0], unitaries[1]),
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


def _hermitian_from_params(params: np.ndarray, dim: int) -> np.ndarray:
    h = np.zeros((dim, dim), dtype=np.complex128)
    idx = 0
    for i in range(dim):
        h[i, i] = params[idx]
        idx += 1
    for i in range(dim):
        for j in range(i + 1, dim):
            h[i, j] = params[idx] + 1j * params[idx + 1]
            h[j, i] = params[idx] - 1j * params[idx + 1]
            idx += 2
    return h


# Grid points whose batched acceptance lies within this of the batched
# maximum are re-evaluated one by one.  It exceeds twice the batched
# rounding error (~1e-15) by far, so the exact maximum is always among them.
SWEEP_TIE_ATOL = 1e-9


def _steered_acceptance(protocol: ToyBCProtocol, joint_state: StateVector, bit: int, unitary) -> float:
    """Acceptance of opening ``bit`` after ``unitary`` acts on the purifier."""
    steered = apply_purifier_unitary(joint_state, unitary, protocol.system_dim)
    return protocol.open_probability(steered, bit)


def _grid_search_2x2(protocol: ToyBCProtocol, joint_state: StateVector, bit: int, grid: int):
    """Best ``(value, (theta, alpha, beta))`` on the sweep grid, for a 2-dim purifier.

    The grid is evaluated in numpy, one theta slab of ``(2 grid)^2`` unitaries
    at a time, so memory stays at one slab.  Batched sums can differ from
    the scalar :func:`_steered_acceptance` in the last ulp, and the grid has
    exact ties, so the result is not a batched argmax: every point within
    ``SWEEP_TIE_ATOL`` of the batched maximum is re-evaluated with the
    scalar path in (theta, alpha, beta) C order, and the first strict
    maximum is kept.  That is the point and value a scalar loop over the
    whole grid picks.
    """
    angles = np.linspace(0.0, np.pi / 2.0, grid)
    phases = np.linspace(0.0, 2.0 * np.pi, 2 * grid, endpoint=False)
    alpha, beta = np.meshgrid(phases, phases, indexing="ij")
    amp = joint_state.amplitudes.reshape(protocol.system_dim, 2)
    test = protocol.accept_tests[bit]
    values = np.empty((grid, alpha.size))
    for row, theta in enumerate(angles):
        unitaries = _unitary_2x2(theta, alpha.ravel(), beta.ravel())
        steered = np.einsum("il,jlk->kij", amp, unitaries).reshape(alpha.size, -1)
        values[row] = np.einsum("ka,ab,kb->k", steered.conj(), test, steered).real

    best_value, best_point = -1.0, (0.0, 0.0, 0.0)
    for flat in np.flatnonzero(values >= values.max() - SWEEP_TIE_ATOL):
        row, a, b = np.unravel_index(flat, (grid, 2 * grid, 2 * grid))
        point = (angles[row], phases[a], phases[b])
        value = _steered_acceptance(protocol, joint_state, bit, _unitary_2x2(*point))
        if value > best_value:
            best_value, best_point = value, point
    return best_value, best_point


def sweep_open_probability(
    protocol: ToyBCProtocol,
    joint_state: StateVector,
    bit: int,
    grid: int = 18,
) -> float:
    """Best acceptance of opening ``bit`` over purifier unitaries, numerically.

    For a 2-dimensional purifier this is a dense 3-angle grid search
    (``grid`` x ``2 grid`` x ``2 grid`` points) with Nelder-Mead refinement
    from the grid's best point.  The grid is evaluated in numpy one theta
    slab at a time; near-ties with the maximum are re-evaluated one by one
    and the first strict maximum in grid order is kept, so the start point
    is the one a scalar loop would pick (see :func:`_grid_search_2x2`).
    For larger purifiers it refines from random Hermitian generators.
    Converges to the closed-form optimum within 1e-6 and is deliberately
    independent of the Uhlmann construction.
    """
    from scipy import optimize  # deferred: scipy.optimize dominates import time

    p_dim = protocol.purifier_dim

    def accept(unitary: np.ndarray) -> float:
        return _steered_acceptance(protocol, joint_state, bit, unitary)

    if p_dim == 2:
        best_value, best_point = _grid_search_2x2(protocol, joint_state, bit, grid)
        result = optimize.minimize(
            lambda p: -accept(_unitary_2x2(*p)),
            np.array(best_point),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        return max(best_value, -float(result.fun))

    n_params = p_dim * p_dim
    best = -1.0
    seeds = np.random.default_rng(0)
    for _ in range(6):
        start = seeds.normal(scale=0.5, size=n_params)

        def objective(params):
            generator = _hermitian_from_params(params, p_dim)
            eigenvalues, vectors = np.linalg.eigh(generator)
            unitary = (vectors * np.exp(1j * eigenvalues)) @ vectors.conj().T
            return -accept(unitary)

        result = optimize.minimize(
            objective, start, method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 20000}
        )
        best = max(best, -float(result.fun))
    return best


@dataclass(frozen=True)
class WeakOracleReport:
    """How oracle imperfection degrades the composed protocol."""

    flip_probability: float
    leak_probability: float
    trials: int
    honest_accept_rate: float
    reveal_bit_error_rate: float
    leaked_fraction: float

    @property
    def completeness_degradation(self) -> float:
        return 1.0 - self.honest_accept_rate


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
    from .protocol import run_session  # local import to keep module load light

    accepted = 0
    bit_errors = 0
    leaked_total = 0
    for _ in range(trials):
        strategy = Honest()
        transcript = run_session(strategy, params, scenario=scenario, randomness=randomness)
        if transcript.accepted:
            accepted += 1
            if transcript.claimed_bit != strategy.last_bit:
                bit_errors += 1
        leaked_total += len(transcript.leaked_view)
    return WeakOracleReport(
        flip_probability=params.flip_probability,
        leak_probability=params.leak_probability,
        trials=trials,
        honest_accept_rate=accepted / trials,
        reveal_bit_error_rate=bit_errors / max(accepted, 1),
        leaked_fraction=leaked_total / (trials * params.n_commitments),
    )
