"""Dense linear algebra for small multi-qubit registers.

Pure states, density matrices, conjugate-basis spin states, Born-rule
measurement, partial trace, Uhlmann fidelity, Schmidt decomposition and
purification alignment.  Registers are capped at 12 qubits; everything is
dense complex128.

All value types are immutable; operations are pure given the state of the
:class:`~certbit.rng.RandomStream` they are handed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .rng import RandomStream

__all__ = [
    "STATE_ATOL",
    "MAX_QUBITS",
    "Basis",
    "SpinLabel",
    "StateVector",
    "DensityMatrix",
    "SchmidtDecomposition",
    "spin_state",
    "basis_eigenstates",
    "born_outcomes",
    "measure_probabilities",
    "measure",
    "measure_label",
    "signal_probabilities",
    "partial_trace",
    "fidelity",
    "schmidt_decompose",
    "purify",
    "align_purifications",
    "apply_purifier_unitary",
]

# Tolerance of state validity.  Double precision leaves ample headroom at
# <= 12 qubits.
STATE_ATOL = 1e-9
MAX_QUBITS = 12

_SQRT_HALF = 1.0 / np.sqrt(2.0)


class Basis(enum.Enum):
    """One of the two conjugate measurement bases."""

    Z = "Z"
    X = "X"

    def conjugate(self) -> "Basis":
        return Basis.X if self is Basis.Z else Basis.Z


class SpinLabel(enum.Enum):
    """The four spin-1/2 signal states: two per conjugate basis."""

    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    @property
    def basis(self) -> Basis:
        return _LABEL_BASES[self._value_]


# Keyed by value: a string key hashes in C, an enum member in Python.
_LABEL_BASES = {"up": Basis.Z, "down": Basis.Z, "left": Basis.X, "right": Basis.X}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of an n-qubit register."""

    amplitudes: np.ndarray = field(repr=False)
    n_qubits: int = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        dim = amps.shape[0]
        if not _is_power_of_two(dim):
            raise ValueError(f"amplitude count {dim} is not a power of two")
        n = dim.bit_length() - 1
        if n > MAX_QUBITS:
            raise ValueError(f"register of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > STATE_ATOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "n_qubits", n)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def allclose(self, other: "StateVector", atol: float = STATE_ATOL) -> bool:
        return self.dim == other.dim and bool(
            np.allclose(self.amplitudes, other.amplitudes, atol=atol)
        )

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive, unit-trace operator on an n-qubit register."""

    entries: np.ndarray = field(repr=False)
    n_qubits: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        dim = mat.shape[0]
        if not _is_power_of_two(dim):
            raise ValueError(f"dimension {dim} is not a power of two")
        n = dim.bit_length() - 1
        if n > MAX_QUBITS:
            raise ValueError(f"register of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
        if not np.allclose(mat, mat.conj().T, atol=STATE_ATOL):
            raise ValueError("density matrix is not Hermitian")
        trace = float(np.trace(mat).real)
        if abs(trace - 1.0) > STATE_ATOL:
            raise ValueError(f"trace {trace!r} != 1")
        eigenvalues = np.linalg.eigvalsh(mat)
        if float(eigenvalues.min()) < -STATE_ATOL:
            raise ValueError(f"negative eigenvalue {eigenvalues.min()!r}")
        object.__setattr__(self, "entries", _frozen(mat))
        object.__setattr__(self, "n_qubits", n)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# Single-qubit kets in the computational (Z) basis.  The sign convention
# LEFT = (1,-1)/sqrt(2), RIGHT = (1,1)/sqrt(2) is fixed here once.
_KETS = {
    SpinLabel.UP: np.array([1.0, 0.0], dtype=np.complex128),
    SpinLabel.DOWN: np.array([0.0, 1.0], dtype=np.complex128),
    SpinLabel.LEFT: np.array([_SQRT_HALF, -_SQRT_HALF], dtype=np.complex128),
    SpinLabel.RIGHT: np.array([_SQRT_HALF, _SQRT_HALF], dtype=np.complex128),
}

# Measurement outcome 0 projects onto the +1 eigenstate of the basis
# observable, outcome 1 onto the -1 eigenstate.
_BASIS_OUTCOMES = {
    Basis.Z: (SpinLabel.UP, SpinLabel.DOWN),
    Basis.X: (SpinLabel.RIGHT, SpinLabel.LEFT),
}

_SPIN_STATES = {label: StateVector(ket) for label, ket in _KETS.items()}


def spin_state(label: SpinLabel) -> StateVector:
    """Unit vector of one of the four signal states."""
    return _SPIN_STATES[label]


def basis_eigenstates(basis: Basis) -> tuple[SpinLabel, SpinLabel]:
    """Labels collapsed to by outcomes (0, 1) of a measurement in ``basis``."""
    return _BASIS_OUTCOMES[basis]


def _basis_components(state: StateVector, basis: Basis, qubit: int):
    """Project out one qubit: amplitudes alongside outcome 0 and outcome 1."""
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.n_qubits}-qubit state")
    tensor_view = state.amplitudes.reshape((2,) * state.n_qubits)
    a0 = np.take(tensor_view, 0, axis=qubit)
    a1 = np.take(tensor_view, 1, axis=qubit)
    if basis is Basis.Z:
        return a0, a1
    return (a0 + a1) * _SQRT_HALF, (a0 - a1) * _SQRT_HALF


def _born(state: StateVector, basis: Basis, qubit: int):
    """Branch amplitudes of outcomes 0 and 1 and their Born probabilities."""
    c0, c1 = _basis_components(state, basis, qubit)
    p0 = float(np.vdot(c0, c0).real)
    p1 = float(np.vdot(c1, c1).real)
    total = p0 + p1
    return c0, c1, p0 / total, p1 / total


def _collapse(branch: np.ndarray, weight: float, basis: Basis, qubit: int, outcome: int) -> StateVector:
    """Normalized post-measurement state: the outcome's eigenstate on ``qubit``."""
    branch = branch / np.sqrt(weight)
    eigvec = _KETS[_BASIS_OUTCOMES[basis][outcome]]
    post = np.stack([eigvec[0] * branch, eigvec[1] * branch], axis=qubit)
    return StateVector(post.reshape(-1))


def born_outcomes(p0, uniforms):
    """Born-rule outcomes over floats or arrays: 1 (True) where a uniform from [0, 1) is >= ``p0``, the chance of 0."""
    return uniforms >= p0


def measure_probabilities(state: StateVector, basis: Basis, qubit: int = 0) -> tuple[float, float]:
    """Born probabilities of outcomes (0, 1) without sampling."""
    _, _, p0, p1 = _born(state, basis, qubit)
    return p0, p1


def measure(
    state: StateVector, basis: Basis, qubit: int, randomness: RandomStream
) -> tuple[int, StateVector]:
    """Projectively measure one qubit.

    Returns the outcome bit and the normalized post-measurement state.
    A zero-probability branch is never returned.
    """
    c0, c1, p0, _ = _born(state, basis, qubit)
    if born_outcomes(p0, randomness.random()):
        return 1, _collapse(c1, 1.0 - p0, basis, qubit, 1)
    return 0, _collapse(c0, p0, basis, qubit, 0)


# Born probabilities of the four signal states in both bases.  Built with the
# same helper as ``measure``, so a lookup gives the very floats it computes.
_SIGNAL_TABLE = {
    (label, basis): measure_probabilities(state, basis)
    for label, state in _SPIN_STATES.items()
    for basis in Basis
}


def signal_probabilities(label: SpinLabel, basis: Basis) -> tuple[float, float]:
    """Born probabilities of outcomes (0, 1) for a signal state, from the table."""
    return _SIGNAL_TABLE[(label, basis)]


def measure_label(label: SpinLabel, basis: Basis, randomness: RandomStream) -> SpinLabel:
    """Measure a signal state in ``basis``; report the eigenstate it collapsed to.

    Like ``measure``, it takes exactly one draw through ``born_outcomes`` with the same ``p0``.
    """
    return basis_eigenstates(basis)[int(born_outcomes(signal_probabilities(label, basis)[0], randomness.random()))]


def _as_density(obj) -> DensityMatrix:
    if isinstance(obj, StateVector):
        return obj.density()
    if isinstance(obj, DensityMatrix):
        return obj
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(obj).__name__}")


def partial_trace(obj, keep) -> DensityMatrix:
    """Reduced density matrix on the kept qubits (ascending order)."""
    rho = _as_density(obj)
    n = rho.n_qubits
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    tensor_view = rho.entries.reshape((2,) * (2 * n))
    # Contract row index q with column index n + q for every traced qubit.
    for offset, q in enumerate(traced):
        axis_row = q - offset
        axis_col = (n - offset) + q - offset
        tensor_view = np.trace(tensor_view, axis1=axis_row, axis2=axis_col)
    d = 2 ** len(keep)
    return DensityMatrix(tensor_view.reshape(d, d))


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root with negative round-off clipped to zero."""
    eigenvalues, vectors = np.linalg.eigh(mat)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return (vectors * np.sqrt(eigenvalues)) @ vectors.conj().T


def fidelity(rho0, rho1) -> float:
    """Uhlmann fidelity, squared convention.

    F = (tr sqrt(sqrt(rho0) rho1 sqrt(rho0)))^2, so for pure states F equals
    the squared overlap |<psi0|psi1>|^2.
    """
    r0 = _as_density(rho0)
    r1 = _as_density(rho1)
    if r0.dim != r1.dim:
        raise ValueError(f"dimension mismatch: {r0.dim} vs {r1.dim}")
    sq0 = _sqrt_psd(r0.entries)
    inner = sq0 @ r1.entries @ sq0
    eigenvalues = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    value = float(np.sum(np.sqrt(eigenvalues)) ** 2)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Result of a bipartite Schmidt decomposition.

    ``coefficients`` descend; ``left_vectors``/``right_vectors`` hold the
    orthonormal Schmidt vectors as columns.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> StateVector:
        amps = np.zeros(
            self.left_vectors.shape[0] * self.right_vectors.shape[0], dtype=np.complex128
        )
        for i, c in enumerate(self.coefficients):
            amps += c * np.kron(self.left_vectors[:, i], self.right_vectors[:, i])
        return StateVector(amps)


def schmidt_decompose(state: StateVector, left_qubits: int) -> SchmidtDecomposition:
    """Schmidt decomposition across the cut after the first ``left_qubits``."""
    if not 1 <= left_qubits < state.n_qubits:
        raise ValueError(f"cut {left_qubits} invalid for {state.n_qubits} qubits")
    dim_left = 2**left_qubits
    dim_right = state.dim // dim_left
    matrix = state.amplitudes.reshape(dim_left, dim_right)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return SchmidtDecomposition(
        coefficients=_frozen(s.copy()),
        left_vectors=_frozen(u.copy()),
        right_vectors=_frozen(vh.T.copy()),
    )


def _eigh_descending(rho: DensityMatrix):
    eigenvalues, vectors = np.linalg.eigh(rho.entries)
    order = np.argsort(eigenvalues)[::-1]
    return np.clip(eigenvalues[order], 0.0, None), vectors[:, order]


def purify(rho: DensityMatrix) -> StateVector:
    """Canonical purification: sum_i sqrt(l_i) |e_i> |i> on state x purifier.

    The purifier is as large as the state, which covers every rank, so the
    result is a register of twice the state's qubits.  Eigenvalues descend.
    """
    eigenvalues, vectors = _eigh_descending(rho)
    return StateVector((vectors * np.sqrt(eigenvalues)).reshape(-1))


def _purifier_dim_of(state: StateVector, system_dim: int) -> int:
    if state.dim % system_dim != 0:
        raise ValueError("system dimension does not divide the joint dimension")
    return state.dim // system_dim


def align_purifications(
    psi_from: StateVector, psi_to: StateVector, system_dim: int
) -> tuple[np.ndarray, float]:
    """Optimal purifier-side unitary aligning one purification with another.

    Both states live on system x purifier with the system factor first.
    Returns ``(U, overlap)`` where ``U`` acts on the purifier alone and
    ``overlap = <psi_to| (I x U) |psi_from>`` is maximal, equal to
    sqrt(F) of the reduced system states.
    """
    p_from = _purifier_dim_of(psi_from, system_dim)
    p_to = _purifier_dim_of(psi_to, system_dim)
    if p_from != p_to:
        raise ValueError(f"purifier dimensions differ: {p_from} vs {p_to}")
    a_from = psi_from.amplitudes.reshape(system_dim, p_from)
    a_to = psi_to.amplitudes.reshape(system_dim, p_to)
    overlap_matrix = a_to.conj().T @ a_from
    u_left, singulars, v_right_h = np.linalg.svd(overlap_matrix)
    unitary = u_left.conj() @ v_right_h.conj()
    achieved = float(np.sum(singulars))
    return unitary, achieved


def apply_purifier_unitary(state: StateVector, unitary: np.ndarray, system_dim: int) -> StateVector:
    """Apply ``I x U`` where ``U`` acts on the trailing purifier factor."""
    p = _purifier_dim_of(state, system_dim)
    if unitary.shape != (p, p):
        raise ValueError(f"unitary shape {unitary.shape} does not match purifier dim {p}")
    amp = state.amplitudes.reshape(system_dim, p)
    return StateVector((amp @ unitary.T).reshape(-1))
