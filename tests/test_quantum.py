"""Numerical core: states, measurement, fidelity, Schmidt, purifications."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from certbit.quantum import (
    Basis,
    DensityMatrix,
    SpinLabel,
    StateVector,
    align_purifications,
    apply_purifier_unitary,
    basis_eigenstates,
    born_outcomes,
    fidelity,
    measure,
    measure_label,
    measure_probabilities,
    partial_trace,
    purify,
    schmidt_decompose,
    signal_probabilities,
    spin_state,
)
from certbit.rng import RandomStream
import oracles

SQ2 = 1.0 / np.sqrt(2.0)


def random_state_vector(seed, n_qubits):
    gen = np.random.default_rng(seed)
    return StateVector(oracles.random_state(gen, n_qubits))


def random_density_matrix(seed, dim, rank=None):
    gen = np.random.default_rng(seed)
    return DensityMatrix(oracles.random_density(gen, dim, rank))


def tensor(a, b):
    """Kronecker product of two registers; ``a``'s qubits come first."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


class TestStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_rejects_oversized_register(self):
        amps = np.zeros(2**13)
        amps[0] = 1.0
        with pytest.raises(ValueError, match="cap"):
            StateVector(amps)

    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_amplitudes_immutable(self):
        state = spin_state(SpinLabel.UP)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestSpinStates:
    def test_up_is_z_plus(self):
        assert np.allclose(spin_state(SpinLabel.UP).amplitudes, [1.0, 0.0])

    def test_right_is_x_plus(self):
        assert np.allclose(spin_state(SpinLabel.RIGHT).amplitudes, [SQ2, SQ2])

    def test_left_orthogonal_to_right(self):
        left = spin_state(SpinLabel.LEFT).amplitudes
        right = spin_state(SpinLabel.RIGHT).amplitudes
        assert abs(np.vdot(left, right)) < 1e-12

    def test_conjugate_basis_overlap_is_half(self):
        up = spin_state(SpinLabel.UP).amplitudes
        right = spin_state(SpinLabel.RIGHT).amplitudes
        assert abs(np.vdot(up, right)) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_basis_assignment(self):
        assert SpinLabel.UP.basis is Basis.Z
        assert SpinLabel.DOWN.basis is Basis.Z
        assert SpinLabel.LEFT.basis is Basis.X
        assert SpinLabel.RIGHT.basis is Basis.X

    def test_basis_conjugation_involutive(self):
        for basis in Basis:
            assert basis.conjugate().conjugate() is basis


class TestTensor:
    def test_computational_basis(self):
        up, down = spin_state(SpinLabel.UP), spin_state(SpinLabel.DOWN)
        assert np.allclose(tensor(up, down).amplitudes, [0, 1, 0, 0])

    def test_up_right(self):
        product = tensor(spin_state(SpinLabel.UP), spin_state(SpinLabel.RIGHT))
        assert np.allclose(product.amplitudes, [SQ2, SQ2, 0, 0])

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved(self, seed, na, nb):
        a = random_state_vector(seed, na)
        b = random_state_vector(seed + 1, nb)
        joint = tensor(a, b)
        assert joint.n_qubits == na + nb
        assert np.vdot(joint.amplitudes, joint.amplitudes).real == pytest.approx(1.0, abs=1e-9)


class TestMeasurement:
    def test_eigenstate_is_deterministic(self, rng):
        for _ in range(20):
            outcome, post = measure(spin_state(SpinLabel.UP), Basis.Z, 0, rng)
            assert outcome == 0
            assert post.allclose(spin_state(SpinLabel.UP))

    def test_conjugate_basis_probabilities(self):
        p0, p1 = measure_probabilities(spin_state(SpinLabel.UP), Basis.X, 0)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_right_in_z_frequency(self, rng):
        # ``measure`` decides each outcome by ``born_outcomes`` on one uniform, so one array of them is its frequency.
        trials = 100_000
        p0, _ = measure_probabilities(spin_state(SpinLabel.RIGHT), Basis.Z, 0)
        ones = int(np.count_nonzero(born_outcomes(p0, rng.random(trials))))
        assert abs(ones / trials - 0.5) < 0.005

    def test_born_rule_chi_squared(self, rng):
        # Frequencies of a biased state must match Born probabilities.
        state = StateVector(np.array([np.sqrt(0.3), np.sqrt(0.7)]))
        trials = 100_000
        p0, _ = measure_probabilities(state, Basis.Z, 0)
        ones = int(np.count_nonzero(born_outcomes(p0, rng.random(trials))))
        observed = [trials - ones, ones]
        expected = [0.3 * trials, 0.7 * trials]
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 1e-4

    def test_zero_probability_branch_never_returned(self, rng):
        for _ in range(50):
            outcome, _ = measure(spin_state(SpinLabel.LEFT), Basis.X, 0, rng)
            assert outcome == 1  # LEFT is the -1 eigenstate

    def test_post_state_normalized(self, rng):
        state = random_state_vector(7, 3)
        for qubit in range(3):
            for basis in Basis:
                _, post = measure(state, basis, qubit, rng)
                norm = np.vdot(post.amplitudes, post.amplitudes).real
                assert norm == pytest.approx(1.0, abs=1e-9)

    def test_measure_label_roundtrip(self, rng):
        for label in SpinLabel:
            seen = measure_label(label, label.basis, rng)
            assert seen is label

    def test_outcome_label_table(self):
        assert basis_eigenstates(Basis.Z)[0] is SpinLabel.UP
        assert basis_eigenstates(Basis.Z)[1] is SpinLabel.DOWN
        assert basis_eigenstates(Basis.X)[0] is SpinLabel.RIGHT
        assert basis_eigenstates(Basis.X)[1] is SpinLabel.LEFT

    def test_bad_qubit_index(self, rng):
        with pytest.raises(IndexError):
            measure(spin_state(SpinLabel.UP), Basis.Z, 1, rng)


class TestBornTable:
    """``measure_label`` on a signal label against generic ``measure`` on its state."""

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("label", list(SpinLabel))
    def test_matches_generic_measure(self, label, basis):
        state = spin_state(label)
        outcomes = set()
        for seed in range(24):
            fast_stream, generic_stream = RandomStream(seed), RandomStream(seed)
            seen = measure_label(label, basis, fast_stream)
            outcome, _ = measure(state, basis, 0, generic_stream)
            assert seen is basis_eigenstates(basis)[outcome]
            # Both consumed the same number of draws: the streams stay in step.
            assert fast_stream.random() == generic_stream.random()
            outcomes.add(outcome)
        assert len(outcomes) == (1 if label.basis is basis else 2)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("label", list(SpinLabel))
    def test_probabilities_are_the_generic_floats(self, label, basis):
        assert signal_probabilities(label, basis) == measure_probabilities(spin_state(label), basis, 0)


class TestPartialTrace:
    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell, [0])
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_reduces_to_factor(self):
        a = random_state_vector(3, 1)
        b = random_state_vector(4, 1)
        reduced = partial_trace(tensor(a, b), [0])
        assert np.allclose(reduced.entries, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12)

    def test_schmidt_weights_of_entangled_pair(self):
        alpha, beta = np.sqrt(0.3), np.sqrt(0.7)
        state = StateVector(np.array([alpha, 0, 0, beta]))
        eigenvalues = np.sort(np.linalg.eigvalsh(partial_trace(state, [1]).entries))
        assert np.allclose(eigenvalues, [0.3, 0.7], atol=1e-12)

    def test_keep_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(spin_state(SpinLabel.UP), [])

    @given(st.integers(0, 2**31 - 1), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_purification_roundtrip(self, seed, n_qubits):
        # Tracing the purifier out of any purification returns the state.
        rho = random_density_matrix(seed, 2 ** (n_qubits // 2))
        psi = purify(rho)
        kept = list(range(rho.n_qubits))
        assert np.abs(partial_trace(psi, kept).entries - rho.entries).max() < 1e-10


class TestFidelity:
    def test_identical_pure_states(self):
        zero = spin_state(SpinLabel.UP).density()
        assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_basis_pure_states(self):
        zero = spin_state(SpinLabel.UP).density()
        plus = spin_state(SpinLabel.RIGHT).density()
        assert fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_vs_pure(self):
        # Frozen from the independent scipy-sqrtm oracle: 0.5.
        mixed = DensityMatrix(np.eye(2) / 2)
        zero = spin_state(SpinLabel.UP).density()
        assert fidelity(mixed, zero) == pytest.approx(0.5, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_sqrtm_oracle(self, seed):
        rho0 = random_density_matrix(seed, 4)
        rho1 = random_density_matrix(seed + 17, 4)
        expected = oracles.fidelity_sqrtm(rho0.entries, rho1.entries)
        assert fidelity(rho0, rho1) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_axioms(self, seed):
        rho0 = random_density_matrix(seed, 2)
        rho1 = random_density_matrix(seed + 1, 2)
        f01 = fidelity(rho0, rho1)
        assert 0.0 <= f01 <= 1.0
        assert f01 == pytest.approx(fidelity(rho1, rho0), abs=1e-9)
        assert fidelity(rho0, rho0) == pytest.approx(1.0, abs=1e-9)

    def test_unity_only_for_equal_states(self):
        rho0 = random_density_matrix(11, 2)
        rho1 = random_density_matrix(12, 2)
        if not np.allclose(rho0.entries, rho1.entries, atol=1e-9):
            assert fidelity(rho0, rho1) < 1.0 - 1e-9


class TestSchmidt:
    def test_product_state_has_single_coefficient(self):
        product = tensor(spin_state(SpinLabel.RIGHT), spin_state(SpinLabel.DOWN))
        decomposition = schmidt_decompose(product, 1)
        assert decomposition.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(decomposition.coefficients[1:] < 1e-12)

    def test_bell_state_coefficients(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        decomposition = schmidt_decompose(bell, 1)
        assert np.allclose(decomposition.coefficients, [SQ2, SQ2], atol=1e-12)

    def test_three_qubit_reconstruction(self):
        state = random_state_vector(99, 3)
        decomposition = schmidt_decompose(state, 1)
        error = np.abs(decomposition.reconstruct().amplitudes - state.amplitudes).max()
        assert error < 1e-10

    @given(st.integers(0, 2**31 - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_up_to_six_qubits(self, seed, n_qubits):
        state = random_state_vector(seed, n_qubits)
        for cut in range(1, n_qubits):
            decomposition = schmidt_decompose(state, cut)
            assert np.sum(decomposition.coefficients**2) == pytest.approx(1.0, abs=1e-9)
            error = np.abs(decomposition.reconstruct().amplitudes - state.amplitudes).max()
            assert error < 1e-10
            descending = decomposition.coefficients
            assert np.all(descending[:-1] >= descending[1:] - 1e-15)


class TestUhlmannRotation:
    def test_identical_states_identity_overlap(self):
        rho = random_density_matrix(21, 2)
        unitary, _ = align_purifications(purify(rho), purify(rho), 2)
        psi = purify(rho)
        moved = apply_purifier_unitary(psi, unitary, 2)
        overlap = abs(np.vdot(purify(rho).amplitudes, moved.amplitudes)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_zero_vs_plus_reaches_half(self):
        # Frozen from the brute-force 2x2 unitary sweep oracle: 0.5.
        zero = spin_state(SpinLabel.UP).density()
        plus = spin_state(SpinLabel.RIGHT).density()
        unitary, _ = align_purifications(purify(zero), purify(plus), 2)
        moved = apply_purifier_unitary(purify(zero), unitary, 2)
        overlap = abs(np.vdot(purify(plus).amplitudes, moved.amplitudes)) ** 2
        assert overlap == pytest.approx(0.5, abs=1e-6)

    def test_matches_brute_force_oracle_on_random_pairs(self):
        for seed in (3, 7, 31):
            rho0 = random_density_matrix(seed, 2)
            rho1 = random_density_matrix(seed + 100, 2)
            unitary, _ = align_purifications(purify(rho0), purify(rho1), 2)
            moved = apply_purifier_unitary(purify(rho0), unitary, 2)
            achieved = abs(np.vdot(purify(rho1).amplitudes, moved.amplitudes)) ** 2
            swept = oracles.brute_force_purifier_overlap(
                purify(rho0).amplitudes, purify(rho1).amplitudes, 2, grid=14
            )
            assert achieved == pytest.approx(swept, abs=1e-6)
            assert achieved == pytest.approx(fidelity(rho0, rho1), abs=1e-6)

    def test_returns_unitary(self):
        rho0 = random_density_matrix(41, 2)
        rho1 = random_density_matrix(42, 2)
        unitary, _ = align_purifications(purify(rho0), purify(rho1), 2)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(2), atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        rho2 = random_density_matrix(1, 2)
        rho4 = random_density_matrix(2, 4)
        with pytest.raises(ValueError, match="purifier dimensions differ"):
            align_purifications(purify(rho2), purify(rho4), 2)

    def test_alignment_overlap_equals_sqrt_fidelity(self):
        rho0 = random_density_matrix(55, 4)
        rho1 = random_density_matrix(56, 4)
        _, overlap = align_purifications(purify(rho0), purify(rho1), 4)
        assert overlap == pytest.approx(np.sqrt(fidelity(rho0, rho1)), abs=1e-9)


class TestPurify:
    @pytest.mark.parametrize("dim, rank", [(2, 1), (2, 2), (4, 1), (4, 2), (4, 4)])
    def test_purifier_as_large_as_state(self, dim, rank):
        # Even a pure state gets a purifier of its own size; tracing it out returns the state.
        rho = random_density_matrix(60 + dim + rank, dim, rank)
        psi = purify(rho)
        assert psi.dim == dim * dim
        kept = list(range(rho.n_qubits))
        assert np.abs(partial_trace(psi, kept).entries - rho.entries).max() < 1e-10
