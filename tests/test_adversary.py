"""Attacks: declaration flipping, entangled commits, purifier steering."""

import hashlib
import math

import numpy as np
import pytest

from certbit.adversary import (
    ClassicalFlip,
    Honest,
    ToyBCProtocol,
    entangled_commit,
    entangled_reveal_probability,
    purification_attack,
    sample_entangled_reveals,
    sweep_open_probability,
    weak_oracle_degradation,
)
from certbit import analysis, protocol
from certbit.protocol import DEFAULT_ENCODING, ProtocolParams, run_session
from certbit.rng import RandomStream
from certbit.quantum import (
    Basis,
    DensityMatrix,
    SpinLabel,
    StateVector,
    fidelity,
    measure,
    partial_trace,
    purify,
    spin_state,
)
import oracles


def codes(labels) -> list[int]:
    """The pair code 2*b0 + b1 of the pair that sends each label."""
    code = {label: 2 * b0 + b1 for (b0, b1), label in DEFAULT_ENCODING.items()}
    return [code[label] for label in labels]


def density(seed, dim=2, rank=None):
    gen = np.random.default_rng(seed)
    return DensityMatrix(oracles.random_density(gen, dim, rank))


class TestClassicalFlipPlan:
    @pytest.mark.parametrize("k", [1.5, 2.0, True, "3"])
    def test_k_must_be_an_integer(self, k):
        # Caught at construction, not inside the declaration draw.
        with pytest.raises(ValueError, match="^k must be an integer"):
            ClassicalFlip(k)

    def test_numpy_integer_k_accepted(self, make_rng):
        transcript = run_session(ClassicalFlip(np.int64(0)), ProtocolParams(n0=16, m=4), randomness=make_rng(3))
        assert transcript.accepted

    def test_k_zero_is_honest_reveal(self, make_rng):
        params = ProtocolParams(n0=8, m=2, strict=False)
        rng = make_rng(1)
        for _ in range(30):
            transcript = run_session(ClassicalFlip(k=0), params, randomness=rng)
            assert transcript.accepted

    def test_declarations_false_on_exactly_k(self, make_rng):
        # Declaration j binds bit b to basis code bases[j] ^ b; it is false for b
        # when that is not the sent basis code sent[j] >> 1.
        rng = make_rng(2)
        strategy = ClassicalFlip(k=3)
        particles = np.arange(5)
        labels = (SpinLabel.UP, SpinLabel.LEFT, SpinLabel.DOWN, SpinLabel.RIGHT, SpinLabel.UP)
        sent = np.array(codes(labels))
        target, bases = strategy.plan_declarations(particles, sent, rng)
        false_for_target = np.count_nonzero(bases ^ target != sent >> 1)
        false_for_other = np.count_nonzero(bases ^ (1 - target) != sent >> 1)
        assert false_for_target == 3
        assert false_for_other == 2  # hedging: false counts sum to m

    def test_claims_stay_inside_declared_basis(self, make_rng):
        rng = make_rng(3)
        strategy = ClassicalFlip(k=2)
        particles = np.arange(3)
        sent = np.array(codes((SpinLabel.UP, SpinLabel.RIGHT, SpinLabel.DOWN)))
        target, bases = strategy.plan_declarations(particles, sent, rng)
        bit, claims = strategy.reveal_claim(target, sent, bases, rng)
        assert bit == target
        assert (claims >> 1 == bases ^ bit).all()

    # sha256 of the fingerprints below over 300 seeded sessions for each k,
    # computed with the earlier, stateful strategies: a change to the flip
    # strategy's draws, their order or their use fails here.
    FLIP_DIGEST = "4b87829a8e5eb3f8dcf21d57060441403b4aa8c1ab91fc4cb6f2159a5aae9b17"

    def test_flip_sessions_reproduce_pinned_digest(self):
        digest = hashlib.sha256()
        params = ProtocolParams(32, 8)
        for k in (0, 1, 3, 8):
            for seed in range(300):
                t = run_session(ClassicalFlip(k), params, randomness=RandomStream(seed))
                fingerprint = "|".join([
                    t.verdict.value,
                    t.failed_stage.value if t.failed_stage else "-",
                    str(t.reject_index),
                    str(t.claimed_bit),
                    ",".join(label.value for label in t.claimed_labels),
                    ",".join(f"{d.particle}{d.basis_for_zero.value}" for d in t.declarations),
                ])
                digest.update((fingerprint + "\n").encode())
        assert digest.hexdigest() == self.FLIP_DIGEST


class TestStrategiesKeepNoState:
    def test_no_attributes_change_in_a_session(self, make_rng):
        params = ProtocolParams(n0=32, m=8)
        honest, flip = Honest(), ClassicalFlip(3)
        for strategy in (honest, flip):
            run_session(strategy, params, randomness=make_rng(4))
        assert vars(honest) == {}
        assert vars(flip) == {"k": 3}


class TestEntangledCommit:
    def test_pure_zero_commit(self):
        state = entangled_commit(1.0, 0.0)
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])
        reduced = partial_trace(state, [0])
        assert np.allclose(reduced.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_balanced_commit_is_maximally_entangled(self):
        state = entangled_commit(2**-0.5, 2**-0.5)
        reduced = partial_trace(state, [0])
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="!= 1"):
            entangled_commit(1.0, 1.0)

    def test_reduced_state_is_improper_mixture(self):
        alpha, beta = math.sqrt(0.3), math.sqrt(0.7)
        reduced = partial_trace(entangled_commit(alpha, beta), [0])
        assert np.allclose(reduced.entries, [[0.3, 0], [0, 0.7]], atol=1e-12)

    def test_ancilla_measurement_statistics_exact(self):
        # Delayed ancilla measurement reproduces a biased classical bit.
        for alpha_sq in (0.0, 0.25, 0.5, 1.0):
            prob = entangled_reveal_probability(math.sqrt(alpha_sq), math.sqrt(1 - alpha_sq))
            assert prob == pytest.approx(alpha_sq, abs=1e-12)

    def test_ancilla_measurement_against_core(self, rng):
        # Direct measurement of the ancilla qubit agrees with the shortcut.
        state = entangled_commit(math.sqrt(0.25), math.sqrt(0.75))
        zeros = sum(measure(state, Basis.Z, 1, rng)[0] == 0 for _ in range(20_000))
        assert abs(zeros / 20_000 - 0.25) < 0.02

    def test_sampling_frequency(self, rng):
        reveals = sample_entangled_reveals(math.sqrt(0.5), math.sqrt(0.5), 50_000, rng)
        assert abs(np.mean(reveals == 0) - 0.5) < 0.01


def honest_pairs():
    """The 9 commit-state pairs of the purification-nogo config, and random pairs of dimension 2 and 4."""
    zero = spin_state(SpinLabel.UP).density()
    pairs = {}
    for theta in np.linspace(0.0, np.pi / 2.0, 9):
        other = analysis._snap_state(np.array([np.cos(theta), np.sin(theta)], dtype=np.complex128))
        pairs[f"theta={theta:.4f}"] = (zero, other.density())
    for dim in (2, 4):
        for seed in (1, 2, 3):
            pairs[f"mixed-{dim}-{seed}"] = (density(seed, dim=dim), density(seed + 100, dim=dim))
        pairs[f"rank1-vs-mixed-{dim}"] = (density(4, dim=dim, rank=1), density(104, dim=dim))
    return pairs


HONEST_PAIRS = honest_pairs()


class TestToyBCProtocol:
    def test_default_tests_accept_honest_states(self):
        toy = ToyBCProtocol((density(1), density(2)))
        for bit, test in enumerate(toy.accept_tests):
            assert np.allclose(test @ test, test, atol=1e-9)

    def test_dimension_cap(self):
        big = density(3, dim=16)
        with pytest.raises(ValueError, match="cap"):
            ToyBCProtocol((big, big))

    @pytest.mark.parametrize("name", HONEST_PAIRS)
    def test_accept_tests_open_honest_purifications(self, name):
        toy = ToyBCProtocol(HONEST_PAIRS[name])
        joint = toy.system_dim**2
        for bit, test in enumerate(toy.accept_tests):
            assert test.shape == (joint, joint)
            assert np.allclose(test, test.conj().T, atol=1e-9)
            assert np.allclose(test @ test, test, atol=1e-9)
            honest = purify(toy.commit_states[bit])
            assert toy.open_probability(honest, bit) == pytest.approx(1.0, abs=1e-9)


class TestPurificationAttack:
    def test_identical_hiding_states_break_binding_completely(self):
        mixed = DensityMatrix(np.eye(2) / 2)
        result = purification_attack(ToyBCProtocol((mixed, mixed)))
        assert result.p_sum == pytest.approx(2.0, abs=1e-6)

    def test_orthogonal_states_no_quantum_advantage(self):
        zero = spin_state(SpinLabel.UP).density()
        one = spin_state(SpinLabel.DOWN).density()
        result = purification_attack(ToyBCProtocol((zero, one)))
        assert result.p_sum == pytest.approx(1.0, abs=1e-6)

    def test_conjugate_pair_value(self):
        # Frozen from the brute-force unitary-sweep oracle: 1 + 1/sqrt(2).
        zero = spin_state(SpinLabel.UP).density()
        plus = spin_state(SpinLabel.RIGHT).density()
        result = purification_attack(ToyBCProtocol((zero, plus)))
        assert result.p_sum == pytest.approx(1.0 + 2**-0.5, abs=1e-6)
        assert result.p0 == pytest.approx(result.p1, abs=1e-9)

    def test_matches_brute_force_oracle(self):
        zero = spin_state(SpinLabel.UP).density()
        plus = spin_state(SpinLabel.RIGHT).density()
        toy = ToyBCProtocol((zero, plus))
        result = purification_attack(toy)
        for bit in (0, 1):
            swept = oracles.brute_force_open_probability(
                toy.accept_tests[bit], result.commit_state.amplitudes, 2, grid=16
            )
            assert [result.p0, result.p1][bit] == pytest.approx(swept, abs=1e-6)

    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_achieves_one_plus_sqrt_fidelity(self, seed):
        rho0, rho1 = density(seed), density(seed + 50)
        result = purification_attack(ToyBCProtocol((rho0, rho1)))
        assert result.p_sum == pytest.approx(1.0 + math.sqrt(fidelity(rho0, rho1)), abs=1e-9)
        assert result.p_sum >= 1.0 - 1e-12

    def test_monotone_in_fidelity(self):
        values = []
        for theta in np.linspace(0.0, np.pi / 2, 7):
            other = StateVector(np.array([np.cos(theta), np.sin(theta)]))
            toy = ToyBCProtocol((spin_state(SpinLabel.UP).density(), other.density()))
            result = purification_attack(toy)
            values.append((result.fidelity, result.p_sum))
        values.sort()
        sums = [s for _, s in values]
        assert all(sums[i] <= sums[i + 1] + 1e-9 for i in range(len(sums) - 1))

    def test_internal_sweep_agrees(self):
        zero = spin_state(SpinLabel.UP).density()
        plus = spin_state(SpinLabel.RIGHT).density()
        toy = ToyBCProtocol((zero, plus))
        result = purification_attack(toy)
        swept = sweep_open_probability(toy, result.commit_state, 1)
        assert swept == pytest.approx(result.p1, abs=1e-6)


def sweep_cases():
    """|0> vs |+>, |0> vs each of 9 tradeoff angles, one mixed and one pure-vs-mixed pair."""
    zero = spin_state(SpinLabel.UP).density()
    cases = {"conjugate": ToyBCProtocol((zero, spin_state(SpinLabel.RIGHT).density()))}
    for theta in np.linspace(0.0, np.pi / 2.0, 9):
        other = StateVector(np.array([np.cos(theta), np.sin(theta)], dtype=np.complex128))
        cases[f"theta={theta:.4f}"] = ToyBCProtocol((zero, other.density()))
    cases["mixed"] = ToyBCProtocol((density(5), density(55)))
    # Halving the search step every round stops ~1e-3 short of the optimum here.
    cases["pure-mixed"] = ToyBCProtocol((density(7, rank=1), density(57)))
    return cases


SWEEP_CASES = sweep_cases()


class TestSweepGrid:
    """The numpy sweep reaches the closed form and the scalar scan's best grid point."""

    @pytest.mark.parametrize("name", SWEEP_CASES)
    def test_matches_scalar_scan(self, name):
        toy = SWEEP_CASES[name]
        attack = purification_attack(toy)
        for bit in (0, 1):
            swept = sweep_open_probability(toy, attack.commit_state, bit)
            assert abs(swept - [attack.p0, attack.p1][bit]) <= 1e-9
            grid_value, _ = oracles.reference_grid_search(
                toy.accept_tests[bit], attack.commit_state.amplitudes, toy.system_dim, grid=18
            )
            assert swept >= grid_value - 1e-12

    def test_rejects_larger_purifier(self):
        toy = ToyBCProtocol((density(3, dim=4), density(4, dim=4)))
        state = purification_attack(toy).commit_state
        with pytest.raises(ValueError, match="2-dimensional purifier"):
            sweep_open_probability(toy, state, 0)


class TestWeakOracle:
    def test_zero_knobs_no_degradation(self, make_rng):
        params = ProtocolParams(n0=16, m=4)
        report = weak_oracle_degradation(params, trials=40, randomness=make_rng(31))
        assert report.honest_accept_rate == 1.0
        assert report.leaked_fraction == 0.0

    def test_flip_knob_degrades_completeness(self, make_rng):
        params = ProtocolParams(n0=16, m=4, flip_probability=0.1)
        report = weak_oracle_degradation(params, trials=60, randomness=make_rng(32))
        assert report.honest_accept_rate < 1.0

    def test_full_leak_exposes_every_commitment(self, make_rng):
        params = ProtocolParams(n0=16, m=4, leak_probability=1.0)
        report = weak_oracle_degradation(params, trials=20, randomness=make_rng(33))
        assert report.leaked_fraction == 1.0

    def test_runs_no_scalar_session(self, monkeypatch, make_rng):
        calls = []
        monkeypatch.setattr(protocol, "run_session", lambda *args, **kwargs: calls.append(args))
        params = ProtocolParams(n0=64, m=16, flip_probability=0.1, leak_probability=0.05)
        report = weak_oracle_degradation(params, trials=300, randomness=make_rng(34))
        assert calls == []
        assert (report.trials, report.commitments) == (300, 300 * 128)
