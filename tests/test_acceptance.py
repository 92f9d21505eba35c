"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test enforces its stated tolerance and runtime budget and prints one
pass/fail line (visible with ``pytest -s``, and mirrored by the -v test
status).  Fixed seeds make every number reproducible.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from certbit.adversary import (
    ClassicalFlip,
    Honest,
    ToyBCProtocol,
    entangled_reveal_probability,
    purification_attack,
    sample_entangled_reveals,
)
from certbit.analysis import bob_information, detection_probability_exact, detection_probability_mc
from certbit.cli import ExperimentConfig
from certbit.protocol import ProtocolParams, run_session
from certbit.quantum import (
    Basis,
    DensityMatrix,
    SpinLabel,
    StateVector,
    born_outcomes,
    fidelity,
    measure_probabilities,
    partial_trace,
    purify,
    spin_state,
)
from certbit.rng import RandomStream
from certbit.scenarios import EXIT_CAUSAL_ABORT, SCENARIOS
from certbit.spacetime import Event, Site, earliest_commitment_time, in_past_cone

import oracles


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_honest_completeness():
    """10^4 honest sessions at n0=64, m=16: all accept, every claim matches the sent states."""
    budget = 120.0
    start = time.monotonic()
    params = ProtocolParams(n0=64, m=16)
    randomness = RandomStream(1)
    sessions = 10_000
    failures = 0
    for _ in range(sessions):
        transcript = run_session(Honest(), params, randomness=randomness)
        if not transcript.accepted or not oracles.honest_claim_ok(transcript):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < budget
    report(
        f"{'PASS' if ok else 'FAIL'} criterion 1: honest completeness "
        f"({sessions} sessions, {failures} failures, {elapsed:.1f}s < {budget:.0f}s)"
    )
    assert failures == 0
    assert elapsed < budget


def test_criterion_2_cheat_detection_curve():
    """Monte Carlo pass rate within 4 sigma of exact 2^-k for k = 1..8."""
    budget = 300.0
    start = time.monotonic()
    params = ProtocolParams(n0=64, m=16)
    randomness = RandomStream(2)
    trials = 100_000
    assert detection_probability_exact(8) == 0.00390625
    worst = 0.0
    for k in range(1, 9):
        estimate = detection_probability_mc(ClassicalFlip(k), params, trials, randomness)
        exact = detection_probability_exact(k)
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        deviation = abs(estimate.value - exact) / sigma
        worst = max(worst, deviation)
        assert deviation <= 4.0, f"k={k}: {estimate.value} vs {exact} ({deviation:.2f} sigma)"
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    report(
        f"{'PASS' if ok else 'FAIL'} criterion 2: cheat detection matches 2^-k "
        f"(k=1..8 at {trials} trials, worst {worst:.2f} sigma, {elapsed:.1f}s < {budget:.0f}s)"
    )
    assert elapsed < budget


def test_criterion_3_hiding_exact():
    """Exact enumeration at n0 <= 6: view distributions identical for both bits."""
    budget = 5.0
    start = time.monotonic()
    for n0, m in [(4, 1), (5, 1), (6, 1), (6, 2)]:
        params = ProtocolParams(n0=n0, m=m, strict=False)
        info = bob_information(params)
        assert info.tv_distance.provenance == "exact"
        assert info.tv_distance.value == 0.0, (n0, m)
        assert info.mutual_information_bits.value == 0.0, (n0, m)
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    report(
        f"{'PASS' if ok else 'FAIL'} criterion 3: hiding is exact "
        f"(tv = 0, mi = 0 at all enumerable sizes, {elapsed:.2f}s < {budget:.0f}s)"
    )
    assert elapsed < budget


def test_criterion_4_entangled_commit_statistics():
    """Ancilla-measurement reveal frequency equals |alpha|^2 within 4 sigma."""
    randomness = RandomStream(4)
    trials = 100_000
    for alpha_sq in (0.0, 0.25, 0.5, 1.0):
        alpha, beta = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
        assert entangled_reveal_probability(alpha, beta) == pytest.approx(alpha_sq, abs=1e-12)
        reveals = sample_entangled_reveals(alpha, beta, trials, randomness)
        frequency = float(np.mean(reveals == 0))
        sigma = math.sqrt(alpha_sq * (1.0 - alpha_sq) / trials)
        assert abs(frequency - alpha_sq) <= 4.0 * sigma, alpha_sq
    report("PASS criterion 4: entangled-commit reveal frequencies match |alpha|^2 (4 sigma, 1e5 trials)")


def test_criterion_5_purification_tradeoff():
    """p0 + p1 = 1 + 1/sqrt(2) for |0> vs |+>, oracle-confirmed; endpoints exact."""
    zero = spin_state(SpinLabel.UP).density()
    plus = spin_state(SpinLabel.RIGHT).density()
    toy = ToyBCProtocol((zero, plus))
    attack = purification_attack(toy)
    closed = 1.0 + 1.0 / math.sqrt(2.0)
    assert attack.p_sum == pytest.approx(closed, abs=1e-6)
    swept = sum(
        oracles.brute_force_open_probability(
            toy.accept_tests[bit], attack.commit_state.amplitudes, 2, grid=16
        )
        for bit in (0, 1)
    )
    assert abs(attack.p_sum - swept) < 1e-6

    identical = DensityMatrix(np.eye(2) / 2)
    assert purification_attack(ToyBCProtocol((identical, identical))).p_sum == pytest.approx(
        2.0, abs=1e-9
    )
    orthogonal = ToyBCProtocol((zero, spin_state(SpinLabel.DOWN).density()))
    assert purification_attack(orthogonal).p_sum == pytest.approx(1.0, abs=1e-9)
    report(
        f"PASS criterion 5: purification attack p0+p1 = {attack.p_sum:.5f} = 1 + 1/sqrt(2), "
        f"oracle sweep {swept:.7f} (|diff| < 1e-6); endpoints 1 and 2 exact"
    )


def test_criterion_6_relativistic_validity():
    """Causal abort, boost-invariant verdicts, hand-checked commitment time."""
    config = ExperimentConfig(scenario="causal-violation", seed=6, format="machine")
    result = SCENARIOS["causal-violation"].run(config)
    assert result.ok, result.failures
    assert result.status == EXIT_CAUSAL_ABORT

    # Boost invariance at beta = 0.5 over every event of an honest schedule.
    transcript = run_session(
        Honest(), ProtocolParams(n0=16, m=4), randomness=RandomStream(66)
    )
    events = []
    for message in transcript.schedule.messages:
        events.extend([message.emit, message.receive])
    events = events[:60]
    for axis in range(3):
        beta = tuple(0.5 if i == axis else 0.0 for i in range(3))
        boosted = [oracles.lorentz_boost(e, beta) for e in events]
        for (q, bq) in zip(events, boosted):
            for (p, bp) in zip(events, boosted):
                assert in_past_cone(q, p, atol=1e-9) == in_past_cone(bq, bp, atol=1e-9)

    # Hand-computed light-delay maximum on the 4-site symmetric layout.
    b0 = Site("B0", (0.0, 0.0, 0.0))
    confirmations = [
        Event(1.0, (1, 0, 0)),
        Event(1.0, (-1, 0, 0)),
        Event(1.0, (0, 1, 0)),
        Event(1.0, (0, -1, 0)),
    ]
    assert earliest_commitment_time(b0, confirmations) == pytest.approx(2.0, abs=1e-12)
    report(
        "PASS criterion 6: causal violation aborts with exactly the injected message; "
        "cone verdicts boost-invariant at beta=0.5; t_c = 2.0 on the 4-site layout"
    )


def test_criterion_7_numerical_core_properties():
    """Fidelity axioms, Schmidt and purification round trips, Born frequencies."""
    budget = 60.0
    start = time.monotonic()
    gen = np.random.default_rng(7)
    randomness = RandomStream(7)

    # Fidelity axioms on random mixed pairs, against the sqrtm oracle.
    for _ in range(20):
        rho0 = DensityMatrix(oracles.random_density(gen, 4))
        rho1 = DensityMatrix(oracles.random_density(gen, 4))
        f = fidelity(rho0, rho1)
        assert 0.0 <= f <= 1.0
        assert f == pytest.approx(fidelity(rho1, rho0), abs=1e-9)
        assert fidelity(rho0, rho0) == pytest.approx(1.0, abs=1e-9)
        assert f == pytest.approx(oracles.fidelity_sqrtm(rho0.entries, rho1.entries), abs=1e-9)

    # Schmidt reconstruction to 1e-10 for up to 6 qubits, every cut.
    for n_qubits in range(2, 7):
        state = StateVector(oracles.random_state(gen, n_qubits))
        for cut in range(1, n_qubits):
            decomposition = oracles.schmidt_decompose(state, cut)
            error = np.abs(decomposition.reconstruct().amplitudes - state.amplitudes).max()
            assert error < 1e-10

    # Partial trace of a purification returns the state to 1e-10.
    for dim in (2, 4, 8):
        rho = DensityMatrix(oracles.random_density(gen, dim))
        psi = purify(rho)
        recovered = partial_trace(psi, range(rho.n_qubits))
        assert np.abs(recovered.entries - rho.entries).max() < 1e-10

    # Born-rule chi-squared at 1e5 samples: ``measure`` decides each outcome by ``born_outcomes`` on one uniform.
    state = StateVector(np.array([math.sqrt(0.3), math.sqrt(0.7)]))
    trials = 100_000
    p0, _ = measure_probabilities(state, Basis.Z, 0)
    ones = int(np.count_nonzero(born_outcomes(p0, randomness.random(trials))))
    chi = stats.chisquare([trials - ones, ones], [0.3 * trials, 0.7 * trials])
    assert chi.pvalue > 1e-4

    elapsed = time.monotonic() - start
    ok = elapsed < budget
    report(
        f"{'PASS' if ok else 'FAIL'} criterion 7: numerical core properties "
        f"(fidelity axioms, round trips < 1e-10, Born chi^2 p={chi.pvalue:.3f}, {elapsed:.1f}s < {budget:.0f}s)"
    )
    assert elapsed < budget
