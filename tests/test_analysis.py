"""Security quantities: detection curves, hiding, cheat sums, sweeps."""

import dataclasses
import json
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from certbit import adversary, analysis, protocol, quantum, scenarios
from certbit.adversary import ClassicalFlip, Honest
from certbit.analysis import (
    MIN_DETECTION_TRIALS,
    Quantity,
    SecurityReport,
    bob_information,
    cheat_sum,
    detection_probability_exact,
    detection_probability_mc,
    evaluate_relativistic,
    nogo_tradeoff_sweep,
    wilson_interval,
)
from certbit.protocol import (
    ProtocolParams,
    ReductionScenario,
    Stage,
    Verdict,
    default_scenario,
    honest_bases,
    run_session,
)
from certbit.cli import ExperimentConfig
from certbit.rng import RandomStream
from certbit.spacetime import Event, Message, Site, Violation

import oracles
from test_protocol import random_moving_scenario, tamper_spin0


class TestQuantity:
    def test_monte_carlo_requires_interval(self):
        with pytest.raises(ValueError, match="confidence interval"):
            Quantity(0.5, "monte-carlo", trials=100)

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError, match="provenance"):
            Quantity(0.5, "guesswork")

    def test_record_shape(self):
        quantity = Quantity(0.25, "monte-carlo", trials=1000, ci=(0.2, 0.3))
        record = quantity.to_record()
        assert record == {"value": 0.25, "provenance": "monte-carlo", "trials": 1000, "ci": [0.2, 0.3]}


class TestWilsonInterval:
    @pytest.mark.parametrize("successes,trials", [(50, 100), (1, 1000), (999, 1000), (0, 50), (50, 50)])
    def test_against_scipy(self, successes, trials):
        low, high = wilson_interval(successes, trials)
        reference = stats.binomtest(successes, trials).proportion_ci(
            confidence_level=0.99, method="wilson"
        )
        assert low == pytest.approx(reference.low, abs=1e-12)
        assert high == pytest.approx(reference.high, abs=1e-12)

    def test_contains_point_estimate(self):
        low, high = wilson_interval(37, 400)
        assert low <= 37 / 400 <= high

    def test_quantile_literal_is_the_normal_quantile(self):
        assert analysis._Z99 == NormalDist().inv_cdf(0.995)

    @pytest.mark.parametrize("trials", [7, 1000, 10_000])
    def test_boundary_counts_reach_zero_and_one_exactly(self, trials):
        # The formula alone leaves these ends a few ulps inside [0, 1] at these sizes.
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0


class TestDetectionProbability:
    def test_exact_anchors(self):
        assert detection_probability_exact(0) == 1.0
        assert detection_probability_exact(8) == 0.00390625

    @pytest.mark.parametrize("k", range(0, 9))
    def test_exact_matches_enumeration_oracle(self, k):
        assert detection_probability_exact(k) == pytest.approx(
            oracles.enumerate_flip_pass_probability(k), abs=1e-15
        )

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            detection_probability_exact(-1)

    def test_honest_estimate_is_deterministic_unity(self, make_rng, rng_calls):
        # No false declaration: the pass rate is exactly 1, and nothing is sampled.
        for strategy in (Honest(), ClassicalFlip(0)):
            quantity = detection_probability_mc(strategy, 10_000, make_rng(1))
            assert quantity == Quantity(1.0, "exact")
        assert not rng_calls.counts

    def test_flip_two_estimate(self, make_rng):
        quantity = detection_probability_mc(ClassicalFlip(2), 100_000, make_rng(2))
        assert quantity.ci[0] <= 0.25 <= quantity.ci[1]

    def test_mc_converges_for_all_k_up_to_ten(self, make_rng):
        # |estimate - 2^-k| < 4 sigma at 1e5 trials for every k <= 10.
        rng = make_rng(3)
        trials = 100_000
        for k in range(1, 11):
            estimate = detection_probability_mc(ClassicalFlip(k), trials, rng)
            exact = detection_probability_exact(k)
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            assert abs(estimate.value - exact) < 4.0 * sigma, f"k={k}"

    def test_seeded_reproducibility(self, make_rng):
        first = detection_probability_mc(ClassicalFlip(3), 50_000, make_rng(4))
        second = detection_probability_mc(ClassicalFlip(3), 50_000, make_rng(4))
        assert first == second

    def test_minimum_trials_enforced(self, make_rng):
        with pytest.raises(ValueError, match="10\\^3"):
            detection_probability_mc(Honest(), 10, make_rng(5))

    def test_one_match_probability_stands_for_every_conjugate_measurement(self):
        # The Monte Carlo draws no signal state and no claim: it measures sent UP
        # against claimed RIGHT.  Under the session's Born rule, every signal state
        # measured in the conjugate basis collapses onto each of its eigenstates
        # on exactly as many uniforms of a fine grid as that pair does.
        uniforms = (np.arange(1 << 16) + 0.5) / (1 << 16)
        fixed = np.count_nonzero(protocol._collapses(0, 3, uniforms))
        pairs = [(s, c) for s in range(4) for c in range(4) if s >> 1 != c >> 1]
        assert len(pairs) == 8
        for sent, claimed in pairs:
            assert protocol._P0[sent, claimed] == 0.5
            assert np.count_nonzero(protocol._collapses(sent, claimed, uniforms)) == fixed == 1 << 15

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_one_draw_per_call(self, k, rng_calls):
        detection_probability_mc(ClassicalFlip(k), 2000, RandomStream(k))
        assert dict(rng_calls.counts) == {"random": 1}
        assert rng_calls.rows == [2000]

    def test_one_draw_per_row_block(self, rng_calls):
        trials = 2 * protocol.SESSION_CHUNK + 3
        detection_probability_mc(ClassicalFlip(8), trials, RandomStream(8))
        assert dict(rng_calls.counts) == {"random": math.ceil(trials / protocol.SESSION_CHUNK)}
        assert sum(rng_calls.rows) == trials

    @pytest.mark.parametrize("trials", [MIN_DETECTION_TRIALS, 2 * protocol.SESSION_CHUNK + 3])
    @pytest.mark.parametrize("k", [1, 8, 16])
    def test_row_blocks_count_what_the_one_draw_counts(self, k, trials):
        for seed in range(3):
            stream, reference = RandomStream(seed), RandomStream(seed)
            successes = oracles.one_shot_pass_count(k, trials, reference)
            expected = Quantity(successes / trials, "monte-carlo", trials=trials, ci=wilson_interval(successes, trials))
            assert detection_probability_mc(ClassicalFlip(k), trials, stream) == expected
            assert stream.random() == reference.random()


def _full_leak(bit, sent):
    """Declare Z (basis code 0) for bit 0 when the bit is 0 and X (code 1) when it is 1, whatever was sent."""
    return np.full(sent.shape, bit)


def _partial_leak(bit, sent):
    """Z-basis particles declare their own basis; X-basis particles declare as ``_full_leak``.

    Bit 0 always shows all Z; bit 1 shows each particle's uniform basis, so
    only the all-Z view is shared: TV = 1 - 2^-m.
    """
    return (sent >> 1) & bit


DECLARATION_RULES = {"honest": honest_bases, "full-leak": _full_leak, "partial-leak": _partial_leak}


class TestBobInformation:
    @pytest.mark.parametrize("n0,m", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (6, 1), (6, 2)])
    def test_exact_enumeration_vanishes(self, n0, m):
        # The declarations are independent of the bit: both numbers are 0.
        params = ProtocolParams(n0=n0, m=m, strict=False)
        info = bob_information(params)
        assert info.tv_distance.provenance == "exact"
        assert info.tv_distance.value == 0.0
        assert info.mutual_information_bits.value == 0.0

    @pytest.mark.parametrize("rule", ["honest", "full-leak", "partial-leak"])
    @pytest.mark.parametrize("n0,m", [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (5, 2)])
    def test_exact_statistics_match_the_dict_enumeration(self, n0, m, rule, monkeypatch):
        # The counted views against the dict oracle, under the honest rule and
        # two rules that leak the bit; (2, 2) tests no particle at all.
        declare = DECLARATION_RULES[rule]
        monkeypatch.setattr(analysis, "honest_bases", declare)
        info = bob_information(ProtocolParams(n0=n0, m=m, strict=False), mode="exact")
        tv, mi = info.tv_distance.value, info.mutual_information_bits.value
        oracle_tv, oracle_mi = oracles.enumerated_view_statistics(n0, m, declare)
        assert tv == pytest.approx(oracle_tv, abs=1e-12)
        assert mi == pytest.approx(oracle_mi, abs=1e-12)
        if rule == "honest":
            assert (tv, mi, oracle_tv, oracle_mi) == (0.0, 0.0, 0.0, 0.0)
        elif rule == "full-leak":
            assert (tv, mi) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
        else:
            assert tv == pytest.approx(1.0 - 2.0**-m, abs=1e-12)

    def test_exact_mode_rejects_large_sizes(self):
        with pytest.raises(ValueError, match="capped"):
            bob_information(ProtocolParams(n0=64, m=16), mode="exact")

    def test_exact_mode_rejects_leaky_oracle(self):
        params = ProtocolParams(n0=4, m=1, leak_probability=0.5, strict=False)
        with pytest.raises(ValueError, match="ideal"):
            bob_information(params, mode="exact")

    def test_monte_carlo_ideal_estimates_zero(self, make_rng):
        params = ProtocolParams(n0=64, m=16)
        info = bob_information(params, trials=100_000, randomness=make_rng(6), mode="monte-carlo")
        assert info.tv_distance.provenance == "monte-carlo"
        assert info.tv_distance.ci[0] == 0.0
        assert info.tv_distance.value < 0.02
        assert info.mutual_information_bits.value < 1e-3

    def test_full_leak_is_fully_distinguishing(self, make_rng):
        params = ProtocolParams(n0=64, m=16, leak_probability=1.0)
        info = bob_information(params, trials=5_000, randomness=make_rng(7))
        assert info.tv_distance.value == 1.0
        assert info.mutual_information_bits.value == 1.0

    def test_monte_carlo_needs_stream(self):
        with pytest.raises(ValueError, match="RandomStream"):
            bob_information(ProtocolParams(n0=64, m=16), mode="monte-carlo")

    @pytest.mark.parametrize("leak", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("trials", [1, 2 * protocol.SESSION_CHUNK + 3])
    def test_view_atoms_are_the_one_shot_atoms(self, trials, leak):
        params = ProtocolParams(n0=64, m=16, leak_probability=leak)
        for seed in range(3):
            stream, reference = RandomStream(seed), RandomStream(seed)
            for bit in (0, 1):
                atoms = analysis._sample_view_atoms(params, trials, bit, stream)
                assert atoms.dtype == np.uint8
                assert np.array_equal(atoms, oracles.one_shot_view_atoms(params, trials, bit, reference))
            assert stream.random() == reference.random()

    @pytest.mark.parametrize("leak", [0.0, 0.05, 1.0])
    def test_statistics_do_not_depend_on_the_row_blocks(self, leak, monkeypatch):
        # One block of every row is the one-shot estimator: its counts, test-row sums and later draws.
        params = ProtocolParams(n0=64, m=16, leak_probability=leak)
        trials = 2 * protocol.SESSION_CHUNK + 3
        blocked, whole = RandomStream(9), RandomStream(9)
        expected = bob_information(params, trials, blocked, mode="monte-carlo")
        monkeypatch.setattr(analysis, "_row_blocks", lambda rows: [slice(0, rows)])
        assert bob_information(params, trials, whole, mode="monte-carlo") == expected
        assert blocked.random() == whole.random()


def _traced_peak(run) -> int:
    """The bytes ``run()`` holds at its traced peak; numpy reports its arrays to ``tracemalloc``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloMemory:
    """The samplers hold one row block and their counts, not trial-sized float64 or int64 arrays."""

    @pytest.mark.parametrize("trials", [100_000, 400_000])
    def test_detection_peak_does_not_grow_with_trials(self, trials):
        randomness = RandomStream(1)
        assert _traced_peak(lambda: detection_probability_mc(ClassicalFlip(8), trials, randomness)) <= 1e6

    def test_hiding_sampler_holds_at_most_eight_bytes_per_atom(self):
        params, randomness, trials = ProtocolParams(n0=64, m=16), RandomStream(1), 80_000
        peak = _traced_peak(lambda: bob_information(params, trials=trials, randomness=randomness, mode="monte-carlo"))
        assert peak <= 8 * trials * params.m

    def test_entangle_demo_peak_at_1e5_trials(self):
        # Its four 10^5-trial samples hold one byte per reveal, not 8 bytes per uniform.
        config = ExperimentConfig("entangle-demo", seed=1, trials=100_000)
        run = scenarios.SCENARIOS["entangle-demo"].run
        run(dataclasses.replace(config, trials=MIN_DETECTION_TRIALS))  # imports numpy.random, untraced
        results = []
        peak = _traced_peak(lambda: results.append(run(config)))
        assert results[0].ok
        assert peak <= 1e6


class TestCheatSum:
    def test_honest_class_sums_to_one(self):
        result = cheat_sum(ProtocolParams(n0=64, m=16), strategy_class="honest")
        assert result.p0.value == 1.0
        assert result.p1.value == 0.0
        assert result.p_sum.value == 1.0

    def test_flip_class_exact_bound(self):
        params = ProtocolParams(n0=64, m=16)
        result = cheat_sum(params)
        assert result.p_sum.value == 1.0 + 2.0**-16
        assert result.p_sum.value <= 1.0 + 2.0 ** (-params.m / 2 + 1)

    def test_flip_class_monte_carlo_confirmation(self, make_rng):
        # The closed form's best hedge, k = 0 for one bit and k = m for the
        # other, sampled by the reveal-stage Monte Carlo.
        params = ProtocolParams(n0=64, m=16)
        rng = make_rng(8)
        p0 = detection_probability_mc(Honest(), 100_000, rng)
        p1 = detection_probability_mc(ClassicalFlip(params.m), 100_000, rng)
        exact = cheat_sum(params).p_sum.value
        assert exact == 1.0 + 2.0**-16
        assert p0 == Quantity(1.0, "exact")
        assert p0.value + p1.ci[0] <= exact <= p0.value + p1.ci[1]
        assert p0.value + p1.value <= 1.0 + 2.0**-7


class TestNogoTradeoffSweep:
    def test_endpoint_anchors_exact(self):
        # Fidelity and advantage are exact at the endpoints; p_sum is the
        # attack's own floating-point value (0.9999999999999998 at F = 0).
        rows = nogo_tradeoff_sweep(np.linspace(0.0, np.pi / 2, 5))
        assert rows[0].fidelity == 1.0
        assert rows[0].p_sum.value == pytest.approx(2.0, abs=1e-12)
        assert rows[0].epsilon_bob.value == 0.0
        assert rows[-1].fidelity == 0.0
        assert rows[-1].p_sum.value == pytest.approx(1.0, abs=1e-12)
        assert rows[-1].epsilon_bob.value == 0.5

    def test_midpoint_value(self):
        rows = nogo_tradeoff_sweep([np.pi / 4])
        assert rows[0].fidelity == pytest.approx(0.5, abs=1e-12)
        assert rows[0].p_sum.value == pytest.approx(1.0 + 2**-0.5, abs=1e-12)

    def test_monotone(self):
        rows = nogo_tradeoff_sweep(np.linspace(0.0, np.pi / 2, 9))
        for earlier, later in zip(rows, rows[1:]):
            assert earlier.fidelity >= later.fidelity
            assert earlier.p_sum.value >= later.p_sum.value - 1e-12
            assert earlier.epsilon_bob.value <= later.epsilon_bob.value + 1e-12

    def test_purifies_each_commit_state_once(self, monkeypatch):
        # ToyBCProtocol purifies both commit states and the attack reuses
        # them: 2 calls per theta point, where purifying again in the attack
        # made 4.
        calls = []

        def counted(rho, _purify=adversary.purify):
            calls.append(rho)
            return _purify(rho)

        monkeypatch.setattr(adversary, "purify", counted)
        nogo_tradeoff_sweep(np.linspace(0.0, np.pi / 2, 9))
        assert len(calls) == 18

    def test_computes_each_fidelity_once(self, monkeypatch):
        # Each row reads the attack's fidelity: 9 evaluations for 9 theta
        # points, where computing it again in the sweep made 18.
        calls = []

        def counted(rho0, rho1, _fidelity=quantum.fidelity):
            calls.append(theta)
            return _fidelity(rho0, rho1)

        for module in (adversary, analysis):
            monkeypatch.setattr(module, "fidelity", counted, raising=False)
        for theta in np.linspace(0.0, np.pi / 2, 9):
            nogo_tradeoff_sweep([theta])
        assert len(calls) == 9 and len(set(calls)) == 9

    def test_advantage_matches_measurement_sweep_oracle(self):
        rows = nogo_tradeoff_sweep([np.pi / 3])
        other = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)], dtype=complex)
        swept = oracles.helstrom_advantage_sweep(
            np.array([[1, 0], [0, 0]], dtype=complex), np.outer(other, other.conj()), steps=800
        )
        assert rows[0].epsilon_bob.value == pytest.approx(swept, abs=1e-4)


def _reveal_with_declarations(messages):
    """Send the reveal on the declarations' own flight: not after them."""
    declarations = next(message for message in messages if message.payload == "declarations")
    return [
        Message(m.sender, m.receiver, declarations.emit, declarations.receive, m.payload)
        if m.payload == "reveal"
        else m
        for m in messages
    ]


class TestEvaluateRelativistic:
    def _transcript(self, seed=9, n0=16, m=4, scenario=None):
        params = ProtocolParams(n0=n0, m=m)
        return run_session(Honest(), params, scenario=scenario, randomness=RandomStream(seed))

    def _regime(self, transcript, label):
        (evaluation,) = [e for e in evaluate_relativistic(transcript).points if e.label == label]
        return evaluation

    def test_reveal_point_of_honest_session(self):
        evaluation = self._regime(self._transcript(), "reveal")
        assert evaluation.p_sum.value == 1.0
        assert evaluation.within_bound

    def test_point_just_after_commitment(self):
        transcript = self._transcript()
        evaluation = self._regime(transcript, "commit")
        assert evaluation.event == transcript.schedule.commitment_point
        bound = 1.0 + 2.0 ** (-transcript.params.m / 2 + 1)
        assert evaluation.p_sum.value <= bound
        assert evaluation.p_sum.value == 1.0 + 2.0**-transcript.params.m
        assert evaluation.fixed_stages == ("commit",)

    def test_declarations_fixed_reduces_class(self):
        transcript = self._transcript()
        evaluation = self._regime(transcript, "declarations")
        assert evaluation.fixed_stages == ("commit", "declarations")
        honest_bit = transcript.claimed_bit
        assert [evaluation.p0, evaluation.p1][honest_bit].value == 1.0
        assert [evaluation.p0, evaluation.p1][1 - honest_bit].value == 2.0**-transcript.params.m

    def test_far_future_point_is_causally_vacuous(self):
        # Every point late enough lies in the reveal regime, whose witness
        # sees every committer action; the earlier witnesses do not.
        transcript = self._transcript()
        points = evaluate_relativistic(transcript).points
        assert [bool(evaluation.flags) for evaluation in points] == [False, False, True]
        (evaluation,) = [e for e in points if e.flags]
        assert any("vacuous" in flag for flag in evaluation.flags)
        assert evaluation.fixed_stages == ("commit", "declarations", "reveal")
        claimed = transcript.claimed_bit
        assert [evaluation.p0, evaluation.p1][claimed].value == 1.0

    def test_witnesses_on_the_default_line(self):
        # t_c = 3 at B0; declarations leave A1 (x = 1) at t = 6, the reveal at t = 10.
        points = evaluate_relativistic(self._transcript()).points
        assert [e.label for e in points] == ["commit", "declarations", "reveal"]
        assert [e.event for e in points] == [Event(t, (0, 0, 0)) for t in (3.0, 7.0, 11.0)]

    def test_committer_sites_come_from_the_scenario(self):
        # The same geometry with committer sites not named A*: every witness
        # must get the flags it gets under the default names.
        renamed = ReductionScenario(
            name="renamed",
            sites=(
                Site("B0", (0.0, 0.0, 0.0)),
                Site("C1", (1.0, 0.0, 0.0)),
                Site("V1", (2.0, 0.0, 0.0)),
                Site("C2", (3.0, 0.0, 0.0)),
            ),
            alice_id="C1",
            oracle_pairs=(("C1", "V1"), ("C2", "V1")),
        )
        flags = []
        for scenario in (default_scenario(), renamed):
            report = evaluate_relativistic(self._transcript(scenario=scenario))
            flags.append([evaluation.flags for evaluation in report.points])
        assert flags[1] == flags[0]
        assert flags[0][0] == ()
        assert flags[0][-1] != ()

    def test_tested_rejected_session_rejected(self):
        # A flipped oracle fails this session's tested openings: it sends no
        # declarations, so no regime past commitment is determined.
        transcript = run_session(
            Honest(), ProtocolParams(n0=64, m=16, flip_probability=0.3), randomness=RandomStream(0)
        )
        assert transcript.failed_stage is Stage.TESTED
        with pytest.raises(ValueError, match="sent no declarations"):
            evaluate_relativistic(transcript)

    def test_schedule_aborted_session_rejected(self):
        scenario = ReductionScenario(name="superluminal", tamper=tamper_spin0)
        transcript = self._transcript(scenario=scenario)
        assert transcript.verdict is Verdict.ABORT
        with pytest.raises(ValueError, match="sent no declarations"):
            evaluate_relativistic(transcript)

    def test_reveal_not_after_declarations_rejected(self):
        # The reveal on the declarations' own flight aborts the session at
        # schedule validation, so it sends no declarations to evaluate.
        scenario = ReductionScenario(name="reveal-with-declarations", tamper=_reveal_with_declarations)
        transcript = self._transcript(scenario=scenario)
        assert transcript.verdict is Verdict.ABORT
        assert transcript.failed_stage is Stage.SCHEDULE
        assert transcript.violations == (
            Violation("ordering", "reveal", "reveal emitted at or before the declarations"),
        )
        with pytest.raises(ValueError, match="sent no declarations"):
            evaluate_relativistic(transcript)

    def test_witness_that_sees_a_later_stage_rejected(self):
        # A transcript whose reveal event is its declarations event: the
        # declarations witness sees the reveal too.
        transcript = self._transcript()
        events = transcript.events
        tampered = dataclasses.replace(
            transcript, events={**events, "reveal_emitted": events["declarations_emitted"]}
        )
        with pytest.raises(ValueError, match="declarations witness"):
            evaluate_relativistic(tampered)

    @pytest.mark.parametrize("seed", range(6))
    def test_witnesses_cover_every_sampled_point(self, seed):
        transcript = self._transcript(n0=8, m=2, scenario=random_moving_scenario(seed))
        commitment = transcript.schedule.commitment_point
        stage_events = {
            "commit": commitment,
            "declarations": transcript.events["declarations_emitted"],
            "reveal": transcript.events["reveal_emitted"],
        }
        points = evaluate_relativistic(transcript).points
        for evaluation in points:
            # "commit" seen: the witness lies in the future cone of the commitment point.
            assert oracles.stages_seen(stage_events, evaluation.event) == evaluation.fixed_stages
        horizon = 4.0 * (stage_events["reveal"].t - commitment.t)
        sampled = oracles.sampled_regimes(stage_events, horizon, seed=seed)
        assert sampled == {evaluation.fixed_stages for evaluation in points}


class TestReportSerialization:
    def test_byte_identical_reports(self, make_rng):
        def build(seed):
            params = ProtocolParams(n0=16, m=4)
            transcript = run_session(Honest(), params, randomness=RandomStream(seed))
            report = evaluate_relativistic(transcript)
            info = bob_information(params, trials=5_000, randomness=RandomStream(seed + 1), mode="monte-carlo")
            full = SecurityReport(
                epsilons=report.epsilons, points=report.points, bob=info, notes=report.notes
            )
            return "\n".join(json.dumps(r, sort_keys=True) for r in full.to_records())

        assert build(42) == build(42)

    def test_every_monte_carlo_entry_has_interval(self, make_rng):
        params = ProtocolParams(n0=64, m=16)
        info = bob_information(params, trials=5_000, randomness=make_rng(10), mode="monte-carlo")
        report = SecurityReport(epsilons=params.epsilons, bob=info)
        for record in report.to_records():
            if record["type"] == "bob-information":
                assert "ci" in record["tv_distance"]
                assert "ci" in record["mutual_information_bits"]
