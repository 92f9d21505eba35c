"""Protocol engine: params, oracle, encoding, stages, full sessions."""

import copy
import dataclasses
import functools
import hashlib
import json
import math
import pickle
import random
import re
import sys
import zlib
from collections import Counter
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from certbit import protocol, spacetime
from certbit.adversary import (
    ClassicalFlip,
    Honest,
    entangled_commit,
    entangled_reveal_probability,
    sample_entangled_reveals,
    weak_oracle_degradation,
)
from certbit.analysis import evaluate_relativistic, honest_accept_probability_exact
from certbit.protocol import (
    DEFAULT_ENCODING,
    IdealCommitmentOracle,
    ProtocolParams,
    ReductionScenario,
    SessionTranscript,
    Stage,
    Verdict,
    default_scenario,
    draw_challenge,
    honest_bases,
    run_session,
    run_sessions,
    verify_reveal,
    verify_tested,
)
from certbit.quantum import (
    Basis,
    SpinLabel,
    StateVector,
    basis_eigenstates,
    born_outcomes,
    measure,
    measure_label,
    measure_probabilities,
    signal_probabilities,
    spin_state,
)
from certbit.rng import RandomStream
from certbit.spacetime import (
    Event,
    Message,
    Schedule,
    Site,
    Violation,
    _arrival,
    _group_flights,
    earliest_commitment_time,
    validate_schedule,
)
import oracles

# Pair code 2*b0 + b1 of the pair that sends each signal state.
CODE = {label: 2 * b0 + b1 for (b0, b1), label in DEFAULT_ENCODING.items()}


def codes(labels) -> list[int]:
    return [CODE[label] for label in labels]


class TestProtocolParams:
    def test_ratio_enforced(self):
        with pytest.raises(ValueError, match="4\\*m"):
            ProtocolParams(n0=8, m=4)

    def test_ratio_relaxed_for_tests(self):
        params = ProtocolParams(n0=3, m=2, strict=False)
        assert params.n_tested == 1

    def test_m_positive(self):
        with pytest.raises(ValueError, match="m must be"):
            ProtocolParams(n0=8, m=0)

    def test_knob_range(self):
        with pytest.raises(ValueError, match="flip_probability"):
            ProtocolParams(n0=64, m=16, flip_probability=1.5)

    @pytest.mark.parametrize(
        "sizes, field",
        [
            ({"n0": 16.0, "m": 4}, "n0"),
            ({"n0": 16, "m": 4.0}, "m"),
            ({"n0": 16, "m": True}, "m"),
            ({"n0": True, "m": 1}, "n0"),
        ],
    )
    def test_sizes_must_be_integers(self, sizes, field):
        # Caught at construction, not as numpy's TypeError deep in a session.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ProtocolParams(**sizes, strict=False)

    def test_numpy_integer_sizes_accepted(self):
        params = ProtocolParams(n0=np.int64(16), m=np.int32(4))
        assert params.n_tested == 12


class TestEncoding:
    def test_default_table(self):
        # The bit-pair to spin-state correspondence used on the wire.
        assert DEFAULT_ENCODING[(0, 0)] is SpinLabel.UP
        assert DEFAULT_ENCODING[(0, 1)] is SpinLabel.DOWN
        assert DEFAULT_ENCODING[(1, 0)] is SpinLabel.LEFT
        assert DEFAULT_ENCODING[(1, 1)] is SpinLabel.RIGHT

    def test_bijective_inverse(self):
        inverse = {label: pair for pair, label in DEFAULT_ENCODING.items()}
        assert len(inverse) == 4
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert inverse[DEFAULT_ENCODING[pair]] == pair


class TestOracle:
    def test_ideal_reveal_returns_committed(self, rng):
        oracle = IdealCommitmentOracle()
        oracle.commit((0, 1, 1, 0), rng)
        assert [oracle.reveal(i) for i in range(4)] == [0, 1, 1, 0]
        assert oracle.leaked_view == {}

    def test_array_reveal_opens_every_index(self, rng):
        oracle = IdealCommitmentOracle()
        oracle.commit((0, 1, 1, 0, 1, 1), rng)
        assert oracle.reveal(np.array([[0, 1], [4, 5]])).tolist() == [[0, 1], [1, 1]]
        assert oracle.opened == {0, 1, 4, 5}
        with pytest.raises(KeyError):
            oracle.reveal(np.array([5, 6]))
        with pytest.raises(KeyError):
            oracle.reveal(-1)

    def test_classical_bits_only(self, rng):
        oracle = IdealCommitmentOracle()
        with pytest.raises(ValueError, match="classical bits"):
            oracle.commit((0, 0.5), rng)

    def test_double_commit_rejected(self, rng):
        oracle = IdealCommitmentOracle()
        oracle.commit((1,), rng)
        with pytest.raises(ValueError, match="already committed"):
            oracle.commit((0,), rng)

    def test_missing_reveal_raises(self):
        with pytest.raises(KeyError):
            IdealCommitmentOracle().reveal(3)

    def test_flip_knob_changes_certified_bits(self, rng):
        oracle = IdealCommitmentOracle(flip_probability=1.0)
        oracle.commit((0,), rng)
        assert oracle.reveal(0) == 1

    def test_leak_knob_exposes_view(self, rng):
        oracle = IdealCommitmentOracle(leak_probability=1.0)
        oracle.commit((1,), rng)
        assert oracle.leaked_view == {0: 1}


def classical_by_the_earlier_rule(bits) -> bool:
    """The classical-bit rule ``_certify`` used before its single comparison: the reference of the table below."""
    return bool(((bits == 0) | (bits == 1)).all())


def one_bit_set_to(value, dtype) -> np.ndarray:
    """A (1, 128) block of classical bits of ``dtype`` with bit 5 set to ``value``."""
    bits = np.zeros((1, 128), dtype=dtype)
    bits[0, 1::2] = 1
    bits[0, 5] = value
    return bits


# (dtype, values every bit may take, values no bit may take), each value exactly representable in its dtype.
CLASSICAL_TABLE = [
    (np.int64, [0, 1], [2, -1]),
    (np.uint8, [0, 1], [2, 255]),
    (np.bool_, [False, True], []),
    (np.float64, [0.0, 1.0], [2.0, -1.0, 0.5, math.nan, math.inf, -math.inf]),
]
CLASSICAL_CASES = {
    **{f"{dtype.__name__}-{v!r}": (one_bit_set_to(v, dtype), True) for dtype, good, _ in CLASSICAL_TABLE for v in good},
    **{f"{dtype.__name__}-{v!r}": (one_bit_set_to(v, dtype), False) for dtype, _, bad in CLASSICAL_TABLE for v in bad},
    "str": (np.array([["0", "1"]]), False),
    "None": (np.asarray(None), False),
}


class TestCertify:
    @pytest.mark.parametrize("bits, classical", CLASSICAL_CASES.values(), ids=CLASSICAL_CASES.keys())
    def test_classical_bits_table(self, bits, classical, rng_calls):
        assert classical_by_the_earlier_rule(bits) is classical
        if classical:
            certified, leak = protocol._certify(bits, 0.0, 0.0, RandomStream(1))
            assert certified.dtype == np.int64 and certified.tolist() == bits.astype(np.int64).tolist()
            assert not leak.any()
        else:
            with pytest.raises(ValueError, match="classical bits"):
                protocol._certify(bits, 0.5, 0.5, RandomStream(1))
            assert rng_calls.counts == {}  # refused before the oracle's draw


class TestChallenge:
    def test_subset_size(self, rng):
        params = ProtocolParams(n0=3, m=2, strict=False)
        assert draw_challenge(params, 5, rng).shape == (5, 1)

    def test_degenerate_empty_subset(self, rng):
        params = ProtocolParams(n0=2, m=2, strict=False)
        assert draw_challenge(params, 3, rng).shape == (3, 0)

    def test_uniform_membership(self, rng):
        # Each index of 8 appears in a size-4 subset with frequency 1/2.
        params = ProtocolParams(n0=8, m=4, strict=False)
        draws = 100_000
        challenges = draw_challenge(params, draws, rng)
        assert (np.diff(challenges, axis=1) > 0).all()  # sorted, no index twice
        frequencies = np.bincount(challenges.ravel(), minlength=8) / draws
        assert np.all(np.abs(frequencies - 0.5) < 0.01)


class TestVerifyTested:
    def test_honest_accepts_with_certainty(self, rng):
        bits = (0, 0, 0, 1, 1, 0, 1, 1)
        sent = opened = [2 * bits[2 * i] + bits[2 * i + 1] for i in range(4)]
        assert verify_tested([range(4)] * 25, [opened] * 25, [sent] * 25, rng).all()

    def test_conjugate_swap_detected_half_the_time(self, rng):
        # A particle in the conjugate basis passes the check with p = 1/2.
        trials = 100_000
        tested, opened = np.zeros((trials, 1), dtype=int), np.full((trials, 1), CODE[SpinLabel.UP])
        passed = verify_tested(tested, opened, np.full((trials, 1), CODE[SpinLabel.RIGHT]), rng)
        assert abs(passed.mean() - 0.5) < 0.005

    def test_empty_subset_vacuous_accept(self, rng):
        passed = verify_tested(np.zeros((2, 0), dtype=int), np.zeros((2, 0)), [[], []], rng)
        assert passed.shape == (2, 0) and passed.all(axis=1).tolist() == [True, True]

    def test_missing_reveal_raises(self, rng):
        with pytest.raises(ValueError, match=r"reveals of shape \(1, 0\) for tested particles of shape \(1, 1\)"):
            verify_tested([[0]], [[]], [codes([SpinLabel.UP])], rng)

    def test_each_session_checks_its_own_particles(self, rng):
        # Session 0: particle 1 is orthogonal to its claim; session 1 is honest.
        opened = [[CODE[SpinLabel.UP], CODE[SpinLabel.DOWN]], [CODE[SpinLabel.UP], CODE[SpinLabel.UP]]]
        passed = verify_tested([[0, 1], [0, 1]], opened, [codes([SpinLabel.UP, SpinLabel.UP])] * 2, rng)
        assert passed.tolist() == [[True, False], [True, True]]


class TestDeclarations:
    def test_bit_zero_on_z_particle(self):
        # The declaration binds bit 0 to Z (code 0), so bit 1 to X.
        assert honest_bases(0, np.array(codes([SpinLabel.UP]))).tolist() == [0]

    def test_bit_one_on_x_particle(self):
        # Bit 1 is bound to X, the particle's basis, so bit 0 to Z.
        assert honest_bases(1, np.array(codes([SpinLabel.LEFT]))).tolist() == [0]

    def test_one_declaration_per_untested_particle(self):
        labels = [SpinLabel.UP, SpinLabel.LEFT, SpinLabel.RIGHT]
        assert honest_bases(0, np.array(codes(labels))).tolist() == [0, 1, 1]


# The basis bit of each basis, as ``verify_reveal`` takes it: b0 of the pairs that send its eigenstates.
BASIS_BIT = {Basis.Z: 0, Basis.X: 1}


class TestVerifyReveal:
    def _bound(self, bit, labels):
        """The basis bits that honest declarations for ``bit`` bind to ``bit``: each particle's own basis."""
        return [BASIS_BIT[label.basis] for label in labels]

    def test_honest_reveal_accepts(self, rng):
        labels = [SpinLabel.UP, SpinLabel.LEFT, SpinLabel.RIGHT, SpinLabel.DOWN]
        for _ in range(25):
            passed = verify_reveal(range(4), self._bound(1, labels), codes(labels), codes(labels), rng)
            assert passed.tolist() == [True] * 4

    def test_measures_untested_particles_in_one_draw(self, rng_calls):
        # Particles 1 and 3 of five; particle 3 is orthogonal to its claim.
        sent = codes([SpinLabel.DOWN, SpinLabel.UP, SpinLabel.LEFT, SpinLabel.RIGHT, SpinLabel.UP])
        claimed = codes([SpinLabel.UP, SpinLabel.LEFT])
        passed = verify_reveal([1, 3], [0, 1], claimed, sent, RandomStream(1))
        assert passed.tolist() == [True, False]
        assert (dict(rng_calls.counts), rng_calls.rows) == ({"random": 1}, [2])

    def test_label_outside_bound_basis_fails_without_measurement(self, rng, rng_calls):
        labels = [SpinLabel.UP, SpinLabel.LEFT, SpinLabel.DOWN]
        claims = [SpinLabel.UP, SpinLabel.DOWN, SpinLabel.DOWN]  # DOWN is no eigenstate of X
        passed = verify_reveal([0, 1, 2], self._bound(0, labels), codes(claims), codes(labels), rng)
        assert passed.tolist() == [True, False, True]
        assert not rng_calls.counts

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_false_declarations_pass_rate(self, k, make_rng):
        # Pass probability is 2^-k: each false declaration forces a
        # conjugate-basis measurement matched by a uniform guess.  One call
        # measures every trial: four particles sent UP, the first k bound to
        # X and claimed LEFT or RIGHT at random, the rest bound to Z.
        rng = make_rng(800 + k)
        trials = 40_000
        bound = np.tile([1] * k + [0] * (4 - k), trials)
        guesses = rng.integers(CODE[SpinLabel.LEFT], CODE[SpinLabel.RIGHT] + 1, size=bound.size)
        claimed = np.where(bound == 1, guesses, CODE[SpinLabel.UP])
        sent = np.full(bound.size, CODE[SpinLabel.UP])
        passed = verify_reveal(np.arange(bound.size), bound, claimed, sent, rng).reshape(trials, 4).all(axis=1)
        expected = 2.0**-k
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(passed.mean() - expected) < 4 * sigma


def claiming(claim):
    """An honest committer whose reveal claims ``claim(bit, sent)``, given the untested particles' sent pair codes."""

    class Claimer(Honest):
        def reveal_claim(self, bit, sent, bases, randomness):
            return claim(bit, sent)

    return Claimer()


def instant_spin0(messages):
    """Make spin[0] arrive at the instant it is sent: a superluminal message."""
    out = []
    for message in messages:
        if message.payload == "spin[0]":
            message = Message(
                message.sender,
                message.receiver,
                message.emit,
                Event(message.emit.t, message.receive.x),
                message.payload,
            )
        out.append(message)
    return out


class TestRunSession:
    def test_honest_accepts_and_reveals_committed_bit(self, make_rng):
        params = ProtocolParams(n0=16, m=4)
        for seed in range(10):
            transcript = run_session(Honest(), params, randomness=make_rng(seed))
            assert transcript.verdict is Verdict.ACCEPT
            assert oracles.honest_claim_ok(transcript)

    def test_exhaustive_small_sizes(self, make_rng):
        # Honest completeness at every small size, many seeds.
        for n0, m in [(2, 1), (3, 1), (4, 1), (4, 2), (6, 2), (8, 2)]:
            params = ProtocolParams(n0=n0, m=m, strict=False)
            for seed in range(40):
                transcript = run_session(Honest(), params, randomness=make_rng(1000 + seed))
                assert transcript.verdict is Verdict.ACCEPT

    def test_transcript_structure(self, make_rng):
        params = ProtocolParams(n0=16, m=4)
        transcript = run_session(Honest(), params, randomness=make_rng(3))
        assert len(transcript.sent_labels) == 16
        assert len(transcript.untested) == 4
        assert len(transcript.declarations) == 4
        assert transcript.schedule.t_r > transcript.schedule.t_c
        assert validate_schedule(transcript.schedule) == []

    @pytest.mark.parametrize("flip", [0.0, 0.1])
    @pytest.mark.parametrize("strategy", [Honest(), ClassicalFlip(3)], ids=["honest", "flip3"])
    def test_untested_commitments_never_opened(self, strategy, flip, monkeypatch):
        # Rerun each session with the certified bits of its untested pairs
        # flipped after the oracle's draws: a session that never reads them
        # draws the same numbers and writes the same transcript.
        params = ProtocolParams(n0=16, m=4, flip_probability=flip)
        certify = protocol._certify

        def flip_untested(untested, bits, *knobs):
            certified, leak = certify(bits, *knobs)
            certified[:, 2 * untested] ^= 1
            certified[:, 2 * untested + 1] ^= 1
            return certified, leak

        seen = Counter()
        for seed in range(40):
            stream, flipped_stream = RandomStream(seed), RandomStream(seed)
            transcript = run_session(strategy, params, randomness=stream)
            untested = np.array(transcript.untested, dtype=np.int64)
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "_certify", functools.partial(flip_untested, untested))
                flipped = run_session(strategy, params, randomness=flipped_stream)
            for field in dataclasses.fields(SessionTranscript):
                assert getattr(flipped, field.name) == getattr(transcript, field.name), (field.name, seed)
            assert stream.random() == flipped_stream.random(), seed
            seen[transcript.verdict, transcript.failed_stage] += 1
        assert seen[Verdict.REJECT, Stage.TESTED] < 40  # some sessions reach the declarations
        if flip:
            assert seen[Verdict.REJECT, Stage.TESTED]

    def test_classical_flip_reject_rate(self, make_rng):
        # Acceptance of a k-false reveal is 2^-k; measured over sessions.
        params = ProtocolParams(n0=8, m=2, strict=False)
        rng = make_rng(77)
        trials = 400
        accepted = sum(
            run_session(ClassicalFlip(k=1), params, randomness=rng).accepted
            for _ in range(trials)
        )
        assert abs(accepted / trials - 0.5) < 0.1

    @pytest.mark.parametrize("flip", [0.02, 0.1])
    def test_honest_rejections_under_oracle_flips(self, flip, make_rng):
        # A tested pair the oracle left alone passes, one whose basis bit it
        # flipped passes with probability 1/2, and one whose value bit alone it
        # flipped fails; the untested pairs are never read, so an honest
        # session is rejected at tested verification or not at all.
        params = ProtocolParams(n0=16, m=4, flip_probability=flip)
        rng = make_rng(90)
        sessions = 2000
        rejected = 0
        for _ in range(sessions):
            transcript = run_session(Honest(), params, randomness=rng)
            if not transcript.accepted:
                rejected += 1
                assert (transcript.verdict, transcript.failed_stage) == (Verdict.REJECT, Stage.TESTED)
                assert transcript.reject_index in set(range(params.n0)).difference(transcript.untested)
        expected = 1.0 - ((1.0 - flip) ** 2 + flip / 2.0) ** params.n_tested
        sigma = math.sqrt(expected * (1.0 - expected) / sessions)
        assert abs(rejected / sessions - expected) <= 4 * sigma

    def test_flip_k_exceeding_m_rejected(self, make_rng):
        params = ProtocolParams(n0=8, m=2, strict=False)
        with pytest.raises(ValueError, match="exceeds"):
            run_session(ClassicalFlip(k=3), params, randomness=make_rng(5))

    def test_superluminal_schedule_aborts(self, make_rng):
        scenario = ReductionScenario(tamper=instant_spin0)
        params = ProtocolParams(n0=16, m=4)
        transcript = run_session(Honest(), params, scenario=scenario, randomness=make_rng(6))
        assert transcript.verdict is Verdict.ABORT
        assert transcript.failed_stage is Stage.SCHEDULE
        assert len(transcript.violations) == 1
        assert transcript.violations[0].payload == "spin[0]"

    def test_suspension_rounds_extend_schedule(self, make_rng):
        params = ProtocolParams(n0=16, m=4)
        quiet = run_session(Honest(), params, scenario=default_scenario(0), randomness=make_rng(7))
        suspended = run_session(Honest(), params, scenario=default_scenario(5), randomness=make_rng(7))
        assert suspended.verdict is Verdict.ACCEPT
        assert suspended.claimed_bit == quiet.claimed_bit  # same randomness, same outcome
        beats = [m for m in suspended.schedule.messages if m.payload.startswith("heartbeat")]
        assert len(beats) == 10
        reveal_quiet = [m for m in quiet.schedule.messages if m.payload == "reveal"][0]
        reveal_late = [m for m in suspended.schedule.messages if m.payload == "reveal"][0]
        assert reveal_late.emit.t > reveal_quiet.emit.t

    def test_records_serialize(self, make_rng):
        params = ProtocolParams(n0=16, m=4)
        transcript = run_session(Honest(), params, randomness=make_rng(8))
        records = transcript.to_records()
        assert records[0]["type"] == "params"
        assert records[-1]["type"] == "verdict"
        for record in records:
            assert record["schema"] == 1
            json.dumps(record)

    def test_wrong_bit_count_is_a_parameter_error(self, make_rng):
        class ShortChanger(Honest):
            def commit_bits(self, params, randomness):
                return (0, 1, 1)

        params = ProtocolParams(n0=16, m=4)
        with pytest.raises(ValueError, match="expected 32"):
            run_session(ShortChanger(), params, randomness=make_rng(10))

    def test_non_classical_commit_raises(self, make_rng):
        class HalfCommitter(Honest):
            def commit_bits(self, params, randomness):
                return (0.5,) * params.n_commitments

        params = ProtocolParams(n0=16, m=4)
        with pytest.raises(ValueError, match="classical bits"):
            run_session(HalfCommitter(), params, randomness=make_rng(1))

    def test_claim_of_bit_two_rejected_at_reveal(self, make_rng, rng_calls):
        class BitTwo(Honest):
            """Declares honestly for bit 1, then claims bit 2 with the pair codes honest for 1."""

            def plan_declarations(self, particles, sent, randomness):
                return 1, honest_bases(1, sent)

            def reveal_claim(self, bit, sent, bases, randomness):
                return 2, sent

        params = ProtocolParams(n0=16, m=4)
        for seed in (1, 5, 6):
            rng_calls.counts.clear()
            transcript = run_session(BitTwo(), params, randomness=make_rng(seed))
            assert transcript.verdict is Verdict.REJECT
            assert transcript.failed_stage is Stage.REVEAL
            assert transcript.claimed_bit == 2
            assert rng_calls.counts["random"] == 1  # the tested uniforms; no reveal uniform
            reference = oracles.scalar_run_session(BitTwo(), params, None, make_rng(seed))
            assert (reference.verdict, reference.failed_stage) == (Verdict.REJECT, Stage.REVEAL)
            assert [e.label for e in evaluate_relativistic(transcript).points] == ["commit", "declarations", "reveal"]

    @pytest.mark.parametrize("claimed_bit", [None, 0.5, "1"], ids=repr)
    def test_non_integer_claim_rejected_and_recorded_as_none(self, claimed_bit, make_rng, rng_calls):
        class Claimer(Honest):
            """Declares honestly for bit 1, then claims ``claimed_bit`` with the pair codes honest for 1."""

            def plan_declarations(self, particles, sent, randomness):
                return 1, honest_bases(1, sent)

            def reveal_claim(self, bit, sent, bases, randomness):
                return claimed_bit, sent

        params = ProtocolParams(n0=16, m=4)
        transcript = run_session(Claimer(), params, randomness=make_rng(1))
        assert (transcript.verdict, transcript.failed_stage) == (Verdict.REJECT, Stage.REVEAL)
        assert transcript.claimed_bit is None
        assert transcript.to_records()[-1]["claimed_bit"] is None
        assert rng_calls.counts["random"] == 1  # the tested uniforms; no reveal uniform
        reference = oracles.scalar_run_session(Claimer(), params, None, make_rng(1))
        assert (reference.verdict, reference.failed_stage, reference.claimed_bit) == (
            Verdict.REJECT,
            Stage.REVEAL,
            None,
        )

    @pytest.mark.parametrize("claimed_bit", [2, -1, None, 0.5, "1", 1.0], ids=repr)
    def test_bit_outside_zero_one_rejected_without_measurement(self, claimed_bit, make_rng, rng_calls):
        # The claimed codes are honest for the protocol bit, which no claimed bit here names.
        strategy = claiming(lambda bit, sent: (claimed_bit, sent))
        transcript = run_session(strategy, ProtocolParams(n0=16, m=4), randomness=make_rng(2))
        assert (transcript.verdict, transcript.failed_stage, transcript.reject_index) == (
            Verdict.REJECT,
            Stage.REVEAL,
            None,
        )
        assert rng_calls.counts["random"] == 1  # the tested uniforms; no reveal uniform
        assert_matches_scalar_session(strategy, ProtocolParams(n0=16, m=4), 2)

    def test_wrong_length_rejected_without_measurement(self, make_rng, rng_calls):
        strategy = claiming(lambda bit, sent: (bit, sent[:-1]))
        transcript = run_session(strategy, ProtocolParams(n0=16, m=4), randomness=make_rng(3))
        assert (transcript.verdict, transcript.failed_stage, transcript.reject_index) == (
            Verdict.REJECT,
            Stage.REVEAL,
            None,
        )
        assert len(transcript.claimed_labels) == 3
        assert rng_calls.counts["random"] == 1  # the tested uniforms; no reveal uniform
        assert_matches_scalar_session(strategy, ProtocolParams(n0=16, m=4), 3)

    def test_label_outside_declared_basis_rejected_without_measurement(self, make_rng, rng_calls):
        # The third code is swapped for an eigenstate of the other basis: UP for LEFT, DOWN for RIGHT.
        strategy = claiming(lambda bit, sent: (bit, np.concatenate([sent[:2], sent[2:3] ^ 2, sent[3:]])))
        transcript = run_session(strategy, ProtocolParams(n0=16, m=4), randomness=make_rng(4))
        assert (transcript.verdict, transcript.failed_stage) == (Verdict.REJECT, Stage.REVEAL)
        assert transcript.reject_index == transcript.untested[2]
        assert rng_calls.counts["random"] == 1  # the tested uniforms; no reveal uniform
        assert_matches_scalar_session(strategy, ProtocolParams(n0=16, m=4), 4)

    def test_claim_returned_as_an_iterator_is_checked_and_recorded_whole(self, make_rng):
        strategy = claiming(lambda bit, sent: (bit, iter(sent)))
        params = ProtocolParams(n0=16, m=4)
        transcript = run_session(strategy, params, randomness=make_rng(1))
        assert transcript.verdict is Verdict.ACCEPT
        assert transcript.claimed_labels == tuple(transcript.sent_labels[i] for i in transcript.untested)
        assert oracles.honest_claim_ok(transcript)
        assert_matches_scalar_session(strategy, params, 1)

    @pytest.mark.parametrize(
        "declare",
        [
            lambda bases: bases[:-1],
            lambda bases: np.append(bases, 0),
            lambda bases: bases[:, None],
            lambda bases: np.where(np.arange(bases.size) == 1, 2, bases),
            lambda bases: np.where(np.arange(bases.size) == 1, -1, bases),
            lambda bases: bases.astype(float),
            lambda bases: bases.astype(bool),
            lambda bases: [bool(b) for b in bases],
        ],
        ids=["short", "long", "column", "two", "minus-one", "float", "bool", "bool-list"],
    )
    def test_declared_bases_must_be_one_bit_per_untested_particle(self, declare, make_rng):
        class Misdeclarer(Honest):
            """Declares honestly, then hands over the basis codes as ``declare`` changes them."""

            def plan_declarations(self, particles, sent, randomness):
                bit, bases = super().plan_declarations(particles, sent, randomness)
                return bit, declare(bases)

        params = ProtocolParams(n0=16, m=4)
        with pytest.raises(ValueError, match="^declared basis codes must"):
            run_session(Misdeclarer(), params, randomness=make_rng(1))
        with pytest.raises(ValueError, match="^declared basis codes must"):
            oracles.scalar_run_session(Misdeclarer(), params, None, make_rng(1))

    @pytest.mark.parametrize(
        "claim",
        [
            lambda sent: np.where(np.arange(sent.size) == 0, 4, sent),
            lambda sent: np.where(np.arange(sent.size) == 0, -1, sent),
            lambda sent: (sent & 1).astype(bool),
            lambda sent: [bool(c & 1) for c in sent],
        ],
        ids=["4", "-1", "bool", "bool-list"],
    )
    def test_claimed_codes_must_name_signal_states(self, claim, make_rng):
        strategy = claiming(lambda bit, sent: (bit, claim(sent)))
        params = ProtocolParams(n0=16, m=4)
        with pytest.raises(ValueError, match="^claimed pair codes must"):
            run_session(strategy, params, randomness=make_rng(1))
        with pytest.raises(ValueError, match="^claimed pair codes must"):
            oracles.scalar_run_session(strategy, params, None, make_rng(1))

    @pytest.mark.parametrize("argument", ["particles", "sent"])
    def test_strategy_cannot_write_the_arrays_it_is_handed(self, argument, make_rng):
        class Scribbler(Honest):
            def plan_declarations(self, particles, sent, randomness):
                {"particles": particles, "sent": sent}[argument][0] = 0
                return super().plan_declarations(particles, sent, randomness)

        with pytest.raises(ValueError, match="read-only"):
            run_session(Scribbler(), ProtocolParams(n0=16, m=4), randomness=make_rng(1))

    def test_missing_randomness_and_seed_rejected(self):
        params = ProtocolParams(n0=16, m=4)
        with pytest.raises(ValueError, match="seed"):
            run_session(Honest(), params)

    def test_default_geometry_commitment_time(self, make_rng):
        # Confirmations land on B1 (distance 2 from B0) at t = 1: t_c = 3.
        params = ProtocolParams(n0=16, m=4)
        transcript = run_session(Honest(), params, randomness=make_rng(9))
        assert transcript.schedule.t_c == pytest.approx(3.0, abs=1e-12)
        b0 = transcript.schedule.sites["B0"]
        expected = max(
            c.t + math.dist(c.x, b0.position) for c in transcript.schedule.confirmations
        )
        assert transcript.schedule.t_c == pytest.approx(expected, abs=1e-12)


def moving_scenario(**fields) -> ReductionScenario:
    """Every site on its own constant-velocity worldline, two receivers."""
    return ReductionScenario(
        name="moving",
        sites=(
            Site("B0", (0.0, 0.0, 0.0), (0.1, -0.05, 0.0)),
            Site("A1", (1.0, 0.5, 0.0), (-0.2, 0.1, 0.05)),
            Site("B1", (2.0, -1.0, 0.5), (0.0, 0.25, 0.0)),
            Site("A2", (-3.0, 0.0, 1.0), (0.3, 0.0, -0.1)),
            Site("B2", (0.5, 2.0, -1.0), (-0.15, -0.15, 0.0)),
        ),
        oracle_pairs=(("A1", "B1"), ("A2", "B2"), ("A1", "B2")),
        suspension_rounds=2,
        **fields,
    )


def tamper_spin0(messages):
    """Make spin[0] arrive at its own emission time: superluminal."""
    out = []
    for message in messages:
        if message.payload == "spin[0]":
            message = Message(
                message.sender,
                message.receiver,
                message.emit,
                Event(message.emit.t, message.receive.x),
                message.payload,
            )
        out.append(message)
    return out


def tamper_commits(messages):
    """Displace commit[3]'s receive and commit[5]'s emit; give commit[7] and
    commit[9] one shared receive event at their emission time."""
    out = []
    shared = None
    for message in messages:
        emit, receive = message.emit, message.receive
        if message.payload == "commit[3]":
            receive = Event(receive.t, (receive.x[0] + 0.5, receive.x[1], receive.x[2]))
        elif message.payload == "commit[5]":
            emit = Event(emit.t, (emit.x[0], emit.x[1] - 0.5, emit.x[2]))
        elif message.payload in ("commit[7]", "commit[9]"):
            shared = shared or Event(emit.t, receive.x)
            receive = shared
        out.append(Message(message.sender, message.receiver, emit, receive, message.payload))
    return out


def random_moving_scenario(
    seed: int, tamper=None, committers: int = 2, receivers: int = 2, rounds: int = 1
) -> ReductionScenario:
    """Seeded positions and velocities; every committer paired with every receiver."""
    gen = np.random.default_rng(seed)

    def site(site_id, position=None):
        position = gen.uniform(-4.0, 4.0, 3) if position is None else position
        return Site(site_id, tuple(position), tuple(gen.uniform(-0.3, 0.3, 3)))

    sender_ids = [f"A{i + 1}" for i in range(committers)]
    receiver_ids = [f"B{i + 1}" for i in range(receivers)]
    sites = (site("B0", (0.0, 0.0, 0.0)), *map(site, sender_ids), *map(site, receiver_ids))
    return ReductionScenario(
        name=f"random-{seed}",
        sites=sites,
        oracle_pairs=tuple((a_id, b_id) for a_id in sender_ids for b_id in receiver_ids),
        suspension_rounds=rounds,
        tamper=tamper,
    )


# (committers, receivers, suspension rounds) of the seeded moving scenarios
# that sessions-geometry draws: every committer/receiver count pair, and
# each round count three times.  Seed j gets shape j.
SCHEDULE_SHAPES = [(1 + j % 3, 1 + (j // 3) % 3, j % 4) for j in range(12)]
SHAPED = [
    (seed, shape, n0, f"seed{seed}-{shape[0]}x{shape[1]}-rounds{shape[2]}-n0={n0}")
    for seed, shape in enumerate(SCHEDULE_SHAPES)
    for n0 in (16, 128)
]


class TestBuiltSchedule:
    """Deduplicated flights leave every message where a fresh flight puts it."""

    @pytest.mark.parametrize(
        "seed, shape, n0",
        [pytest.param(seed, (2, 2, 1), 8, id=str(seed)) for seed in range(6)]
        + [pytest.param(seed, shape, n0, id=case) for seed, shape, n0, case in SHAPED],
    )
    def test_validation_matches_per_message_oracle(self, seed, shape, n0):
        for tamper in (None, tamper_spin0, tamper_commits):
            schedule, _, _ = protocol._session_plan.__wrapped__(random_moving_scenario(seed, tamper, *shape), n0)
            found = [(v.kind, v.payload, v.detail) for v in validate_schedule(schedule)]
            assert found == oracles.reference_violations(schedule)
            payloads = {payload for _, payload, _ in found}
            if tamper is None:
                assert found == []
            elif tamper is tamper_spin0:
                assert payloads == {"spin[0]"}
            else:
                # Untampered commitments of the same oracle pairs stay valid.
                assert payloads == {"commit[3]", "commit[5]", "commit[7]", "commit[9]"}

    @pytest.mark.parametrize(
        "seed, shape, n0", [pytest.param(seed, shape, n0, id=case) for seed, shape, n0, case in SHAPED]
    )
    def test_messages_round_trip_through_flights(self, seed, shape, n0):
        for tamper in (None, tamper_spin0, tamper_commits):
            schedule, _, _ = protocol._session_plan.__wrapped__(random_moving_scenario(seed, tamper, *shape), n0)
            fields = {f.name: getattr(schedule, f.name) for f in dataclasses.fields(schedule) if f.name != "flights"}
            again = Schedule(flights=_group_flights(schedule.messages), **fields)
            assert again == schedule
            assert again.messages == schedule.messages
            assert all(
                a.emit is b.emit and a.receive is b.receive for a, b in zip(again.messages, schedule.messages)
            )
            assert len(again.flights) == len(schedule.flights)
            assert validate_schedule(again) == validate_schedule(schedule)

    @pytest.mark.parametrize(
        "scenario, n0",
        [
            pytest.param(default_scenario(3), 8, id="line"),
            pytest.param(moving_scenario(), 8, id="moving"),
            *(
                pytest.param(random_moving_scenario(seed, None, *shape), n0, id=case)
                for seed, shape, n0, case in SHAPED
            ),
        ],
    )
    def test_every_receive_recomputed(self, scenario, n0):
        schedule = scenario.build_schedule(n0)
        for message in schedule.messages:
            receiver = schedule.sites[message.receiver]
            assert schedule.sites[message.sender].on_worldline(message.emit)
            t = earliest_commitment_time(receiver, [message.emit])
            assert message.receive == receiver.event_at(t)
        assert validate_schedule(schedule) == []
        assert schedule.t_c == earliest_commitment_time(schedule.sites["B0"], schedule.confirmations)

    @pytest.mark.parametrize("scenario", [default_scenario(3), moving_scenario()], ids=["line", "moving"])
    def test_payload_order(self, scenario):
        n0 = 8
        schedule = scenario.build_schedule(n0)
        endpoints = sorted({b_id for _, b_id in scenario.oracle_pairs})
        expected = (
            [f"commit[{i}]" for i in range(2 * n0)]
            + [f"spin[{i}]" for i in range(n0)]
            + ["challenge"]
            + [p for b_id in endpoints for p in (f"open-instruction[{b_id}]", f"oracle-reveals[{b_id}]")]
            + ["declarations"]
            + [
                p
                for r in range(scenario.suspension_rounds)
                for p in (f"heartbeat-out[{r}]", f"heartbeat-back[{r}]")
            ]
            + ["reveal"]
        )
        assert [message.payload for message in schedule.messages] == expected
        pairs = scenario.oracle_pairs
        for index, message in enumerate(schedule.messages[: 2 * n0]):
            assert (message.sender, message.receiver) == pairs[index % len(pairs)]
            assert message.emit.t == 0.0

    @pytest.mark.parametrize(
        "seed, shape, n0", [pytest.param(seed, shape, n0, id=case) for seed, shape, n0, case in SHAPED]
    )
    def test_built_events_are_valid_events(self, seed, shape, n0):
        # Builder events keep event_at's floats as given; each must be the
        # event that converting and checking its fields again gives.
        schedule = random_moving_scenario(seed, None, *shape).build_schedule(n0)
        events = [event for flight in schedule.flights for event in (flight.emit, flight.receive)]
        for event in [*events, schedule.commitment_point]:
            assert event == Event(event.t, event.x)
            assert type(event.t) is float
            assert type(event.x) is tuple and len(event.x) == 3
            assert all(type(c) is float for c in event.x)

    def test_sites_read_only(self):
        schedule = default_scenario().build_schedule(8)
        assert isinstance(schedule.sites, MappingProxyType)
        with pytest.raises(TypeError):
            schedule.sites["B9"] = Site("B9", (9.0, 0.0, 0.0))


class TestScheduleMemo:
    def test_one_key_shares_one_schedule(self, make_rng):
        params = ProtocolParams(n0=16, m=4)
        first = run_session(Honest(), params, randomness=make_rng(1))
        second = run_session(Honest(), params, randomness=make_rng(2))
        assert first.schedule is second.schedule
        assert first.events == second.events
        first.events["extra"] = first.events["commitment_point"]
        assert "extra" not in second.events

    def test_tampered_scenario_aborts_alike_on_every_call(self, make_rng):
        calls = []

        def tamper(messages):
            calls.append(len(messages))
            return tamper_spin0(messages)

        scenario = ReductionScenario(name="tamper-memo", tamper=tamper)
        params = ProtocolParams(n0=16, m=4)
        seen = []
        for seed in range(4):
            transcript = run_session(Honest(), params, scenario=scenario, randomness=make_rng(seed))
            assert transcript.verdict is Verdict.ABORT
            assert transcript.failed_stage is Stage.SCHEDULE
            assert isinstance(transcript.violations, tuple)
            seen.append([str(v) for v in transcript.violations])
        assert len(seen[0]) == 1 and seen[0][0].startswith("superluminal [spin[0]]")
        assert all(violations == seen[0] for violations in seen)
        assert calls == [len(transcript.schedule.messages)]  # built once for the key

    def test_moving_tampered_scenario_aborts(self, make_rng):
        params = ProtocolParams(n0=8, m=2)
        scenario = moving_scenario(tamper=tamper_spin0)
        first, again = (
            run_session(Honest(), params, scenario=scenario, randomness=make_rng(seed)) for seed in (3, 4)
        )
        assert first.failed_stage is again.failed_stage is Stage.SCHEDULE
        assert {v.payload for v in first.violations} == {"spin[0]"}
        assert "superluminal" in {v.kind for v in first.violations}
        assert first.violations == again.violations

    def test_cache_stays_bounded(self, make_rng):
        params = ProtocolParams(n0=4, m=1, strict=False)
        for index in range(protocol.SCHEDULE_CACHE_SIZE + 5):
            scenario = ReductionScenario(name=f"bounded-{index}")
            assert run_session(Honest(), params, scenario=scenario, randomness=make_rng(index)).accepted
            assert protocol._session_plan.cache_info().currsize <= protocol.SCHEDULE_CACHE_SIZE
        assert protocol._session_plan.cache_info().currsize == protocol.SCHEDULE_CACHE_SIZE


def spin3_at_t_c(sites):
    """Tamper: re-emit spin[3] at t_c on its sender's worldline, received lightlike at B0."""
    sites = {site.id: site for site in sites}
    b0 = sites["B0"]

    def tamper(messages):
        t_c = earliest_commitment_time(b0, [m.receive for m in messages if m.payload.startswith("commit[")])
        out = []
        for message in messages:
            if message.payload == "spin[3]":
                emit = sites[message.sender].event_at(t_c)
                receive = b0.event_at(earliest_commitment_time(b0, [emit]))
                message = Message(message.sender, message.receiver, emit, receive, message.payload)
            out.append(message)
        return out

    return tamper


def early_second_reveal(sites):
    """Tamper: append a second, causally valid ``reveal`` emitted before the declarations."""
    sites = {site.id: site for site in sites}
    b0 = sites["B0"]

    def tamper(messages):
        (declarations,) = [m for m in messages if m.payload == "declarations"]
        emit = sites[declarations.sender].event_at(declarations.emit.t - 0.5)
        receive = b0.event_at(earliest_commitment_time(b0, [emit]))
        return [*messages, Message(declarations.sender, "B0", emit, receive, "reveal")]

    return tamper


class TestPlanOrdering:
    """The ordering checks of the schedule plan, on schedules that are otherwise causally valid."""

    @pytest.mark.parametrize("base", [default_scenario(), moving_scenario()], ids=["line", "moving"])
    def test_spin_at_t_c_aborts(self, base, make_rng):
        scenario = dataclasses.replace(base, tamper=spin3_at_t_c(base.sites))
        transcript = run_session(Honest(), ProtocolParams(n0=16, m=4), scenario, make_rng(1))
        assert validate_schedule(transcript.schedule) == []
        assert transcript.verdict is Verdict.ABORT
        assert transcript.failed_stage is Stage.SCHEDULE
        assert transcript.violations == (Violation("ordering", "spin[3]", "spin emitted at or before t_c"),)

    @pytest.mark.parametrize("base", [default_scenario(), moving_scenario()], ids=["line", "moving"])
    def test_first_reveal_is_the_one_checked(self, base, make_rng):
        scenario = dataclasses.replace(base, tamper=early_second_reveal(base.sites))
        transcript = run_session(Honest(), ProtocolParams(n0=16, m=4), scenario, make_rng(1))
        reveals = [m for m in transcript.schedule.messages if m.payload == "reveal"]
        assert len(reveals) == 2
        assert reveals[1].emit.t < transcript.events["declarations_emitted"].t
        assert validate_schedule(transcript.schedule) == []
        assert transcript.violations == ()
        assert transcript.verdict is Verdict.ACCEPT
        assert transcript.events["reveal_emitted"] is reveals[0].emit


class TestStageFlights:
    """An untampered plan reads the builder's stage flights; a scan of the same messages agrees."""

    @pytest.mark.parametrize(
        "seed, shape, n0", [pytest.param(seed, shape, n0, id=case) for seed, shape, n0, case in SHAPED]
    )
    def test_builder_flights_match_a_scan(self, seed, shape, n0):
        built = random_moving_scenario(seed, None, *shape)
        scanned = dataclasses.replace(built, tamper=list)  # same messages, planned by the scan
        schedule, violations, events = protocol._session_plan.__wrapped__(built, n0)
        rescheduled, rescanned, reevents = protocol._session_plan.__wrapped__(scanned, n0)
        assert len(schedule.stage_flights) == 4 and rescheduled.stage_flights == ()
        assert rescheduled.messages == schedule.messages
        assert violations == rescanned == ()
        assert events == reevents


def drop(*payloads):
    """Tamper: remove every message carrying one of ``payloads``."""

    def tamper(messages):
        return [m for m in messages if m.payload not in payloads]

    return tamper


def drop_all(messages):
    """Tamper: remove every message."""
    return []


def retime_commit0(sites):
    """Tamper: commit[0] reaches its receiver's worldline at t = 50, later than light would."""
    sites = {site.id: site for site in sites}

    def tamper(messages):
        return [
            Message(m.sender, m.receiver, m.emit, sites[m.receiver].event_at(50.0), m.payload)
            if m.payload == "commit[0]"
            else m
            for m in messages
        ]

    return tamper


def missing(*payloads):
    return [Violation("missing", payload, "no message carries it") for payload in payloads]


def t_r_not_after_t_c(t):
    return Violation("ordering", "t_r", f"t_r={t} must be strictly after t_c={t}")


class TestMissingMessages:
    """A schedule that lacks a message the builder sent aborts at the schedule stage."""

    N0 = 16
    ESSENTIAL = ("challenge", "declarations", "reveal", *(f"spin[{i}]" for i in range(N0)))

    @pytest.mark.parametrize("tamper", [drop_all, drop(*ESSENTIAL)], ids=["no-messages", "no-essential"])
    def test_missing_messages_abort(self, tamper, make_rng):
        scenario = ReductionScenario(name="missing", tamper=tamper)
        params = ProtocolParams(n0=self.N0, m=4)
        transcript = run_session(Honest(), params, scenario, make_rng(1))
        assert transcript.verdict is Verdict.ABORT
        assert transcript.failed_stage is Stage.SCHEDULE
        if tamper is drop_all:
            # No oracle-reveals message is left either, so t_r falls back to t_c.
            sent = [m.payload for m in default_scenario().build_schedule(self.N0).messages]
            expected = [t_r_not_after_t_c(3.0), *missing(*sent)]
        else:
            expected = missing(*(f"spin[{i}]" for i in range(self.N0)), "challenge", "declarations", "reveal")
        assert list(transcript.violations) == expected
        accepted, _ = run_sessions(params, 10, make_rng(2), scenario)
        assert not accepted.any()

    @pytest.mark.parametrize("base", [default_scenario(2), moving_scenario()], ids=["line", "moving"])
    def test_each_missing_payload_is_named(self, base, make_rng):
        scenario = dataclasses.replace(base, tamper=drop("spin[5]", "spin[15]", "reveal"))
        transcript = run_session(Honest(), ProtocolParams(n0=self.N0, m=4), scenario, make_rng(1))
        assert transcript.failed_stage is Stage.SCHEDULE
        assert list(transcript.violations) == missing("spin[5]", "spin[15]", "reveal")

    @pytest.mark.parametrize("base", [default_scenario(1), moving_scenario()], ids=["line", "moving"])
    @pytest.mark.parametrize(
        "dropped",
        [("commit[3]", "heartbeat-out[0]"), ("open-instruction[B1]",), ("oracle-reveals[B1]",)],
        ids=["commit-and-heartbeat", "open-instruction", "oracle-reveals"],
    )
    def test_dropped_builder_message_aborts(self, base, dropped, make_rng):
        params = ProtocolParams(n0=self.N0, m=4)
        scenario = dataclasses.replace(base, tamper=drop(*dropped))
        transcript = run_session(Honest(), params, scenario, make_rng(1))
        expected = missing(*dropped)
        if dropped == ("oracle-reveals[B1]",) and base.name == "line-default":
            # B1 is the line's only oracle endpoint: no reveal reaches B0, so t_r = t_c.
            expected.insert(0, t_r_not_after_t_c(3.0))
        assert transcript.verdict is Verdict.ABORT
        assert transcript.failed_stage is Stage.SCHEDULE
        assert list(transcript.violations) == expected
        accepted, _ = run_sessions(params, 10, make_rng(2), scenario)
        assert not accepted.any()

    @pytest.mark.parametrize("base", [default_scenario(), moving_scenario()], ids=["line", "moving"])
    @pytest.mark.parametrize("receiver", ["B0", "Z9"], ids=["to-B0", "to-unknown-site"])
    def test_rerouted_commit_aborts(self, base, receiver, make_rng):
        # commit[3] goes to B0 on a lightlike path, or to a site the scenario does not have,
        # so the oracle endpoint it was built for never receives it.
        params = ProtocolParams(n0=self.N0, m=4)
        b0 = {site.id: site for site in base.sites}["B0"]

        def reroute(messages):
            return [
                Message(m.sender, receiver, m.emit, b0.event_at(_arrival(b0, m.emit)), m.payload)
                if m.payload == "commit[3]"
                else m
                for m in messages
            ]

        scenario = dataclasses.replace(base, tamper=reroute)
        transcript = run_session(Honest(), params, scenario, make_rng(1))
        assert transcript.schedule.t_c == base.build_schedule(self.N0).t_c
        assert transcript.verdict is Verdict.ABORT
        assert transcript.failed_stage is Stage.SCHEDULE
        assert list(transcript.violations) == missing("commit[3]")
        accepted, _ = run_sessions(params, 10, make_rng(2), scenario)
        assert not accepted.any()

    @pytest.mark.parametrize("base", [default_scenario(), moving_scenario()], ids=["line", "moving"])
    def test_retimed_commit_moves_t_c(self, base, make_rng):
        params = ProtocolParams(n0=self.N0, m=4)
        scenario = dataclasses.replace(base, tamper=retime_commit0(base.sites))
        transcript = run_session(Honest(), params, scenario, make_rng(1))
        schedule = transcript.schedule
        b0 = schedule.sites["B0"]
        late_commit = next(m for m in schedule.messages if m.payload == "commit[0]")
        assert late_commit.receive.t == 50.0 and late_commit.receive in schedule.confirmations
        assert schedule.t_c == earliest_commitment_time(b0, schedule.confirmations) > 50.0
        assert schedule.commitment_point == b0.event_at(schedule.t_c)
        # Every oracle reveal now arrives before t_c, and every spin leaves before it.
        assert list(transcript.violations) == [
            t_r_not_after_t_c(schedule.t_c),
            *(Violation("ordering", f"spin[{i}]", "spin emitted at or before t_c") for i in range(self.N0)),
        ]
        if base.name == "line-default":
            assert schedule.t_c == 52.0
        accepted, _ = run_sessions(params, 10, make_rng(2), scenario)
        assert not accepted.any()


def digest_tampers(sites):
    """Deterministic tampers of one geometry, by name.

    Each picks its messages by payload name or CRC, never by ``hash()``,
    which ``PYTHONHASHSEED`` salts.
    """
    sites = {site.id: site for site in sites}
    b0 = sites["B0"]

    def reroute_commit3(messages):
        return [
            Message(m.sender, "B0", m.emit, b0.event_at(_arrival(b0, m.emit)), m.payload)
            if m.payload == "commit[3]"
            else m
            for m in messages
        ]

    def retime_reveal(messages):
        (declarations,) = [m for m in messages if m.payload == "declarations"]
        out = []
        for m in messages:
            if m.payload == "reveal":
                emit = sites[m.sender].event_at(declarations.emit.t)
                m = Message(m.sender, m.receiver, emit, b0.event_at(_arrival(b0, emit)), m.payload)
            out.append(m)
        return out

    return {
        "none": None,
        "identity": list,
        "spin0-early": tamper_spin0,
        "drop": lambda messages: [m for m in messages if zlib.crc32(m.payload.encode()) % 5],
        "reroute": reroute_commit3,
        "repeat": lambda messages: [*messages, *messages[::7]],
        "reverse": lambda messages: messages[::-1],
        "retime-reveal": retime_reveal,
    }


def rebuild_events(messages):
    """Tamper: every message with new, equal emit and receive events."""
    return [
        Message(m.sender, m.receiver, Event(m.emit.t, m.emit.x), Event(m.receive.t, m.receive.x), m.payload)
        for m in messages
    ]


TAMPER_STEPS = ("drop", "reroute", "retime", "repeat", "reorder", "rebuild", "split")


def random_tamper(seed: int, sites):
    """A seeded tamper of one geometry: two to four of ``TAMPER_STEPS``, in a seeded order.

    Each call draws from a fresh generator of ``seed``, so the tamper is a
    pure function of its messages.  ``tamper.steps`` names the steps.
    """
    sites = {site.id: site for site in sites}
    site_ids = [*sites, "Z9"]  # Z9 is a site the scenario does not have
    pick = random.Random(f"steps-{seed}")
    steps = pick.sample(TAMPER_STEPS, pick.randint(2, 4))

    def lightlike(site_id, emit):
        site = sites.get(site_id)
        return site.event_at(_arrival(site, emit)) if site else Event(emit.t + 1.0, emit.x)

    def rebuilt(m):  # new, equal events, their positions given as lists
        return m._replace(emit=Event(m.emit.t, list(m.emit.x)), receive=Event(m.receive.t, list(m.receive.x)))

    def tamper(messages):
        gen = random.Random(seed)
        out = list(messages)
        for step in steps:
            if not out:
                break
            index = gen.randrange(len(out))
            sender, receiver, emit, receive, payload = out[index]
            if step == "drop":
                for dropped in sorted(gen.sample(range(len(out)), min(len(out), gen.randint(1, 3))), reverse=True):
                    del out[dropped]
            elif step == "reroute" and gen.random() < 0.5:
                receiver = gen.choice([i for i in site_ids if i != receiver])
                out[index] = Message(sender, receiver, emit, lightlike(receiver, emit), payload)
            elif step == "reroute":
                out[index] = Message(gen.choice([i for i in site_ids if i != sender]), receiver, emit, receive, payload)
            elif step == "retime":
                shape = gen.randrange(3)
                if shape == 0 and sender in sites:  # a causal message emitted earlier or later
                    emit = sites[sender].event_at(emit.t + gen.uniform(-3.0, 3.0))
                    receive = lightlike(receiver, emit)
                elif shape == 1 and receiver in sites:  # received later, or superluminally earlier
                    receive = sites[receiver].event_at(receive.t + gen.uniform(-2.0, 5.0))
                else:  # received where it was, at its emission time
                    receive = Event(emit.t, receive.x)
                out[index] = Message(sender, receiver, emit, receive, payload)
            elif step == "repeat":
                for _ in range(gen.randint(1, 4)):
                    out.insert(gen.randrange(len(out) + 1), out[gen.randrange(len(out))])
            elif step == "reorder" and gen.random() < 0.5:
                gen.shuffle(out)
            elif step == "reorder":
                out.reverse()
            elif step == "rebuild":
                out = [rebuilt(m) if gen.random() < 0.7 else m for m in out]
            else:  # split: move some messages of a flight of several off its emit or receive point, or later
                flights = {}
                for position, m in enumerate(out):
                    flights.setdefault(m[:4], []).append(position)
                shared = [positions for positions in flights.values() if len(positions) > 1]
                if shared:
                    positions = gen.choice(shared)
                    moved = gen.sample(positions, gen.randint(1, len(positions) - 1))
                    sender, receiver, emit, receive = out[moved[0]][:4]
                    shape, nudge = gen.randrange(3), [gen.uniform(-0.5, 0.5) for _ in range(3)]
                    if shape == 0:  # the same times, sent elsewhere
                        emit = Event(emit.t, [c + d for c, d in zip(emit.x, nudge)])
                    elif shape == 1:  # the same times, received elsewhere
                        receive = Event(receive.t, [c + d for c, d in zip(receive.x, nudge)])
                    else:
                        later = emit.t + gen.uniform(0.05, 0.5)
                        emit = sites[sender].event_at(later) if sender in sites else Event(later, emit.x)
                        receive = lightlike(receiver, emit)
                    for position in moved:
                        out[position] = Message(sender, receiver, emit, receive, out[position].payload)
        return out

    tamper.steps = steps
    return tamper


class TestTamperedPlanDigest:
    """Every float, flight, violation, event and message of tampered plans, pinned by one sha256."""

    PLAN_DIGEST = "ee1e4ce0672bf8a1929d5dbe8ad6c9cf44328e1168f9baa50db766c677c2cdf6"

    def test_tampered_plans_reproduce_pinned_digest(self):
        digest = hashlib.sha256()
        for seed in range(24):
            base = random_moving_scenario(1000 + seed, None, *SCHEDULE_SHAPES[seed % len(SCHEDULE_SHAPES)])
            for name, tamper in digest_tampers(base.sites).items():
                scenario = dataclasses.replace(base, tamper=tamper)
                for n0 in (4, 16, 64):
                    schedule, violations, events = protocol._session_plan.__wrapped__(scenario, n0)
                    fingerprint = repr((
                        name,
                        n0,
                        [(*flight[:5], tuple(flight.positions)) for flight in schedule.flights],
                        schedule.commitment_point,
                        schedule.t_c,
                        schedule.t_r,
                        schedule.confirmations,
                        violations,
                        sorted(events.items()),
                        schedule.messages,
                    ))
                    digest.update((fingerprint + "\n").encode())
        assert digest.hexdigest() == self.PLAN_DIGEST


# Seeded tampers per (geometry, n0) that the reference plan checks, besides
# the digest's tampers and the rebuild of every event.
RANDOM_TAMPERS = 8
REFERENCE_CASES = [
    pytest.param(seed, shape, n0, id=f"seed{seed}-{shape[0]}x{shape[1]}-rounds{shape[2]}-n0={n0}")
    for seed, shape in enumerate(SCHEDULE_SHAPES)
    for n0 in (4, 16, 64)
]


def reference_tampers(seed: int, n0: int, sites) -> list:
    first = RANDOM_TAMPERS * (3 * seed + (4, 16, 64).index(n0))
    return [random_tamper(first + j, sites) for j in range(RANDOM_TAMPERS)]


class TestReferencePlan:
    """The session plan against ``oracles.reference_plan``, which walks the messages one at a time."""

    @pytest.mark.parametrize("seed, shape, n0", REFERENCE_CASES)
    def test_plan_matches_reference(self, seed, shape, n0):
        base = random_moving_scenario(2000 + seed, None, *shape)
        tampers = [*digest_tampers(base.sites).values(), rebuild_events, *reference_tampers(seed, n0, base.sites)]
        for tamper in tampers:
            scenario = dataclasses.replace(base, tamper=tamper)
            schedule, violations, events = protocol._session_plan.__wrapped__(scenario, n0)
            reference = oracles.reference_plan(scenario, n0)
            assert schedule.messages == tuple(reference.messages)
            # A flight is its values: one per distinct (sender, receiver, emit event, receive event).
            assert len(schedule.flights) == len({m[:4] for m in reference.messages})
            assert [(v.kind, v.payload) for v in violations] == reference.violations
            assert schedule.t_c == pytest.approx(reference.t_c, abs=1e-9)
            assert schedule.t_r == pytest.approx(reference.t_r, abs=1e-9)
            assert set(schedule.confirmations) == reference.confirmations
            assert events.keys() == reference.events.keys()
            for name, event in events.items():
                expected = reference.events[name]
                assert (event is None) == (expected is None), name
                if event is not None:
                    assert event.t == pytest.approx(expected.t, abs=1e-9), name
                    assert math.dist(event.x, expected.x) <= 1e-9, name

    def test_random_tampers_reach_every_step_and_verdict(self):
        # The comparison above is not vacuous: its seeded tampers take every
        # step, and their plans find every kind of violation, and none.
        steps, kinds, clean, split = set(), set(), 0, 0
        for seed, shape in enumerate(SCHEDULE_SHAPES):
            base = random_moving_scenario(2000 + seed, None, *shape)
            built = len(protocol._session_plan.__wrapped__(base, 4)[0].flights)
            for tamper in reference_tampers(seed, 4, base.sites):
                steps.update(tamper.steps)
                schedule, violations, _ = protocol._session_plan.__wrapped__(
                    dataclasses.replace(base, tamper=tamper), 4
                )
                kinds.update(v.kind for v in violations)
                clean += not violations
                split += len(schedule.flights) > built
        assert steps == set(TAMPER_STEPS)
        assert kinds == {"superluminal", "off-worldline", "ordering", "missing"}
        assert clean > 0 and split > 0


class TestRunSessions:
    """The batched engine against the scalar path and the closed form, at n0 = 64, m = 16."""

    def test_honest_accept_rate_matches_scalar_and_closed_form(self, make_rng):
        params = ProtocolParams(n0=64, m=16, flip_probability=0.05)
        sessions = 2000
        exact = honest_accept_probability_exact(params)
        accepted, _ = run_sessions(params, sessions, make_rng(40))
        batched = accepted.mean()
        rng = make_rng(41)
        scalar = sum(run_session(Honest(), params, randomness=rng).accepted for _ in range(sessions)) / sessions
        sigma = math.sqrt(exact * (1.0 - exact) / sessions)
        assert abs(batched - exact) <= 4 * sigma
        assert abs(scalar - exact) <= 4 * sigma
        assert abs(batched - scalar) <= 4 * math.sqrt(2.0) * sigma

    def test_tampered_schedule_aborts_before_commit(self, make_rng, rng_calls):
        # Full leak: any session that reached the commit phase would leak.
        params = ProtocolParams(n0=64, m=16, leak_probability=1.0)
        accepted, leaked = run_sessions(params, 50, make_rng(60), scenario=ReductionScenario(tamper=instant_spin0))
        assert not accepted.any()
        assert (leaked == 0).all()
        assert not rng_calls.counts

    def test_full_leak_exposes_every_commitment(self, make_rng):
        params = ProtocolParams(n0=64, m=16, leak_probability=1.0)
        accepted, leaked = run_sessions(params, 20, make_rng(62))
        assert (leaked == params.n_commitments).all()
        assert accepted.all()

    def test_no_tested_particles_when_n0_equals_m(self, make_rng):
        # n0 = m: nothing is tested, so no flip can reject an honest session.
        params = ProtocolParams(n0=2, m=2, strict=False, flip_probability=0.5)
        accepted, _ = run_sessions(params, 400, make_rng(64))
        assert accepted.all()

    @pytest.mark.parametrize("n", [True, 2.0, "3", 0, -1])
    def test_session_count_must_be_a_positive_integer(self, n, rng_calls):
        params = ProtocolParams(n0=16, m=4)
        with pytest.raises(ValueError, match=f"^n must be an integer >= 1, not {re.escape(repr(n))}$"):
            run_sessions(params, n, RandomStream(1))
        with pytest.raises(ValueError, match="^n must be an integer"):
            weak_oracle_degradation(params, n, RandomStream(1))
        assert not rng_calls.counts

    def test_numpy_integer_session_count_accepted(self):
        accepted, leaked = run_sessions(ProtocolParams(n0=16, m=4), np.int64(3), RandomStream(1))
        assert accepted.shape == leaked.shape == (3,)


class TestRunSessionsCost:
    @pytest.mark.parametrize("knobs", [{}, {"flip_probability": 0.1, "leak_probability": 0.1}])
    def test_rng_calls_do_not_grow_with_n(self, knobs, rng_calls):
        params = ProtocolParams(n0=64, m=16, **knobs)
        counts = []
        for n in (10, 1000):
            rng_calls.counts.clear()
            run_sessions(params, n, RandomStream(n))
            counts.append(dict(rng_calls.counts))
        assert counts[0] == counts[1]
        assert 0 < sum(counts[0].values()) <= 5

    def test_large_n_runs_in_bounded_blocks(self, rng_calls):
        params = ProtocolParams(n0=4, m=1, strict=False, flip_probability=0.1, leak_probability=0.1)
        n = 2 * protocol.SESSION_CHUNK + 3
        accepted, leaked = run_sessions(params, n, RandomStream(7))
        assert accepted.shape == leaked.shape == (n,)
        assert max(rng_calls.rows) == protocol.SESSION_CHUNK
        assert sum(rng_calls.counts.values()) == 3 * 4  # three blocks, four draws each


# Sizes, oracle knobs and scenarios the array session is compared on with the scalar reference.
REFERENCE_SIZES = [(8, 4, False), (16, 4, True), (64, 16, True)]
REFERENCE_KNOBS = [(0.0, 0.0), (0.05, 0.0), (0.0, 0.3), (0.1, 0.2), (1.0, 1.0)]
REFERENCE_SEEDS = range(6)


def assert_matches_scalar_session(strategy, params, seed, scenario=None):
    """``run_session`` and ``oracles.scalar_run_session`` give equal transcripts from fresh streams of ``seed``."""
    transcript = run_session(strategy, params, scenario, RandomStream(seed))
    reference = oracles.scalar_run_session(strategy, params, scenario, RandomStream(seed))
    for field in dataclasses.fields(SessionTranscript):
        assert getattr(transcript, field.name) == getattr(reference, field.name), field.name


class TestScalarReference:
    """``run_session`` against ``oracles.scalar_run_session``, one draw per bit and particle, on fresh streams."""

    @pytest.mark.parametrize("n0, m, strict", REFERENCE_SIZES, ids=["n0=8", "n0=16", "n0=64"])
    @pytest.mark.parametrize("k", [None, 0, 1, 3, "m"], ids=["honest", "flip0", "flip1", "flip3", "flipm"])
    def test_every_field_matches_the_scalar_session(self, n0, m, strict, k):
        strategy = Honest() if k is None else ClassicalFlip(m if k == "m" else k)
        scenarios = (default_scenario(), default_scenario(3), ReductionScenario(name="reference-tamper", tamper=instant_spin0))
        seen = Counter()
        for flip, leak in REFERENCE_KNOBS:
            params = ProtocolParams(n0=n0, m=m, flip_probability=flip, leak_probability=leak, strict=strict)
            for scenario in scenarios:
                for seed in REFERENCE_SEEDS:
                    stream, scalar_stream = RandomStream(seed), RandomStream(seed)
                    transcript = run_session(strategy, params, scenario, stream)
                    reference = oracles.scalar_run_session(strategy, params, scenario, scalar_stream)
                    case = (flip, leak, scenario.suspension_rounds, scenario.tamper is not None, seed)
                    for field in dataclasses.fields(SessionTranscript):
                        assert getattr(transcript, field.name) == getattr(reference, field.name), (field.name, case)
                    assert json.dumps(transcript.to_records()) == json.dumps(reference.to_records())
                    if transcript.verdict is not Verdict.REJECT:
                        # Nothing was cut short, so both took the same number of draws.
                        assert stream.random() == scalar_stream.random(), case
                    seen[transcript.verdict, transcript.failed_stage] += 1
        assert {(Verdict.ABORT, Stage.SCHEDULE), (Verdict.REJECT, Stage.TESTED)} <= set(seen)
        if k not in (None, 0):
            assert (Verdict.REJECT, Stage.REVEAL) in seen
        if k in (None, 0, 1):
            assert (Verdict.ACCEPT, None) in seen

    @pytest.mark.parametrize("flip, leak", REFERENCE_KNOBS)
    def test_oracle_matches_the_dict_oracle(self, flip, leak):
        # Certified bits and the leaked view, which no transcript field shows.
        for seed in REFERENCE_SEEDS:
            bits = RandomStream(100 + seed).bits(128)
            oracle, reference = IdealCommitmentOracle(flip, leak), oracles.DictCommitmentOracle(flip, leak)
            stream, scalar_stream = RandomStream(seed), RandomStream(seed)
            oracle.commit(bits, stream)
            for index, bit in enumerate(bits):
                reference.commit(index, bit, scalar_stream)
            assert oracle.reveal(np.arange(128)).tolist() == [reference.reveal(i) for i in range(128)]
            assert oracle.leaked_view == reference.leaked
            assert stream.random() == scalar_stream.random()


# Sizes a one-session run_sessions is compared with run_session on.
ROW_SIZES = [(8, 2, False), (16, 4, True), (64, 16, True)]


class TestOneRowOfRunSessions:
    """``run_sessions`` at n = 1 draws what ``run_session(Honest(), ...)`` draws, so it reaches the same verdict."""

    @pytest.mark.parametrize("n0, m, strict", ROW_SIZES, ids=["n0=8", "n0=16", "n0=64"])
    @pytest.mark.parametrize("flip, leak", REFERENCE_KNOBS)
    def test_acceptance_and_leaks_match_run_session(self, n0, m, strict, flip, leak):
        params = ProtocolParams(n0=n0, m=m, flip_probability=flip, leak_probability=leak, strict=strict)
        verdicts = Counter()
        for seed in range(60):
            accepted, leaked = run_sessions(params, 1, RandomStream(seed))
            transcript = run_session(Honest(), params, randomness=RandomStream(seed))
            assert bool(accepted[0]) == transcript.accepted, seed
            stream, oracle = RandomStream(seed), IdealCommitmentOracle(flip, leak)
            oracle.commit(stream.bits(params.n_commitments), stream)
            assert leaked[0] == len(oracle.leaked_view), seed
            verdicts[transcript.accepted] += 1
        if 0.0 < flip < 1.0 and n0 < 64:
            assert verdicts[True] and verdicts[False]  # both verdicts are compared


def counted_calls(monkeypatch, owner, name: str) -> Counter:
    """Count the calls of ``owner.name`` the way ``rng_calls`` counts draws."""
    calls = Counter()

    def counted(*args, _original=getattr(owner, name), **kwargs):
        calls[name] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def certbit_lines(call):
    """The number of ``line`` events in certbit's modules while ``call()`` runs, and its result."""
    package = Path(protocol.__file__).parent
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return count_lines

    def enter(frame, event, arg):
        return count_lines if Path(frame.f_code.co_filename).parent == package else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return count, result


class TestRunSessionCost:
    def test_honest_session_builds_no_oracle_object(self, monkeypatch):
        built = counted_calls(monkeypatch, IdealCommitmentOracle, "__init__")
        assert run_session(Honest(), ProtocolParams(n0=64, m=16), randomness=RandomStream(5)).accepted
        assert built == {}

    @pytest.mark.parametrize("strategy", [Honest(), ClassicalFlip(3)], ids=["honest", "flip3"])
    def test_a_second_session_builds_no_declaration(self, strategy, monkeypatch):
        # The same seed makes the same (particle, basis) declarations, which the first session built.
        params = ProtocolParams(n0=64, m=16)
        built = counted_calls(monkeypatch, protocol.Declaration, "__init__")
        first = run_session(strategy, params, randomness=RandomStream(7))
        built.clear()
        second = run_session(strategy, params, randomness=RandomStream(7))
        assert built == {}
        assert len(second.declarations) == params.m
        assert all(a is b for a, b in zip(first.declarations, second.declarations))

    def test_sessions_share_one_stage_rule(self, monkeypatch):
        class Sentinel(Exception):
            pass

        def fail(*args, **kwargs):
            raise Sentinel

        monkeypatch.setattr(protocol, "_commit_and_test", fail)
        params = ProtocolParams(n0=64, m=16)
        with pytest.raises(Sentinel):
            run_session(Honest(), params, randomness=RandomStream(6))
        with pytest.raises(Sentinel):
            run_sessions(params, 3, RandomStream(6))

    def test_honest_draws_do_not_grow_with_n0(self, rng_calls):
        counts = []
        for n0 in (16, 128):
            rng_calls.counts.clear()
            assert run_session(Honest(), ProtocolParams(n0=n0, m=n0 // 4), randomness=RandomStream(n0)).accepted
            counts.append(dict(rng_calls.counts))
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) <= 6

    def test_classical_flip_draws_do_not_grow_with_k(self, rng_calls):
        # The k guesses are one integers draw, so every k makes the same calls.
        counts = []
        for k in (0, 1, 2, 5, 16):
            rng_calls.counts.clear()
            transcript = run_session(ClassicalFlip(k), ProtocolParams(n0=64, m=16), randomness=RandomStream(k))
            assert transcript.failed_stage in (None, Stage.REVEAL)
            counts.append(dict(rng_calls.counts))
        assert all(count == counts[0] for count in counts)
        assert counts[0]["integers"] == 1

    @pytest.mark.parametrize("strategy", [Honest(), ClassicalFlip(3)], ids=["honest", "flip3"])
    def test_no_python_loop_grows_with_the_session(self, strategy):
        # Lines run in certbit's own modules, comprehensions included, for one
        # session at two sizes whose caches are warm and which end at the same stage.
        sizes = [ProtocolParams(n0=16, m=4), ProtocolParams(n0=128, m=32)]
        for params in sizes:
            run_session(strategy, params, randomness=RandomStream(0))
        for seed in range(20):
            lines, stages = [], set()
            for params in sizes:
                count, transcript = certbit_lines(lambda: run_session(strategy, params, randomness=RandomStream(seed)))
                lines.append(count)
                stages.add((transcript.verdict, transcript.failed_stage))
            if len(stages) == 1:
                break
        assert len(stages) == 1, "no seed reaches the same stage at both sizes"
        assert lines[0] == lines[1] > 0

    @pytest.mark.parametrize("flip, leak, draws", [(0.1, 0.2, 1), (0.1, 0.0, 1), (0.0, 0.2, 1), (0.0, 0.0, 0)])
    def test_oracle_commits_in_one_draw(self, flip, leak, draws, rng_calls):
        n0 = 64
        bits = RandomStream(1).bits(2 * n0)
        rng_calls.counts.clear()
        rng_calls.rows.clear()
        IdealCommitmentOracle(flip, leak).commit(bits, RandomStream(2))
        assert sum(rng_calls.counts.values()) == draws
        assert rng_calls.rows == [2 * n0] * draws


class KeepsItsArrays(Honest):
    """Honest, but it keeps the int64 arrays it returns and the bases it is handed, so a test can write into them."""

    def __init__(self):
        self.kept = []

    def keep(self, values) -> np.ndarray:
        self.kept.append(np.array(values, dtype=np.int64))
        return self.kept[-1]

    def commit_bits(self, params, randomness):
        return self.keep(super().commit_bits(params, randomness))

    def plan_declarations(self, particles, sent, randomness):
        bit, bases = super().plan_declarations(particles, sent, randomness)
        return bit, self.keep(bases)

    def reveal_claim(self, bit, sent, bases, randomness):
        self.kept.append(bases)
        claimed_bit, claimed = super().reveal_claim(bit, sent, bases, randomness)
        return claimed_bit, self.keep(claimed)


class TestTranscriptOwnsItsFields:
    def test_the_fields_do_not_follow_the_strategys_arrays(self):
        params = ProtocolParams(n0=64, m=16)
        strategy = KeepsItsArrays()
        transcript = run_session(strategy, params, randomness=RandomStream(9))
        assert len(strategy.kept) == 4 and transcript.accepted
        for kept in {id(kept): kept for kept in strategy.kept}.values():  # the bases it is handed are its own
            kept ^= 1
        fresh = run_session(Honest(), params, randomness=RandomStream(9))
        for field in dataclasses.fields(SessionTranscript):
            assert getattr(transcript, field.name) == getattr(fresh, field.name), field.name


class TestSchedulePlanCost:
    PER_FLIGHT = ("_arrival", "in_past_cone", "on_worldline", "earliest_commitment_time")

    @staticmethod
    def count_calls(monkeypatch) -> Counter:
        # Events, light arrivals, causal checks, message lists and groupings
        # are counted the way rng_calls counts draws.
        calls = Counter()
        for owner, name in (
            (Event, "__post_init__"),
            (spacetime, "_arrival"),
            (protocol, "_arrival"),
            (spacetime, "earliest_commitment_time"),
            (protocol, "earliest_commitment_time"),
            (Site, "on_worldline"),
            (spacetime, "in_past_cone"),
            (spacetime, "_as_vec3"),
            (protocol, "_group_flights"),
        ):

            def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        build_messages = Schedule.messages.func

        def counted_messages(schedule):
            calls["messages"] += 1
            return build_messages(schedule)

        messages = functools.cached_property(counted_messages)
        messages.__set_name__(Schedule, "messages")
        monkeypatch.setattr(Schedule, "messages", messages)
        return calls

    @pytest.mark.parametrize("scenario", [default_scenario(3), moving_scenario()], ids=["line", "moving"])
    def test_plan_pays_per_flight_not_per_message(self, scenario, monkeypatch):
        calls = self.count_calls(monkeypatch)
        counts = []
        for n0 in (16, 128):
            calls.clear()
            schedule, _, _ = protocol._session_plan.__wrapped__(scenario, n0)
            counts.append(dict(calls))
            assert "messages" not in schedule.__dict__  # an untampered plan builds no Message
        assert counts[0] == counts[1]
        assert counts[0]["earliest_commitment_time"] == 1
        assert counts[0]["on_worldline"] > 0 and counts[0]["in_past_cone"] > 0
        assert "messages" not in counts[0] and "_group_flights" not in counts[0]
        # Builder events are built from a validated site's floats and are
        # not converted again.
        assert counts[0]["__post_init__"] > 0 and "_as_vec3" not in counts[0]

    @pytest.mark.parametrize("base", [default_scenario(3), moving_scenario()], ids=["line", "moving"])
    def test_tampered_plan_builds_and_groups_the_messages_once(self, base, monkeypatch):
        calls = self.count_calls(monkeypatch)
        scenario = dataclasses.replace(base, tamper=list)
        counts = []
        for n0 in (16, 128):
            calls.clear()
            schedule, violations, _ = protocol._session_plan.__wrapped__(scenario, n0)
            assert violations == ()
            assert "messages" not in schedule.__dict__  # only the built schedule's messages are read
            assert calls["messages"] == 1 and calls["_group_flights"] == 1
            counts.append({name: calls[name] for name in self.PER_FLIGHT})
        assert counts[0] == counts[1]
        assert all(counts[0].values())

    @pytest.mark.parametrize("base", [default_scenario(3), moving_scenario()], ids=["line", "moving"])
    def test_rebuilt_events_cost_what_the_identity_costs(self, base, monkeypatch):
        # A tamper that rebuilds every event groups into the identity tamper's
        # flights, and its plan makes the same per-flight calls.
        calls = self.count_calls(monkeypatch)
        for n0 in (16, 128):
            plans = []
            for tamper in (list, rebuild_events):
                calls.clear()
                scenario = dataclasses.replace(base, tamper=tamper)
                schedule, violations, _ = protocol._session_plan.__wrapped__(scenario, n0)
                assert violations == ()
                plans.append((schedule.flights, {name: calls[name] for name in (*self.PER_FLIGHT, "_group_flights")}))
            (identity, identity_calls), (rebuilt, rebuilt_calls) = plans
            assert rebuilt == identity
            assert rebuilt_calls == identity_calls


class TestTranscriptsPickle:
    @pytest.mark.parametrize(
        "strategy, scenario, verdict",
        [
            pytest.param(Honest(), None, Verdict.ACCEPT, id="accepted"),
            pytest.param(ClassicalFlip(3), None, Verdict.REJECT, id="rejected"),
            pytest.param(Honest(), moving_scenario(tamper=tamper_spin0), Verdict.ABORT, id="aborted"),
        ],
    )
    def test_round_trips(self, strategy, scenario, verdict):
        transcript = run_session(strategy, ProtocolParams(n0=16, m=4), scenario, RandomStream(3))
        assert transcript.verdict is verdict
        for copied in (pickle.loads(pickle.dumps(transcript)), copy.deepcopy(transcript)):
            assert copied == transcript
            assert copied.schedule.messages == transcript.schedule.messages
            assert isinstance(copied.schedule.sites, MappingProxyType)


class FixedUniform:
    """A stand-in stream whose every uniform is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class TestOneBornRule:
    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("label", list(SpinLabel))
    def test_array_rule_matches_measure_label(self, label, basis):
        # Outcome 0 iff u < p0, strictly: pinned at 0, just below p0, at p0 and just below 1.
        p0 = signal_probabilities(label, basis)[0]
        targets = basis_eigenstates(basis)
        for u in (0.0, np.nextafter(p0, 0.0), p0, np.nextafter(1.0, 0.0)):
            seen = measure_label(label, basis, FixedUniform(u))
            assert seen is targets[0 if u < p0 else 1] is targets[int(born_outcomes(p0, u))]
            collapses = protocol._collapses(np.full(2, CODE[label]), np.array(codes(targets)), np.full(2, u))
            assert collapses.tolist() == [seen is target for target in targets], (u, p0)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("u_at", ["p0", "below p0"])
    def test_measure_and_the_entangle_sampler_give_the_rules_outcome(self, basis, u_at):
        # At u == p0 the rule gives outcome 1 and one ulp below it outcome 0, on a float or an array.
        cases = [
            (spin_state(SpinLabel.RIGHT if basis is Basis.Z else SpinLabel.UP), 0),
            (StateVector(np.array([math.sqrt(0.3), math.sqrt(0.7)])), 0),
            (entangled_commit(math.sqrt(0.25), math.sqrt(0.75)), 1),
        ]
        for state, qubit in cases:
            p0, _ = measure_probabilities(state, basis, qubit)
            u = p0 if u_at == "p0" else np.nextafter(p0, 0.0)
            expected = 1 if u_at == "p0" else 0
            assert born_outcomes(p0, np.full(2, u)).tolist() == [born_outcomes(p0, u)] * 2 == [bool(expected)] * 2
            outcome, post = measure(state, basis, qubit, FixedUniform(u))
            assert outcome == expected
            # The post-measurement state is the outcome's eigenstate projector on ``qubit``, applied and normalized.
            eigenstate = spin_state(basis_eigenstates(basis)[outcome]).amplitudes
            factors = [np.eye(2)] * state.n_qubits
            factors[qubit] = np.outer(eigenstate, eigenstate.conj())
            projected = functools.reduce(np.kron, factors) @ state.amplitudes
            assert np.allclose(post.amplitudes, projected / np.linalg.norm(projected), atol=1e-12)
        alpha, beta = math.sqrt(0.25), math.sqrt(0.75)
        p0 = entangled_reveal_probability(alpha, beta)
        u = p0 if u_at == "p0" else np.nextafter(p0, 0.0)
        reveals = sample_entangled_reveals(alpha, beta, protocol.SESSION_CHUNK + 1, FixedUniform(u))
        assert reveals.dtype == np.uint8
        assert reveals.tolist() == [int(born_outcomes(p0, u))] * (protocol.SESSION_CHUNK + 1)
