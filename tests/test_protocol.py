"""Protocol engine: params, oracle, encoding, stages, full sessions."""

import dataclasses
import json
import math
from collections import Counter
from types import MappingProxyType

import numpy as np
import pytest

from certbit import protocol, spacetime
from certbit.adversary import ClassicalFlip, Honest
from certbit.analysis import evaluate_relativistic, honest_accept_probability_exact
from certbit.protocol import (
    DEFAULT_ENCODING,
    Declaration,
    IdealCommitmentOracle,
    ProtocolParams,
    ReductionScenario,
    RevealOutcome,
    SessionTranscript,
    Stage,
    Verdict,
    default_scenario,
    draw_challenge,
    honest_declarations,
    run_session,
    run_sessions,
    spin_labels,
    verify_reveal,
    verify_tested,
)
from certbit.quantum import Basis, SpinLabel, basis_eigenstates, measure_label, signal_probabilities
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

    def test_spin_labels(self):
        assert spin_labels((0, 1, 1, 0)) == [SpinLabel.DOWN, SpinLabel.LEFT]


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
        assert oracle.opened_indices == {0, 1, 4, 5}
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


class TestChallenge:
    def test_subset_size(self, rng):
        params = ProtocolParams(n0=3, m=2, strict=False)
        assert len(draw_challenge(params, rng)) == 1

    def test_degenerate_empty_subset(self, rng):
        params = ProtocolParams(n0=2, m=2, strict=False)
        assert draw_challenge(params, rng) == ()

    def test_uniform_membership(self, rng):
        # Each index of 8 appears in a size-4 subset with frequency 1/2.
        params = ProtocolParams(n0=8, m=4, strict=False)
        draws = 100_000
        counts = np.zeros(8)
        for _ in range(draws):
            for index in draw_challenge(params, rng):
                counts[index] += 1
        frequencies = counts / draws
        assert np.all(np.abs(frequencies - 0.5) < 0.01)


class TestVerifyTested:
    def test_honest_accepts_with_certainty(self, rng):
        bits = (0, 0, 0, 1, 1, 0, 1, 1)
        sent = codes(spin_labels(bits))
        opened = [2 * bits[2 * i] + bits[2 * i + 1] for i in range(4)]
        for _ in range(25):
            outcome = verify_tested(range(4), opened, sent, rng)
            assert outcome.accepted

    def test_conjugate_swap_detected_half_the_time(self, rng):
        # A particle in the conjugate basis passes the check with p = 1/2.
        trials = 100_000
        opened = [CODE[SpinLabel.UP]]
        passes = 0
        for _ in range(trials):
            if verify_tested([0], opened, codes([SpinLabel.RIGHT]), rng).accepted:
                passes += 1
        assert abs(passes / trials - 0.5) < 0.005

    def test_empty_subset_vacuous_accept(self, rng):
        outcome = verify_tested([], [], [], rng)
        assert outcome.accepted and outcome.reject_index is None

    def test_missing_reveal_raises(self, rng):
        with pytest.raises(ValueError, match="0 oracle reveals for 1 tested"):
            verify_tested([0], [], codes([SpinLabel.UP]), rng)

    def test_rejection_names_first_failure(self, rng):
        opened = [CODE[SpinLabel.UP], CODE[SpinLabel.DOWN]]  # particle 1 is orthogonal to its claim
        outcome = verify_tested([0, 1], opened, codes([SpinLabel.UP, SpinLabel.UP]), rng)
        assert not outcome.accepted
        assert outcome.reject_index == 1


class TestDeclarations:
    def test_bit_zero_on_z_particle(self):
        (declaration,) = honest_declarations(0, [7], [SpinLabel.UP])
        assert declaration.particle == 7
        assert declaration.basis_for(0) is Basis.Z
        assert declaration.basis_for(1) is Basis.X

    def test_bit_one_on_x_particle(self):
        (declaration,) = honest_declarations(1, [2], [SpinLabel.LEFT])
        assert declaration.basis_for(1) is Basis.X
        assert declaration.basis_for(0) is Basis.Z

    def test_one_declaration_per_untested_particle(self):
        labels = [SpinLabel.UP, SpinLabel.LEFT, SpinLabel.RIGHT]
        declarations = honest_declarations(0, [1, 4, 5], labels)
        assert len(declarations) == 3
        assert [d.particle for d in declarations] == [1, 4, 5]


class TestVerifyReveal:
    def _declarations(self, bit, labels):
        return honest_declarations(bit, tuple(range(len(labels))), labels)

    def test_honest_reveal_accepts(self, rng):
        labels = [SpinLabel.UP, SpinLabel.LEFT, SpinLabel.RIGHT, SpinLabel.DOWN]
        declarations = self._declarations(1, labels)
        for _ in range(25):
            outcome = verify_reveal(1, labels, declarations, codes(labels), rng)
            assert outcome.accepted

    def test_wrong_length_rejected_without_measurement(self, rng):
        labels = [SpinLabel.UP, SpinLabel.DOWN]
        declarations = self._declarations(0, labels)
        outcome = verify_reveal(0, labels[:1], declarations, codes(labels), rng)
        assert not outcome.accepted
        assert outcome.reason == "claim length mismatch"

    @pytest.mark.parametrize("claimed_bit", [2, -1, None, 0.5, "1", 1.0], ids=repr)
    def test_bit_outside_zero_one_rejected_without_measurement(self, claimed_bit, rng, rng_calls):
        # Labels honest for bit 1, which the declarations bind to any nonzero bit.
        labels = [SpinLabel.LEFT, SpinLabel.UP]
        declarations = self._declarations(1, labels)
        outcome = verify_reveal(claimed_bit, labels, declarations, codes(labels), rng)
        assert outcome == RevealOutcome(False, reason="claimed bit outside {0, 1}")
        assert not rng_calls.counts

    def test_label_outside_declared_basis_rejected(self, rng):
        labels = [SpinLabel.UP]
        declarations = self._declarations(0, labels)
        outcome = verify_reveal(0, [SpinLabel.LEFT], declarations, codes(labels), rng)
        assert not outcome.accepted
        assert outcome.reason == "claimed label outside declared basis"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_false_declarations_pass_rate(self, k, make_rng):
        # Pass probability is 2^-k: each false declaration forces a
        # conjugate-basis measurement matched by a uniform guess.
        rng = make_rng(800 + k)
        sent = codes([SpinLabel.UP] * 4)
        particles = tuple(range(4))
        declarations = []
        for i in particles:
            basis = Basis.Z if i >= k else Basis.X  # first k are false for bit 0
            declarations.append(Declaration(i, basis))
        trials = 40_000
        passes = 0
        for _ in range(trials):
            claims = []
            for i in particles:
                if i < k:
                    claims.append((SpinLabel.RIGHT, SpinLabel.LEFT)[rng.bit()])
                else:
                    claims.append(SpinLabel.UP)
            if verify_reveal(0, claims, tuple(declarations), sent, rng).accepted:
                passes += 1
        expected = 2.0**-k
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(passes / trials - expected) < 4 * sigma


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
        assert len(transcript.committed_bits) == 32
        assert len(transcript.challenge) == 12
        assert len(transcript.untested) == 4
        assert len(transcript.declarations) == 4
        assert transcript.schedule.t_r > transcript.schedule.t_c
        assert validate_schedule(transcript.schedule) == []

    def test_suspended_commitments_never_opened(self, make_rng):
        params = ProtocolParams(n0=16, m=4)
        transcript = run_session(Honest(), params, randomness=make_rng(4))
        suspended = {j for i in transcript.untested for j in (2 * i, 2 * i + 1)}
        assert not (suspended & transcript.opened_indices)
        assert len(transcript.opened_indices) == 2 * params.n_tested

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
            """Declares honestly for bit 1, then claims bit 2 with the labels honest for 1."""

            def plan_declarations(self, particles, labels, randomness):
                return 1, honest_declarations(1, particles, labels)

            def reveal_claim(self, bit, labels, declarations, randomness):
                return 2, tuple(labels)

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
            """Declares honestly for bit 1, then claims ``claimed_bit`` with the labels honest for 1."""

            def plan_declarations(self, particles, labels, randomness):
                return 1, honest_declarations(1, particles, labels)

            def reveal_claim(self, bit, labels, declarations, randomness):
                return claimed_bit, tuple(labels)

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

    @pytest.mark.parametrize("declare", ["repeated", "tested", "reordered"])
    def test_declarations_must_name_each_untested_particle_once(self, declare, make_rng):
        class Misdeclarer(Honest):
            """Declares honestly, for particles other than the untested ones in order, and claims to match."""

            def commit_bits(self, params, randomness):
                self.bits = super().commit_bits(params, randomness)
                return self.bits

            def plan_declarations(self, particles, labels, randomness):
                sent = protocol.spin_labels(self.bits)
                if declare == "repeated":
                    particles = [particles[0]] * len(particles)
                elif declare == "tested":
                    particles = [i for i in range(len(sent)) if i not in particles][: len(particles)]
                else:
                    particles = particles[::-1]
                self.claim = tuple(sent[i] for i in particles)
                bit = randomness.bit()
                return bit, honest_declarations(bit, particles, self.claim)

            def reveal_claim(self, bit, labels, declarations, randomness):
                return bit, self.claim

        params = ProtocolParams(n0=16, m=4)
        with pytest.raises(ValueError, match="every untested particle exactly once"):
            run_session(Misdeclarer(), params, randomness=make_rng(1))
        with pytest.raises(ValueError, match="every untested particle exactly once"):
            oracles.scalar_run_session(Misdeclarer(), params, None, make_rng(1))

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
        assert sum(rng_calls.counts.values()) == 3 * 5  # three blocks, five draws each


# Sizes, oracle knobs and scenarios the array session is compared on with the scalar reference.
REFERENCE_SIZES = [(8, 4, False), (16, 4, True), (64, 16, True)]
REFERENCE_KNOBS = [(0.0, 0.0), (0.05, 0.0), (0.0, 0.3), (0.1, 0.2), (1.0, 1.0)]
REFERENCE_SEEDS = range(6)


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


class TestRunSessionCost:
    def test_honest_draws_do_not_grow_with_n0(self, rng_calls):
        counts = []
        for n0 in (16, 128):
            rng_calls.counts.clear()
            assert run_session(Honest(), ProtocolParams(n0=n0, m=n0 // 4), randomness=RandomStream(n0)).accepted
            counts.append(dict(rng_calls.counts))
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) <= 6

    @pytest.mark.parametrize("flip, leak, draws", [(0.1, 0.2, 1), (0.1, 0.0, 1), (0.0, 0.2, 1), (0.0, 0.0, 0)])
    def test_oracle_commits_in_one_draw(self, flip, leak, draws, rng_calls):
        n0 = 64
        bits = RandomStream(1).bits(2 * n0)
        rng_calls.counts.clear()
        rng_calls.rows.clear()
        IdealCommitmentOracle(flip, leak).commit(bits, RandomStream(2))
        assert sum(rng_calls.counts.values()) == draws
        assert rng_calls.rows == [2 * n0] * draws


class TestSchedulePlanCost:
    @pytest.mark.parametrize("scenario", [default_scenario(3), moving_scenario()], ids=["line", "moving"])
    def test_plan_pays_per_flight_not_per_message(self, scenario, monkeypatch):
        # Events, light arrivals, causal checks and messages are counted the
        # way rng_calls counts draws.
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
        ):

            def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        counts = []
        for n0 in (16, 128):
            calls.clear()
            schedule, _, _ = protocol._session_plan.__wrapped__(scenario, n0)
            counts.append(dict(calls))
            assert "messages" not in schedule.__dict__  # an untampered plan builds no Message
        assert counts[0] == counts[1]
        assert counts[0]["earliest_commitment_time"] == 1
        assert counts[0]["on_worldline"] > 0 and counts[0]["in_past_cone"] > 0
        # Builder events are built from a validated site's floats and are
        # not converted again.
        assert counts[0]["__post_init__"] > 0 and "_as_vec3" not in counts[0]


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
            assert seen is targets[0 if u < p0 else 1]
            collapses = protocol._collapses(np.full(2, CODE[label]), np.array(codes(targets)), np.full(2, u))
            assert collapses.tolist() == [seen is target for target in targets], (u, p0)
