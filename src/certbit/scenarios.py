"""Shipped, self-checking experiment scenarios.

Each scenario runs end to end from an :class:`~certbit.cli.ExperimentConfig`,
checks its own embedded expectations, and returns machine-readable records
plus a human summary.  Expectation failures make the experiment exit
nonzero; the causal-violation scenario *expects* an abort and reports the
documented abort status when it gets exactly the injected violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversary import (
    ClassicalFlip,
    Honest,
    entangled_commit,
    sample_entangled_reveals,
    weak_oracle_degradation,
)
from .analysis import (
    MIN_DETECTION_TRIALS,
    Quantity,
    SecurityReport,
    bob_information,
    cheat_sum,
    detection_probability_exact,
    detection_probability_mc,
    evaluate_relativistic,
    honest_accept_probability_exact,
    nogo_tradeoff_sweep,
    wilson_interval,
)
from .protocol import ReductionScenario, Verdict, default_scenario, run_session, run_sessions
from .quantum import partial_trace
from .rng import RandomStream
from .spacetime import Event, Message

__all__ = ["ExperimentResult", "ScenarioSpec", "SCENARIOS", "min_degradation_sessions", "scenario_names"]

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_CAUSAL_ABORT = 3


@dataclass
class ExperimentResult:
    scenario: str
    status: int
    summary_lines: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    transcript_records: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _expect(result: ExperimentResult, condition: bool, description: str) -> None:
    line = f"{'ok' if condition else 'FAIL'}: {description}"
    result.summary_lines.append(line)
    if not condition:
        result.failures.append(description)
        result.status = EXIT_EXPECTATION_FAILED


def _claim_matches_sent(transcript) -> bool:
    """Whether a reveal claim agrees with the spin states the verifier was sent.

    The declarations cover the untested particles in order, the claimed
    labels are the sent ones, and each declaration binds the claimed bit to
    its particle's sent basis.  It reads the transcript alone, never the
    strategy.
    """
    sent = transcript.sent_labels
    declarations = transcript.declarations
    return (
        tuple(d.particle for d in declarations) == transcript.untested
        and transcript.claimed_labels == tuple(sent[d.particle] for d in declarations)
        and all(d.basis_for(transcript.claimed_bit) is sent[d.particle].basis for d in declarations)
    )


def _run_honest_default(config) -> ExperimentResult:
    result = ExperimentResult("honest-default", EXIT_OK)
    params = config.params()
    sessions = config.sessions
    # Children 0 and ``sessions`` keep the shipped transcript and hiding
    # draws; the batched sessions read the last child, which nothing else reads.
    streams = RandomStream(config.seed).split(sessions + 2)
    scenario = default_scenario(config.suspension_rounds)

    accepted, _ = run_sessions(params, sessions, streams[-1], scenario=scenario)
    _expect(result, bool(accepted.all()), f"all {sessions} honest sessions accepted")
    transcript = run_session(Honest(), params, scenario=scenario, randomness=streams[0])
    _expect(
        result,
        transcript.accepted and _claim_matches_sent(transcript),
        "the transcript session is accepted, and its claim repeats the sent labels,"
        " in the bases declared for the claimed bit",
    )

    b0 = transcript.schedule.sites["B0"]
    expected_tc = max(
        e.t + math.dist(e.x, b0.position_at(0.0)) for e in transcript.schedule.confirmations
    )
    t_c = transcript.schedule.t_c
    _expect(
        result,
        abs(t_c - expected_tc) < 1e-9,
        f"t_c = {t_c} equals the maximal confirmation light delay {expected_tc}",
    )

    # A session rejected before its declarations has no p(Q) to check.
    report = evaluate_relativistic(transcript) if transcript.declarations else SecurityReport(params.epsilons)
    honest = cheat_sum(params, strategy_class="honest")
    _expect(
        result,
        bool(report.points) and all(p.within_bound for p in report.points),
        "p(Q) within the binding bound at every point after commitment",
    )
    bob = bob_information(params, trials=config.trials_or(20_000), randomness=streams[sessions], mode="monte-carlo")
    _expect(
        result,
        bob.tv_distance.ci[0] <= 0.0 and bob.tv_distance.value < 0.02,
        "pre-reveal view carries no detectable bit information",
    )

    result.records = SecurityReport(
        epsilons=params.epsilons, points=report.points, bob=bob, cheat=honest, notes=report.notes
    ).to_records()
    result.transcript_records = transcript.to_records()
    result.summary_lines.insert(
        0,
        f"honest-default: {sessions} sessions at n0={params.n0}, m={params.m}, seed={config.seed}",
    )
    return result


def _within_4_sigma(frequency: float, rate: float, trials: int) -> bool:
    """flip-sweep's and entangle-demo's gate: ``frequency`` over ``trials`` lies within 4 sigma of ``rate``."""
    return abs(frequency - rate) <= 4.0 * math.sqrt(rate * (1.0 - rate) / trials)


def _min_gate_trials(rates) -> int:
    """Fewest trials, and at least ``MIN_DETECTION_TRIALS``, at which ``_within_4_sigma`` fails 0 and 1 at each rate.

    At a rate p strictly between 0 and 1 the gate passes a frequency of 0 while trials <= 16(1 - p)/p, and one
    of 1 while trials <= 16p/(1 - p).  The search starts two below the first count past the larger bound,
    taken exactly, and evaluates the gate itself, so float rounding cannot put the floor one trial off.  From
    2^52 trials on, where floats no longer tell counts apart, the exact bound stands.
    """
    floor = MIN_DETECTION_TRIALS
    for rate in rates:
        if 0.0 < rate < 1.0:
            a, b = float(rate).as_integer_ratio()  # rate = a / b exactly
            past = max(16 * (b - a) // a, 16 * a // (b - a)) + 1
            trials = max(floor, past - 2 if past < 2**52 else past)
            while trials < 2**52 and (_within_4_sigma(0.0, rate, trials) or _within_4_sigma(1.0, rate, trials)):
                trials += 1
            floor = trials
    return floor


def _run_flip_sweep(config) -> ExperimentResult:
    result = ExperimentResult("flip-sweep", EXIT_OK)
    trials = config.trials_or(100_000)
    randomness = RandomStream(config.seed)
    table = []
    for k in config.k_values:
        exact = detection_probability_exact(k)
        estimate = detection_probability_mc(ClassicalFlip(k), trials, randomness)
        _expect(
            result,
            _within_4_sigma(estimate.value, exact, trials),
            f"k={k}: pass rate {estimate.value:.6f} within 4 sigma of exact {exact:.6f}",
        )
        # With k = 0 nothing is sampled, so the record has no Monte Carlo column.
        table.append((k, Quantity(exact, "exact"), estimate if estimate.provenance == "monte-carlo" else None))
    report = SecurityReport(epsilons=(0.0, 0.0), detection_table=tuple(table))  # no oracle knob reaches the reveal
    result.records = report.to_records()
    result.summary_lines.insert(0, f"flip-sweep: k in {list(config.k_values)}, {trials} trials each")
    return result


def _run_entangle_demo(config) -> ExperimentResult:
    result = ExperimentResult("entangle-demo", EXIT_OK)
    trials = config.trials_or(100_000)
    randomness = RandomStream(config.seed)
    records = []
    for alpha_sq in config.alpha_squares:
        alpha = math.sqrt(alpha_sq)
        beta = math.sqrt(1.0 - alpha_sq)
        state = entangled_commit(alpha, beta)
        reduced = partial_trace(state, [0])
        diag = np.diag([alpha_sq, 1.0 - alpha_sq])
        _expect(
            result,
            bool(np.allclose(reduced.entries, diag, atol=1e-12)),
            f"alpha^2={alpha_sq}: commit qubit is the improper mixture diag({alpha_sq}, {1 - alpha_sq})",
        )
        reveals = sample_entangled_reveals(alpha, beta, trials, randomness)
        zeros = int(np.count_nonzero(reveals == 0))
        frequency = zeros / trials
        _expect(
            result,
            _within_4_sigma(frequency, alpha_sq, trials),
            f"alpha^2={alpha_sq}: reveal-0 frequency {frequency:.5f} within 4 sigma of {alpha_sq}",
        )
        records.append(
            {
                "schema": 1,
                "type": "entangle",
                "alpha_squared": alpha_sq,
                "exact_probability": alpha_sq,
                "frequency": Quantity(
                    frequency, "monte-carlo", trials=trials, ci=wilson_interval(zeros, trials)
                ).to_record(),
                "trials": trials,
            }
        )
    result.records = records
    result.summary_lines.insert(0, f"entangle-demo: alpha^2 grid {list(config.alpha_squares)}")
    return result


def _run_purification_nogo(config) -> ExperimentResult:
    result = ExperimentResult("purification-nogo", EXIT_OK)
    thetas = np.linspace(0.0, math.pi / 2.0, config.theta_points)
    rows = nogo_tradeoff_sweep(thetas)
    for row in rows:
        closed = 1.0 + math.sqrt(row.fidelity)
        _expect(
            result,
            abs(row.p_sum.value - closed) < 1e-6,
            f"theta={row.theta:.4f}: attack p_sum {row.p_sum.value!r} equals 1 + sqrt(F) within 1e-6",
        )
    _expect(result, rows[0].fidelity == 1.0, "F=1 endpoint: fidelity is 1 exactly")
    _expect(result, rows[-1].fidelity == 0.0, "F=0 endpoint: fidelity is 0 exactly")
    _expect(result, rows[-1].epsilon_bob.value == 0.5, "F=0 endpoint: distinguishing advantage is maximal (1/2)")
    p_sums = [r.p_sum.value for r in rows]
    advantages = [r.epsilon_bob.value for r in rows]
    fidelities = [r.fidelity for r in rows]
    _expect(
        result,
        all(p_sums[i] >= p_sums[i + 1] - 1e-12 for i in range(len(rows) - 1))
        and all(fidelities[i] >= fidelities[i + 1] for i in range(len(rows) - 1)),
        "p_sum is monotone in fidelity",
    )
    _expect(
        result,
        all(advantages[i] <= advantages[i + 1] + 1e-12 for i in range(len(rows) - 1)),
        "distinguishing advantage is monotone against fidelity",
    )

    records = []
    for row in rows:
        records.append(
            {
                "schema": 1,
                "type": "tradeoff",
                "theta": row.theta,
                "fidelity": row.fidelity,
                "epsilon_bob": row.epsilon_bob.to_record(),
                "p_sum": row.p_sum.to_record(),
                "p0": row.p0,
                "p1": row.p1,
            }
        )
    result.records = records
    result.summary_lines.insert(
        0, f"purification-nogo: {config.theta_points} points, hiding/binding tradeoff p_sum = 1 + sqrt(F)"
    )
    return result


DEGRADED_FLIP = 0.01  # oracle-degradation's degraded oracle flips each certified bit with this probability


def min_degradation_sessions(config) -> int:
    """Fewest sessions at which oracle-degradation's flip check can fail, at the config's n0 and m.

    With fewer, every accepted count's 99% Wilson interval holds the exact rate at ``DEGRADED_FLIP``.  At 7
    sessions the interval of none or of all accepted already excludes any rate, so the search stops by then.
    """
    exact = honest_accept_probability_exact(config.params(flip_probability=DEGRADED_FLIP))
    sessions = 1
    while all(low <= exact <= high for low, high in (wilson_interval(k, sessions) for k in range(sessions + 1))):
        sessions += 1
    return sessions


def _run_oracle_degradation(config) -> ExperimentResult:
    result = ExperimentResult("oracle-degradation", EXIT_OK)
    sessions = config.trials_or(300)
    randomness = RandomStream(config.seed)
    records = []

    # Heartbeat rounds change no honest session's draws or verdict, so the sessions run on the default schedule.
    base = config.params()
    ideal = weak_oracle_degradation(base, sessions, randomness)
    _expect(result, ideal.honest_accept_rate == 1.0, "knobs at 0: no completeness degradation")
    records.append(_degradation_record(ideal, _degradation_quantities(base, ideal)))

    flipped = config.params(flip_probability=DEGRADED_FLIP)
    degraded = weak_oracle_degradation(flipped, sessions, randomness)
    quantities = _degradation_quantities(flipped, degraded)
    exact, estimate = quantities["honest_accept_rate"]
    low, high = estimate.ci
    _expect(
        result,
        low <= exact.value <= high,
        f"flip={DEGRADED_FLIP}: exact honest accept rate {exact.value:.4g}"
        f" inside the Monte Carlo 99% interval [{low:.4g}, {high:.4g}]",
    )
    records.append(_degradation_record(degraded, quantities))

    leaky = config.params(leak_probability=1.0)
    bob = bob_information(leaky, trials=config.trials_or(5_000), randomness=randomness)
    _expect(
        result,
        bob.tv_distance.value == 1.0,
        "leak=1: the pre-reveal view determines the bit (tv distance 1)",
    )
    records.append(
        {
            "schema": 1,
            "type": "leak",
            "leak_probability": 1.0,
            "tv_distance": bob.tv_distance.to_record(),
            "mutual_information_bits": bob.mutual_information_bits.to_record(),
        }
    )
    result.records = records
    result.summary_lines.insert(0, f"oracle-degradation: {sessions} sessions per knob setting")
    return result


def _degradation_quantities(params, report) -> dict[str, tuple[Quantity, Quantity]]:
    """Exact and Monte Carlo values of the honest accept rate and the leaked fraction."""
    return {
        "honest_accept_rate": (
            Quantity(honest_accept_probability_exact(params), "exact", note="((1-f)^2 + f/2)^(n0-m)"),
            Quantity(
                report.honest_accept_rate,
                "monte-carlo",
                trials=report.trials,
                ci=wilson_interval(report.accepted, report.trials),
            ),
        ),
        "leaked_fraction": (
            Quantity(params.leak_probability, "exact", note="leak probability per commitment"),
            Quantity(
                report.leaked_fraction,
                "monte-carlo",
                trials=report.commitments,
                ci=wilson_interval(report.leaked, report.commitments),
            ),
        ),
    }


def _degradation_record(report, quantities) -> dict:
    record = {
        "schema": 1,
        "type": "degradation",
        "flip_probability": report.flip_probability,
        "leak_probability": report.leak_probability,
        "trials": report.trials,
    }
    for name, (exact, estimate) in quantities.items():
        record[name] = {"exact": exact.to_record(), "monte_carlo": estimate.to_record()}
    return record


def _superluminal_spin(messages: list[Message]) -> list[Message]:
    """Make the first spin transmission arrive before light could."""
    tampered = []
    for message in messages:
        if message.payload == "spin[0]":
            early = Event(message.emit.t + 0.25, message.receive.x)
            message = Message(message.sender, message.receiver, message.emit, early, message.payload)
        tampered.append(message)
    return tampered


def _run_causal_violation(config) -> ExperimentResult:
    result = ExperimentResult("causal-violation", EXIT_OK)
    params = config.params()
    scenario = ReductionScenario(
        name="superluminal-spin", suspension_rounds=config.suspension_rounds, tamper=_superluminal_spin
    )
    transcript = run_session(Honest(), params, scenario=scenario, randomness=RandomStream(config.seed))
    _expect(result, transcript.verdict is Verdict.ABORT, "session aborted at schedule validation")
    _expect(
        result,
        len(transcript.violations) == 1,
        f"exactly one violation reported ({len(transcript.violations)} found)",
    )
    _expect(
        result,
        bool(transcript.violations) and transcript.violations[0].payload == "spin[0]",
        "the violation names the tampered message spin[0]",
    )
    if result.ok:
        result.status = EXIT_CAUSAL_ABORT
    result.records = [
        {
            "schema": 1,
            "type": "causal-violation",
            "verdict": transcript.verdict.value,
            "violations": [str(v) for v in transcript.violations],
        }
    ]
    result.transcript_records = transcript.to_records()
    result.summary_lines.insert(0, "causal-violation: superluminal spin[0] injected")
    return result


_TRIALS = (("experiment", "trials"),)
_SIZES = (("protocol", "n0"), ("protocol", "m"))


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str
    run: callable
    fields: tuple[tuple[str, str], ...]  # (section, key) fields run reads besides experiment.scenario/seed/out/format
    min_trials: callable = lambda config: 1  # the fewest experiment.trials at which run's checks can fail


SCENARIOS = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "honest-default",
            "honest sessions on the default line geometry; completeness, causality and hiding checks",
            _run_honest_default,
            _TRIALS + _SIZES + (("spacetime", "suspension_rounds"), ("analysis", "sessions")),
        ),
        ScenarioSpec(
            "flip-sweep",
            "false-declaration sweep: reveal pass rate vs exact 2^-k",
            _run_flip_sweep,
            _TRIALS + (("analysis", "k_values"),),
            # fewer let a 4-sigma check pass whatever is sampled: 4,081 trials at k = 8
            lambda config: _min_gate_trials(map(detection_probability_exact, config.k_values)),
        ),
        ScenarioSpec(
            "entangle-demo",
            "superposed commitment with kept ancilla; delayed-choice reveal statistics",
            _run_entangle_demo,
            _TRIALS + (("analysis", "alpha_squares"),),
            lambda config: _min_gate_trials(config.alpha_squares),
        ),
        ScenarioSpec(
            "purification-nogo",
            "purifier-steering attack sweep: p0 + p1 = 1 + sqrt(F) hiding/binding tradeoff",
            _run_purification_nogo,
            (("analysis", "theta_points"),),
        ),
        ScenarioSpec(
            "oracle-degradation",
            "composed-protocol sensitivity to oracle flip/leak imperfections",
            _run_oracle_degradation,
            _TRIALS + _SIZES,
            min_degradation_sessions,
        ),
        ScenarioSpec(
            "causal-violation",
            "injected superluminal message; schedule validation must abort with exactly that violation",
            _run_causal_violation,
            _SIZES + (("spacetime", "suspension_rounds"),),
        ),
    )
}


def scenario_names() -> list[str]:
    return list(SCENARIOS)
