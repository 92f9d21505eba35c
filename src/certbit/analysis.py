"""Security quantification: cheat probabilities, hiding, and tradeoff sweeps.

Every reported number carries provenance: ``exact`` values come from
closed forms or full enumeration, ``monte-carlo`` values from seeded
sampling with a 99% Wilson (or bootstrap) confidence interval.  Re-running
with the same seed reproduces every report byte for byte.

The supremum over all committer strategies is not computable; cheat
probabilities are maxima over the implemented strategy class (the
closed-form purifier-steering attack for the finite commitment
abstractions), and every report says so.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .adversary import (
    ClassicalFlip,
    Honest,
    ToyBCProtocol,
    purification_attack,
)
from .protocol import (
    ProtocolParams,
    SessionTranscript,
    _collapses,
    _oracle_masks,
    _row_blocks,
    honest_bases,
)
from .quantum import SpinLabel, StateVector, spin_state
from .rng import RandomStream
from .spacetime import Event, in_past_cone

__all__ = [
    "Quantity",
    "wilson_interval",
    "detection_probability_exact",
    "detection_probability_mc",
    "honest_accept_probability_exact",
    "BobInformation",
    "bob_information",
    "CheatSum",
    "cheat_sum",
    "TradeoffRow",
    "nogo_tradeoff_sweep",
    "PointEvaluation",
    "SecurityReport",
    "evaluate_relativistic",
]

# The 99.5% standard normal quantile, NormalDist().inv_cdf(0.995); a literal keeps
# ``statistics`` (and the fractions and decimal it imports) out of ``import certbit``.
_Z99 = 2.5758293035489

# Fewest trials ``detection_probability_mc`` accepts at any k.  flip-sweep, its one shipped caller, and
# entangle-demo derive their ``scenarios.ScenarioSpec.min_trials`` from their 4-sigma gates, never below it.
MIN_DETECTION_TRIALS = 10**3

STRATEGY_CLASS_NOTE = (
    "cheat probabilities are maxima over the implemented strategy class, "
    "not the full supremum over all committer behaviour"
)
ORACLE_INTERFACE_NOTE = "the commitment oracle accepts classical bits only"


@dataclass(frozen=True)
class Quantity:
    """A number plus how it was obtained."""

    value: float
    provenance: str  # "exact" | "monte-carlo"
    trials: int | None = None
    ci: tuple[float, float] | None = None
    note: str = ""

    def __post_init__(self):
        if self.provenance not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == "monte-carlo":
            if self.ci is None or self.trials is None:
                raise ValueError("monte-carlo quantities need trials and a confidence interval")

    def to_record(self) -> dict:
        record = {"value": self.value, "provenance": self.provenance}
        if self.trials is not None:
            record["trials"] = self.trials
        if self.ci is not None:
            record["ci"] = [self.ci[0], self.ci[1]]
        if self.note:
            record["note"] = self.note
        return record


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = _Z99
    phat = successes / trials
    z2n = z * z / trials
    denominator = 1.0 + z2n
    center = (phat + z2n / 2.0) / denominator
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denominator
    # At 0 or ``trials`` successes the interval ends exactly at 0 or 1;
    # rounding would otherwise leave it a few ulps short.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return (low, high)


def detection_probability_exact(k: int) -> float:
    """Pass probability of a reveal with k false declarations: 2^-k.

    Each falsely declared particle is measured in a basis conjugate to its
    actual state, so the uniformly guessed eigenstate matches with
    probability exactly 1/2, independently across particles.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return 2.0 ** (-k)


def honest_accept_probability_exact(params: ProtocolParams) -> float:
    """Honest acceptance against an oracle with flip probability f: ((1-f)^2 + f/2)^(n0-m).

    A tested particle whose basis bit was flipped is measured in the
    conjugate basis and matches with probability 1/2; one whose value bit
    alone was flipped is expected in the orthogonal state and never
    matches; an unflipped one always matches.  The honest reveal measures
    untested particles in their sent bases, which the oracle never touches.
    """
    f = params.flip_probability
    return ((1.0 - f) ** 2 + f / 2.0) ** params.n_tested


def detection_probability_mc(strategy, trials: int, randomness: RandomStream) -> Quantity:
    """Empirical reveal pass rate for a strategy, with 99% Wilson interval.

    Samples the reveal check, the only stochastic stage for the honest/flip
    family, with the session's Born rule ``protocol._collapses``: a falsely
    declared particle is measured in the basis conjugate to its state, and
    each trial measures k of them.  The rate depends on k alone, so no
    protocol size is taken; a session refuses k > m itself
    (``ClassicalFlip.commit_bits``).  Z and X are mutually unbiased, so every
    (state, conjugate claim) pair passes with the same probability, and one
    fixed pair stands for all of them: sent UP (pair code 0), claimed RIGHT
    (pair code 3).  Draws the values of one ``randomness.random((trials, k))``,
    one uniform per false declaration, taken in row blocks (see
    ``_row_blocks``).  With no false declaration (Honest, or
    ClassicalFlip(0)) the reveal always passes, and the exact 1.0 is
    returned without sampling or drawing.
    """
    if trials < MIN_DETECTION_TRIALS:
        raise ValueError("need at least 10^3 trials")
    if isinstance(strategy, Honest):
        k = 0
    elif isinstance(strategy, ClassicalFlip):
        k = strategy.k
    else:
        raise TypeError("detection_probability_mc supports Honest and ClassicalFlip")

    if k == 0:
        # Honest reveals measure exact eigenstates: every trial would pass.
        return Quantity(1.0, "exact")

    successes = 0
    for block in _row_blocks(trials):
        # A trial passes when all k of its particles collapse onto their claims; ANDing columns beats a row reduction.
        collapsed = _collapses(0, 3, randomness.random((block.stop - block.start, k)))
        successes += int(np.count_nonzero(functools.reduce(np.logical_and, collapsed.T)))
    return Quantity(successes / trials, "monte-carlo", trials=trials, ci=wilson_interval(successes, trials))


@dataclass(frozen=True)
class BobInformation:
    """The verifier's pre-reveal knowledge of the protocol bit."""

    tv_distance: Quantity
    mutual_information_bits: Quantity
    notes: tuple[str, ...] = ()


def _exact_view_statistics(params: ProtocolParams) -> tuple[float, float]:
    """Exact TV distance and mutual information of the verifier's pre-reveal view.

    Counts the views of an honest committer against the ideal oracle over
    every committed string and challenge subset, all equally likely.  A
    view is the subset, the opened tested pairs (which fix the tested
    outcomes) and the declared basis of each untested particle, encoded as
    one integer: (subset, tested pair codes 2*b0 + b1, declared bases) in
    mixed radix.  Both numbers are exactly 0 when the counts for the two
    bit values agree.
    """
    n0, n_tested, m = params.n0, params.n_tested, params.m
    subsets = list(itertools.combinations(range(n0), n_tested))
    tested = np.array(subsets, dtype=np.intp)  # (subsets, n_tested) particle indices
    untested = np.array([[i for i in range(n0) if i not in subset] for subset in subsets], dtype=np.intp)
    strings = np.arange(4**n0)
    codes = (strings[:, None] >> (2 * np.arange(n0))) & 3  # (strings, particles) pair codes
    opened = (codes[:, tested] << (2 * np.arange(n_tested))).sum(axis=2)
    prefix = (np.arange(len(subsets)) * 4**n_tested + opened) << m
    # declares_x[a, code]: the rule declares X for bit 0 on a particle sent by pair ``code``.
    declares_x = np.array([honest_bases(a, np.arange(4)) for a in (0, 1)], dtype=np.intp)
    counts = []
    for a in (0, 1):
        declared = (declares_x[a, codes[:, untested]] << np.arange(m)).sum(axis=2)
        counts.append(np.bincount((prefix + declared).ravel(), minlength=len(subsets) * 4**n_tested << m))
    count0, count1 = counts
    weight = 0.5 ** (2 * n0) / len(subsets)
    tv = 0.5 * weight * float(np.abs(count0 - count1).sum())
    total = count0 + count1
    mi = 0.0
    for count in counts:
        seen = count > 0
        mi += 0.5 * weight * float(np.sum(count[seen] * np.log2(2.0 * count[seen] / total[seen])))
    return tv, mi


def _sample_view_atoms(
    params: ProtocolParams, trials: int, bit: int, randomness: RandomStream
) -> np.ndarray:
    """Per-particle view atoms for ``trials`` sessions with protocol bit ``bit``, as ``uint8`` codes.

    The protocol bit reaches the verifier's pre-reveal view only through
    the declarations and any oracle leak, independently per untested
    particle (the challenge subset, opened pairs and tested outcomes are
    generated before the bit enters).  Each atom encodes (declared basis
    for bit 0, leaked pair or nothing) as an integer in [0, 10).  Draws the
    values of one ``integers(0, 2, size=(trials * m, 2))`` and then of the
    oracle's leak draw, each taken in row blocks.
    """
    atoms = np.empty((trials, params.m), dtype=np.uint8)  # the sent pair codes 2*b0 + b1, then the atoms
    for block in _row_blocks(trials):
        atoms[block] = randomness.integers(0, 2, size=(*atoms[block].shape, 2)) @ (2, 1)
    for block in _row_blocks(trials):
        sent = atoms[block]
        # The sessions' declaration rule and the oracle's own leak rule, one leak per atom; this model leaves flips out.
        _, leaked = _oracle_masks(sent.shape, 0.0, params.leak_probability, randomness)
        sent[:] = honest_bases(bit, sent) * 5 + np.where(leaked, 1 + sent, 0)
    return atoms


def _sampled_view_statistics(
    params: ProtocolParams, trials: int, randomness: RandomStream
) -> tuple[Quantity, Quantity]:
    """Monte Carlo estimate of the verifier's pre-reveal knowledge.

    Total variation distance is estimated as the held-out advantage of the
    optimal likelihood-ratio distinguisher (per-particle views are iid
    given the bit, so naive Bayes is the optimal joint classifier):
    tv = 2 * accuracy - 1.  The estimator is centered under perfect hiding,
    so its 99% interval covers 0 when there is nothing to learn.  Mutual
    information is the per-particle plug-in estimate times the particle
    count (additivity over conditionally iid views), capped at 1 bit.
    """
    n_atoms = 10
    atoms = [_sample_view_atoms(params, trials, bit, randomness) for bit in (0, 1)]
    half = trials // 2

    def counts(rows):  # by row block: ``bincount`` copies its input to intp
        return sum((np.bincount(rows[b].ravel(), minlength=n_atoms) for b in _row_blocks(len(rows))), np.zeros(n_atoms))

    # Smoothed per-atom log-likelihoods from the training half.
    count0, count1 = (counts(bit_atoms[:half]) + 0.5 for bit_atoms in atoms)
    log_ratio = np.log(count0 / count0.sum()) - np.log(count1 / count1.sum())

    ties = correct = 0
    for bit, bit_atoms in enumerate(atoms):
        for block in _row_blocks(trials - half):
            llr = log_ratio[bit_atoms[half:][block]].sum(axis=1)
            ties += int(np.count_nonzero(llr == 0.0))
            correct += int(np.count_nonzero(llr < 0.0 if bit else llr > 0.0))
    correct += int(np.sum(randomness.random(ties) < 0.5)) if ties else 0
    n_test = 2 * (trials - half)
    accuracy = correct / n_test
    tv_value = max(0.0, 2.0 * accuracy - 1.0)
    acc_ci = wilson_interval(correct, n_test)
    tv_ci = (max(0.0, 2.0 * acc_ci[0] - 1.0), min(1.0, 2.0 * acc_ci[1] - 1.0))
    tv_note = "held-out likelihood-ratio distinguisher advantage"

    # Plug-in mutual information per particle, pooled over both halves.
    freq0, freq1 = (counts(bit_atoms) / bit_atoms.size for bit_atoms in atoms)
    mix = 0.5 * (freq0 + freq1)
    mi_particle = 0.0
    for f in (freq0, freq1):
        mask = f > 0.0
        mi_particle += 0.5 * float(np.sum(f[mask] * np.log2(f[mask] / mix[mask])))
    mi_value = min(1.0, params.m * mi_particle)
    # Seeded multinomial bootstrap for the interval.
    boot = []
    n_pooled = atoms[0].size
    for _ in range(200):
        r0 = randomness.multinomial(n_pooled, freq0) / n_pooled
        r1 = randomness.multinomial(n_pooled, freq1) / n_pooled
        mix_b = 0.5 * (r0 + r1)
        mi_b = 0.0
        for f in (r0, r1):
            mask = f > 0.0
            mi_b += 0.5 * float(np.sum(f[mask] * np.log2(f[mask] / mix_b[mask])))
        boot.append(min(1.0, params.m * mi_b))
    mi_ci = (float(np.quantile(boot, 0.005)), float(np.quantile(boot, 0.995)))
    mi_note = "per-particle plug-in estimate, additive over conditionally iid views"
    return (
        Quantity(tv_value, "monte-carlo", trials=trials, ci=tv_ci, note=tv_note),
        Quantity(mi_value, "monte-carlo", trials=trials, ci=mi_ci, note=mi_note),
    )


def bob_information(
    params: ProtocolParams,
    trials: int = 100_000,
    randomness: RandomStream | None = None,
    mode: str = "auto",
) -> BobInformation:
    """Distinguishability of the verifier's pre-reveal views for bit 0 vs 1.

    With the ideal oracle and an exactly enumerable size (n0 <= 6) the total
    variation distance and mutual information are computed exactly, from
    integer counts of every integer-coded view, and both vanish: the
    declarations are statistically independent of the protocol bit because
    the committed pairs are uniform.  The tests check these counts against a
    dict enumeration of the views in ``tests/oracles.py``.  Larger sizes or a
    leaky oracle fall back to seeded Monte Carlo estimation, flagged as such.
    """
    if mode not in ("auto", "exact", "monte-carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    ideal = params.flip_probability == 0.0 and params.leak_probability == 0.0
    if mode == "exact" or (mode == "auto" and ideal and params.n0 <= 6):
        if not ideal:
            raise ValueError("exact enumeration requires ideal oracle knobs")
        if params.n0 > 6:
            raise ValueError("exact enumeration capped at n0 = 6")
        tv, mi = _exact_view_statistics(params)
        return BobInformation(
            tv_distance=Quantity(tv, "exact", note="full view enumeration"),
            mutual_information_bits=Quantity(mi, "exact", note="full view enumeration"),
            notes=(ORACLE_INTERFACE_NOTE, "honest committer, random committed bits"),
        )
    if randomness is None:
        raise ValueError("monte-carlo mode needs a RandomStream")
    tv, mi = _sampled_view_statistics(params, trials, randomness)
    return BobInformation(
        tv_distance=tv,
        mutual_information_bits=mi,
        notes=(ORACLE_INTERFACE_NOTE, "honest committer, random committed bits"),
    )


@dataclass(frozen=True)
class CheatSum:
    """Best reveal probabilities for both bit values over a strategy class."""

    p0: Quantity
    p1: Quantity
    p_sum: Quantity
    strategy_class: str
    notes: tuple[str, ...] = ()


def cheat_sum(params: ProtocolParams, *, strategy_class: str = "classical-flip") -> CheatSum:
    """Maximal p0 + p1 of the reduction protocol over the implemented strategy class.

    In closed form, for the honest committer or the declaration-hedging
    family.  A finite commitment abstraction's p0 + p1 comes from
    :func:`~certbit.adversary.purification_attack`, and
    :func:`nogo_tradeoff_sweep` reports it.
    """
    m = params.m
    if strategy_class == "honest":
        return CheatSum(
            p0=Quantity(1.0, "exact", note="honest committer of bit 0"),
            p1=Quantity(0.0, "exact", note="honest committer never claims the other bit"),
            p_sum=Quantity(1.0, "exact"),
            strategy_class="honest",
            notes=(STRATEGY_CLASS_NOTE,),
        )
    # Hedged declarations false on k particles for one bit are false on
    # m - k for the other.  2^-k + 2^-(m-k) is largest at k = 0 (and
    # symmetrically at k = m).
    p0_value = detection_probability_exact(0)
    p1_value = detection_probability_exact(m)
    return CheatSum(
        p0=Quantity(p0_value, "exact", note="hedge k=0"),
        p1=Quantity(p1_value, "exact", note=f"hedge k={m}"),
        p_sum=Quantity(p0_value + p1_value, "exact"),
        strategy_class="classical-flip hedging",
        notes=(STRATEGY_CLASS_NOTE, ORACLE_INTERFACE_NOTE),
    )


@dataclass(frozen=True)
class TradeoffRow:
    theta: float
    fidelity: float
    epsilon_bob: Quantity
    p_sum: Quantity
    p0: float
    p1: float


def _snap_state(amplitudes: np.ndarray) -> StateVector:
    amps = np.where(np.abs(amplitudes) < 1e-12, 0.0, amplitudes)
    return StateVector(amps / np.linalg.norm(amps))


def nogo_tradeoff_sweep(thetas) -> tuple[TradeoffRow, ...]:
    """Hiding/binding tradeoff for commit states |0> and cos(t)|0> + sin(t)|1>.

    Exactly the tension that rules out a finite certified commitment: the
    verifier's distinguishing advantage is (1/2) sqrt(1 - F) while the
    purification attack, whose own p0, p1 and p_sum each row reports,
    achieves p0 + p1 = 1 + sqrt(F), so perfect hiding (advantage -> 0)
    forces completely broken binding (p_sum -> 2).
    """
    rows = []
    zero = spin_state(SpinLabel.UP)
    for theta in thetas:
        other = _snap_state(np.array([np.cos(theta), np.sin(theta)], dtype=np.complex128))
        rho0, rho1 = zero.density(), other.density()
        attack = purification_attack(ToyBCProtocol((rho0, rho1)))
        f = attack.fidelity
        advantage = 0.5 * math.sqrt(max(0.0, 1.0 - f))
        rows.append(
            TradeoffRow(
                theta=float(theta),
                fidelity=f,
                epsilon_bob=Quantity(advantage, "exact"),
                p_sum=Quantity(attack.p_sum, "exact", note="purification attack"),
                p0=attack.p0,
                p1=attack.p1,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class PointEvaluation:
    """p(Q) at the witness event of one regime of points after commitment."""

    label: str
    event: Event
    p0: Quantity
    p1: Quantity
    p_sum: Quantity
    within_bound: bool
    fixed_stages: tuple[str, ...]
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SecurityReport:
    """Bundle of security quantities for one configuration, with provenance."""

    epsilons: tuple[float, float]
    points: tuple[PointEvaluation, ...] = ()
    bob: BobInformation | None = None
    detection_table: tuple[tuple[int, Quantity, Quantity | None], ...] = ()
    cheat: CheatSum | None = None
    notes: tuple[str, ...] = ()

    def to_records(self) -> list[dict]:
        records = [
            {
                "schema": 1,
                "type": "epsilons",
                "fidelity_defect": self.epsilons[0],
                "leak": self.epsilons[1],
            }
        ]
        for evaluation in self.points:
            records.append(
                {
                    "schema": 1,
                    "type": "point",
                    "label": evaluation.label,
                    "t": evaluation.event.t,
                    "x": list(evaluation.event.x),
                    "p0": evaluation.p0.to_record(),
                    "p1": evaluation.p1.to_record(),
                    "p_sum": evaluation.p_sum.to_record(),
                    "within_bound": evaluation.within_bound,
                    "fixed_stages": list(evaluation.fixed_stages),
                    "flags": list(evaluation.flags),
                }
            )
        if self.bob is not None:
            records.append(
                {
                    "schema": 1,
                    "type": "bob-information",
                    "tv_distance": self.bob.tv_distance.to_record(),
                    "mutual_information_bits": self.bob.mutual_information_bits.to_record(),
                    "notes": list(self.bob.notes),
                }
            )
        for k, exact, mc in self.detection_table:
            record = {
                "schema": 1,
                "type": "detection",
                "k": k,
                "exact": exact.to_record(),
            }
            if mc is not None:
                record["monte_carlo"] = mc.to_record()
            records.append(record)
        if self.cheat is not None:
            records.append(
                {
                    "schema": 1,
                    "type": "cheat-sum",
                    "strategy_class": self.cheat.strategy_class,
                    "p0": self.cheat.p0.to_record(),
                    "p1": self.cheat.p1.to_record(),
                    "p_sum": self.cheat.p_sum.to_record(),
                    "notes": list(self.cheat.notes),
                }
            )
        if self.notes:
            records.append({"schema": 1, "type": "notes", "notes": list(self.notes)})
        return records


def _false_declaration_count(transcript: SessionTranscript, bit: int) -> int:
    return sum(d.basis_for(bit) is not transcript.sent_labels[d.particle].basis for d in transcript.declarations)


def evaluate_relativistic(transcript: SessionTranscript) -> SecurityReport:
    """Evaluate p(Q) = p0(Q) + p1(Q) at every spacetime point Q after commitment.

    Whatever lies in the past light cone of Q is fixed by the transcript;
    outside it the committer plays the best member of the implemented
    strategy class.  So p(Q) depends only on which of the declarations and
    the reveal, both sent along the committer's worldline in that order,
    lie in PC(Q): the points causally after the commitment point C fall
    into three nested regimes, {commit}, {commit, declarations} and
    {commit, declarations, reveal}.  Each is evaluated at its witness, the
    earliest event at C's position whose past cone holds C and the regime's
    last stage event E: (max(t_C, t_E + |x_E - x_C|), x_C).  The p(Q) <= 1
    bound is checked up to the residual 2^(-m/2 + 1) binding slack of the
    sampling test.

    Raises ValueError for a session that never sent declarations, and for a
    witness that does not see the stages of its own regime, which happens
    only when the reveal is not after the declarations (``run_session``
    aborts such a schedule, so only an altered transcript gets here).
    """
    if not transcript.declarations:
        raise ValueError(
            f"session ended with {transcript.verdict.value} at {transcript.failed_stage.value};"
            " it sent no declarations"
        )
    params = transcript.params
    schedule = transcript.schedule
    commitment = schedule.commitment_point
    bound = 1.0 + 2.0 ** (-params.m / 2.0 + 1.0)
    stage_events = {
        "commit": commitment,
        "declarations": transcript.events["declarations_emitted"],
        "reveal": transcript.events["reveal_emitted"],
    }
    committer_actions = [flight.emit for flight in schedule.flights if flight.sender in schedule.committer_ids]

    evaluations = []
    for regime, (label, event) in enumerate(stage_events.items(), start=1):
        q = Event(max(commitment.t, event.t + math.dist(event.x, commitment.x)), commitment.x)
        fixed = tuple(name for name, e in stage_events.items() if in_past_cone(e, q))
        if fixed != tuple(stage_events)[:regime]:
            raise ValueError(f"the {label} witness at t={q.t} sees {fixed}")
        flags = ()
        if all(in_past_cone(e, q) for e in committer_actions):
            flags = ("causally-vacuous: no committer action remains outside PC(Q)",)

        if label == "reveal":
            p_values = [0.0, 0.0]
            if transcript.accepted:
                p_values[transcript.claimed_bit] = 1.0
            p0 = Quantity(p_values[0], "exact", note="reveal in PC(Q); determined by transcript")
            p1 = Quantity(p_values[1], "exact", note="reveal in PC(Q); determined by transcript")
        elif label == "declarations":
            k0 = _false_declaration_count(transcript, 0)
            k1 = _false_declaration_count(transcript, 1)
            p0 = Quantity(detection_probability_exact(k0), "exact", note=f"{k0} false declarations for 0")
            p1 = Quantity(detection_probability_exact(k1), "exact", note=f"{k1} false declarations for 1")
        else:
            reduction = cheat_sum(params)
            p0, p1 = reduction.p0, reduction.p1
        p_sum_value = p0.value + p1.value
        evaluations.append(
            PointEvaluation(
                label=label,
                event=q,
                p0=p0,
                p1=p1,
                p_sum=Quantity(p_sum_value, "exact"),
                within_bound=p_sum_value <= bound,
                fixed_stages=fixed,
                flags=flags,
            )
        )
    return SecurityReport(
        epsilons=params.epsilons,
        points=tuple(evaluations),
        notes=(STRATEGY_CLASS_NOTE, ORACLE_INTERFACE_NOTE),
    )
