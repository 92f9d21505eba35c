"""Coverage audit: each Monte Carlo 99% interval against its closed form.

Every audited quantity is estimated under 100 fixed seeds, and its 99%
interval may miss the closed form at most 6 times.  Under Binomial(100,
0.01) seven or more misses have probability about 7e-5, so an interval
that covers as it claims essentially never fails the audit.
"""

import math

import numpy as np
import pytest

from certbit.adversary import ClassicalFlip, sample_entangled_reveals
from certbit.analysis import (
    detection_probability_exact,
    detection_probability_mc,
    honest_accept_probability_exact,
    wilson_interval,
)
from certbit.protocol import ProtocolParams, run_sessions
from certbit.rng import RandomStream

SEEDS = range(100)
MAX_MISSES = 6
SESSIONS = 300


def completeness(flip):
    params = ProtocolParams(n0=64, m=16, flip_probability=flip)

    def audit(randomness):
        accepted, _ = run_sessions(params, SESSIONS, randomness)
        accepted = int(accepted.sum())
        return wilson_interval(accepted, SESSIONS), honest_accept_probability_exact(params)

    return audit


def leaked_fraction(leak):
    params = ProtocolParams(n0=64, m=16, leak_probability=leak)

    def audit(randomness):
        _, leaked = run_sessions(params, SESSIONS, randomness)
        leaked = int(leaked.sum())
        return wilson_interval(leaked, SESSIONS * params.n_commitments), leak

    return audit


def detection(k):
    def audit(randomness):
        estimate = detection_probability_mc(ClassicalFlip(k), 10_000, randomness)
        return estimate.ci, detection_probability_exact(k)

    return audit


def entangle(alpha_sq):
    alpha, beta = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)

    def audit(randomness):
        reveals = sample_entangled_reveals(alpha, beta, 2_000, randomness)
        return wilson_interval(int(np.count_nonzero(reveals == 0)), reveals.size), alpha_sq

    return audit


AUDITS = {
    "completeness f=0.02": completeness(0.02),
    "completeness f=0.05": completeness(0.05),
    "leaked fraction q=0.05": leaked_fraction(0.05),
    "detection k=1": detection(1),
    "detection k=3": detection(3),
    "entangle alpha^2=0.25": entangle(0.25),
}


@pytest.mark.parametrize("name", AUDITS)
def test_interval_covers_closed_form(name):
    misses = []
    for seed in SEEDS:
        (low, high), exact = AUDITS[name](RandomStream(seed))
        if not low <= exact <= high:
            misses.append(seed)
    assert len(misses) <= MAX_MISSES, f"{name}: the 99% interval missed on seeds {misses}"
