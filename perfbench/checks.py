"""Output checks for every benchmark operation; each returns False on a bad output."""

from __future__ import annotations

import math
from pathlib import Path

REPORT_FILES = ("report.jsonl", "transcript.jsonl")
CAUSAL_ABORT_STATUS = 3


def honest_session_ok(transcript) -> bool:
    """Accepted, claimed labels equal the sent ones, declarations name the sent bases.

    The claimed bit is checked through the declarations against the labels
    the verifier was sent, never against what the strategy says it chose.
    """
    if transcript.verdict.value != "accept" or transcript.claimed_bit is None:
        return False
    sent = transcript.sent_labels
    untested = transcript.untested
    if len(transcript.claimed_labels) != len(untested):
        return False
    if any(label is not sent[i] for label, i in zip(transcript.claimed_labels, untested)):
        return False
    if [d.particle for d in transcript.declarations] != list(untested):
        return False
    return all(
        d.basis_for(transcript.claimed_bit) is sent[d.particle].basis
        for d in transcript.declarations
    )


def flip_session_ok(transcript) -> bool:
    """A flip session gets past the tested stage and ends accepted or rejected at reveal."""
    verdict = transcript.verdict.value
    stage = transcript.failed_stage.value if transcript.failed_stage else None
    return (verdict, stage) in (("accept", None), ("reject", "reveal"))


def tampered_session_ok(transcript) -> bool:
    """Aborted at schedule validation, and every violation names spin[0]."""
    return (
        transcript.verdict.value == "abort"
        and transcript.failed_stage is not None
        and transcript.failed_stage.value == "schedule"
        and len(transcript.violations) > 0
        and all(v.payload == "spin[0]" for v in transcript.violations)
    )


def flip_passes_ok(passed: int, ks) -> bool:
    """Accepted flip sessions lie within 4 sigma of the sum of 2^-k over sessions."""
    probabilities = [2.0 ** -k for k in ks]
    mean = sum(probabilities)
    sigma = math.sqrt(sum(p * (1.0 - p) for p in probabilities))
    return abs(passed - mean) <= 4.0 * sigma


def report_status_ok(config: str, status: int) -> bool:
    expected = CAUSAL_ABORT_STATUS if config == "causal-violation" else 0
    return status == expected


def read_expected_reports(run_dir: Path) -> dict[str, bytes | None]:
    """The tracked machine outputs of one config; None where a file is not tracked."""
    return {
        name: (run_dir / name).read_bytes() if (run_dir / name).is_file() else None
        for name in REPORT_FILES
    }


def reports_match(out_dir: Path, expected: dict[str, bytes | None]) -> bool:
    """Every machine output is byte-identical to the tracked one, and no extra file appears."""
    for name, want in expected.items():
        path = out_dir / name
        if want is None:
            if path.exists():
                return False
        elif not path.is_file() or path.read_bytes() != want:
            return False
    return True


def closed_form_information(leak: float, m: int) -> float:
    """TV distance and mutual information (bits) of the pre-reveal view, leak-only oracle."""
    return 1.0 - (1.0 - leak) ** m


def hiding_exact_ok(bob) -> bool:
    """The ideal oracle hides perfectly: both exact quantities are 0."""
    return bob.tv_distance.value == 0.0 and bob.mutual_information_bits.value == 0.0


def hiding_mc_ok(bob, leak: float, m: int) -> bool:
    """Both 99% intervals cover the closed form 1 - (1 - q)^m."""
    truth = closed_form_information(leak, m)
    return all(
        q.ci is not None and q.ci[0] <= truth <= q.ci[1]
        for q in (bob.tv_distance, bob.mutual_information_bits)
    )
