"""Audit shipped reports against math computed without certbit.

Each record of ``runs/purification-nogo/report.jsonl`` is checked against
closed forms written out here.  For the commit states |0> and
cos(t)|0> + sin(t)|1>, the fidelity is cos^2 t, the verifier's
distinguishing advantage (1/2) sqrt(1 - F) is (1/2) sin t, and the
purification attack opens each bit with probability (1 + sqrt F)/2, so
p_sum = 1 + cos t.

Each record of ``runs/oracle-degradation/report.jsonl`` is checked the
same way.  An honest session passes a tested particle whose pair the
oracle left alone, passes one whose basis bit it flipped with
probability 1/2, and fails one whose value bit alone it flipped, so it is
accepted with probability ((1 - f)^2 + f/2)^(n0 - m); each commitment
leaks with probability q.  Each Monte Carlo estimate must be a count over
its trials, carry that count's 99% Wilson interval and cover the exact
value.  The leak = 1 record's intervals must cover 1, the value of both
its quantities when every commitment leaks.

Each record of ``runs/flip-sweep/report.jsonl`` is checked the same way.
A reveal with k false declarations passes each of them with probability
1/2, so it is accepted with probability 2^-k, which each ``detection``
record must report bit for bit.  Its Monte Carlo estimate over 10^5
trials must be a count with that count's Wilson interval, which covers
2^-k.  The records run over the config's k values, and the scenario reads
no oracle knob, so its ``epsilons`` record must be (0, 0).

Each record of ``runs/honest-default/report.jsonl`` is checked the same
way, against the config and the session in ``transcript.jsonl``.  Before
the declarations the best hedge opens one bit surely and the other with
2^-m, so the commit point is (1, 2^-m, 1 + 2^-m).  Honest declarations
bind the claimed bit truthfully on all m particles, so the declarations
point opens the claimed bit surely and the other with 2^-m; once the
reveal is seen the claimed bit is opened and the other is not, (1, 0, 1)
ordered by bit.  Each point sits at the commitment position, at the
earliest time whose past light cone holds the commitment point and its
last stage's emission, as read from the transcript's stage records.  The
honest cheat sum is (1, 0, 1), the epsilons echo the config's knobs, and
both Monte Carlo hiding intervals cover 0, the value under the ideal
oracle.

Each record of ``runs/entangle-demo/report.jsonl`` is checked the same
way.  Measuring the kept ancilla of alpha|00> + beta|11> makes the
committer reveal 0 with probability alpha^2, so each record's exact
probability must be the config's alpha^2 bit for bit, and its frequency a
count over its trials with that count's Wilson interval, covering alpha^2.

The record of ``runs/causal-violation/report.jsonl`` must show an abort
whose only violation is the tampered spin[0].  On the default line, at
light speed 1, every commitment leaves at t = 0 and is confirmed where it
arrives; t_c is the earliest time B0 has every confirmation in its past
light cone, the spins leave A1 one time unit later, and the tamper makes
spin[0] arrive 0.25 after it left, at B0, one unit of distance away.  The
audit recomputes both times from the sites written out here.

Line 1 of every report, the ``experiment`` header, must name the
scenario, the seed and the run's exit status, and exactly the fields the
scenario's ``ScenarioSpec`` declares, at the values ``parse_config`` reads
from the shipped config: tuples as JSON lists, an unset ``trials`` as null.

A record type the audit has no check for fails it, and so does a
directory of ``runs/`` that it has no audit for.
"""

import configparser
import copy
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from certbit.cli import parse_config
from certbit.protocol import SPIN_DELAY, ReductionScenario
from certbit.scenarios import EXIT_CAUSAL_ABORT, EXIT_OK, SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
NOGO_REPORT = ROOT / "runs" / "purification-nogo" / "report.jsonl"
NOGO_CONFIG = ROOT / "configs" / "purification-nogo.ini"
TOLERANCE = 1e-12
TRADEOFF_FIELDS = ("theta", "fidelity", "epsilon_bob", "p_sum", "p0", "p1")
DEGRADATION_REPORT = ROOT / "runs" / "oracle-degradation" / "report.jsonl"
DEGRADATION_CONFIG = ROOT / "configs" / "oracle-degradation.ini"
# The scenario's (flip, leak) points and its sessions per point; the shipped config sets no trials.
DEGRADATION_KNOBS = [(0.0, 0.0), (0.01, 0.0)]
DEGRADATION_SESSIONS = 300
FLIP_REPORT = ROOT / "runs" / "flip-sweep" / "report.jsonl"
FLIP_CONFIG = ROOT / "configs" / "flip-sweep.ini"
# flip-sweep's trials per k; the shipped config sets none.
FLIP_TRIALS = 100_000
Z99 = NormalDist().inv_cdf(0.995)


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def read_config(path: Path) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    config.read(path, encoding="utf-8")
    return config


def theta_points() -> int:
    return read_config(NOGO_CONFIG).getint("analysis", "theta_points")


def degradation_sizes() -> tuple[int, int]:
    config = read_config(DEGRADATION_CONFIG)
    return config.getint("protocol", "n0"), config.getint("protocol", "m")


def value(record: dict, name: str) -> float:
    entry = record[name]
    return entry["value"] if isinstance(entry, dict) else entry


def audit_nogo(records: list[dict], points: int) -> list[str]:
    """Every disagreement between the records and the closed forms; empty means the report passes."""
    problems = []
    tradeoffs = []
    for index, record in enumerate(records):
        if record["type"] == "tradeoff":
            tradeoffs.append(record)
        elif record["type"] != "experiment":
            problems.append(f"record {index}: no audit for type {record['type']!r}")
    thetas = np.linspace(0.0, math.pi / 2.0, points)
    if len(tradeoffs) != points:
        problems.append(f"{len(tradeoffs)} tradeoff records, expected {points}")
    for index, (record, theta) in enumerate(zip(tradeoffs, thetas.tolist())):
        expected = {
            "theta": theta,
            "fidelity": math.cos(theta) ** 2,
            "epsilon_bob": 0.5 * math.sin(theta),
            "p_sum": 1.0 + math.cos(theta),
            "p0": (1.0 + math.cos(theta)) / 2.0,
            "p1": (1.0 + math.cos(theta)) / 2.0,
        }
        for name, exact in expected.items():
            if abs(value(record, name) - exact) > TOLERANCE:
                problems.append(f"tradeoff {index}: {name} = {value(record, name)!r}, expected {exact!r}")
        for name in ("epsilon_bob", "p_sum"):
            if record[name]["provenance"] != "exact":
                problems.append(f"tradeoff {index}: {name} provenance {record[name]['provenance']!r}")
    return problems


def test_purification_nogo_report_matches_closed_forms():
    assert audit_nogo(load(NOGO_REPORT), theta_points()) == []


@pytest.mark.parametrize("field", TRADEOFF_FIELDS)
@pytest.mark.parametrize("row", range(theta_points()))
def test_audit_catches_a_shifted_value(row, field):
    records = copy.deepcopy(load(NOGO_REPORT))
    record = [r for r in records if r["type"] == "tradeoff"][row]
    if isinstance(record[field], dict):
        record[field]["value"] += 1e-9
    else:
        record[field] += 1e-9
    problems = audit_nogo(records, theta_points())
    assert problems and all(f"tradeoff {row}: " in problem for problem in problems)


def test_audit_refuses_an_unaudited_record_type():
    records = load(NOGO_REPORT) + [{"schema": 1, "type": "attack-crosscheck", "closed_form": 1.7}]
    assert audit_nogo(records, theta_points()) == [f"record {len(records) - 1}: no audit for type 'attack-crosscheck'"]


def test_audit_refuses_inexact_provenance():
    records = load(NOGO_REPORT)
    records[1]["p_sum"]["provenance"] = "monte-carlo"
    assert audit_nogo(records, theta_points()) == ["tradeoff 0: p_sum provenance 'monte-carlo'"]


def wilson(successes: int, trials: int) -> tuple[float, float]:
    """The 99% Wilson score interval, written out."""
    phat, z2n = successes / trials, Z99 * Z99 / trials
    center = (phat + z2n / 2.0) / (1.0 + z2n)
    half = Z99 * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    return center - half, center + half


def audit_estimate(where: str, estimate: dict, exact: float, trials: int) -> list[str]:
    """A Monte Carlo estimate is a count over ``trials`` with that count's interval, which covers ``exact``."""
    problems = []
    count = estimate["value"] * trials
    low, high = estimate["ci"]
    bounds = zip((low, high), wilson(round(count), trials))
    if estimate["provenance"] != "monte-carlo" or estimate["trials"] != trials:
        problems.append(f"{where}: {estimate['provenance']!r} over {estimate['trials']!r} trials, expected {trials}")
    elif abs(count - round(count)) > 1e-9:
        problems.append(f"{where}: value {estimate['value']!r} is no count over {trials} trials")
    elif any(abs(bound - wilson_bound) > TOLERANCE for bound, wilson_bound in bounds):
        problems.append(f"{where}: interval {[low, high]!r} is not the Wilson interval of {round(count)}/{trials}")
    if not low <= exact <= high:
        problems.append(f"{where}: interval {[low, high]!r} misses the exact {exact!r}")
    return problems


def audit_degradation(records: list[dict], n0: int, m: int) -> list[str]:
    """Every disagreement between the records and the closed forms; empty means the report passes."""
    problems = []
    degradations, leaks = [], []
    for index, record in enumerate(records):
        if record["type"] == "degradation":
            degradations.append(record)
        elif record["type"] == "leak":
            leaks.append(record)
        elif record["type"] != "experiment":
            problems.append(f"record {index}: no audit for type {record['type']!r}")
    if len(degradations) != len(DEGRADATION_KNOBS) or len(leaks) != 1:
        problems.append(f"{len(degradations)} degradation and {len(leaks)} leak records")
    for index, (record, (flip, leak)) in enumerate(zip(degradations, DEGRADATION_KNOBS)):
        where = f"degradation {index}"
        if (record["flip_probability"], record["leak_probability"]) != (flip, leak):
            problems.append(f"{where}: knobs {record['flip_probability']!r}, {record['leak_probability']!r}")
        if record["trials"] != DEGRADATION_SESSIONS:
            problems.append(f"{where}: {record['trials']!r} trials")
        expected = {
            "honest_accept_rate": (((1.0 - flip) ** 2 + flip / 2.0) ** (n0 - m), DEGRADATION_SESSIONS),
            "leaked_fraction": (leak, DEGRADATION_SESSIONS * 2 * n0),
        }
        for name, (exact, trials) in expected.items():
            reported = record[name]["exact"]
            if reported["provenance"] != "exact" or abs(reported["value"] - exact) > TOLERANCE:
                problems.append(f"{where}: {name} exact {reported!r}, expected {exact!r}")
            problems += audit_estimate(f"{where}: {name}", record[name]["monte_carlo"], exact, trials)
    for record in leaks:
        if record["leak_probability"] != 1.0:
            problems.append(f"leak: leak_probability {record['leak_probability']!r}")
        for name in ("tv_distance", "mutual_information_bits"):
            # Both quantities lie in [0, 1], so an interval that covers 1 ends there.
            low, high = record[name]["ci"]
            if not 0.0 <= low <= record[name]["value"] <= high == 1.0:
                problems.append(f"leak: {name} {record[name]['value']!r} in {[low, high]!r}, which must end at 1")
    return problems


# (record index, field path, shift): each shift breaks one check the audit makes.
DEGRADATION_MUTATIONS = [
    (row, path, 1e-9)
    for row in (1, 2)
    for path in (
        ("flip_probability",),
        ("leak_probability",),
        ("honest_accept_rate", "exact", "value"),
        ("honest_accept_rate", "monte_carlo", "value"),
        ("honest_accept_rate", "monte_carlo", "ci", 0),
        ("honest_accept_rate", "monte_carlo", "ci", 1),
        ("leaked_fraction", "exact", "value"),
        ("leaked_fraction", "monte_carlo", "value"),
        ("leaked_fraction", "monte_carlo", "ci", 0),
        ("leaked_fraction", "monte_carlo", "ci", 1),
    )
] + [
    (3, ("leak_probability",), -1e-9),
    (3, ("tv_distance", "value"), 1e-9),
    (3, ("tv_distance", "ci", 1), -1e-9),
    (3, ("mutual_information_bits", "value"), 1e-9),
    (3, ("mutual_information_bits", "ci", 0), 1e-9),
    (3, ("mutual_information_bits", "ci", 1), -1e-9),
]


def shifted(records: list[dict], row: int, path: tuple, shift: float) -> list[dict]:
    """A copy of ``records`` with the field at ``path`` of record ``row`` moved by ``shift``."""
    records = copy.deepcopy(records)
    owner = records[row]
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] += shift
    return records


def test_oracle_degradation_report_matches_closed_forms():
    assert audit_degradation(load(DEGRADATION_REPORT), *degradation_sizes()) == []


@pytest.mark.parametrize("row, path, shift", DEGRADATION_MUTATIONS)
def test_degradation_audit_catches_a_shifted_value(row, path, shift):
    records = shifted(load(DEGRADATION_REPORT), row, path, shift)
    problems = audit_degradation(records, *degradation_sizes())
    where = "leak" if records[row]["type"] == "leak" else f"degradation {row - 1}"
    assert problems and all(problem.startswith(f"{where}: ") for problem in problems)


def test_degradation_audit_refuses_an_unaudited_record_type():
    records = load(DEGRADATION_REPORT) + [{"schema": 1, "type": "stage-outcomes", "tested": 162}]
    problems = audit_degradation(records, *degradation_sizes())
    assert problems == [f"record {len(records) - 1}: no audit for type 'stage-outcomes'"]


def flip_k_values() -> list[int]:
    return [int(k) for k in read_config(FLIP_CONFIG).get("analysis", "k_values").split(",")]


def audit_flip(records: list[dict], k_values: list[int]) -> list[str]:
    """Every disagreement between the records and 2^-k; empty means the report passes."""
    problems = []
    epsilons, detections = [], []
    for index, record in enumerate(records):
        if record["type"] == "epsilons":
            epsilons.append(record)
        elif record["type"] == "detection":
            detections.append(record)
        elif record["type"] != "experiment":
            problems.append(f"record {index}: no audit for type {record['type']!r}")
    if len(epsilons) != 1 or len(detections) != len(k_values):
        problems.append(f"{len(epsilons)} epsilons and {len(detections)} detection records")
    for record in epsilons:
        if (record["fidelity_defect"], record["leak"]) != (0.0, 0.0):
            problems.append(f"epsilons: ({record['fidelity_defect']!r}, {record['leak']!r}), expected (0, 0)")
    for index, (record, k) in enumerate(zip(detections, k_values)):
        where = f"detection {index}"
        exact = 2.0**-k
        if record["k"] != k:
            problems.append(f"{where}: k = {record['k']!r}, expected {k}")
        if record["exact"] != {"provenance": "exact", "value": exact}:
            problems.append(f"{where}: exact {record['exact']!r}, expected {exact!r}")
        if "monte_carlo" not in record:
            problems.append(f"{where}: no Monte Carlo estimate")
        else:
            problems += audit_estimate(f"{where}: monte_carlo", record["monte_carlo"], exact, FLIP_TRIALS)
    return problems


# (record index, field path): a 1e-9 shift of each field breaks one check the audit makes.
FLIP_MUTATIONS = [(1, ("fidelity_defect",)), (1, ("leak",))] + [
    (row, path)
    for row in range(2, 2 + len(flip_k_values()))
    for path in (
        ("k",),
        ("exact", "value"),
        ("monte_carlo", "value"),
        ("monte_carlo", "trials"),
        ("monte_carlo", "ci", 0),
        ("monte_carlo", "ci", 1),
    )
]


def test_flip_sweep_report_matches_closed_forms():
    assert audit_flip(load(FLIP_REPORT), flip_k_values()) == []


@pytest.mark.parametrize("row, path", FLIP_MUTATIONS)
def test_flip_audit_catches_a_shifted_value(row, path):
    records = shifted(load(FLIP_REPORT), row, path, 1e-9)
    problems = audit_flip(records, flip_k_values())
    where = "epsilons" if records[row]["type"] == "epsilons" else f"detection {row - 2}"
    assert problems and all(problem.startswith(f"{where}: ") for problem in problems)


def test_flip_audit_refuses_an_unaudited_record_type():
    records = load(FLIP_REPORT) + [{"schema": 1, "type": "power", "k": 8, "relative": 0.2}]
    assert audit_flip(records, flip_k_values()) == [f"record {len(records) - 1}: no audit for type 'power'"]


HONEST_REPORT = ROOT / "runs" / "honest-default" / "report.jsonl"
HONEST_TRANSCRIPT = ROOT / "runs" / "honest-default" / "transcript.jsonl"
HONEST_CONFIG = ROOT / "configs" / "honest-default.ini"
# bob_information's trials when the config sets none.
HONEST_HIDING_TRIALS = 20_000
# Each point's label and the stage record whose emission its witness must see.
HONEST_POINTS = (("commit", "commitment_point"), ("declarations", "declarations_emitted"), ("reveal", "reveal_emitted"))


def honest_config() -> dict:
    config = read_config(HONEST_CONFIG)
    return {
        "m": config.getint("protocol", "m"),
        "trials": config.getint("experiment", "trials", fallback=HONEST_HIDING_TRIALS),
    }


def audit_honest(records: list[dict], transcript: list[dict], config: dict) -> list[str]:
    """Every disagreement between the records and the closed forms; empty means the report passes."""
    problems = []
    kinds = {"epsilons": [], "point": [], "bob-information": [], "cheat-sum": []}
    for index, record in enumerate(records):
        if record["type"] in kinds:
            kinds[record["type"]].append(record)
        elif record["type"] not in ("experiment", "notes"):
            problems.append(f"record {index}: no audit for type {record['type']!r}")
    if [len(found) for found in kinds.values()] != [1, len(HONEST_POINTS), 1, 1]:
        problems.append(f"record counts {[len(found) for found in kinds.values()]}, expected [1, 3, 1, 1]")
    for record in kinds["epsilons"]:
        expected = (0.0, 0.0)  # honest-default runs on the ideal oracle
        if (record["fidelity_defect"], record["leak"]) != expected:
            problems.append(f"epsilons: ({record['fidelity_defect']!r}, {record['leak']!r}), expected {expected!r}")

    stages = {record["name"]: record for record in transcript if record["type"] == "stage"}
    (verdict,) = [record for record in transcript if record["type"] == "verdict"]
    claimed = verdict["claimed_bit"]
    hedge = 2.0 ** -config["m"]
    surely = {"commit": (1.0, hedge), "declarations": (1.0, hedge), "reveal": (1.0, 0.0)}
    commitment = stages["commitment_point"]
    for index, (record, (label, stage)) in enumerate(zip(kinds["point"], HONEST_POINTS)):
        where = f"point {index}"
        opened, other = surely[label]
        # The commit point's hedge opens bit 0 surely; later points, the claimed bit.
        p = (opened, other) if label == "commit" or claimed == 0 else (other, opened)
        expected = {"p0": p[0], "p1": p[1], "p_sum": p[0] + p[1]}
        if record["label"] != label:
            problems.append(f"{where}: label {record['label']!r}, expected {label!r}")
        for name, exact in expected.items():
            if record[name] != {**record[name], "provenance": "exact", "value": exact}:
                problems.append(f"{where}: {name} {record[name]!r}, expected exactly {exact!r}")
        emitted = stages[stage]
        t = max(commitment["t"], emitted["t"] + math.dist(emitted["x"], commitment["x"]))
        if (record["t"], record["x"]) != (t, commitment["x"]):
            problems.append(f"{where}: at ({record['t']!r}, {record['x']!r}), expected ({t!r}, {commitment['x']!r})")
        if record["within_bound"] is not True:
            problems.append(f"{where}: not within the binding bound")

    for record in kinds["bob-information"]:
        for name in ("tv_distance", "mutual_information_bits"):
            estimate = record[name]
            low, high = estimate["ci"]
            if estimate["provenance"] != "monte-carlo" or estimate["trials"] != config["trials"]:
                problems.append(f"bob-information: {name} {estimate['provenance']!r} over {estimate['trials']!r} trials")
            if not low <= 0.0 <= high or not low <= estimate["value"] <= high:
                problems.append(f"bob-information: {name} {estimate['value']!r} in {[low, high]!r}, which must cover 0")

    for record in kinds["cheat-sum"]:
        for name, exact in (("p0", 1.0), ("p1", 0.0), ("p_sum", 1.0)):
            if record[name] != {**record[name], "provenance": "exact", "value": exact}:
                problems.append(f"cheat-sum: {name} {record[name]!r}, expected exactly {exact!r}")
    return problems


def test_honest_default_report_matches_closed_forms():
    assert audit_honest(load(HONEST_REPORT), load(HONEST_TRANSCRIPT), honest_config()) == []


# (record index, field path): a 1e-9 shift of each field breaks one check the audit makes.
HONEST_MUTATIONS = (
    [(1, ("fidelity_defect",)), (1, ("leak",))]
    + [(row, path) for row in (2, 3, 4) for path in (("p0", "value"), ("p1", "value"), ("p_sum", "value"), ("t",), ("x", 0))]
    + [(5, (name, *key)) for name in ("tv_distance", "mutual_information_bits") for key in (("ci", 0), ("trials",))]
    + [(6, (name, "value")) for name in ("p0", "p1", "p_sum")]
)


@pytest.mark.parametrize("row, path", HONEST_MUTATIONS)
def test_honest_audit_catches_a_shifted_value(row, path):
    records = shifted(load(HONEST_REPORT), row, path, 1e-9)
    problems = audit_honest(records, load(HONEST_TRANSCRIPT), honest_config())
    where = {"epsilons": "epsilons", "point": f"point {row - 2}"}.get(records[row]["type"], records[row]["type"])
    assert problems and all(problem.startswith(f"{where}: ") for problem in problems)


def test_honest_audit_refuses_an_unaudited_record_type():
    records = load(HONEST_REPORT) + [{"schema": 1, "type": "session-count", "sessions": 200}]
    problems = audit_honest(records, load(HONEST_TRANSCRIPT), honest_config())
    assert problems == [f"record {len(records) - 1}: no audit for type 'session-count'"]


ENTANGLE_REPORT = ROOT / "runs" / "entangle-demo" / "report.jsonl"
ENTANGLE_CONFIG = ROOT / "configs" / "entangle-demo.ini"
# entangle-demo's trials per alpha^2; the shipped config sets none.
ENTANGLE_TRIALS = 100_000


def alpha_squares() -> list[float]:
    return [float(a) for a in read_config(ENTANGLE_CONFIG).get("analysis", "alpha_squares").split(",")]


def audit_entangle(records: list[dict], alphas: list[float]) -> list[str]:
    """Every disagreement between the records and alpha^2; empty means the report passes."""
    problems = []
    entangles = []
    for index, record in enumerate(records):
        if record["type"] == "entangle":
            entangles.append(record)
        elif record["type"] != "experiment":
            problems.append(f"record {index}: no audit for type {record['type']!r}")
    if len(entangles) != len(alphas):
        problems.append(f"{len(entangles)} entangle records, expected {len(alphas)}")
    for index, (record, alpha_sq) in enumerate(zip(entangles, alphas)):
        where = f"entangle {index}"
        for name in ("alpha_squared", "exact_probability"):
            if record[name] != alpha_sq:
                problems.append(f"{where}: {name} = {record[name]!r}, expected exactly {alpha_sq!r}")
        if record["trials"] != ENTANGLE_TRIALS:
            problems.append(f"{where}: {record['trials']!r} trials, expected {ENTANGLE_TRIALS}")
        problems += audit_estimate(f"{where}: frequency", record["frequency"], alpha_sq, ENTANGLE_TRIALS)
    return problems


def test_entangle_demo_report_matches_closed_forms():
    assert audit_entangle(load(ENTANGLE_REPORT), alpha_squares()) == []


# (record index, field path): a 1e-9 shift of each field breaks one check the audit makes.
ENTANGLE_MUTATIONS = [
    (row, path)
    for row in range(1, 1 + len(alpha_squares()))
    for path in (
        ("alpha_squared",),
        ("exact_probability",),
        ("trials",),
        ("frequency", "value"),
        ("frequency", "trials"),
        ("frequency", "ci", 0),
        ("frequency", "ci", 1),
    )
]


@pytest.mark.parametrize("row, path", ENTANGLE_MUTATIONS)
def test_entangle_audit_catches_a_shifted_value(row, path):
    records = shifted(load(ENTANGLE_REPORT), row, path, 1e-9)
    problems = audit_entangle(records, alpha_squares())
    assert problems and all(problem.startswith(f"entangle {row - 1}: ") for problem in problems)


def test_entangle_audit_refuses_an_unaudited_record_type():
    records = load(ENTANGLE_REPORT) + [{"schema": 1, "type": "ancilla", "alpha_squared": 0.5}]
    assert audit_entangle(records, alpha_squares()) == [f"record {len(records) - 1}: no audit for type 'ancilla'"]


CAUSAL_REPORT = ROOT / "runs" / "causal-violation" / "report.jsonl"
# The default line the scenario runs on: each site's x coordinate, all at rest.
LINE_SITES = {"B0": 0.0, "A1": 1.0, "B1": 2.0, "A2": 3.0}
# Its oracle pairs (committer, receiver), the spins' sender and receiver, the delay
# from t_c to the spins' emission and the tampered spin[0]'s travel time.
LINE_ORACLE_PAIRS = (("A1", "B1"), ("A2", "B1"))
SPINS = ("A1", "B0")
LINE_SPIN_DELAY = 1.0
TAMPERED_TRAVEL = 0.25


def test_causal_audit_reads_the_scenario_geometry():
    # The scenario runs on the default line; its sites and timing are read, no certbit function called.
    scenario = ReductionScenario()
    assert {site.id: site.position for site in scenario.sites} == {k: (x, 0.0, 0.0) for k, x in LINE_SITES.items()}
    assert {site.id: site.velocity for site in scenario.sites} == dict.fromkeys(LINE_SITES, (0.0, 0.0, 0.0))
    assert (scenario.oracle_pairs, (scenario.alice_id, scenario.b0_id)) == (LINE_ORACLE_PAIRS, SPINS)
    assert SPIN_DELAY == LINE_SPIN_DELAY


def spin0_times() -> tuple[float, float]:
    """spin[0]'s emission time and its tampered arrival time, from the line's sites at light speed 1."""
    # Each pair's commitments leave at t = 0 and are confirmed at the receiver on arrival.
    confirmations = [(abs(LINE_SITES[b] - LINE_SITES[a]), LINE_SITES[b]) for a, b in LINE_ORACLE_PAIRS]
    t_c = max(t + abs(x - LINE_SITES["B0"]) for t, x in confirmations)
    emit = t_c + LINE_SPIN_DELAY
    return emit, emit + TAMPERED_TRAVEL


def audit_causal(records: list[dict]) -> list[str]:
    """Every disagreement with an abort on exactly the tampered spin[0]; empty means the report passes."""
    problems = []
    violations = []
    for index, record in enumerate(records):
        if record["type"] == "causal-violation":
            violations.append(record)
        elif record["type"] != "experiment":
            problems.append(f"record {index}: no audit for type {record['type']!r}")
    if len(violations) != 1:
        problems.append(f"{len(violations)} causal-violation records, expected 1")
    emit, receive = spin0_times()
    expected = [f"superluminal [spin[0]]: receive at t={receive} outside causal future of emit at t={emit}"]
    for record in violations:
        if record["verdict"] != "abort":
            problems.append(f"causal-violation: verdict {record['verdict']!r}, expected 'abort'")
        if record["violations"] != expected:
            problems.append(f"causal-violation: violations {record['violations']!r}, expected {expected!r}")
    return problems


def test_causal_violation_report_matches_the_tampered_spin():
    assert audit_causal(load(CAUSAL_REPORT)) == []


def test_spin0_times_on_the_line():
    # Confirmations reach B1 at t = 1, two units from B0: t_c = 3, and the spins leave at 4.
    emit, receive = spin0_times()
    assert (emit, receive) == (4.0, 4.25)
    # spin[0] covers the distance from A1 to B0 in less time than light takes.
    assert receive - emit < abs(LINE_SITES[SPINS[0]] - LINE_SITES[SPINS[1]])


def shifted_time(records: list[dict], time: float, shift: float) -> list[dict]:
    """A copy of ``records`` whose violation names ``time`` moved by ``shift``."""
    records = copy.deepcopy(records)
    records[1]["violations"][0] = records[1]["violations"][0].replace(f"t={time}", f"t={time + shift}")
    return records


# Each mutation of the causal-violation record breaks one check the audit makes.
CAUSAL_MUTATIONS = {
    "emit": lambda records: shifted_time(records, spin0_times()[0], 1e-9),
    "receive": lambda records: shifted_time(records, spin0_times()[1], 1e-9),
    "verdict": lambda records: [records[0], {**records[1], "verdict": "reject"}],
    "extra-violation": lambda records: [records[0], {**records[1], "violations": records[1]["violations"] * 2}],
    "payload": lambda records: [
        records[0],
        {**records[1], "violations": [v.replace("spin[0]", "spin[1]") for v in records[1]["violations"]]},
    ],
}


@pytest.mark.parametrize("mutation", sorted(CAUSAL_MUTATIONS))
def test_causal_audit_catches_a_changed_field(mutation):
    records = CAUSAL_MUTATIONS[mutation](load(CAUSAL_REPORT))
    assert records != load(CAUSAL_REPORT)
    problems = audit_causal(records)
    assert problems and all(problem.startswith("causal-violation: ") for problem in problems)


def test_causal_audit_refuses_an_unaudited_record_type():
    records = load(CAUSAL_REPORT) + [{"schema": 1, "type": "schedule", "messages": 262}]
    assert audit_causal(records) == [f"record {len(records) - 1}: no audit for type 'schedule'"]


# Each shipped run directory and the test that audits its report.
AUDITED_RUNS = {
    "purification-nogo": test_purification_nogo_report_matches_closed_forms,
    "oracle-degradation": test_oracle_degradation_report_matches_closed_forms,
    "flip-sweep": test_flip_sweep_report_matches_closed_forms,
    "honest-default": test_honest_default_report_matches_closed_forms,
    "entangle-demo": test_entangle_demo_report_matches_closed_forms,
    "causal-violation": test_causal_violation_report_matches_the_tampered_spin,
}


def test_every_shipped_run_is_audited():
    shipped = sorted(path.name for path in (ROOT / "runs").iterdir() if path.is_dir())
    assert shipped == sorted(AUDITED_RUNS)


@pytest.mark.parametrize("name", sorted(AUDITED_RUNS))
def test_report_header_records_the_declared_fields(name):
    config = parse_config(ROOT / "configs" / f"{name}.ini")
    declared = {key: getattr(config, key) for _, key in SCENARIOS[name].fields}
    expected = {
        "schema": 1,
        "type": "experiment",
        "scenario": name,
        "seed": config.seed,
        "status": EXIT_CAUSAL_ABORT if name == "causal-violation" else EXIT_OK,
        **{key: list(value) if isinstance(value, tuple) else value for key, value in declared.items()},
    }
    assert load(ROOT / "runs" / name / "report.jsonl")[0] == expected
