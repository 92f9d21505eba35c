"""Audit shipped reports against math computed without certbit.

Each record of ``runs/purification-nogo/report.jsonl`` is checked against
closed forms written out here.  For the commit states |0> and
cos(t)|0> + sin(t)|1>, the fidelity is cos^2 t, the verifier's
distinguishing advantage (1/2) sqrt(1 - F) is (1/2) sin t, and the
purification attack opens each bit with probability (1 + sqrt F)/2, so
p_sum = 1 + cos t.  A record type the audit has no check for fails it.
"""

import configparser
import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
NOGO_REPORT = ROOT / "runs" / "purification-nogo" / "report.jsonl"
NOGO_CONFIG = ROOT / "configs" / "purification-nogo.ini"
TOLERANCE = 1e-12
TRADEOFF_FIELDS = ("theta", "fidelity", "epsilon_bob", "p_sum", "p0", "p1")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def theta_points() -> int:
    config = configparser.ConfigParser()
    config.read(NOGO_CONFIG, encoding="utf-8")
    return config.getint("analysis", "theta_points")


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
