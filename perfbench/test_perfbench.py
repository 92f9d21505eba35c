"""Tests of the benchmark itself: tiny smoke runs, and checks that can fail.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import certbit.protocol as protocol  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from certbit.adversary import Honest  # noqa: E402
from certbit.analysis import BobInformation, Quantity  # noqa: E402
from certbit.protocol import ProtocolParams  # noqa: E402
from certbit.quantum import basis_eigenstates  # noqa: E402
from certbit.rng import RandomStream  # noqa: E402
import measure  # noqa: E402
from measure import block_tail, tail  # noqa: E402
from run import run_ops  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _honest_transcript(seed=3):
    return protocol.run_session(Honest(), ProtocolParams(n0=16, m=4), randomness=RandomStream(seed))


# -- smoke runs ------------------------------------------------------------


def test_sessions_n64_smoke():
    workload = workloads.SessionsN64(ROOT)
    workload.generate(1)
    _, oks = run_ops(workload, count=3)
    assert oks == [True] * 3


def test_sessions_geometry_smoke_reaches_every_stage():
    workload = workloads.SessionsGeometry(ROOT)
    workload.generate(1)
    tracer = Tracer()
    tracer.install()
    block = len(workloads.GEOMETRY_SHAPES)
    try:
        _, oks = run_ops(workload, count=block)
    finally:
        tracer.uninstall()
    assert all(oks)
    assert {workload.op(i).kind for i in range(block)} == {"honest", "flip", "tampered"}
    tampered = sum(kind == "tampered" for _, kind, *_ in workloads.GEOMETRY_SHAPES)
    assert tracer.counters["protocol.verdict.abort_schedule"] == tampered == block // 10
    assert tracer.counters["protocol.verdict.accept"] > 0
    assert tracer.counters["protocol.verdict.reject_reveal"] > 0


def test_reports_smoke():
    workload = workloads.Reports(ROOT)
    workload.generate(1)
    workload.ops = ["causal-violation"]
    _, oks = run_ops(workload, count=1)
    assert oks == [True]


def test_hiding_smoke(monkeypatch):
    monkeypatch.setattr(workloads, "HIDING_TRIALS", 2_000)
    workload = workloads.Hiding(ROOT)
    workload.exact_sizes = ((4, 1),)
    workload.generate(1)
    _, oks = run_ops(workload, count=workload.pass_length)
    ops = [workload.op(i) for i in range(workload.pass_length)]
    by_op = dict(zip(((op.mode, op.params.leak_probability) for op in ops), oks))
    assert by_op[("exact", 0.0)]
    assert by_op[("monte-carlo", 1.0)]


def test_hiding_exact_smoke():
    workload = workloads.HidingExact(ROOT)
    workload.exact_sizes = ((4, 1), (4, 2))
    workload.generate(1)
    _, oks = run_ops(workload, count=workload.pass_length)
    assert workload.pass_length == 2 and oks == [True, True]


def test_cli_prints_every_end_to_end_metric():
    result = _run_cli("--workload", "sessions-n64", "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


@pytest.mark.parametrize("workload", ["sessions-n64", "sessions-geometry"])
def test_cli_traced_run_prints_every_per_layer_metric(workload):
    result = _run_cli("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1")
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert last["metrics"]["protocol.run_session.calls"]["value"] == workloads.WORKLOADS[workload].trace_ops


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = _run_cli("--workload", "sessions-n64", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


# -- tracing -----------------------------------------------------------------


def test_traced_counters_repeat_exactly_and_uninstall_restores():
    original = protocol.run_session
    counts = []
    for _ in range(2):
        workload = workloads.SessionsGeometry(ROOT)
        workload.generate(7)
        tracer = Tracer()
        tracer.install()
        try:
            run_ops(workload, count=20)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counters))
    assert counts[0] == counts[1]
    assert counts[0]["spacetime.Event.built"] > 0 and counts[0]["rng.calls"] > 0
    assert protocol.run_session is original


def test_self_time_excludes_children():
    from spans import Profile

    profile = Profile()
    # a (0..100) contains b (10..40) which contains c (20..30)
    profile.add_spans(["a", "b", "c"], [0, 1, 2], [0, 10, 20], [100, 40, 30], [-1, 0, 1])
    assert (profile.ns["a"], profile.self_ns["a"]) == (100, 70)
    assert (profile.ns["b"], profile.self_ns["b"]) == (30, 20)
    assert profile.self_ns["c"] == 10


def test_tail_has_ten_samples_beyond_it():
    value, percentile, n = tail(list(range(100)))
    assert (value, n) == (89, 100) and percentile == pytest.approx(90.0)
    assert tail([3, 1, 2])[0] == 3


def test_block_tail_is_the_median_over_whole_blocks():
    samples = list(range(100)) + list(range(1000, 1100)) + [5000]
    value, percentile, n, blocks = block_tail(samples, 100)
    assert (n, blocks) == (100, 2) and percentile == pytest.approx(90.0)
    assert value == (89 + 1089) / 2
    assert block_tail([3, 1, 2], 100)[0] == 3


def test_host_speed_scales_operations_by_the_blocks_around_them(monkeypatch):
    blocks = iter([0.0, 0.01, 0.03, 0.01])  # warm-up, then one block per flush
    monkeypatch.setattr(measure, "reference_seconds", lambda: next(blocks))
    speed = measure.HostSpeed(every_s=0.5)
    speed.add(0.2)
    speed.add(0.4)  # 0.6 s since the last block: flush, host at half speed
    speed.add(0.1)
    speed.flush()
    assert speed.scaled == pytest.approx([0.1, 0.2, 0.05])


# -- every check can fail ------------------------------------------------------


def test_report_check_catches_a_flipped_byte(tmp_path):
    run_dir = ROOT / "runs" / "honest-default"
    expected = checks.read_expected_reports(run_dir)
    for name in checks.REPORT_FILES:
        shutil.copy(run_dir / name, tmp_path / name)
    assert checks.reports_match(tmp_path, expected)
    data = bytearray((tmp_path / "report.jsonl").read_bytes())
    data[len(data) // 2] ^= 0x01
    (tmp_path / "report.jsonl").write_bytes(bytes(data))
    assert not checks.reports_match(tmp_path, expected)


def test_report_status_check():
    assert checks.report_status_ok("causal-violation", 3)
    assert not checks.report_status_ok("causal-violation", 0)
    assert not checks.report_status_ok("flip-sweep", 1)


def test_honest_check_catches_a_wrong_claimed_label():
    transcript = _honest_transcript()
    assert checks.honest_session_ok(transcript)
    labels = list(transcript.claimed_labels)
    labels[0] = next(x for x in basis_eigenstates(labels[0].basis) if x is not labels[0])
    bad = dataclasses.replace(transcript, claimed_labels=tuple(labels))
    assert not checks.honest_session_ok(bad)


def test_honest_check_catches_a_declaration_outside_the_sent_basis():
    transcript = _honest_transcript()
    first = transcript.declarations[0]
    flipped = dataclasses.replace(first, basis_for_zero=first.basis_for_zero.conjugate())
    bad = dataclasses.replace(transcript, declarations=(flipped, *transcript.declarations[1:]))
    assert not checks.honest_session_ok(bad)


def test_tamper_check_catches_a_tamper_that_does_not_abort():
    rng = random.Random(5)
    params = ProtocolParams(n0=16, m=4)
    scenario = workloads.random_scenario(rng, tampered=True, committers=2, receivers=2, rounds=1)
    aborted = protocol.run_session(Honest(), params, scenario, RandomStream(1))
    assert checks.tampered_session_ok(aborted)
    harmless = dataclasses.replace(scenario, tamper=lambda messages: messages)
    accepted = protocol.run_session(Honest(), params, harmless, RandomStream(1))
    assert not checks.tampered_session_ok(accepted)


def test_flip_count_check():
    ks = [1] * 400
    assert checks.flip_passes_ok(200, ks)
    assert not checks.flip_passes_ok(300, ks)
    assert not checks.flip_passes_ok(0, ks)


def _bob(tv, mi):
    return BobInformation(tv_distance=tv, mutual_information_bits=mi)


def test_hiding_check_catches_a_value_outside_its_interval():
    truth = checks.closed_form_information(0.05, 16)
    covering = Quantity(truth, "monte-carlo", trials=10, ci=(truth - 0.01, truth + 0.01))
    excluding = Quantity(0.8, "monte-carlo", trials=10, ci=(0.79, 0.81))
    assert checks.hiding_mc_ok(_bob(covering, covering), 0.05, 16)
    assert not checks.hiding_mc_ok(_bob(covering, excluding), 0.05, 16)
    assert not checks.hiding_mc_ok(_bob(excluding, covering), 0.05, 16)
    assert checks.hiding_exact_ok(_bob(Quantity(0.0, "exact"), Quantity(0.0, "exact")))
    assert not checks.hiding_exact_ok(_bob(Quantity(0.0, "exact"), Quantity(1e-12, "exact")))
