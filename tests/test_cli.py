"""Config parsing, scenario orchestration, artifact determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from certbit.adversary import Honest
from certbit.cli import ConfigError, list_scenarios, main, parse_config, run_experiment
from certbit import adversary, analysis, protocol, scenarios
from certbit.scenarios import EXIT_CAUSAL_ABORT, EXIT_EXPECTATION_FAILED

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(path.stem for path in (ROOT / "configs").glob("*.ini"))


def write_config(tmp_path, body, name="experiment.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


# flip-sweep's 4-sigma gate at its default 10^5 trials per k: the power, the
# smallest relative error in 2^-k that the gate is sure to see, is 4 sigma / p
# = 4 sqrt((1 - p) / (p N)) at p = 2^-k.  These are Monte Carlo limits of the
# trial count, and no gate is tuned to them.
FLIP_SWEEP_TRIALS = 100_000
FLIP_SWEEP_POWER = {
    1: 0.0126,
    2: 0.0219,
    3: 0.0335,
    4: 0.0490,
    5: 0.0704,
    6: 0.1004,
    7: 0.1425,
    8: 0.2020,
}


MINIMAL = """
[experiment]
scenario = causal-violation
seed = 7
"""


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        assert config.scenario == "causal-violation"
        assert config.seed == 7
        assert config.format == "both"

    def test_missing_seed_names_field(self, tmp_path):
        body = "[experiment]\nscenario = flip-sweep\n"
        with pytest.raises(ConfigError, match="experiment.seed"):
            parse_config(write_config(tmp_path, body))

    def test_unknown_scenario_lists_valid_names(self, tmp_path):
        body = "[experiment]\nscenario = nonsense\nseed = 1\n"
        with pytest.raises(ConfigError, match="honest-default"):
            parse_config(write_config(tmp_path, body))

    def test_bad_protocol_sizes_rejected(self, tmp_path):
        body = MINIMAL + "\n[protocol]\nn0 = 8\nm = 8\n"
        with pytest.raises(ConfigError, match="protocol"):
            parse_config(write_config(tmp_path, body))

    def test_unparseable_field_named(self, tmp_path):
        body = "[experiment]\nscenario = flip-sweep\nseed = soon\n"
        with pytest.raises(ConfigError, match="experiment.seed"):
            parse_config(write_config(tmp_path, body))

    def test_bad_format_rejected(self, tmp_path):
        body = MINIMAL + "format = yaml\n"
        with pytest.raises(ConfigError, match="experiment.format"):
            parse_config(write_config(tmp_path, body))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_misspelled_key_rejected(self, tmp_path, capsys):
        # A misspelling, and the removed knobs epsilon and n1.
        for key, value in (("flip_probabilty", "0.1"), ("epsilon", "0.0"), ("n1", "128")):
            path = write_config(tmp_path, MINIMAL + f"\n[protocol]\n{key} = {value}\n", f"{key}.ini")
            with pytest.raises(ConfigError, match=f"protocol.{key}: unknown field"):
                parse_config(path)
            assert main(["validate", str(path)]) == 2
            assert f"protocol.{key}: unknown field" in capsys.readouterr().err
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
            assert f"protocol.{key}: unknown field" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "\n[foo]\nbar = 1\n")
        with pytest.raises(ConfigError, match="foo: unknown section"):
            parse_config(path)
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_config_validates(self, name, capsys):
        assert main(["validate", str(ROOT / "configs" / f"{name}.ini")]) == 0

    def test_negative_suspension_rounds_rejected(self, tmp_path):
        body = MINIMAL + "\n[spacetime]\nsuspension_rounds = -1\n"
        with pytest.raises(ConfigError, match="spacetime.suspension_rounds"):
            parse_config(write_config(tmp_path, body))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sessions", "0"),
            ("theta_points", "0"),
            ("theta_points", "1"),
            ("k_values", "1,17"),
            ("k_values", "-1"),
            ("alpha_squares", "0,1.5"),
            ("alpha_squares", "-0.25"),
            ("k_values", ""),
            ("alpha_squares", ""),
        ],
    )
    def test_out_of_range_analysis_value_rejected(self, tmp_path, capsys, key, value):
        body = MINIMAL.replace("causal-violation", "flip-sweep") + "\n[protocol]\nm = 16\n"
        path = write_config(tmp_path, body + f"\n[analysis]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"analysis.{key}: "):
            parse_config(path)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"analysis.{key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, message, names",
        [
            (["--trials", "0"], "experiment.trials: must be >= 1", ("flip-sweep", "honest-default")),
            (["--seed", "-1"], "experiment.seed: must be >= 0", ("flip-sweep", "honest-default")),
            (["--trials", "999"], "experiment.trials: must be >= 1000 for flip-sweep", ("flip-sweep",)),
        ],
    )
    def test_overrides_checked_like_config_values(self, tmp_path, capsys, flags, message, names):
        for name in names:
            out = tmp_path / name
            assert main(["run", str(ROOT / "configs" / f"{name}.ini"), "--out", str(out), *flags]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        values = {"seed": "7", flags[0].lstrip("-"): flags[1]}
        body = "[experiment]\nscenario = flip-sweep\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, body))


class TestScenarioRegistry:
    def test_six_scenarios_shipped(self):
        names = [name for name, _ in list_scenarios()]
        assert names == [
            "honest-default",
            "flip-sweep",
            "entangle-demo",
            "purification-nogo",
            "oracle-degradation",
            "causal-violation",
        ]

    def test_descriptions_present(self):
        for _, description in list_scenarios():
            assert description


class TestRunExperiment:
    def test_causal_violation_aborts_with_status(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        status = run_experiment(config, out_dir=tmp_path / "out")
        assert status == EXIT_CAUSAL_ABORT
        report = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
        header = json.loads(report[0])
        assert header["scenario"] == "causal-violation"
        body = json.loads(report[1])
        assert body["type"] == "causal-violation"
        assert len(body["violations"]) == 1
        assert "spin[0]" in body["violations"][0]

    def test_machine_output_reproducible(self, tmp_path):
        body = """
[experiment]
scenario = flip-sweep
seed = 3
trials = 2000
format = machine

[analysis]
k_values = 1,2
"""
        config = parse_config(write_config(tmp_path, body))
        run_experiment(config, out_dir=tmp_path / "a")
        run_experiment(config, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "report.jsonl").read_bytes() == (
            tmp_path / "b" / "report.jsonl"
        ).read_bytes()

    def test_flip_sweep_at_k_zero_reports_no_sample(self, tmp_path):
        body = """
[experiment]
scenario = flip-sweep
seed = 3
trials = 2000
format = machine

[analysis]
k_values = 0,1
"""
        config = parse_config(write_config(tmp_path, body))
        assert run_experiment(config, out_dir=tmp_path / "out") == 0
        lines = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
        detection = {record["k"]: record for record in map(json.loads, lines) if record["type"] == "detection"}
        assert detection[0]["exact"] == {"provenance": "exact", "value": 1.0}
        assert "monte_carlo" not in detection[0]
        assert detection[1]["monte_carlo"]["provenance"] == "monte-carlo"

    def test_summary_written(self, tmp_path, capsys):
        body = """
[experiment]
scenario = entangle-demo
seed = 5
trials = 2000
format = summary
"""
        config = parse_config(write_config(tmp_path, body))
        status = run_experiment(config, out_dir=tmp_path / "out")
        assert status == 0
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "entangle-demo" in summary
        assert "FAIL" not in summary

    def test_honest_default_small(self, tmp_path):
        body = """
[experiment]
scenario = honest-default
seed = 2
trials = 4000
format = machine

[protocol]
n0 = 16
m = 4

[analysis]
sessions = 25
"""
        config = parse_config(write_config(tmp_path, body))
        status = run_experiment(config, out_dir=tmp_path / "out")
        assert status == 0
        transcript = (tmp_path / "out" / "transcript.jsonl").read_text().splitlines()
        types = {json.loads(line)["type"] for line in transcript}
        assert types == {"params", "message", "stage", "verdict"}

    def test_honest_default_catches_a_wrong_claimed_bit(self, tmp_path, capsys, monkeypatch):
        # A verifier that accepts every reveal, and a committer that claims
        # the other bit: the claim check must fail on its own.
        monkeypatch.setattr(protocol, "verify_reveal", lambda untested, *rest: np.ones(len(untested), dtype=bool))
        monkeypatch.setattr(
            Honest, "reveal_claim", lambda self, bit, sent, *rest: (1 - bit, sent)
        )
        path = write_config(tmp_path, SMALL_HONEST.format(rounds=0))
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--format", "summary"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert failed == [
            "FAIL: the transcript session is accepted, and its claim repeats the sent labels,"
            " in the bases declared for the claimed bit"
        ]

    def test_honest_default_fails_on_a_broken_bound(self, tmp_path, monkeypatch):
        # Declarations false for neither bit would give p = 2 in the
        # declarations regime; real ones are false for exactly one bit each.
        monkeypatch.setattr(analysis, "_false_declaration_count", lambda transcript, bit: 0)
        config = parse_config(ROOT / "configs" / "honest-default.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line for line in summary if line.startswith("FAIL: ")]
        assert failed == ["FAIL: p(Q) within the binding bound at every point after commitment"]

    def test_honest_default_fails_on_a_session_without_declarations(self, tmp_path, capsys):
        # An oracle that flips every bit fails the first session's tested openings, so it
        # sends no declarations and p(Q) cannot be evaluated.
        body = SMALL_HONEST.format(rounds=0).replace("m = 4\n", "m = 4\nflip_probability = 1.0\n")
        path = write_config(tmp_path, body)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--format", "summary"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert "FAIL: p(Q) within the binding bound at every point after commitment" in failed
        # The batched sessions meet the same oracle, so completeness fails too.
        assert "FAIL: all 3 honest sessions accepted" in failed

    def test_honest_default_runs_one_transcript_and_one_batch(self, tmp_path, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(scenarios, name)
            return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

        for name in ("run_session", "run_sessions"):
            monkeypatch.setattr(scenarios, name, counted(name))
        config = parse_config(ROOT / "configs" / "honest-default.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == 0
        assert sorted(calls) == ["run_session", "run_sessions"]

    def test_entangle_demo_fails_on_a_wrong_reveal_probability(self, tmp_path, monkeypatch):
        # The sampler and any module that imported the closed form get 1 - alpha^2.
        def wrong(alpha, beta):
            return 1.0 - abs(alpha) ** 2

        monkeypatch.setattr(adversary, "entangled_reveal_probability", wrong)
        monkeypatch.setattr(scenarios, "entangled_reveal_probability", wrong, raising=False)
        config = parse_config(ROOT / "configs" / "entangle-demo.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line for line in summary if line.startswith("FAIL: ")]
        assert [line.split(":")[1].strip() for line in failed] == ["alpha^2=0.0", "alpha^2=0.25", "alpha^2=1.0"]

    def test_entangle_frequency_carries_its_interval(self):
        # Each sampled frequency is a monte-carlo quantity whose 99% Wilson interval covers alpha^2.
        records = [json.loads(line) for line in (ROOT / "runs" / "entangle-demo" / "report.jsonl").open()]
        entangle = [record for record in records if record["type"] == "entangle"]
        assert [record["alpha_squared"] for record in entangle] == [0.0, 0.25, 0.5, 1.0]
        for record in entangle:
            frequency = record["frequency"]
            assert frequency["provenance"] == "monte-carlo"
            assert frequency["trials"] == record["trials"]
            low, high = frequency["ci"]
            assert low <= frequency["value"] <= high
            assert low <= record["exact_probability"] <= high


SMALL_HONEST = """
[experiment]
scenario = honest-default
seed = 2
trials = 2000
format = machine

[protocol]
n0 = 16
m = 4

[analysis]
sessions = 3

[spacetime]
suspension_rounds = {rounds}
"""


def transcript_of(path):
    return [json.loads(line) for line in (path / "transcript.jsonl").read_text().splitlines()]


class TestSuspensionRounds:
    """``[spacetime] suspension_rounds`` reaches the scenarios' schedules."""

    def test_honest_default_heartbeats(self, tmp_path):
        stages = {}
        for rounds in (0, 2):
            body = SMALL_HONEST.format(rounds=rounds)
            config = parse_config(write_config(tmp_path, body, f"r{rounds}.ini"))
            assert run_experiment(config, out_dir=tmp_path / str(rounds)) == 0
            records = transcript_of(tmp_path / str(rounds))
            payloads = [r["payload"] for r in records if r["type"] == "message"]
            assert sum(p.startswith("heartbeat-") for p in payloads) == 2 * rounds
            stages[rounds] = {r["name"]: r["t"] for r in records if r["type"] == "stage"}
        # Heartbeats delay the reveal; the tested-commitment deadline t_r comes before them.
        assert stages[2]["reveal_received"] > stages[0]["reveal_received"]
        assert stages[2]["tested_verified"] == stages[0]["tested_verified"]

    def test_causal_violation_heartbeats(self, tmp_path):
        body = MINIMAL + "format = machine\n\n[spacetime]\nsuspension_rounds = 1\n"
        config = parse_config(write_config(tmp_path, body))
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_CAUSAL_ABORT
        payloads = [r["payload"] for r in transcript_of(tmp_path / "out") if r["type"] == "message"]
        assert "heartbeat-out[0]" in payloads and "heartbeat-back[0]" in payloads

    def test_oracle_degradation_scenario(self, tmp_path, monkeypatch):
        seen = []
        original = scenarios.weak_oracle_degradation

        def spy(*args, scenario=None, **kwargs):
            seen.append(scenario)
            return original(*args, scenario=scenario, **kwargs)

        monkeypatch.setattr(scenarios, "weak_oracle_degradation", spy)
        body = """
[experiment]
scenario = oracle-degradation
seed = 3
trials = 40
format = machine

[protocol]
n0 = 16
m = 4

[spacetime]
suspension_rounds = 3
"""
        assert run_experiment(parse_config(write_config(tmp_path, body)), out_dir=tmp_path / "out") == 0
        assert [s.suspension_rounds for s in seen] == [3, 3]

    @pytest.mark.parametrize("factor", [1.25, 0.75])
    def test_oracle_degradation_fails_on_a_wrong_closed_form(self, factor, tmp_path, monkeypatch):
        # At flip = 0.01 the exact rate is 0.4865, so a closed form off by 25% either way leaves the interval.
        exact = scenarios.honest_accept_probability_exact
        monkeypatch.setattr(scenarios, "honest_accept_probability_exact", lambda params: factor * exact(params))
        config = parse_config(ROOT / "configs" / "oracle-degradation.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line for line in summary if line.startswith("FAIL: ")]
        assert len(failed) == 1
        scaled = factor * exact(config.params(flip_probability=0.01))
        assert failed[0].startswith(f"FAIL: flip=0.01: exact honest accept rate {scaled:.4g} inside")

    def test_purification_nogo_fails_on_a_weakened_attack(self, tmp_path, monkeypatch):
        def weakened(protocol, _attack=adversary.purification_attack):
            result = _attack(protocol)
            return dataclasses.replace(result, p0=0.8 * result.p0, p1=0.8 * result.p1)

        monkeypatch.setattr(analysis, "purification_attack", weakened)
        config = parse_config(ROOT / "configs" / "purification-nogo.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line.split(":")[1].strip() for line in summary if line.startswith("FAIL: ")]
        thetas = np.linspace(0.0, np.pi / 2.0, config.theta_points)
        assert failed == [f"theta={theta:.4f}" for theta in thetas]

    def test_purification_nogo_runs_no_unitary_sweep(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("purification-nogo ran the unitary sweep")

        monkeypatch.setattr(adversary, "sweep_open_probability", refuse)
        monkeypatch.setattr(scenarios, "sweep_open_probability", refuse, raising=False)
        config = parse_config(ROOT / "configs" / "purification-nogo.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == 0


    def test_flip_sweep_fails_on_a_wrong_closed_form(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenarios, "detection_probability_exact", lambda k: 2.0 ** -(k + 1))
        config = parse_config(ROOT / "configs" / "flip-sweep.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line for line in summary if line.startswith("FAIL: ")]
        assert [line.split(":")[1].strip() for line in failed] == [f"k={k}" for k in config.k_values]

    def test_flip_sweep_samples_the_session_born_rule(self, tmp_path, monkeypatch):
        # A Born rule that gives 0.47 where the session's gives 1/2 moves every pass rate off 2^-k.
        monkeypatch.setattr(protocol, "_P0", np.where(protocol._P0 == 0.5, 0.47, protocol._P0))
        config = parse_config(ROOT / "configs" / "flip-sweep.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line.split(":")[1].strip() for line in summary if line.startswith("FAIL: ")]
        assert failed == [f"k={k}" for k in config.k_values]

    @pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
    @pytest.mark.parametrize("k", sorted(FLIP_SWEEP_POWER))
    def test_flip_sweep_fails_on_one_closed_form_scaled_past_its_power(self, k, sign, tmp_path, monkeypatch):
        # Twice the power: the seeded estimate may sit anywhere inside the
        # gate, so a shift by the power alone can still pass.
        factor = 1.0 + sign * 2.0 * FLIP_SWEEP_POWER[k]
        exact = scenarios.detection_probability_exact
        monkeypatch.setattr(scenarios, "detection_probability_exact", lambda j: exact(j) * (factor if j == k else 1.0))
        config = parse_config(ROOT / "configs" / "flip-sweep.ini")
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert [line.split(":")[1].strip() for line in summary if line.startswith("FAIL: ")] == [f"k={k}"]

    def test_flip_sweep_power_table_is_the_gate_resolution(self):
        config = parse_config(ROOT / "configs" / "flip-sweep.ini")
        assert sorted(FLIP_SWEEP_POWER) == list(config.k_values)
        for k, power in FLIP_SWEEP_POWER.items():
            p = 2.0**-k
            assert power == pytest.approx(4.0 * math.sqrt((1.0 - p) / (p * FLIP_SWEEP_TRIALS)), rel=5e-3), k


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.count(":") >= 6

    def test_validate_command(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["validate", str(path)]) == 0

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "[experiment]\nscenario = flip-sweep\n")
        assert main(["run", str(path)]) == 2
        assert "experiment.seed" in capsys.readouterr().err

    def test_run_with_overrides(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            """
[experiment]
scenario = flip-sweep
seed = 1
trials = 2000

[analysis]
k_values = 1
""",
        )
        out_dir = tmp_path / "custom"
        assert main(["run", str(path), "--seed", "9", "--out", str(out_dir), "--format", "machine"]) == 0
        header = json.loads((out_dir / "report.jsonl").read_text().splitlines()[0])
        assert header["seed"] == 9


class TestShippedOutputs:
    """The six shipped configs, unchanged, reproduce the tracked ``runs/`` bytes, summaries too."""

    def test_six_configs_shipped(self):
        assert len(SHIPPED) == 6

    @pytest.mark.parametrize("name", SHIPPED)
    def test_golden_bytes(self, name, tmp_path, capsys):
        status = main(["run", str(ROOT / "configs" / f"{name}.ini"), "--out", str(tmp_path)])
        assert status == (EXIT_CAUSAL_ABORT if name == "causal-violation" else 0)
        golden = ROOT / "runs" / name
        compared = 0
        for file_name in ("report.jsonl", "transcript.jsonl", "summary.txt"):
            reference = golden / file_name
            assert (tmp_path / file_name).exists() == reference.exists(), file_name
            if reference.exists():
                assert (tmp_path / file_name).read_bytes() == reference.read_bytes(), file_name
                compared += 1
        assert compared >= 2


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

RUN_SHIPPED_PROBE = f"""
import pathlib, sys
from certbit.cli import main
configs, out = map(pathlib.Path, sys.argv[1:])
for config in sorted(configs.glob('*.ini')):
    main(['run', str(config), '--out', str(out / config.stem)])
print({SCIPY_MODULES})
"""


def test_import_leaves_scipy_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = f"import sys, certbit; print({SCIPY_MODULES})"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert result.stdout.strip() == "[]"

    # Running every shipped config does not load scipy either.
    result = subprocess.run(
        [sys.executable, "-c", RUN_SHIPPED_PROBE, str(ROOT / "configs"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == SHIPPED
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_import_leaves_statistics_unloaded():
    # ``statistics`` pulls in fractions and decimal; the 99% Wilson quantile is a literal instead.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, certbit; print('statistics' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert result.stdout.strip() == "False"
