"""Config parsing, scenario orchestration, artifact determinism."""

import configparser
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from certbit.adversary import Honest
from certbit.analysis import MIN_DETECTION_TRIALS, honest_accept_probability_exact, wilson_interval
from certbit.cli import ConfigError, ExperimentConfig, list_scenarios, main, parse_config, run_experiment
from certbit import adversary, analysis, cli, protocol, scenarios
from certbit.rng import RandomStream
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
        with pytest.raises(ConfigError, match="foo.bar: unknown field for causal-violation"):
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
        "scenario, key, value, error",
        [
            pytest.param(*row, id="-".join(row[:3]))
            for row in (
                ("honest-default", "sessions", "0", "must be >= 1"),
                ("purification-nogo", "theta_points", "0", "must be >= 2, to reach both endpoints"),
                ("purification-nogo", "theta_points", "1", "must be >= 2, to reach both endpoints"),
                ("flip-sweep", "k_values", "-1", "every k must be >= 0"),
                ("entangle-demo", "alpha_squares", "0,1.5", "every value must lie in [0, 1]"),
                ("entangle-demo", "alpha_squares", "-0.25", "every value must lie in [0, 1]"),
                ("flip-sweep", "k_values", "", "must list at least one k"),
                ("entangle-demo", "alpha_squares", "", "must list at least one value"),
                ("flip-sweep", "k_values", "2,,2", "cannot parse '2,,2'"),
                ("flip-sweep", "k_values", "1,2,", "cannot parse '1,2,'"),
                ("flip-sweep", "k_values", "2,2", "every k must be listed once"),
                ("entangle-demo", "alpha_squares", "0.5,,1", "cannot parse '0.5,,1'"),
                ("entangle-demo", "alpha_squares", "0.5,0.50", "every value must be listed once"),
            )
        ],
    )
    def test_out_of_range_analysis_value_rejected(self, tmp_path, capsys, scenario, key, value, error):
        # Each scenario reads its key, so the error is the key's own check, never an unknown field.
        body = MINIMAL.replace("causal-violation", scenario) + f"\n[analysis]\n{key} = {value}\n"
        path = write_config(tmp_path, body)
        message = f"analysis.{key}: {error}"
        with pytest.raises(ConfigError, match=re.escape(message)) as raised:
            parse_config(path)
        assert "unknown field" not in str(raised.value)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, message, names",
        [
            (["--trials", "0"], "experiment.trials: must be >= 1", ("flip-sweep", "honest-default")),
            (["--seed", "-1"], "experiment.seed: must be >= 0", ("flip-sweep", "honest-default")),
            (["--trials", "4080"], "experiment.trials: must be >= 4081 for flip-sweep", ("flip-sweep",)),
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


# The keys each scenario's run reads, besides experiment.scenario, seed, out
# and format, which every config may set.  SECTIONS also holds the oracle
# knobs, which no scenario reads, so every config must refuse them.
READS = {
    "honest-default": {"trials", "n0", "m", "suspension_rounds", "sessions"},
    "flip-sweep": {"trials", "k_values"},
    "entangle-demo": {"trials", "alpha_squares"},
    "purification-nogo": {"theta_points"},
    "oracle-degradation": {"trials", "n0", "m"},
    "causal-violation": {"n0", "m", "suspension_rounds"},
}
SECTIONS = {
    "trials": "experiment",
    "n0": "protocol",
    "m": "protocol",
    "flip_probability": "protocol",
    "leak_probability": "protocol",
    "suspension_rounds": "spacetime",
    "sessions": "analysis",
    "k_values": "analysis",
    "theta_points": "analysis",
    "alpha_squares": "analysis",
}
# A value that passes each key's own range check and differs from its shipped
# and default values.
CHANGED = {
    "trials": "1000",
    "n0": "128",
    "m": "8",
    "flip_probability": "0.1",
    "leak_probability": "0.1",
    "suspension_rounds": "1",
    "sessions": "10",
    "k_values": "1,2",
    "theta_points": "5",
    "alpha_squares": "0.5",
}
# The one declared change that moves the exit status: at 1000 trials honest-default's Monte Carlo
# hiding check fails the ideal oracle on seed 1, a known false alarm of the sampled estimator at small
# trial counts.  It is pinned, not avoided, so that mending the estimator makes this case fail.
STATUS_CHANGED = {("honest-default", "trials"): EXIT_EXPECTATION_FAILED}
# flip-sweep's shipped k up to 8 needs 4,081 trials before its 4-sigma gate can fail a zero count, so its
# trials change is taken above that floor.
CHANGED_FOR = {("flip-sweep", "trials"): "5000"}
# Small sizes at which each scenario runs through, setting only keys it reads.
SMALL = {
    "honest-default": dict(trials=200, n0=8, m=2, sessions=2),
    "flip-sweep": dict(trials=MIN_DETECTION_TRIALS, k_values=(1, 2)),
    "entangle-demo": dict(trials=MIN_DETECTION_TRIALS, alpha_squares=(0.5,)),
    "purification-nogo": dict(theta_points=2),
    "oracle-degradation": dict(trials=10, n0=8, m=2),
    "causal-violation": dict(n0=8, m=2),
}
PAIRS = [(name, key) for name in READS for key in SECTIONS]


def shipped_with(tmp_path, name, key, value):
    """The shipped config of ``name`` with ``key`` set to ``value``."""
    parser = configparser.ConfigParser()
    parser.read(ROOT / "configs" / f"{name}.ini")
    if not parser.has_section(SECTIONS[key]):
        parser.add_section(SECTIONS[key])
    parser.set(SECTIONS[key], key, value)
    path = tmp_path / f"{name}-{key}.ini"
    with path.open("w", encoding="utf-8") as handle:
        parser.write(handle)
    return path


def machine_outputs(path, out, *flags):
    """Exit status, report.jsonl and transcript.jsonl bytes of one ``run``."""
    status = main(["run", str(path), "--out", str(out), "--format", "machine", *flags])
    files = (out / "report.jsonl", out / "transcript.jsonl")
    return status, *(file.read_bytes() if file.exists() else None for file in files)


def without_header(outputs):
    """``machine_outputs`` less line 1 of report.jsonl, the header, which echoes every declared key."""
    status, report, transcript = outputs
    return status, report and report.split(b"\n", 1)[1], transcript


@pytest.fixture(scope="module")
def shipped_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("shipped")
    return {name: machine_outputs(ROOT / "configs" / f"{name}.ini", out / name) for name in READS}


class TestScenarioFields:
    """A config sets only the keys its scenario reads; any other key is an error naming it and the scenario."""

    def test_spec_fields_are_the_keys_read(self):
        assert {name: set(spec.fields) for name, spec in scenarios.SCENARIOS.items()} == {
            name: {(SECTIONS[key], key) for key in keys} for name, keys in READS.items()
        }
        assert sum(4 + len(keys) for keys in READS.values()) == 40

    @pytest.mark.parametrize("name", READS)
    def test_run_reads_exactly_its_fields(self, name):
        class Recording(ExperimentConfig):
            def __getattribute__(self, attribute):
                if attribute in SECTIONS:
                    object.__getattribute__(self, "reads").add(attribute)
                return object.__getattribute__(self, attribute)

        config = Recording(name, seed=1, **SMALL[name])
        config.reads = set()
        scenarios.SCENARIOS[name].run(config)  # reads through params() and trials_or included
        assert config.reads == {key for _, key in scenarios.SCENARIOS[name].fields}

    @pytest.mark.parametrize("name, key", [pair for pair in PAIRS if pair[1] not in READS[pair[0]]])
    def test_undeclared_key_rejected(self, tmp_path, capsys, name, key):
        path = shipped_with(tmp_path, name, key, CHANGED[key])
        message = f"{SECTIONS[key]}.{key}: unknown field for {name}"
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [name for name, keys in READS.items() if "trials" not in keys])
    def test_trials_override_rejected_where_unread(self, tmp_path, capsys, name):
        argv = ["run", str(ROOT / "configs" / f"{name}.ini"), "--out", str(tmp_path / "out"), "--trials", "5000"]
        assert main(argv) == 2
        assert f"experiment.trials: unknown field for {name}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, key", [pair for pair in PAIRS if pair[1] in READS[pair[0]]])
    def test_declared_key_changes_the_run(self, tmp_path, shipped_outputs, name, key):
        value = CHANGED_FOR.get((name, key), CHANGED[key])
        changed = machine_outputs(shipped_with(tmp_path, name, key, value), tmp_path / "out")
        # A refused config differs too, by exit 2 and no files, so the run must exit as the shipped one does.
        assert changed[0] == STATUS_CHANGED.get((name, key), shipped_outputs[name][0])
        assert without_header(changed) != without_header(shipped_outputs[name])


class TestDocsMatchTheCode:
    """The cli docstring and README's table of settable keys say what parse_config accepts."""

    def test_cli_docstring_lists_every_field_at_its_default(self):
        block = cli.__doc__.split("::\n", 1)[1].split("\nA config may set", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(textwrap.dedent(block))
        documented = [(section, key) for section in parser.sections() for key in parser.options(section)]
        assert sorted(documented) == sorted((section, key) for section, key, _ in cli._FIELDS)
        defaults = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
        unfixed = {key for key, default in defaults.items() if default is dataclasses.MISSING or default is None}
        assert unfixed == {"scenario", "seed", "trials", "out"}
        for section, key, convert in cli._FIELDS:
            if key not in unfixed:
                assert convert(parser.get(section, key)) == defaults[key], f"{section}.{key}"

    def test_readme_table_counts_each_scenarios_keys(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| ([a-z-]+) \| (\d+): ([^|]*) \|$", readme, re.MULTILINE)
        table = {name: (int(count), keys.split(", ")) for name, count, keys in rows}
        assert table == {
            name: (4 + len(spec.fields), [key for _, key in spec.fields]) for name, spec in scenarios.SCENARIOS.items()
        }
        (total,) = re.findall(r"That is (\d+) \(scenario, key\)\s+pairs in all", readme)
        assert int(total) == sum(count for count, _ in table.values()) == 40


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
    @pytest.mark.parametrize("out", [None, ""])
    def test_unset_out_is_runs_scenario(self, tmp_path, monkeypatch, out):
        # A config built in Python and one parsed with ``out`` unset or empty write where the cli docstring says.
        monkeypatch.chdir(tmp_path)
        body = "[experiment]\nscenario = purification-nogo\nseed = 1\nformat = machine\n"
        path = write_config(tmp_path, body if out is None else body + f"out = {out}\n")
        built = ExperimentConfig("purification-nogo", seed=1, theta_points=2, format="machine", out=out)
        for config in (built, parse_config(path)):
            assert config.out == out
            assert run_experiment(config) == 0
            assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()) == [
                "experiment.ini",
                "runs/purification-nogo/report.jsonl",
            ]

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

    def test_flip_sweep_samples_a_k_above_the_default_m(self, tmp_path):
        # The pass rate 2^-k depends on k alone, so no protocol size bounds k.  2,097,137 trials, 16(2^17 - 1) + 1,
        # are the fewest at which the k = 17 gate can fail a zero count.
        body = """
[experiment]
scenario = flip-sweep
seed = 3
trials = 2097137

[analysis]
k_values = 1,17
"""
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, body)), "--out", str(out), "--format", "machine"]) == 0
        lines = (out / "report.jsonl").read_text().splitlines()
        detection = {record["k"]: record for record in map(json.loads, lines) if record["type"] == "detection"}
        assert sorted(detection) == [1, 17]
        assert detection[17]["exact"] == {"provenance": "exact", "value": 2.0**-17}
        assert detection[17]["monte_carlo"]["trials"] == 2_097_137

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
        monkeypatch.setattr(protocol, "verify_reveal", lambda bound, *rest: np.ones(len(bound), dtype=bool))
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

    def test_honest_default_fails_on_a_late_commitment_time(self, tmp_path, monkeypatch):
        # A commitment time half a unit after the last confirmation reaches B0.
        earliest = protocol.earliest_commitment_time
        monkeypatch.setattr(protocol, "earliest_commitment_time", lambda *args: earliest(*args) + 0.5)
        protocol._session_plan.cache_clear()
        try:
            config = parse_config(ROOT / "configs" / "honest-default.ini")
            assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        finally:
            protocol._session_plan.cache_clear()  # no later test may read the late plan
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line for line in summary if line.startswith("FAIL: ")]
        assert failed == ["FAIL: t_c = 3.5 equals the maximal confirmation light delay 3.0"]

    def test_honest_default_fails_on_a_session_without_declarations(self, tmp_path, capsys, monkeypatch):
        # An oracle that flips every bit fails the first session's tested openings, so it
        # sends no declarations and p(Q) cannot be evaluated.
        params = ExperimentConfig.params
        monkeypatch.setattr(ExperimentConfig, "params", lambda self: params(self, flip_probability=1.0))
        path = write_config(tmp_path, SMALL_HONEST.format(rounds=0))
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

    def test_entangle_demo_refuses_trials_below_the_floor(self, tmp_path, capsys):
        # At 16 trials or fewer the 4-sigma check at alpha^2 = 0.5 passes whatever the sampler returns.
        out = tmp_path / "out"
        assert main(["run", str(ROOT / "configs" / "entangle-demo.ini"), "--out", str(out), "--trials", "999"]) == 2
        assert "experiment.trials: must be >= 1000 for entangle-demo" in capsys.readouterr().err
        assert not out.exists()
        body = "[experiment]\nscenario = entangle-demo\nseed = 1\ntrials = 999\n"
        with pytest.raises(ConfigError, match="experiment.trials: must be >= 1000 for entangle-demo"):
            parse_config(write_config(tmp_path, body))

    def test_entangle_demo_fails_all_one_reveals_at_the_floor(self, tmp_path, monkeypatch):
        # Every reveal 1: each frequency check with alpha^2 > 0 fails at the fewest trials accepted.
        monkeypatch.setattr(scenarios, "sample_entangled_reveals", lambda alpha, beta, trials, randomness: np.ones(trials))
        config = dataclasses.replace(parse_config(ROOT / "configs" / "entangle-demo.ini"), trials=MIN_DETECTION_TRIALS)
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line.split(":")[1].strip() for line in summary if line.startswith("FAIL: ")]
        assert failed == ["alpha^2=0.25", "alpha^2=0.5", "alpha^2=1.0"]

    @pytest.mark.parametrize(
        "name, values, floor",
        [("flip-sweep", "k_values = 6,7,8", 4081), ("entangle-demo", "alpha_squares = 0,0.01,0.5", 1585)],
    )
    def test_gate_floor_refuses_one_trial_fewer(self, name, values, floor, tmp_path, capsys):
        # 16(2^8 - 1) + 1 at k = 8 and the first count past 16(1 - 0.01)/0.01 at alpha^2 = 0.01, as the gate rounds.
        body = f"[experiment]\nscenario = {name}\nseed = 1\ntrials = {floor - 1}\n\n[analysis]\n{values}\n"
        message = f"experiment.trials: must be >= {floor} for {name}"
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, body))
        assert main(["run", str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert parse_config(write_config(tmp_path, body.replace(f"= {floor - 1}", f"= {floor}"))).trials == floor

    @pytest.mark.parametrize("rate, floor", [(2.0**-8, 4081), (0.01, 1585)], ids=["k=8", "alpha^2=0.01"])
    def test_gate_floor_is_the_first_count_that_fails_a_zero_frequency(self, rate, floor):
        assert scenarios._within_4_sigma(0.0, rate, floor - 1)
        assert not scenarios._within_4_sigma(0.0, rate, floor)
        assert scenarios._min_gate_trials([rate]) == floor

    def test_flip_sweep_fails_reveals_that_never_pass_at_the_floor(self, tmp_path, monkeypatch):
        # One trial below the floor the k = 8 gate still passes a zero count; at the floor every k fails it.
        monkeypatch.setattr(analysis, "_collapses", lambda sent, target, uniforms: np.zeros(uniforms.shape, bool))
        config = dataclasses.replace(parse_config(ROOT / "configs" / "flip-sweep.ini"), k_values=(6, 7, 8))
        outcomes = {}
        for trials in (4080, 4081):
            out = tmp_path / str(trials)
            status = run_experiment(dataclasses.replace(config, trials=trials), out_dir=out)
            summary = (out / "summary.txt").read_text().splitlines()
            outcomes[trials] = status, [line.split(":")[1].strip() for line in summary if line.startswith("FAIL: ")]
        assert outcomes == {4080: (1, ["k=6", "k=7"]), 4081: (1, ["k=6", "k=7", "k=8"])}

    def test_entangle_demo_fails_all_one_reveals_at_a_small_alpha_floor(self, tmp_path, monkeypatch):
        # Every reveal 1 is a zero count: at alpha^2 = 0.01 the gate passes it at 1,584 trials and fails it at 1,585.
        monkeypatch.setattr(scenarios, "sample_entangled_reveals", lambda alpha, beta, trials, randomness: np.ones(trials))
        config = dataclasses.replace(parse_config(ROOT / "configs" / "entangle-demo.ini"), alpha_squares=(0.01,))
        outcomes = {}
        for trials in (1584, 1585):
            out = tmp_path / str(trials)
            status = run_experiment(dataclasses.replace(config, trials=trials), out_dir=out)
            summary = (out / "summary.txt").read_text().splitlines()
            outcomes[trials] = status, [line.split(":")[1].strip() for line in summary if line.startswith("FAIL: ")]
        assert outcomes == {1584: (0, []), 1585: (1, ["alpha^2=0.01"])}

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

    def test_heartbeats_change_no_degradation_session(self):
        # Why oracle-degradation reads no suspension_rounds: its sessions draw and decide the same with heartbeats.
        params = protocol.ProtocolParams(16, 4, flip_probability=0.01, leak_probability=0.5)
        plain = protocol.run_sessions(params, 40, RandomStream(3))
        rounds = protocol.run_sessions(params, 40, RandomStream(3), scenario=protocol.default_scenario(3))
        for expected, got in zip(plain, rounds, strict=True):
            np.testing.assert_array_equal(got, expected)

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

    def test_oracle_degradation_refuses_sessions_below_the_floor(self, tmp_path, capsys):
        # Below the floor every accepted count's 99% interval holds the exact rate, so the flip check cannot fail.
        config = parse_config(ROOT / "configs" / "oracle-degradation.ini")
        floor = scenarios.min_degradation_sessions(config)
        exact = honest_accept_probability_exact(config.params(flip_probability=0.01))
        assert (floor, round(exact, 5)) == (7, 0.48647)
        assert all(low <= exact <= high for low, high in (wilson_interval(k, floor - 1) for k in range(floor)))
        assert not wilson_interval(floor, floor)[0] <= exact
        out = tmp_path / "out"
        argv = ["run", str(ROOT / "configs" / "oracle-degradation.ini"), "--out", str(out), "--trials", str(floor - 1)]
        assert main(argv) == 2
        message = "experiment.trials: must be >= 7 for oracle-degradation"
        assert message in capsys.readouterr().err
        assert not out.exists()
        body = "[experiment]\nscenario = oracle-degradation\nseed = 1\ntrials = 6\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, body))

    def test_oracle_degradation_fails_all_accepted_at_the_floor(self, tmp_path, monkeypatch):
        original = scenarios.weak_oracle_degradation

        def all_accepted(params, trials, randomness):
            return dataclasses.replace(original(params, trials, randomness), accepted=trials)

        monkeypatch.setattr(scenarios, "weak_oracle_degradation", all_accepted)
        config = parse_config(ROOT / "configs" / "oracle-degradation.ini")
        config = dataclasses.replace(config, trials=scenarios.min_degradation_sessions(config))
        assert run_experiment(config, out_dir=tmp_path / "out") == EXIT_EXPECTATION_FAILED
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        failed = [line for line in summary if line.startswith("FAIL: ")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL: flip=0.01: exact honest accept rate 0.4865 inside")

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


COLD_RSS_PROBE = """
import runpy, sys
try:
    runpy.run_module("certbit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    if exit.code:
        raise
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak from /proc/self/status")
def test_flip_sweep_at_a_million_trials_stays_under_60_mb(tmp_path):
    # The child reads its own peak after exec, VmHWM.  RUSAGE_CHILDREN would share pytest's other
    # subprocesses, and Linux carries the forking pytest's high-water mark into RUSAGE_SELF.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    flags = ["--trials", "1000000", "--format", "machine", "--out", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, "-c", COLD_RSS_PROBE, "run", str(ROOT / "configs" / "flip-sweep.ini"), *flags],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert int(result.stdout.split()[-1]) / 1024 <= 60  # VmHWM is in KiB


def test_import_leaves_statistics_unloaded():
    # ``statistics`` pulls in fractions and decimal; the 99% Wilson quantile is a literal instead.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, certbit; print('statistics' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert result.stdout.strip() == "False"
