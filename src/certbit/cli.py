"""Configuration, orchestration and report emission.

Experiments are described by flat INI files with sections mirroring the
package modules.  These are all the keys there are, at their defaults::

    [experiment]
    scenario = <name>            ; one of the shipped scenarios
    seed = 1                     ; mandatory, no wall-clock default
    trials = <scenario default>  ; per-scenario workload override
    out = runs/<name>            ; output directory
    format = both                ; summary | machine | both

    [protocol]
    n0 = 64
    m = 16

    [spacetime]
    suspension_rounds = 0

    [analysis]
    k_values = 1,2,3,4,5,6,7,8
    theta_points = 9
    alpha_squares = 0,0.25,0.5,1
    sessions = 200

A config may set ``experiment.scenario``, ``seed``, ``out`` and ``format``,
and of the other keys only those its scenario reads, listed in the
scenario's ``ScenarioSpec.fields``; any other key is an error that names
it and the scenario.  Only ``experiment.scenario`` and ``experiment.seed``
are required.  An unset or empty ``out`` is ``runs/<scenario>``, and
every other unset key takes the default of the :class:`ExperimentConfig`
field of the same name.  A list is comma-separated; an empty item or a
repeated value is an error.

Machine-readable outputs are line-delimited JSON records carrying a
``schema`` version field; the human summary is derived from them and never
parsed back.  The ``experiment`` header of ``report.jsonl`` holds the
scenario, seed, exit status and the value of each of the scenario's fields
(``null`` for an unset ``trials``, the scenario's default).  The same
config and seed reproduce byte-identical machine outputs.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from pathlib import Path

from .protocol import ProtocolParams
from .scenarios import EXIT_CONFIG_ERROR, EXIT_EXPECTATION_FAILED, SCENARIOS, scenario_names

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run_experiment", "list_scenarios", "main"]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclasses.dataclass
class ExperimentConfig:
    scenario: str
    seed: int
    trials: int | None = None
    out: str | None = None  # unset or empty: runs/<scenario>
    format: str = "both"
    n0: int = 64
    m: int = 16
    suspension_rounds: int = 0
    sessions: int = 200
    k_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    theta_points: int = 9
    alpha_squares: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)

    def params(self, **overrides) -> ProtocolParams:
        """The config's sizes on the ideal oracle, with any oracle knob a scenario sets passed as ``overrides``."""
        try:
            return ProtocolParams(self.n0, self.m, **overrides)
        except ValueError as error:
            raise ConfigError(f"protocol: {error}") from error

    def trials_or(self, default: int) -> int:
        return self.trials if self.trials is not None else default


# A blank value is the empty list; an empty item, as in "2,,2" or "2,", cannot be parsed.
def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",")) if raw.strip() else ()


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",")) if raw.strip() else ()


# The (section, key, converter) of every config field; each key is the name
# of an ExperimentConfig field.  A config may set the _COMMON fields and
# those its scenario's ScenarioSpec.fields lists.
_FIELDS = (
    ("experiment", "scenario", str),
    ("experiment", "seed", int),
    ("experiment", "trials", int),
    ("experiment", "out", str),
    ("experiment", "format", str),
    ("protocol", "n0", int),
    ("protocol", "m", int),
    ("spacetime", "suspension_rounds", int),
    ("analysis", "sessions", int),
    ("analysis", "k_values", _int_list),
    ("analysis", "theta_points", int),
    ("analysis", "alpha_squares", _float_list),
)
_COMMON = (("experiment", "scenario"), ("experiment", "seed"), ("experiment", "out"), ("experiment", "format"))


def parse_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate an experiment config, with ``overrides`` set as experiment keys; diagnostics name the field."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as error:
        raise ConfigError(f"config parse error: {error}") from error
    if not parser.has_section("experiment"):
        raise ConfigError("experiment: section missing")
    parser.read_dict({"experiment": {key: str(value) for key, value in (overrides or {}).items()}})

    errors: list[str] = []
    scenario = parser.get("experiment", "scenario", fallback=None)
    if scenario is None:
        errors.append("experiment.scenario: required")
    elif scenario not in SCENARIOS:
        errors.append(f"experiment.scenario: unknown scenario {scenario!r}; valid: {', '.join(scenario_names())}")
    else:
        settable = _COMMON + SCENARIOS[scenario].fields
        for section in parser.sections():
            for key in parser.options(section):
                if (section, key) not in settable:
                    valid = ", ".join(f"{s}.{k}" for s, k in settable)
                    errors.append(f"{section}.{key}: unknown field for {scenario}; valid: {valid}")
    values = {}
    for section, key, convert in _FIELDS:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[key] = convert(raw)
            except (ValueError, TypeError):
                errors.append(f"{section}.{key}: cannot parse {raw!r}")
    if not parser.has_option("experiment", "seed"):
        errors.append("experiment.seed: required (no wall-clock default)")
    values.setdefault("scenario", "")
    values.setdefault("seed", 0)
    return _checked(ExperimentConfig(**values), errors)


def _checked(config: ExperimentConfig, errors: list[str]) -> ExperimentConfig:
    """Return ``config`` if its values are in range; else raise with ``errors`` and every bad value."""
    spec = SCENARIOS.get(config.scenario)
    if config.seed < 0:
        errors.append("experiment.seed: must be >= 0")
    if config.format not in ("summary", "machine", "both"):
        errors.append(f"experiment.format: {config.format!r} not one of summary|machine|both")
    if config.trials is not None and config.trials < 1:
        errors.append("experiment.trials: must be >= 1")
    if config.suspension_rounds < 0:
        errors.append("spacetime.suspension_rounds: must be >= 0")
    if config.sessions < 1:
        errors.append("analysis.sessions: must be >= 1")
    if config.theta_points < 2:
        errors.append("analysis.theta_points: must be >= 2, to reach both endpoints")
    if not config.k_values:
        errors.append("analysis.k_values: must list at least one k")
    if any(k < 0 for k in config.k_values):
        errors.append("analysis.k_values: every k must be >= 0")
    if len(set(config.k_values)) < len(config.k_values):
        errors.append("analysis.k_values: every k must be listed once")
    if not config.alpha_squares:
        errors.append("analysis.alpha_squares: must list at least one value")
    if not all(0.0 <= a <= 1.0 for a in config.alpha_squares):
        errors.append("analysis.alpha_squares: every value must lie in [0, 1]")
    if len(set(config.alpha_squares)) < len(config.alpha_squares):
        errors.append("analysis.alpha_squares: every value must be listed once")
    # Validate protocol sizes eagerly so bad configs fail before running.
    try:
        config.params()
    except ConfigError as error:
        errors.append(str(error))
    else:  # a trial floor may depend on n0 and m, so it waits for them to be valid
        floor = spec.min_trials(config) if spec and config.trials else 1
        if config.trials is not None and 1 <= config.trials < floor:
            errors.append(f"experiment.trials: must be >= {floor} for {config.scenario}")
    if errors:
        raise ConfigError("; ".join(errors))
    return config


def _write_records(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> int:
    """Run one scenario, write its artifacts, return the exit status."""
    spec = SCENARIOS[config.scenario]
    result = spec.run(config)

    out = Path(out_dir or config.out or f"runs/{config.scenario}")
    out.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": 1,
        "type": "experiment",
        "scenario": config.scenario,
        "seed": config.seed,
        "status": result.status,
        **{key: getattr(config, key) for _, key in spec.fields},
    }
    if config.format in ("machine", "both"):
        _write_records(out / "report.jsonl", [header, *result.records])
        if result.transcript_records:
            _write_records(out / "transcript.jsonl", result.transcript_records)
    if config.format in ("summary", "both"):
        lines = [
            f"scenario: {config.scenario}",
            f"seed: {config.seed}",
            f"status: {result.status} ({'ok' if result.ok else 'expectation failures'})",
            *result.summary_lines,
        ]
        (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for line in lines:
            print(line)
    if not result.ok:
        return EXIT_EXPECTATION_FAILED
    return result.status


def list_scenarios() -> list[tuple[str, str]]:
    return [(spec.name, spec.description) for spec in SCENARIOS.values()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="certbit",
        description="simulate and analyse certified bit-commitment protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="path to an INI experiment config")
    run_parser.add_argument("--seed", type=int, help="override experiment.seed")
    run_parser.add_argument("--trials", type=int, help="override experiment.trials")
    run_parser.add_argument("--out", help="override the output directory")
    run_parser.add_argument(
        "--format", choices=("summary", "machine", "both"), help="override experiment.format"
    )

    sub.add_parser("list", help="list shipped scenarios")

    validate_parser = sub.add_parser("validate", help="validate a config without running")
    validate_parser.add_argument("config", help="path to an INI experiment config")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, description in list_scenarios():
            print(f"{name}: {description}")
        return 0

    overrides = {key: value for key in ("seed", "trials", "format") if (value := getattr(args, key, None)) is not None}
    try:
        config = parse_config(args.config, overrides)
    except ConfigError as error:
        print(f"invalid config: {error}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "validate":
        print(f"config ok: scenario {config.scenario}, seed {config.seed}")
        return 0
    return run_experiment(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
