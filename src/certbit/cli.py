"""Configuration, orchestration and report emission.

Experiments are described by flat INI files with sections mirroring the
package modules::

    [experiment]
    scenario = flip-sweep        ; one of the shipped scenarios
    seed = 1                     ; mandatory, no wall-clock default
    trials = 100000              ; optional per-scenario workload override
    out = runs/flip-sweep        ; output directory
    format = both                ; summary | machine | both

    [protocol]
    n0 = 64
    m = 16
    flip_probability = 0.0
    leak_probability = 0.0

    [spacetime]
    suspension_rounds = 0

    [analysis]
    k_values = 1,2,3,4,5,6,7,8
    theta_points = 9
    alpha_squares = 0,0.25,0.5,1
    sessions = 200

These are all the keys a config may set; any other section or key is an
error that names it.  Only ``experiment.scenario`` and ``experiment.seed``
are required.  An unset ``out`` is ``runs/<scenario>``, and every other
unset key takes the default of the :class:`ExperimentConfig` field of the
same name.

Machine-readable outputs are line-delimited JSON records carrying a
``schema`` version field; the human summary is derived from them and never
parsed back.  The same config and seed reproduce byte-identical machine
outputs.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import MIN_DETECTION_TRIALS
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
    out: str = "runs/latest"
    format: str = "both"
    n0: int = 64
    m: int = 16
    flip_probability: float = 0.0
    leak_probability: float = 0.0
    suspension_rounds: int = 0
    sessions: int = 200
    k_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    theta_points: int = 9
    alpha_squares: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)

    def params(self, **overrides) -> ProtocolParams:
        values = dict(
            n0=self.n0,
            m=self.m,
            flip_probability=self.flip_probability,
            leak_probability=self.leak_probability,
        )
        values.update(overrides)
        try:
            return ProtocolParams(**values)
        except ValueError as error:
            raise ConfigError(f"protocol: {error}") from error

    def trials_or(self, default: int) -> int:
        return self.trials if self.trials is not None else default


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.replace(" ", "").split(",") if part)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.replace(" ", "").split(",") if part)


# Every (section, key, converter) a config may set; anything else is an
# error.  Each key is the name of an ExperimentConfig field.
_FIELDS = (
    ("experiment", "scenario", str),
    ("experiment", "seed", int),
    ("experiment", "trials", int),
    ("experiment", "out", str),
    ("experiment", "format", str),
    ("protocol", "n0", int),
    ("protocol", "m", int),
    ("protocol", "flip_probability", float),
    ("protocol", "leak_probability", float),
    ("spacetime", "suspension_rounds", int),
    ("analysis", "sessions", int),
    ("analysis", "k_values", _int_list),
    ("analysis", "theta_points", int),
    ("analysis", "alpha_squares", _float_list),
)
_KNOWN_FIELDS = {
    section: tuple(key for s, key, _ in _FIELDS if s == section)
    for section in dict.fromkeys(section for section, _, _ in _FIELDS)
}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config; diagnostics name the field."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as error:
        raise ConfigError(f"config parse error: {error}") from error

    errors: list[str] = []
    if not parser.has_section("experiment"):
        raise ConfigError("experiment: section missing")
    for section in parser.sections():
        if section not in _KNOWN_FIELDS:
            errors.append(f"{section}: unknown section; valid: {', '.join(_KNOWN_FIELDS)}")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_FIELDS[section]:
                errors.append(f"{section}.{key}: unknown field; valid: {', '.join(_KNOWN_FIELDS[section])}")
    values = {}
    for section, key, convert in _FIELDS:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[key] = convert(raw)
            except (ValueError, TypeError):
                errors.append(f"{section}.{key}: cannot parse {raw!r}")
    if "scenario" not in values:
        errors.append("experiment.scenario: required")
    elif values["scenario"] not in SCENARIOS:
        errors.append(
            f"experiment.scenario: unknown scenario {values['scenario']!r}; valid: {', '.join(scenario_names())}"
        )
    if not parser.has_option("experiment", "seed"):
        errors.append("experiment.seed: required (no wall-clock default)")
    scenario = values.setdefault("scenario", "")
    values.setdefault("seed", 0)
    values.setdefault("out", f"runs/{scenario or 'experiment'}")
    return _checked(ExperimentConfig(**values), errors)


def _checked(config: ExperimentConfig, errors: list[str]) -> ExperimentConfig:
    """Return ``config`` if its values are in range; else raise with ``errors`` and every bad value."""
    if config.seed < 0:
        errors.append("experiment.seed: must be >= 0")
    if config.format not in ("summary", "machine", "both"):
        errors.append(f"experiment.format: {config.format!r} not one of summary|machine|both")
    if config.trials is not None and config.trials < 1:
        errors.append("experiment.trials: must be >= 1")
    elif config.scenario == "flip-sweep" and config.trials is not None and config.trials < MIN_DETECTION_TRIALS:
        errors.append(f"experiment.trials: must be >= {MIN_DETECTION_TRIALS} for flip-sweep")
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
    # flip-sweep, which reads k_values, declares k of the m untested particles falsely.
    if config.scenario == "flip-sweep" and any(k > config.m for k in config.k_values):
        errors.append(f"analysis.k_values: every k must be <= m = {config.m}")
    if not config.alpha_squares:
        errors.append("analysis.alpha_squares: must list at least one value")
    if not all(0.0 <= a <= 1.0 for a in config.alpha_squares):
        errors.append("analysis.alpha_squares: every value must lie in [0, 1]")
    # Validate protocol sizes eagerly so bad configs fail before running.
    try:
        config.params()
    except ConfigError as error:
        errors.append(str(error))
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

    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": 1,
        "type": "experiment",
        "scenario": config.scenario,
        "seed": config.seed,
        "trials": config.trials,
        "status": result.status,
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

    try:
        config = parse_config(args.config)
        if args.command == "run":
            overrides = {
                key: value for key in ("seed", "trials", "format") if (value := getattr(args, key)) is not None
            }
            config = _checked(dataclasses.replace(config, **overrides), [])
    except ConfigError as error:
        print(f"invalid config: {error}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "validate":
        print(f"config ok: scenario {config.scenario}, seed {config.seed}")
        return 0
    return run_experiment(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
