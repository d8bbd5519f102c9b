"""Command-line entry point: scenario selection, seeding, serialization.

Command shape:

    bellcheck run <scenario> [--samples N] [--seed S]
                  [--format table|json|csv] [--angles START:STOP:STEP]
                  [--mode M] [--flip-prob P] [--grid-step G] [--out PATH]

Exit codes: 0 when every gated verdict holds (the documented behaviour,
including the model failures the scenarios are built to demonstrate, was
reproduced), 1 when some gated verdict differs, 2 for usage errors
(including non-finite angles and grids of more than 1,000,000 points), 3 when
the output path cannot be written.  Identical invocations produce
byte-identical output.  BELLCHECK_SEED overrides the default seed when
--seed is absent.  Angles are radians; CSV is comma-separated, UTF-8, LF.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from . import scenarios
from .clifford import Multivector
from .models import UpdateRule
from .scenarios import McResult, ScenarioReport, closed_grid

SCENARIOS = ("epr-scan", "chsh", "sequential", "three-particle",
             "update-rule-search", "constraint-check", "bell-toy")
FORMATS = ("table", "json", "csv")
MC_SCENARIOS = ("chsh", "sequential", "bell-toy")

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 42
DEFAULT_ANGLES = (0.0, math.pi, math.pi / 36)

SEED_ENV_VAR = "BELLCHECK_SEED"


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    samples: int
    seed: int
    format: str
    angles: tuple[float, float, float]
    out: str | None
    mode: str | None
    flip_prob: float
    grid_step: float


def _parse_angles(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected START:STOP:STEP")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("START, STOP and STEP must be finite")
    if step <= 0.0:
        raise ValueError("STEP must be positive")
    if stop < start:
        raise ValueError("STOP must not precede START")
    return (start, stop, step)


def parse_args(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="bellcheck",
        description="audit scenarios for Clifford-valued and scalar "
                    "hidden-variable spin models")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario and emit its report")
    run.add_argument("scenario", choices=SCENARIOS)
    run.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                     help="Monte Carlo sample count (default 100000)")
    run.add_argument("--seed", type=int, default=None,
                     help="64-bit unsigned RNG seed (default 42, or "
                          f"${SEED_ENV_VAR} when set)")
    run.add_argument("--format", choices=FORMATS, default="table")
    run.add_argument("--angles", default=None, metavar="START:STOP:STEP",
                     help="angle grid in radians (default 0:pi:pi/36)")
    run.add_argument("--mode", default=None,
                     help="scenario-specific variant: epr-scan "
                          "{original|anticorrelated}, sequential "
                          "{clifford|bell-static|bell-hemisphere}")
    run.add_argument("--flip-prob", type=float, default=0.0,
                     help="post-z flip probability for sequential/clifford")
    run.add_argument("--grid-step", type=float, default=0.01,
                     help="probability resolution for update-rule-search")
    run.add_argument("--out", default=None, help="write the report here")

    ns = parser.parse_args(argv)

    if ns.samples < 0:
        run.error("--samples must be >= 0")

    seed = ns.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                run.error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        else:
            seed = DEFAULT_SEED
    if not 0 <= seed < 2 ** 64:
        run.error("--seed must fit in an unsigned 64-bit integer")

    if ns.angles is None:
        angles = DEFAULT_ANGLES
    else:
        try:
            angles = _parse_angles(ns.angles)
        except ValueError as exc:
            run.error(f"--angles: {exc}")

    if not 0.0 <= ns.flip_prob <= 1.0:
        run.error("--flip-prob must be in [0, 1]")
    if ns.grid_step <= 0.0:
        run.error("--grid-step must be positive")

    if (ns.scenario in MC_SCENARIOS and ns.format != "table"
            and 0 < ns.samples < 10_000):
        run.error("--samples must be >= 10000 for Monte Carlo scenarios "
                  "unless --format table")

    return RunConfig(
        scenario=ns.scenario,
        samples=ns.samples,
        seed=seed,
        format=ns.format,
        angles=angles,
        out=ns.out,
        mode=ns.mode,
        flip_prob=ns.flip_prob,
        grid_step=ns.grid_step,
    )


def run_scenario(config: RunConfig) -> ScenarioReport:
    if config.scenario == "epr-scan":
        grid = closed_grid(*config.angles)
        mode = config.mode or "original"
        return scenarios.run_epr_scan(grid, mode)
    if config.scenario == "chsh":
        return scenarios.run_chsh(config.samples, config.seed)
    if config.scenario == "sequential":
        model = config.mode or "clifford"
        rule = UpdateRule.post_z(config.flip_prob) if model == "clifford" else None
        return scenarios.run_sequential(model, rule, config.samples, config.seed)
    if config.scenario == "three-particle":
        return scenarios.run_three_particle_search()
    if config.scenario == "update-rule-search":
        return scenarios.search_update_rules(config.grid_step)
    if config.scenario == "constraint-check":
        grid = closed_grid(*config.angles)
        pairs = [((0.0, 0.0, 1.0), (math.sin(t), 0.0, math.cos(t))) for t in grid]
        return scenarios.run_constraint_check(pairs)
    if config.scenario == "bell-toy":
        return scenarios.run_bell_toy(config.samples, config.seed)
    raise ValueError(f"unknown scenario {config.scenario!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _text(value) -> str:
    if isinstance(value, Multivector):
        return value.render()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _split_groups(report: ScenarioReport):
    """Partition report entries into per-group rows and scenario-level ones.

    Keys "<group>:<field>" feed one row per group; plain keys are listed
    separately.  Field order follows first appearance.
    """
    groups: dict[str, dict[str, str]] = {}
    fields: list[str] = []
    plain: list[tuple[str, str]] = []
    group_verdicts: dict[str, list[str]] = {}

    def add(key: str, text: str):
        if ":" in key:
            group, field_name = key.split(":", 1)
            row = groups.setdefault(group, {})
            row[field_name] = text
            if field_name not in fields:
                fields.append(field_name)
        else:
            plain.append((key, text))

    for key, value in report.exact_results.items():
        add(key, _text(value))
    for key, m in report.mc_results.items():
        add(f"{key}:estimate" if ":" in key else f"{key}.estimate", _text(m.estimate))
        add(f"{key}:standard_error" if ":" in key else f"{key}.standard_error",
            _text(m.standard_error))
        add(f"{key}:samples" if ":" in key else f"{key}.samples", str(m.samples))
    for key, value in report.qm_reference.items():
        # keep grouped fields as-is; label scenario-level ones as references
        add(key if ":" in key else f"qm.{key}", _text(value))
    for key, value in report.verdicts.items():
        if ":" in key:
            group, name = key.split(":", 1)
            if value:
                group_verdicts.setdefault(group, []).append(name)
            else:
                group_verdicts.setdefault(group, [])
        else:
            plain.append((key, _text(value)))
    return groups, fields, plain, group_verdicts


def emit_csv(report: ScenarioReport) -> str:
    groups, fields, plain, group_verdicts = _split_groups(report)
    lines: list[str] = []
    if groups:
        lines.append(",".join(["point"] + fields + ["verdict"]))
        for group, row in groups.items():
            cells = [group] + [row.get(f, "") for f in fields]
            cells.append(";".join(group_verdicts.get(group, [])))
            lines.append(",".join(cells))
        if plain:
            lines.append("")
    if plain or not groups:
        lines.append("name,value")
        for name, value in plain:
            lines.append(f"{name},{value}")
    return "\n".join(lines) + "\n"


def emit_table(report: ScenarioReport) -> str:
    groups, fields, plain, group_verdicts = _split_groups(report)
    lines = [f"scenario: {report.scenario_name}", f"seed: {report.seed}", "parameters:"]
    for key, value in report.parameters.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(_text(v) for v in value)
        lines.append(f"  {key}: {_text(value)}")

    if groups:
        header = ["point"] + fields + ["verdict"]
        rows = [header]
        for group, row in groups.items():
            rows.append([group] + [row.get(f, "") for f in fields]
                        + [";".join(group_verdicts.get(group, []))])
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines.append("")
        for r in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())

    if plain:
        lines.append("")
        lines.append("results:")
        for name, value in plain:
            lines.append(f"  {name}: {value}")

    lines.append("")
    lines.append(f"gate: {'PASS' if report.gate_passed() else 'FAIL'}")
    if "consistent_assignments" in report.exact_results:
        count = int(report.exact_results["consistent_assignments"])
        lines.append(f"consistent assignments: {count}")
    return "\n".join(lines) + "\n"


def emit_report(report: ScenarioReport, config: RunConfig) -> str:
    if config.format == "json":
        return report.to_json()
    if config.format == "csv":
        return emit_csv(report)
    return emit_table(report)


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report = run_scenario(config)
    except ValueError as exc:
        print(f"bellcheck: error: {exc}", file=sys.stderr)
        return 2
    text = emit_report(report, config)
    if config.out is not None:
        try:
            with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"bellcheck: cannot write {config.out!r}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return 0 if report.gate_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
