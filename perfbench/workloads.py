"""The benchmark's workloads: which `bellcheck run` invocations make a pass.

Why each workload was chosen is recorded beside its name in BENCHMARK.json.

Each invocation gets the benchmark's `--seed` appended unchanged, so a seed
that trips one of the program's seed-dependent Monte Carlo gates shows up
as a failed invocation rather than being hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

EXACT_ANGLES = (0.0, 3.14159, 0.0001)
EXACT_GRID = checks.angle_grid(*EXACT_ANGLES)
ANGLES_ARG = ":".join(f"{x:g}" for x in EXACT_ANGLES)
MC_SAMPLES = 1_000_000
GRID_STEP = 1e-5
GRID_POINTS = 100_001


@dataclass(frozen=True)
class Invocation:
    label: str
    args: tuple[str, ...]                      # after `run`, without --seed
    check: Callable[[int], Callable[[str], list[str]]]   # seed -> checker
    points: int = 0                            # grid points or direction pairs
    samples: int = 0                           # requested Monte Carlo samples

    def argv(self, seed: int) -> list[str]:
        return ["run", *self.args, "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]


def _mc(label: str, scenario: str, *extra: str) -> Invocation:
    return Invocation(
        label, (scenario, *extra, "--samples", str(MC_SAMPLES), "--format", "json"),
        lambda seed: checks.mc_json(scenario, seed, MC_SAMPLES),
        samples=MC_SAMPLES)


def _default(label: str, scenario: str, *extra: str, required=()) -> Invocation:
    return Invocation(label, (scenario, *extra),
                      lambda seed: checks.table(scenario, *required))


WORKLOADS = {w.name: w for w in (
    Workload(
        "exact-grid",
        (
            Invocation("epr-scan/json",
                       ("epr-scan", "--angles", ANGLES_ARG, "--format", "json"),
                       lambda seed: checks.epr_scan_json(EXACT_GRID),
                       points=len(EXACT_GRID)),
            Invocation("constraint-check/csv",
                       ("constraint-check", "--angles", ANGLES_ARG, "--format", "csv"),
                       lambda seed: checks.constraint_check_csv(EXACT_GRID),
                       points=len(EXACT_GRID)),
        )),
    Workload(
        "monte-carlo",
        (
            _mc("chsh", "chsh"),
            _mc("sequential/bell-static", "sequential", "--mode", "bell-static"),
            _mc("sequential/bell-hemisphere", "sequential", "--mode", "bell-hemisphere"),
            _mc("bell-toy", "bell-toy"),
        )),
    Workload(
        "report-heavy",
        tuple(
            Invocation(f"update-rule-search/{fmt}",
                       ("update-rule-search", "--grid-step", f"{GRID_STEP:g}",
                        "--format", fmt),
                       check, points=GRID_POINTS)
            for fmt, check in (
                ("json", lambda seed: checks.update_rule_json(GRID_POINTS)),
                ("csv", lambda seed: checks.update_rule_csv(GRID_POINTS)),
                ("table", lambda seed: checks.table(
                    "update-rule-search", f"  n_grid: {GRID_POINTS}")),
            )
        )),
    Workload(
        "audit-defaults",
        (
            _default("epr-scan/original", "epr-scan"),
            _default("epr-scan/anticorrelated", "epr-scan", "--mode", "anticorrelated"),
            _default("chsh", "chsh"),
            _default("sequential/clifford", "sequential"),
            _default("sequential/bell-static", "sequential", "--mode", "bell-static"),
            _default("sequential/bell-hemisphere", "sequential", "--mode", "bell-hemisphere"),
            _default("three-particle", "three-particle",
                     required=("consistent assignments: 0",)),
            _default("update-rule-search", "update-rule-search"),
            _default("constraint-check", "constraint-check"),
            _default("bell-toy", "bell-toy"),
        )),
)}
