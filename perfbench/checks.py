"""Output checks for benchmark invocations.

A check function takes the bytes one invocation wrote and returns a list of
problems; an empty list means the output is correct.  The `Ledger` applies
the checks that hold for every invocation (exit code 0, byte-identical
repeats) and counts the invocations that miss any of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable

CONTRACT_KEYS = frozenset({"scenario_name", "parameters", "exact_results",
                           "mc_results", "qm_reference", "verdicts", "seed"})

EXACT_TOL = 1e-12
# Reports print 12 significant digits, so a norm between 1 and 2 carries up
# to 5e-12 of rounding on top of the computation itself.
NORM_TOL = 1e-11


def angle_grid(start: float, stop: float, step: float) -> list[float]:
    """Angles start + k*step for every k that stays within [start, stop]."""
    count = int((stop - start) / step) + 1
    return [start + k * step for k in range(count)]


def _json(text: str, problems: list[str]) -> dict | None:
    try:
        data = json.loads(text)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    keys = set(data) if isinstance(data, dict) else set()
    if keys != CONTRACT_KEYS:
        problems.append(f"JSON keys {sorted(keys)} differ from the 7-key contract")
        return None
    return data


def mc_json(scenario: str, seed: int, samples: int) -> Callable[[str], list[str]]:
    """A Monte Carlo JSON report: the contract keys, scenario, seed and samples."""
    def check(text: str) -> list[str]:
        problems: list[str] = []
        data = _json(text, problems)
        if data is None:
            return problems
        if data["scenario_name"] != scenario:
            problems.append(f"scenario_name {data['scenario_name']!r} != {scenario!r}")
        if data["seed"] != seed:
            problems.append(f"seed {data['seed']!r} != {seed}")
        if data["parameters"].get("samples") != samples:
            problems.append(f"parameters.samples != {samples}")
        if not data["mc_results"]:
            problems.append("no Monte Carlo results")
        for name, m in data["mc_results"].items():
            if not 0 < m["samples"] <= samples:
                problems.append(f"{name}: samples {m['samples']} outside (0, {samples}]")
        return problems
    return check


def epr_scan_json(grid: list[float]) -> Callable[[str], list[str]]:
    """Every grid point's model scalar equals -cos(theta) within 1e-12."""
    def check(text: str) -> list[str]:
        problems: list[str] = []
        data = _json(text, problems)
        if data is None:
            return problems
        exact = data["exact_results"]
        scalars = [k for k in exact if k.endswith(":model_scalar")]
        if len(scalars) != len(grid):
            problems.append(f"{len(scalars)} model_scalar entries, expected {len(grid)}")
        for theta in grid:
            key = f"theta={theta:.12g}:model_scalar"
            if key not in exact:
                problems.append(f"missing {key}")
            elif not abs(exact[key] + math.cos(theta)) <= EXACT_TOL:
                problems.append(f"{key} = {exact[key]!r}, want {-math.cos(theta)!r}")
            if len(problems) > 5:
                break
        return problems
    return check


def constraint_check_csv(grid: list[float]) -> Callable[[str], list[str]]:
    """Per pair a = ez, b at theta: |commutator| = 2|sin theta|, square = -1."""
    def check(text: str) -> list[str]:
        lines = text.split("\n")
        header = "point,commutator,commutator_norm,square,square_scalar,verdict"
        if lines[0] != header:
            return [f"CSV header {lines[0]!r}"]
        problems: list[str] = []
        rows = lines[1:1 + len(grid)]
        for i, (theta, row) in enumerate(zip(grid, rows)):
            cells = row.split(",")
            if len(cells) != 6 or cells[0] != f"pair[{i}]":
                problems.append(f"row {i + 1}: {row!r}")
            elif not abs(float(cells[2]) - 2.0 * abs(math.sin(theta))) <= NORM_TOL:
                problems.append(f"pair[{i}] commutator_norm {cells[2]}, "
                                f"want {2.0 * abs(math.sin(theta))!r}")
            elif cells[4] != "-1":
                problems.append(f"pair[{i}] square_scalar {cells[4]}, want -1")
            if len(problems) > 5:
                break
        if len(rows) != len(grid):
            problems.append(f"{len(rows)} pair rows, expected {len(grid)}")
        if "normalization_violated_for_all,true" not in lines:
            problems.append("normalization_violated_for_all is not true")
        return problems
    return check


def update_rule_json(points: int) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        problems: list[str] = []
        data = _json(text, problems)
        if data is None:
            return problems
        exact = data["exact_results"]
        found = sum(1 for k in exact if k.endswith(":P_zz"))
        if found != points:
            problems.append(f"{found} grid points, expected {points}")
        if exact.get("feasible_count") != 0:
            problems.append(f"feasible_count {exact.get('feasible_count')!r}, want 0")
        return problems
    return check


def update_rule_csv(points: int) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        lines = text.split("\n")
        if lines[0] != "point,P_zz,P_zx,verdict":
            return [f"CSV header {lines[0]!r}"]
        found = sum(1 for line in lines if line.startswith("p="))
        problems = [] if found == points else [f"{found} grid rows, expected {points}"]
        if "feasible_set_empty,true" not in lines:
            problems.append("feasible_set_empty is not true")
        return problems
    return check


def table(scenario: str, *required: str) -> Callable[[str], list[str]]:
    """A table report for `scenario` that passes its gate."""
    def check(text: str) -> list[str]:
        lines = text.split("\n")
        problems = []
        if lines[0] != f"scenario: {scenario}":
            problems.append(f"first line {lines[0]!r}")
        for line in ("gate: PASS", *required):
            if line not in lines:
                problems.append(f"missing line {line!r}")
        return problems
    return check


class Ledger:
    """Counts attempted and failed invocations and records each failure.

    An invocation fails when it does not exit 0, when its output fails the
    invocation's check, or when it differs from an earlier run of the same
    invocation (reports are promised to be byte-identical).
    """

    def __init__(self, explain: Callable[[list[str]], list[str]] | None = None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.sha256: dict[str, str] = {}
        self._explain = explain

    def judge(self, label: str, argv: list[str], check: Callable[[str], list[str]],
              exit_code: int, output: bytes, stderr: bytes = b"") -> bool:
        self.attempted += 1
        problems: list[str] = []
        verdicts: list[str] = []
        digest = hashlib.sha256(output).hexdigest()
        first = self.sha256.setdefault(label, digest)
        if digest != first:
            problems.append(f"output sha256 {digest} differs from earlier {first}")
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            problems.extend(f"stderr: {line}" for line in tail)
            if exit_code == 1 and self._explain is not None:
                verdicts = self._explain(argv)
        try:
            problems.extend(check(output.decode("utf-8")))
        except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            self.failures.append({"invocation": label, "argv": argv,
                                  "failing_verdicts": verdicts,
                                  "problems": problems[:8]})
        return not problems
