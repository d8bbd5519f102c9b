"""Gate power: a gated verdict is worth its gate only if some defect flips it.

Each named defect patches one shipped function or designation.  Run in
process through `cli.main`, the scenario it touches must exit 1, and the
gated verdicts that differ from their designation must be exactly the
declared set.  Unpatched, the same run exits 0 with none of them flipped.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from bellcheck import cli, scenarios
from bellcheck.clifford import ONE
from bellcheck.scenarios import ScenarioReport

# The default constraint-check grid: 37 pairs (e_z, b(k pi/36)), of which
# pair[0] and pair[36] are parallel and antiparallel.
PAIRS = [f"pair[{i}]" for i in range(37)]


def _forced(average: str, row):
    """The audit kernel with one average replaced by `row` for every pair."""
    real = scenarios.batch_constraint_check

    def defect(*args):
        audit = real(*args)
        return dataclasses.replace(audit, **{average: np.full_like(getattr(audit, average), row)})
    return mock.patch.object(scenarios, "batch_constraint_check", defect)


# name -> (argv after "run", patch factory, gated verdicts it must flip)
DEFECTS = {
    "constraint-check-commutator-forced-to-zero": (
        ["constraint-check"], lambda: _forced("commutator_avg", 0.0),
        {f"{p}:commutator_zero" for p in PAIRS[1:-1]}),
    "constraint-check-square-forced-to-one": (
        ["constraint-check"], lambda: _forced("square_avg", ONE.coeffs),
        {f"{p}:normalization_holds" for p in PAIRS} | {"normalization_violated_for_all"}),
    # GATES holds the designation function itself, so patch the entry.
    "constraint-check-commutator_zero-designated-false": (
        ["constraint-check"], lambda: mock.patch.dict(
            scenarios.GATES[("constraint-check", None)],
            commutator_zero=lambda _, groups: [False] * len(groups)),
        {f"{PAIRS[0]}:commutator_zero", f"{PAIRS[-1]}:commutator_zero"}),
}


def _flipped(argv, capsys) -> tuple[int, set[str]]:
    """Exit code and the gated verdicts of the JSON report that differ from
    their designation."""
    code = cli.main(["run", *argv, "--format", "json"])
    report = ScenarioReport.from_json_dict(json.loads(capsys.readouterr().out))
    return code, {key for key, want in report.expected.items() if report.verdicts[key] != want}


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_defect_flips_exactly_its_verdicts(name, capsys):
    argv, defect, flips = DEFECTS[name]
    assert _flipped(argv, capsys) == (0, set())
    with defect():
        assert _flipped(argv, capsys) == (1, flips)
