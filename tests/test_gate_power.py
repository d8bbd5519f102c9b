"""Gate power: a gated verdict is worth its gate only if some defect flips it.

Each named defect in tests/defects.py patches one shipped function or
designation.  Run in process through `cli.main`, the scenario it touches
must exit 1, and the gated verdicts that differ from their designation must
be exactly the declared set.  Unpatched, the same run exits 0 with none of
them flipped.
"""

import json

import pytest

from bellcheck import cli, scenarios
from bellcheck.scenarios import ScenarioReport
from defects import DEFECTS


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


def test_every_registry_row_has_a_defect():
    rows = {(ns.scenario, ns.mode) for ns in (cli.parse_args(["run", *argv])
                                              for argv, _, _ in DEFECTS.values())}
    assert rows == set(scenarios.REGISTRY)
