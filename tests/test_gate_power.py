"""Gate power: a gated verdict is worth its gate only if some defect flips it.

Each named defect in tests/defects.py patches one shipped function or
designation.  Run in process through `cli.main`, the scenario it touches
must exit 1, and the gated verdicts that differ from their designation must
be exactly the declared set.  Unpatched, the same run exits 0 with none of
them flipped.  The gated fields that no defect flips yet are pinned, so
that list can only shrink as defects are added.
"""

import json

import pytest

from bellcheck import cli, scenarios
from bellcheck.scenarios import ScenarioReport
from defects import DEFECTS
from test_golden import DEFAULTS

# Default name (as in test_golden.DEFAULTS) -> the fields of its gated
# verdicts that no defect on the same argv declares in its flipped set.
UNCOVERED = {
    "chsh": {"qm_chsh_at_tsirelson"},
    "sequential-bell-static": {"P_zx_matches_qm", "P_zxz_matches_qm", "P_zxz_mc_matches_qm",
                               "P_zz_matches_qm", "P_zz_mc_matches_qm",
                               "third_measurement_defect"},
    "sequential-bell-hemisphere": {"P_zx_matches_qm", "P_zx_mc_matches_qm", "P_zxz_matches_qm",
                                   "P_zxz_mc_matches_qm", "P_zz_matches_qm"},
    "three-particle": {"consistent", "consistent_set_empty", "control_consistent_nonempty",
                       "search_visited_declared_count"},
    "update-rule-search": {"feasible", "feasible_set_empty", "relaxed_uniform_nonempty"},
    "bell-toy": {"hemisphere_third_matches_qm", "hemisphere_transverse_ok",
                 "static_third_fails_qm", "static_third_is_one"},
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


def test_every_registry_row_has_a_defect():
    rows = {(ns.scenario, ns.mode) for ns in (cli.parse_args(["run", *argv])
                                              for argv, _, _ in DEFECTS.values())}
    assert rows == set(scenarios.REGISTRY)


def test_gated_fields_without_a_defect_are_the_pinned_ones():
    uncovered = {}
    for name, argv in DEFAULTS.items():
        report = cli.run_scenario(cli.parse_args(["run", *argv, "--seed", "42"]))
        flipped = {key.rpartition(":")[2] for args, _, flips in DEFECTS.values()
                   if tuple(args) == argv for key in flips}
        uncovered[name] = {key.rpartition(":")[2] for key in report.expected} - flipped
    assert {name: left for name, left in uncovered.items() if left} == UNCOVERED
