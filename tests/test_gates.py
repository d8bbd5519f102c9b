"""Gate designations come from the report's own content.

`ScenarioReport.expected` and `gate_passed()` read the designations of the
`scenarios.REGISTRY` row that the report's scenario name and parameters
name, by verdict name, so a report read back from its JSON text gates
exactly as the one that wrote it.
"""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from bellcheck import cli, scenarios
from bellcheck.report import emit_csv, emit_table
from bellcheck.scenarios import ScenarioReport
from test_golden import DEFAULTS

# Both gate False at these seeds: a 3-sigma or 0.01 Monte Carlo check misses.
FAILING_SEEDS = {
    "bell-toy-seed-2": ("bell-toy", "--samples", "10000", "--seed", "2"),
    "chsh-seed-123": ("chsh", "--samples", "10000", "--seed", "123"),
}


def _report(args) -> ScenarioReport:
    return cli.run_scenario(cli.parse_args(["run", *args]))


def _read_back(report: ScenarioReport) -> ScenarioReport:
    return ScenarioReport.from_json_dict(json.loads(report.to_json()))


@pytest.mark.parametrize("name", sorted({**DEFAULTS, **FAILING_SEEDS}))
def test_json_round_trip_keeps_the_gate(name):
    report = _report({**DEFAULTS, **FAILING_SEEDS}[name])
    back = _read_back(report)
    assert list(back.expected.items()) == list(report.expected.items())
    assert back.gate_passed() == report.gate_passed() == (name in DEFAULTS)


# epr-scan reports record meter_b_mode, not model, so they look up
# ("epr-scan", None), which names no row: gates given to an epr-scan row fail here.
@pytest.mark.parametrize("variant", [k for k, v in scenarios.REGISTRY.items() if v.gates], ids=str)
def test_each_gated_row_is_found_by_its_default_report(variant):
    scenario, mode = variant
    report = _report([scenario] + (["--mode", mode] if mode else []))
    gated = report.expected
    with mock.patch.dict(scenarios.REGISTRY[variant].gates, clear=True):
        assert report.expected != gated


READ_BACK = {
    **DEFAULTS, **FAILING_SEEDS,
    "epr-scan-grid": ("epr-scan", "--angles=-0.5:3.5:0.25"),
    "epr-scan-anticorrelated-grid": (
        "epr-scan", "--mode", "anticorrelated", "--angles", "0:1e-3:2.5e-4"),
    "constraint-check-grid": ("constraint-check", "--angles=-3.2:3.2:0.4"),
    "constraint-check-near-parallel": ("constraint-check", "--angles", "0:6e-13:2e-13"),
    "update-rule-search-1e-5": ("update-rule-search", "--grid-step", "1e-5"),
}


@pytest.mark.parametrize("name", sorted(READ_BACK))
def test_json_round_trip_keeps_every_format(name):
    report = _report(READ_BACK[name])
    back = _read_back(report)
    # The JSON text gives every grid entry as a "<group>:<field>" key; the
    # read-back report files runs of points in grids, not a block per point.
    for section in ("exact_results", "qm_reference", "verdicts"):
        assert len(getattr(back, section).blocks) == len(getattr(report, section).blocks)
    assert list(back.expected.items()) == list(report.expected.items())
    assert back.to_json() == report.to_json()
    assert emit_csv(back) == emit_csv(report)
    assert (emit_table(back, back.gate_passed())
            == emit_table(report, report.gate_passed()))


@pytest.mark.parametrize("angles", [
    "0:0.00001:0.00001",
    "3.14159:3.1416:0.00001",
    # The near-parallel points of -3.2:3.2:0.0000449, around -pi, 0 and pi.
    "-3.14163:-3.1415851:0.0000449",
    "-0.0000219:0.000023:0.0000449",
    "3.1415862:3.1416311:0.0000449",
    # Commutator coefficients 2 sin(theta) just below and just above 1e-12.
    "0:4e-13:4e-13",
    "0:6e-13:6e-13",
])
def test_near_parallel_constraint_check_pairs_exit_0(angles, tmp_path):
    out = tmp_path / "report.csv"
    assert cli.main(["run", "constraint-check", f"--angles={angles}",
                     "--format", "csv", "--out", str(out)]) == 0


def test_parallel_designation_reads_the_recorded_pair_text():
    report = _report(("constraint-check", "--angles", "0:6e-13:2e-13"))
    assert [report.expected[f"pair[{i}]:commutator_zero"] for i in range(4)] == [
        True, True, True, False]
    assert _read_back(report).expected == report.expected


@pytest.fixture(scope="module")
def large_constraint_check() -> ScenarioReport:
    return _report(("constraint-check", "--angles", "0:3.14159:0.0001"))


def test_parallel_designation_parses_the_31416_pair_texts_as_floats(large_constraint_check):
    parameters = large_constraint_check.parameters
    groups = [f"pair[{i}]" for i in range(parameters["n_pairs"])]
    assert len(groups) == 31_416
    text = " ".join(parameters[g] for g in groups).translate(str.maketrans("", "", "ab=();"))
    a, b = np.array(text.split(), dtype=float).reshape(-1, 2, 3).transpose(1, 0, 2)
    want = (np.abs(2.0 * np.cross(a, b)) <= scenarios.EXACT_TOL).all(axis=1)
    got = scenarios._parallel_pairs(parameters, groups)
    assert got.tolist() == want.tolist()
    assert np.flatnonzero(got).tolist() == [0]  # theta = 0 alone; the grid stops short of pi


@pytest.mark.parametrize("pair, mangled", [
    (17_000, "a=(0; 0; 1) b=(0.96x1; 0; -0.27)"),  # a letter inside a number
    (31_415, "a=(0; 0; 1) b=(0.5; 0)"),  # a coordinate missing
    (0, ""),
])
def test_a_mangled_pair_text_read_back_makes_the_gate_raise(large_constraint_check, pair, mangled):
    data = large_constraint_check.to_json_dict()
    data["parameters"][f"pair[{pair}]"] = mangled
    with pytest.raises(ValueError):
        ScenarioReport.from_json_dict(data).gate_passed()


# -- bounded CLI fuzz --------------------------------------------------------

_FLAG_VALUES = {
    "--samples": st.one_of(st.just(0), st.integers(10_000, 20_000)).map(str),
    "--mode": st.sampled_from(sorted({m for _, m in scenarios.REGISTRY if m} | {"bogus"})),
    "--flip-prob": st.floats(-0.1, 1.1).map(repr),
    "--grid-step": st.floats(0.01, 0.2).map(repr),
    "--angles": st.tuples(st.floats(-4.0, 4.0), st.floats(0.01, 1.0),
                          st.integers(0, 4)).map(
        lambda t: f"{t[0]!r}:{t[0] + t[1] * t[2]!r}:{t[1]!r}"),
}


@st.composite
def _invocations(draw):
    """A scenario/mode with some of the flags it reads and at most one flag
    drawn from all of them, which it may not read (exit 2)."""
    (scenario, mode), variant = draw(st.sampled_from(list(scenarios.REGISTRY.items())))
    args = [scenario] + ([f"--mode={mode}"] if mode else [])
    flags = [f for f in variant.flags if f != "--mode"]
    flags.append(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    for flag in draw(st.lists(st.sampled_from(flags), max_size=2, unique=True)):
        args.append(f"{flag}={draw(_FLAG_VALUES[flag])}")
    args += ["--seed", str(draw(st.integers(0, 2 ** 64 - 1))),
             "--format", draw(st.sampled_from(list(cli.WRITERS)))]
    return args, draw(st.integers(0, 9)) > 0


@settings(max_examples=100, deadline=None)
@given(_invocations())
def test_cli_exit_code_agrees_with_the_gate(invocation):
    args, writable = invocation
    reports = []
    real = cli.run_scenario

    def recording(config):
        reports.append(real(config))
        return reports[-1]

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "run_scenario", recording), \
            mock.patch("sys.stderr"):
        # A directory as --out cannot be opened for writing: exit 3.
        out = os.path.join(tmp, "report") if writable else tmp
        try:
            code = cli.main(["run", *args, "--out", out])
        except SystemExit as exc:
            code = exc.code
    event(f"exit code {code}")
    assert code in {0, 1, 2, 3}
    if code in (0, 1):
        (report,) = reports
        assert report.gate_passed() == (code == 0)
    for report in reports:
        assert _read_back(report).gate_passed() == report.gate_passed()
