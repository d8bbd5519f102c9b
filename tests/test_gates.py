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
    "constraint-check-31416": ("constraint-check", "--angles", "0:3.14159:0.0001"),
    "constraint-check-boundary": (
        "constraint-check", "--angles", "5.00000000000004e-13:5.00000000000004e-13:1"),
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


def test_parallel_designation_reads_the_recorded_column_of_31416_pairs(large_constraint_check):
    parameters = large_constraint_check.parameters
    groups = [f"pair[{i}]" for i in range(parameters["n_pairs"])]
    assert len(groups) == 31_416
    a, b = scenarios.xz_scan(scenarios.closed_grid(0.0, 3.14159, 0.0001)).transpose(1, 0, 2)
    (pairs,) = [block for block in parameters.blocks if "parallel" in getattr(block, "columns", ())]
    assert pairs.columns["a"][:, 1:4].tobytes() == a.tobytes()
    assert pairs.columns["b"][:, 1:4].tobytes() == b.tobytes()
    want = (np.abs(2.0 * np.cross(a, b)) <= scenarios.EXACT_TOL).all(axis=1)
    got = scenarios._parallel_pairs(parameters, groups)
    assert np.asarray(got).tolist() == want.tolist()
    assert np.flatnonzero(got).tolist() == [0]  # theta = 0 alone; the grid stops short of pi


@pytest.fixture(scope="module")
def large_constraint_check_json(large_constraint_check) -> dict:
    return large_constraint_check.to_json_dict()


def _with_parameters(data: dict, edit) -> ScenarioReport:
    """The report of `data` with edit() applied to a copy of its parameters."""
    parameters = dict(data["parameters"])
    edit(parameters)
    return ScenarioReport.from_json_dict({**data, "parameters": parameters})


@pytest.mark.parametrize("pair", [0, 17_000, 31_415])
def test_a_flipped_parallel_flag_read_back_fails_the_gate(large_constraint_check_json, pair):
    key = f"pair[{pair}]:parallel"
    report = _with_parameters(large_constraint_check_json,
                              lambda parameters: parameters.update({key: not parameters[key]}))
    assert not report.gate_passed()


@pytest.mark.parametrize("pair", [0, 17_000, 31_415])
def test_a_deleted_parallel_flag_read_back_makes_the_gate_raise(large_constraint_check_json, pair):
    report = _with_parameters(large_constraint_check_json,
                              lambda parameters: parameters.pop(f"pair[{pair}]:parallel"))
    with pytest.raises(KeyError):
        report.gate_passed()


def _near_parallel_pairs(n: int, seed: int) -> np.ndarray:
    """(a, b) pairs: a uniform on the sphere, b = a + eps renormalised with
    |eps| log-uniform in [1e-14, 1e-11], less the rows of a or b whose norm
    is not within 1e-12 of 1."""
    rng = np.random.default_rng(seed)
    a, eps = (v / np.linalg.norm(v, axis=1)[:, None] for v in rng.standard_normal((2, n, 3)))
    b = a + eps * 10.0 ** rng.uniform(-14.0, -11.0, (n, 1))
    b /= np.linalg.norm(b, axis=1)[:, None]
    pairs = np.stack([a, b], axis=1)
    return pairs[(np.abs(np.linalg.norm(pairs, axis=2) - 1.0) <= 1e-12).all(axis=1)]


def test_nearly_parallel_general_pairs_gate_true():
    # Rounded to 12 significant digits, the coordinates would designate
    # 2,240 of these pairs against their full-precision verdict.
    pairs = _near_parallel_pairs(20_000, seed=2024)
    assert len(pairs) > 19_000
    report = scenarios.run_constraint_check(pairs)
    commutes = report.verdicts.blocks[0].columns["commutator_zero"]
    assert 0 < np.count_nonzero(commutes) < len(pairs)  # both sides of the tolerance
    assert report.gate_passed()
    assert _read_back(report).gate_passed()


def test_xz_pairs_within_2000_ulps_of_the_tolerance_boundary_gate_true():
    # 2 sin(theta) crosses EXACT_TOL = 1e-12 near theta = 5e-13.
    angles = 5e-13 + np.spacing(5e-13) * np.arange(-2000, 2001)
    report = scenarios.run_constraint_check(scenarios.xz_scan(angles.tolist()))
    commutes = report.verdicts.blocks[0].columns["commutator_zero"]
    assert commutes[0] and not commutes[-1]
    assert report.gate_passed()
    assert _read_back(report).gate_passed()


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
