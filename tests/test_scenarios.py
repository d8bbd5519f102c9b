import json
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from bellcheck import scenarios
from bellcheck.report import (Grid, Section, _grid_keys, _json_numbers, emit_csv,
                              emit_table)
from bellcheck.clifford import Multivector, render_rows
from bellcheck.models import CHUNK, MeterModel, UpdateRule
from bellcheck.scenarios import (
    McResult,
    ScenarioReport,
    closed_grid,
    run_bell_toy,
    run_chsh,
    run_constraint_check,
    run_epr_scan,
    run_sequential,
    run_three_particle_search,
    search_update_rules,
)

EZ = (0.0, 0.0, 1.0)

GRID_37 = closed_grid(0.0, math.pi, math.pi / 36)


def theta_key(theta, field):
    return f"theta={theta:.12g}:{field}"


# -- angle grids ---------------------------------------------------------


def test_closed_grid_includes_both_ends():
    grid = closed_grid(0.0, math.pi, math.pi / 36)
    assert len(grid) == 37
    assert grid[0] == 0.0
    assert abs(grid[-1] - math.pi) <= 1e-9


def test_closed_grid_point_count_rounds_down():
    assert len(closed_grid(0.0, 3.14159, 0.1)) == 32


def test_closed_grid_caps_the_point_count(monkeypatch):
    # Far over the cap: rejected from the count alone, nothing is built.
    with pytest.raises(ValueError):
        closed_grid(0.0, 1e12, 1e-9)
    with pytest.raises(ValueError):
        closed_grid(0.0, 1.0, 1e-300)
    monkeypatch.setattr(scenarios, "MAX_GRID_POINTS", 10)
    assert len(closed_grid(0.0, 9.0, 1.0)) == 10
    with pytest.raises(ValueError):
        closed_grid(0.0, 10.0, 1.0)


def test_closed_grid_accepts_the_benchmark_grids():
    assert scenarios.MAX_GRID_POINTS == 1_000_000
    assert len(closed_grid(0.0, 3.14159, 0.0001)) == 31_416
    assert len(closed_grid(0.0, 1.0, 1e-5)) == 100_001


@settings(max_examples=300)
@given(st.floats(-1e9, 1e9), st.floats(1e-9, 1e6), st.integers(0, 2_000), st.floats(0.0, 1.0))
@example(0.0, 1e-5, 100_000, 0.0)
@example(0.0, 0.03, 33, 0.5)
@example(-0.0, 0.1, 10, 0.0)
@example(0.0, 3.14159 / 36, 36, 0.999)
def test_closed_grid_is_the_float_expression_bit_for_bit(start, step, k, frac):
    stop = start + (k + frac) * step
    n = scenarios.grid_points(start, stop, step)
    want = [start + i * step for i in range(n)]
    assert [x.hex() for x in closed_grid(start, stop, step)] == [x.hex() for x in want]


def test_closed_grid_rejects_non_finite_bounds():
    for bounds in ((0.0, math.inf, 1.0), (0.0, 1.0, math.nan), (-math.inf, 0.0, 1.0)):
        with pytest.raises(ValueError):
            closed_grid(*bounds)


def test_closed_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        closed_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        closed_grid(1.0, 0.0, 0.1)


# -- EPR scan ---------------------------------------------------------------


def test_epr_scan_original_matches_qm_everywhere():
    report = run_epr_scan(GRID_37, "original")
    for theta in GRID_37:
        scalar = report.exact_results[theta_key(theta, "model_scalar")]
        assert abs(scalar + math.cos(theta)) <= 1e-12
        assert report.verdicts[f"theta={theta:.12g}:matches_qm"]
    assert report.gate_passed()


def test_epr_scan_qm_column_is_minus_cosine():
    report = run_epr_scan(GRID_37, "original")
    for theta in GRID_37:
        qm = report.qm_reference[theta_key(theta, "qm")]
        assert abs(qm + math.cos(theta)) <= 1e-12


def test_epr_scan_anticorrelated_has_wrong_sign():
    report = run_epr_scan(GRID_37, "anticorrelated")
    for theta in GRID_37:
        scalar = report.exact_results[theta_key(theta, "model_scalar")]
        qm = report.qm_reference[theta_key(theta, "qm")]
        assert abs(scalar - math.cos(theta)) <= 1e-12
        if abs(math.cos(theta)) > 1e-12:
            assert scalar * qm < 0.0
    assert report.gate_passed()


def test_epr_scan_records_residual_bivector():
    half_pi = GRID_37[18]
    report = run_epr_scan([0.0, half_pi], "original")
    assert report.exact_results[theta_key(0.0, "bivector_norm")] == 0.0
    residual = report.exact_results[theta_key(half_pi, "bivector_norm")]
    assert abs(residual - abs(math.sin(half_pi))) <= 1e-12
    scalar = report.exact_results[theta_key(half_pi, "model_scalar")]
    assert abs(scalar) <= 1e-12


def test_epr_scan_points_equal_to_12_digits_share_one_key():
    # 1 and 1 + 1e-13 both print as theta=1.  As in a dict, the key keeps
    # its first position and takes the last point's value.
    report = run_epr_scan([1.0, 1.0 + 1e-13], "original")
    fields = ("model_scalar", "model_bivector", "bivector_norm")
    assert list(report.exact_results) == [theta_key(1.0, f) for f in fields]
    last = run_epr_scan([1.0 + 1e-13], "original")
    assert report.exact_results == last.exact_results
    assert report.to_json().count('"theta=1:model_scalar"') == 1
    assert emit_csv(report) == emit_csv(last)


def test_epr_scan_repeated_labels_keep_numpy_columns_of_the_last_point():
    # 11 angles from 1 to 1 + 1e-12, which all print as theta=1: each grid
    # keeps one row, its columns still numpy arrays, holding the last point's values.
    angles = closed_grid(1.0, 1.000000000001, 1e-13)
    assert len(angles) == 11
    report, last = run_epr_scan(angles), run_epr_scan(angles[-1:])
    for name in ("exact_results", "qm_reference", "verdicts"):
        grids = [[b for b in getattr(r, name).blocks if isinstance(b, Grid)] for r in (report, last)]
        assert [len(g) for g in grids] == [1, 1]
        (got,), (want,) = grids
        assert got.labels == want.labels == ["theta=1"]
        assert list(got.columns) == list(want.columns)
        for field, column in got.columns.items():
            assert isinstance(column, np.ndarray), field
            assert column.dtype == want.columns[field].dtype
            assert np.array_equal(column, want.columns[field]), field


def test_epr_scan_rejects_empty_grid_and_bad_mode():
    with pytest.raises(ValueError):
        run_epr_scan([], "original")
    with pytest.raises(ValueError):
        run_epr_scan([0.0], "nonsense")
    for grid in (np.array([]), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            run_epr_scan(grid, "original")


@pytest.mark.parametrize("grid", [GRID_37, [0.0]], ids=["grid-37", "one-point"])
@pytest.mark.parametrize("mode", scenarios.modes("epr-scan"))
def test_epr_scan_takes_a_list_or_an_array(mode, grid):
    assert run_epr_scan(np.array(grid), mode).to_json() == run_epr_scan(grid, mode).to_json()


# -- CHSH ---------------------------------------------------------------


def test_chsh_report_values():
    report = run_chsh(samples=100_000, seed=42)
    assert abs(report.qm_reference["chsh"] - 2.0 * math.sqrt(2.0)) <= 1e-9
    model = report.exact_results["model_scalar_chsh"]
    assert abs(model - report.qm_reference["chsh"]) <= 1e-12
    static = report.mc_results["bell_static_chsh"]
    assert static.estimate <= 2.0 + 3.0 * static.standard_error
    assert report.gate_passed()


def test_chsh_exact_only_mode_skips_monte_carlo():
    report = run_chsh(samples=0, seed=1)
    assert report.mc_results == {}
    assert "bell_static_within_local_bound" not in report.verdicts
    assert report.gate_passed()


def test_chsh_rejects_negative_samples():
    with pytest.raises(ValueError):
        run_chsh(samples=-1)


# -- sequential measurements ---------------------------------------------


def test_sequential_clifford_identity_rule():
    report = run_sequential("clifford", UpdateRule.post_z(0.0))
    assert report.exact_results["P_zx"] == 1.0
    assert report.qm_reference["P_zx"] == pytest.approx(0.5, abs=1e-12)
    assert report.verdicts["P_zz_matches_qm"] is True
    assert report.verdicts["P_zx_matches_qm"] is False
    assert report.verdicts["defect_demonstrated"] is True
    assert report.gate_passed()


def test_sequential_clifford_half_flip_rule():
    report = run_sequential("clifford", UpdateRule.post_z(0.5))
    assert report.exact_results["P_zz"] == 0.5
    assert report.verdicts["P_zz_matches_qm"] is False
    assert report.verdicts["P_zx_matches_qm"] is True
    assert report.verdicts["defect_demonstrated"] is True
    assert report.gate_passed()


def test_sequential_parameters_record_samples_only_where_drawn():
    clifford = run_sequential("clifford", UpdateRule.post_z(0.0), samples=10_000)
    assert list(clifford.parameters) == ["model", "flip_prob_after_z"]
    static = run_sequential("bell-static", None, samples=10_000, seed=1)
    assert list(static.parameters) == ["model", "samples", "note"]
    assert static.parameters["samples"] == 10_000


def test_sequential_clifford_requires_rule():
    with pytest.raises(ValueError):
        run_sequential("clifford", None)


def test_sequential_rejects_unknown_model_and_small_samples():
    with pytest.raises(ValueError):
        run_sequential("bogus", None)
    with pytest.raises(ValueError):
        run_sequential("bell-static", None, samples=100)


def test_sequential_bell_static_third_measurement_fails():
    report = run_sequential("bell-static", None, samples=100_000, seed=42)
    assert report.exact_results["P_zxz"] == 1.0
    assert report.mc_results["P_zxz"].estimate == 1.0
    assert report.verdicts["P_zz_matches_qm"] is True
    assert report.verdicts["P_zx_matches_qm"] is True
    assert report.verdicts["P_zxz_matches_qm"] is False
    assert report.verdicts["third_measurement_defect"] is True
    assert report.gate_passed()


def test_sequential_bell_hemisphere_restores_qm():
    report = run_sequential("bell-hemisphere", None, samples=100_000, seed=42)
    est = report.mc_results["P_zxz"]
    assert abs(est.estimate - 0.5) <= 3.0 * est.standard_error
    assert est.standard_error <= 0.005
    for name in ("P_zz", "P_zx", "P_zxz"):
        assert report.verdicts[f"{name}_matches_qm"] is True
    assert report.gate_passed()
    assert "note" in report.parameters


# -- update rule search --------------------------------------------------


def test_update_rule_search_is_infeasible():
    report = search_update_rules(0.01)
    assert report.parameters["n_grid"] == 101
    assert report.exact_results["feasible_count"] == 0
    assert report.verdicts["feasible_set_empty"] is True
    assert report.gate_passed()


def test_update_rule_search_relaxed_controls():
    report = search_update_rules(0.01)
    assert report.exact_results["relaxed_repeat_count"] >= 1
    assert report.exact_results["relaxed_repeat_first"] == 0.0
    assert report.exact_results["relaxed_uniform_count"] >= 1
    assert abs(report.exact_results["relaxed_uniform_first"] - 0.5) <= 1e-9


@pytest.mark.parametrize("step", [0.03, 0.003, 0.07, 0.0999, 0.0123, 1e-4 * math.pi])
def test_update_rule_search_tries_one_half_on_an_off_lattice_grid(step):
    report = search_update_rules(step)
    grid = closed_grid(0.0, 1.0, step)
    assert not any(abs(p - 0.5) <= scenarios.FEASIBILITY_TOL for p in grid)
    labels = [key[:-len(":P_zz")] for key in report.exact_results if key.endswith(":P_zz")]
    assert labels == ["p=%.12g" % p for p in sorted([*grid, 0.5])]
    assert report.parameters["n_grid"] == len(grid) + 1
    assert report.exact_results["relaxed_uniform_first"] == 0.5
    assert report.verdicts["feasible_set_empty"] is True
    assert report.gate_passed()


def test_update_rule_search_validates_step():
    with pytest.raises(ValueError):
        search_update_rules(0.0)
    with pytest.raises(ValueError):
        search_update_rules(0.2)


# -- three-particle exhaustion ----------------------------------------------


def test_three_particle_search_summary():
    report = run_three_particle_search()
    assert report.exact_results["configurations_visited"] == 64
    assert report.exact_results["consistent_assignments"] == 0
    assert report.exact_results["control_consistent_count"] == 8
    assert report.verdicts["consistent_set_empty"] is True
    assert report.verdicts["control_consistent_nonempty"] is True
    assert report.gate_passed()


def test_three_particle_best_assignment_is_deterministic():
    report = run_three_particle_search()
    assert report.exact_results["best_err_total"] == 2.0
    assert report.exact_results["best_assignment"] == "+++/FFF"


def test_three_particle_forced_convention():
    report = run_three_particle_search()
    assert report.exact_results["forced_E_AC_alg"] == 1.0
    assert report.exact_results["forced_E_BC_alg"] == 1.0
    assert report.qm_reference["E_BC"] == pytest.approx(-1.0, abs=1e-12)
    assert report.verdicts["forced_ac_matches_qm"] is True
    assert report.verdicts["forced_bc_matches_qm"] is False


def test_three_particle_marginal_bookkeeping():
    report = run_three_particle_search()
    deterministic = [v for k, v in report.verdicts.items()
                     if k.endswith(":marginals_deterministic")]
    assert len(deterministic) == 64
    assert not any(deterministic)
    at_plus = [v for k, v in report.verdicts.items()
               if k.endswith(":pattern_at_mu_plus")]
    assert sum(at_plus) == 8


def test_three_particle_search_reads_each_meter_option_once():
    # 4 options: each leg at 2 hidden states, each ordered pair's expectation.
    with mock.patch.object(scenarios, "meter_outcome", wraps=scenarios.meter_outcome) as legs, \
            mock.patch.object(scenarios, "_algebraic_pair_expectation",
                              wraps=scenarios._algebraic_pair_expectation) as pairs:
        run_three_particle_search()
    assert (legs.call_count, pairs.call_count) == (8, 16)


def test_three_particle_algebraic_pairs_cannot_all_match():
    # Independent parity argument: each pairwise expectation is -dsX*dsY, so
    # the three multiply to -1 for any signs, while the quantum targets
    # (-1, +1, -1) multiply to +1; no assignment can close that gap.
    report = run_three_particle_search()
    for key in report.exact_results:
        if key.startswith("assign=") and key.endswith("E_AB_alg"):
            group = key.split(":")[0]
            product = (report.exact_results[f"{group}:E_AB_alg"]
                       * report.exact_results[f"{group}:E_AC_alg"]
                       * report.exact_results[f"{group}:E_BC_alg"])
            assert product == pytest.approx(-1.0, abs=1e-12)
    target = (report.qm_reference["E_AB"] * report.qm_reference["E_AC"]
              * report.qm_reference["E_BC"])
    assert target == pytest.approx(1.0, abs=1e-12)


# -- constraint check ----------------------------------------------------


def test_constraint_check_scenario_verdicts():
    pairs = [(EZ, EZ), (EZ, (1.0, 0.0, 0.0))]
    report = run_constraint_check(pairs)
    assert report.verdicts["pair[0]:commutator_zero"] is True
    assert report.verdicts["pair[1]:commutator_zero"] is False
    assert report.verdicts["pair[0]:normalization_holds"] is False
    assert report.verdicts["pair[1]:normalization_holds"] is False
    assert report.exact_results["pair[1]:square_scalar"] == -1.0
    assert report.verdicts["normalization_violated_for_all"] is True
    assert report.gate_passed()


def test_constraint_check_over_angle_grid():
    pairs = [(EZ, (math.sin(t), 0.0, math.cos(t))) for t in GRID_37]
    report = run_constraint_check(pairs)
    # theta = 0 and theta = pi are (anti)parallel and commute; the rest miss.
    assert report.exact_results["commutator_violations"] == 35
    assert report.exact_results["normalization_violations"] == 37
    assert report.gate_passed()


@pytest.mark.parametrize("pairs", [
    [],
    np.ones((2, 3)),
    np.ones((2, 2, 2)),
    [(EZ, EZ), (EZ, (1.0, 0.0, 1.0))],
    [(EZ, (0.0, 0.0, math.nan))],
], ids=["empty", "n-by-3", "n-by-2-by-2", "non-unit-b", "nan"])
def test_constraint_check_requires_pairs(pairs):
    with pytest.raises(ValueError):
        run_constraint_check(pairs)


def _dirs_xz(angles):
    """Reference for xz_scan's b half: the libm sin and cos of each angle,
    column-stacked around a zero y column."""
    sines, cosines = (np.fromiter(map(f, angles), float) for f in (math.sin, math.cos))
    return np.column_stack([sines, np.zeros(len(angles)), cosines])


def test_constraint_check_takes_pairs_or_an_array():
    pairs = [(EZ, b) for b in _dirs_xz(GRID_37).tolist()]
    assert run_constraint_check(pairs).to_json() == run_constraint_check(np.array(pairs)).to_json()


def test_constraint_check_zero_signs_give_the_same_flags_and_gate():
    # Every zero coordinate of a and b as 0.0, then as -0.0: the same directions.
    pairs = np.array([(EZ, EZ), (EZ, (0.0, 0.0, -1.0)), (EZ, (1.0, 0.0, 0.0)),
                      ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))])
    reports = [run_constraint_check(p) for p in (pairs, np.where(pairs == 0.0, -0.0, pairs))]
    groups = [f"pair[{i}]" for i in range(len(pairs))]
    assert [scenarios._parallel_pairs(r.parameters, groups).tolist() for r in reports] == [
        [True, True, False, False]] * 2
    assert reports[0].expected == reports[1].expected
    assert [r.gate_passed() for r in reports] == [True, True]
    assert reports[0].to_json() == reports[1].to_json()


def test_xz_scan_is_ez_with_the_dirs_xz_rows():
    want = np.array([(scenarios.E_Z, b) for b in _dirs_xz(GRID_37).tolist()])
    got = scenarios.xz_scan(GRID_37)
    assert got.shape == (37, 2, 3)
    assert got.tobytes() == want.tobytes()


# -- Bell toy model -----------------------------------------------------


def test_bell_toy_report():
    report = run_bell_toy(samples=100_000, seed=42)
    assert report.mc_results["static_third"].estimate == 1.0
    hemi = report.mc_results["hemisphere_third"]
    assert abs(hemi.estimate - 0.5) <= 3.0 * hemi.standard_error
    assert report.verdicts["static_third_fails_qm"] is True
    assert report.verdicts["hemisphere_third_matches_qm"] is True
    assert report.gate_passed()


def test_bell_toy_rejects_small_samples():
    with pytest.raises(ValueError):
        run_bell_toy(samples=10)


# -- report machinery ------------------------------------------------------


def test_reports_are_deterministic_given_seed():
    for make in (
        lambda: run_chsh(20_000, 7),
        lambda: run_sequential("bell-hemisphere", None, 20_000, 7),
        lambda: run_bell_toy(20_000, 7),
        lambda: run_epr_scan(GRID_37, "original"),
        lambda: run_three_particle_search(),
        lambda: search_update_rules(0.01),
    ):
        assert make().to_json() == make().to_json()


def test_reports_differ_for_different_seeds():
    a = run_chsh(20_000, 7)
    b = run_chsh(20_000, 8)
    assert a.to_json() != b.to_json()


def test_report_json_roundtrip():
    report = run_chsh(20_000, 7)
    import json

    parsed = json.loads(report.to_json())
    assert parsed == report.to_json_dict()
    rebuilt = ScenarioReport.from_json_dict(parsed)
    assert rebuilt.to_json_dict() == report.to_json_dict()


@settings(max_examples=500)
@given(st.one_of(st.floats(), st.floats(1e11, 1e17), st.floats(-1e17, -1e11),
                 st.floats(-1e-3, 1e-3)))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(1e12)
@example(999999999999.5)
@example(-66926478731690.96)
@example(1e16)
@example(1e-4)
@example(9.99999999999999e-5)
@example(1e-5)
def test_json_number_is_the_repr_of_the_rounded_value(x):
    assert _json_numbers([x]) == [json.dumps(float(f"{x:.12g}"))]


_FLOATS = st.floats(width=64)

# Coefficients whose text needs care: signed zeros, NaN of either sign bit,
# infinities, subnormals and a value that rounds at the 12th digit.
_SPECIAL = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, -1e-310, -1 / 3]


def _rendered(coeffs):
    return [oracles.ref_render(row) for row in coeffs.tolist()]


@pytest.mark.parametrize("blade", range(8))
def test_render_rows_of_one_live_blade_match_render(blade):
    coeffs = np.zeros((len(_SPECIAL), 8))
    coeffs[:, blade] = _SPECIAL
    assert render_rows(coeffs) == _rendered(coeffs)
    coeffs[:, blade] = -0.0  # a blade holding only -0.0 is not live
    assert render_rows(coeffs) == ["0"] * len(_SPECIAL)


@pytest.mark.parametrize("coeffs", [
    np.zeros((3, 8)), np.zeros((0, 8)),
    np.array([[-0.0, math.nan, 0.0, -math.inf, 5e-324, 0.0, -1e-310, 1.0],
              [0.0, -math.nan, -0.0, 0.0, -5e-324, 0.0, 0.0, -2.0],
              [0.0] * 8]),
], ids=["zeros", "empty", "several-blades"])
def test_render_rows_of_zero_and_several_blade_arrays_match_render(coeffs):
    assert render_rows(coeffs) == _rendered(coeffs)


@given(st.lists(st.lists(st.sampled_from(_SPECIAL) | _FLOATS, min_size=8, max_size=8),
                max_size=5))
def test_render_rows_match_render(rows):
    coeffs = np.array(rows, dtype=float).reshape(-1, 8)
    assert render_rows(coeffs) == _rendered(coeffs)
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(),
    st.sampled_from(['quote " and backslash \\', "tab\tnewline\n\x00\x1f", "π·ezx ∅"]),
    st.lists(_FLOATS, min_size=8, max_size=8).map(Multivector),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4),
                    st.lists(_SCALARS, max_size=4).map(tuple))
_KEYS = st.text(max_size=12)
_NUMBERS = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(-10 ** 6, 10 ** 6))


# Group labels and fields shared by every section, so that grids of
# different sections and grouped dict keys land on the same rows.
_LABELS = st.sampled_from(["p=0", "p=1e-05", "theta=3.14", "assign=+-+/NFN", "ctrl=+-/NF",
                           "pair[0]", "", "x.y", 'q"uote', "back\\slash", "tab\t", "π·"])
_FIELDS = st.sampled_from(["a", "b", "feasible", "consistent", "marginals_deterministic",
                           "pattern_at_mu_plus", "P_zz_matches_qm", "m:estimate", ""])
_GROUPED_KEYS = st.builds(lambda label, field: f"{label}:{field}", _LABELS, _FIELDS)
# (scenario_name, parameters.model) pairs with gate designations, and others.
_SCENARIOS = st.one_of(st.sampled_from(sorted((k for k, v in scenarios.REGISTRY.items() if v.gates),
                                              key=str)),
                       st.tuples(st.text(max_size=8), st.none()))


def _column(draw, n, verdicts):
    """One grid column of n values, as a list or any numpy column kind."""
    if verdicts:
        values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return draw(st.sampled_from([values, np.array(values, dtype=bool)]))
    kind = draw(st.sampled_from(["list", "float", "int", "bool", "coeffs"]))
    if kind == "list":
        return draw(st.lists(_SCALARS, min_size=n, max_size=n))
    if kind == "coeffs":
        return np.array(draw(st.lists(st.lists(_FLOATS, min_size=8, max_size=8),
                                      min_size=n, max_size=n))).reshape(n, 8)
    element = {"float": _FLOATS, "int": st.integers(-2 ** 63, 2 ** 63 - 1),
               "bool": st.booleans()}[kind]
    return np.array(draw(st.lists(element, min_size=n, max_size=n)),
                    dtype={"float": float, "int": np.int64, "bool": bool}[kind])


@st.composite
def _grids(draw, verdicts=False, shared=None):
    """A Grid over 1-3 labels, repeats allowed, of 1-3 distinct fields.  With
    a `shared` label list, the grid may hold that list object itself, as the
    grids of one runner's sections do, or a reordered copy of it."""
    fresh = st.lists(_LABELS, min_size=1, max_size=3)
    labels = draw(fresh if shared is None else st.one_of(fresh, st.just(shared),
                                                         st.permutations(shared)))
    names = draw(st.lists(_FIELDS, min_size=1, max_size=3, unique=True))
    return Grid(labels, {f: _column(draw, len(labels), verdicts) for f in names})


def _distinct(blocks):
    """The blocks less each dict entry, and each grid, holding a key that an
    earlier block holds: no key is in two blocks of a section."""
    seen, kept = set(), []
    for block in blocks:
        if isinstance(block, dict):
            block = {k: v for k, v in block.items() if k not in seen}
            keys = set(block)
        else:
            keys = {k for f in block.columns for k in _grid_keys(block, f)}
            if keys & seen:
                continue
        seen |= keys
        kept.append(block)
    return kept


def _section(values, verdicts=False, shared=None):
    """A section as a dict of plain and grouped keys, or a list of blocks."""
    entries = st.dictionaries(st.one_of(_KEYS, _GROUPED_KEYS), values, max_size=4)
    blocks = st.lists(st.one_of(entries, _grids(verdicts, shared)), max_size=3).map(_distinct)
    return st.one_of(entries, blocks)


_SECTIONS = ("parameters", "exact_results", "qm_reference", "verdicts")


def _plain(report):
    """The report with each section as a plain dict of its entries, which
    the references in tests/oracles.py read as they read a report."""
    return SimpleNamespace(**{**vars(report), **{
        name: dict(getattr(report, name)) for name in _SECTIONS}})


@st.composite
def _reports(draw):
    """(report, plain): a report built from drawn sections, and _plain of it.
    The grids of its sections may share one label list object."""
    name, model = draw(_SCENARIOS)
    shared = draw(st.lists(_LABELS, min_size=1, max_size=3))
    parameters = draw(_section(_VALUES, shared=shared))
    if model is not None:
        model_block = {"model": model}
        parameters = _distinct([model_block, *parameters]) if isinstance(parameters, list) else {
            **parameters, **model_block}
    report = ScenarioReport(
        scenario_name=name,
        parameters=parameters,
        exact_results=draw(_section(_VALUES, shared=shared)),
        mc_results=draw(st.dictionaries(st.one_of(_KEYS, _GROUPED_KEYS), st.builds(
            McResult, _NUMBERS, _NUMBERS,
            st.one_of(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9).map(np.int64))),
            max_size=3)),
        qm_reference=draw(_section(_VALUES, shared=shared)),
        verdicts=draw(_section(st.booleans(), verdicts=True, shared=shared)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )
    return report, _plain(report)


@st.composite
def _constraint_check_reports(draw):
    """constraint-check shaped reports, whose commutator_zero designation
    reads the parallel flag of each group from the parameters: from a grid
    over the verdicts' labels, or key by key from one in another order."""
    n = draw(st.integers(1, 4))
    labels = [f"pair[{i}]" for i in range(n)]
    coordinates = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.6, 2e-13, -4e-13])
    directions = np.zeros((2, n, 8))
    directions[..., 1:4] = np.reshape(draw(st.lists(coordinates, min_size=6 * n, max_size=6 * n)),
                                      (2, n, 3))
    pairs = Grid(draw(st.permutations(labels)), {"a": directions[0], "b": directions[1],
                                                 "parallel": _column(draw, n, True)})
    verdicts = Grid(labels, {f: _column(draw, n, True)
                             for f in ("commutator_zero", "normalization_holds")})
    as_dicts = draw(st.booleans())
    report = ScenarioReport(
        "constraint-check",
        dict(Section([pairs])) if as_dicts else [{"n_pairs": n}, pairs],
        {"commutator_violations": 0},
        verdicts=(dict(Section([verdicts])) if as_dicts
                  else [verdicts, {"normalization_violated_for_all": draw(st.booleans())}]),
    )
    return report, _plain(report)


@settings(max_examples=150)
@given(_reports())
def test_to_json_matches_the_json_dumps_reference(case):
    report, plain = case
    assert report.to_json() == oracles.ref_report_json(plain)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_reports(), _constraint_check_reports()))
def test_block_writers_match_the_dict_path_reference(case):
    report, plain = case
    # Every "<group>:<field>" key was filed in a Grid when the report was built.
    for section in (report.exact_results, report.qm_reference, report.verdicts):
        assert not any(":" in key for block in section.blocks if isinstance(block, dict)
                       for key in block)
    passed = report.gate_passed()
    got = emit_csv(report), emit_table(report, passed), passed
    assert got == (oracles.ref_emit_csv(plain), oracles.ref_emit_table(plain),
                   oracles.ref_gate_passed(plain))
    assert report.expected == {name: want for name, want in zip(
        plain.verdicts, oracles.ref_designations(plain)) if want is not scenarios.INFO}


@given(st.lists(st.sampled_from(_SPECIAL) | _FLOATS, min_size=8, max_size=8), st.integers(2, 4),
       st.booleans())
def test_writers_format_a_float_column_of_one_bit_pattern_as_each_value(row, n, flip_zeros):
    # Such a column is formatted once; a zero's sign changes the pattern, not the text.
    coeffs = np.array([row] * n, dtype=float)
    if flip_zeros:
        coeffs[-1][coeffs[-1] == 0.0] *= -1.0
    labels = [f"p={i}" for i in range(n)]
    report = ScenarioReport("s", [Grid(labels, {"v": coeffs, "x": coeffs[:, 0]})],
                            [Grid(labels, {"v": coeffs, "x": coeffs[:, 7]})])
    plain = _plain(report)
    assert report.to_json() == oracles.ref_report_json(plain)
    assert emit_csv(report) == oracles.ref_emit_csv(plain)
    assert emit_table(report, report.gate_passed()) == oracles.ref_emit_table(plain)


# -- streamed Monte Carlo -------------------------------------------------

MC_RUNNERS = {
    "chsh": run_chsh,
    "bell-static": lambda samples, seed: run_sequential("bell-static", None, samples, seed),
    "bell-hemisphere": lambda samples, seed: run_sequential("bell-hemisphere", None, samples, seed),
    "bell-toy": run_bell_toy,
}
PROPORTIONS = {"P_zz", "P_zx", "P_zxz", "hemisphere_support", "static_third", "hemisphere_third"}


@pytest.mark.parametrize("samples", [scenarios.MIN_MC_SAMPLES, CHUNK - 1, CHUNK, CHUNK + 1,
                                     3 * CHUNK + 5])
@pytest.mark.parametrize("scenario", MC_RUNNERS)
def test_streamed_mc_matches_whole_batch(scenario, samples):
    # Proportions are counts over the same draws, so they match exactly;
    # means and standard errors are summed in another order, so they match
    # to the 12 significant digits that reports print.  A chsh term is a
    # mean of +-1 products, exact in both.
    for seed in (42, 17, 3):
        got = MC_RUNNERS[scenario](samples, seed).mc_results
        want = oracles.ref_mc_results(scenario, samples, seed)
        assert list(got) == list(want)
        for name, (estimate, standard_error, n) in want.items():
            m = got[name]
            assert m.samples == n, name
            if name in PROPORTIONS:
                assert (m.estimate, m.standard_error) == (estimate, standard_error), name
                continue
            if scenario == "chsh":
                assert m.estimate == estimate, name
            assert (f"{m.estimate:.12g}", f"{m.standard_error:.12g}") == (
                f"{estimate:.12g}", f"{standard_error:.12g}"), name


# Traced Python peak of each runner at 1,000,000 samples: measured 2.63, 2.62,
# 2.76 and 3.68 MB with one reused lambda buffer per stream, plus a 0.8 MB margin.
MC_PEAK_BOUNDS = {"chsh": 3.5e6, "bell-static": 3.5e6, "bell-hemisphere": 3.5e6, "bell-toy": 4.5e6}


@pytest.mark.parametrize("scenario", MC_RUNNERS)
def test_mc_memory_does_not_grow_with_samples(scenario):
    peaks = []
    for samples in (100_000, 1_000_000):
        tracemalloc.start()
        try:
            MC_RUNNERS[scenario](samples, 42)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < MC_PEAK_BOUNDS[scenario], peaks
    assert abs(peaks[1] - peaks[0]) <= 1e6, peaks


def _traced_peak(make) -> int:
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each writer's traced peak on the 100,001-point search over the traced peak of
# splitting its own output into one string per line and joining them again, in
# the same interpreter: both peaks count mostly small str objects, whose size
# differs between Python versions.  The writers that built one string per line,
# before the slices, read 0.854 (JSON), 2.048 (CSV) and 1.962 (table) on
# Python 3.11; the bounds are those plus 10%.
WRITER_PEAK_RATIOS = {"json": 0.94, "csv": 2.25, "table": 2.16}


def test_writer_memory_on_the_largest_search():
    report = search_update_rules(1e-5)
    passed = report.gate_passed()
    writers = {"json": report.to_json, "csv": lambda: emit_csv(report),
               "table": lambda: emit_table(report, passed)}
    ratios = {}
    for name, write in writers.items():
        text = write()
        ratios[name] = _traced_peak(write) / _traced_peak(lambda: "\n".join(text.split("\n")))
    assert all(ratios[name] <= WRITER_PEAK_RATIOS[name] for name in writers), ratios


def test_gate_fails_when_expected_verdict_differs():
    data = run_chsh(samples=0).to_json_dict()
    data["verdicts"]["qm_chsh_at_tsirelson"] = False
    assert not ScenarioReport.from_json_dict(data).gate_passed()


@pytest.mark.slow
def test_exact_mc_agreement_across_seeds():
    # |estimate - exact| <= 4 SE must hold in at least 99 of 100 seeded runs.
    quantities = {
        "static_P_zx": lambda seed: (
            run_sequential("bell-static", None, 10_000, seed), "P_zx"),
        "hemisphere_P_zx": lambda seed: (
            run_sequential("bell-hemisphere", None, 10_000, seed), "P_zx"),
        "hemisphere_P_zxz": lambda seed: (
            run_sequential("bell-hemisphere", None, 10_000, seed), "P_zxz"),
    }
    for name, make in quantities.items():
        hits = 0
        for seed in range(100):
            report, key = make(seed)
            est = report.mc_results[key]
            exact = report.exact_results[key]
            if abs(est.estimate - exact) <= 4.0 * est.standard_error:
                hits += 1
        assert hits >= 99, f"{name}: {hits}/100 seeds within 4 standard errors"
