"""Every verdict of the 10 defaults is decided by one of two rules.

scenarios._close holds when a value is within a tolerance of its reference,
scenarios._within when a Monte Carlo estimate is within MC_Z standard errors
of it.  Each rule is forced, per tolerance for _close and per side for
_within, to hold everywhere and then nowhere, on each default whose run calls
it; a verdict whose value moves is one that rule decides.  DECIDED pins those
verdict fields (the part of a grid key after its group), and every verdict of
every default must move under some forcing.
"""

import ast
import inspect
from unittest import mock

import numpy as np
import pytest

from bellcheck import cli, scenarios
from bellcheck.report import _json_value

RULES = {"_close": scenarios._close, "_within": scenarios._within}
THRESHOLDS = ("EXACT_TOL", "FEASIBILITY_TOL", "MARGIN_TOL", "MC_Z")

EXACT, FEASIBILITY, MARGIN = scenarios.EXACT_TOL, scenarios.FEASIBILITY_TOL, scenarios.MARGIN_TOL

# (rule, tol or upper) -> "scenario[ mode]" -> the verdict fields it decides.
DECIDED = {
    ("_close", EXACT): {
        "epr-scan original": {"matches_qm", "all_points_as_predicted"},
        "epr-scan anticorrelated": {"wrong_sign", "all_points_as_predicted"},
        "chsh": {"model_scalar_chsh_matches_qm"},
        "sequential clifford": {"P_zz_matches_qm", "P_zx_matches_qm", "defect_demonstrated"},
        "sequential bell-static": {"P_zz_matches_qm", "P_zx_matches_qm", "P_zxz_matches_qm",
                                   "third_measurement_defect"},
        "sequential bell-hemisphere": {"P_zz_matches_qm", "P_zx_matches_qm", "P_zxz_matches_qm"},
        "three-particle": {"consistent", "forced_ac_matches_qm", "forced_bc_matches_qm",
                           "consistent_set_empty", "control_consistent_nonempty"},
        "constraint-check": {"commutator_zero", "normalization_holds",
                             "normalization_violated_for_all"},
    },
    ("_close", FEASIBILITY): {
        "chsh": {"qm_chsh_at_tsirelson"},
        "update-rule-search": {"feasible", "feasible_set_empty", "relaxed_repeat_nonempty",
                               "relaxed_uniform_nonempty"},
    },
    ("_close", MARGIN): {
        "bell-toy": {"hemisphere_mean_cos_ok", "hemisphere_transverse_ok"},
    },
    ("_close", 0.0): {
        "three-particle": {"pattern_at_mu_plus", "pattern_at_mu_minus", "marginals_deterministic",
                           "search_visited_declared_count"},
        "bell-toy": {"hemisphere_support_ok", "static_third_is_one"},
    },
    ("_within", False): {
        "sequential bell-static": {"P_zz_mc_matches_qm", "P_zx_mc_matches_qm",
                                   "P_zxz_mc_matches_qm"},
        "sequential bell-hemisphere": {"P_zz_mc_matches_qm", "P_zx_mc_matches_qm",
                                       "P_zxz_mc_matches_qm"},
        "bell-toy": {"static_third_fails_qm", "hemisphere_third_matches_qm"},
    },
    ("_within", True): {
        "chsh": {"bell_static_within_local_bound"},
    },
}


def _key(name: str, args, kwargs) -> tuple:
    """(rule, its tol or upper) of one call, defaults applied."""
    bound = inspect.signature(RULES[name]).bind(*args, **kwargs)
    bound.apply_defaults()
    return name, bound.arguments["tol" if name == "_close" else "upper"]


def _run(scenario: str, mode, decide) -> dict:
    """The verdicts of one default run with each rule's result ok replaced
    by decide(key, ok)."""
    def patch(name):
        real = RULES[name]
        return mock.patch.object(
            scenarios, name, lambda *a, **kw: decide(_key(name, a, kw), real(*a, **kw)))

    argv = ["run", scenario, "--seed", str(scenarios.DEFAULT_SEED)]
    with patch("_close"), patch("_within"):
        report = cli.run_scenario(cli.parse_args(argv + (["--mode", mode] if mode else [])))
    return dict(report.verdicts)


@pytest.fixture(scope="module")
def moved() -> dict:
    """(rule, tol or upper) -> label -> the verdict keys that move when the
    rule is forced to hold and then not to, plus None -> label -> every
    verdict key of that default."""
    table = {None: {}}
    for scenario, mode in scenarios.REGISTRY:
        label = scenario if mode is None else f"{scenario} {mode}"
        called = set()
        base = _run(scenario, mode, lambda key, ok: called.add(key) or ok)
        table[None][label] = set(base)
        for rule in called:
            keys = table.setdefault(rule, {}).setdefault(label, set())
            for held in (True, False):
                forced = _run(scenario, mode, lambda key, ok: ok if key != rule else
                              np.full_like(ok, held) if isinstance(ok, np.ndarray) else held)
                keys.update(k for k, v in forced.items() if v != base[k])
    return table


def test_each_rule_decides_its_pinned_fields(moved):
    decided = {rule: {label: {key.rpartition(":")[2] for key in keys}
                      for label, keys in by_label.items() if keys}
               for rule, by_label in moved.items() if rule is not None}
    assert decided == DECIDED


def test_every_verdict_of_every_default_is_decided_by_a_rule(moved):
    assert len(moved[None]) == len(scenarios.REGISTRY) == 10
    for label, keys in moved[None].items():
        ruled = set().union(*(by_label.get(label, set())
                              for rule, by_label in moved.items() if rule is not None))
        assert keys and ruled == keys, label


def test_close_gives_a_bool_for_scalars_and_a_mask_for_arrays():
    assert scenarios._close(1.0, 1.0 + 1e-13) is True
    assert scenarios._close(1.0, 1.0 + 1e-11) is False
    assert scenarios._close(float("nan"), 0.0, 1.0) is False
    assert scenarios._close(64, 64, 0.0) is True
    assert _json_value(scenarios._close(0.5, 0.5), "") == "true"
    mask = scenarios._close(np.array([[0.0, 1e-13], [0.0, 1e-9]]), 0.0)
    assert mask.dtype == bool and mask.tolist() == [[True, True], [True, False]]
    assert mask.all(axis=1).tolist() == [True, False]
    assert scenarios._close([1, -1, 1], (1, -1, 1), 0.0).tolist() == [True] * 3


def test_within_is_mc_z_standard_errors_two_sided_or_upper():
    m = scenarios.McResult(2.0 + 3.0 * 0.25, 0.25, 10_000)
    assert scenarios.MC_Z == 3.0
    assert scenarios._within(m, 2.0) is True and scenarios._within(m, 2.0, upper=True) is True
    assert scenarios._within(m, 2.0 - 1e-9) is False
    assert scenarios._within(m, 2.0 - 1e-9, upper=True) is False
    low = scenarios.McResult(1.0, 0.25, 10_000)
    assert scenarios._within(low, 2.0) is False and scenarios._within(low, 2.0, upper=True) is True
    assert list(inspect.signature(scenarios._within).parameters) == ["m", "reference", "upper"]


def test_thresholds_are_defined_once_and_read_only_by_the_rules():
    """Each threshold is assigned once, and read only inside _close or
    _within or as an argument of a _close call."""
    tree = ast.parse(inspect.getsource(scenarios))
    assigned = [t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name) and t.id in THRESHOLDS]
    assert sorted(assigned) == sorted(THRESHOLDS)
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name in RULES:
            continue
        passed = {id(arg) for call in ast.walk(func) if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Name) and call.func.id == "_close"
                  for arg in call.args}
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in THRESHOLDS:
                assert id(node) in passed, (func.name, node.id, node.lineno)
