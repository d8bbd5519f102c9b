"""Named defects for the gate-power tests.

Each defect patches one shipped function or designation and names the run
it touches and the gated verdicts that run must then flip, no more and no
fewer.  tests/test_gate_power.py runs them.
"""

import dataclasses
from unittest import mock

import numpy as np

from bellcheck import cli, models, quantum, scenarios
from bellcheck.clifford import ONE
from bellcheck.report import _fmt_all

# The default constraint-check grid: 37 pairs (e_z, b(k pi/36)), of which
# pair[0] and pair[36] are parallel and antiparallel.
PAIRS = [f"pair[{i}]" for i in range(37)]

# The three-particle assignments whose legs read the pattern +-+ at mu = +I.
PATTERN_AT_MU_PLUS = ["+++/NFN", "++-/NFF", "+-+/NNN", "+--/NNF",
                      "-++/FFN", "-+-/FFF", "--+/FNN", "---/FNF"]

# The default epr-scan groups other than theta = pi/2 (index 18), where the
# correlation cos(theta) is within 1e-12 of 0 and so of its own negation.
THETAS = [f"theta={t}" for i, t in
          enumerate(_fmt_all(scenarios.closed_grid(*cli.DEFAULTS["angles"]))) if i != 18]


def _forced(average: str, row):
    """The audit kernel with one average replaced by `row` for every pair."""
    real = scenarios.batch_constraint_check

    def defect(*args):
        audit = real(*args)
        return dataclasses.replace(audit, **{average: np.full_like(getattr(audit, average), row)})
    return mock.patch.object(scenarios, "batch_constraint_check", defect)


def _patched(name: str, defect, module=models):
    """<module>.<name> replaced by defect(real, *args)."""
    real = getattr(module, name)
    return mock.patch.object(module, name, lambda *args: defect(real, *args))


def _full_sphere():
    """hemisphere_samples drawing on the full sphere, ignoring its pole."""
    return _patched("hemisphere_samples",
                    lambda real, pole, rng, out: models.random_unit_vectors(rng, out))


# name -> (argv after "run", patch factory, gated verdicts it must flip)
DEFECTS = {
    "constraint-check-commutator-forced-to-zero": (
        ["constraint-check"], lambda: _forced("commutator_avg", 0.0),
        {f"{p}:commutator_zero" for p in PAIRS[1:-1]}),
    "constraint-check-square-forced-to-one": (
        ["constraint-check"], lambda: _forced("square_avg", ONE.coeffs),
        {f"{p}:normalization_holds" for p in PAIRS} | {"normalization_violated_for_all"}),
    # The registry row holds the designation function itself, so patch its entry.
    "constraint-check-commutator_zero-designated-false": (
        ["constraint-check"], lambda: mock.patch.dict(
            scenarios.REGISTRY["constraint-check", None].gates,
            commutator_zero=lambda _, groups: [False] * len(groups)),
        {f"{PAIRS[0]}:commutator_zero", f"{PAIRS[-1]}:commutator_zero"}),
    # Legs that ignore mu read the same pattern at both hidden states.
    "three-particle-leg-ignores-mu": (
        ["three-particle"],
        lambda: _patched("effective_outcome", lambda real, n, mu: real(n, models.MU_PLUS)),
        {f"assign={code}:marginals_deterministic" for code in PATTERN_AT_MU_PLUS}),
    # Every reading as MeterModel()'s makes each pair expectation -1.
    "three-particle-reading-ignores-meter": (
        ["three-particle"],
        lambda: _patched("observable_value",
                         lambda real, meter, n, mu: real(models.MeterModel(), n, mu)),
        {"forced_ac_matches_qm", "forced_bc_matches_qm"}),
    "epr-scan-oracle-sign-flipped": (
        ["epr-scan"],
        lambda: _patched("batch_singlet_correlation", lambda real, a, b: -real(a, b), quantum),
        {f"{t}:matches_qm" for t in THETAS} | {"all_points_as_predicted"}),
    "epr-scan-anticorrelated-meter-b-read-as-a": (
        ["epr-scan", "--mode", "anticorrelated"],
        lambda: _patched("batch_pair_product",
                         lambda real, ma, mb, a, b, mu: real(ma, ma, a, b, mu), scenarios),
        {f"{t}:wrong_sign" for t in THETAS} | {"all_points_as_predicted"}),
    # Lambdas drawn on the full sphere: half of them read n.lambda < 0.
    "bell-toy-full-sphere-sampler": (
        ["bell-toy"], _full_sphere, {"hemisphere_mean_cos_ok", "hemisphere_support_ok"}),
    # Every step along the first axis: the quantum pair becomes (1, 1), which
    # the clifford rule reaches, so no defect shows.
    "sequential-oracle-measures-along-first-axis": (
        ["sequential"],
        lambda: _patched("sequential_probabilities",
                         lambda real, state, axes, outcomes:
                         real(state, [axes[0]] * len(axes), outcomes), quantum),
        {"defect_demonstrated"}),
    "sequential-bell-static-x-sign-read-from-z": (
        ["sequential", "--mode", "bell-static"],
        lambda: _patched("_static_posterior", lambda real, lam0: real(lam0[:, [2, 1, 2]]),
                         scenarios),
        {"P_zx_mc_matches_qm"}),
    "sequential-bell-hemisphere-full-sphere-redraw": (
        ["sequential", "--mode", "bell-hemisphere"], _full_sphere, {"P_zz_mc_matches_qm"}),
    "chsh-meter-b-read-along-z": (
        ["chsh"],
        lambda: _patched("pair_product",
                         lambda real, ma, mb, a, b, mu: real(ma, mb, a, scenarios.E_Z, mu),
                         scenarios),
        {"model_scalar_chsh_matches_qm"}),
    # Each CHSH term draws its own lambdas, so one lambda per term makes each
    # term +-1 on its own; at the default seed the four read S = 4.
    "chsh-one-static-lambda-for-every-row": (
        ["chsh"],
        lambda: _patched("_static_sign_correlation",
                         lambda real, a, b, lams: real(a, b, np.broadcast_to(lams[:1], lams.shape)),
                         scenarios),
        {"bell_static_within_local_bound"}),
    # p = 0 is the one grid point where both follow-up probabilities are 1.
    "update-rule-search-grid-drops-its-start": (
        ["update-rule-search"],
        lambda: _patched("closed_grid", lambda real, *bounds: real(*bounds)[1:], scenarios),
        {"relaxed_repeat_nonempty"}),
}
