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
        ["bell-toy"],
        lambda: _patched("hemisphere_samples",
                         lambda real, pole, rng, out: models.random_unit_vectors(rng, out)),
        {"hemisphere_mean_cos_ok", "hemisphere_support_ok"}),
}
