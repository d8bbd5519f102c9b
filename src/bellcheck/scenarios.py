"""Executable audits of the trivector hidden-variable model.

Each scenario compares a model prediction against the quantum reference and
compiles a ScenarioReport.  Averages over the two-point hidden state mu are
exact enumerations; only the continuous lambda of Bell's toy model is
estimated by seeded Monte Carlo, with standard errors reported.

Verdict booleans record comparison outcomes (does the model match the
reference?).  The gates of each REGISTRY row declare the value each must
take for the run to count as reproducing the documented behaviour, from the
report's own content, so a report read back from JSON gates the same way.

Report keys of the form "<group>:<field>" describe one grid point or one
searched configuration; plain keys are scenario-level values.  Report
sections are bellcheck.report Sections, given as a dict or as a list of
blocks; grid runners file whole columns as Grids, and the gate reads the
verdict blocks column by column.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import quantum
from .clifford import GRADES, ONE, Vec3, row_norms
from .models import (
    FLIPPED,
    MU_MINUS,
    MU_PLUS,
    NATURAL,
    MeterModel,
    UpdateRule,
    batch_constraint_check,
    batch_pair_product,
    expectation_over_mu,
    lambda_chunks,
    meter_outcome,
    pair_product,
)
from .report import Grid, Section, _grid_keys, _json_value

# Every verdict is decided by _close, within one of these tolerances, or by _within.
EXACT_TOL = 1e-12
FEASIBILITY_TOL = 1e-9
MARGIN_TOL = 0.01
MC_Z = 3.0

E_Z: Vec3 = (0.0, 0.0, 1.0)
E_X: Vec3 = (1.0, 0.0, 0.0)

BELL_UPDATE_NOTE = (
    "static-lambda results cover the sign observable of Eq. (9) in Bell, "
    "Physics 1, 195 (1964); the alternative observable of Eq. (4) there is "
    "said to avoid the repeated-measurement defect but is not modelled "
    "here, so that claim is unverified"
)


# Gate designation of a verdict that is reported but not gated.
INFO = None


def _close(got, reference, tol: float = EXACT_TOL):
    """|got - reference| <= tol, a bool for scalars and the mask for arrays."""
    ok = np.abs(np.subtract(got, reference)) <= tol
    return ok if isinstance(ok, np.ndarray) else bool(ok)


def _within(m: McResult, reference: float, upper: bool = False) -> bool:
    """m.estimate within MC_Z standard errors of reference; with `upper`, at most that far above."""
    bound = MC_Z * m.standard_error
    return bool(m.estimate <= reference + bound if upper else abs(m.estimate - reference) <= bound)


def _parallel_pairs(parameters: Section, groups: list[str]) -> np.ndarray | list:
    """The "parallel" flag that each "pair[i]" group records: the column of
    the grid of exactly these groups if there is one, else each group's own
    "pair[i]:parallel" entry."""
    for block in parameters.blocks:
        if isinstance(block, Grid) and "parallel" in block.columns and block.labels == groups:
            return block.columns["parallel"]
    return [parameters[f"{g}:parallel"] for g in groups]


class Variant(NamedTuple):
    """One scenario/mode: the flags it reads besides --seed, --format and
    --out, its runner on the parsed arguments, and its gate designations.

    gates maps a verdict to the value it must take for exit code 0, or INFO.
    A grouped verdict "<group>:<field>" is listed by its field, a plain one
    by its name; unlisted verdicts must be true.  A callable maps
    (parameters, groups carrying the field, or [""] for a plain verdict) to
    one value per group, each read from its own group."""

    flags: tuple[str, ...]
    run: Callable[..., ScenarioReport]
    gates: Mapping[str, object] = MappingProxyType({})


_EPR_SCAN = Variant(("--angles", "--mode"),
                    lambda c: run_epr_scan(closed_grid(*c.angles), c.mode))
_BELL_SEQUENTIAL = Variant(("--mode", "--samples"),
                           lambda c: run_sequential(c.mode, None, c.samples, c.seed))

# (scenario, mode) -> Variant; mode is None for scenarios without --mode, and
# a scenario's first mode listed is its default.  A report finds its row as
# (scenario_name, parameters.get("model")).
REGISTRY: dict[tuple[str, str | None], Variant] = {
    ("epr-scan", "original"): _EPR_SCAN,
    ("epr-scan", "anticorrelated"): _EPR_SCAN,
    ("chsh", None): Variant(("--samples",), lambda c: run_chsh(c.samples, c.seed)),
    ("sequential", "clifford"): Variant(
        ("--mode", "--flip-prob"),
        lambda c: run_sequential(c.mode, UpdateRule.post_z(c.flip_prob), c.samples, c.seed),
        {"P_zz_matches_qm": INFO, "P_zx_matches_qm": INFO}),
    ("sequential", "bell-static"): _BELL_SEQUENTIAL._replace(
        gates={"P_zxz_matches_qm": False, "P_zxz_mc_matches_qm": False}),
    ("sequential", "bell-hemisphere"): _BELL_SEQUENTIAL,
    ("three-particle", None): Variant((), lambda c: run_three_particle_search(), {
        "pattern_at_mu_plus": INFO, "pattern_at_mu_minus": INFO,
        "marginals_deterministic": False, "forced_bc_matches_qm": False,
        "consistent": lambda _, groups: [INFO if g.startswith("ctrl=") else False for g in groups],
    }),
    ("update-rule-search", None): Variant(
        ("--grid-step",), lambda c: search_update_rules(c.grid_step), {"feasible": False}),
    ("constraint-check", None): Variant(
        ("--angles",), lambda c: run_constraint_check(xz_scan(closed_grid(*c.angles))),
        {"commutator_zero": _parallel_pairs, "normalization_holds": False}),
    ("bell-toy", None): Variant(("--samples",), lambda c: run_bell_toy(c.samples, c.seed)),
}


def modes(scenario: str) -> tuple[str, ...]:
    """The modes of `scenario` in REGISTRY order, its default first; () if it has none."""
    return tuple(mode for name, mode in REGISTRY if name == scenario and mode is not None)


# Monte Carlo runners stream their draws, so this cap bounds their run time.
MAX_SAMPLES = 10_000_000
# Fewest samples behind a Monte Carlo estimate; only chsh may draw none.
MIN_MC_SAMPLES = 10_000

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 42
DEFAULT_GRID_STEP = 0.01


def xz_scan(angles: Sequence[float]) -> np.ndarray:
    """(N, 2, 3) direction pairs, row k (e_z, b) with b at angles[k] from e_z
    toward e_x in the x-z plane, from the libm sin and cos of each angle:
    the scan geometry of epr-scan, constraint-check and the CHSH angles."""
    n = len(angles)
    pairs = np.zeros((n, 2, 3))
    pairs[:, 0] = E_Z
    pairs[:, 1, 0], pairs[:, 1, 2] = (np.fromiter(map(f, angles), float, n)
                                      for f in (math.sin, math.cos))
    return pairs


# Grids are computed in one batched pass, so their size is capped up front.
MAX_GRID_POINTS = 1_000_000


def grid_points(start: float, stop: float, step: float) -> int:
    """The number of points of closed_grid(start, stop, step).  Rejects
    non-finite bounds, a step that is not positive, stop before start and
    grids of more than MAX_GRID_POINTS points with ValueError."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must not precede start")
    intervals = (stop - start) / step + 1e-9
    if intervals >= MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")
    return int(math.floor(intervals)) + 1


def closed_grid(start: float, stop: float, step: float) -> list[float]:
    """Grid start + k*step, k = 0..n-1, closed on both ends (no accumulation
    drift), validated by grid_points before anything is allocated.  Each
    point takes the IEEE operations of the float expression, so its bits."""
    return (start + np.arange(grid_points(start, stop, step)) * step).tolist()


@dataclass(frozen=True)
class McResult:
    """One Monte Carlo estimate; samples is the estimator's denominator."""

    estimate: float
    standard_error: float
    samples: int


def _agrees(values, want) -> bool:
    """Whether each value equals `want`, or its own entry of a list `want`, INFO aside."""
    if isinstance(want, list):
        return all(w is INFO or ok == w for ok, w in zip(values, want))
    return want is INFO or bool(np.all(np.equal(values, want)))


class ScenarioReport:
    """One run's report; mc_results maps names to McResult.  parameters,
    exact_results, qm_reference and verdicts are Sections, each given as a
    dict or as a list of blocks."""

    def __init__(self, scenario_name: str, parameters: dict | list,
                 exact_results: dict | list, mc_results: dict[str, McResult] | None = None,
                 qm_reference: dict | list | None = None, verdicts: dict | list | None = None,
                 seed: int = 0):
        self.scenario_name = scenario_name
        index: dict = {}  # a runner hands one label list to the grids of several sections
        self.parameters, self.exact_results, self.qm_reference, self.verdicts = (
            Section(s, index) for s in (parameters, exact_results, qm_reference, verdicts))
        self.mc_results = {} if mc_results is None else mc_results
        self.seed = seed

    def _designations(self) -> Iterable[tuple[Grid | dict, str, object, object]]:
        """(block, field, values, designation) of each verdict column, a
        plain verdict being a dict block's column of one.  A designation is
        True, False, INFO or a sequence of one of those per value."""
        # Matched by ==, as "model" may hold a list.  epr-scan reports record
        # meter_b_mode, not model, so they look up ("epr-scan", None): no row.
        variant = (self.scenario_name, self.parameters.get("model"))
        gates = next((v.gates for key, v in REGISTRY.items() if key == variant), {})
        for block in self.verdicts.blocks:
            grid = isinstance(block, Grid)
            for field, values in (block.columns.items() if grid
                                  else ((key, [ok]) for key, ok in block.items())):
                want = gates.get(field, True)
                if callable(want):
                    want = want(self.parameters, block.labels if grid else [""])
                yield block, field, values, want

    @property
    def expected(self) -> dict[str, bool]:
        """Gated verdict name -> value required for exit code 0, in verdict order."""
        wants = {}
        for block, field, _, want in self._designations():
            want = want.tolist() if isinstance(want, np.ndarray) else want
            wants.update(zip(_grid_keys(block, field) if isinstance(block, Grid) else [field],
                             want if isinstance(want, list) else itertools.repeat(want)))
        return {name: wants[name] for name in self.verdicts if wants[name] is not INFO}

    def gate_passed(self) -> bool:
        return all(_agrees(values, want) for _, _, values, want in self._designations())

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The 7-key report as JSON text, 2-space indent, non-ASCII unescaped."""
        return _json_value({
            "scenario_name": self.scenario_name,
            "parameters": self.parameters,
            "exact_results": self.exact_results,
            "mc_results": {k: {"estimate": float(m.estimate), "standard_error": float(m.standard_error),
                               "samples": int(m.samples)} for k, m in self.mc_results.items()},
            "qm_reference": self.qm_reference,
            "verdicts": self.verdicts,
            "seed": int(self.seed),
        }, "") + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioReport":
        sections = ("parameters", "exact_results", "qm_reference", "verdicts")
        return cls(data["scenario_name"], **{name: dict(data[name]) for name in sections},
                   mc_results={k: McResult(**m) for k, m in data["mc_results"].items()},
                   seed=data["seed"])


def _check_samples(samples: int, zero_ok: bool = False) -> None:
    """Reject a sample count outside MIN_MC_SAMPLES..MAX_SAMPLES, other than
    0 where `zero_ok` (chsh, which then skips its Monte Carlo part)."""
    if not (MIN_MC_SAMPLES <= samples <= MAX_SAMPLES or zero_ok and samples == 0):
        raise ValueError(f"samples must be <= {MAX_SAMPLES} and >= {MIN_MC_SAMPLES} "
                         "(chsh also takes 0)")


def _proportion(hits: int, n: int) -> McResult:
    if n == 0:
        raise ValueError("no samples left after conditioning")
    p = hits / n
    return McResult(p, math.sqrt(p * (1.0 - p) / n), n)


# ---------------------------------------------------------------------------
# EPR-Bohm correlation scan
# ---------------------------------------------------------------------------


def run_epr_scan(angle_grid: Sequence[float] | np.ndarray,
                 meter_b_mode: str = "original") -> ScenarioReport:
    """Exact averaged pair product against the singlet correlation -a.b.

    Mode "original" defines both meters as mu . n: the scalar part of the
    averaged product reproduces -cos(theta) at every angle, with a residual
    grade-2 term that the report records.  Mode "anticorrelated" forces
    B = -A, as perfect anticorrelation of individual outcomes demands; the
    scalar part then comes out as +cos(theta), the wrong sign wherever
    cos(theta) is nonzero.
    """
    if getattr(angle_grid, "ndim", 1) != 1 or not len(angle_grid):
        raise ValueError("angle grid must be a nonempty 1-D sequence or array")
    if meter_b_mode not in modes("epr-scan"):
        raise ValueError(f"meter_b_mode must be one of {modes('epr-scan')}")

    meter_a = MeterModel()
    meter_b = MeterModel(def_sign=1 if meter_b_mode == "original" else -1)

    angles = np.asarray(angle_grid, dtype=float).tolist()
    a_dirs, b_dirs = xz_scan(angles).transpose(1, 0, 2)
    averaged_rows = expectation_over_mu(
        lambda mu: batch_pair_product(meter_a, meter_b, a_dirs, b_dirs, mu))
    # Multivector.grade(2), row by row.
    bivector_rows = np.where(np.equal(GRADES, 2), averaged_rows, 0.0)
    qm_values = quantum.batch_singlet_correlation(a_dirs, b_dirs)
    scalars = averaged_rows[:, 0]
    verdict = "matches_qm" if meter_b_mode == "original" else "wrong_sign"
    oks = _close(scalars, qm_values if meter_b_mode == "original" else b_dirs[:, 2])
    groups = ["theta=%.12g" % t for t in angles]

    return ScenarioReport(
        scenario_name="epr-scan",
        parameters={
            "meter_b_mode": meter_b_mode,
            "meter_a_def_sign": meter_a.def_sign,
            "meter_b_def_sign": meter_b.def_sign,
            "n_points": len(angles),
            "angles": angles,
        },
        exact_results=[Grid(groups, {"model_scalar": scalars, "model_bivector": bivector_rows,
                                     "bivector_norm": row_norms(bivector_rows)})],
        qm_reference=[Grid(groups, {"qm": qm_values})],
        verdicts=[Grid(groups, {verdict: oks}), {"all_points_as_predicted": bool(oks.all())}],
    )


# ---------------------------------------------------------------------------
# CHSH at the canonical angles
# ---------------------------------------------------------------------------

CHSH_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)  # a, a', b, b'


def _algebraic_pair_expectation(ma: MeterModel, mb: MeterModel,
                                a: Vec3 = E_Z, b: Vec3 = E_Z) -> float:
    """Scalar part of the pair product of two meters, averaged over mu."""
    return expectation_over_mu(
        lambda mu: pair_product(ma, mb, a, b, mu)).scalar_part


def _static_sign_correlation(a: Vec3, b: Vec3, lams: np.ndarray) -> int:
    """Rows of a chunk of shared lambdas where sign(a.lam) and sign(b.lam)
    agree, so that the product sign(a.lam) * (-sign(b.lam)) reads -1."""
    return int(np.count_nonzero((lams @ np.asarray(a) >= 0.0) == (lams @ np.asarray(b) >= 0.0)))


def _sign_mean(agree: int, n: int) -> McResult:
    """Mean and standard error of n products of +-1 readings, `agree` of them -1."""
    return McResult((n - 2 * agree) / n, math.sqrt(4 * agree * (n - agree) / (n - 1)) / n, n)


def run_chsh(samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> ScenarioReport:
    """CHSH combination at a = 0, a' = 90deg, b = 45deg, b' = 135deg.

    Records the quantum value (2*sqrt(2)), the exactly enumerated scalar
    part of the trivector model (identical, since that scalar equals -a.b),
    and a Monte Carlo CHSH for the static-lambda sign model, which as a
    local deterministic model must respect the bound 2.
    """
    _check_samples(samples, zero_ok=True)
    a, a2, b, b2 = map(tuple, xz_scan(CHSH_ANGLES)[:, 1].tolist())
    pairs = {"E_ab": (a, b), "E_ab2": (a, b2), "E_a2b": (a2, b), "E_a2b2": (a2, b2)}

    qm = quantum.chsh_value(a, a2, b, b2)

    meter = MeterModel()
    model_chsh = quantum.chsh_combination(
        *(_algebraic_pair_expectation(meter, meter, x, y) for x, y in pairs.values()))

    tsirelson = 2.0 * math.sqrt(2.0)
    mc: dict[str, McResult] = {}
    verdicts = {"qm_chsh_at_tsirelson": _close(qm, tsirelson, FEASIBILITY_TOL),
                "model_scalar_chsh_matches_qm": _close(model_chsh, qm)}
    if samples > 0:
        rng = np.random.default_rng(seed)
        terms = {name: _sign_mean(sum(_static_sign_correlation(x, y, lams)
                                      for lams in lambda_chunks(rng, samples)), samples)
                 for name, (x, y) in pairs.items()}
        mc.update((f"bell_static_{name}", term) for name, term in terms.items())
        s_est = quantum.chsh_combination(*(term.estimate for term in terms.values()))
        s_se = math.sqrt(sum(t.standard_error ** 2 for t in terms.values()))
        mc["bell_static_chsh"] = chsh = McResult(s_est, s_se, samples)
        verdicts["bell_static_within_local_bound"] = _within(chsh, 2.0, upper=True)

    return ScenarioReport(
        scenario_name="chsh",
        parameters={"samples": samples, "angles": list(CHSH_ANGLES)},
        exact_results={"model_scalar_chsh": model_chsh},
        mc_results=mc,
        qm_reference={"chsh": qm, "local_bound": 2.0, "tsirelson_bound": tsirelson},
        verdicts=verdicts,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Sequential measurements on a single particle
# ---------------------------------------------------------------------------


def _sequential_qm_refs() -> dict[str, float]:
    def up(*axes: Vec3) -> float:  # P(up along each axis in turn | +z state)
        return quantum.sequential_probabilities(quantum.ket_z(1), list(axes), [1] * len(axes))
    return {"P_zz": up(E_Z, E_Z) / up(E_Z), "P_zx": up(E_Z, E_X) / up(E_Z),
            "P_zxz": up(E_Z, E_X, E_Z) / up(E_Z, E_X)}


def _static_posterior(lam0: np.ndarray) -> tuple[int, int]:
    """Rows of a chunk of static lambdas that read up along z, and of those
    the rows that then read up along x, and so along z again."""
    z_up = lam0[:, 2] >= 0.0
    return int(np.count_nonzero(z_up)), int(np.count_nonzero(z_up & (lam0[:, 0] >= 0.0)))


def _redraw_counts(rng: np.random.Generator, z_up: int) -> tuple[int, int, int]:
    """How many lam1, drawn around z after each of z_up z-up readings, read up along
    z and along x, and how many lam2, drawn around x after each x-up lam1, along z."""
    zz, zx = sum((np.count_nonzero(lam1[:, [2, 0]] >= 0.0, axis=0)
                  for lam1 in lambda_chunks(rng, z_up, E_Z)), np.zeros(2, int)).tolist()
    return zz, zx, sum(int(np.count_nonzero(lam2[:, 2] >= 0.0))
                       for lam2 in lambda_chunks(rng, zx, E_X))


def run_sequential(model: str = "clifford",
                   rule: UpdateRule | None = None,
                   samples: int = DEFAULT_SAMPLES,
                   seed: int = DEFAULT_SEED) -> ScenarioReport:
    """Repeated measurements z then {x or z} on one "up along z" particle.

    clifford: the hidden state after the first measurement is mu with the
    update rule applied, so P(z then z both up) and P(z then x both up) are
    both 1 - flip_prob: no rule reaches the quantum pair (1, 1/2).  The z/x
    choice is the experimenter's, so the rule cannot depend on it.  No
    samples are drawn, so the parameters record no sample count.

    bell-static / bell-hemisphere: the sign model with a fixed lambda keeps
    the first two conditionals right but forces the third z outcome after a
    ++ history, where a hemisphere redraw around each measured axis restores
    the quantum 1/2.
    """
    if model not in modes("sequential"):
        raise ValueError(f"model must be one of {modes('sequential')}")

    qm_ref = _sequential_qm_refs()
    exact, mc, verdicts, parameters = {}, {}, {}, {"model": model}

    if model == "clifford":
        if rule is None:
            raise ValueError("the clifford model needs an update rule")
        p_flip = rule.prob(1, "z")
        parameters["flip_prob_after_z"] = p_flip
        exact["P_zz"] = exact["P_zx"] = 1.0 - p_flip
        qm_ref.pop("P_zxz")
    else:
        _check_samples(samples)
        parameters.update(samples=samples, note=BELL_UPDATE_NOTE)
        rng = np.random.default_rng(seed)
        static = model == "bell-static"
        # Static lambda: signs of lambda components are independent for
        # orthogonal axes, so the first two conditionals are exact by symmetry
        # while the third is pinned to 1.  The hemisphere redraw around each
        # measured axis restores the third to 1/2.
        exact.update(P_zz=1.0, P_zx=0.5, P_zxz=1.0 if static else 0.5)
        z_up, zx_up = map(sum, zip(*map(_static_posterior, lambda_chunks(rng, samples))))
        zz, zx, zxz = (z_up, zx_up, zx_up) if static else _redraw_counts(rng, z_up)
        mc.update(P_zz=_proportion(zz, z_up), P_zx=_proportion(zx, z_up),
                  P_zxz=_proportion(zxz, zx))

    for name, value in exact.items():
        verdicts[f"{name}_matches_qm"] = _close(value, qm_ref[name])
        if name in mc:
            verdicts[f"{name}_mc_matches_qm"] = _within(mc[name], qm_ref[name])
    if model == "clifford":
        verdicts["defect_demonstrated"] = not all(verdicts.values())
    elif model == "bell-static":
        verdicts["third_measurement_defect"] = not verdicts["P_zxz_matches_qm"]
    return ScenarioReport("sequential", parameters, exact, mc, qm_ref, verdicts, seed)


# ---------------------------------------------------------------------------
# Exhaustive search over post-measurement update rules
# ---------------------------------------------------------------------------


def search_update_rules(grid_step: float = DEFAULT_GRID_STEP) -> ScenarioReport:
    """Grid search over the flip probability applied after a z measurement.

    The particle leaves the first z measurement in the state mu = +I (the
    "up" outcome was selected), so the only parameter that can influence the
    second outcome is the post-z flip probability p: both follow-up
    probabilities equal 1 - p exactly.  The joint quantum targets
    {P(z up again) = 1, P(x up) = 1/2} require p = 0 and p = 1/2 at once,
    and the exhaustive grid confirms the feasible set is empty.  Two relaxed
    target pairs act as controls for the search machinery itself.
    """
    if not 0.0 < grid_step <= 0.1:
        raise ValueError("grid_step must be in (0, 0.1]")

    p = np.array(closed_grid(0.0, 1.0, grid_step))
    # The one p the targets single out, 1/2, is tried on every grid: inserted
    # at its sorted place when no grid point is within FEASIBILITY_TOL of it.
    if not _close(p, 0.5, FEASIBILITY_TOL).any():
        p = np.insert(p, np.searchsorted(p, 0.5), 0.5)
    p_zz = p_zx = 1.0 - p

    def meets(zz: float, zx: float) -> np.ndarray:
        return _close(p_zz, zz, FEASIBILITY_TOL) & _close(p_zx, zx, FEASIBILITY_TOL)

    oks = meets(1.0, 0.5)
    feasible, relaxed_repeat, relaxed_uniform = (
        p[mask].tolist() for mask in (oks, meets(1.0, 1.0), meets(0.5, 0.5)))
    groups = ["p=%.12g" % t for t in p.tolist()]

    exact = {"feasible_count": len(feasible),
             "relaxed_repeat_count": len(relaxed_repeat),
             "relaxed_uniform_count": len(relaxed_uniform)}
    for name, hits in (("relaxed_repeat", relaxed_repeat), ("relaxed_uniform", relaxed_uniform)):
        if hits:
            exact[f"{name}_first"] = hits[0]
    return ScenarioReport(
        scenario_name="update-rule-search",
        parameters={"grid_step": grid_step, "n_grid": len(p),
                    "targets": "P_zz=1 and P_zx=0.5"},
        exact_results=[Grid(groups, {"P_zz": p_zz, "P_zx": p_zx}), exact],
        qm_reference={"P_zz": 1.0, "P_zx": 0.5},
        verdicts=[Grid(groups, {"feasible": oks}), {
            "feasible_set_empty": not feasible,
            "relaxed_repeat_nonempty": bool(relaxed_repeat),
            "relaxed_uniform_nonempty": bool(relaxed_uniform),
        }],
    )


# ---------------------------------------------------------------------------
# Three-particle sign-convention exhaustion
# ---------------------------------------------------------------------------

_METER_OPTIONS = (
    MeterModel(1, NATURAL), MeterModel(1, FLIPPED),
    MeterModel(-1, NATURAL), MeterModel(-1, FLIPPED),
)


def _assignment_code(meters: Sequence[MeterModel]) -> str:
    ds = "".join("+" if m.def_sign == 1 else "-" for m in meters)
    interp = "".join("N" if m.interp == NATURAL else "F" for m in meters)
    return f"{ds}/{interp}"


def run_three_particle_search() -> ScenarioReport:
    """Exhaust every sign convention against the product state pattern +-+.

    The searched space is def_sign in {+1,-1} and leg interpretation in
    {natural, flipped} per meter (64 assignments), with the shared hidden
    state uniform on {+I, -I}.  Consistency is judged on the algebraic pair
    expectations (scalar part of the averaged geometric product), which is
    how the model computes correlations: those equal -dsX*dsY per pair and
    can never hit the targets (-1, +1, -1) for (A,B), (A,C), (B,C), since
    the three products multiply to -1 while the targets multiply to +1.
    Interpreted +-1 outcome expectations and the per-mu outcome patterns
    are recorded alongside; a two-meter control over pattern +- shows that
    pair-by-pair fixes do exist, and the forced third-meter convention
    C(+-I) = -+ I e_z repairs (A,C) while breaking (B,C).
    """
    pattern, pairs = (1, -1, 1), ("AB", "AC", "BC")
    qm_ref = {f"E_{p}": quantum.product_state_correlation(pattern, tuple(map("ABC".index, p)), E_Z)
              for p in pairs}
    qm_ref["control_E_AB"] = quantum.product_state_correlation((1, -1), (0, 1), E_Z)
    # The model is read once per meter option: its legs at each mu, and its
    # pair expectations over ordered option pairs as 4 x 4 tables.
    legs = {mu: np.array([meter_outcome(m, E_Z, mu) for m in _METER_OPTIONS])
            for mu in (MU_PLUS, MU_MINUS)}
    alg = np.array([[_algebraic_pair_expectation(x, y) for y in _METER_OPTIONS]
                    for x in _METER_OPTIONS])
    out = expectation_over_mu(lambda mu: np.multiply.outer(legs[mu], legs[mu]))

    # Row k: the option indices of the k-th assignment, in product order.
    searched = np.array(list(itertools.product(range(len(_METER_OPTIONS)), repeat=3)))
    codes = [_assignment_code(meters) for meters in itertools.product(_METER_OPTIONS, repeat=3)]
    firsts, seconds = searched[:, [0, 0, 1]].T, searched[:, [1, 2, 2]].T  # AB, AC, BC rows
    alg_pairs, out_pairs = alg[firsts, seconds], out[firsts, seconds]
    targets = [[qm_ref[f"E_{p}"]] for p in pairs]
    errors = np.abs(alg_pairs - targets)
    exact = {}
    for p, pair_alg, pair_out in zip(pairs, alg_pairs, out_pairs):
        exact[f"E_{p}_alg"], exact[f"E_{p}_out"] = pair_alg, pair_out
    exact["err_total"] = errors[0] + errors[1] + errors[2]
    consistent = _close(alg_pairs, targets).all(axis=0)
    at_plus, at_minus = (_close(legs[mu][searched], pattern, 0.0).all(axis=1) for mu in legs)
    control = alg.ravel()  # row-major: the order of the ordered meter pairs
    control_ok = _close(control, qm_ref["control_E_AB"])

    # The repaired convention: A natural (option 0), B same sign but flipped
    # legs (option 1), C with the opposite definition sign and flipped legs (3).
    forced_ac, forced_bc = alg[[0, 1], 3].tolist()
    best_total, best_code = min(zip(exact["err_total"].tolist(), codes))  # codes are unique
    best = codes.index(best_code)

    assign = [f"assign={code}" for code in codes]
    ctrl = ["ctrl=" + _assignment_code(pair)
            for pair in itertools.product(_METER_OPTIONS, repeat=2)]
    return ScenarioReport(
        scenario_name="three-particle",
        parameters={"pattern": "+-+", "direction": "ez",
                    "search_space": len(_METER_OPTIONS) ** 3},
        exact_results=[Grid(assign, exact), Grid(ctrl, {"E_AB_alg": control}), {
            "forced_E_AC_alg": forced_ac,
            "forced_E_BC_alg": forced_bc,
            "configurations_visited": len(searched),
            "consistent_assignments": int(np.count_nonzero(consistent)),
            "control_consistent_count": int(np.count_nonzero(control_ok)),
            "best_assignment": best_code,
            **{f"best_err_{p}": err for p, err in zip(pairs, errors[:, best].tolist())},
            "best_err_total": best_total,
        }],
        qm_reference=qm_ref,
        verdicts=[Grid(assign, {
            "pattern_at_mu_plus": at_plus,
            "pattern_at_mu_minus": at_minus,
            "marginals_deterministic": at_plus & at_minus,
            "consistent": consistent,
        }), Grid(ctrl, {"consistent": control_ok}), {
            "forced_ac_matches_qm": _close(forced_ac, qm_ref["E_AC"]),
            "forced_bc_matches_qm": _close(forced_bc, qm_ref["E_BC"]),
            "consistent_set_empty": not consistent.any(),
            "control_consistent_nonempty": bool(control_ok.any()),
            "search_visited_declared_count": _close(len(searched), 64, 0.0),
        }],
    )


# ---------------------------------------------------------------------------
# Commutator / normalization audit
# ---------------------------------------------------------------------------


def run_constraint_check(direction_pairs) -> ScenarioReport:
    """Exact commutator and square averages of the MeterModel() reading for
    each (a, b) direction pair, given as a sequence or an (N, 2, 3) array.

    A viable model needs a vanishing averaged commutator for all pairs and
    a squared observable averaging to +1; here the commutator misses for
    every non-parallel pair and the square averages to the scalar -1
    always, both recorded as data.
    """
    pairs = np.asarray(direction_pairs, dtype=float)
    if not pairs.size:
        raise ValueError("need at least one direction pair")
    if pairs.shape[1:] != (2, 3):
        raise ValueError(f"expected an (N, 2, 3) array of direction pairs, got shape {pairs.shape}")

    meter = MeterModel()
    a, b = pairs.transpose(1, 0, 2)
    audit = batch_constraint_check(meter, meter, a, b)
    # Every coefficient within EXACT_TOL, row by row, of zero for the
    # commutator and of the scalar 1 for the square.
    commutes = _close(audit.commutator_avg, 0.0).all(axis=1)
    normalized_ok = _close(audit.square_avg, ONE.coeffs).all(axis=1)

    groups = [f"pair[{i}]" for i in range(len(pairs))]
    # a and b as grade-1 coefficients, and whether they are parallel or
    # antiparallel: every coefficient 2(a x b)_k within EXACT_TOL of zero.
    a_rows, b_rows = np.pad((a, b), ((0, 0), (0, 0), (1, 4)))
    parallel = _close(2.0 * np.cross(a, b), 0.0).all(axis=1)
    return ScenarioReport(
        scenario_name="constraint-check",
        parameters=[{"meter_a_def_sign": meter.def_sign, "meter_b_def_sign": meter.def_sign,
                     "n_pairs": len(pairs)},
                    Grid(groups, {"a": a_rows, "b": b_rows, "parallel": parallel})],
        exact_results=[Grid(groups, {"commutator": audit.commutator_avg,
                                     "commutator_norm": row_norms(audit.commutator_avg),
                                     "square": audit.square_avg,
                                     "square_scalar": audit.square_avg[:, 0]}),
                       {"commutator_violations": int(np.count_nonzero(~commutes)),
                        "normalization_violations": int(np.count_nonzero(~normalized_ok))}],
        qm_reference={"commutator_target": 0.0, "square_target": 1.0},
        verdicts=[Grid(groups, {"commutator_zero": commutes, "normalization_holds": normalized_ok}),
                  {"normalization_violated_for_all": not normalized_ok.any()}],
    )


# ---------------------------------------------------------------------------
# Bell toy model behaviour
# ---------------------------------------------------------------------------


def run_bell_toy(samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> ScenarioReport:
    """Hemisphere-update postulate checks plus the third-measurement contrast.

    Validates the hemisphere sampler marginals (mean of n.lambda = 1/2 on
    the selected side, full support on that side, azimuthal symmetry), then
    compares the static and hemisphere variants on P(z up | history ++):
    the static posterior pins the answer to 1 while the redraw recovers the
    quantum 1/2.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)

    qm_third = _sequential_qm_refs()["P_zxz"]
    exact = {"hemisphere_mean_cos": 0.5, "hemisphere_support": 1.0,
             "hemisphere_mean_transverse": 0.0, "static_third": 1.0, "hemisphere_third": 0.5}

    # Mean z and x components and their summed squared deviations m2, merged
    # by the pairwise update of Chan, Golub & LeVeque, Amer. Statist. 37, 242 (1983).
    n, means, m2, support = 0, 0.0, 0.0, 0
    for lams in lambda_chunks(rng, samples, E_Z):
        k, cols = len(lams), lams[:, [2, 0]]
        delta = cols.mean(axis=0) - means
        m2 = m2 + k * cols.var(axis=0) + delta ** 2 * (n * k / (n + k))
        n, means = n + k, means + delta * (k / (n + k))
        support += int(np.count_nonzero(lams[:, 2] > 0.0))
    del lams, cols  # lams, the last chunk, holds the stream's buffer: free it before the next draws
    cos, transverse = (McResult(float(m), math.sqrt(s / (n - 1)) / math.sqrt(n), n)
                       for m, s in zip(means, m2))
    z_up, zx_up = map(sum, zip(*map(_static_posterior, lambda_chunks(rng, samples))))
    _, zx, zxz = _redraw_counts(rng, z_up)
    static, hemisphere = _proportion(zx_up, zx_up), _proportion(zxz, zx)
    mc = {"hemisphere_mean_cos": cos, "hemisphere_support": _proportion(support, samples),
          "hemisphere_mean_transverse": transverse, "static_third": static,
          "hemisphere_third": hemisphere}
    return ScenarioReport(
        scenario_name="bell-toy",
        parameters={"samples": samples, "pole": "ez", "note": BELL_UPDATE_NOTE},
        exact_results=exact,
        mc_results=mc,
        qm_reference={"P_third": qm_third},
        verdicts={
            "hemisphere_mean_cos_ok": _close(cos.estimate, 0.5, MARGIN_TOL),
            "hemisphere_support_ok": _close(mc["hemisphere_support"].estimate, 1.0, 0.0),
            "hemisphere_transverse_ok": _close(transverse.estimate, 0.0, MARGIN_TOL),
            "static_third_is_one": _close(static.estimate, 1.0, 0.0),
            "static_third_fails_qm": not _within(static, qm_third),
            "hemisphere_third_matches_qm": _within(hemisphere, qm_third),
        },
        seed=seed,
    )
