"""Independent references used to cross-check the algebra kernel.

Cl(3) is faithfully represented on C^2 by sending the basis vectors to the
Pauli matrices; the geometric product becomes matrix multiplication.  The
eight blade matrices are orthonormal under Re tr(A^dag B)/2, so coefficients
can be recovered by projection.  Everything here is built from complex
matrices only, never from the package's integer product table.

`ref_report_json` is the reference for the report's JSON writer: each value
converted to plain JSON types, with reals rounded to 12 significant digits,
then laid out by the standard library's json.dumps.  `ref_emit_csv`,
`ref_emit_table` and `ref_gate_passed` are the references for the CSV and
table writers and the gate: they read the report's section dicts key by
key, where the program reads its blocks column by column.

`ref_coeff_norm`, `ref_unit_vector` and `ref_tensor` are the scalar forms
of `Multivector.coeff_norm`, `clifford.unit_vector` and `quantum.tensor`,
which are now calls of their batch forms: a left-to-right sum of squares,
the norm test on three floats, and one outer product per pair of factors.

`ref_random_unit_vectors` and `ref_hemisphere_samples` are the references for
the lambda samplers: np.linalg.norm of each normal triple, and the wrong
side of the hemisphere flipped by a boolean gather and scatter.

`ref_mc_results` is the reference for the streamed Monte Carlo runners: it
draws each batch of lambdas whole with the reference samplers, in the order
the runners draw their chunks, and takes proportions, means and standard
errors of whole arrays.
"""

import json
import math
import operator

import numpy as np

from bellcheck.clifford import BASIS_LABELS, Multivector
from bellcheck.report import Section
from bellcheck.scenarios import INFO, REGISTRY

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Same blade order as the package basis: 1, ex, ey, ez, exy, eyz, ezx, I.
BLADES = ((), (0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2))


def _blade_matrix(indices):
    mat = np.eye(2, dtype=complex)
    for i in indices:
        mat = mat @ _SIGMA[i]
    return mat


BASIS_MATS = tuple(_blade_matrix(b) for b in BLADES)


def matrix_from_coeffs(coeffs):
    return sum(c * b for c, b in zip(coeffs, BASIS_MATS))


def coeffs_from_matrix(mat):
    return tuple(float((np.trace(basis.conj().T @ mat) / 2.0).real)
                 for basis in BASIS_MATS)


def ref_product(x_coeffs, y_coeffs):
    """Geometric product via the matrix representation."""
    return coeffs_from_matrix(matrix_from_coeffs(x_coeffs) @ matrix_from_coeffs(y_coeffs))


def ref_table():
    """8x8 (index, sign) table rebuilt from the matrix representation."""
    index = [[0] * 8 for _ in range(8)]
    sign = [[0] * 8 for _ in range(8)]
    for i in range(8):
        ei = tuple(1.0 if k == i else 0.0 for k in range(8))
        for j in range(8):
            ej = tuple(1.0 if k == j else 0.0 for k in range(8))
            coeffs = ref_product(ei, ej)
            k = max(range(8), key=lambda idx: abs(coeffs[idx]))
            index[i][j] = k
            sign[i][j] = int(round(coeffs[k]))
    return index, sign


def table_product(index, sign, x_coeffs, y_coeffs):
    """Brute-force coefficient product driven by an (index, sign) table."""
    acc = [0.0] * 8
    for i in range(8):
        if x_coeffs[i] == 0.0:
            continue
        for j in range(8):
            if y_coeffs[j] == 0.0:
                continue
            acc[index[i][j]] += sign[i][j] * x_coeffs[i] * y_coeffs[j]
    return tuple(acc)


# Matrix products of every blade pair, projected back onto the blades.
_BLADE_PRODUCTS = [[coeffs_from_matrix(a @ b) for b in BASIS_MATS] for a in BASIS_MATS]


def ref_graded_product(x_coeffs, y_coeffs, keep):
    """Bilinear product that keeps, for each blade pair of grades r and s,
    the grade-k part of their matrix product where keep(r, s, k) holds.

    keep always true gives the geometric product, k == |r - s| the inner
    product and k == r + s the outer product."""
    acc = [0.0] * 8
    for i, bi in enumerate(BLADES):
        for j, bj in enumerate(BLADES):
            for k, c in enumerate(_BLADE_PRODUCTS[i][j]):
                if keep(len(bi), len(bj), len(BLADES[k])):
                    acc[k] += x_coeffs[i] * y_coeffs[j] * c
    return tuple(acc)


def ref_render(coeffs) -> str:
    """Multivector.render() text, term by term: "<coeff>·<blade>" terms in basis
    order, 12 significant digits, zero terms omitted, all-zero printed as "0"."""
    parts = [(c, label) for c, label in zip(coeffs, BASIS_LABELS) if c != 0.0]
    if not parts:
        return "0"
    out = []
    for pos, (coeff, label) in enumerate(parts):
        mag = f"{abs(coeff):.12g}·{label}"
        if pos == 0:
            out.append(("-" if coeff < 0 else "") + mag)
        else:
            out.append(("- " if coeff < 0 else "+ ") + mag)
    return " ".join(out)


def ref_coeff_norm(coeffs) -> float:
    """The square root of the squares summed left to right by sum()."""
    return math.sqrt(sum(map(operator.mul, coeffs, coeffs)))


def ref_unit_vector(components):
    """The unit-norm test within 1e-12 on a 3-vector; the vector as a tuple."""
    x, y, z = (float(c) for c in components)
    norm = math.sqrt(x * x + y * y + z * z)
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"vector {components!r} has norm {norm!r}, expected 1")
    return (x, y, z)


def ref_tensor(a, b):
    """Kronecker product of two vectors or two matrices from one outer product."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.multiply.outer(a, b)
    if a.ndim == 2:
        out = out.transpose(0, 2, 1, 3)
    out = out.reshape([m * n for m, n in zip(a.shape, b.shape)])
    if out.size > (64 if out.ndim == 2 else 8):
        raise ValueError("tensor product exceeds 3 spin-1/2 particles")
    return out


def _round12(x):
    return float(f"{x:.12g}")


def _convert(value):
    if isinstance(value, Multivector):
        return ref_render(value.coeffs)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _round12(float(value))
    if isinstance(value, (list, tuple)):
        return [_convert(v) for v in value]
    return value


def ref_report_json(report):
    """ScenarioReport.to_json() text, built through json.dumps."""
    doc = {
        "scenario_name": report.scenario_name,
        "parameters": {k: _convert(v) for k, v in report.parameters.items()},
        "exact_results": {k: _convert(v) for k, v in report.exact_results.items()},
        "mc_results": {
            k: {
                "estimate": _round12(m.estimate),
                "standard_error": _round12(m.standard_error),
                "samples": int(m.samples),
            }
            for k, m in report.mc_results.items()
        },
        "qm_reference": {k: _convert(v) for k, v in report.qm_reference.items()},
        "verdicts": dict(report.verdicts),
        "seed": int(report.seed),
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _text(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, Multivector):
        return ref_render(value.coeffs)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def ref_designations(report):
    """The designation of each verdict on its REGISTRY row, in verdict order."""
    variant = (report.scenario_name, report.parameters.get("model"))
    gates = next((v.gates for key, v in REGISTRY.items() if key == variant), {})
    wants = [gates.get(name.rpartition(":")[2], True) for name in report.verdicts]
    for rule in filter(callable, gates.values()):
        groups = [n.rpartition(":")[0] for n, w in zip(report.verdicts, wants) if w is rule]
        resolved = iter(rule(Section([dict(report.parameters)]), groups))
        wants = [next(resolved) if w is rule else w for w in wants]
    return wants


def ref_gate_passed(report) -> bool:
    return all(want is INFO or ok == want
               for ok, want in zip(report.verdicts.values(), ref_designations(report)))


def ref_split_groups(report):
    """Partition report entries into a table of per-group rows and a list
    of scenario-level (name, text) pairs.

    Keys "<group>:<field>" feed one row per group.  The table's header row
    is "point", the fields in order of first appearance, and "verdict" (the
    group's verdicts that hold); the table is empty when no key is grouped.
    """
    groups: dict[str, dict[str, str]] = {}
    fields: dict[str, None] = {}
    plain: list[tuple[str, str]] = []
    group_verdicts: dict[str, list[str]] = {}

    def add(entries):
        for key, text in entries:
            group, grouped, field_name = key.partition(":")
            if grouped:
                row = groups.get(group)
                if row is None:
                    row = groups[group] = {}
                row[field_name] = text
                fields[field_name] = None
            else:
                plain.append((key, text))

    add((key, _text(value)) for key, value in report.exact_results.items())
    for key, m in report.mc_results.items():
        sep = ":" if ":" in key else "."
        add(((f"{key}{sep}estimate", _text(m.estimate)),
             (f"{key}{sep}standard_error", _text(m.standard_error)),
             (f"{key}{sep}samples", str(m.samples))))
    # keep grouped fields as-is; label scenario-level ones as references
    add((key if ":" in key else f"qm.{key}", _text(value))
        for key, value in report.qm_reference.items())
    for key, value in report.verdicts.items():
        group, grouped, name = key.partition(":")
        if not grouped:
            plain.append((key, _text(value)))
        elif value:
            group_verdicts.setdefault(group, []).append(name)
    if not groups:
        return [], plain
    rows = [["point", *fields, "verdict"]]
    rows += ([group, *[row.get(f, "") for f in fields], ";".join(group_verdicts.get(group, ()))]
             for group, row in groups.items())
    return rows, plain


def ref_emit_csv(report) -> str:
    rows, plain = ref_split_groups(report)
    lines = [",".join(row) for row in rows]
    if rows and plain:
        lines.append("")
    if plain or not rows:
        lines.append("name,value")
        lines.extend(f"{name},{value}" for name, value in plain)
    return "\n".join(lines) + "\n"


def ref_emit_table(report) -> str:
    rows, plain = ref_split_groups(report)
    lines = [f"scenario: {report.scenario_name}", f"seed: {report.seed}", "parameters:"]
    for key, value in report.parameters.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(_text(v) for v in value)
        lines.append(f"  {key}: {_text(value)}")

    if rows:
        pad = "  ".join(f"{{:<{max(map(len, column))}}}" for column in zip(*rows)).format
        lines.append("")
        lines.extend(pad(*row).rstrip() for row in rows)

    if plain:
        lines.append("")
        lines.append("results:")
        for name, value in plain:
            lines.append(f"  {name}: {value}")

    lines.append("")
    lines.append(f"gate: {'PASS' if ref_gate_passed(report) else 'FAIL'}")
    if "consistent_assignments" in report.exact_results:
        count = int(report.exact_results["consistent_assignments"])
        lines.append(f"consistent assignments: {count}")
    return "\n".join(lines) + "\n"


# -- whole-batch Monte Carlo ------------------------------------------------

_EZ, _EX = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)


def _proportion(flags):
    n = int(flags.size)
    p = float(np.count_nonzero(flags)) / n
    return (p, math.sqrt(p * (1.0 - p) / n), n)


def _mean(values):
    n = int(values.size)
    return (float(np.mean(values)), float(np.std(values, ddof=1)) / math.sqrt(n), n)


def _sign_mean(a, b, lams):
    a_out = np.where(lams @ np.asarray(a) >= 0.0, 1, -1)
    b_out = -np.where(lams @ np.asarray(b) >= 0.0, 1, -1)
    return _mean((a_out * b_out).astype(float))


def _static_posterior(lam0):
    after_z = lam0[lam0[:, 2] >= 0.0]
    return after_z, after_z[after_z[:, 0] >= 0.0]


def ref_random_unit_vectors(rng, size):
    draws = rng.normal(size=(size, 3))
    norms = np.linalg.norm(draws, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        draws[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(draws, axis=1)
    return draws / norms[:, None]


def ref_hemisphere_samples(n, outcome, rng, size):
    lams = ref_random_unit_vectors(rng, size)
    wrong_side = (lams @ np.asarray(n)) * outcome < 0.0
    lams[wrong_side] = -lams[wrong_side]
    return lams


def _hemisphere_chain(lam0, rng):
    lam1 = ref_hemisphere_samples(_EZ, 1, rng, int(np.count_nonzero(lam0[:, 2] >= 0.0)))
    lam2 = ref_hemisphere_samples(_EX, 1, rng, int(np.count_nonzero(lam1[:, 0] >= 0.0)))
    return lam1, lam2


def ref_mc_results(scenario: str, samples: int, seed: int) -> dict:
    """name -> (estimate, standard_error, samples) of the Monte Carlo entries
    of "chsh", "bell-static", "bell-hemisphere" or "bell-toy", each batch
    drawn whole."""
    rng = np.random.default_rng(seed)
    if scenario == "chsh":
        a, a2, b, b2 = ((math.sin(t), 0.0, math.cos(t))
                        for t in (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4))
        pairs = {"E_ab": (a, b), "E_ab2": (a, b2), "E_a2b": (a2, b), "E_a2b2": (a2, b2)}
        out = {f"bell_static_{name}": _sign_mean(x, y, ref_random_unit_vectors(rng, samples))
               for name, (x, y) in pairs.items()}
        e_ab, e_ab2, e_a2b, e_a2b2 = (out[f"bell_static_{name}"][0] for name in pairs)
        s_se = math.sqrt(sum(se ** 2 for _, se, _ in out.values()))
        out["bell_static_chsh"] = (abs(e_ab - e_ab2) + abs(e_a2b + e_a2b2), s_se, samples)
        return out
    if scenario in ("bell-static", "bell-hemisphere"):
        lam0 = ref_random_unit_vectors(rng, samples)
        after_z, after_zx = (_static_posterior(lam0) if scenario == "bell-static"
                             else _hemisphere_chain(lam0, rng))
        return {"P_zz": _proportion(after_z[:, 2] >= 0.0),
                "P_zx": _proportion(after_z[:, 0] >= 0.0),
                "P_zxz": _proportion(after_zx[:, 2] >= 0.0)}
    if scenario != "bell-toy":
        raise ValueError(f"no Monte Carlo reference for {scenario!r}")
    lams = ref_hemisphere_samples(_EZ, 1, rng, samples)
    out = {"hemisphere_mean_cos": _mean(lams[:, 2]),
           "hemisphere_support": _proportion(lams[:, 2] > 0.0),
           "hemisphere_mean_transverse": _mean(lams[:, 0])}
    lam0 = ref_random_unit_vectors(rng, samples)
    out["static_third"] = _proportion(_static_posterior(lam0)[1][:, 2] >= 0.0)
    out["hemisphere_third"] = _proportion(_hemisphere_chain(lam0, rng)[1][:, 2] >= 0.0)
    return out
