"""Independent references used to cross-check the algebra kernel.

Cl(3) is faithfully represented on C^2 by sending the basis vectors to the
Pauli matrices; the geometric product becomes matrix multiplication.  The
eight blade matrices are orthonormal under Re tr(A^dag B)/2, so coefficients
can be recovered by projection.  Everything here is built from complex
matrices only, never from the package's integer product table.

`ref_report_json` is the reference for the report's JSON writer: each value
converted to plain JSON types, with reals rounded to 12 significant digits,
then laid out by the standard library's json.dumps.
"""

import json

import numpy as np

from bellcheck.clifford import Multivector

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


def _round12(x):
    return float(f"{x:.12g}")


def _convert(value):
    if isinstance(value, Multivector):
        return value.render()
    if isinstance(value, bool):
        return value
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
