"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every tolerance is asserted, so a red test is a failed criterion.
"""

import math
import time

import numpy as np
import pytest

from bellcheck import quantum
from bellcheck.clifford import (
    BASIS_BLADES,
    E_XY,
    E_YZ,
    E_ZX,
    I_BLADE,
    ONE,
    Multivector,
    QUATERNION_IMAGES,
    even_subalgebra_iso_check,
    geometric_product,
)
from bellcheck.models import MeterModel, UpdateRule
from bellcheck.scenarios import (
    closed_grid,
    run_bell_toy,
    run_chsh,
    run_constraint_check,
    run_epr_scan,
    run_sequential,
    run_three_particle_search,
    search_update_rules,
)

import oracles

GRID_37 = closed_grid(0.0, math.pi, math.pi / 36)


def report(criterion, text):
    print(f"criterion {criterion}: PASS - {text}")


def test_criterion_1_algebra_kernel():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    mvs = [Multivector(tuple(rng.uniform(-1.0, 1.0, 8))) for _ in range(1000)]

    for idx in range(len(mvs) - 2):
        x, y, z = mvs[idx], mvs[idx + 1], mvs[idx + 2]
        assoc = geometric_product(geometric_product(x, y), z) - geometric_product(
            x, geometric_product(y, z))
        assert max(map(abs, assoc.coeffs)) <= 1e-10

    for x in mvs:
        central = geometric_product(I_BLADE, x) - geometric_product(x, I_BLADE)
        assert max(map(abs, central.coeffs)) <= 1e-10
        assert max(map(abs, (x.dual().dual() + x).coeffs)) <= 1e-10
    for blade in BASIS_BLADES:
        diff = geometric_product(I_BLADE, blade) - geometric_product(blade, I_BLADE)
        assert max(map(abs, diff.coeffs)) == 0.0
    assert geometric_product(I_BLADE, I_BLADE) == -ONE

    i, j, k = (QUATERNION_IMAGES[n] for n in ("i", "j", "k"))
    quaternion_table = {
        (i, i): -ONE, (j, j): -ONE, (k, k): -ONE,
        (i, j): k, (j, i): -k, (j, k): i, (k, j): -i, (k, i): j, (i, k): -j,
    }
    for (a, b), want in quaternion_table.items():
        assert geometric_product(a, b) == want
    assert even_subalgebra_iso_check()

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"algebra kernel checks took {elapsed:.2f}s"
    report(1, f"kernel laws on 1000 random multivectors in {elapsed:.2f}s")


def test_criterion_2_quantum_oracle():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        corr = quantum.singlet_correlation(tuple(a), tuple(b))
        assert abs(corr + float(a @ b)) <= 1e-12

    import itertools

    for length in (1, 2, 3, 4):
        dirs = []
        for _ in range(length):
            v = rng.normal(size=3)
            dirs.append(tuple(v / np.linalg.norm(v)))
        total = sum(
            quantum.sequential_probabilities(quantum.ket_z(1), dirs, list(out))
            for out in itertools.product((1, -1), repeat=length))
        assert abs(total - 1.0) <= 1e-12

    to_dir = lambda t: (math.sin(t), 0.0, math.cos(t))
    chsh = quantum.chsh_value(to_dir(0.0), to_dir(math.pi / 2),
                              to_dir(math.pi / 4), to_dir(3 * math.pi / 4))
    assert abs(chsh - 2.0 * math.sqrt(2.0)) <= 1e-9
    report(2, "singlet = -a.b (1000 pairs), trees sum to 1, CHSH = 2*sqrt(2)")


def test_criterion_3_two_particle_reproduction():
    scan = run_epr_scan(GRID_37, "original")
    assert len(GRID_37) == 37
    for theta in GRID_37:
        g = f"theta={theta:.12g}"
        scalar = scan.exact_results[f"{g}:model_scalar"]
        assert abs(scalar + math.cos(theta)) <= 1e-12
        residual = scan.exact_results[f"{g}:bivector_norm"]
        assert abs(residual - abs(math.sin(theta))) <= 1e-12
        assert f"{g}:model_bivector" in scan.exact_results
    assert scan.gate_passed()
    report(3, "scalar part equals -cos(theta) on the 37-point grid; "
              "grade-2 residual recorded")


def test_criterion_4_sign_flip_refutation():
    scan = run_epr_scan(GRID_37, "anticorrelated")
    for theta in GRID_37:
        g = f"theta={theta:.12g}"
        scalar = scan.exact_results[f"{g}:model_scalar"]
        qm = scan.qm_reference[f"{g}:qm"]
        assert abs(scalar - math.cos(theta)) <= 1e-12
        if abs(math.cos(theta)) > 1e-12:
            assert scalar * qm < 0.0
    assert scan.gate_passed()
    report(4, "anticorrelated meter flips the sign at every grid point")


def test_criterion_5_sequential_infeasibility():
    started = time.perf_counter()
    search = search_update_rules(0.01)
    assert search.exact_results["feasible_count"] == 0
    assert search.exact_results["relaxed_repeat_count"] >= 1
    assert search.exact_results["relaxed_uniform_count"] >= 1
    assert search.gate_passed()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(5, f"update-rule feasible set empty, controls nonempty, {elapsed:.2f}s")


def test_criterion_6_three_particle_exhaustion():
    started = time.perf_counter()
    search = run_three_particle_search()
    assert search.exact_results["configurations_visited"] == 64
    assert search.exact_results["consistent_assignments"] == 0
    assert search.exact_results["control_consistent_count"] >= 1
    assert search.verdicts["forced_ac_matches_qm"] is True
    assert search.verdicts["forced_bc_matches_qm"] is False
    assert search.gate_passed()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(6, f"64 assignments exhausted, none consistent, forced C splits "
              f"(A,C) pass / (B,C) fail, {elapsed:.2f}s")


def test_criterion_7_constraint_audit():
    pairs = [((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
             ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
             ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))]
    audit = run_constraint_check(pairs)
    assert audit.exact_results["pair[0]:commutator_norm"] == 0.0
    assert audit.exact_results["pair[1]:commutator_norm"] > 0.0
    for idx in range(len(pairs)):
        assert audit.exact_results[f"pair[{idx}]:square_scalar"] == -1.0

    # Independent brute force using only an 8x8 product table rebuilt from
    # the matrix representation.
    index, sign = oracles.ref_table()
    for idx, (a, b) in enumerate(pairs):
        comm = [0.0] * 8
        square = [0.0] * 8
        for mu_sign in (1, -1):
            mu = tuple([0.0] * 7 + [float(mu_sign)])
            av = oracles.table_product(index, sign, mu, (0.0, *a, 0.0, 0.0, 0.0, 0.0))
            bv = oracles.table_product(index, sign, mu, (0.0, *b, 0.0, 0.0, 0.0, 0.0))
            ab = oracles.table_product(index, sign, av, bv)
            ba = oracles.table_product(index, sign, bv, av)
            aa = oracles.table_product(index, sign, av, av)
            for k in range(8):
                comm[k] += (ab[k] - ba[k]) / 2.0
                square[k] += aa[k] / 2.0
        got_comm = audit.exact_results[f"pair[{idx}]:commutator"]
        got_square = audit.exact_results[f"pair[{idx}]:square"]
        assert got_comm.approx_eq(Multivector(tuple(comm)), 1e-12)
        assert got_square.approx_eq(Multivector(tuple(square)), 1e-12)
    report(7, "commutator/normalization averages match the independent "
              "table-driven brute force")


def test_criterion_8_bell_toy_model():
    started = time.perf_counter()
    toy = run_bell_toy(samples=100_000, seed=42)
    static = toy.mc_results["static_third"]
    assert static.estimate == 1.0
    assert abs(static.estimate - toy.exact_results["static_third"]) <= 3.0 * static.standard_error
    assert toy.verdicts["static_third_fails_qm"] is True
    hemi = toy.mc_results["hemisphere_third"]
    assert abs(hemi.estimate - 0.5) <= 3.0 * hemi.standard_error
    assert toy.gate_passed()

    chsh = run_chsh(samples=1_000_000, seed=42)
    static_chsh = chsh.mc_results["bell_static_chsh"]
    assert static_chsh.estimate <= 2.0 + 3.0 * static_chsh.standard_error
    assert chsh.gate_passed()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(8, f"static third-z pinned to 1 vs QM 1/2, hemisphere restores 1/2, "
              f"static CHSH <= 2 + 3se at 1e6 samples, {elapsed:.1f}s")


def test_criterion_9_determinism():
    runs = [
        lambda: run_chsh(20_000, 11),
        lambda: run_sequential("bell-hemisphere", None, 20_000, 11),
        lambda: run_sequential("clifford", UpdateRule.post_z(0.25)),
        lambda: run_bell_toy(20_000, 11),
        lambda: run_epr_scan(GRID_37, "anticorrelated"),
        lambda: run_three_particle_search(),
        lambda: search_update_rules(0.01),
        lambda: run_constraint_check([((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))]),
    ]
    for make in runs:
        first = make().to_json()
        second = make().to_json()
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
    report(9, "every scenario serializes byte-identically under a fixed seed")
