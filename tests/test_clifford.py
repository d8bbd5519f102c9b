import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellcheck.clifford import (
    BASIS_BLADES,
    E_X,
    E_XY,
    E_Y,
    E_YZ,
    E_Z,
    E_ZX,
    GRADES,
    I_BLADE,
    ONE,
    PRODUCT_TERMS,
    QUATERNION_IMAGES,
    Multivector,
    batch_product,
    dot,
    even_subalgebra_iso_check,
    geometric_product,
    unit_vector,
    unit_vectors,
    wedge,
)

import oracles



def normalized(components):
    x, y, z = (float(c) for c in components)
    norm = math.sqrt(x * x + y * y + z * z)
    return (x / norm, y / norm, z / norm)


coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
multivectors = st.tuples(*([coeff] * 8)).map(Multivector)
directions = (
    st.tuples(coeff, coeff, coeff)
    .filter(lambda v: math.sqrt(sum(c * c for c in v)) > 1e-3)
    .map(normalized)
)


def mv_from(**slots):
    labels = ["s", "ex", "ey", "ez", "exy", "eyz", "ezx", "I"]
    coeffs = [0.0] * 8
    for name, value in slots.items():
        coeffs[labels.index(name)] = value
    return Multivector(tuple(coeffs))


# -- geometric product -------------------------------------------------------


def test_orthogonal_generators_anticommute_into_bivector():
    assert geometric_product(E_X, E_Y) == E_XY
    assert geometric_product(E_Y, E_X) == -E_XY


def test_pseudoscalar_squares_to_minus_one():
    assert geometric_product(I_BLADE, I_BLADE) == -ONE


def test_unit_vector_squares_to_scalar_one():
    assert geometric_product(E_X, E_X) == ONE


def test_product_table_matches_matrix_representation():
    for i, bi in enumerate(BASIS_BLADES):
        ei = tuple(1.0 if k == i else 0.0 for k in range(8))
        for j, bj in enumerate(BASIS_BLADES):
            ej = tuple(1.0 if k == j else 0.0 for k in range(8))
            assert geometric_product(bi, bj).coeffs == oracles.ref_product(ei, ej)


def test_table_entries_are_unit_signs():
    assert {sign for _, _, _, sign in PRODUCT_TERMS} <= {1, -1}
    for i in range(8):
        assert sorted(k for row, _, k, _ in PRODUCT_TERMS if row == i) == list(range(8))


@given(multivectors, multivectors, multivectors)
@settings(max_examples=200)
def test_associativity(x, y, z):
    lhs = geometric_product(geometric_product(x, y), z)
    rhs = geometric_product(x, geometric_product(y, z))
    assert max(map(abs, (lhs - rhs).coeffs)) <= 1e-10


@given(multivectors, multivectors)
def test_product_agrees_with_matrix_oracle(x, y):
    got = geometric_product(x, y).coeffs
    want = oracles.ref_product(x.coeffs, y.coeffs)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


@given(multivectors)
def test_pseudoscalar_is_central(x):
    diff = geometric_product(I_BLADE, x) - geometric_product(x, I_BLADE)
    assert max(map(abs, diff.coeffs)) <= 1e-12


def test_pseudoscalar_central_on_blades_exactly():
    for blade in BASIS_BLADES:
        diff = geometric_product(I_BLADE, blade) - geometric_product(blade, I_BLADE)
        assert max(map(abs, diff.coeffs)) == 0.0


@given(directions)
def test_vector_square_is_squared_norm(v):
    mv = Multivector((0.0, *v, 0.0, 0.0, 0.0, 0.0))
    norm_sq = sum(c * c for c in v)
    assert geometric_product(mv, mv).approx_eq(Multivector((norm_sq,) + (0.0,) * 7), 1e-12)


# -- batched product ---------------------------------------------------------

PRODUCTS = {
    "geometric": (geometric_product, lambda r, s, k: True),
    "dot": (dot, lambda r, s, k: k == abs(r - s)),
    "wedge": (wedge, lambda r, s, k: k == r + s),
}

# Rows with exact zeros and subnormals mixed in, so the scalar loop's zero
# skipping is hit.
sparse_coeff = st.one_of(st.just(0.0), st.just(-0.0), st.just(-5e-324), coeff)
coeff_rows = st.lists(st.tuples(*([sparse_coeff] * 8)), min_size=1, max_size=4)


@given(st.sampled_from(sorted(PRODUCTS)), coeff_rows, coeff_rows)
@settings(max_examples=200)
def test_batch_product_matches_scalar_bit_for_bit(product, xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    scalar, keep = PRODUCTS[product]
    rows = batch_product(np.array(xs), np.array(ys), product)
    assert rows.shape == (n, 8)
    for x, y, row in zip(xs, ys, rows.tolist()):
        want = scalar(Multivector(x), Multivector(y)).coeffs
        assert [c.hex() for c in row] == [c.hex() for c in want]
        ref = oracles.ref_graded_product(x, y, keep)
        assert max(abs(a - b) for a, b in zip(row, ref)) <= 1e-12
    # A lone (8,) row on either side broadcasts, its liveness read from itself.
    lone_x = batch_product(np.array(xs[0]), np.array(ys), product).tolist()
    lone_y = batch_product(np.array(xs), np.array(ys[0]), product).tolist()
    for got, x, y in [*zip(lone_x, [xs[0]] * n, ys), *zip(lone_y, xs, [ys[0]] * n)]:
        assert [c.hex() for c in got] == [c.hex() for c in scalar(Multivector(x), Multivector(y)).coeffs]


def test_batch_product_broadcasts_a_single_row():
    vectors = np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
    rows = batch_product(I_BLADE.coeffs, vectors, "dot")
    assert rows.tolist() == [list(E_YZ.coeffs), list(E_XY.coeffs)]


def test_batch_product_rejects_bad_shapes_and_names():
    with pytest.raises(ValueError):
        batch_product(np.zeros((2, 7)), np.zeros((2, 7)))
    with pytest.raises(ValueError):
        batch_product(np.zeros((2, 8)), np.zeros((3, 8)))
    with pytest.raises(ValueError):
        batch_product(np.zeros((2, 8)), np.zeros((2, 8)), "cross")


def test_unit_vectors_apply_the_scalar_norm_test():
    good = [(0.0, 0.0, 1.0), normalized((1.0, 2.0, 3.0))]
    assert unit_vectors(good).tolist() == [list(oracles.ref_unit_vector(v)) for v in good]
    for bad in ((0.0, 0.0, 1.001), (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0)):
        with pytest.raises(ValueError):
            unit_vector(bad)
        with pytest.raises(ValueError):
            unit_vectors([good[0], bad])
    with pytest.raises(ValueError):
        unit_vectors([0.0, 0.0, 1.0])


# -- grade projection --------------------------------------------------------


@given(multivectors)
def test_grade_projections_sum_to_identity(x):
    total = Multivector.zero()
    for k in range(4):
        part = x.grade(k)
        for idx, c in enumerate(part.coeffs):
            if c != 0.0:
                assert GRADES[idx] == k
        total = total + part
    assert total == x


# -- inner (grade-lowering) product ------------------------------------------


def test_dot_trivector_with_vector_is_full_product():
    assert dot(I_BLADE, E_Z) == E_XY
    assert dot(I_BLADE, E_X) == E_YZ


def test_dot_vector_with_itself_is_scalar():
    assert dot(E_X, E_X) == ONE


@given(directions)
def test_dot_equals_product_for_trivector_times_vector(n):
    # Both sides are the same pure bivector for mu = +-I.
    mv = Multivector((0.0, *n, 0.0, 0.0, 0.0, 0.0))
    for sign in (1.0, -1.0):
        mu = Multivector.pseudoscalar(sign)
        assert dot(mu, mv) == geometric_product(mu, mv)


# -- wedge ---------------------------------------------------------------


def test_wedge_orthogonal_vectors():
    assert wedge(E_X, E_Y) == E_XY


def test_wedge_self_is_zero():
    assert wedge(E_X, E_X) == Multivector.zero()


def test_wedge_in_plane_angle():
    theta = math.pi / 3
    b = Multivector((0.0, math.cos(theta), math.sin(theta), 0.0, 0.0, 0.0, 0.0, 0.0))
    expected = mv_from(exy=math.sin(theta))
    assert wedge(E_X, b).approx_eq(expected)


@given(directions, directions)
def test_wedge_antisymmetric_on_vectors(a, b):
    av, bv = (Multivector((0.0, *v, 0.0, 0.0, 0.0, 0.0)) for v in (a, b))
    assert max(map(abs, (wedge(av, bv) + wedge(bv, av)).coeffs)) <= 1e-12


# -- duality -----------------------------------------------------------------


def test_dual_examples():
    assert I_BLADE.dual() == ONE
    assert E_Z.dual() == -E_XY
    assert E_X.dual().dual() == -E_X


@given(multivectors)
def test_dual_involution_is_negation(x):
    assert max(map(abs, (x.dual().dual() + x).coeffs)) <= 1e-12


# -- reverse -----------------------------------------------------------------


def test_reverse_sign_rule():
    assert E_XY.reverse() == -E_XY
    assert I_BLADE.reverse() == -I_BLADE
    assert (ONE + E_X).reverse() == ONE + E_X


@given(multivectors, multivectors)
def test_reverse_antiautomorphism(x, y):
    lhs = geometric_product(x, y).reverse()
    rhs = geometric_product(y.reverse(), x.reverse())
    assert max(map(abs, (lhs - rhs).coeffs)) <= 1e-10


# -- cross product as the dual of the wedge ----------------------------------


def dual_wedge(a, b):
    """(a ^ b).dual() of two 3-vectors, checked to be a pure vector."""
    av, bv = (Multivector((0.0, *v, 0.0, 0.0, 0.0, 0.0)) for v in (a, b))
    via_duality = wedge(av, bv).dual()
    assert via_duality.grade(1) == via_duality
    return via_duality.coeffs[1:4]


def test_cross_product_examples():
    assert dual_wedge((1, 0, 0), (0, 1, 0)) == (0.0, 0.0, 1.0)
    assert dual_wedge((1, 0, 0), (1, 0, 0)) == (0.0, 0.0, 0.0)
    assert dual_wedge((1, 0, 0), (0, 0, 1)) == (0.0, -1.0, 0.0)


@given(directions, directions)
def test_cross_product_is_dual_of_wedge(a, b):
    got = dual_wedge(a, b)
    assert np.max(np.abs(np.array(got) - np.cross(a, b))) <= 1e-12


# -- quaternion even subalgebra ----------------------------------------------


def test_quaternion_product_table_exact():
    i, j, k = (QUATERNION_IMAGES[n] for n in ("i", "j", "k"))
    table = {
        (i, i): -ONE, (j, j): -ONE, (k, k): -ONE,
        (i, j): k, (j, i): -k,
        (j, k): i, (k, j): -i,
        (k, i): j, (i, k): -j,
    }
    for (a, b), want in table.items():
        assert geometric_product(a, b) == want


def test_iso_check_passes_and_detects_swapped_images():
    assert even_subalgebra_iso_check() is True
    swapped = dict(QUATERNION_IMAGES)
    swapped["j"], swapped["k"] = swapped["k"], swapped["j"]
    assert even_subalgebra_iso_check(images=swapped) is False


def _rotated(images, angle):
    rotor = ONE * math.cos(angle) - E_XY * math.sin(angle)
    return {name: rotor * image * rotor.reverse() for name, image in images.items()}


def test_iso_check_controls():
    for a, b in (("i", "j"), ("j", "k"), ("i", "k")):
        transposed = dict(QUATERNION_IMAGES)
        transposed[a], transposed[b] = transposed[b], transposed[a]
        assert even_subalgebra_iso_check(images=transposed) is False
    for name in ("i", "j", "k"):
        negated = dict(QUATERNION_IMAGES)
        negated[name] = -negated[name]
        assert even_subalgebra_iso_check(images=negated) is False
    # all three negated: the plain cyclic bivectors, an anti-isomorphism
    plain = {name: -image for name, image in QUATERNION_IMAGES.items()}
    assert plain == {"i": E_YZ, "j": E_ZX, "k": E_XY}
    assert even_subalgebra_iso_check(images=plain) is False
    # a rotated isomorphism, whose images are not +-single blades
    rotated = _rotated(QUATERNION_IMAGES, 0.35)
    assert sum(c != 0.0 for c in rotated["i"].coeffs) == 2
    assert even_subalgebra_iso_check(images=rotated) is True
    assert even_subalgebra_iso_check(images=_rotated(plain, 0.35)) is False


def test_iso_check_takes_images_only():
    assert list(inspect.signature(even_subalgebra_iso_check).parameters) == ["images"]


# -- vectors and rendering ---------------------------------------------------


def test_unit_vector_accepts_unit_and_rejects_others():
    assert unit_vector((0, 0, 1)) == (0.0, 0.0, 1.0)
    # The texts of unit_vectors: the vector's floats, and a shape for a wrong length.
    for bad, text in (((0, 0, 1.001), "vector (0.0, 0.0, 1.001) has norm 1.001, expected 1"),
                      ((0, 0, 0), "vector (0.0, 0.0, 0.0) has norm 0.0, expected 1"),
                      ((0, 1), "expected an (N, 3) array of vectors, got shape (1, 2)"),
                      ((0, 0, 1, 0), "expected an (N, 3) array of vectors, got shape (1, 4)")):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            unit_vector(bad)


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


# Coefficients with signed zeros, subnormals and the smallest normal among them.
edge_coeff = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                        -1e-310, 1.0, -1.0]),
                       st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True))


@given(st.lists(edge_coeff, min_size=8, max_size=8))
def test_coeff_norm_is_the_scalar_reference_bit_for_bit(coeffs):
    assert _bits(Multivector(coeffs).coeff_norm()) == _bits(oracles.ref_coeff_norm(coeffs))


def _outcome(fn, components):
    try:
        return _bits(fn(components))
    except ValueError:
        return "refused"


near_unit = st.tuples(directions, st.floats(min_value=1 - 4e-12, max_value=1 + 4e-12)).map(
    lambda pair: tuple(c * pair[1] for c in pair[0]))


@given(st.one_of(st.tuples(*[st.integers(-2, 2)] * 3), near_unit,
                 st.tuples(*[edge_coeff] * 3)))
def test_unit_vector_is_the_scalar_reference_bit_for_bit(components):
    assert _outcome(unit_vector, components) == _outcome(oracles.ref_unit_vector, components)


def test_vector_embedding_roundtrip():
    v = (0.3, -0.4, 0.5)
    mv = Multivector((0.0, *v, 0.0, 0.0, 0.0, 0.0))
    assert mv.grade(1) == mv
    assert mv.coeffs[1:4] == v


def test_render_format():
    assert Multivector.zero().render() == "0"
    assert mv_from(s=-1.0, exy=0.5).render() == "-1·s + 0.5·exy"
    assert mv_from(s=1.0, eyz=-0.25).render() == "1·s - 0.25·eyz"
    # 12 significant digits
    assert mv_from(ex=1 / 3).render() == "0.333333333333·ex"
    # -0.0 is a zero term; NaN is written unsigned, infinities and subnormals signed.
    assert mv_from(ex=-0.0).render() == "0"
    assert mv_from(ey=-math.inf, I=-math.nan).render() == "-inf·ey + nan·I"
    assert mv_from(s=math.inf, ez=-5e-324).render() == "inf·s - 4.94065645841e-324·ez"


def test_multivector_requires_eight_coefficients():
    with pytest.raises(ValueError):
        Multivector((1.0, 2.0))
