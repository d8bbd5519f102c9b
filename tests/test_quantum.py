import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellcheck import quantum, scenarios

import oracles

EZ = (0.0, 0.0, 1.0)
EX = (1.0, 0.0, 0.0)


def random_direction(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


# -- spin operators ------------------------------------------------------


def test_spin_op_z_is_diagonal():
    assert np.allclose(quantum.spin_op(EZ), np.diag([1, -1]))


def test_spin_op_x_is_offdiagonal():
    assert np.allclose(quantum.spin_op(EX), np.array([[0, 1], [1, 0]]))


def test_spin_op_diagonal_direction_has_unit_eigenvalues():
    n = tuple(c / math.sqrt(3.0) for c in (1.0, 1.0, 1.0))
    eigenvalues = np.linalg.eigvalsh(quantum.spin_op(n))
    assert np.allclose(sorted(eigenvalues), [-1.0, 1.0], atol=1e-12)


def test_spin_op_properties(rng):
    for _ in range(50):
        op = quantum.spin_op(random_direction(rng))
        assert np.allclose(op, op.conj().T)
        assert abs(np.trace(op)) <= 1e-12
        assert np.allclose(op @ op, np.eye(2), atol=1e-12)


def test_spin_op_rejects_non_unit():
    with pytest.raises(ValueError):
        quantum.spin_op((0.0, 0.0, 2.0))


# -- tensor ---------------------------------------------------------------


def test_tensor_identity():
    assert np.allclose(quantum.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_computational_basis_order():
    state = quantum.tensor(quantum.ket_z(1), quantum.ket_z(-1))
    assert np.allclose(state, [0, 1, 0, 0])


def test_tensor_equals_np_kron_bit_for_bit(rng):
    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for _ in range(50):
        for a, b in ((draw(2), draw(2)), (draw(4), draw(2)),
                     (draw(2, 2), draw(2, 2)), (draw(4, 4), draw(2, 2))):
            assert quantum.tensor(a, b).tobytes() == np.kron(a, b).tobytes()
            assert quantum.tensor(a, b).shape == np.kron(a, b).shape


# Entries with signed zeros and subnormals among them, as complex pairs.
entry = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1.0, -1.0]),
                  st.floats(min_value=-1e100, max_value=1e100))


def complex_arrays(*shape):
    size = 2 * math.prod(shape)
    return st.lists(entry, min_size=size, max_size=size).map(
        lambda xs: np.array(xs).view(complex).reshape(shape))


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.tuples(complex_arrays(2, 2), complex_arrays(2, 2)),
                 st.tuples(complex_arrays(4, 4), complex_arrays(2, 2)),
                 st.tuples(complex_arrays(2), complex_arrays(2)),
                 st.tuples(complex_arrays(4), complex_arrays(2))))
def test_tensor_is_the_outer_product_reference_bit_for_bit(pair):
    got, want = quantum.tensor(*pair), oracles.ref_tensor(*pair)
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(complex_arrays(n, 2, 2),
                                                     complex_arrays(n, 2, 2))))
def test_tensor_of_stacks_is_the_reference_row_by_row(stacks):
    a, b = stacks
    got = quantum.tensor(a, b)
    assert got.shape == (len(a), 4, 4)
    assert got.tobytes() == b"".join(oracles.ref_tensor(x, y).tobytes() for x, y in zip(a, b))


def test_tensor_refuses_more_than_three_particles():
    for a, b in ((np.ones(8), np.ones(2)), (np.eye(8), np.eye(2)), (np.eye(4), np.eye(4)),
                 (np.ones((3, 4, 4)), np.ones((3, 4, 4))), (np.ones((3, 8, 8)), np.ones((3, 2, 2)))):
        with pytest.raises(ValueError, match="exceeds 3 spin-1/2 particles"):
            quantum.tensor(a, b)
    assert quantum.tensor(np.ones((3, 4, 4)), np.ones((3, 2, 2))).shape == (3, 8, 8)


def test_tensor_eigenstate():
    op = quantum.tensor(quantum.spin_op(EZ), quantum.spin_op(EZ))
    state = quantum.tensor(quantum.ket_z(1), quantum.ket_z(-1))
    assert np.allclose(op @ state, -state)


# -- states and expectations -------------------------------------------------


@pytest.mark.parametrize("pattern", [p for count in (2, 3)
                                     for p in itertools.product((1, -1), repeat=count)])
def test_product_state_is_the_left_to_right_tensor_chain(pattern):
    chain = quantum.ket_z(pattern[0])
    for sign in pattern[1:]:
        chain = quantum.tensor(chain, quantum.ket_z(sign))
    assert quantum.product_state(pattern).tobytes() == chain.tobytes()


def test_singlet_state_is_the_two_term_expression():
    up_down = quantum.tensor(quantum.ket_z(1), quantum.ket_z(-1))
    down_up = quantum.tensor(quantum.ket_z(-1), quantum.ket_z(1))
    expected = (up_down - down_up) / math.sqrt(2.0)
    assert quantum.singlet_state().tobytes() == expected.tobytes()


def test_expectation_of_a_stack_is_each_expectation(rng):
    stack = quantum.batch_spin_op([random_direction(rng) for _ in range(40)])
    stack = np.einsum("nij,mkl->nmikjl", stack, stack).reshape(-1, 4, 4)
    state = quantum.singlet_state()
    values = quantum.expectation(stack, state)
    assert values.shape == (1600,)
    each = np.array([quantum.expectation(op, state) for op in stack])
    assert values.tobytes() == each.tobytes()


def test_expectation_rejects_a_non_hermitian_operator_in_a_stack():
    stack = np.stack([np.eye(4, dtype=complex)] * 3)
    stack[1, 0, 1] = 1j
    state = quantum.product_state((1, 1)) + quantum.product_state((1, -1))
    with pytest.raises(ValueError, match="non-Hermitian"):
        quantum.expectation(stack, state)
    with pytest.raises(ValueError, match="non-Hermitian"):
        quantum.expectation(stack[1], state)
    assert quantum.expectation(stack[[0, 2]], state).tolist() == [2.0, 2.0]


def test_expectation_rejects_a_nan_operator():
    # A NaN entry makes the imaginary part NaN, which no bound holds for.
    op = np.eye(4, dtype=complex)
    op[0, 0] = math.nan
    state = quantum.product_state((1, 1))
    with pytest.raises(ValueError, match="non-Hermitian"):
        quantum.expectation(op, state)
    with pytest.raises(ValueError, match="non-Hermitian"):
        quantum.expectation(np.stack([np.eye(4, dtype=complex), op]), state)


# -- singlet correlations --------------------------------------------------


def test_singlet_perfect_anticorrelation():
    assert quantum.singlet_correlation(EZ, EZ) == pytest.approx(-1.0, abs=1e-12)


def test_singlet_orthogonal_directions():
    assert quantum.singlet_correlation(EZ, EX) == pytest.approx(0.0, abs=1e-12)


def test_singlet_sixty_degrees():
    b = (math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3))
    assert quantum.singlet_correlation(EZ, b) == pytest.approx(-0.5, abs=1e-12)


def test_singlet_equals_minus_dot_product(rng):
    for _ in range(1000):
        a = random_direction(rng)
        b = random_direction(rng)
        dot = sum(x * y for x, y in zip(a, b))
        assert abs(quantum.singlet_correlation(a, b) + dot) <= 1e-12


def test_singlet_symmetry(rng):
    for _ in range(100):
        a = random_direction(rng)
        b = random_direction(rng)
        lhs = quantum.singlet_correlation(a, b)
        rhs = quantum.singlet_correlation(b, a)
        assert abs(lhs - rhs) <= 1e-12


def test_batch_singlet_correlation_matches_scalar_and_minus_dot(rng):
    a = np.array([random_direction(rng) for _ in range(500)])
    b = np.array([random_direction(rng) for _ in range(500)])
    batched = quantum.batch_singlet_correlation(a, b)
    assert batched.shape == (500,)
    singlet = quantum.singlet_state()
    for x, y, value in zip(a, b, batched):
        # The dense computation written out once per pair, as a reference.
        dense = quantum.expectation(
            quantum.tensor(quantum.spin_op(x), quantum.spin_op(y)), singlet)
        assert abs(value - dense) <= 1e-12
        assert abs(value - quantum.singlet_correlation(tuple(x), tuple(y))) <= 1e-12
        assert abs(value + float(x @ y)) <= 1e-12


def test_batch_singlet_correlation_blocks_are_the_whole_stack():
    # The 31,416 epr-scan pairs of the exact-grid benchmark span eight blocks;
    # each value is bit for bit that of the unblocked (N, 4, 4) stack.
    a, b = scenarios.xz_scan(scenarios.closed_grid(0.0, 3.14159, 0.0001)).transpose(1, 0, 2)
    assert len(a) == 31_416 > 7 * quantum.SINGLET_BLOCK
    a_ops, b_ops = quantum.batch_spin_op(a), quantum.batch_spin_op(b)
    stack = (a_ops[:, :, None, :, None] * b_ops[:, None, :, None, :]).reshape(-1, 4, 4)
    whole = quantum.expectation(stack, quantum.singlet_state())
    del a_ops, b_ops, stack
    tracemalloc.start()
    try:
        blocked = quantum.batch_singlet_correlation(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocked.tobytes() == whole.tobytes()
    # The whole stack peaked at 14.6 MB; the blocks measure 3.1 MB.
    assert peak < 5e6, peak


def test_batch_spin_op_matches_scalar(rng):
    dirs = [random_direction(rng) for _ in range(20)]
    ops = quantum.batch_spin_op(dirs)
    for n, op in zip(dirs, ops):
        x, y, z = n
        assert np.array_equal(op, x * quantum.PAULI_X + y * quantum.PAULI_Y
                              + z * quantum.PAULI_Z)


def test_batch_oracle_rejects_non_unit_and_mismatched_rows():
    with pytest.raises(ValueError):
        quantum.batch_spin_op([EZ, (0.0, 0.0, 2.0)])
    with pytest.raises(ValueError):
        quantum.batch_singlet_correlation([EZ, EX], [EX, (0.0, 0.0, 0.5)])
    with pytest.raises(ValueError):
        quantum.batch_singlet_correlation([EZ, EX], [EX])


# -- sequential measurements -----------------------------------------------


def test_sequential_eigenstate_is_certain():
    assert quantum.sequential_probabilities(quantum.ket_z(1), [EZ], [1]) == pytest.approx(1.0, abs=1e-12)


def test_sequential_z_then_x_splits_evenly():
    p = quantum.sequential_probabilities(quantum.ket_z(1), [EZ, EX], [1, 1])
    assert p == pytest.approx(0.5, abs=1e-12)


def test_sequential_z_x_z_chain():
    p = quantum.sequential_probabilities(quantum.ket_z(1), [EZ, EX, EZ], [1, 1, 1])
    assert p == pytest.approx(0.25, abs=1e-12)


def test_sequential_outcome_tree_sums_to_one(rng):
    import itertools

    for length in (1, 2, 3, 4):
        dirs = [random_direction(rng) for _ in range(length)]
        total = sum(
            quantum.sequential_probabilities(quantum.ket_z(1), dirs, list(outcomes))
            for outcomes in itertools.product((1, -1), repeat=length)
        )
        assert abs(total - 1.0) <= 1e-12


def test_sequential_validates_inputs():
    with pytest.raises(ValueError):
        quantum.sequential_probabilities(quantum.singlet_state(), [EZ], [1])
    with pytest.raises(ValueError):
        quantum.sequential_probabilities(quantum.ket_z(1), [], [])
    with pytest.raises(ValueError):
        quantum.sequential_probabilities(quantum.ket_z(1), [EZ], [2])
    with pytest.raises(ValueError):
        quantum.sequential_probabilities(np.array([1.0, 1.0], dtype=complex), [EZ], [1])


@pytest.mark.parametrize("state", [[math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0]])
def test_sequential_rejects_a_non_finite_state(state):
    with pytest.raises(ValueError, match="state norm"):
        quantum.sequential_probabilities(np.array(state), [EZ], [1])


# -- product states ----------------------------------------------------------


def test_product_state_pair_correlations_in_z():
    pattern = (1, -1, 1)
    assert quantum.product_state_correlation(pattern, (0, 2), EZ) == pytest.approx(1.0, abs=1e-12)
    assert quantum.product_state_correlation(pattern, (1, 2), EZ) == pytest.approx(-1.0, abs=1e-12)


def test_product_state_transverse_correlation_vanishes():
    assert quantum.product_state_correlation((1, -1, 1), (0, 1), EX) == pytest.approx(0.0, abs=1e-12)


def test_product_state_two_particles():
    assert quantum.product_state_correlation((1, -1), (0, 1), EZ) == pytest.approx(-1.0, abs=1e-12)


def test_product_state_validates_pair():
    with pytest.raises(ValueError):
        quantum.product_state_correlation((1, -1, 1), (0, 0), EZ)
    with pytest.raises(ValueError):
        quantum.product_state_correlation((1, -1, 1), (0, 3), EZ)
    with pytest.raises(ValueError):
        quantum.product_state_correlation((1,), (0, 1), EZ)
    # The pattern is refused as such, not by tensor's size limit.
    with pytest.raises(ValueError, match="pattern must list 2 or 3 particles"):
        quantum.product_state_correlation((1, 1, 1, 1), (0, 1), EZ)


# -- CHSH ---------------------------------------------------------------


def canonical_angles():
    to_dir = lambda t: (math.sin(t), 0.0, math.cos(t))
    return (to_dir(0.0), to_dir(math.pi / 2), to_dir(math.pi / 4), to_dir(3 * math.pi / 4))


def test_chsh_canonical_angles_reach_tsirelson():
    a, a2, b, b2 = canonical_angles()
    assert quantum.chsh_value(a, a2, b, b2) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_chsh_degenerate_settings():
    assert quantum.chsh_value(EZ, EZ, EZ, EZ) == pytest.approx(2.0, abs=1e-12)
    assert quantum.chsh_value(EZ, EX, EZ, EX) == pytest.approx(2.0, abs=1e-12)


def test_chsh_value_equals_the_four_call_formula_bit_for_bit(rng):
    e = quantum.singlet_correlation
    for _ in range(2_000):
        a, a2, b, b2 = (random_direction(rng) for _ in range(4))
        reference = abs(e(a, b) - e(a, b2)) + abs(e(a2, b) + e(a2, b2))
        assert quantum.chsh_value(a, a2, b, b2).hex() == reference.hex()


def test_chsh_never_exceeds_tsirelson(rng):
    bound = 2.0 * math.sqrt(2.0) + 1e-9
    for _ in range(10_000):
        dirs = [random_direction(rng) for _ in range(4)]
        assert quantum.chsh_value(*dirs) <= bound
