import itertools
import math

import numpy as np
import pytest

from bellcheck import scenarios
from bellcheck.clifford import ONE, Multivector, row_norms
from bellcheck.models import (
    CHUNK,
    FLIPPED,
    NATURAL,
    HiddenState,
    MeterModel,
    MU_MINUS,
    MU_PLUS,
    UpdateRule,
    apply_update,
    batch_constraint_check,
    batch_observable_value,
    batch_pair_product,
    constraint_check,
    effective_outcome,
    expectation_over_mu,
    hemisphere_samples,
    lambda_chunks,
    meter_outcome,
    observable_value,
    pair_product,
    random_unit_vectors,
)

import oracles

EZ = (0.0, 0.0, 1.0)
EX = (1.0, 0.0, 0.0)
POLES = [None, EZ, EX, (2 / 3, -1 / 3, 2 / 3)]  # None: the whole sphere

METER_A = MeterModel()
METER_B_OPPOSITE = MeterModel(def_sign=-1)


def mv_from(**slots):
    labels = ["s", "ex", "ey", "ez", "exy", "eyz", "ezx", "I"]
    coeffs = [0.0] * 8
    for name, value in slots.items():
        coeffs[labels.index(name)] = value
    return Multivector(tuple(coeffs))


def random_direction(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


# -- the bivector observable --------------------------------------------------


def test_observable_examples():
    assert observable_value(METER_A, EZ, MU_PLUS) == mv_from(exy=1.0)
    assert observable_value(METER_B_OPPOSITE, EZ, MU_PLUS) == mv_from(exy=-1.0)
    assert observable_value(METER_A, EZ, MU_MINUS) == mv_from(exy=-1.0)


def test_observable_is_unit_bivector(rng):
    for _ in range(200):
        meter = MeterModel(def_sign=int(rng.choice([1, -1])),
                           interp=int(rng.choice([NATURAL, FLIPPED])))
        n = random_direction(rng)
        mu = HiddenState(int(rng.choice([1, -1])))
        value = observable_value(meter, n, mu)
        assert value.grade(2) == value
        assert abs(value.coeff_norm() - 1.0) <= 1e-12


def test_observable_linear_in_mu(rng):
    for _ in range(50):
        n = random_direction(rng)
        plus = observable_value(METER_A, n, MU_PLUS)
        minus = observable_value(METER_A, n, MU_MINUS)
        assert max(map(abs, (plus + minus).coeffs)) == 0.0


# -- interpreted and effective outcomes ---------------------------------------


def test_effective_outcome_examples():
    assert effective_outcome(EZ, MU_PLUS) == 1
    assert effective_outcome(EX, MU_MINUS) == -1
    assert effective_outcome((0.0, 0.0, -1.0), MU_PLUS) == -1


def test_effective_outcome_picks_first_nonzero_component():
    assert effective_outcome((0.0, -0.6, 0.8), MU_PLUS) == -1


def test_effective_outcome_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        effective_outcome((0.0, 0.0, 2.0), MU_PLUS)
    with pytest.raises(ValueError):
        meter_outcome(METER_A, (0.0, 0.0, 2.0), MU_PLUS)


def test_effective_outcome_rejects_nan_direction():
    with pytest.raises(ValueError):
        effective_outcome((math.nan, 0.0, 0.0), MU_PLUS)
    with pytest.raises(ValueError):
        meter_outcome(METER_A, (math.nan, 0.0, 0.0), MU_PLUS)


def test_outcomes_agree_on_signed_axes():
    axes = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for axis in axes:
        n = tuple(float(c) for c in axis)
        for mu in (MU_PLUS, MU_MINUS):
            assert meter_outcome(METER_A, n, mu) == effective_outcome(n, mu)


def test_outcomes_agree_on_random_directions(rng):
    for _ in range(200):
        n = random_direction(rng)
        for mu in (MU_PLUS, MU_MINUS):
            assert meter_outcome(METER_A, n, mu) == effective_outcome(n, mu)


def test_interp_flips_the_leg():
    flipped = MeterModel(interp=FLIPPED)
    assert meter_outcome(flipped, EZ, MU_PLUS) == -meter_outcome(METER_A, EZ, MU_PLUS)


def test_meter_validation():
    with pytest.raises(ValueError):
        MeterModel(def_sign=0)
    with pytest.raises(ValueError):
        MeterModel(interp=2)
    with pytest.raises(ValueError):
        HiddenState(0)


# -- pair products -------------------------------------------------------


def test_pair_product_parallel_same_definition():
    assert pair_product(METER_A, METER_A, EZ, EZ, MU_PLUS) == mv_from(s=-1.0)


def test_pair_product_parallel_opposite_definition_flips_sign():
    assert pair_product(METER_A, METER_B_OPPOSITE, EZ, EZ, MU_PLUS) == mv_from(s=1.0)


def test_pair_product_orthogonal_is_pure_bivector():
    value = pair_product(METER_A, METER_A, EZ, EX, MU_PLUS)
    assert value.scalar_part == 0.0
    assert value.grade(2).coeff_norm() > 0.0


def test_pair_product_independent_of_mu(rng):
    for _ in range(100):
        meters = [MeterModel(def_sign=int(rng.choice([1, -1])),
                             interp=int(rng.choice([NATURAL, FLIPPED]))) for _ in range(2)]
        a, b = random_direction(rng), random_direction(rng)
        plus = pair_product(meters[0], meters[1], a, b, MU_PLUS)
        minus = pair_product(meters[0], meters[1], a, b, MU_MINUS)
        assert plus == minus


# -- exact expectations over mu ------------------------------------------


def test_expectation_reproduces_minus_cosine():
    theta = 0.7
    b = (math.sin(theta), 0.0, math.cos(theta))
    avg = expectation_over_mu(lambda mu: pair_product(METER_A, METER_A, EZ, b, mu))
    assert abs(avg.scalar_part + math.cos(theta)) <= 1e-12


def test_expectation_with_anticorrelated_meter_has_wrong_sign():
    avg = expectation_over_mu(
        lambda mu: pair_product(METER_A, METER_B_OPPOSITE, EZ, EZ, mu))
    assert avg.scalar_part == 1.0  # quantum value is -1


def test_expectation_of_mu_linear_observable_vanishes():
    avg = expectation_over_mu(lambda mu: observable_value(METER_A, EZ, mu))
    assert avg == Multivector.zero()


# -- commutator / normalization audit -----------------------------------------


def test_constraint_check_parallel_commutes():
    audit = constraint_check(METER_A, METER_A, EZ, EZ)
    assert audit.commutator_avg == Multivector.zero()


def test_constraint_check_orthogonal_commutator_value():
    audit = constraint_check(METER_A, METER_A, EZ, EX)
    # [A, B] averages to -2 (a ^ b) = -2 ez ex when a = ez, b = ex.
    assert audit.commutator_avg == mv_from(ezx=-2.0)


def test_constraint_check_square_is_minus_one_for_any_meter(rng):
    for _ in range(50):
        meter_a = MeterModel(def_sign=int(rng.choice([1, -1])),
                             interp=int(rng.choice([NATURAL, FLIPPED])))
        meter_b = MeterModel(def_sign=int(rng.choice([1, -1])))
        a, b = random_direction(rng), random_direction(rng)
        audit = constraint_check(meter_a, meter_b, a, b)
        assert audit.square_avg.approx_eq(-ONE, 1e-12)


def test_constraint_check_matches_table_brute_force(rng):
    # Rebuild the product table from the matrix representation and redo the
    # averages with nothing but that table.
    index, sign = oracles.ref_table()

    def observable_coeffs(def_sign, n, mu_sign):
        mu = tuple([0.0] * 7 + [float(mu_sign)])
        vec = (0.0, n[0], n[1], n[2], 0.0, 0.0, 0.0, 0.0)
        prod = oracles.table_product(index, sign, mu, vec)
        return tuple(def_sign * c for c in prod)

    for _ in range(25):
        ds_a = int(rng.choice([1, -1]))
        ds_b = int(rng.choice([1, -1]))
        a, b = random_direction(rng), random_direction(rng)
        comm_sum = [0.0] * 8
        square_sum = [0.0] * 8
        for mu_sign in (1, -1):
            av = observable_coeffs(ds_a, a, mu_sign)
            bv = observable_coeffs(ds_b, b, mu_sign)
            ab = oracles.table_product(index, sign, av, bv)
            ba = oracles.table_product(index, sign, bv, av)
            aa = oracles.table_product(index, sign, av, av)
            for k in range(8):
                comm_sum[k] += (ab[k] - ba[k]) / 2.0
                square_sum[k] += aa[k] / 2.0

            # The scalar readings and pair products against the same table,
            # for every def sign of either meter.
            mu = HiddenState(mu_sign)
            for ds_x, ds_y in itertools.product((1, -1), repeat=2):
                meter_x, meter_y = MeterModel(def_sign=ds_x), MeterModel(def_sign=ds_y)
                xv = observable_coeffs(ds_x, a, mu_sign)
                yv = observable_coeffs(ds_y, b, mu_sign)
                assert observable_value(meter_x, a, mu).approx_eq(Multivector(xv), 1e-12)
                assert observable_value(meter_y, b, mu).approx_eq(Multivector(yv), 1e-12)
                assert pair_product(meter_x, meter_y, a, b, mu).approx_eq(
                    Multivector(oracles.table_product(index, sign, xv, yv)), 1e-12)

        audit = constraint_check(MeterModel(def_sign=ds_a), MeterModel(def_sign=ds_b), a, b)
        assert audit.commutator_avg.approx_eq(Multivector(tuple(comm_sum)), 1e-12)
        assert audit.square_avg.approx_eq(Multivector(tuple(square_sum)), 1e-12)


# -- batched readings ------------------------------------------------------


def bits(rows):
    return [[c.hex() for c in row] for row in np.asarray(rows).tolist()]


def test_batched_model_functions_match_scalar_bit_for_bit(rng):
    a = [random_direction(rng) for _ in range(50)] + [EZ, EX, (0.0, -1.0, 0.0)]
    b = [random_direction(rng) for _ in range(50)] + [EZ, (-1.0, 0.0, 0.0), EZ]
    for meter_a, meter_b in ((METER_A, METER_A), (METER_A, METER_B_OPPOSITE)):
        for mu in (MU_PLUS, MU_MINUS):
            assert bits(batch_observable_value(meter_b, b, mu)) == bits(
                [observable_value(meter_b, n, mu).coeffs for n in b])
            assert bits(batch_pair_product(meter_a, meter_b, a, b, mu)) == bits(
                [pair_product(meter_a, meter_b, x, y, mu).coeffs for x, y in zip(a, b)])
        averaged = expectation_over_mu(
            lambda mu: batch_pair_product(meter_a, meter_b, a, b, mu))
        assert bits(averaged) == bits([expectation_over_mu(
            lambda mu: pair_product(meter_a, meter_b, x, y, mu)).coeffs
            for x, y in zip(a, b)])
        batched = batch_constraint_check(meter_a, meter_b, a, b)
        scalar = [constraint_check(meter_a, meter_b, x, y) for x, y in zip(a, b)]
        assert bits(batched.commutator_avg) == bits([s.commutator_avg.coeffs for s in scalar])
        assert bits(batched.square_avg) == bits([s.square_avg.coeffs for s in scalar])


def test_batched_model_functions_reject_non_unit_directions():
    bad = [EZ, (0.0, 0.0, 1.001)]
    with pytest.raises(ValueError):
        observable_value(METER_A, bad[1], MU_PLUS)
    with pytest.raises(ValueError):
        batch_observable_value(METER_A, bad, MU_PLUS)
    with pytest.raises(ValueError):
        batch_pair_product(METER_A, METER_A, [EZ, EZ], bad, MU_PLUS)
    with pytest.raises(ValueError):
        batch_constraint_check(METER_A, METER_A, bad, [EZ, EZ])


# -- Bell's scalar model -------------------------------------------------


# Bell's observable sign(a.lambda) is read off each chunk of lambdas in
# bellcheck.scenarios: by the static sign correlation, which counts the
# lambdas whose two readings agree, and by the static posterior, which counts
# the lambdas that read "up" along z, then along x.


def sign_reading(a, lam):
    """sign(a.lam) through scenarios._static_sign_correlation: with b = lam,
    sign(b.lam) = +1, so the readings agree on a chunk of two copies exactly
    when sign(a.lam) = +1, and disagree on both otherwise."""
    agree = scenarios._static_sign_correlation(a, lam, np.array([lam, lam]))
    assert agree in (0, 2)
    return 1 if agree == 2 else -1


def posterior_rows(lams):
    """The rows that _static_posterior counts as z-up and as z-up then x-up,
    found by reading each row as a chunk of its own."""
    counts = [scenarios._static_posterior(lams[[i]]) for i in range(len(lams))]
    assert all(z in (0, 1) and zx in (0, z) for z, zx in counts)
    assert scenarios._static_posterior(lams) == tuple(map(sum, zip(*counts)))
    return [i for i, (z, _) in enumerate(counts) if z], [i for i, (_, zx) in enumerate(counts) if zx]


def test_bell_observable_examples():
    s = 1.0 / math.sqrt(2.0)
    assert sign_reading(EZ, (0.0, 0.0, 1.0)) == 1
    assert sign_reading(EZ, (0.6, 0.0, -0.8)) == -1
    assert sign_reading(EX, (s, s, 0.0)) == 1
    lams = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, -0.8], [s, 0.0, s], [-s, 0.0, s]])
    after_z, after_zx = posterior_rows(lams)
    assert after_z == [0, 2, 3]
    assert after_zx == [0, 2]  # x = 0 reads up


def test_bell_observable_tie_resolves_positive():
    # a.lambda = 0 reads +1.
    assert sign_reading(EZ, (1.0, 0.0, 0.0)) == 1
    assert sign_reading(EX, (0.0, 1.0, 0.0)) == 1
    lams = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    after_z, after_zx = posterior_rows(lams)
    assert after_z == after_zx == [0, 1, 2]


def test_bell_observable_odd_under_lambda_negation(rng):
    for _ in range(200):
        a = random_direction(rng)
        lam = random_direction(rng)
        if abs(sum(x * y for x, y in zip(a, lam))) < 1e-12:
            continue
        neg = tuple(-c for c in lam)
        assert sign_reading(a, lam) == -sign_reading(a, neg)
    # Off the measure-zero ties, a lambda reads up along z exactly when
    # its negation reads down.
    lams = random_unit_vectors(rng, np.empty((1_000, 3)))
    up, down = (posterior_rows(x)[0] for x in (lams, -lams))
    assert len(up) + len(down) == len(lams)
    assert np.all(lams[up, 2] > 0.0) and np.all(-lams[down, 2] > 0.0)


def test_hemisphere_marginals(rng):
    lams = hemisphere_samples(EZ, rng, np.empty((100_000, 3)))
    assert abs(float(lams[:, 2].mean()) - 0.5) <= 0.01
    assert float((lams[:, 2] > 0.0).mean()) == 1.0
    assert abs(float(lams[:, 0].mean())) <= 0.01


def test_hemisphere_support_for_any_pole_and_outcome(rng):
    # The hemisphere of outcome -1 along n is that of the pole -n.
    for outcome in (1, -1):
        n = random_direction(rng)
        lams = hemisphere_samples(tuple(outcome * c for c in n), rng, np.empty((2_000, 3)))
        dots = lams @ np.asarray(n)
        assert np.all(outcome * dots > 0.0)
        norms = np.linalg.norm(lams, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
    with pytest.raises(ValueError):
        hemisphere_samples((0.0, 0.0, 2.0), rng, np.empty((2, 3)))


def test_random_unit_vectors_are_unit(rng):
    vs = random_unit_vectors(rng, np.empty((1_000, 3)))
    assert np.max(np.abs(np.linalg.norm(vs, axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
def test_row_norms_are_linalg_norm_bit_for_bit(scale):
    rng = np.random.default_rng(2024)
    rows = rng.normal(size=(1_000_000, 3)) * scale
    assert row_norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()
    coeffs = rng.normal(size=(10_000, 8)) * scale
    want = [oracles.ref_coeff_norm(row) for row in coeffs.tolist()]
    assert row_norms(coeffs).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("seed", [42, 17, 3])
def test_samplers_match_the_reference_bit_for_bit(seed):
    def draws(sampler, *args):
        return sampler(*args, np.random.default_rng(seed), np.empty((50_000, 3))).tobytes()

    def ref_draws(sampler, *args):
        return sampler(*args, np.random.default_rng(seed), 50_000).tobytes()

    assert draws(random_unit_vectors) == ref_draws(oracles.ref_random_unit_vectors)
    for pole in POLES[1:]:
        for outcome in (1, -1):
            assert (draws(hemisphere_samples, tuple(outcome * c for c in pole))
                    == ref_draws(oracles.ref_hemisphere_samples, pole, outcome))


@pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("pole", POLES)
def test_lambda_chunks_are_the_whole_batch_draw(size, pole):
    # Copies, since each chunk is overwritten by the next draw.
    chunks = [lams.copy() for lams in lambda_chunks(np.random.default_rng(7), size, pole)]
    assert [len(c) for c in chunks] == [min(CHUNK, size - s) for s in range(0, size, CHUNK)]
    rng = np.random.default_rng(7)
    want = (oracles.ref_random_unit_vectors(rng, size) if pole is None
            else oracles.ref_hemisphere_samples(pole, 1, rng, size))
    assert np.concatenate(chunks).tobytes() == want.tobytes()


@pytest.mark.parametrize("pole", POLES)
def test_lambda_chunks_draw_into_one_buffer(pole):
    stream = lambda_chunks(np.random.default_rng(7), 2 * CHUNK + 5, pole)
    first = next(stream)
    kept = first.copy()
    second = next(stream)
    assert np.shares_memory(first, second) and first.base is second.base
    assert first.tobytes() == second.tobytes() != kept.tobytes()
    last = next(stream)
    assert last.shape == (5, 3) and np.shares_memory(last, first)


class _ZeroFirstTriple:
    """A Generator whose first normal triple is (0, 0, 0), then the real stream."""

    def __init__(self, seed: int):
        self.rng, self.calls = np.random.default_rng(seed), []

    def standard_normal(self, size=None, out=None):
        self.calls.append(size if out is None else out.shape)
        draws = self.rng.standard_normal(size, out=out)
        if len(self.calls) == 1:
            draws[0] = 0.0
        return draws


@pytest.mark.parametrize("pole", POLES)
def test_zero_norm_triple_is_redrawn_into_the_buffer(pole):
    size = CHUNK + 3
    stub = _ZeroFirstTriple(11)
    chunks = [lams.copy() for lams in lambda_chunks(stub, size, pole)]
    assert stub.calls == [(CHUNK, 3), (1, 3), (3, 3)]
    # The redrawn row is the stream's next triple; the rest of the stream follows it.
    rng = np.random.default_rng(11)
    normals = rng.standard_normal((size + 1, 3))
    rows = np.concatenate([normals[CHUNK:CHUNK + 1], normals[1:CHUNK], normals[CHUNK + 1:]])
    want = rows / np.linalg.norm(rows, axis=1)[:, None]
    if pole is not None:
        want[want @ np.asarray(pole) < 0.0] *= -1.0
    assert np.concatenate(chunks).tobytes() == want.tobytes()
    assert np.max(np.abs(np.linalg.norm(want, axis=1) - 1.0)) <= 1e-12


# -- update rules ---------------------------------------------------------


def test_identity_rule_preserves_state(rng):
    rule = UpdateRule({(sign, tag): 0.0 for sign in (1, -1) for tag in ("z", "x")})
    for mu in (MU_PLUS, MU_MINUS):
        for tag in ("z", "x"):
            assert apply_update(rule, mu, tag, rng) == mu


def test_certain_flip(rng):
    rule = UpdateRule.post_z(1.0)
    assert apply_update(rule, MU_PLUS, "z", rng) == MU_MINUS
    assert apply_update(rule, MU_MINUS, "z", rng) == MU_PLUS
    assert apply_update(rule, MU_PLUS, "x", rng) == MU_PLUS


def test_half_flip_fraction(rng):
    rule = UpdateRule.post_z(0.5)
    n = 100_000
    flips = sum(
        apply_update(rule, MU_PLUS, "z", rng) == MU_MINUS for _ in range(n))
    assert abs(flips / n - 0.5) <= 0.01


def test_rule_validation():
    with pytest.raises(ValueError):
        UpdateRule({(1, "z"): 1.5})
    rule = UpdateRule.post_z(0.25)
    assert rule.prob(1, "z") == 0.25
    assert rule.prob(-1, "x") == 0.0
    with pytest.raises(ValueError):
        rule.prob(1, "y")
