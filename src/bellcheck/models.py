"""Hidden-variable models under audit.

Two families live here:

* A trivector model where the hidden state of a particle is mu = +-I (the
  unit pseudoscalar, effectively a Z_2 label) and a meter along the unit
  vector n reads the bivector value  def_sign * (mu . n) = def_sign * mu * I n.
  An interpretation map turns that bivector into a +-1 leg: the natural
  choice reads I n as "up" for meter axes with a positive leading component.
  The scalar reading and audit are one-row views of their batch_* forms.
  effective_outcome and meter_outcome reject a non-unit direction, as the
  bivector readings do.
* Bell's scalar toy model (Eq. (9) of Bell, Physics 1, 195 (1964)): the
  hidden state is a unit vector lambda and the outcome is sign(a . lambda),
  optionally combined with a post-measurement redraw of lambda from the
  hemisphere centred on the measured direction.  Its samplers live here;
  bellcheck.scenarios reads the signs off streamed chunks of lambdas.

All functions are pure; the randomized ones take an explicit numpy
Generator so runs stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, TypeVar

import numpy as np

from .clifford import (
    Multivector,
    Vec3,
    batch_product,
    geometric_product,
    row_norms,
    unit_vector,
    unit_vectors,
)

NATURAL = 1
FLIPPED = -1

T = TypeVar("T")


@dataclass(frozen=True)
class HiddenState:
    """Trivector hidden variable mu = mu_sign * I with mu_sign in {-1, +1}."""

    mu_sign: int

    def __post_init__(self):
        if self.mu_sign not in (1, -1):
            raise ValueError("mu_sign must be +1 or -1")


MU_PLUS = HiddenState(1)
MU_MINUS = HiddenState(-1)


@dataclass(frozen=True)
class MeterModel:
    """One spin meter: a sign in the observable definition and a leg map.

    def_sign=+1 reads mu . n, def_sign=-1 reads -(mu . n).  interp=NATURAL
    maps the +I n bivector orientation to the "up" leg; FLIPPED swaps legs.
    """

    def_sign: int = 1
    interp: int = NATURAL

    def __post_init__(self):
        if self.def_sign not in (1, -1):
            raise ValueError("def_sign must be +1 or -1")
        if self.interp not in (NATURAL, FLIPPED):
            raise ValueError("interp must be NATURAL (+1) or FLIPPED (-1)")


def observable_value(meter: MeterModel, n: Vec3, mu: HiddenState) -> Multivector:
    """Bivector reading def_sign * (mu . n); always unit coefficient norm."""
    return Multivector(batch_observable_value(meter, [n], mu)[0])


def batch_observable_value(meter: MeterModel, n, mu: HiddenState) -> np.ndarray:
    """`observable_value` for each row of an (N, 3) array of unit directions,
    as (N, 8) coefficients."""
    n = unit_vectors(n)
    vectors = np.zeros((len(n), 8))
    vectors[:, 1:4] = n
    return meter.def_sign * batch_product(Multivector.pseudoscalar(mu.mu_sign).coeffs, vectors, "dot")


def meter_outcome(meter: MeterModel, n: Vec3, mu: HiddenState) -> int:
    """Interpreted +-1 leg of the bivector reading.

    The orientation is read against I a, where a is the meter axis oriented
    to have a positive leading component, so meters pointed along -n report
    inverted legs, matching the scalar shortcut below.
    """
    return meter.interp * meter.def_sign * effective_outcome(n, mu)


def effective_outcome(n: Vec3, mu: HiddenState) -> int:
    """Scalar shortcut mu I^-1 sgn(n*): mu_sign times the sign of the first
    nonzero component of the unit direction n.  Agrees with the natural
    reading of the bivector observable for every direction."""
    leading = next(c for c in unit_vector(n) if c != 0.0)
    return mu.mu_sign * (1 if leading > 0.0 else -1)


def pair_product(meter_a: MeterModel, meter_b: MeterModel,
                 a: Vec3, b: Vec3, mu: HiddenState) -> Multivector:
    """Geometric product of the two meter readings; a scalar plus bivector.

    Both factors carry mu, so the result is independent of mu_sign."""
    return geometric_product(observable_value(meter_a, a, mu),
                             observable_value(meter_b, b, mu))


def batch_pair_product(meter_a: MeterModel, meter_b: MeterModel,
                       a, b, mu: HiddenState) -> np.ndarray:
    """`pair_product` for each row pair of two (N, 3) direction arrays."""
    return batch_product(batch_observable_value(meter_a, a, mu),
                         batch_observable_value(meter_b, b, mu))


def expectation_over_mu(f: Callable[[HiddenState], T]) -> T:
    """Exact average of f over the two hidden states, uniformly weighted.

    f may return a Multivector, a float or an array of coefficients."""
    return (f(MU_PLUS) + f(MU_MINUS)) / 2.0


@dataclass(frozen=True)
class ConstraintAverages:
    """Averages a viable local model must satisfy: the commutator average
    should vanish for all direction pairs and the squared observable should
    average to +1.  Violations are data for the caller, not errors.

    `constraint_check` fills in Multivectors, `batch_constraint_check`
    (N, 8) coefficient arrays."""

    commutator_avg: Multivector | np.ndarray
    square_avg: Multivector | np.ndarray


def constraint_check(meter_a: MeterModel, meter_b: MeterModel,
                     a: Vec3, b: Vec3) -> ConstraintAverages:
    """The one-row `batch_constraint_check` for directions a and b."""
    audit = batch_constraint_check(meter_a, meter_b, [a], [b])
    return ConstraintAverages(commutator_avg=Multivector(audit.commutator_avg[0]),
                              square_avg=Multivector(audit.square_avg[0]))


def batch_constraint_check(meter_a: MeterModel, meter_b: MeterModel,
                           a, b) -> ConstraintAverages:
    """Commutator and square averages for each row pair of two (N, 3)
    direction arrays, as (N, 8) coefficients.  Each meter is read once per
    mu, and both averages are `expectation_over_mu`'s, summed in place."""
    def products(mu: HiddenState) -> tuple[np.ndarray, np.ndarray]:
        av, bv = batch_observable_value(meter_a, a, mu), batch_observable_value(meter_b, b, mu)
        commutator = batch_product(av, bv)
        commutator -= batch_product(bv, av)
        return commutator, batch_product(av, av)

    averages = products(MU_PLUS)
    for total, term in zip(averages, products(MU_MINUS)):
        total += term
        total /= 2.0
    return ConstraintAverages(*averages)


# -- Bell's scalar toy model -------------------------------------------------


def random_unit_vectors(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Directions uniform on the sphere, drawn into the C-contiguous float64
    (k, 3) buffer `out` and normalised in place; returns `out`."""
    norms = row_norms(rng.standard_normal(out=out))
    while (bad := norms < 1e-12).any():
        out[bad] = rng.standard_normal((np.count_nonzero(bad), 3))
        norms = row_norms(out)
    return np.divide(out, norms[:, None], out=out)


def hemisphere_samples(pole: Vec3, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """`random_unit_vectors` into `out`, on the hemisphere {pole.lam > 0}."""
    axis = np.asarray(unit_vector(pole))
    lams = random_unit_vectors(rng, out)
    # A row times -1.0 is its negation; + 0.0 leaves a row with pole.lam = -0.0 unflipped.
    side = lams @ axis + 0.0
    lams *= np.copysign(1.0, side, out=side)[:, None]
    return lams


CHUNK = 65_536  # most rows in one draw of lambda_chunks: 1.5 MB of float64


def lambda_chunks(rng: np.random.Generator, size: int,
                  pole: Vec3 | None = None) -> Iterator[np.ndarray]:
    """`size` lambdas in consecutive (k, 3) chunks, k <= CHUNK, uniform on the
    sphere, or on the hemisphere {pole.lam > 0} when a pole is given, all
    drawn into one buffer: a chunk is valid only until the next is drawn.
    They take the stream of one whole-batch draw, except that a near-zero-norm
    normal triple is redrawn at the end of its chunk, not of the batch (about
    3e-37 per sample).  CHUNK is part of the report bytes: bell-toy's means,
    merged chunk by chunk, round once per chunk."""
    buffer = np.empty((min(CHUNK, size), 3))
    for start in range(0, size, CHUNK):
        out = buffer[:size - start]
        yield random_unit_vectors(rng, out) if pole is None else hemisphere_samples(pole, rng, out)


# -- post-measurement update rules -------------------------------------------


@dataclass(frozen=True)
class UpdateRule:
    """Stochastic transition on the trivector hidden state: after measuring
    along `tag`, mu_sign is negated with probability flip_probs[(mu_sign, tag)].
    """

    flip_probs: Mapping[tuple[int, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for key, p in self.flip_probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"flip probability {p!r} for {key!r} not in [0, 1]")

    def prob(self, mu_sign: int, tag: str) -> float:
        key = (mu_sign, tag)
        if key not in self.flip_probs:
            raise ValueError(f"update rule not defined for {key!r}")
        return self.flip_probs[key]

    @classmethod
    def post_z(cls, p: float) -> "UpdateRule":
        """Flip with probability p after a z measurement, never after x."""
        return cls({(sign, tag): p if tag == "z" else 0.0 for tag in "zx" for sign in (1, -1)})


def apply_update(rule: UpdateRule, mu: HiddenState, direction_tag: str,
                 rng: np.random.Generator) -> HiddenState:
    return HiddenState(-mu.mu_sign) if rule.prob(mu.mu_sign, direction_tag) > rng.random() else mu
