"""Quantum-mechanical reference for 1, 2 and 3 spin-1/2 particles.

State vectors with explicit projective collapse; dimensions never exceed 8,
so dense complex matrices are exact enough for every comparison made here.
Every state and operator, the singlet oracle's stacks too, comes from `tensor`.
Spin observables carry eigenvalues +-1 (outcome labels; no hbar/2 anywhere)
and only probabilities and expectation values are ever exposed.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .clifford import unit_vectors

STATE_TOL = 1e-12
SINGLET_BLOCK = 4096  # rows of batch_singlet_correlation per block: 1 MB of operators

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def spin_op(n: Sequence[float]) -> np.ndarray:
    """n . sigma for a unit direction n: Hermitian, traceless, squares to 1."""
    return batch_spin_op([n])[0]


def batch_spin_op(n) -> np.ndarray:
    """(N, 2, 2) operators n . sigma for an (N, 3) array of unit directions."""
    n = unit_vectors(n)
    x, y, z = (n[:, axis, None, None] for axis in range(3))
    return x * PAULI_X + y * PAULI_Y + z * PAULI_Z


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, two matrices or two equal-length
    stacks of matrices over the last two axes, left factor as the slower
    index: np.kron's values, one product per entry, without its overhead."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1:
        out = np.multiply.outer(a, b).reshape(-1)
    else:
        out = a[..., :, None, :, None] * b[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    if max(out.shape[-2:]) > 8:
        raise ValueError("tensor product exceeds 3 spin-1/2 particles")
    return out


def ket_z(sign: int) -> np.ndarray:
    """z-basis eigenstate with eigenvalue `sign` in {+1, -1}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return np.array([sign == 1, sign == -1], dtype=complex)


def singlet_state() -> np.ndarray:
    """(|+-> - |-+>)/sqrt(2): perfect anticorrelation in every direction."""
    return (product_state((1, -1)) - product_state((-1, 1))) / math.sqrt(2.0)


def product_state(pattern: Sequence[int]) -> np.ndarray:
    """z-basis product state for a +-1 pattern of 2 or 3 particles."""
    if len(pattern) not in (2, 3):
        raise ValueError("pattern must list 2 or 3 particles")
    return functools.reduce(tensor, map(ket_z, pattern))


def expectation(op: np.ndarray, state: np.ndarray) -> np.ndarray | float:
    """<state|op|state> for one operator (a float) or a stack of them (an
    array of floats); every operator must be Hermitian."""
    values = np.einsum("i,...i->...", state.conj(), op @ state)
    if not np.all(np.abs(values.imag) <= 1e-10):
        raise ValueError(f"expectation of a non-Hermitian operator: {values!r}")
    return values.real


def singlet_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """<psi_s| (a.sigma) x (b.sigma) |psi_s>; analytically -a.b."""
    return float(batch_singlet_correlation([a], [b])[0])


def batch_singlet_correlation(a, b) -> np.ndarray:
    """`singlet_correlation` for each row pair of two (N, 3) direction
    arrays, still a dense-state computation: the singlet state is built once
    and the (4, 4) operators tensor(a.sigma, b.sigma) are applied to it
    SINGLET_BLOCK rows at a time, so the working set does not grow with N."""
    a, b = unit_vectors(a), unit_vectors(b)
    if a.shape != b.shape:
        raise ValueError("direction arrays must have the same length")
    state, values = singlet_state(), np.empty(len(a))
    for rows in (slice(k, k + SINGLET_BLOCK) for k in range(0, len(a), SINGLET_BLOCK)):
        values[rows] = expectation(tensor(batch_spin_op(a[rows]), batch_spin_op(b[rows])), state)
    return values


def sequential_probabilities(state: np.ndarray,
                             directions: Sequence[Sequence[float]],
                             outcomes: Sequence[int]) -> float:
    """Probability of a +-1 outcome sequence under projective measurements
    with collapse after each step, for a single spin-1/2 state."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("sequential probabilities take a single-particle state")
    if len(directions) != len(outcomes) or not directions:
        raise ValueError("directions and outcomes must be equal-length, nonempty")
    norm = float(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= STATE_TOL:
        raise ValueError(f"state norm {norm!r} is not 1")
    for n, outcome in zip(directions, outcomes):
        if outcome not in (1, -1):
            raise ValueError("outcomes must be +1 or -1")
        psi = (IDENTITY_2 + outcome * spin_op(n)) / 2.0 @ psi  # the outcome's projector
    return float(np.vdot(psi, psi).real)


def product_state_correlation(pattern: Sequence[int],
                              pair: tuple[int, int],
                              direction: Sequence[float]) -> float:
    """Expectation of (n.sigma)x(n.sigma) on the chosen pair of a z-basis
    product state, identity on any remaining particle."""
    state = product_state(pattern)
    i, j = pair
    if i == j or not (0 <= i < len(pattern) and 0 <= j < len(pattern)):
        raise ValueError(f"pair {pair!r} must be two distinct particle indexes")
    factors = [IDENTITY_2] * len(pattern)
    factors[i] = factors[j] = spin_op(direction)
    return float(expectation(functools.reduce(tensor, factors), state))


def chsh_combination(e_ab: float, e_ab2: float, e_a2b: float, e_a2b2: float) -> float:
    """|E(a,b) - E(a,b2)| + |E(a2,b) + E(a2,b2)| of four correlations."""
    return abs(e_ab - e_ab2) + abs(e_a2b + e_a2b2)


def chsh_value(a: Sequence[float], a2: Sequence[float],
               b: Sequence[float], b2: Sequence[float]) -> float:
    """CHSH combination of the four singlet correlations, in one batched
    dense-state call."""
    e = batch_singlet_correlation([a, a, a2, a2], [b, b2, b, b2])
    return chsh_combination(*e.tolist())
