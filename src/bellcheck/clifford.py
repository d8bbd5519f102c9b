"""Exact arithmetic in the Clifford algebra Cl(3) of Euclidean 3-space.

The algebra is 8-dimensional over the reals.  A multivector is stored as a
coefficient tuple over the fixed basis

    index  0    1    2    3    4      5      6      7
    blade  1    ex   ey   ez   ex ey  ey ez  ez ex  I = ex ey ez

with a right-handed orthonormal frame, so every basis vector squares to +1
and the pseudoscalar I squares to -1 and commutes with everything.  The
cyclic bivector ordering is chosen so that multiplication by I carries
ex -> ey ez, ey -> ez ex, ez -> ex ey without extra signs.

Products are driven by one table of (i, j, k, sign) terms built once from
integer blade arithmetic, with the inner and outer products as grade
predicates on it.  The scalar loop, the faster on one row, and
`batch_product`, on (N, 8) arrays, apply the same terms in the same order.
Every other row operation is written once, in batch form: the scalar
`coeff_norm`, `unit_vector` and `render` are its one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

Vec3 = tuple[float, float, float]

BASIS_LABELS = ("s", "ex", "ey", "ez", "exy", "eyz", "ezx", "I")

# Basis blades as tuples of generator indices (0=x, 1=y, 2=z), in the
# order they are multiplied.  Index 6 is deliberately stored as ez ex.
_BLADES = ((), (0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2))

GRADES = (0, 1, 1, 1, 2, 2, 2, 3)

COEFF_TOL = 1e-12


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort a product of generators (indices 0=x, 1=y, 2=z): each inverted pair
    of distinct generators anticommutes, a sign of -1, and each pair of equal
    ones contracts to +1 (the metric).  Returns the sorted blade and the sign."""
    inversions = sum(a > b for k, a in enumerate(indices) for b in indices[k + 1:])
    return tuple(g for g in range(3) if indices.count(g) % 2), (-1) ** inversions


def _product_terms() -> tuple[tuple[int, int, int, int], ...]:
    """The product table: one (i, j, k, sign) term per blade pair, e_i e_j = sign e_k."""
    # e_blade = sign * e_canon for each stored blade, hence e_canon = sign * e_blade.
    basis = {canon: (k, sign) for k, (canon, sign) in enumerate(map(_sort_with_sign, _BLADES))}
    products = ((i, j, *_sort_with_sign(bi + bj))
                for i, bi in enumerate(_BLADES) for j, bj in enumerate(_BLADES))
    return tuple((i, j, basis[canon][0], sign * basis[canon][1]) for i, j, canon, sign in products)


PRODUCT_TERMS = _product_terms()

# The terms each product keeps, by the grades r, s of the factors and the
# grade g of the result: all of them, g == |r - s| (inner) or g == r + s (outer).
_TERMS = {name: tuple((i, j, k, sign) for i, j, k, sign in PRODUCT_TERMS
                      if keep(GRADES[i], GRADES[j], GRADES[k]))
          for name, keep in (("geometric", lambda r, s, g: True),
                             ("dot", lambda r, s, g: g == abs(r - s)),
                             ("wedge", lambda r, s, g: g == r + s))}


@dataclass(frozen=True)
class Multivector:
    """Immutable element of Cl(3) as 8 real coefficients."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) != 8:
            raise ValueError(f"expected 8 coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(map(float, self.coeffs)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Multivector":
        return Multivector((0.0,) * 8)

    @staticmethod
    def pseudoscalar(value: float = 1.0) -> "Multivector":
        return Multivector((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, float(value)))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Multivector":
        return Multivector(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(tuple(a * other for a in self.coeffs))

    def __rmul__(self, other):
        return Multivector(tuple(other * a for a in self.coeffs))

    def __truediv__(self, divisor: float) -> "Multivector":
        return Multivector(tuple(a / divisor for a in self.coeffs))

    # -- structure maps ----------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        return Multivector(tuple(c if GRADES[i] == k else 0.0 for i, c in enumerate(self.coeffs)))

    def reverse(self) -> "Multivector":
        # grade k picks up (-1)^(k(k-1)/2): grades 0,1 fixed, 2,3 negated.
        signs = (1, 1, 1, 1, -1, -1, -1, -1)
        return Multivector(tuple(s * c for s, c in zip(signs, self.coeffs)))

    def dual(self) -> "Multivector":
        """Right multiplication by I^-1 = -I; swaps vectors and bivectors."""
        return geometric_product(self, Multivector.pseudoscalar(-1.0))

    @property
    def scalar_part(self) -> float:
        return self.coeffs[0]

    def coeff_norm(self) -> float:
        return float(row_norms(np.array([self.coeffs]))[0])

    def approx_eq(self, other: "Multivector", tol: float = COEFF_TOL) -> bool:
        return all(abs(a - b) <= tol for a, b in zip(self.coeffs, other.coeffs))

    def render(self) -> str:
        """Debug rendering: "<coeff>·<blade>" terms in basis order, 12
        significant digits, zero terms omitted, all-zero printed as "0"."""
        return render_rows(np.array([self.coeffs]))[0]

    __str__ = render


# The basis blades as Multivectors, in index order.
ONE, E_X, E_Y, E_Z, E_XY, E_YZ, E_ZX, I_BLADE = BASIS_BLADES = tuple(
    map(Multivector, np.eye(8).tolist()))


def _product(x: Multivector, y: Multivector, product: str) -> Multivector:
    xc, yc = x.coeffs, y.coeffs
    acc = [0.0] * 8
    for i, j, k, sign in _TERMS[product]:
        if xc[i] != 0.0 and yc[j] != 0.0:
            acc[k] += sign * xc[i] * yc[j]
    return Multivector(tuple(acc))


def geometric_product(x: Multivector, y: Multivector) -> Multivector:
    return _product(x, y, "geometric")


def dot(x: Multivector, y: Multivector) -> Multivector:
    """Grade-lowering inner product: per blade pair of grades r and s, keep
    the grade-|r - s| part of the geometric product, extended bilinearly.

    For a trivector m and a vector n this is the full product m n (a pure
    bivector), which is how the hidden-variable observable m . n is formed.
    """
    return _product(x, y, "dot")


def wedge(x: Multivector, y: Multivector) -> Multivector:
    """Grade-raising outer product: keep the grade-(r + s) part per blade
    pair; antisymmetric on vectors."""
    return _product(x, y, "wedge")


def batch_product(x, y, product: str = "geometric") -> np.ndarray:
    """Row-wise `product` ("geometric", "dot" or "wedge") of (N, 8) arrays,
    an (8,) row broadcasting; terms are added in the scalar loop's order,
    so each row equals the scalar product bit for bit when finite."""
    if product not in _TERMS:
        raise ValueError(f"product must be one of {tuple(_TERMS)}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    if len(shape) != 2 or shape[1] != 8:
        raise ValueError(f"expected (N, 8) coefficient arrays, got shape {shape}")
    # An (8,) row is read as it is, its own liveness, and broadcasts term by term.
    x, y = (v if v.shape == (8,) else np.broadcast_to(v, shape) for v in (x, y))
    live_x, live_y = ((v != 0.0 if v.ndim == 1 else v.any(axis=0)).tolist() for v in (x, y))
    acc = np.zeros(shape)
    for i, j, k, sign in _TERMS[product]:
        if live_x[i] and live_y[j]:
            acc[:, k] += sign * x[..., i] * y[..., j]
    return acc


def render_rows(coeffs: np.ndarray) -> list[str]:
    """Multivector.render() of each row of an (N, 8) coefficient array: the
    nonzero "<|coeff|>·<blade>" terms in basis order, 12 significant digits,
    joined by " + " or " - ", the first signed "-" if negative; "0" for none."""
    live = [(coeffs[:, k].tolist(), BASIS_LABELS[k]) for k in np.flatnonzero(coeffs.any(axis=0))]
    if len(live) == 1:
        form = "%.12g·" + live[0][1]
        return [form % c if c else "0" for c in live[0][0]]
    terms = [[f" {'-' if c < 0 else '+'} {abs(c):.12g}·{label}" if c != 0.0 else "" for c in column]
             for column, label in live]
    return [(text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0"
            for text in map("".join, zip(*terms))] if terms else ["0"] * len(coeffs)


# -- vectors ---------------------------------------------------------------

UNIT_TOL = 1e-12


def unit_vector(components: Sequence[float]) -> Vec3:
    """`unit_vectors` of one 3-vector, returned as a tuple."""
    return tuple(unit_vectors([components])[0].tolist())


def row_norms(v: np.ndarray) -> np.ndarray:
    """Norm of each row of an (N, k) array, the squares summed left to right
    in place: bit for bit np.linalg.norm(v, axis=1) on (N, 3) directions;
    Multivector.coeff_norm is its one-row call."""
    acc = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        acc += v[:, k] * v[:, k]
    return np.sqrt(acc, out=acc)


def unit_vectors(components) -> np.ndarray:
    """Validate each row of an (N, 3) array as unit length within 1e-12."""
    v = np.asarray(components, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of vectors, got shape {v.shape}")
    norms = row_norms(v)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if bad.size:
        row = tuple(v[bad[0]].tolist())
        raise ValueError(f"vector {row!r} has norm {float(norms[bad[0]])!r}, expected 1")
    return v


# -- quaternion even subalgebra ---------------------------------------------

# Images of the quaternion units inside the even subalgebra.  The reversed
# bivectors are used because (ey ez)(ez ex) = -(ex ey): mapping the plain
# cyclic bivectors onto i, j, k straight would only give an anti-isomorphism.
QUATERNION_IMAGES: Mapping[str, Multivector] = {"i": -E_YZ, "j": -E_ZX, "k": -E_XY}


def _hamilton(p: tuple[float, float, float, float],
              q: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def even_subalgebra_iso_check(images: Mapping[str, Multivector] = QUATERNION_IMAGES) -> bool:
    """Check that the even subalgebra (grades 0 and 2) is the quaternions.

    Verifies that I is central on all 8 basis blades with I^2 = -1, then
    that phi(w, x, y, z) = w + x img(i) + y img(j) + z img(k) carries the
    Hamilton product to the geometric product, phi(p) phi(q) = phi(p q), on
    the 16 pairs of unit quaternions.  Both sides are bilinear in (p, q), so
    agreement on the basis pairs implies it on every pair; random pairs
    would add rounding, not power.  Returns False on any violation, so a
    swapped or negated image map fails.
    """
    central = all(geometric_product(I_BLADE, b).approx_eq(geometric_product(b, I_BLADE), 0.0)
                  for b in BASIS_BLADES)
    if not central or not geometric_product(I_BLADE, I_BLADE).approx_eq(-ONE, 0.0):
        return False

    basis = (ONE, images["i"], images["j"], images["k"])

    def phi(q) -> Multivector:
        return sum((c * b for c, b in zip(q, basis)), Multivector.zero())

    units = np.eye(4).tolist()
    return all(geometric_product(phi(p), phi(q)).approx_eq(phi(_hamilton(p, q)))
               for p in units for q in units)
