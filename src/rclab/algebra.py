"""Euclidean Jordan algebras: descriptors and the array polar chart.

Three families are implemented, each a commutative algebra with a
positive-definite trace form, known by its closed forms alone (no
structure table is held):

* ``rank1``   -- the reals, V = R, with ordinary multiplication;
* ``sym(r)``  -- r x r real symmetric matrices with x.y = (xy + yx)/2,
  coordinates are the independent entries x_ij (i <= j);
* ``spin(m)`` -- the spin factor R + R^{m-1} with
  (x0, xb).(y0, yb) = (x0*y0 + <xb, yb>, x0*yb + y0*xb).

A point is a row of coordinates.  Every exact constant is an integer (the
det coefficients, the trace form, the identity).  The numerics of the cone
take stacks in and give arrays out: an (m, n) float array holds m points,
one per row, and a single point is a one-row stack.  They are
``spectral`` (eigenvalues), ``cone_sqrt``, ``quad_rep`` (P(a)b) and
``inverse`` (x^{-1}), both in each family's closed form and on complex
stacks too, the polar chart ``iota``, its inverse and its Jacobian, and
``det_poly.numeric`` for determinants; ``random_chart_points`` draws float
pairs (z, v) for the chart, squared with ``quad_rep``.  The trace inner
product is (x, y) = tr(x.y); its Gram matrix is diagonal in the chosen
bases, so tr x = (x, e) = sum_i gram_i e_i x_i, and the Lebesgue measure
used throughout the package is the Euclidean measure of that form
(orthonormal coordinates x_ii, sqrt(2) x_ij for sym(r)).

All values are immutable after construction and all operations are pure,
so everything here is safe to share between threads; tables derived from a
descriptor are memoised by ``functools.cache`` on it, never stored on it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .poly import Poly

__all__ = [
    "AlgebraError",
    "NotInCone",
    "JordanAlgebra",
    "rank_one",
    "sym",
    "spin",
    "get_algebra",
    "ALGEBRA_NAMES",
    "spectral",
    "cone_sqrt",
    "quad_rep",
    "inverse",
    "iota",
    "iota_inv",
    "iota_jacobian",
    "random_chart_points",
]

class AlgebraError(ValueError):
    pass


class NotInCone(AlgebraError):
    """Argument is not in the open cone of squares."""


@dataclass(frozen=True)
class JordanAlgebra:
    """Descriptor of a concrete algebra: dimensions, det and trace form.

    ``gram`` is the (diagonal) Gram vector of the trace form, so the inner
    product is (x, y) = sum_i gram[i] * x_i * y_i; it, ``e_coords`` and the
    det coefficients are ints.  ``e`` is the identity as a read-only float
    row.  Products are each family's closed forms (``quad_rep``,
    ``inverse``).  Frozen and hashable: ``e`` and ``det_poly``, functions of
    the other fields, are left out of the hash and of equality.
    """

    name: str
    family: str
    n: int
    r: int
    d: int
    basis_labels: tuple
    e_coords: tuple           # identity element coordinates
    e: np.ndarray = field(hash=False, repr=False, compare=False)
    gram: tuple               # diagonal trace-form Gram entries
    det_poly: Poly = field(hash=False, compare=False)

    def __repr__(self):
        return f"JordanAlgebra({self.name}, n={self.n}, r={self.r}, d={self.d})"


# ---------------------------------------------------------------------------
# Family constructors


def _build(name, family, n, r, d, labels, e_coords, gram, det_poly):
    e = np.array(e_coords, dtype=float)
    e.setflags(write=False)
    return JordanAlgebra(
        name=name, family=family, n=n, r=r, d=d,
        basis_labels=tuple(labels), e_coords=tuple(e_coords), e=e,
        gram=tuple(gram),
        det_poly=Poly.from_terms(det_poly, n),
    )


def rank_one() -> JordanAlgebra:
    return _build("rank1", "rank1", 1, 1, 0, ["x"], (1,), (1,), {(1,): 1})


def _sym_pairs(r):
    return [(i, i) for i in range(r)] + [(i, j) for i in range(r) for j in range(i + 1, r)]


def _sym_index(r):
    """The coordinate index of each entry (i, j) of an r x r symmetric matrix."""
    index = {p: k for k, p in enumerate(_sym_pairs(r))}
    return [[index[min(i, j), max(i, j)] for j in range(r)] for i in range(r)]


def _sym_det_poly(r):
    # Leibniz expansion of det of the symmetric matrix with entries x_ij; the
    # sign of a permutation is (-1)^(its number of inversions)
    index, poly = _sym_index(r), {}
    for perm in itertools.permutations(range(r)):
        sign = (-1) ** sum(p > q for p, q in itertools.combinations(perm, 2))
        expo = [0] * (r * (r + 1) // 2)
        for i in range(r):
            expo[index[i][perm[i]]] += 1
        e = tuple(expo)
        poly[e] = poly.get(e, 0) + sign
    return {e: c for e, c in poly.items() if c}


def sym(r: int) -> JordanAlgebra:
    """Symmetric matrices Sym(r, R); n = r(r+1)/2, d = 1."""
    if r < 1:
        raise AlgebraError("sym(r) needs r >= 1")
    pairs = _sym_pairs(r)
    diagonal = tuple(int(i == j) for (i, j) in pairs)
    labels = [f"x{i+1}{j+1}" for (i, j) in pairs]
    gram = tuple(1 if i == j else 2 for (i, j) in pairs)
    return _build(f"sym{r}", "sym", len(pairs), r, 1, labels, diagonal, gram,
                  _sym_det_poly(r))


def spin(m: int) -> JordanAlgebra:
    """Spin factor of total dimension m >= 3; rank 2, d = m - 2."""
    if m < 3:
        raise AlgebraError("spin(m) needs m >= 3")
    n = m
    e_coords = (1,) + (0,) * (n - 1)
    det_poly = {tuple(2 if k == 0 else 0 for k in range(n)): 1}
    for i in range(1, n):
        det_poly[tuple(2 if k == i else 0 for k in range(n))] = -1
    labels = ["x0"] + [f"xb{i}" for i in range(1, n)]
    return _build(f"spin{m}", "spin", n, 2, m - 2, labels, e_coords, (2,) * n, det_poly)


ALGEBRA_NAMES = ("rank1", "sym2", "sym3", "sym4",
                 "spin3", "spin4", "spin5", "spin6", "spin7", "spin8")

@functools.cache
def get_algebra(name: str) -> JordanAlgebra:
    """Look up one of ALGEBRA_NAMES: 'rank1', 'sym2'..'sym4', 'spin3'..'spin8'."""
    if name not in ALGEBRA_NAMES:
        raise AlgebraError(f"unknown algebra {name!r}")
    if name == "rank1":
        return rank_one()
    if name.startswith("sym"):
        return sym(int(name[3:]))
    return spin(int(name[4:]))


# ---------------------------------------------------------------------------
# Spectral data and the polar chart on point arrays
#
# Each function takes the rows of an (m, n) array as m points.  Rank 2
# (sym2 and every spin factor) needs no eigensolver: x^2 - tr(x) x +
# det(x) e = 0 gives the eigenvalues, the square root, P(a)b and x^{-1} in
# closed form; sym(r >= 3) works on the r x r matrices.


def _sym_matrices(algebra: JordanAlgebra, X) -> np.ndarray:
    """The (..., r, r) symmetric matrices of sym(r) coordinate rows."""
    return np.asarray(X)[..., _sym_index(algebra.r)]


def _sym_coords(algebra: JordanAlgebra, M) -> np.ndarray:
    """The coordinate rows of (..., r, r) symmetric matrices."""
    i, j = np.array(_sym_pairs(algebra.r)).T
    return M[..., i, j]


def spectral(algebra: JordanAlgebra, X) -> np.ndarray:
    """Ascending eigenvalues of real rows, shape (m, r).

    Rank 2 gives tr/2 -+ delta, delta^2 half the trace-form norm^2 of the
    traceless part x - (tr x / 2) e, which avoids the cancellation in
    tr^2 - 4 det; sym(r >= 3) calls eigvalsh.
    """
    X = np.asarray(X, dtype=float)
    if algebra.r == 1:
        return X
    if algebra.r == 2:
        half = X @ (np.array(algebra.gram) * algebra.e) / 2
        T = X - half[:, None] * algebra.e
        delta = np.sqrt((T * T) @ np.array(algebra.gram, dtype=float) / 2)
        return np.stack([half - delta, half + delta], axis=1)
    return np.linalg.eigvalsh(_sym_matrices(algebra, X))


def cone_sqrt(algebra: JordanAlgebra, Z) -> np.ndarray:
    """The square roots inside the cone of real rows z.

    Rank 2: z^{1/2} = (z + sqrt(det z) e) / sqrt(tr z + 2 sqrt(det z)),
    taken as (z + s1 s2 e) / (s1 + s2) with s1, s2 the roots of the
    eigenvalues.  sym(r >= 3): V diag(sqrt(lam)) V^T from eigh.  Raises
    NotInCone when a row has an eigenvalue <= 0.
    """
    Z = np.asarray(Z, dtype=float)
    if algebra.r >= 3:
        lams, vecs = np.linalg.eigh(_sym_matrices(algebra, Z))
    else:
        lams = spectral(algebra, Z)
    if not np.all(lams > 0):
        raise NotInCone("a point has an eigenvalue <= 0")
    roots = np.sqrt(lams)
    if algebra.r == 1:
        return roots
    if algebra.r == 2:
        e = algebra.e
        return (Z + np.prod(roots, axis=1)[:, None] * e) / np.sum(roots, axis=1)[:, None]
    return _sym_coords(algebra, (vecs * roots[:, None, :]) @ np.swapaxes(vecs, 1, 2))


def _star(algebra: JordanAlgebra, X) -> np.ndarray:
    """x* = tr(x) e - x on rows of a rank-2 algebra."""
    return (X @ (np.array(algebra.gram) * algebra.e))[..., None] * algebra.e - X


def quad_rep(algebra: JordanAlgebra, A, B) -> np.ndarray:
    """P(a)b on float or complex rows a, b that broadcast against each other.

    Rank <= 2: (a|b) a - det(a) b*, with (a|b) the trace form and b* 0 in
    rank 1 (Faraut-Koranyi, Analysis on Symmetric Cones, 1994, ch. II).
    sym(r >= 3): the r x r product a b a.
    """
    A, B = np.asarray(A), np.asarray(B)
    if algebra.r >= 3:
        a = _sym_matrices(algebra, A)
        return _sym_coords(algebra, a @ _sym_matrices(algebra, B) @ a)
    out = ((A * B) @ np.array(algebra.gram, dtype=float))[..., None] * A
    if algebra.r == 2:
        det = algebra.det_poly.numeric(A.reshape(-1, algebra.n))
        out = out - det.reshape(A.shape[:-1] + (1,)) * _star(algebra, B)
    return out


def inverse(algebra: JordanAlgebra, X) -> np.ndarray:
    """x^{-1} of float or complex rows: 1/x in rank 1, x*/det x in rank 2,
    the r x r inverse in sym(r >= 3)."""
    if algebra.r == 1:
        return 1 / X
    if algebra.r == 2:
        return _star(algebra, X) / algebra.det_poly.numeric(X)[:, None]
    return _sym_coords(algebra, np.linalg.inv(_sym_matrices(algebra, X)))


def iota(algebra: JordanAlgebra, Z, V):
    """Polar chart on rows: (z, v) -> ((z - P(z^{1/2})v)/2, (z + P(z^{1/2})v)/2).

    Raises NotInCone for a z outside the cone and AlgebraError for a v
    outside the open interval )-e, e(.
    """
    root = cone_sqrt(algebra, Z)
    if not np.all(np.abs(spectral(algebra, V)) < 1):
        raise AlgebraError("iota: v not in the open interval )-e, e(")
    W = quad_rep(algebra, root, V)
    return (Z - W) / 2, (Z + W) / 2


def iota_inv(algebra: JordanAlgebra, X, Y):
    """Inverse chart on rows: z = x + y, v = P(z^{-1/2}) (y - x)."""
    Z = X + Y
    return Z, quad_rep(algebra, inverse(algebra, cone_sqrt(algebra, Z)), Y - X)


def iota_jacobian(algebra: JordanAlgebra, Z) -> np.ndarray:
    """Jacobian determinant 2^{-n} (det z)^{n/r} of iota at rows z."""
    return 2.0 ** -algebra.n * algebra.det_poly.numeric(Z) ** (algebra.n / algebra.r)


# ---------------------------------------------------------------------------
# Random chart points


def random_chart_points(rng: random.Random, algebra: JordanAlgebra, count: int):
    """``count`` pairs (z, v), z in the cone and v in )-e, e(, as two
    (count, n) float arrays.

    Each pair takes 2n + 1 calls of ``rng.random()`` in turn: the
    coordinates of u, then of s, each in [-3, 3), then a in [0.1, 0.9).
    z = u^2 + e has eigenvalues >= 1; so has w = s^2 + e, whose eigenvalues
    then lie below tr w in rank >= 2, and v = a (2w - tr(w) e) / tr(w) has
    eigenvalues of absolute value < a (a itself in rank 1).
    """
    n, e = algebra.n, algebra.e
    draws = np.array([rng.random() for _ in range(count * (2 * n + 1))]).reshape(count, -1)
    U, S = 6 * draws[:, :n] - 3, 6 * draws[:, n:2 * n] - 3
    Z, W = quad_rep(algebra, U, e) + e, quad_rep(algebra, S, e) + e
    tr = (W @ (np.array(algebra.gram) * algebra.e))[:, None]
    return Z, (0.1 + 0.8 * draws[:, 2 * n:]) * (2 * W - tr * e) / tr
