"""Euclidean Jordan algebras: exact and floating-point arithmetic.

Three families are implemented, each as a table-driven commutative algebra
with a positive-definite trace form:

* ``rank1``   -- the reals, V = R, with ordinary multiplication;
* ``sym(r)``  -- r x r real symmetric matrices with x.y = (xy + yx)/2,
  coordinates are the independent entries x_ij (i <= j);
* ``spin(m)`` -- the spin factor R + R^{m-1} with
  (x0, xb).(y0, yb) = (x0*y0 + <xb, yb>, x0*yb + y0*xb).

Coordinates may be exact (``fractions.Fraction``/int), float, or complex;
the same code paths serve all three.  The trace inner product is
(x, y) = tr(x.y); its Gram matrix is diagonal in the chosen bases and the
Lebesgue measure used throughout the package is the Euclidean measure of
that form (orthonormal coordinates x_ii, sqrt(2) x_ij for sym(r)).

All values are immutable after construction and all operations are pure,
so everything here is safe to share between threads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "AlgebraError",
    "AlgebraMismatch",
    "NotInCone",
    "Singular",
    "JordanAlgebra",
    "Element",
    "StructureMap",
    "rank_one",
    "sym",
    "spin",
    "get_algebra",
    "ALGEBRA_NAMES",
    "jordan_mul",
    "trace",
    "det",
    "inner",
    "quad_rep",
    "quad_rep_matrix",
    "spectral",
    "sqrt_in_cone",
    "inverse",
    "in_cone",
    "in_interval",
    "iota",
    "iota_inv",
    "jacobian_iota",
    "chi",
    "random_rational_element",
    "random_cone_point",
    "random_interval_point",
]

CLUSTER_TOL = 1e-10


class AlgebraError(ValueError):
    pass


class AlgebraMismatch(AlgebraError):
    """Operands live in different algebras."""


class NotInCone(AlgebraError):
    """Argument is not in the open cone of squares."""


class Singular(AlgebraError):
    """Argument has zero determinant."""


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Determinant polynomials (dict: exponent tuple -> Fraction)


def _poly_eval(p, coords):
    total = 0
    for expo, coef in p.items():
        term = coef
        for e, c in zip(expo, coords):
            if e:
                term = term * c**e
        total = total + term
    return total


def _poly_diff(p, i):
    out = {}
    for expo, coef in p.items():
        if expo[i]:
            e = list(expo)
            e[i] -= 1
            out[tuple(e)] = coef * expo[i]
    return out


@dataclass(frozen=True)
class JordanAlgebra:
    """Descriptor of a concrete algebra: dimensions, product table, det/trace.

    ``table[i][j]`` holds the coordinates of b_i . b_j as Fractions.
    ``gram`` is the (diagonal) Gram vector of the trace form, so the
    inner product is (x, y) = sum_i gram[i] * x_i * y_i.
    """

    name: str
    family: str
    n: int
    r: int
    d: int
    basis_labels: tuple
    table: tuple              # n x n tuple of coordinate tuples (Fractions)
    e_coords: tuple           # identity element coordinates
    gram: tuple               # diagonal trace-form Gram entries
    trace_vec: tuple          # tr(x) = sum_i trace_vec[i] x_i
    det_poly: dict = field(hash=False)          # exponent tuple -> Fraction
    _sparse: tuple = field(hash=False, repr=False)
    _mult_tensor: np.ndarray = field(hash=False, repr=False, compare=False)

    # -- basic constructors -------------------------------------------------

    def element(self, coords) -> "Element":
        coords = tuple(coords)
        if len(coords) != self.n:
            raise AlgebraError(
                f"{self.name}: expected {self.n} coordinates, got {len(coords)}"
            )
        return Element(self, coords)

    def from_fractions(self, coords) -> "Element":
        return self.element(tuple(_frac(c) for c in coords))

    @property
    def identity(self) -> "Element":
        return Element(self, self.e_coords)

    def zero(self) -> "Element":
        return Element(self, (Fraction(0),) * self.n)

    # -- scalar maps ---------------------------------------------------------

    def det_gradients(self):
        """Algebraic gradient of det: grad_i = (1/gram_i) d(det)/dx_i.

        This is the trace-form gradient convention; for sym(r) the
        off-diagonal entries carry the factor 1/2.
        """
        grads = []
        for i in range(self.n):
            g = _poly_diff(self.det_poly, i)
            w = Fraction(1, 1) / _frac(self.gram[i])
            grads.append({e: c * w for e, c in g.items()})
        return grads

    def __repr__(self):
        return f"JordanAlgebra({self.name}, n={self.n}, r={self.r}, d={self.d})"


class Element:
    """A point of the algebra (or of its complexification).

    Thin immutable wrapper over a coordinate tuple; arithmetic keeps
    Fractions exact and silently degrades to float/complex otherwise.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: JordanAlgebra, coords):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.coords)

    @property
    def is_complex(self) -> bool:
        return any(isinstance(c, complex) for c in self.coords)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch(
                f"{self.algebra.name} vs {other.algebra.name}"
            )

    def __add__(self, other):
        self._check(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return jordan_mul(self, other)
        return Element(self.algebra, tuple(c * other for c in self.coords))

    def __rmul__(self, scalar):
        return Element(self.algebra, tuple(scalar * c for c in self.coords))

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        return Element(self.algebra, tuple(c / scalar for c in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.algebra.name, self.coords))

    def as_float(self) -> "Element":
        return Element(self.algebra, tuple(float(c) for c in self.coords))

    def as_array(self) -> np.ndarray:
        dtype = complex if self.is_complex else float
        return np.array([dtype(c) for c in self.coords])

    def real(self) -> "Element":
        return Element(self.algebra, tuple(c.real if isinstance(c, complex) else c for c in self.coords))

    def imag(self) -> "Element":
        return Element(self.algebra, tuple(c.imag if isinstance(c, complex) else 0.0 for c in self.coords))

    def __repr__(self):
        return f"Element({self.algebra.name}, {list(self.coords)})"


# ---------------------------------------------------------------------------
# Family constructors


def _build(name, family, n, r, d, labels, table, e_coords, gram, trace_vec, det_poly):
    sparse = []
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(table[i][j]):
                if c:
                    sparse.append((i, j, k, c))
    tensor = np.zeros((n, n, n))
    for i, j, k, c in sparse:
        tensor[i, j, k] = float(c)
    return JordanAlgebra(
        name=name, family=family, n=n, r=r, d=d,
        basis_labels=tuple(labels), table=table, e_coords=tuple(e_coords),
        gram=tuple(gram), trace_vec=tuple(trace_vec), det_poly=det_poly,
        _sparse=tuple(sparse), _mult_tensor=tensor,
    )


def rank_one() -> JordanAlgebra:
    one = Fraction(1)
    return _build(
        "rank1", "rank1", 1, 1, 0, ["x"],
        ((( one,),),), (one,), (one,), (one,),
        {(1,): one},
    )


def _sym_pairs(r):
    return [(i, i) for i in range(r)] + [(i, j) for i in range(r) for j in range(i + 1, r)]


def _sym_det_poly(r, pairs):
    # Leibniz expansion of det of the symmetric matrix with entries x_ij.
    index = {p: k for k, p in enumerate(pairs)}

    def coord(i, j):
        return index[(i, j) if i <= j else (j, i)]

    poly = {}
    for perm in itertools.permutations(range(r)):
        sign = Fraction(_perm_sign(perm))
        expo = [0] * len(pairs)
        for i in range(r):
            expo[coord(i, perm[i])] += 1
        e = tuple(expo)
        poly[e] = poly.get(e, Fraction(0)) + sign
    return {e: c for e, c in poly.items() if c}


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sym(r: int) -> JordanAlgebra:
    """Symmetric matrices Sym(r, R); n = r(r+1)/2, d = 1."""
    if r < 1:
        raise AlgebraError("sym(r) needs r >= 1")
    pairs = _sym_pairs(r)
    n = len(pairs)
    index = {p: k for k, p in enumerate(pairs)}

    def basis_matrix(k):
        i, j = pairs[k]
        m = [[Fraction(0)] * r for _ in range(r)]
        m[i][j] += 1
        if i != j:
            m[j][i] += 1
        return m

    def mat_to_coords(m):
        return tuple(m[i][j] for (i, j) in pairs)

    def jordan(a, b):
        out = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                s = Fraction(0)
                for k in range(r):
                    s += a[i][k] * b[k][j] + b[i][k] * a[k][j]
                out[i][j] = s / 2
        return out

    mats = [basis_matrix(k) for k in range(n)]
    table = tuple(
        tuple(mat_to_coords(jordan(mats[i], mats[j])) for j in range(n))
        for i in range(n)
    )
    e_coords = tuple(Fraction(1) if i == j else Fraction(0) for (i, j) in pairs)
    gram = tuple(Fraction(1) if i == j else Fraction(2) for (i, j) in pairs)
    trace_vec = tuple(Fraction(1) if i == j else Fraction(0) for (i, j) in pairs)
    labels = [f"x{i+1}{j+1}" for (i, j) in pairs]
    return _build(f"sym{r}", "sym", n, r, 1, labels, table, e_coords, gram,
                  trace_vec, _sym_det_poly(r, pairs))


def spin(m: int) -> JordanAlgebra:
    """Spin factor of total dimension m >= 3; rank 2, d = m - 2."""
    if m < 3:
        raise AlgebraError("spin(m) needs m >= 3")
    n = m
    zero, one = Fraction(0), Fraction(1)

    def prod(i, j):
        # b_0 = (1, 0); b_i = (0, unit_i).  (x0,xb).(y0,yb) =
        # (x0 y0 + <xb, yb>, x0 yb + y0 xb)
        out = [zero] * n
        if i == 0 and j == 0:
            out[0] = one
        elif i == 0:
            out[j] = one
        elif j == 0:
            out[i] = one
        elif i == j:
            out[0] = one
        return tuple(out)

    table = tuple(tuple(prod(i, j) for j in range(n)) for i in range(n))
    e_coords = (one,) + (zero,) * (n - 1)
    gram = (Fraction(2),) * n
    trace_vec = (Fraction(2),) + (zero,) * (n - 1)
    det_poly = {tuple(2 if k == 0 else 0 for k in range(n)): one}
    for i in range(1, n):
        det_poly[tuple(2 if k == i else 0 for k in range(n))] = -one
    labels = ["x0"] + [f"xb{i}" for i in range(1, n)]
    return _build(f"spin{m}", "spin", n, 2, m - 2, labels, table, e_coords,
                  gram, trace_vec, det_poly)


_REGISTRY: dict = {}


def get_algebra(name: str) -> JordanAlgebra:
    """Look up an algebra by name: 'rank1', 'sym2'..'sym4', 'spin3'..'spin8'."""
    if name not in _REGISTRY:
        if name == "rank1":
            _REGISTRY[name] = rank_one()
        elif name.startswith("sym") and name[3:].isdigit() and 1 <= int(name[3:]) <= 4:
            _REGISTRY[name] = sym(int(name[3:]))
        elif name.startswith("spin") and name[4:].isdigit() and 3 <= int(name[4:]) <= 8:
            _REGISTRY[name] = spin(int(name[4:]))
        else:
            raise AlgebraError(f"unknown algebra {name!r}")
    return _REGISTRY[name]


ALGEBRA_NAMES = ("rank1", "sym2", "sym3", "sym4",
                 "spin3", "spin4", "spin5", "spin6", "spin7", "spin8")


# ---------------------------------------------------------------------------
# Core operations


def jordan_mul(a: Element, b: Element) -> Element:
    a._check(b)
    alg = a.algebra
    x, y = a.coords, b.coords
    out = [0] * alg.n
    for i, j, k, c in alg._sparse:
        out[k] = out[k] + c * x[i] * y[j]
    return Element(alg, out)


def trace(x: Element):
    return sum(t * c for t, c in zip(x.algebra.trace_vec, x.coords))


def det(x: Element):
    return _poly_eval(x.algebra.det_poly, x.coords)


def inner(a: Element, b: Element):
    """Trace-form pairing (a, b) = tr(a.b); bilinear (no conjugation)."""
    a._check(b)
    return sum(g * p * q for g, p, q in zip(a.algebra.gram, a.coords, b.coords))


def quad_rep(x: Element, y: Element) -> Element:
    """P(x)y = 2 x.(x.y) - (x.x).y."""
    x._check(y)
    return 2 * jordan_mul(x, jordan_mul(x, y)) - jordan_mul(jordan_mul(x, x), y)


def quad_rep_matrix(x: Element):
    """Coordinate matrix of P(x), exact when x is."""
    alg = x.algebra
    rows = []
    for i in range(alg.n):
        rows.append([None] * alg.n)
    for j in range(alg.n):
        basis = Element(alg, tuple(Fraction(int(i == j)) for i in range(alg.n)))
        col = quad_rep(x, basis).coords
        for i in range(alg.n):
            rows[i][j] = col[i]
    return rows


def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; raises Singular."""
    n = len(rhs)
    a = [[_frac(matrix[i][j]) for j in range(n)] + [_frac(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise Singular("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def spectral(x: Element, tol: float = CLUSTER_TOL):
    """Spectral decomposition x = sum_i lam_i c_i.

    Returns (eigenvalues ascending, idempotent frame).  Near-degenerate
    eigenvalues (within ``tol``) are clustered and their projectors summed,
    which keeps functional calculus stable.
    """
    alg = x.algebra
    xf = [float(c) for c in x.coords]
    if alg.family == "rank1":
        return [xf[0]], [alg.identity.as_float()]
    if alg.family == "spin":
        x0, xb = xf[0], np.array(xf[1:])
        rho = float(np.linalg.norm(xb))
        if rho < tol:
            return [x0], [alg.identity.as_float()]
        u = xb / rho
        c_minus = Element(alg, (0.5, *(-0.5 * u)))
        c_plus = Element(alg, (0.5, *(0.5 * u)))
        return [x0 - rho, x0 + rho], [c_minus, c_plus]
    # sym(r): ordinary symmetric eigendecomposition
    r = alg.r
    pairs = _sym_pairs(r)
    mat = np.zeros((r, r))
    for k, (i, j) in enumerate(pairs):
        mat[i, j] = xf[k]
        mat[j, i] = xf[k]
    evals, evecs = np.linalg.eigh(mat)
    # cluster
    clusters = []
    for idx in range(r):
        if clusters and evals[idx] - clusters[-1][0][-1] < tol:
            clusters[-1][0].append(evals[idx])
            clusters[-1][1].append(idx)
        else:
            clusters.append(([evals[idx]], [idx]))
    lams, frame = [], []
    for vals, idxs in clusters:
        proj = sum(np.outer(evecs[:, i], evecs[:, i]) for i in idxs)
        coords = tuple(proj[i, j] for (i, j) in pairs)
        lams.append(float(np.mean(vals)))
        frame.append(Element(alg, coords))
    return lams, frame


def in_cone(x: Element, tol: float = 1e-12) -> bool:
    lams, _ = spectral(x)
    return all(l > tol for l in lams)


def in_interval(v: Element, tol: float = 1e-12) -> bool:
    """True iff e - v and e + v both lie in the open cone."""
    lams, _ = spectral(v)
    return all(abs(l) < 1 - tol for l in lams)


def sqrt_in_cone(z: Element) -> Element:
    """The unique square root of z inside the cone."""
    lams, frame = spectral(z)
    if any(l <= 0 for l in lams):
        raise NotInCone(f"eigenvalues {lams} not all positive")
    alg = z.algebra
    out = alg.zero().as_float()
    for l, c in zip(lams, frame):
        out = out + np.sqrt(l) * c
    return out


def inverse(x: Element) -> Element:
    """x^{-1} = P(x)^{-1} x; exact for Fraction coordinates."""
    alg = x.algebra
    if x.is_exact:
        if det(x) == 0:
            raise Singular("det x = 0")
        return Element(alg, _solve_exact(quad_rep_matrix(x), x.coords))
    d = det(x)
    if abs(complex(d)) < 1e-300:
        raise Singular("det x = 0")
    pmat = np.array(quad_rep_matrix(x),
                    dtype=complex if x.is_complex else float)
    sol = np.linalg.solve(pmat, x.as_array())
    return Element(alg, tuple(sol))


def iota(z: Element, v: Element, check: bool = True):
    """Polar-type chart: (z, v) -> ((z - P(z^{1/2})v)/2, (z + P(z^{1/2})v)/2)."""
    z._check(v)
    if check and not in_cone(z):
        raise NotInCone("iota: z not in the cone")
    if check and not in_interval(v):
        raise AlgebraError("iota: v not in the open interval )-e, e(")
    s = sqrt_in_cone(z)
    w = 2 * jordan_mul(s, jordan_mul(s, v)) - jordan_mul(z, v)  # P(z^{1/2}) v
    half = 0.5
    return ((z - w) * half, (z + w) * half)


def iota_inv(x: Element, y: Element):
    """Inverse chart: z = x + y, v = P(z^{-1/2})(y - x)."""
    x._check(y)
    z = x + y
    if not in_cone(z):
        raise NotInCone("iota_inv: x + y not in the cone")
    s_inv = inverse(sqrt_in_cone(z))
    dxy = y - x
    c = inverse(z)
    v = 2 * jordan_mul(s_inv, jordan_mul(s_inv, dxy)) - jordan_mul(c, dxy)
    return (z, v)


def jacobian_iota(z: Element, v: Element) -> float:
    """Analytic Jacobian determinant of iota: 2^{-n} (det z)^{n/r}."""
    alg = z.algebra
    return 2.0 ** (-alg.n) * float(det(z)) ** (alg.n / alg.r)


# ---------------------------------------------------------------------------
# Structure group


class StructureMap:
    """Element of G(Omega), generated by quadratic maps P(a), a in Omega.

    Represented generatively (composition of P(a) factors and scalings),
    so membership in the structure group holds by construction.  The
    coordinate matrix is materialized for application and determinants.
    """

    def __init__(self, algebra: JordanAlgebra, matrix, chi_value, label="P-map"):
        self.algebra = algebra
        self.matrix = matrix          # list of rows (exact) or np.ndarray
        self.chi_value = chi_value
        self.label = label

    @classmethod
    def identity(cls, algebra):
        n = algebra.n
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return cls(algebra, rows, Fraction(1), "id")

    @classmethod
    def quadratic(cls, a: Element):
        """P(a) for a in the cone; chi(P(a)) = (det a)^2."""
        return cls(a.algebra, quad_rep_matrix(a), det(a) ** 2, f"P({list(a.coords)})")

    @classmethod
    def scaling(cls, algebra, c):
        n = algebra.n
        rows = [[c * Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return cls(algebra, rows, c ** algebra.r, f"{c}*id")

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.algebra:
            raise AlgebraMismatch("structure map applied across algebras")
        n = self.algebra.n
        out = [sum(self.matrix[i][j] * x.coords[j] for j in range(n)) for i in range(n)]
        return Element(self.algebra, out)

    def compose(self, other: "StructureMap") -> "StructureMap":
        n = self.algebra.n
        rows = [
            [sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        return StructureMap(self.algebra, rows, self.chi_value * other.chi_value,
                            f"{self.label}.{other.label}")

    def det_map(self):
        """Det of the map as a linear operator on V (exact when possible)."""
        rows = self.matrix
        if all(isinstance(v, (Fraction, int)) for row in rows for v in row):
            return _det_exact(rows)
        return float(np.linalg.det(np.array(rows, dtype=float)))


def _det_exact(rows):
    n = len(rows)
    a = [[_frac(v) for v in row] for row in rows]
    dval = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            dval = -dval
        dval *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return dval


def chi(ell: StructureMap, samples: int = 5, rng: random.Random | None = None):
    """The structure-group character: det(ell x) = chi(ell) det(x).

    Validates the defining relation on random rational samples and checks
    Det(ell) = chi(ell)^{n/r} numerically before returning chi(ell).
    """
    alg = ell.algebra
    rng = rng or random.Random(7)
    c = det(ell(alg.identity))  # det(e) = 1
    for _ in range(samples):
        x = random_rational_element(rng, alg)
        if det(ell(x)) != c * det(x):
            raise AlgebraError(f"{ell.label}: not in the structure group")
    dm = ell.det_map()
    expected = float(c) ** (alg.n / alg.r)
    if abs(float(dm) - expected) > 1e-8 * max(1.0, abs(expected)):
        raise AlgebraError(
            f"{ell.label}: Det(ell) = {float(dm)} != chi^(n/r) = {expected}"
        )
    return c


# ---------------------------------------------------------------------------
# Random sampling helpers (exact rational constructions)


def random_rational_element(rng: random.Random, algebra: JordanAlgebra,
                            num_bound: int = 6, den_bound: int = 4) -> Element:
    coords = tuple(
        Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        for _ in range(algebra.n)
    )
    return Element(algebra, coords)


def random_cone_point(rng: random.Random, algebra: JordanAlgebra) -> Element:
    """u.u + e is strictly inside the cone, with exact coordinates."""
    u = random_rational_element(rng, algebra, 3, 3)
    return jordan_mul(u, u) + algebra.identity


def random_interval_point(rng: random.Random, algebra: JordanAlgebra) -> Element:
    """Exact rational point of )-e, e(.

    w = u.u + e has eigenvalues in (0, tr w]; alpha*(w - (tr w / 2) e) then
    has eigenvalues inside (-1, 1) for alpha < 2 / tr w.
    """
    w = random_cone_point(rng, algebra)
    t = trace(w)
    alpha = Fraction(rng.randint(1, 9), 10) * 2 / t
    return alpha * (w - (t / 2) * w.algebra.identity)
