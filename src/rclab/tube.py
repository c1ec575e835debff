"""Numerical holomorphic calculus on the tube domain V + i Omega.

Everything here is float/complex: branch-tracked determinant powers,
coherent states, Cauchy-integral derivatives on polydiscs, the lifted
action of the tube automorphism generators (translations, cone dilations,
the inversion z -> -z^{-1}), the bracket as a bi-differential operator,
and the checks that tie them together.

Branch convention: log det(z/i) is the unique continuous determination on
the (simply connected, convex) tube that vanishes at z = i e; it is
computed by straight-line homotopy from i e with adaptive subdivision
keeping every argument increment below pi/4.  The cocycle data psi_g of a
lifted generator always derives psi_{g^{-1}} = -psi_g o g^{-1}, so both
sides of any covariance identity use the same group lift.

Function evaluators are vectorized: they take an (m, n) complex coordinate
array and return (m,) complex values.  All aggregation is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import report, worst
from .algebra import (
    JordanAlgebra, Element, det, sqrt_in_cone, in_cone, NotInCone,
    quad_rep_matrix,
)
from .brackets import compute_c, compute_C
from .quadrature import (
    gamma_omega_closed, tube_laplace, gauss_legendre, gauss_jacobi,
    scaled_interval_rule, box_rule, weyl_integral, _sym2_nested_mc,
)

__all__ = [
    "TubePoint",
    "tube_point",
    "det_batch",
    "logdet_tube",
    "HoloFunction",
    "coherent_state",
    "holo_derivative",
    "holo_mixed_derivatives",
    "GroupGenerator",
    "pi_action",
    "apply_B",
    "check_covariance_B",
    "check_adjoint_image",
    "check_J_factorization",
    "check_partial_isometry",
    "check_bergman_isometry",
    "check_bracket_transform_equivalence",
    "check_hua_cocycle",
    "check_coherent_transform",
]


# ---------------------------------------------------------------------------
# Tube points and branch-tracked determinant powers


@dataclass(frozen=True)
class TubePoint:
    """A complex element whose imaginary part lies in the open cone."""

    point: Element

    def __post_init__(self):
        if not in_cone(self.point.imag()):
            raise NotInCone("imaginary part is not in the cone")

    @property
    def algebra(self):
        return self.point.algebra

    def coords(self):
        return self.point.as_array()


def tube_point(algebra: JordanAlgebra, coords) -> TubePoint:
    return TubePoint(algebra.element(tuple(complex(c) for c in coords)))


def det_batch(algebra: JordanAlgebra, coords: np.ndarray) -> np.ndarray:
    """det evaluated on an (m, n) complex coordinate array."""
    coords = np.atleast_2d(coords)
    out = np.zeros(len(coords), dtype=complex)
    for mono, coef in algebra.det_poly.items():
        term = np.full(len(coords), float(coef), dtype=complex)
        for i, e in enumerate(mono):
            if e:
                term = term * coords[:, i] ** e
        out += term
    return out


def logdet_tube(algebra: JordanAlgebra, coords, waypoints=None,
                max_refine: int = 14) -> np.ndarray:
    """Continuous branch of log det(z/i) on the tube, 0 at z = i e.

    ``coords``: (m, n) complex array of tube points.  The branch is tracked
    along the straight segment from i e (through optional ``waypoints``,
    each an (n,) coordinate array) with adaptive dyadic refinement until
    every step turns the argument by less than pi/4.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=complex))
    m = len(coords)
    base = 1j * np.array([float(c) for c in algebra.e_coords], dtype=complex)
    pts = [np.broadcast_to(base, coords.shape)]
    if waypoints is not None:
        for wp in waypoints:
            pts.append(np.broadcast_to(np.asarray(wp, dtype=complex), coords.shape))
    pts.append(coords)

    total = np.zeros(m, dtype=complex)
    minus_i = complex(0.0, -1.0)
    for a, b in zip(pts[:-1], pts[1:]):
        nsteps = 8
        for _ in range(max_refine):
            taus = np.linspace(0.0, 1.0, nsteps + 1)
            vals = np.empty((nsteps + 1, m), dtype=complex)
            for idx, tau in enumerate(taus):
                seg = a + tau * (b - a)
                vals[idx] = det_batch(algebra, minus_i * seg)
            if np.any(np.abs(vals) < 1e-300):
                nsteps *= 2
                continue
            ratios = vals[1:] / vals[:-1]
            dargs = np.angle(ratios)
            if np.max(np.abs(dargs)) < math.pi / 4:
                break
            nsteps *= 2
        else:
            raise ArithmeticError("branch tracking failed to refine")
        total = total + np.sum(np.log(np.abs(ratios)), axis=0) \
            + 1j * np.sum(dargs, axis=0)
    return total


# ---------------------------------------------------------------------------
# Holomorphic functions


class HoloFunction:
    """Vectorized evaluator of a holomorphic function on the tube.

    ``radius_hint`` bounds (as a fraction of the minimal eigenvalue of the
    imaginary part) how far polydisc contours may reach; 0.4 is safe for
    every function built here.
    """

    def __init__(self, algebra, evaluator, radius_hint: float = 0.4,
                 label: str = ""):
        self.algebra = algebra
        self.evaluator = evaluator
        self.radius_hint = radius_hint
        self.label = label

    def __call__(self, coords) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        return np.asarray(self.evaluator(coords), dtype=complex)

    def at(self, z: Element) -> complex:
        return complex(self(z.as_array().reshape(1, -1))[0])


def coherent_state(algebra: JordanAlgebra, nu, w: Element) -> HoloFunction:
    """k_nu^w(z) = det((z - conj w)/i)^(-nu), branch-tracked."""
    wbar = np.conj(w.as_array())

    def ev(coords):
        return np.exp(complex(-nu) * logdet_tube(algebra, coords - wbar))

    label = f"coherent(nu={nu})"
    return HoloFunction(algebra, ev, 0.4, label)


# ---------------------------------------------------------------------------
# Cauchy-integral derivatives on polydiscs


def _min_eig_imag(algebra, point):
    from .algebra import spectral

    lams, _ = spectral(algebra.element(tuple(point)).imag())
    return min(lams)


def holo_mixed_derivatives(algebra: JordanAlgebra, F, point, alphas,
                           n_nodes: int = 32, radius_scale: float = 0.4):
    """Coordinate mixed partials of F at ``point`` for several multi-indices.

    ``F`` is a vectorized evaluator on (m, d) arrays, d = len(point); the
    point may pack several tube points (e.g. a pair slot).  Multi-indices
    sharing the same support are served from one tensor Cauchy grid via an
    FFT, which also makes the node count the only accuracy knob.
    Returns {alpha: complex}.
    """
    point = np.asarray(point, dtype=complex)
    d = len(point)
    n = algebra.n
    out = {}
    by_axes = {}
    for alpha in alphas:
        axes = tuple(i for i, e in enumerate(alpha) if e)
        by_axes.setdefault(axes, []).append(tuple(alpha))
    # safe polydisc radius: all slots perturb their own imaginary part
    slots = d // n
    rho_bound = min(
        _min_eig_imag(algebra, point[s * n:(s + 1) * n]) for s in range(slots)
    ) * radius_scale
    if rho_bound <= 0:
        raise ValueError("polydisc radius violation: point too close to the "
                         "tube boundary")
    for axes, group in by_axes.items():
        if not axes:
            val = complex(F(point.reshape(1, -1))[0])
            for alpha in group:
                out[alpha] = val
            continue
        q = len(axes)
        rho = rho_bound / q
        max_order = max(max(alpha[ax] for ax in axes) for alpha in group)
        # grids over >2 axes get fewer nodes per circle; aliasing decays
        # like rho^nodes, which stays far below every stated tolerance
        nodes = n_nodes if q <= 2 else (16 if q == 3 else 12)
        nodes = max(nodes, 2 * max_order + 2)
        theta = 2 * math.pi * np.arange(nodes) / nodes
        ring = rho * np.exp(1j * theta)
        grids = np.meshgrid(*([ring] * q), indexing="ij")
        pts = np.tile(point, (nodes**q, 1))
        for ax_i, ax in enumerate(axes):
            pts[:, ax] += grids[ax_i].ravel()
        vals = F(pts).reshape((nodes,) * q)
        coeffs = np.fft.fftn(vals) / (nodes**q)
        for alpha in group:
            orders = [alpha[ax] for ax in axes]
            c = coeffs[tuple(orders)]
            fact = 1.0
            for o in orders:
                fact *= math.factorial(o)
            out[alpha] = complex(c * fact / rho ** sum(orders))
    return out


def holo_derivative(F: HoloFunction, z: Element, alpha, n_nodes: int = 32) -> complex:
    """Single coordinate mixed partial of F at the tube point z."""
    res = holo_mixed_derivatives(F.algebra, F, z.as_array(), [tuple(alpha)],
                                 n_nodes=n_nodes,
                                 radius_scale=F.radius_hint)
    return res[tuple(alpha)]


# ---------------------------------------------------------------------------
# Lifted automorphism generators


class GroupGenerator:
    """A generator of the tube automorphism group with explicit lift data.

    kind    'translation' (z -> z + u, u real),
            'dilation'    (z -> P(a^{1/2}) z, a in the cone),
            'inversion'   (z -> -z^{-1}).
    psi     the chosen continuous logarithm of j(g, .) = Det_C(Dg);
            psi_{g^{-1}} is always derived as -psi_g o g^{-1}.
    """

    def __init__(self, algebra: JordanAlgebra, kind: str, parameter=None):
        self.algebra = algebra
        self.kind = kind
        self.parameter = parameter
        n, r = algebra.n, algebra.r
        if kind == "translation":
            self._u = parameter.as_array().astype(complex)
        elif kind == "dilation":
            a = parameter
            if not in_cone(a.as_float()):
                raise NotInCone("dilation parameter must lie in the cone")
            root = sqrt_in_cone(a.as_float())
            self._mat = np.array(quad_rep_matrix(root), dtype=float)
            self._mat_inv = np.linalg.inv(self._mat)
            self._chi = float(det(a.as_float()))
        elif kind == "inversion":
            pass
        else:
            raise ValueError(f"unknown generator kind {kind!r}")

    # -- point maps ----------------------------------------------------------

    def apply(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        if self.kind == "translation":
            return coords + self._u
        if self.kind == "dilation":
            return coords @ self._mat.T
        return _neg_inverse_batch(self.algebra, coords)

    def apply_inv(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        if self.kind == "translation":
            return coords - self._u
        if self.kind == "dilation":
            return coords @ self._mat_inv.T
        return _neg_inverse_batch(self.algebra, coords)

    # -- cocycle -------------------------------------------------------------

    def psi(self, coords: np.ndarray) -> np.ndarray:
        """psi_g on a batch: continuous log of Det_C(Dg(z))."""
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        n, r = self.algebra.n, self.algebra.r
        if self.kind == "translation":
            return np.zeros(len(coords), dtype=complex)
        if self.kind == "dilation":
            return np.full(len(coords), (n / r) * math.log(self._chi),
                           dtype=complex)
        logdet_z = logdet_tube(self.algebra, coords) + r * (1j * math.pi / 2)
        return -(2 * n / r) * logdet_z

    def psi_inv(self, coords: np.ndarray) -> np.ndarray:
        """psi_{g^{-1}} = -psi_g o g^{-1} (same lift on both sides)."""
        return -self.psi(self.apply_inv(coords))

    def __repr__(self):
        return f"GroupGenerator({self.algebra.name}, {self.kind})"


def _neg_inverse_batch(algebra, coords):
    """z -> -z^{-1} on a batch, via P(z) c = z (complex linear solves)."""
    T = algebra._mult_tensor.astype(complex)
    x = coords
    L = np.einsum("bi,ijk->bkj", x, T)
    xsq = np.einsum("bij,bj->bi", L, x)
    Lsq = np.einsum("bi,ijk->bkj", xsq, T)
    P = 2 * np.einsum("bij,bjk->bik", L, L) - Lsq
    sol = np.linalg.solve(P, x[..., None])[..., 0]
    return -sol


def pi_action(gen: GroupGenerator, nu, F: HoloFunction) -> HoloFunction:
    """The weight-nu action: z -> e^{(r/2n) nu psi_{g^{-1}}(z)} F(g^{-1} z)."""
    alg = gen.algebra
    scale = alg.r / (2.0 * alg.n)

    def ev(coords):
        inv = gen.apply_inv(coords)
        return np.exp(complex(nu) * scale * gen.psi_inv(coords)) * F(inv)

    return HoloFunction(alg, ev, F.radius_hint,
                        f"pi_{nu}({gen.kind}).{F.label}")


# ---------------------------------------------------------------------------
# The bracket as a bi-differential operator


def _bracket_operator_terms(algebra, k, lam, mu, cache_dir=None):
    """Specialized coefficients and gradient scalings for apply_B."""
    c = compute_c(algebra, k, cache_dir)
    shift = Fraction(algebra.n, algebra.r)
    spec = c.specialize(Fraction(lam) - shift, Fraction(mu) - shift)
    gram = [float(g) for g in algebra.gram]
    terms = []
    for mono, coef in spec.items():
        sc = 1.0
        for i, e in enumerate(mono):
            if e:
                sc *= (1.0 / gram[i % algebra.n]) ** e
        terms.append((mono, float(coef) * sc if isinstance(coef, Fraction) else complex(coef) * sc))
    return terms


def apply_B(algebra: JordanAlgebra, k: int, lam, mu, F2, z: Element,
            n_nodes: int = 32, cache_dir=None) -> complex:
    """The k-th bracket applied to F2 (a function of a pair) at z.

    F2 is a vectorized evaluator on (m, 2n) arrays.  The operator is the
    bracket polynomial specialized at (lam - n/r, mu - n/r), read as mixed
    trace-form derivatives in the two slots, restricted to the diagonal.
    """
    terms = _bracket_operator_terms(algebra, k, lam, mu, cache_dir)
    point = np.concatenate([z.as_array(), z.as_array()])
    alphas = [mono for mono, _ in terms]
    derivs = holo_mixed_derivatives(algebra, F2, point, alphas, n_nodes=n_nodes)
    total = 0.0 + 0.0j
    for mono, coef in terms:
        total += coef * derivs[mono]
    return complex(total)


def product_pair(F: HoloFunction, G: HoloFunction):
    """(z, w) -> F(z) G(w) as a 2n-coordinate evaluator."""
    n = F.algebra.n

    def ev(coords):
        coords = np.atleast_2d(coords)
        return F(coords[:, :n]) * G(coords[:, n:])

    return ev


def transformed_pair(gen: GroupGenerator, lam, mu, F: HoloFunction,
                     G: HoloFunction):
    """(z, w) -> [pi_lam(g) F](z) [pi_mu(g) G](w)."""
    return product_pair(pi_action(gen, lam, F), pi_action(gen, mu, G))


# ---------------------------------------------------------------------------
# Checks


def _default_tube_points(algebra):
    """A deterministic spread of well-interior tube points."""
    n = algebra.n
    e = np.array([float(c) for c in algebra.e_coords])
    pts = []
    shifts = [
        (0.0, 1.0), (0.3, 1.4), (-0.4, 0.9), (0.6, 2.0), (-0.2, 1.1),
    ]
    for idx, (re_, im_) in enumerate(shifts):
        coords = re_ * e + 1j * im_ * e
        if n > 1:
            bump_idx = 1 + (idx % (n - 1))
            coords = coords + np.eye(n)[bump_idx] * (0.15 + 0.05 * idx) * (1 + 0.5j)
        pts.append(coords.astype(complex))
    return pts


def default_generators(algebra, rng_scale: float = 1.0):
    u = algebra.element(tuple(
        0.4 * ((-1) ** i) * rng_scale for i in range(algebra.n)
    ))
    a = algebra.identity.as_float() + algebra.element(
        tuple(0.3 * rng_scale / (i + 1) for i in range(algebra.n))
    )
    return [
        GroupGenerator(algebra, "translation", u),
        GroupGenerator(algebra, "dilation", a),
        GroupGenerator(algebra, "inversion"),
    ]


def check_covariance_B(algebra: JordanAlgebra, k: int, lam, mu,
                       gen: GroupGenerator, points=None, witnesses=None,
                       n_nodes: int = 32, tol: float = 1e-6,
                       cache_dir=None) -> dict:
    """Both routes of the bracket covariance on a coherent-state product.

    LHS: transform the pair by (pi_lam x pi_mu)(g), then apply the bracket.
    RHS: apply the bracket, then transform by pi_{lam+mu+2k}(g).
    For the inversion the sample points keep g^{-1}(z) well inside the
    tube (minimal eigenvalue of the imaginary part > 0.1), where polydisc
    contours retain their accuracy.
    """
    nu = lam + mu + 2 * k
    n = algebra.n
    e = np.array([float(c) for c in algebra.e_coords])
    if witnesses is None:
        w1 = algebra.element(tuple((0.2 + 1.1j) * e + 0.05j * np.arange(n)))
        w2 = algebra.element(tuple((-0.3 + 0.9j) * e + 0.04j * np.arange(n)[::-1]))
        witnesses = (w1, w2)
    F = coherent_state(algebra, lam, witnesses[0])
    G = coherent_state(algebra, mu, witnesses[1])
    if points is None:
        points = [algebra.element(tuple(c)) for c in _default_tube_points(algebra)]
    scale_psi = algebra.r / (2.0 * algebra.n)
    lhs_pair = transformed_pair(gen, lam, mu, F, G)
    plain_pair = product_pair(F, G)
    rows = []
    for z in points:
        zc = z.as_array()
        ginv_z = gen.apply_inv(zc.reshape(1, -1))[0]
        lam_min = _min_eig_imag(algebra, ginv_z)
        if lam_min < 0.1:
            continue
        lhs = apply_B(algebra, k, lam, mu, lhs_pair, z, n_nodes, cache_dir)
        inner_B = apply_B(algebra, k, lam, mu, plain_pair,
                          algebra.element(tuple(ginv_z)), n_nodes, cache_dir)
        fac = np.exp(complex(nu) * scale_psi * gen.psi_inv(zc.reshape(1, -1))[0])
        rhs = fac * inner_B
        scale = max(abs(lhs), abs(rhs), 1e-30)
        rows.append({"z": [repr(c) for c in z.coords],
                     "residual": abs(lhs - rhs) / scale})
    return report("bracket-group-covariance", algebra.name, ok=bool(rows), k=k,
                  **{"lambda": float(lam)}, mu=float(mu), generator=gen.kind,
                  tolerance=tol, max_residual=worst(r["residual"] for r in rows),
                  samples=rows)


def check_adjoint_image(algebra: JordanAlgebra, k: int, lam, mu,
                        z1: Element, z2: Element, tol: float = 1e-6,
                        n_s: int = 128, cache_dir=None) -> dict:
    """Laplace transform of the adjoint-image integrand vs the closed form.

    Numeric side: expand the bracket polynomial monomially, so the double
    cone integral factorizes into products of single-cone transforms with
    polynomial insertions; each factor is honest quadrature.  Closed side:
    product of cone Gamma values, det(z1-z2)^k, and branch-tracked inverse
    det powers.  The measured global phase is recorded.
    """
    n, r = algebra.n, algebra.r
    shift = Fraction(n, r)
    c = compute_c(algebra, k, cache_dir)
    spec = c.specialize(Fraction(lam) - shift, Fraction(mu) - shift)
    phase_irk = 1j ** (r * k)
    num = 0.0 + 0.0j
    cache1, cache2 = {}, {}
    for mono, coef in spec.items():
        mx, my = mono[:n], mono[n:]
        if mx not in cache1:
            def g1(coords, _mx=mx):
                out = np.ones(len(coords), dtype=complex)
                for i, e in enumerate(_mx):
                    if e:
                        out *= coords[:, i] ** e
                return out
            cache1[mx] = tube_laplace(algebra, g1, z1, kappa=1.0,
                                      det_power=float(lam) - float(shift),
                                      n_s=n_s)
        if my not in cache2:
            def g2(coords, _my=my):
                out = np.ones(len(coords), dtype=complex)
                for i, e in enumerate(_my):
                    if e:
                        out *= coords[:, i] ** e
                return out
            cache2[my] = tube_laplace(algebra, g2, z2, kappa=1.0,
                                      det_power=float(mu) - float(shift),
                                      n_s=n_s)
        num += float(coef) * cache1[mx] * cache2[my]
    num *= phase_irk
    diff = z1 - z2
    det_diff = complex(det(diff)) ** k
    ie = 1j * np.array([float(c0) for c0 in algebra.e_coords])
    p1 = np.exp(complex(-(float(lam) + k))
                * logdet_tube(algebra, (z1.as_array() + ie).reshape(1, -1))[0])
    p2 = np.exp(complex(-(float(mu) + k))
                * logdet_tube(algebra, (z2.as_array() + ie).reshape(1, -1))[0])
    closed = gamma_omega_closed(algebra, float(lam) + k) \
        * gamma_omega_closed(algebra, float(mu) + k) * det_diff * p1 * p2
    if abs(closed) < 1e-280:
        measured_phase = None
        resid = abs(num)
    else:
        measured_phase = num / closed
        resid = abs(num - closed) / abs(closed)
    return report("adjoint-image-laplace", algebra.name, k=k,
                  **{"lambda": float(lam)}, mu=float(mu),
                  numeric=[num.real, num.imag], closed=[closed.real, closed.imag],
                  measured_phase=None if measured_phase is None
                  else [measured_phase.real, measured_phase.imag],
                  tolerance=tol, residual=resid)


def _bump_1d(lo, hi):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def f(x):
        x = np.asarray(x, dtype=float)
        q = (x - mid) / half
        out = np.zeros_like(x)
        inside = np.abs(q) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - q[inside] ** 2))
        return out

    return f


def check_J_factorization(algebra: JordanAlgebra, z: Element | None = None,
                          n: int = 120, mc_samples: int = 1_500_000,
                          seed: int = 67, tol: float | None = None) -> dict:
    """res o (two-slot Laplace) against (one-slot Laplace) o averaging map.

    rank1: nested quadrature at 1e-6.  sym2: Monte Carlo at 1%.
    """
    if algebra.family == "rank1":
        if z is None:
            z = algebra.element((0.4 + 1.3j,))
        tol = 1e-6 if tol is None else tol
        lo, hi = 1.0, 3.0
        f1 = _bump_1d(lo, hi)
        zz = complex(z.coords[0])
        nodes, w = box_rule([(lo, hi), (lo, hi)], n)
        lhs = complex(np.sum(
            w * f1(nodes[:, 0]) * f1(nodes[:, 1])
            * np.exp(1j * zz * (nodes[:, 0] + nodes[:, 1]))
        ))
        # rhs: averaging map then one-slot transform
        gl = gauss_legendre(n)
        vg, wv = scaled_interval_rule(gl, -1.0, 1.0)
        eg, we = scaled_interval_rule(gl, 2 * lo, 2 * hi)

        inner = np.zeros(len(eg))
        for i, eta in enumerate(eg):
            inner[i] = np.sum(wv * f1(eta * (1 - vg) / 2) * f1(eta * (1 + vg) / 2))
        jf = 0.5 * eg * inner
        rhs = complex(np.sum(we * jf * np.exp(1j * zz * eg)))
        resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        return report("laplace-averaging-factorization", algebra.name,
                      method="quadrature", tolerance=tol, residual=resid,
                      lhs=[lhs.real, lhs.imag], rhs=[rhs.real, rhs.imag])
    if algebra.name != "sym2":
        raise ValueError("check implemented for rank1 and sym2")
    tol = 1e-2 if tol is None else tol
    if z is None:
        z = algebra.element((0.2 + 0.9j, -0.1 + 1.1j, 0.05 + 0.1j))
    zc = z.as_array()
    gram = np.array([1.0, 1.0, 2.0])

    def phase(coords):
        return np.exp(1j * (coords @ (gram * zc)))

    lhs, rhs = _sym2_nested_mc(algebra, 2.0, 0.9, mc_samples, seed, weight=phase)
    resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return report("laplace-averaging-factorization", algebra.name, method="mc",
                  seed=seed, tolerance=tol, residual=resid,
                  lhs=[lhs.real, lhs.imag], rhs=[rhs.real, rhs.imag])


def check_partial_isometry(algebra: JordanAlgebra, k: int, lam, mu,
                           n: int = 220, tol: float = 1e-6,
                           cache_dir=None) -> dict:
    """Norm ratio constancy of the adjoint embedding, rank 1.

    ||Phi h||^2 / ||h||^2 must match the interval integral
    2^{-r lam - r mu + n} int |C(k)|^2 det(e-v)^{lam-n/r} det(e+v)^{mu-n/r} dv
    and be flat across test bumps.
    """
    if algebra.family != "rank1":
        raise ValueError("partial isometry check implemented for rank1")
    lam_f, mu_f = float(lam), float(mu)
    nu = lam_f + mu_f + 2 * k
    shift = 1.0  # n/r
    c = compute_c(algebra, k, cache_dir)
    spec = c.specialize(Fraction(lam) - 1, Fraction(mu) - 1)

    def c_eval(xi, zeta):
        out = np.zeros_like(xi, dtype=float)
        for mono, coef in spec.items():
            out += float(coef) * xi ** mono[0] * zeta ** mono[1]
        return out

    bumps = [_bump_1d(1.0, 2.2), _bump_1d(1.6, 3.0), _bump_1d(0.8, 2.8)]
    ratios = []
    for h in bumps:
        nodes, w = box_rule([(1e-9, 3.0), (1e-9, 3.0)], n)
        xi, zeta = nodes[:, 0], nodes[:, 1]
        hv = h(xi + zeta)
        mask = hv > 0
        # |Phi h|^2 against the L^2_{lam,mu} weight xi^{-lam+1} zeta^{-mu+1}
        # collapses to this integrand
        integrand = np.zeros(len(nodes))
        integrand[mask] = (
            xi[mask] ** (lam_f - 1) * zeta[mask] ** (mu_f - 1)
            * (xi[mask] + zeta[mask]) ** (-2 * lam_f - 2 * mu_f - 4 * k + 2)
            * c_eval(xi[mask], zeta[mask]) ** 2 * hv[mask] ** 2
        )
        num = float(np.sum(w * integrand))
        g1 = gauss_legendre(n)
        eta, we = scaled_interval_rule(g1, 1e-9, 3.0)
        den = float(np.sum(we * h(eta) ** 2 * eta ** (-nu + 1)))
        ratios.append(num / den)
    spread = (worst(ratios) - min(ratios)) / worst(map(abs, ratios))
    C = compute_C(algebra, k, Fraction(lam) - 1, Fraction(mu) - 1, cache_dir)

    def c2(eigs):
        return float(C.evaluate(algebra.element((eigs[0],)))) ** 2

    interval = weyl_integral(algebra, c2, lam_f - 1, mu_f - 1, n=max(n, 2 * k + 8))
    expected = 2.0 ** (-algebra.r * lam_f - algebra.r * mu_f + algebra.n) * interval
    return report("adjoint-partial-isometry", algebra.name, k=k,
                  **{"lambda": lam_f}, mu=mu_f, ratios=ratios,
                  ratio_spread=spread, expected_constant=expected,
                  constant_residual=abs(ratios[0] - expected) / abs(expected),
                  tolerance=tol)


def check_bracket_transform_equivalence(algebra: JordanAlgebra, k: int,
                                        lam, mu, z: Element | None = None,
                                        n: int = 120, tol: float = 1e-6,
                                        cache_dir=None) -> dict:
    """The bracket on transforms equals the transform of the averaged form.

    Left route: apply the bi-differential bracket to the two-slot transform
    of a product bump (contour derivatives at (z, z)).  Right route:
    i^{rk} 2^{-n} (det eta)^{k + n/r} int C(k)_{lam-n/r, mu-n/r}(v)
    f(iota(eta, v)) dv, then the one-slot transform.  Rank 1.
    """
    if algebra.family != "rank1":
        raise ValueError("operator-equivalence check implemented for rank1")
    if z is None:
        z = algebra.element((0.3 + 1.2j,))
    lo, hi = 1.0, 3.0
    f1 = _bump_1d(lo, hi)
    gl = gauss_legendre(n)
    xi, wxi = scaled_interval_rule(gl, lo, hi)
    fw = f1(xi) * wxi

    def pair_transform(coords):
        coords = np.atleast_2d(coords)
        lf_z = np.exp(1j * np.outer(coords[:, 0], xi)) @ fw
        lf_w = np.exp(1j * np.outer(coords[:, 1], xi)) @ fw
        return lf_z * lf_w

    lhs = apply_B(algebra, k, lam, mu, pair_transform, z, cache_dir=cache_dir)
    shift = Fraction(algebra.n, algebra.r)
    C = compute_C(algebra, k, Fraction(lam) - shift, Fraction(mu) - shift,
                  cache_dir)
    coeffs = [float(C.terms.get((j,), 0)) for j in range(C.degree() + 1)]
    vg, wv = scaled_interval_rule(gl, -1.0, 1.0)
    cvals = sum(c * vg**j for j, c in enumerate(coeffs))
    eg, we = scaled_interval_rule(gl, 2 * lo, 2 * hi)
    inner = np.array([
        np.sum(wv * cvals * f1(eta * (1 - vg) / 2) * f1(eta * (1 + vg) / 2))
        for eta in eg
    ])
    rk = algebra.r * k
    bhat = (1j ** rk) * 2.0 ** (-algebra.n) * eg ** (k + 1) * inner
    rhs = complex(np.sum(we * bhat * np.exp(1j * complex(z.coords[0]) * eg)))
    return report("bracket-transform-equivalence", algebra.name, k=k,
                  **{"lambda": float(lam)}, mu=float(mu),
                  lhs=[lhs.real, lhs.imag], rhs=[rhs.real, rhs.imag],
                  residual=abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
                  tolerance=tol)


def check_bergman_isometry(algebra: JordanAlgebra, nu: float = 2.5,
                           n: int = 140, tol: float = 1e-6) -> dict:
    """Weighted-norm isometry of the cone transform, rank 1.

    ||L f||^2 against det(y)^{nu-2n/r} dx dy over the tube equals a
    constant times ||f||^2 in L^2(det^{-nu+n/r}); the constant for the
    e^{i(z,xi)} convention is (2 pi)^n 2^{n/r-nu} Gamma_Omega(nu - n/r),
    an independent Parseval computation.  Constancy across test functions
    is asserted as well.
    """
    if algebra.family != "rank1":
        raise ValueError("isometry check implemented for rank1")
    gl = gauss_legendre(n)
    xi, wxi = scaled_interval_rule(gl, 0.5, 3.5)
    X, Y = 90.0, 20.0
    x_nodes, wx = scaled_interval_rule(gauss_legendre(4 * n), -X, X)
    # y-integral against y^{nu-2}: Jacobi rule with the weight built in
    jr = gauss_jacobi(n, 0.0, nu - 2.0)
    y_nodes = Y * (1 + jr.nodes) / 2
    wy = jr.weights * (Y / 2) ** (nu - 1.0)
    ratios = []
    for lo, hi in ((1.0, 3.0), (0.8, 2.4)):
        f = _bump_1d(lo, hi)
        fvals = f(xi) * wxi
        # transform values on the (x, y) grid, vectorized over x
        norm_tube = 0.0
        for y0, wy0 in zip(y_nodes, wy):
            damped = fvals * np.exp(-y0 * xi)
            lf = np.exp(1j * np.outer(x_nodes, xi)) @ damped
            norm_tube += wy0 * float(wx @ (lf.real**2 + lf.imag**2))
        norm_cone = float(np.sum(wxi * f(xi) ** 2 * xi ** (1.0 - nu)))
        ratios.append(norm_tube / norm_cone)
    expected = (2 * math.pi) * 2.0 ** (1.0 - nu) * math.gamma(nu - 1.0)
    return report("transform-norm-isometry", algebra.name, nu=nu, ratios=ratios,
                  expected_constant=expected,
                  ratio_spread=abs(ratios[0] - ratios[1]) / abs(ratios[0]),
                  residual=worst(abs(r_ - expected) / expected for r_ in ratios),
                  tolerance=tol)


def check_hua_cocycle(algebra: JordanAlgebra, gen: GroupGenerator,
                      z: Element, w: Element, tol: float = 1e-8) -> dict:
    """det(g z - conj(g w)) = e^{(r/2n) psi_g(z)} det(z - conj w) conj(e^{(r/2n) psi_g(w)})."""
    r, n = algebra.r, algebra.n
    zc = z.as_array().reshape(1, -1)
    wc = w.as_array().reshape(1, -1)
    gz = gen.apply(zc)[0]
    gw = gen.apply(wc)[0]
    lhs = det_batch(algebra, (gz - np.conj(gw)).reshape(1, -1))[0]
    scale = r / (2.0 * n)
    fz = np.exp(scale * gen.psi(zc)[0])
    fw = np.exp(scale * gen.psi(wc)[0])
    mid = det_batch(algebra, (zc[0] - np.conj(wc[0])).reshape(1, -1))[0]
    rhs = fz * mid * np.conj(fw)
    return report("kernel-cocycle-identity", algebra.name, generator=gen.kind,
                  tolerance=tol, residual=abs(lhs - rhs) / max(abs(lhs), 1e-300))


def check_coherent_transform(algebra: JordanAlgebra, nu, gen: GroupGenerator,
                             w: Element, points=None, tol: float = 1e-8) -> dict:
    """pi_nu(g) k_nu^w = e^{(r nu / 2n) conj(psi_g(w))} k_nu^{g(w)} pointwise."""
    if points is None:
        points = [algebra.element(tuple(c)) for c in _default_tube_points(algebra)]
    K = coherent_state(algebra, nu, w)
    KT = pi_action(gen, nu, K)
    gw = gen.apply(w.as_array().reshape(1, -1))[0]
    K2 = coherent_state(algebra, nu, algebra.element(tuple(gw)))
    fac = np.exp((algebra.r * complex(nu) / (2.0 * algebra.n))
                 * np.conj(gen.psi(w.as_array().reshape(1, -1))[0]))
    residuals = []
    for z in points:
        a = KT.at(z)
        b = fac * K2.at(z)
        residuals.append(abs(a - b) / max(abs(a), abs(b), 1e-300))
    return report("coherent-state-transport", algebra.name, nu=float(nu),
                  generator=gen.kind, tolerance=tol, max_residual=worst(residuals))
