"""Weighted quadrature over the cone, the interval, and eigenvalue chambers.

One generic Gauss machine drives everything: recurrence coefficients for the
weight, nodes from the recurrence's Jacobi matrix, weights by the
Christoffel sum of squared orthonormal polynomials.  Newton polishes the
nodes until the largest step relative to max(1, |x|) is below 1e-14 or no
longer shrinks: Laguerre nodes reach ~1000, where an absolute 1e-14 is below
one ulp, and the steps then bounce at the rounding floor.  Each Newton step
is one pass of the recurrence on the stacked rows (p, p'), and one last
pass of p alone gives the Christoffel sum.  Each pass rescales a node's
values by 2^-256 whenever they pass 2^256, so nothing overflows (the
Christoffel sum did from 187 Laguerre nodes); powers of two are exact, so
every weight that was a normal float keeps its bits.
Each rule is built once per (n, alpha, beta) and cached for the life of the
process; its nodes and weights are read-only arrays that every caller
shares, so nobody can corrupt a rule in place.

The cone Gamma integral reduces to an eigenvalue integral against a
Vandermonde-power density; the absolute normalization constant

    c_Omega = r! (2 pi)^((n-r)/2) / prod_{j=1..r} Gamma(1 + j d/2)/Gamma(1 + d/2)

is fixed by calibrating the Gaussian integral of the trace form against
Mehta's integral, so numeric values of Gamma_Omega match the closed product
formula in absolute terms, not just up to ratios.  For rank r >= 2 that
integral is one sum of the chamber rule of rank r - 1.  The tube Laplace
transform sweeps the cone along rays xi = s omega, a table of unit rays per
algebra (rank 1 is the one ray omega = 1); the integral in s of each row of
an exponent table, at each point of a stack of tube points, is closed,
Gamma(a) b^(-a), with the det power in a, so only the sum over the rays is
quadrature.

Interval (Weyl-reduced) integrals, one cube-to-chamber rule in every rank,
use the chamber normalization 1: only their ratios and zero tests are used.
The polar-chart checks use one rule for every algebra of CHART_NODES: tensor
midpoint rules over boxes that hold the compact supports of their smooth
integrands, memoised per ball.  The chart side sums its v ball in blocks:
through the quadratic form of P(z^{1/2}) in the trace form, the two bump
arguments of a block of v nodes at every z node come from two matrix
products, and the bumps are evaluated on their joint support only.  No
rule draws random numbers, and summation is numpy's pairwise reduction, so
results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import SCHEMA, report, worst
from .algebra import (
    JordanAlgebra, get_algebra, spectral, cone_sqrt, quad_rep,
    iota_jacobian,
)
from .brackets import compute_C

__all__ = [
    "QuadratureRule",
    "gauss_jacobi",
    "gauss_legendre",
    "gauss_laguerre",
    "MAX_LAGUERRE_NODES",
    "gamma_omega_closed",
    "gamma_omega_numeric",
    "mehta_cone_constant",
    "weyl_integral",
    "gram_matrix",
    "tube_laplace",
    "bump",
    "box_rule",
    "CHART_NODES",
    "chart_integrals",
    "check_change_of_variables",
]


# ---------------------------------------------------------------------------
# Gauss rules from three-term recurrences


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


# a node's recurrence values are scaled by 2^-256 once they pass this
_BIG = 2.0 ** 256


def _newton_step(x, a, sb, n):
    """p_tilde_n / p_tilde_n' at x (vectorized over x), from one (2, m)
    recurrence on the rows (p_tilde, p_tilde'); ``sb`` lists sqrt(b).

    A node whose |p| or |p'| passes 2^256 has both rows scaled by 2^-256,
    before they can overflow; the ratio does not see the scale.
    """
    P = np.zeros((2, len(x)))
    P[0] = 1.0 / sb[0]
    P_prev = np.zeros_like(P)
    for j in range(n):
        nxt = (x - a[j]) * P
        nxt[1] += P[0]
        nxt -= (sb[j] if j > 0 else 0.0) * P_prev
        nxt /= sb[j + 1]
        P_prev, P = P, nxt
        if np.abs(P).max() > _BIG:
            f = np.where(np.abs(P).max(axis=0) > _BIG, 2.0 ** -256, 1.0)
            P *= f
            P_prev *= f
    return P[0] / P[1]


def _christoffel_weights(x, a, sb, n):
    """The Gauss weights 1 / sum_{j<n} p_tilde_j(x)^2 at the nodes x;
    ``sb`` lists sqrt(b).

    The per-node exponent e grows by 256 whenever |p| passes 2^256, and the
    sum is kept times 2^-2e, so it cannot overflow (it did from 187 Laguerre
    nodes); scaling by a power of two is exact, so a weight that is a
    normal float gets the bits of the unscaled sum.
    """
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / sb[0])
    s = np.zeros_like(x)
    e = np.zeros(x.shape, dtype=int)
    for j in range(n):
        s += p * p
        p_prev, p = p, ((x - a[j]) * p - (sb[j] if j > 0 else 0.0) * p_prev) / sb[j + 1]
        if np.abs(p).max() > _BIG:
            big = np.abs(p) > _BIG
            f = np.where(big, 2.0 ** -256, 1.0)
            p, p_prev, s = p * f, p_prev * f, s * f * f
            e += 256 * big
    return np.ldexp(1.0 / s, -2 * e)


def _gauss_from_recurrence(n, a, b):
    """Golub-Welsch initial nodes, Newton-polished on the recurrence until
    the largest step relative to max(1, |x|) is below 1e-14 or stops
    shrinking (the rounding floor); each Newton pass runs the recurrence of
    (p_tilde, p_tilde') once (``_newton_step``), and one last pass of
    p_tilde alone gives the weights (``_christoffel_weights``).  ``b[0]``
    is the mass of the weight, and p_tilde_0 = 1 / sqrt(b[0])."""
    sb = np.sqrt(b)
    J = np.diag(a)
    off = np.arange(n - 1)
    J[off, off + 1] = J[off + 1, off] = sb[1:n]
    x = np.linalg.eigvalsh(J)
    a, sb = a.tolist(), sb.tolist()
    last = math.inf
    for _ in range(50):
        dx = _newton_step(x, a, sb, n)
        x = x - dx
        step = np.max(np.abs(dx) / np.maximum(1.0, np.abs(x)))
        if step < 1e-14 or step >= last:
            break
        last = step
    w = _christoffel_weights(x, a, sb, n)
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(x, w)


def gauss_jacobi(n: int, alpha: float, beta: float) -> QuadratureRule:
    """Nodes/weights for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""
    if n < 1:
        raise ValueError("need at least one node")
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi weight needs alpha, beta > -1")
    return _jacobi_rule(n, float(alpha), float(beta))


@functools.cache
def _jacobi_rule(n, alpha, beta):
    try:
        m0 = 2.0 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) \
            / math.gamma(alpha + beta + 2)
    except OverflowError:   # Gamma overflows from 171.7; the Beta value need not
        m0 = math.inf
    if not math.isfinite(m0):   # from ~151 the product overflows without raising
        m0 = math.exp((alpha + beta + 1) * math.log(2.0) + math.lgamma(alpha + 1)
                      + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2))
    a = np.zeros(n)
    b = np.zeros(n + 1)
    b[0] = m0
    ab = alpha + beta
    a[0] = (beta - alpha) / (ab + 2)
    for k in range(1, n):
        den = (2 * k + ab) * (2 * k + ab + 2)
        a[k] = (beta**2 - alpha**2) / den
    for k in range(1, n + 1):
        num = 4.0 * k * (k + alpha) * (k + beta) * (k + ab)
        den = (2 * k + ab) ** 2 * (2 * k + ab + 1) * (2 * k + ab - 1)
        if k == 1 and 1 + ab == 0:
            # k + ab and 2k + ab - 1 both vanish: the same ratio without them
            num, den = 4.0 * (1 + alpha) * (1 + beta), (2 + ab) ** 2 * (3 + ab)
        b[k] = num / den
    return _gauss_from_recurrence(n, a, b)


def gauss_legendre(n: int) -> QuadratureRule:
    return gauss_jacobi(n, 0.0, 0.0)


# the most Laguerre nodes a rule takes: nodes past ~745 already get weights
# that underflow to 0
MAX_LAGUERRE_NODES = 256


def gauss_laguerre(n: int, alpha: float = 0.0) -> QuadratureRule:
    """Nodes/weights for x^alpha e^{-x} on [0, inf), n <= MAX_LAGUERRE_NODES."""
    if n < 1:
        raise ValueError("need at least one node")
    if alpha <= -1:
        raise ValueError("Laguerre weight needs alpha > -1")
    if n > MAX_LAGUERRE_NODES:
        raise ValueError(f"at most {MAX_LAGUERRE_NODES} Laguerre nodes")
    return _laguerre_rule(n, float(alpha))


@functools.cache
def _laguerre_rule(n, alpha):
    m0 = math.gamma(alpha + 1)
    a = np.array([2 * k + alpha + 1 for k in range(n)], dtype=float)
    b = np.zeros(n + 1)
    b[0] = m0
    for k in range(1, n + 1):
        b[k] = k * (k + alpha)
    return _gauss_from_recurrence(n, a, b)


def scaled_interval_rule(rule: QuadratureRule, lo: float, hi: float):
    """Map a [-1,1] rule to [lo, hi]; returns (nodes, weights)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * rule.nodes, half * rule.weights


# ---------------------------------------------------------------------------
# Gamma function of the cone


def _convergent(algebra: JordanAlgebra, nu) -> float:
    """nu as a float; ValueError unless the cone Gamma integral converges,
    nu > (r-1)d/2, which makes every argument nu - j d/2 of the closed
    product positive; a NaN nu fails the test too."""
    nu = float(nu)
    bound = (algebra.r - 1) * algebra.d / 2
    if not nu > bound:
        raise ValueError(f"integral diverges: need nu > (r-1)d/2 = {bound}")
    return nu


def gamma_omega_closed(algebra: JordanAlgebra, nu) -> float:
    """(2 pi)^((n-r)/2) * prod_{j=0}^{r-1} Gamma(nu - j d/2), for nu >
    (r-1)d/2 only: below it the integral diverges, and the product of
    Gamma values at negative arguments is no value of it."""
    nu = _convergent(algebra, nu)
    out = (2 * math.pi) ** ((algebra.n - algebra.r) / 2)
    for j in range(algebra.r):
        out *= math.gamma(nu - j * algebra.d / 2)
    return out


def mehta_cone_constant(algebra: JordanAlgebra) -> float:
    """Normalization of the eigenvalue reduction of Lebesgue measure on the cone."""
    r, d, n = algebra.r, algebra.d, algebra.n
    m = 1.0
    for j in range(1, r + 1):
        m *= math.gamma(1 + j * d / 2) / math.gamma(1 + d / 2)
    return math.factorial(r) * (2 * math.pi) ** ((n - r) / 2) / m


def _tensor_rule(axes, waxes):
    """Nodes (m, len(axes)) and weights (m,) of a tensor product of 1-D rules."""
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    weights = np.prod(np.stack([g.ravel() for g in np.meshgrid(*waxes, indexing="ij")],
                               axis=1), axis=1)
    return nodes, weights


def gamma_omega_numeric(algebra: JordanAlgebra, nu, n: int = 80) -> float:
    """Gamma_Omega(nu) = int_Omega e^{-tr x} det(x)^p dx, p = nu - n/r, over
    the eigenvalues against the Vandermonde-power density.  Rank 1:
    Gauss-Laguerre with alpha = p.  Rank r >= 2: with s = lam_r and
    lam_i = s x_i the s integral is Gamma(r nu) (1 + sum x_i)^(-r nu),
    Gamma(r nu) through lgamma (it overflows long before Gamma_Omega), and
    the x integral is the chamber rule of rank r - 1 at (lam, mu) = (d, p),
    a = 2x - 1, whose ``n`` nodes per axis carry x^p.
    """
    nu = _convergent(algebra, nu)
    c0 = mehta_cone_constant(algebra)
    r, d, p = algebra.r, algebra.d, nu - algebra.n / algebra.r
    if r == 1:
        return float(c0 * np.sum(gauss_laguerre(n, p).weights))
    m = r - 1
    a, w = _chamber_rule(m, d, d, p, n)
    total = w @ ((m + 2 + a.sum(axis=1)) / 2) ** (-r * nu)
    # da = 2^m dx, (1-a)^d (1+a)^p = 2^(d+p) (1-x)^d x^p, a_j - a_i = 2(x_j - x_i)
    log2 = (m * (d + p + 1) + d * m * (m - 1) / 2) * math.log(2.0)
    return float(c0 * math.exp(math.lgamma(r * nu) + math.log(total) - log2))


# ---------------------------------------------------------------------------
# Interval (Weyl-reduced) integration; normalization constant fixed to 1


def _chamber_rule(r, d, lam, mu, n):
    """Rows a (m, r) and weights (m,) of the rule for the weight of
    ``weyl_integral`` over its chamber, ``n`` nodes per axis.

    x_i = u_i ... u_r (Duffy) maps the cube onto the chamber of a = 2x - 1.
    Axis j has ``n`` Gauss-Jacobi nodes in t_j = 2u_j - 1; beta_j = j mu + j - 1
    carries the Jacobian u_j^(j-1) and the u_j^(j mu) of prod (1+a_i)^mu, and
    alpha_r = lam (else 0) carries (1-a_r)^lam, a_r = t_r.  Exact to rounding
    for polynomials at integer weights; rank 1 is Gauss-Jacobi (lam, mu).
    """
    lam, mu = float(lam), float(mu)
    betas = [j * mu + j - 1 for j in range(1, r + 1)]
    rules = [gauss_jacobi(n, lam if j == r - 1 else 0.0, b) for j, b in enumerate(betas)]
    t, w = _tensor_rule([g.nodes for g in rules], [g.weights for g in rules])
    x = np.cumprod((1 + t[:, ::-1]) / 2, axis=1)[:, ::-1]    # x_i = u_i ... u_r
    w = w * 2.0 ** (r * mu - sum(betas))
    for i in range(r - 1):
        w = w * (2 * (1 - x[:, i])) ** lam
        for j in range(i + 1, r):
            w = w * (2 * (x[:, j] - x[:, i])) ** d
    return np.concatenate([2 * x[:, :-1] - 1, t[:, -1:]], axis=1), w


def weyl_integral(algebra: JordanAlgebra, f_eig, lam, mu, n: int = 60):
    """Integral of f against prod (1-a_i)^lam (1+a_i)^mu (a_j-a_i)^d (i < j)
    over the chamber -1 < a_1 < ... < a_r < 1 by ``_chamber_rule``; ``f_eig``
    maps (m, r) rows of ascending eigenvalues to (m, ...) values, each entry
    integrated."""
    a, w = _chamber_rule(algebra.r, algebra.d, lam, mu, n)
    return np.tensordot(w, f_eig(a), axes=1)[()]


# ---------------------------------------------------------------------------
# Gram matrices of the C(k) family


def _gram_once(algebra, polys, lam, mu, n):
    """All products C(k) C(l) in one rule: each C(k) is evaluated once, on
    the eigenvalue rows of the rule."""
    def products(eigs):
        vals = np.stack([C.poly.numeric(eigs) for C in polys], axis=1)
        return vals[:, :, None] * vals[:, None, :]

    return weyl_integral(algebra, products, lam, mu, n=n).tolist()


def gram_nodes(algebra: JordanAlgebra, lam, mu, k_max: int) -> int:
    """The node count ``gram_matrix`` takes when none is given.

    Exactness bound: integrand eigen-degree <= 2*r*k_max + weights + Vandermonde.
    """
    return 2 * algebra.r * k_max + int(float(lam) + float(mu)) + algebra.d + 12


def gram_matrix(algebra: JordanAlgebra, lam, mu, k_max: int,
                n: int | None = None) -> dict:
    """Pairwise interval inner products of C(0..k_max) at weight (lam, mu),
    as the ``gram-report`` dict.

    Precondition: lam, mu > 1 + (r-1)d - n/r (documented threshold for the
    orthogonality statement; not asserted sharp).
    """
    polys = [compute_C(algebra, k, lam, mu) for k in range(k_max + 1)]
    if n is None:
        n = gram_nodes(algebra, lam, mu, k_max)
    G = _gram_once(algebra, polys, lam, mu, n)
    G2 = _gram_once(algebra, polys, lam, mu, n + 8)
    err = worst(abs(G[i][j] - G2[i][j]) for i in range(len(G)) for j in range(len(G)))
    def ratio(k, l):
        scale = G2[k][k] * G2[l][l]
        # where the product overflows, the root of each diagonal entry
        root = (math.sqrt(G2[k][k]) * math.sqrt(G2[l][l]) if math.isinf(scale)
                else math.sqrt(scale))
        return abs(G2[k][l]) / root

    ratios = [{"k": k, "l": l, "ratio": ratio(k, l)}
              for k in range(k_max + 1) for l in range(k + 1, k_max + 1)]
    return {"schema": SCHEMA, "kind": "gram-report", "algebra": algebra.name,
            "lambda": float(lam), "mu": float(mu), "k_max": k_max, "matrix": G2,
            "off_diagonal_ratios": ratios,
            "max_off_diagonal_ratio": worst(r["ratio"] for r in ratios),
            "node_count": n + 8, "estimated_error": err}


# ---------------------------------------------------------------------------
# The tube Laplace transform along rays of the cone


@functools.cache
def _rays(name):
    """The rays of the Laplace rule of the algebra ``name``, which depend on
    neither z nor p: unit rows omega (tr omega = 1), their weights and det
    omega.  Rank 1 is the single ray omega = 1.  sym2 takes omega = k
    diag((1-u)/2, (1+u)/2) k^T, k the rotation by theta, on 48 Gauss-Legendre
    nodes of the spread u in [0, 1] and 48 midpoint angles in [0, pi).
    Built once per process and returned read-only."""
    if name == "rank1":
        rays = (np.ones((1, 1)), np.ones(1), np.ones(1))
    elif name == "sym2":
        n_u, n_theta = 48, 48
        u, wu = scaled_interval_rule(gauss_legendre(n_u), 0.0, 1.0)
        theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
        U, T = np.meshgrid(u, theta, indexing="ij")
        u, t = U.ravel(), T.ravel()
        c_polar = mehta_cone_constant(get_algebra("sym2")) / math.pi
        weights = np.repeat(wu, n_theta) * (math.pi / n_theta) * c_polar * (u / 2)
        c2, s2, cs = np.cos(t) ** 2, np.sin(t) ** 2, np.cos(t) * np.sin(t)
        h1, h2 = (1 - u) / 2, (1 + u) / 2
        unit = np.stack([c2 * h1 + s2 * h2, s2 * h1 + c2 * h2, cs * (h2 - h1)], axis=1)
        rays = (unit, weights, h1 * h2)
    else:
        raise ValueError("tube_laplace supports rank1 and sym2")
    for arr in rays:
        arr.flags.writeable = False
    return rays


def _radial(a, b):
    """int_0^inf s^(a-1) e^(-b s) ds = Gamma(a) b^(-a), for real a > 0 and
    complex b with Re b > 0, on the principal branch of b^(-a)."""
    return math.gamma(a) * b ** -a


def tube_laplace(algebra: JordanAlgebra, exps, Z, det_power) -> np.ndarray:
    """integral over Omega of det(xi)^p xi^m e^{-tr xi} e^{i(z, xi)} d xi
    for each row m of the integer (rows, n) exponent table ``exps`` and
    each tube point z of the (P, n) stack ``Z``, as a (P, rows) complex
    array.

    Along a ray xi = s omega of ``_rays``, det(xi)^p = s^{rp} det(omega)^p,
    the density is s^{n-1}, the monomial xi^m is s^{|m|} omega^m, and the
    exponential is e^{-b s} with b = (e + Im z | omega) - i (Re z | omega).
    So the radial integral is closed, Gamma(a) b^(-a) with
    a = n + rp + |m| (``_radial``), for any (possibly fractional) power and
    however fast the phase turns; only the angular sum over the rays is
    quadrature, each ray weighing w_omega det(omega)^p omega^m.  The
    integral converges when Im z + e lies in the cone.

    The angular rule, not the radial integral, bounds the accuracy away
    from the imaginary axis: for m = 0 at p = 1.3, sym2's 48 x 48 rule is
    off by a relative 1.4e-7 at z = (5, 0, 0) and 1.3e-4 at z = (20, 0, 0),
    so every report point keeps |Re z| <= 0.6.
    """
    p = float(det_power)
    unit, weights, det = _rays(algebra.name)
    gram = np.array(algebra.gram, dtype=float)
    # one matrix-vector product per point, each with the bits of a lone point
    q = (unit @ (gram * (algebra.e + Z.imag))[:, :, None])[:, :, 0]
    if np.any(q <= 0):
        raise ValueError("integral does not converge")
    b = q - 1j * (unit @ (gram * Z.real)[:, :, None])[:, :, 0]
    radial = np.stack([_radial(algebra.n + algebra.r * p + m, b)
                       for m in exps.sum(axis=1).tolist()], axis=1)
    rays = np.prod(unit ** exps[:, None, :], axis=2)
    return np.sum(rays * radial * (weights * det**p), axis=2)


# ---------------------------------------------------------------------------
# Bump functions, box rules, the polar-chart rule


def bump(q2):
    """Smooth compactly supported profile of the squared radius, 1 at 0;
    NaN at a NaN argument."""
    q2 = np.asarray(q2, dtype=float)
    out = np.zeros_like(q2)
    inside = ~(q2 >= 1.0)
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - q2[inside]))
    return out


def trace_ball_bump(algebra: JordanAlgebra, center: float, radius: float):
    """C^infty bump supported on the trace-form ball around center*e."""
    gram = np.array([float(g) for g in algebra.gram])
    e = algebra.e

    def f(coords):
        sq = coords - center * e
        sq *= sq    # in place: a chart grid's (m, n) array is a few MB
        return bump(sq @ gram / radius**2)

    return f


def box_rule(bounds, n: int):
    """Tensor Gauss-Legendre nodes/weights over a product of intervals."""
    gl = gauss_legendre(n)
    return _tensor_rule(*zip(*(scaled_interval_rule(gl, lo, hi) for lo, hi in bounds)))


# (u nodes x z nodes) entries of one block of the chart rule's v sum: a
# block's few arrays take a few MB
_CHART_BLOCK = 2 ** 16

# Midpoint nodes per axis of the chart rules, per algebra: x for the lhs, z
# and v for the rhs (z over the box of the trace ball, v over the box of a
# ball per z, of whose v nodes only those inside the ball are summed).  An
# algebra without an entry has no chart rule.
CHART_NODES = {"rank1": {"x": 160, "z": 160, "v": 100},
               "sym2": {"x": 48, "z": 16, "v": 10}}


def check_change_of_variables(algebra: JordanAlgebra, tol: float) -> dict:
    """Both sides of the polar-chart integration formula on a smooth bump
    (``chart_integrals`` with weight 1), at the tolerance ``tol``."""
    lhs, rhs = chart_integrals(algebra, 2.0, 0.9)
    return report("polar-chart-change-of-variables", algebra.name,
                  method="quadrature", nodes=dict(CHART_NODES[algebra.name]), lhs=lhs,
                  rhs=rhs, residual=abs(lhs - rhs) / max(abs(lhs), 1e-300),
                  tolerance=tol)


def _midpoint_grid(bounds, n: int):
    """Tensor midpoint nodes over a product of intervals, and the cell volume."""
    axes = [lo + (hi - lo) * (np.arange(n) + 0.5) / n for lo, hi in bounds]
    grids = np.meshgrid(*axes, indexing="ij")
    cell = math.prod((hi - lo) / n for lo, hi in bounds)
    return np.stack([g.ravel() for g in grids], axis=1), cell


def chart_integrals(algebra: JordanAlgebra, center, radius, z=None):
    """Both sides of the polar-chart formula by tensor midpoint rules.

    With f1 the trace_ball_bump of ``radius`` around ``center`` e and the
    weight w(x) = e^{i(z, x)} at the tube point ``z`` (w = 1 for None; not
    the chart's z = x + y below),
    lhs = int int f1(x) f1(y) w(x) w(y) dx dy and rhs is the same integral
    in the chart coordinates, 2^{-n} int int f1(x) f1(y) w(z) (det z)^{n/r}
    dv dz with (x, y) = iota(z, v) and z = x + y.  w = 1 is the change of
    variables itself (float results); a character gives the Laplace-averaging
    factorization (complex results).  The ball must lie inside the cone
    (radius < center).  Each integrand is C^infty with compact support
    inside its box, where the midpoint rule converges faster than any power
    of the node count.  Raises ValueError for an algebra without a
    CHART_NODES entry.
    """
    if algebra.name not in CHART_NODES:
        raise ValueError(f"chart rules implemented for {', '.join(CHART_NODES)}")
    f1 = trace_ball_bump(algebra, center, radius)
    # lhs factors because w(x) w(y) = w(x + y): the square of one n-D integral
    xs, cell = _midpoint_grid(_ball_box(algebra, center, radius),
                              CHART_NODES[algebra.name]["x"])
    zs, terms, zcell = _chart_rule(algebra.name, center, radius)
    if z is None:
        return float((cell * np.sum(f1(xs))) ** 2), float(zcell * np.sum(terms))
    gz = np.array(algebra.gram, dtype=float) * z    # w(x) = e^{i x . gz}
    lhs = (cell * np.sum(f1(xs) * np.exp(1j * (xs @ gz)))) ** 2
    return complex(lhs), complex(zcell * np.sum(terms * np.exp(1j * (zs @ gz))))


def _ball_box(algebra, c, r):
    """The box around the trace-form ball of radius r about c e."""
    return [(c * e - r / math.sqrt(g), c * e + r / math.sqrt(g))
            for e, g in zip(algebra.e, map(float, algebra.gram))]


@functools.cache
def _chart_rule(name, center, radius):
    """The z nodes of the rhs rule of ``chart_integrals``, the chart term at
    each (everything but the weight, the v integral over the ball of radius
    rho(z) done, by ``_v_ball_sum``) and the z cell volume.  Built once per
    (algebra name, center, radius) and returned read-only."""
    algebra = get_algebra(name)
    nodes = CHART_NODES[name]
    gram = np.array(algebra.gram, dtype=float)
    # z = x + y lies in the trace ball of radius 2R about 2 center e.  Given
    # z, w = P(z^{1/2}) v lies in the two balls |w -+ (z - 2ce)| < 2R, so
    # |w| < sqrt(4R^2 - |z - 2ce|^2); pulled back by the least eigenvalue of
    # P(z^{1/2}), v lies in the ball of radius rho(z) about 0.
    zs, zcell = _midpoint_grid(_ball_box(algebra, 2 * center, 2 * radius), nodes["z"])
    d2 = ((zs - 2 * center * algebra.e) ** 2 * gram).sum(axis=1)
    inside = d2 < 4 * radius**2
    zs, d2 = zs[inside], d2[inside]
    rho = np.sqrt(4 * radius**2 - d2) / spectral(algebra, zs)[:, 0]
    unit, ucell = _midpoint_grid(_ball_box(algebra, 0.0, 1.0), nodes["v"])
    # v = rho(z) u and w = P(z^{1/2}) v, with one matrix per z node.  Only
    # the u nodes inside the open unit trace-form ball count: outside it
    # |w|^2 >= |u|^2 (4R^2 - |z - 2ce|^2), so by the parallelogram law x or
    # y leaves its ball and f1(x) f1(y) is exactly 0.  No node of the grids
    # of CHART_NODES lies within rounding of the unit sphere.
    unit = unit[(unit * unit) @ gram < 1.0]
    roots = cone_sqrt(algebra, zs)
    Pz = rho[:, None, None] * np.stack([quad_rep(algebra, roots, b)
                                        for b in np.eye(algebra.n)], axis=2)
    inner = _v_ball_sum(Pz, zs - 2 * center * algebra.e, gram, radius, unit)
    terms = inner * ucell * rho**algebra.n * iota_jacobian(algebra, zs)
    zs.flags.writeable = False
    terms.flags.writeable = False
    return zs, terms, zcell


def _v_ball_sum(Pz, dev, gram, radius, unit):
    """The sum over the u rows of ``unit`` of f1(x) f1(y) at each z node,
    with (x, y) = ((z - w)/2, (z + w)/2), w = Pz u, f1 the bump of
    ``radius`` about ce in the trace form G = diag(``gram``), and one row
    dev = z - 2ce of ``dev`` per z node.

    With M = Pz^T G Pz and b = 2 Pz^T G dev, 4|x - ce|^2 and 4|y - ce|^2
    are |dev|^2 + u^T M u -+ b.u, so a block of u nodes takes two matrix
    products, not one Python step per node.  The bumps are evaluated on the
    joint support only, where both arguments are below 1 (or NaN); elsewhere
    the product is exactly 0.  Blocks hold at most ``_CHART_BLOCK`` (u nodes
    x z nodes) entries; their rows are added to the sum in u order, one node
    at a time, as a loop over the nodes would.
    """
    n = Pz.shape[1]
    # (n * n, z nodes), contiguous: a product with the transposed view is
    # several times slower
    MT = np.ascontiguousarray(
        np.einsum("zia,i,zib->zab", Pz, gram, Pz).reshape(len(dev), n * n).T)
    b = 2 * np.einsum("zia,i,zi->za", Pz, gram, dev)
    d2 = (dev * dev) @ gram
    scale = 4 * radius**2
    inner = np.zeros(len(dev))
    step = max(1, _CHART_BLOCK // len(dev))
    for lo in range(0, len(unit), step):
        u = unit[lo:lo + step]
        even = d2 + (u[:, :, None] * u[:, None, :]).reshape(len(u), n * n) @ MT
        odd = u @ b.T
        qa, qb = (even - odd) / scale, (even + odd) / scale
        both = ~(qa >= 1.0) & ~(qb >= 1.0)
        f = np.zeros_like(qa)
        f[both] = bump(qa[both]) * bump(qb[both])
        for row in f:
            inner += row
    return inner
