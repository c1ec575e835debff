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
every weight that was a normal float keeps its bits.  A pass only looks at
its values when a float bound on their growth could pass 2^255, so the
test runs a few times per pass where the values stay small.
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
The polar-chart checks integrate F(x, y) = det(x) e^{-tr x} det(y)^{1/2}
e^{-tr y}, whose side over the cone is closed, a product of two cone Gamma
values; the chart side is one cached rule per algebra (rank 1 and sym2):
z = s omega with s on a Laguerre rule and omega on the Laplace rays, v on
the chamber rule, each weight divided by the factor of F it carries, so
that F is evaluated through iota at every node and the sum closes at
rounding.  No rule draws random numbers, and summation is numpy's pairwise
reduction, so results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import SCHEMA, report, worst
from .algebra import (
    JordanAlgebra, get_algebra, iota, iota_jacobian,
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
    "CHART_POWERS",
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


def _growth(x, a, sb, n, slope):
    """Per step j, (g[j], h[j]) such that the largest |value| over the
    nodes x at step j + 1 is at most g[j] times the largest at step j plus
    h[j] times the largest at step j - 1: the triangle inequality on the
    recurrence of p_tilde (``slope`` 0) or of the rows (p_tilde, p_tilde')
    (``slope`` 1, for the p_tilde term of p_tilde')."""
    lo, hi = float(x.min()), float(x.max())
    g = [(max(hi - a[j], a[j] - lo) + slope) / sb[j + 1] for j in range(n)]
    h = [sb[j] / sb[j + 1] if j > 0 else 0.0 for j in range(n)]
    return g, h


def _newton_step(x, a, sb, n):
    """p_tilde_n / p_tilde_n' at x (vectorized over x), from one (2, m)
    recurrence on the rows (p_tilde, p_tilde'); ``sb`` lists sqrt(b).

    A node whose |p| or |p'| passes 2^256 has both rows scaled by 2^-256,
    before they can overflow; the ratio does not see the scale.  The rows
    are only looked at when ``bound``, grown by ``_growth`` from the last
    look, could pass 2^255: a test it skips could not have fired.
    """
    P = np.zeros((2, len(x)))
    P[0] = 1.0 / sb[0]
    P_prev = np.zeros_like(P)
    g, h = _growth(x, a, sb, n, 1.0)
    bound, prev = 1.0 / sb[0], 0.0
    for j in range(n):
        nxt = (x - a[j]) * P
        nxt[1] += P[0]
        nxt -= (sb[j] if j > 0 else 0.0) * P_prev
        nxt /= sb[j + 1]
        P_prev, P = P, nxt
        bound, prev = g[j] * bound + h[j] * prev, bound
        if not bound <= _BIG / 2:
            bound = float(np.abs(P).max())
            if bound > _BIG:
                f = np.where(np.abs(P).max(axis=0) > _BIG, 2.0 ** -256, 1.0)
                P *= f
                P_prev *= f
                bound = max(_BIG, bound * 2.0 ** -256)
    return P[0] / P[1]


def _christoffel_weights(x, a, sb, n):
    """The Gauss weights 1 / sum_{j<n} p_tilde_j(x)^2 at the nodes x;
    ``sb`` lists sqrt(b).

    The per-node exponent e grows by 256 whenever |p| passes 2^256, and the
    sum is kept times 2^-2e, so it cannot overflow (it did from 187 Laguerre
    nodes); scaling by a power of two is exact, so a weight that is a
    normal float gets the bits of the unscaled sum.  As in ``_newton_step``,
    |p| is only looked at when its growth bound could pass 2^255.
    """
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / sb[0])
    s = np.zeros_like(x)
    e = np.zeros(x.shape, dtype=int)
    g, h = _growth(x, a, sb, n, 0.0)
    bound, prev = 1.0 / sb[0], 0.0
    for j in range(n):
        s += p * p
        p_prev, p = p, ((x - a[j]) * p - (sb[j] if j > 0 else 0.0) * p_prev) / sb[j + 1]
        bound, prev = g[j] * bound + h[j] * prev, bound
        if not bound <= _BIG / 2:
            bound = float(np.abs(p).max())
            if bound > _BIG:
                big = np.abs(p) > _BIG
                f = np.where(big, 2.0 ** -256, 1.0)
                p, p_prev, s = p * f, p_prev * f, s * f * f
                e += 256 * big
                bound = max(_BIG, bound * 2.0 ** -256)
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


def _sym2_polar(a1, a2, w, n_theta):
    """The sym2 rows k diag(a1, a2) k^T, k the rotation by each of
    ``n_theta`` midpoint angles in [0, pi), for each eigenvalue pair of a
    rule with weights w, and their weights w (pi / n_theta) c_Omega / pi:
    the trace-form measure of the polar map, less the density of the pairs."""
    t = np.tile((np.arange(n_theta) + 0.5) * math.pi / n_theta, len(a1))
    a1, a2 = np.repeat(a1, n_theta), np.repeat(a2, n_theta)
    c2, s2, cs = np.cos(t) ** 2, np.sin(t) ** 2, np.cos(t) * np.sin(t)
    c_polar = mehta_cone_constant(get_algebra("sym2")) / math.pi
    return (np.stack([c2 * a1 + s2 * a2, s2 * a1 + c2 * a2, cs * (a2 - a1)], axis=1),
            np.repeat(w, n_theta) * (math.pi / n_theta) * c_polar)


@functools.cache
def _rays(name, n_u=48, n_theta=48):
    """The rays of the Laplace rule of the algebra ``name``, which depend on
    neither z nor p: unit rows omega (tr omega = 1), their weights and det
    omega.  Rank 1 is the single ray omega = 1.  sym2 takes omega = k
    diag((1-u)/2, (1+u)/2) k^T, k the rotation by theta, on ``n_u``
    Gauss-Legendre nodes of the spread u in [0, 1] and ``n_theta`` midpoint
    angles in [0, pi).  Built once per process and returned read-only;
    ValueError for any other algebra."""
    if name == "rank1":
        rays = (np.ones((1, 1)), np.ones(1), np.ones(1))
    elif name == "sym2":
        u, wu = scaled_interval_rule(gauss_legendre(n_u), 0.0, 1.0)
        unit, weights = _sym2_polar((1 - u) / 2, (1 + u) / 2, wu, n_theta)
        u = np.repeat(u, n_theta)
        rays = (unit, weights * (u / 2), (1 - u) / 2 * ((1 + u) / 2))
    else:
        raise ValueError("the ray rules cover rank1 and sym2")
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
    so every sym2 report point keeps |Re z| <= 0.6.  Rank 1's single ray
    carries no such bound: its transform is closed at every tube point
    (the Bergman isometry reads it at |Re z| up to about 15).
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
# The polar-chart rule


# (p, q) of F(x, y) = det(x)^p e^{-tr x} det(y)^q e^{-tr y}, the test
# function of the chart checks; p must be an integer, for the chamber rule
# of v is exact only at an integer (1 - a) power
CHART_POWERS = (1.0, 0.5)
# the chart rule's Laguerre nodes of s, (u, theta) nodes of the rays omega,
# and chamber nodes per axis and angles of v
_CHART_S, _CHART_RAYS, _CHART_V = 24, (12, 16), (2, 3)


def chart_integrals(algebra: JordanAlgebra, z=None):
    """(lhs, rhs, node counts) of the polar-chart formula for F of
    CHART_POWERS against w(x) w(y), w(x) = e^{i(x, z)} at the tube point
    ``z`` (w = 1 for None).

    lhs is closed, Gamma_Omega(p + n/r) Gamma_Omega(q + n/r), its value at
    w = 1: a character multiplies it by det(e - i z)^{-(p + q + 2n/r)} on
    the branch of ``tube.logdet_tube``, which is the caller's part.  rhs is
    2^{-n} int int F(iota(z', v)) w(z') (det z')^{n/r} dv dz' by
    ``_chart_rule``: float for None (the change of variables), complex for
    a z (the Laplace-averaging factorization).  ValueError for an algebra
    other than rank1 and sym2.
    """
    zs, terms, n_v = _chart_rule(algebra.name)
    p, q = CHART_POWERS
    ratio = algebra.n / algebra.r
    lhs = gamma_omega_closed(algebra, p + ratio) * gamma_omega_closed(algebra, q + ratio)
    nodes = {"s": _CHART_S, "omega": len(zs) // _CHART_S, "v": n_v}
    if z is None:
        return lhs, float(np.sum(terms)), nodes
    gz = np.array(algebra.gram, dtype=float) * z    # w(x) = e^{i x . gz}
    return lhs, complex(np.sum(terms * np.exp(1j * (zs @ gz)))), nodes


def check_change_of_variables(algebra: JordanAlgebra, tol: float) -> dict:
    """Both sides of the polar-chart integration formula (``chart_integrals``
    with weight 1), at the tolerance ``tol``."""
    lhs, rhs, nodes = chart_integrals(algebra)
    return report("polar-chart-change-of-variables", algebra.name,
                  method="quadrature", nodes=nodes, lhs=lhs, rhs=rhs,
                  residual=abs(lhs - rhs) / max(abs(lhs), 1e-300), tolerance=tol)


@functools.cache
def _chart_rule(name):
    """The nodes z = s omega of the chart rule of the algebra ``name``, the
    term at each, F(iota(z, v)) 2^{-n} (det z)^{n/r} summed over v, and the
    count of v nodes; built once per algebra, returned read-only.

    Each weight is divided by the factor of F its rule carries, so F is
    evaluated through iota at every node: s on the Laguerre rule of
    s^a e^{-s}, a = 2n - 1 + r(p + q), over s^a e^{-s} / s^{n-1} (s^{n-1}
    is the density of dz); omega on ``_rays`` at _CHART_RAYS; v on the
    chamber rule at (p, q), over prod (1 - a_i)^p (1 + a_i)^q, turned by
    ``_sym2_polar`` in sym2.  What is left is
    det(omega)^(p + q + n/r), a polynomial here, so the sum closes at
    rounding.  iota runs at every s node, not at s = 1 alone, so a chart
    that leaves the cone off s = 1 shows as NaN.
    """
    algebra = get_algebra(name)
    p, q = CHART_POWERS
    n, r = algebra.n, algebra.r
    unit, w_rays, _ = _rays(name, *_CHART_RAYS)
    a, w_a = _chamber_rule(r, algebra.d, p, q, _CHART_V[0])
    w_a = w_a / np.prod((1 - a) ** p * (1 + a) ** q, axis=1)
    vs, w_v = (a, w_a) if r == 1 else _sym2_polar(a[:, 0], a[:, 1], w_a, _CHART_V[1])
    alpha = 2 * n - 1 + r * (p + q)
    radial = gauss_laguerre(_CHART_S, alpha)
    tr = np.array(algebra.gram, dtype=float) * algebra.e    # tr x = x . tr
    zs, terms = [], []
    for s, w_s in zip(radial.nodes.tolist(), radial.weights.tolist()):
        zs.append(s * unit)
        X, Y = iota(algebra, np.repeat(zs[-1], len(vs), axis=0), np.tile(vs, (len(unit), 1)))
        with np.errstate(invalid="ignore"):     # a y off the cone gives NaN
            F = (algebra.det_poly.numeric(X) ** p * np.exp(-(X @ tr))
                 * algebra.det_poly.numeric(Y) ** q * np.exp(-(Y @ tr)))
        terms.append(F.reshape(len(unit), len(vs)) @ w_v * iota_jacobian(algebra, zs[-1])
                     * w_rays * (w_s * math.exp(s) * s ** (n - 1 - alpha)))
    zs, terms = np.concatenate(zs), np.concatenate(terms)
    zs.flags.writeable = False
    terms.flags.writeable = False
    return zs, terms, len(vs)
