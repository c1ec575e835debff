"""Weighted quadrature over the cone, the interval, and eigenvalue chambers.

One generic Gauss machine drives everything: recurrence coefficients for the
weight, nodes from the recurrence's Jacobi matrix polished by Newton to
1e-14, weights by the Christoffel sum of squared orthonormal polynomials.

Cone integrals of invariant functions reduce to eigenvalue integrals against
a Vandermonde-power density; the absolute normalization constant

    c_Omega = r! (2 pi)^((n-r)/2) / prod_{j=1..r} Gamma(1 + j d/2)/Gamma(1 + d/2)

is fixed by calibrating the Gaussian integral of the trace form against
Mehta's integral, so numeric values of Gamma_Omega match the closed product
formula in absolute terms, not just up to ratios.

Interval (Weyl-reduced) integrals use the chamber normalization constant 1:
only ratios and zero tests of those integrals are consumed downstream.
Monte Carlo paths take an explicit seed and reports record it; summation is
numpy's pairwise reduction, so results are reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import SCHEMA, report, worst
from .algebra import JordanAlgebra, Element, get_algebra
from .brackets import compute_C, diag_element

__all__ = [
    "QuadratureRule",
    "gauss_jacobi",
    "gauss_legendre",
    "gauss_laguerre",
    "gamma_omega_closed",
    "gamma_omega_numeric",
    "mehta_cone_constant",
    "cone_integrate_invariant",
    "weyl_integral",
    "GramReport",
    "gram_matrix",
    "sym2_polar_grid",
    "tube_laplace",
    "bump",
    "box_rule",
    "check_change_of_variables",
]


# ---------------------------------------------------------------------------
# Gauss rules from three-term recurrences


@dataclass(frozen=True)
class QuadratureRule:
    kind: str
    nodes: np.ndarray = field(compare=False)
    weights: np.ndarray = field(compare=False)
    params: dict = field(compare=False, default_factory=dict)


def _orthonormal_eval(x, a, b, m0, n):
    """p_tilde_0..p_tilde_n and derivatives at x (vectorized over x)."""
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(m0))
    dp_prev = np.zeros_like(x)
    dp = np.zeros_like(x)
    ps = [p.copy()]
    for j in range(n):
        sb_next = math.sqrt(b[j + 1])
        sb = math.sqrt(b[j]) if j > 0 else 0.0
        p_next = ((x - a[j]) * p - sb * p_prev) / sb_next
        dp_next = ((x - a[j]) * dp + p - sb * dp_prev) / sb_next
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
        ps.append(p.copy())
    return ps, p, dp


def _gauss_from_recurrence(n, a, b, m0, kind, params):
    """Golub-Welsch initial nodes, Newton-polished on the recurrence."""
    if n < 1:
        raise ValueError("need at least one node")
    J = np.zeros((n, n))
    for i in range(n):
        J[i, i] = a[i]
        if i + 1 < n:
            off = math.sqrt(b[i + 1])
            J[i, i + 1] = off
            J[i + 1, i] = off
    x = np.linalg.eigvalsh(J)
    for _ in range(50):
        _, pn, dpn = _orthonormal_eval(x, a, b, m0, n)
        dx = pn / dpn
        x = x - dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    ps, _, _ = _orthonormal_eval(x, a, b, m0, n)
    s = np.zeros_like(x)
    for j in range(n):
        s += ps[j] ** 2
    w = 1.0 / s
    return QuadratureRule(kind, x, w, params)


def gauss_jacobi(n: int, alpha: float, beta: float) -> QuadratureRule:
    """Nodes/weights for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi weight needs alpha, beta > -1")
    alpha, beta = float(alpha), float(beta)
    m0 = 2.0 ** (alpha + beta + 1) * math.gamma(alpha + 1) * math.gamma(beta + 1) \
        / math.gamma(alpha + beta + 2)
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
        b[k] = num / den
    return _gauss_from_recurrence(n, a, b, m0, "gauss-jacobi",
                                  {"alpha": alpha, "beta": beta, "N": n})


def gauss_legendre(n: int) -> QuadratureRule:
    rule = gauss_jacobi(n, 0.0, 0.0)
    return QuadratureRule("gauss-legendre", rule.nodes, rule.weights, {"N": n})


def gauss_laguerre(n: int, alpha: float = 0.0) -> QuadratureRule:
    """Nodes/weights for x^alpha e^{-x} on [0, inf); keep n <= 256."""
    if alpha <= -1:
        raise ValueError("Laguerre weight needs alpha > -1")
    if n > 256:
        raise ValueError("n > 256 overflows the orthonormal recurrence")
    m0 = math.gamma(alpha + 1)
    a = np.array([2 * k + alpha + 1 for k in range(n)], dtype=float)
    b = np.zeros(n + 1)
    b[0] = m0
    for k in range(1, n + 1):
        b[k] = k * (k + alpha)
    return _gauss_from_recurrence(n, a, b, m0, "gauss-laguerre",
                                  {"alpha": alpha, "N": n})


def scaled_interval_rule(rule: QuadratureRule, lo: float, hi: float):
    """Map a [-1,1] rule to [lo, hi]; returns (nodes, weights)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * rule.nodes, half * rule.weights


# ---------------------------------------------------------------------------
# Gamma function of the cone


def gamma_omega_closed(algebra: JordanAlgebra, nu) -> float:
    """(2 pi)^((n-r)/2) * prod_{j=0}^{r-1} Gamma(nu - j d/2)."""
    nu = float(nu)
    out = (2 * math.pi) ** ((algebra.n - algebra.r) / 2)
    for j in range(algebra.r):
        arg = nu - j * algebra.d / 2
        if arg <= 0 and abs(arg - round(arg)) < 1e-12:
            raise ValueError(f"Gamma pole at nu - {j}d/2 = {arg}")
        out *= math.gamma(arg)
    return out


def mehta_cone_constant(algebra: JordanAlgebra) -> float:
    """Normalization of the eigenvalue reduction of Lebesgue measure on the cone."""
    r, d, n = algebra.r, algebra.d, algebra.n
    m = 1.0
    for j in range(1, r + 1):
        m *= math.gamma(1 + j * d / 2) / math.gamma(1 + d / 2)
    return math.factorial(r) * (2 * math.pi) ** ((n - r) / 2) / m


def cone_integrate_invariant(algebra: JordanAlgebra, h_eig, kappa: float = 1.0,
                             n_radial: int = 80, n_u: int = 60) -> float:
    """integral over Omega of e^{-kappa tr x} h(eigenvalues(x)) dx.

    Rank 1 uses Gauss-Laguerre directly.  Rank 2 uses the factorized
    chamber coordinates lam = (s(1-u)/2, s(1+u)/2): trace and spread
    separate, so generic integrands converge spectrally.  Rank >= 2 with
    r > 2 falls back to a symmetrized tensor Laguerre grid.
    """
    c0 = mehta_cone_constant(algebra)
    r, d = algebra.r, algebra.d
    if r == 1:
        rule = gauss_laguerre(n_radial)
        x = rule.nodes / kappa
        vals = np.array([h_eig((xi,)) for xi in x], dtype=complex)
        out = np.sum(rule.weights * vals) * c0 / kappa
        return out.real if abs(out.imag) < 1e-12 * max(1.0, abs(out.real)) else out
    if r == 2:
        rs = gauss_laguerre(n_radial)
        ru = gauss_legendre(n_u)
        u, wu = scaled_interval_rule(ru, 0.0, 1.0)
        s = rs.nodes / kappa
        total = 0.0 + 0.0j
        for ui, wui in zip(u, wu):
            lam1 = s * (1 - ui) / 2
            lam2 = s * (1 + ui) / 2
            vals = np.array([h_eig((a, b)) for a, b in zip(lam1, lam2)],
                            dtype=complex)
            total += wui * np.sum(rs.weights * vals * (s * ui) ** d * (s / 2)) / kappa
        out = c0 * total
        return out.real if abs(out.imag) < 1e-12 * max(1.0, abs(out.real)) else out
    # r >= 3: gap coordinates lam_i = g_1 + ... + g_i keep the Vandermonde
    # polynomial (no absolute values) and the chamber constraint implicit
    rl = gauss_laguerre(min(n_radial, 40))
    rates = [kappa * (r - i) for i in range(r)]   # coefficient of g_{i+1} in tr
    axes = [rl.nodes / rate for rate in rates]
    waxes = [rl.weights / rate for rate in rates]
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*waxes, indexing="ij")
    g = np.stack([a.ravel() for a in grids], axis=1)
    w = np.prod(np.stack([a.ravel() for a in wgrids], axis=1), axis=1)
    lam = np.cumsum(g, axis=1)
    vdm = np.ones(len(lam))
    for i in range(r):
        for j in range(i + 1, r):
            vdm *= (lam[:, j] - lam[:, i]) ** d
    vals = np.array([h_eig(tuple(row)) for row in lam], dtype=complex)
    out = c0 * np.sum(w * vals * vdm)
    return out.real if abs(out.imag) < 1e-12 * max(1.0, abs(out.real)) else out


def gamma_omega_numeric(algebra: JordanAlgebra, nu, method: str = "quadrature",
                        n: int = 80, mc_samples: int = 1_000_000,
                        seed: int = 20240) -> float:
    """Gamma_Omega(nu) as an honest integral over the cone."""
    nu = float(nu)
    if nu <= (algebra.r - 1) * algebra.d / 2:
        raise ValueError(
            f"integral diverges: need nu > (r-1)d/2 = {(algebra.r-1)*algebra.d/2}"
        )
    p = nu - algebra.n / algebra.r
    if method == "quadrature":
        def h(eigs):
            out = 1.0
            for lam in eigs:
                out *= lam ** p
            return out
        return cone_integrate_invariant(algebra, h, 1.0, n_radial=n, n_u=n)
    if method == "mc":
        return _gamma_mc(algebra, nu, mc_samples, seed)
    raise ValueError(f"unknown method {method!r}")


def _gamma_mc(algebra, nu, samples, seed):
    """Importance-sampled Monte Carlo for Gamma_Omega (rank1 and sym2)."""
    rng = np.random.default_rng(seed)
    if algebra.family == "rank1":
        # proposal Gamma(shape), shape matched to halve the power tail
        shape = max(nu / 2, 0.5)
        x = rng.gamma(shape, size=samples)
        ratio = x ** (nu - shape) * math.gamma(shape)
        return float(np.mean(ratio))
    if algebra.name != "sym2":
        raise ValueError("Monte Carlo Gamma integral implemented for rank1/sym2")
    # coords (x11, x22, x12); Lebesgue of the trace form = sqrt(2) dx11 dx22 dx12.
    # Proposal: diagonals ~ Gamma(nu - 1/2), x12 uniform on the cone slice;
    # the det/(x11 x22) ratio is then bounded by 1, taming the variance.
    shape = nu - 0.5
    x11 = rng.gamma(shape, size=samples)
    x22 = rng.gamma(shape, size=samples)
    m = np.sqrt(x11 * x22)
    x12 = (2 * rng.random(samples) - 1.0) * m
    ratio = (1.0 - (x12 / m) ** 2) ** (nu - 1.5)
    vals = math.sqrt(2.0) * math.gamma(shape) ** 2 * ratio * (2 * m)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Interval (Weyl-reduced) integration; normalization constant fixed to 1


def weyl_integral(algebra: JordanAlgebra, f_eig, lam, mu, n: int = 60,
                  method: str = "auto") -> float:
    """Chamber integral of f against prod (1-a_i)^lam (1+a_i)^mu |Vandermonde|^d.

    ``f_eig`` takes an eigenvalue tuple.  For r = 2 the exact chamber map
    a = (c - h, c + h), c = (1-h)*chat removes the |a1 - a2| kink, so the
    rule is exact (to rounding) for polynomial integrands with integer
    weights; the symmetrized tensor-Jacobi fallback covers r >= 3.
    """
    lam, mu, r, d = float(lam), float(mu), algebra.r, algebra.d
    if r == 1:
        rule = gauss_jacobi(n, lam, mu)
        vals = np.array([f_eig((x,)) for x in rule.nodes], dtype=complex)
        out = np.sum(rule.weights * vals)
        return out.real if abs(out.imag) < 1e-12 * max(1.0, abs(out.real)) else out
    if r == 2 and method in ("auto", "triangle"):
        gl = gauss_legendre(n)
        h, wh = scaled_interval_rule(gl, 0.0, 1.0)
        chat, wc = gl.nodes, gl.weights
        total = 0.0 + 0.0j
        for hi, whi in zip(h, wh):
            c = (1.0 - hi) * chat
            a1 = c - hi
            a2 = c + hi
            wgt = ((1 - c) ** 2 - hi**2) ** lam * ((1 + c) ** 2 - hi**2) ** mu
            vals = np.array([f_eig((p, q)) for p, q in zip(a1, a2)], dtype=complex)
            total += whi * np.sum(wc * wgt * vals) * (2 * hi) ** d * 2 * (1 - hi)
        return total.real if abs(total.imag) < 1e-12 * max(1.0, abs(total.real)) else total
    # symmetrized tensor Gauss-Jacobi over the cube
    rule = gauss_jacobi(n, lam, mu)
    grids = np.meshgrid(*([rule.nodes] * r), indexing="ij")
    wgrids = np.meshgrid(*([rule.weights] * r), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    vdm = np.ones(len(nodes))
    for i in range(r):
        for j in range(i + 1, r):
            vdm *= np.abs(nodes[:, i] - nodes[:, j]) ** d
    vals = np.array([f_eig(tuple(row)) for row in nodes], dtype=complex)
    out = np.sum(w * vals * vdm) / math.factorial(r)
    return out.real if abs(out.imag) < 1e-12 * max(1.0, abs(out.real)) else out


# ---------------------------------------------------------------------------
# Gram matrices of the C(k) family


@dataclass
class GramReport:
    algebra: str
    lam: float
    mu: float
    k_max: int
    matrix: list            # (k_max+1)^2 nested lists
    off_diagonal_ratios: list
    max_off_diagonal_ratio: float
    node_count: int
    estimated_error: float
    seed: int | None = None

    def to_jsonable(self):
        return {
            "schema": SCHEMA,
            "kind": "gram-report",
            "algebra": self.algebra,
            "lambda": self.lam,
            "mu": self.mu,
            "k_max": self.k_max,
            "matrix": self.matrix,
            "off_diagonal_ratios": self.off_diagonal_ratios,
            "max_off_diagonal_ratio": self.max_off_diagonal_ratio,
            "node_count": self.node_count,
            "estimated_error": self.estimated_error,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["k,l,value"]
        for k, row in enumerate(self.matrix):
            for l, v in enumerate(row):
                lines.append(f"{k},{l},{v!r}")
        return "\n".join(lines) + "\n"


def _gram_once(algebra, polys, lam, mu, n):
    size = len(polys)
    G = [[0.0] * size for _ in range(size)]
    for k in range(size):
        for l in range(k, size):
            def f(eigs, _k=k, _l=l):
                v = diag_element(algebra, eigs)
                return float(polys[_k].evaluate(v)) * float(polys[_l].evaluate(v))
            val = float(weyl_integral(algebra, f, lam, mu, n=n))
            G[k][l] = val
            G[l][k] = val
    return G


def gram_matrix(algebra: JordanAlgebra, lam, mu, k_max: int, n: int | None = None,
                cache_dir=None) -> GramReport:
    """Pairwise interval inner products of C(0..k_max) at weight (lam, mu).

    Precondition: lam, mu > 1 + (r-1)d - n/r (documented threshold for the
    orthogonality statement; not asserted sharp).
    """
    polys = [compute_C(algebra, k, lam, mu, cache_dir) for k in range(k_max + 1)]
    if n is None:
        # exactness bound: integrand eigen-degree <= 2*r*k_max + weights + Vandermonde
        n = 2 * algebra.r * k_max + int(float(lam) + float(mu)) + algebra.d + 12
    G = _gram_once(algebra, polys, lam, mu, n)
    G2 = _gram_once(algebra, polys, lam, mu, n + 8)
    err = max(abs(G[i][j] - G2[i][j]) for i in range(len(G)) for j in range(len(G)))
    ratios = [{"k": k, "l": l,
               "ratio": abs(G2[k][l]) / math.sqrt(G2[k][k] * G2[l][l])}
              for k in range(k_max + 1) for l in range(k + 1, k_max + 1)]
    return GramReport(
        algebra=algebra.name, lam=float(lam), mu=float(mu), k_max=k_max,
        matrix=G2, off_diagonal_ratios=ratios,
        max_off_diagonal_ratio=worst(r["ratio"] for r in ratios),
        node_count=n + 8, estimated_error=err,
    )


# ---------------------------------------------------------------------------
# Full-dimensional cone quadrature for sym2 (non-invariant integrands)


def sym2_polar_grid(n_s: int, n_u: int, n_theta: int):
    """Nodes/weights for integrating F over the sym2 cone in polar form.

    x = R(theta) diag(lam) R(theta)^T with lam = (s(1-u)/2, s(1+u)/2);
    integral of F dx = sum w * F(coords) * e^{-s_scale...}: the density
    carried here is Lebesgue with the e^{-s} radial factor split off, i.e.
    caller integrands are taken against e^{-(total radial scale)}.
    Returns (s, u, theta, w) flat arrays with w containing everything
    except the caller's function and the Laguerre exponential.
    """
    c_polar = mehta_cone_constant(get_algebra("sym2")) / math.pi
    rs = gauss_laguerre(n_s)
    gl = gauss_legendre(n_u)
    u, wu = scaled_interval_rule(gl, 0.0, 1.0)
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    wt = np.full(n_theta, math.pi / n_theta)
    S, U, T = np.meshgrid(rs.nodes, u, theta, indexing="ij")
    WS, WU, WT = np.meshgrid(rs.weights, wu, wt, indexing="ij")
    s, u_, t = S.ravel(), U.ravel(), T.ravel()
    w = (WS * WU * WT).ravel() * c_polar * (s * u_) ** 1 * (s / 2)
    return s, u_, t, w


def _sym2_coords(s, u, theta):
    lam1 = s * (1 - u) / 2
    lam2 = s * (1 + u) / 2
    c, sn = np.cos(theta), np.sin(theta)
    x11 = c**2 * lam1 + sn**2 * lam2
    x22 = sn**2 * lam1 + c**2 * lam2
    x12 = c * sn * (lam2 - lam1)
    return np.stack([x11, x22, x12], axis=1)


def tube_laplace(algebra: JordanAlgebra, g, z: Element, kappa: float = 1.0,
                 det_power: float = 0.0, n_s: int = 128, n_u: int = 48,
                 n_theta: int = 48) -> complex:
    """integral over Omega of det(xi)^p g(xi) e^{-kappa tr xi} e^{i(z, xi)} d xi.

    ``g`` maps an (m, n) coordinate array to an (m,) array and must grow at
    most polynomially; the (possibly fractional) det power p is absorbed
    into a generalized-Laguerre radial rule, so endpoint behavior costs no
    accuracy.  The radial direction is rescaled per ray so the built-in
    exponential matches the full decay kappa*tr - (Im z, .); the leftover
    bounded oscillation is handled by the rule itself.  Supports rank1 and
    sym2 (the two families the analytic checks drive).
    """
    zc = z.as_array()
    p = float(det_power)
    if algebra.family == "rank1":
        wcplx = kappa - 1j * complex(zc[0])  # e^{-w xi}
        q = wcplx.real
        if q <= 0:
            raise ValueError("integral does not converge")
        rs = gauss_laguerre(n_s, alpha=p)
        xi = rs.nodes / q
        phase = np.exp(-1j * wcplx.imag * xi)
        vals = g(xi.reshape(-1, 1))
        return complex(np.sum(rs.weights * vals * phase) / q ** (1.0 + p))
    if algebra.name != "sym2":
        raise ValueError("tube_laplace supports rank1 and sym2")
    c_polar = mehta_cone_constant(get_algebra("sym2")) / math.pi
    rs = gauss_laguerre(n_s, alpha=2 * p + 2)   # det^p -> s^{2p}, density s^2
    gl = gauss_legendre(n_u)
    u, wu = scaled_interval_rule(gl, 0.0, 1.0)
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    wt = np.full(n_theta, math.pi / n_theta)
    U, T = np.meshgrid(u, theta, indexing="ij")
    WU, WT = np.meshgrid(wu, wt, indexing="ij")
    u_, t_ = U.ravel(), T.ravel()
    wray = (WU * WT).ravel() * c_polar * (u_ / 2) * ((1 - u_**2) / 4) ** p
    unit = _sym2_coords(np.ones_like(u_), u_, t_)
    gram = np.array([1.0, 1.0, 2.0])
    y = np.array([float(c) for c in z.imag().coords])
    x = np.array([float(c) for c in z.real().coords])
    q = kappa * (unit[:, 0] + unit[:, 1]) + unit @ (gram * y)
    posc = unit @ (gram * x)
    if np.any(q <= 0):
        raise ValueError("integral does not converge")
    # radial sum per ray: s = tau/q, picking up q^{-(2p+3)}
    nrays = len(u_)
    tau = rs.nodes
    s_scaled = tau[None, :] / q[:, None]          # (nrays, n_s)
    coords = _sym2_coords(s_scaled.ravel(),
                          np.repeat(u_, n_s), np.repeat(t_, n_s))
    vals = g(coords).reshape(nrays, n_s)
    phase = np.exp(1j * posc[:, None] * s_scaled)
    radial = (vals * phase) @ rs.weights
    return complex(np.sum(wray * radial / q ** (2 * p + 3)))


# ---------------------------------------------------------------------------
# Bump functions, box rules, change-of-variables check


def bump(q2):
    """Smooth compactly supported profile of the squared radius, 1 at 0."""
    q2 = np.asarray(q2, dtype=float)
    out = np.zeros_like(q2)
    inside = q2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - q2[inside]))
    return out


def trace_ball_bump(algebra: JordanAlgebra, center: float, radius: float):
    """C^infty bump supported on the trace-form ball around center*e."""
    gram = np.array([float(g) for g in algebra.gram])
    e = np.array([float(c) for c in algebra.e_coords])

    def f(coords):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        dev = coords - center * e
        q2 = (dev * dev) @ gram / radius**2
        return bump(q2)

    return f


def box_rule(bounds, n: int):
    """Tensor Gauss-Legendre nodes/weights over a product of intervals."""
    gl = gauss_legendre(n)
    axes, waxes = [], []
    for lo, hi in bounds:
        x, w = scaled_interval_rule(gl, lo, hi)
        axes.append(x)
        waxes.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    wgrids = np.meshgrid(*waxes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return nodes, weights


def check_change_of_variables(algebra: JordanAlgebra, method: str = "auto",
                              n: int = 160, mc_samples: int = 2_000_000,
                              seed: int = 31) -> dict:
    """Both sides of the polar-chart integration formula on a smooth bump."""
    if method == "auto":
        method = "quadrature" if algebra.family == "rank1" else "mc"
    center, radius = 2.0, 0.9
    f1 = trace_ball_bump(algebra, center, radius)
    if method == "quadrature":
        if algebra.family != "rank1":
            raise ValueError("quadrature path implemented for rank1")
        lo, hi = center - radius, center + radius
        nodes, w = box_rule([(lo, hi), (lo, hi)], n)
        lhs = float(np.sum(w * f1(nodes[:, :1]) * f1(nodes[:, 1:])))
        # rhs: z in (2 lo, 2 hi), v in (-1, 1)
        nodes2, w2 = box_rule([(2 * lo, 2 * hi), (-1.0, 1.0)], n)
        zs, vs = nodes2[:, 0], nodes2[:, 1]
        xs = zs * (1 - vs) / 2
        ys = zs * (1 + vs) / 2
        rhs = float(np.sum(
            w2 * 0.5 * f1(xs.reshape(-1, 1)) * f1(ys.reshape(-1, 1)) * zs
        ))
        resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        tol = 1e-6
    else:
        lhs, rhs = _sym2_nested_mc(algebra, center, radius, mc_samples, seed)
        resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        tol = 1e-2
    return report("polar-chart-change-of-variables", algebra.name,
                  method=method, lhs=lhs, rhs=rhs, residual=resid, tolerance=tol,
                  seed=seed if method == "mc" else None)


def _sym2_eigs(c):
    """Vectorized eigenvalues of [[a, x],[x, b]] rows (m, 3) -> (m, 2)."""
    mid = 0.5 * (c[:, 0] + c[:, 1])
    gap = np.sqrt(0.25 * (c[:, 0] - c[:, 1]) ** 2 + c[:, 2] ** 2)
    return mid - gap, mid + gap


def _sym2_iota(zc, vc):
    """Vectorized polar chart for sym2 rows; assumes z in the cone."""
    # 2x2 principal square root: sqrt(z) = (z + sqrt(det z) I) / t,
    # t = sqrt(tr z + 2 sqrt(det z))
    dz = zc[:, 0] * zc[:, 1] - zc[:, 2] ** 2
    s = np.sqrt(dz)
    t = np.sqrt(zc[:, 0] + zc[:, 1] + 2 * s)
    ra = (zc[:, 0] + s) / t
    rb = (zc[:, 1] + s) / t
    rc = zc[:, 2] / t
    # w = sqrt(z) v sqrt(z) as symmetric 2x2
    m11 = ra * vc[:, 0] + rc * vc[:, 2]
    m12 = ra * vc[:, 2] + rc * vc[:, 1]
    m21 = rc * vc[:, 0] + rb * vc[:, 2]
    m22 = rc * vc[:, 2] + rb * vc[:, 1]
    w11 = m11 * ra + m12 * rc
    w12 = m11 * rc + m12 * rb
    w22 = m21 * rc + m22 * rb
    w = np.stack([w11, w22, w12], axis=1)
    return (zc - w) / 2, (zc + w) / 2


def _sym2_nested_mc(algebra, center, radius, samples, seed, weight=None):
    """Monte Carlo estimates of both sides of the sym2 polar-chart formula.

    With f1 the trace_ball_bump of ``radius`` around ``center`` e,
    lhs = int int f1(x) f1(y) w(x) w(y) dx dy and rhs is the same integral
    in the chart coordinates, 2^{-n} int int f1(x) f1(y) w(z) (det z)^{n/r}
    dv dz with (x, y) = iota(z, v) and z = x + y.  ``weight`` w maps (m, 3)
    coordinates to (m,) values and must satisfy w(x) w(y) = w(x + y), as a
    Fourier phase does (complex estimates); None means w = 1, the change of
    variables itself, estimated in float64.
    """
    if algebra.name != "sym2":
        raise ValueError("nested Monte Carlo implemented for sym2")
    dtype = float if weight is None else complex
    f1 = trace_ball_bump(algebra, center, radius)
    rng = np.random.default_rng(seed)
    # LHS: sample (x, y) uniformly in boxes covering the trace-form balls
    lo, hi = center - radius, center + radius
    b = radius / math.sqrt(2.0)
    vol1 = (hi - lo) ** 2 * (2 * b)

    def draw_box(m):
        out = np.empty((m, 3))
        out[:, 0] = rng.uniform(lo, hi, m)
        out[:, 1] = rng.uniform(lo, hi, m)
        out[:, 2] = rng.uniform(-b, b, m)
        return out

    xs = draw_box(samples)
    ys = draw_box(samples)
    vals = f1(xs) * f1(ys)
    if weight is not None:
        vals = vals * weight(xs) * weight(ys)
    lhs = vol1**2 * dtype(np.mean(vals))
    # RHS: nested estimator.  z = x + y lies in the trace ball of radius 2R
    # around 2 center e; given z, v = P(z^{-1/2})(y - x) is bounded by
    # rho(z) = min((|z - 2ce| + 2R)/lam_min(z), R/(center - R)), so the
    # inner v samples are drawn from a per-z box of that halfwidth.
    n_z = max(samples // 4, 1)
    m_v = 48
    vmax = radius / (center - radius)
    # uniform samples in the trace-metric ball |z - 2 center e| <= 2R
    # (metric coordinates scale the off-diagonal by sqrt(2))
    direc = rng.standard_normal((n_z, 3))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    rad = 2 * radius * rng.random(n_z) ** (1.0 / 3.0)
    zs = np.empty((n_z, 3))
    zs[:, 0] = 2 * center + rad * direc[:, 0]
    zs[:, 1] = 2 * center + rad * direc[:, 1]
    zs[:, 2] = rad * direc[:, 2] / math.sqrt(2.0)
    zvol = (4.0 / 3.0) * math.pi * (2 * radius) ** 3 / math.sqrt(2.0)
    ze1, _ = _sym2_eigs(zs)
    ok = ze1 > 1e-9
    zc = zs[ok]
    e1 = ze1[ok]
    # admissible w = P(sqrt z)v lies in the intersection of the two balls
    # |w -+ (z - 2ce)| <= 2R, hence |w| <= sqrt(4R^2 - d^2); pull back by
    # the minimal eigenvalue of P(z^{1/2})
    rho = np.minimum(np.sqrt(np.maximum(4 * radius**2 - rad[ok] ** 2, 0.0)) / e1,
                     vmax)
    vvol = (2 * rho) ** 2 * (2 * rho / math.sqrt(2.0))
    detz = zc[:, 0] * zc[:, 1] - zc[:, 2] ** 2
    inner = np.zeros(len(zc), dtype=dtype)
    for _ in range(m_v):
        vs = np.empty((len(zc), 3))
        vs[:, 0] = rho * (2 * rng.random(len(zc)) - 1)
        vs[:, 1] = rho * (2 * rng.random(len(zc)) - 1)
        vs[:, 2] = rho / math.sqrt(2.0) * (2 * rng.random(len(zc)) - 1)
        vlo, vhi = _sym2_eigs(vs)
        good = (vlo > -1) & (vhi < 1)
        x, y = _sym2_iota(zc, vs)
        vals = (f1(x) * f1(y)).astype(dtype)
        vals[~good] = 0.0
        inner += vals
    inner /= m_v
    terms = inner * vvol * detz ** (algebra.n / algebra.r)
    if weight is not None:
        terms = terms * weight(zc)
    rhs = 2.0 ** (-algebra.n) * zvol * dtype(np.sum(terms)) / n_z
    return lhs, rhs
