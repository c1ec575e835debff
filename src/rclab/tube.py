"""Numerical holomorphic calculus on the tube domain V + i Omega.

Everything here is float/complex: determinant powers on one branch,
coherent states, mixed derivatives of det powers from Taylor jets, the
lifted action of the tube automorphism generators (translations, cone
dilations, the inversion z -> -z^{-1}), the bracket as a bi-differential
operator on coherent states, and the checks that tie them together.

Branch convention: log det(z/i) is the unique continuous determination on
the (simply connected, convex) tube that vanishes at z = i e; it has a
closed form, log det y + sum_j log(1 - i mu_j) over the eigenvalues mu_j
of P(y^{-1/2}) x for z = x + i y (``logdet_tube``).  The cocycle data
psi_g of a lifted generator always derives psi_{g^{-1}} = -psi_g o g^{-1},
so both sides of any covariance identity use the same group lift.

Every function here takes stacks in and gives arrays out: points go in as
a (P, n) complex stack, one tube point per row, and values come back as
(P,) arrays, so a check evaluates all its sample points in one call per
evaluator.  A single point is a one-row stack; ``det`` rows, and
``logdet_tube`` rows in rank <= 2, keep the bits of a one-row call in
every algebra, and so do the jets of ``det_power_jets``.  An (n,)
row is only ever a parameter: a coherent state's w, a generator's u or a,
or a point a check is asked about.  All aggregation is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from . import report, worst
from .algebra import JordanAlgebra, NotInCone, spectral, cone_sqrt, quad_rep, inverse
from .brackets import compute_c, compute_C
from .poly import Poly
from .quadrature import (
    gamma_omega_closed, tube_laplace, gauss_jacobi, gauss_laguerre, weyl_integral,
    chart_integrals, CHART_POWERS, _tensor_rule,
)

__all__ = [
    "logdet_tube",
    "det_power_jets",
    "coherent_state",
    "GroupGenerator",
    "pi_action",
    "transport",
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
# The branch of log det(z/i)


def logdet_tube(algebra: JordanAlgebra, coords) -> np.ndarray:
    """Continuous branch of log det(z/i) on the tube, 0 at z = i e.

    ``coords``: (m, n) complex array of tube points z = x + i y.  With
    w = P(y^{-1/2}) x, z = P(y^{1/2})(w + i e), so
    det(z/i) = det(y) prod_j (1 - i mu_j) over the real eigenvalues mu_j
    of w (Faraut-Koranyi, Analysis on Symmetric Cones, 1994).  Every factor
    has real part 1, so its principal log has imaginary part in
    (-pi/2, pi/2), and the principal logs sum to the continuous branch.
    In rank <= 2 there are at most two, so the branch's imaginary part lies
    in (-pi, pi): it is the principal log of det(z/i), read from
    ``det_poly``.  Raises NotInCone for a point whose imaginary part is
    outside the cone, or that has a coordinate that is not finite.
    """
    coords = np.asarray(coords, dtype=complex)
    if not np.isfinite(coords).all():
        raise NotInCone("a point has a coordinate that is not finite")
    y = coords.imag
    if algebra.r <= 2:
        if not np.all(spectral(algebra, y) > 0):
            raise NotInCone("a point has an eigenvalue <= 0")
        return np.log(algebra.det_poly.numeric(-1j * coords))
    w = quad_rep(algebra, inverse(algebra, cone_sqrt(algebra, y)), coords.real)
    return (np.log(algebra.det_poly.numeric(y))
            + np.log(1 - 1j * spectral(algebra, w)).sum(axis=1))


@functools.cache
def _taylor_polys(algebra: JordanAlgebra) -> dict:
    """{beta: T_beta} for 0 < |beta| <= r, T_beta = d^beta det / beta! as a
    Poly: each monomial c x^m of det gives C(m, beta) c x^(m - beta), with
    C(m, beta) = prod_i C(m_i, beta_i) an integer."""
    det = algebra.det_poly
    terms = {}
    for m, c in zip(det.exps.tolist(), det.coef[:, 0, 0].tolist()):
        for beta in itertools.product(*(range(e + 1) for e in m)):
            if any(beta):
                shifted = tuple(a - b for a, b in zip(m, beta))
                terms.setdefault(beta, {})[shifted] = c * math.prod(map(math.comb, m, beta))
    return {beta: Poly.from_terms(t, algebra.n, det.den) for beta, t in sorted(terms.items())}


def det_power_jets(algebra: JordanAlgebra, nu, U, alphas) -> dict:
    """d^alpha det^(-nu) / det^(-nu) at each row u of the (P, n) stack
    ``U``, for each multi-index alpha of ``alphas``: {alpha: (P,) array}.

    Taylor-coefficient propagation (Griewank and Walther, Evaluating
    Derivatives, 2nd ed., SIAM 2008, ch. 13): det(u + h) = det(u)(1 + g(h))
    with g = sum_beta (T_beta(u) / det u) h^beta over the Taylor polynomials
    of ``_taylor_polys``, so det(u + h)^(-nu) / det(u)^(-nu) is
    sum_j binom(-nu, j) g^j, summed by Horner's rule on series truncated to
    the multi-indices at or below some alpha; alpha! times the coefficient
    of h^alpha is the ratio asked for.  It is rational in u, so no branch
    enters.  Every operation is elementwise over the rows, so each row
    keeps the bits of a one-row call.
    """
    U = np.asarray(U, dtype=complex)
    alphas = [tuple(a) for a in alphas]
    keep = {gamma for a in alphas for gamma in itertools.product(*(range(e + 1) for e in a))}
    det = algebra.det_poly.numeric(U)
    g = [(beta, T.numeric(U) / det) for beta, T in _taylor_polys(algebra).items()
         if beta in keep]
    top = max(map(sum, alphas), default=0)
    binoms = [1.0]
    for j in range(top):
        binoms.append(binoms[-1] * (-float(nu) - j) / (j + 1))
    zero = (0,) * algebra.n
    series = {zero: np.full(len(U), binoms[top], dtype=complex)}
    for j in range(top - 1, -1, -1):
        # series <- binom(-nu, j) + g series; g has no constant term
        product = {}
        for gamma, s in series.items():
            for beta, g_beta in g:
                key = tuple(a + b for a, b in zip(gamma, beta))
                if key in keep:
                    term = s * g_beta
                    product[key] = product[key] + term if key in product else term
        product[zero] = np.full(len(U), binoms[j], dtype=complex)
        series = product
    none = np.zeros(len(U), dtype=complex)
    return {alpha: math.prod(map(math.factorial, alpha)) * series.get(alpha, none)
            for alpha in alphas}


# ---------------------------------------------------------------------------
# Holomorphic functions


def coherent_state(algebra: JordanAlgebra, nu, w):
    """k_nu^w(z) = det((z - conj w)/i)^(-nu), on the branch of
    ``logdet_tube``, for the tube point ``w``."""
    wbar = np.conj(w)

    def k(coords):
        return np.exp(complex(-nu) * logdet_tube(algebra, coords - wbar))

    return k


# ---------------------------------------------------------------------------
# Lifted automorphism generators


class GroupGenerator:
    """A generator of the tube automorphism group with explicit lift data.

    kind    'translation' (z -> z + u, u real),
            'dilation'    (z -> P(a^{1/2}) z, a in the cone),
            'inversion'   (z -> -z^{-1}).
    parameter  the float row u or a; the inversion takes none.

    The constructor defines the generator in one place: ``apply`` (g),
    ``apply_inv`` (g^{-1}) and ``psi`` (psi_g, the chosen continuous
    logarithm of j(g, .) = Det_C(Dg)), each on an (m, n) stack.
    psi_{g^{-1}} is always derived as -psi_g o g^{-1} (``psi_inv``).
    """

    def __init__(self, algebra: JordanAlgebra, kind: str, parameter=None):
        self.algebra = algebra
        self.kind = kind
        n, r = algebra.n, algebra.r
        if kind == "translation":
            u = np.asarray(parameter, dtype=complex)
            self.apply = lambda coords: coords + u
            self.apply_inv = lambda coords: coords - u
            self.psi = lambda coords: np.zeros(len(coords), dtype=complex)
        elif kind == "dilation":
            # cone_sqrt raises NotInCone for a parameter outside the cone
            root = cone_sqrt(algebra, [parameter])
            root_inv = inverse(algebra, root)
            log_chi = (n / r) * math.log(float(algebra.det_poly.numeric([parameter])[0]))
            self.apply = lambda coords: quad_rep(algebra, root, coords)
            self.apply_inv = lambda coords: quad_rep(algebra, root_inv, coords)
            self.psi = lambda coords: np.full(len(coords), log_chi, dtype=complex)
        elif kind == "inversion":
            # the inversion is an involution
            self.apply = self.apply_inv = lambda coords: -inverse(algebra, coords)
            self.psi = lambda coords: -(2 * n / r) * (logdet_tube(algebra, coords)
                                                      + r * (1j * math.pi / 2))
        else:
            raise ValueError(f"unknown generator kind {kind!r}")

    def psi_inv(self, coords: np.ndarray) -> np.ndarray:
        """psi_{g^{-1}} = -psi_g o g^{-1} (same lift on both sides)."""
        return -self.psi(self.apply_inv(coords))


def pi_action(gen: GroupGenerator, nu, F):
    """The weight-nu action: z -> e^{(r/2n) nu psi_{g^{-1}}(z)} F(g^{-1} z)."""
    alg = gen.algebra
    scale = alg.r / (2.0 * alg.n)

    def moved(coords):
        inv = gen.apply_inv(coords)
        return np.exp(complex(nu) * scale * gen.psi_inv(coords)) * F(inv)

    return moved


def transport(gen: GroupGenerator, slot):
    """pi_nu(g) of the coherent-state slot (nu, w, factor), the function
    factor k_nu^w: by pi_nu(g) k_nu^w = e^{(r nu / 2n) conj psi_g(w)} k_nu^{g w}
    it is the slot (nu, g w, factor e^{(r nu / 2n) conj psi_g(w)})."""
    nu, w, factor = slot
    alg = gen.algebra
    fac = np.exp((alg.r * complex(nu) / (2.0 * alg.n)) * np.conj(gen.psi(w[None])[0]))
    return nu, gen.apply(w[None])[0], factor * fac


# ---------------------------------------------------------------------------
# The bracket as a bi-differential operator


def _slot_derivatives(algebra: JordanAlgebra, slot, z, alphas) -> dict:
    """d^alpha of the slot (nu, w, factor) at each row of ``z``, as lists:
    the value times i^(-|alpha|) times the jet at u = (z - conj w)/i."""
    nu, w, factor = slot
    value = factor * coherent_state(algebra, nu, w)(z)
    jets = det_power_jets(algebra, nu, -1j * (z - np.conj(w)), alphas)
    return {alpha: (value * (-1j) ** sum(alpha) * jet).tolist() for alpha, jet in jets.items()}


def apply_B(algebra: JordanAlgebra, k: int, lam, mu, F, G, z):
    """The k-th bracket applied to F(z) G(w), restricted to the diagonal w = z,
    at each row of the (P, n) stack ``z`` of tube points.

    F and G are coherent-state slots (nu, w, factor), each the function
    factor k_nu^w (``coherent_state``).  The operator is the bracket
    polynomial specialized at (lam - n/r, mu - n/r), read as mixed
    trace-form derivatives in the two slots.  On a product each monomial
    splits by Leibniz, d^a_z d^b_w [F(z) G(w)] = d^a F(z) d^b G(w), and
    d^a of a slot is its value, on the branch of ``logdet_tube``, times
    i^(-|a|) times ``det_power_jets`` at u = (z - conj w)/i: one jet call
    per slot for all rows.  Returns a (P,) complex array, each row summed
    in scalars one monomial at a time.
    """
    shift = Fraction(algebra.n, algebra.r)
    spec = compute_c(algebra, k).specialize(Fraction(lam) - shift, Fraction(mu) - shift)
    # a trace-form derivative in coordinate i is d/dz_i / gram_i
    inv_gram = 1.0 / np.array([float(g) for g in algebra.gram * 2])
    coefs = spec.fcoef * np.prod(inv_gram ** spec.exps, axis=1)
    n = algebra.n
    alphas = [tuple(m) for m in spec.exps[:, :n].tolist()]
    betas = [tuple(m) for m in spec.exps[:, n:].tolist()]
    dF = _slot_derivatives(algebra, F, z, alphas)
    dG = _slot_derivatives(algebra, G, z, betas)
    out = np.empty(len(z), dtype=complex)
    for i in range(len(z)):
        total = 0.0 + 0.0j
        for alpha, beta, coef in zip(alphas, betas, coefs):
            total += coef * dF[alpha][i] * dG[beta][i]
        out[i] = total
    return out


# ---------------------------------------------------------------------------
# Checks


def _default_tube_points(algebra):
    """A deterministic spread of well-interior tube points, a (5, n) stack."""
    n, e = algebra.n, algebra.e
    pts = []
    shifts = [(0.0, 1.0), (0.3, 1.4), (-0.4, 0.9), (0.6, 2.0), (-0.2, 1.1)]
    for idx, (re_, im_) in enumerate(shifts):
        coords = re_ * e + 1j * im_ * e
        if n > 1:
            coords = coords + np.eye(n)[1 + idx % (n - 1)] * (0.15 + 0.05 * idx) * (1 + 0.5j)
        pts.append(coords)
    return np.array(pts)


def default_generators(algebra):
    """A translation by u_i = 0.4 (-1)^i, the dilation by a = e + 0.3/(i + 1)
    and the inversion."""
    i = np.arange(algebra.n)
    u = 0.4 * (-1.0) ** i
    a = algebra.e + 0.3 / (i + 1)
    return [
        GroupGenerator(algebra, "translation", u),
        GroupGenerator(algebra, "dilation", a),
        GroupGenerator(algebra, "inversion"),
    ]


def check_covariance_B(algebra: JordanAlgebra, k: int, lam, mu,
                       gen: GroupGenerator, tol: float) -> dict:
    """Both routes of the bracket covariance on a coherent-state product F G.

    LHS: move the slots, pi_lam(g) F and pi_mu(g) G, then apply the
    bracket; each moved slot is a coherent state again (``transport``, the
    identity ``check_coherent_transform`` checks).  RHS: apply the bracket
    to F and G at g^{-1}(z), then multiply by e^{(r nu/2n) psi_{g^{-1}}(z)},
    nu = lam + mu + 2k.  The witnesses of F and G and the five sample
    points are fixed; each route is one ``apply_B`` call on the stack of
    points.  A point whose g^{-1}(z) is off the tube raises NotInCone, and
    a NaN residual fails the report.
    """
    nu = lam + mu + 2 * k
    n = algebra.n
    e = algebra.e
    F = (lam, (0.2 + 1.1j) * e + 0.05j * np.arange(n), 1.0)
    G = (mu, (-0.3 + 0.9j) * e + 0.04j * np.arange(n)[::-1], 1.0)
    scale_psi = algebra.r / (2.0 * algebra.n)
    Z = _default_tube_points(algebra)
    lhs = apply_B(algebra, k, lam, mu, transport(gen, F), transport(gen, G), Z).tolist()
    inner_B = apply_B(algebra, k, lam, mu, F, G, gen.apply_inv(Z)).tolist()
    rows = []
    # each row's factor and residual in scalars, as for one row
    for z, lhs_z, inner_z, psi in zip(Z, lhs, inner_B, gen.psi_inv(Z)):
        rhs = np.exp(complex(nu) * scale_psi * psi) * inner_z
        scale = max(abs(lhs_z), abs(rhs), 1e-30)
        rows.append({"z": [[c.real, c.imag] for c in z.tolist()],
                     "residual": abs(lhs_z - rhs) / scale})
    return report("bracket-group-covariance", algebra.name, k=k,
                  **{"lambda": float(lam)}, mu=float(mu), generator=gen.kind,
                  tolerance=tol, max_residual=worst(r["residual"] for r in rows),
                  samples=rows)


def check_adjoint_image(algebra: JordanAlgebra, k: int, lam, mu, z1, z2,
                        tol: float) -> dict:
    """Laplace transform of the adjoint-image integrand vs the closed form,
    at the tube points ``z1`` and ``z2``.

    Numeric side: expand the bracket polynomial monomially, so the double
    cone integral factorizes into products of single-cone transforms with
    polynomial insertions; each factor is angular quadrature over the rays
    of the cone of radial integrals in closed form (``tube_laplace``).
    Closed side: product of cone Gamma values, det(z1-z2)^k, and inverse
    det powers on the branch of ``logdet_tube``.  The measured global phase
    is recorded.
    """
    n, r = algebra.n, algebra.r
    shift = Fraction(n, r)
    spec = compute_c(algebra, k).specialize(Fraction(lam) - shift, Fraction(mu) - shift)
    # one Laplace rule per slot transforms each distinct monomial of that slot
    slots = []
    for cut, z, weight in ((slice(0, n), z1, lam), (slice(n, 2 * n), z2, mu)):
        exps, index = np.unique(spec.exps[:, cut], axis=0, return_inverse=True)
        vals = tube_laplace(algebra, exps, z[None], float(weight) - float(shift))[0]
        slots.append(vals[index].tolist())
    num = 0.0 + 0.0j
    for coef, x, y in zip(spec.fcoef, *slots):
        num += coef * x * y
    num *= 1j ** (r * k)
    det_diff = complex(algebra.det_poly.numeric((z1 - z2)[None])[0]) ** k
    powers = np.exp(-np.array([float(lam) + k, float(mu) + k])
                    * logdet_tube(algebra, np.array([z1, z2]) + 1j * algebra.e))
    closed = gamma_omega_closed(algebra, float(lam) + k) \
        * gamma_omega_closed(algebra, float(mu) + k) * det_diff * powers[0] * powers[1]
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


# the tube point z of check_J_factorization, per algebra of the chart rule
CHART_TUBE_POINTS = {"rank1": (0.4 + 1.3j,),
                     "sym2": (0.2 + 0.9j, -0.1 + 1.1j, 0.05 + 0.1j)}


def check_J_factorization(algebra: JordanAlgebra, tol: float) -> dict:
    """res o (two-slot Laplace) against (one-slot Laplace) o averaging map,
    at the tube point z of CHART_TUBE_POINTS.

    Both sides are the polar-chart integrals of F of CHART_POWERS against
    the character e^{i(z, .)} (``chart_integrals``), at the tolerance
    ``tol``; the closed side takes det(e - i z) = det((z + i e)/i) on the
    branch of ``logdet_tube``.
    """
    # z is None only off the chart rule, where chart_integrals raises
    z = CHART_TUBE_POINTS.get(algebra.name)
    moments, rhs, nodes = chart_integrals(algebra, z=z)
    nu = sum(CHART_POWERS) + 2 * algebra.n / algebra.r
    lhs = complex(moments * np.exp(-nu * logdet_tube(algebra, [np.add(z, 1j * algebra.e)])[0]))
    resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return report("laplace-averaging-factorization", algebra.name,
                  method="quadrature", nodes=nodes,
                  tolerance=tol, residual=resid,
                  lhs=[lhs.real, lhs.imag], rhs=[rhs.real, rhs.imag])


def check_partial_isometry(algebra: JordanAlgebra, ks, lam, mu,
                           tol: float) -> list:
    """Norm ratio constancy of the adjoint embedding, rank 1: one report per
    k of ``ks``.

    ||Phi h||^2 / ||h||^2 must match the interval integral
    2^{-r lam - r mu + n} int |C(k)|^2 det(e-v)^{lam-n/r} det(e+v)^{mu-n/r} dv
    and be flat across the test functions h_m(s)^2 = s^(2 nu - 2 + m) e^(-s),
    m = 0, 1, 2, nu = lam + mu + 2k, whose norms ||h_m||^2 = Gamma(nu + m)
    are closed.  ||Phi h_m||^2 evaluates its integrand as defined at every
    node of the tensor rule of two (k + 2)-node Laguerre rules, of
    xi^(lam-1) e^(-xi) and zeta^(mu-1) e^(-zeta), each weight divided by
    the factor its rule carries: what is left, c(k)^2 (xi + zeta)^m, has
    degree at most 2k + 2 per axis, which the rule integrates exactly.  The
    interval integral takes the Gauss-Jacobi rule of 2k + 8 nodes, exact
    for |C(k)|^2.
    """
    if algebra.family != "rank1":
        raise ValueError("partial isometry check implemented for rank1")
    lam_f, mu_f = float(lam), float(mu)
    reports = []
    for k in ks:
        nu = lam_f + mu_f + 2 * k
        rules = [gauss_laguerre(k + 2, p - 1) for p in (lam_f, mu_f)]
        points, w = _tensor_rule([g.nodes for g in rules], [g.weights for g in rules])
        xi, zeta = points.T
        s = xi + zeta
        powers = xi ** (lam_f - 1) * zeta ** (mu_f - 1)
        w = w / (powers * np.exp(-s))       # less the factor the rules carry
        spec = compute_c(algebra, k).specialize(Fraction(lam) - 1, Fraction(mu) - 1)
        # |Phi h|^2 against the L^2_{lam,mu} weight xi^{-lam+1} zeta^{-mu+1}
        # collapses to powers (xi + zeta)^(2 - 2 nu) c(k)(xi, zeta)^2 h(xi + zeta)^2
        phi = w * powers * s ** (2 - 2 * nu) * spec.numeric(points) ** 2
        rs = [float(np.sum(phi * s ** (2 * nu - 2 + m) * np.exp(-s))) / math.gamma(nu + m)
              for m in (0, 1, 2)]
        spread = (worst(rs) - min(rs)) / worst(map(abs, rs))
        C = compute_C(algebra, k, Fraction(lam) - 1, Fraction(mu) - 1)
        interval = weyl_integral(algebra, lambda eigs: C.poly.numeric(eigs) ** 2,
                                 lam_f - 1, mu_f - 1, n=2 * k + 8)
        expected = 2.0 ** (-algebra.r * lam_f - algebra.r * mu_f + algebra.n) * interval
        reports.append(report("adjoint-partial-isometry", algebra.name, k=k,
                              **{"lambda": lam_f}, mu=mu_f, ratios=rs,
                              ratio_spread=spread, expected_constant=expected,
                              constant_residual=abs(rs[0] - expected) / abs(expected),
                              tolerance=tol))
    return reports


def check_bracket_transform_equivalence(algebra: JordanAlgebra, k: int,
                                        lam, mu, tol: float) -> dict:
    """The bracket on transforms equals the transform of the averaged form,
    rank 1, for f1(xi) = xi^A e^(-xi) and f2(zeta) = zeta^B e^(-zeta) at
    (A, B) = (2, 1), unequal so that a swap of the two slots shows.

    Left route: apply the bi-differential bracket to the one-slot
    transforms of f1 and f2, which are Gamma(A + 1) k_{A+1}^{ie} and
    Gamma(B + 1) k_{B+1}^{ie} (``tube_laplace`` with no monomial), at
    z = 0.3 + 1.2i.  Right route: the one-slot transform of
    i^{rk} 2^{-n} (det eta)^{k + n/r} int C(k)_{lam-n/r, mu-n/r}(v)
    f1 f2(iota(eta, v)) dv, which for these f is
    i^{rk} 2^{-n-A-B} W (det eta)^{k + n/r + A + B} e^{-tr eta} with
    W = int C(k)(v) (1 - v)^A (1 + v)^B dv, the exact Gauss-Jacobi rule of
    k + 1 nodes; its transform is closed by ``tube_laplace``.
    """
    if algebra.family != "rank1":
        raise ValueError("operator-equivalence check implemented for rank1")
    A, B = 2, 1
    Z = np.array([[0.3 + 1.2j]])
    zero = np.zeros((1, algebra.n), dtype=int)
    ie = 1j * algebra.e
    lhs = complex(apply_B(algebra, k, lam, mu, (A + 1, ie, math.gamma(A + 1)),
                          (B + 1, ie, math.gamma(B + 1)), Z)[0])
    shift = Fraction(algebra.n, algebra.r)
    C = compute_C(algebra, k, Fraction(lam) - shift, Fraction(mu) - shift)
    interval = weyl_integral(algebra, C.poly.numeric, A, B, n=k + 1)
    rhs = complex((1j ** (algebra.r * k)) * 2.0 ** (-algebra.n - A - B) * interval
                  * tube_laplace(algebra, zero, Z, k + float(shift) + A + B)[0, 0])
    return report("bracket-transform-equivalence", algebra.name, k=k,
                  **{"lambda": float(lam)}, mu=float(mu),
                  lhs=[lhs.real, lhs.imag], rhs=[rhs.real, rhs.imag],
                  residual=abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
                  tolerance=tol)


def check_bergman_isometry(algebra: JordanAlgebra, tol: float) -> dict:
    """Weighted-norm isometry of the cone transform, rank 1, at nu = 2.5.

    ||L f||^2 against det(y)^{nu-2n/r} dx dy over the tube equals a
    constant times ||f||^2 in L^2(det^{-nu+n/r}); the constant for the
    e^{i(z,xi)} convention is (2 pi)^n 2^{n/r-nu} Gamma_Omega(nu - n/r),
    an independent Parseval computation.  Constancy across test functions
    is asserted as well.  The test functions f_a(xi) = xi^a e^(-xi),
    a = 1, 2, 3, have transforms closed by ``tube_laplace``.  The tube norm
    takes x = (1 + y) t / sqrt(1 - t^2), y = (1 + v) / (1 - v) and evaluates
    its integrand at every node of two 4-node Gauss-Jacobi rules, of
    (1 - t^2)^(1/2) and (1 - v)^(3-nu) (1 + v)^(nu-2), ||f_a||^2 at xi = s/2
    on the 4-node Laguerre rule of s^(3-nu) e^(-s); each weight divided by
    the factor its rule carries, what is left is a polynomial of degree at
    most 2a - 2 per axis, which the rules integrate exactly.
    """
    if algebra.family != "rank1":
        raise ValueError("isometry check implemented for rank1")
    nu = 2.5
    rt, rv = gauss_jacobi(4, 0.5, 0.5), gauss_jacobi(4, 3 - nu, nu - 2)
    points, w = _tensor_rule([rt.nodes, rv.nodes], [rt.weights, rv.weights])
    t, v = points.T
    c, y = np.sqrt(1 - t * t), (1 + v) / (1 - v)
    Z = ((1 + y) * t / c + 1j * y)[:, None]
    # y^(nu-2) dx/dt dy/dv = y^(nu-2) (1 + y)^3 / (2 c^3), less the rules' factors
    w = w * y ** (nu - 2) * (1 + y) ** 3 / (2 * c ** 4 * (1 - v) ** (3 - nu) * (1 + v) ** (nu - 2))
    rs = gauss_laguerre(4, 3 - nu)
    xi, wxi = rs.nodes / 2, rs.weights / (2 * rs.nodes ** (3 - nu) * np.exp(-rs.nodes))
    ratios = []
    for a in (1, 2, 3):
        lf = tube_laplace(algebra, np.zeros((1, 1), dtype=int), Z, a)[:, 0]
        ratios.append(float(np.sum(w * (lf.real ** 2 + lf.imag ** 2)))
                      / float(np.sum(wxi * (xi ** a * np.exp(-xi)) ** 2 * xi ** (1 - nu))))
    expected = (2 * math.pi) * 2.0 ** (1.0 - nu) * math.gamma(nu - 1.0)
    return report("transform-norm-isometry", algebra.name, nu=nu, ratios=ratios,
                  expected_constant=expected,
                  ratio_spread=(worst(ratios) - min(ratios)) / worst(map(abs, ratios)),
                  residual=worst(abs(r_ - expected) / expected for r_ in ratios),
                  tolerance=tol)


def check_hua_cocycle(algebra: JordanAlgebra, gen: GroupGenerator, z, w,
                      tol: float) -> dict:
    """det(g z - conj(g w)) = e^{(r/2n) psi_g(z)} det(z - conj w) conj(e^{(r/2n) psi_g(w)})
    at the tube points ``z`` and ``w``."""
    zw = np.array([z, w])
    gz, gw = gen.apply(zw)
    lhs, mid = algebra.det_poly.numeric(np.array([gz - np.conj(gw), z - np.conj(w)]))
    fz, fw = np.exp(algebra.r / (2.0 * algebra.n) * gen.psi(zw))
    rhs = fz * mid * np.conj(fw)
    return report("kernel-cocycle-identity", algebra.name, generator=gen.kind,
                  tolerance=tol, residual=abs(lhs - rhs) / max(abs(lhs), 1e-300))


def check_coherent_transform(algebra: JordanAlgebra, nu, gen: GroupGenerator,
                             w, tol: float) -> dict:
    """pi_nu(g) k_nu^w = e^{(r nu / 2n) conj(psi_g(w))} k_nu^{g(w)} at the
    default tube points, for the tube point ``w``: ``pi_action`` against
    ``transport``, each side evaluated once, on the stack of all the
    points."""
    KT = pi_action(gen, nu, coherent_state(algebra, nu, w))
    _, gw, fac = transport(gen, (nu, w, 1.0))
    K2 = coherent_state(algebra, nu, gw)
    Z = _default_tube_points(algebra)
    residuals = []
    for a, b2 in zip(KT(Z).tolist(), K2(Z).tolist()):
        b = fac * b2
        residuals.append(abs(a - b) / max(abs(a), abs(b), 1e-300))
    return report("coherent-state-transport", algebra.name, nu=float(nu),
                  generator=gen.kind, tolerance=tol, max_residual=worst(residuals))
