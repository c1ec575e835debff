"""The per-point loops and full grids that ``rclab.tube`` replaced, for
the tests.

``apply_B``, ``check_covariance_B`` and ``check_coherent_transform`` here
visit the tube points one at a time: one ``holo_mixed_derivatives`` call
per slot and point, each bracket summed in scalars one monomial at a time,
one evaluation of each coherent state per point.  ``rclab.tube`` evaluates
all the points of a check in one call per evaluator; both must give the
same bits and write the same report.  ``partial_isometry_ratios`` sums the
norms of the partial isometry over the whole 220 x 220 box, where
``rclab.tube`` visits one band per bump; both agree to rounding.
"""

from fractions import Fraction

import numpy as np

from rclab import report, worst
from rclab.algebra import spectral
from rclab.brackets import compute_c
from rclab.quadrature import _tensor_rule, bump, gauss_legendre, scaled_interval_rule
from rclab.tube import _default_tube_points, coherent_state, holo_mixed_derivatives, pi_action


def apply_B(algebra, k, lam, mu, F, G, z):
    """The bracket on F(z) G(w) at w = z for the (n,) row ``z``: the
    coefficients as ``rclab.tube.apply_B`` builds them, and
    sum_m coef_m dF[alpha_m] dG[beta_m] in scalars."""
    shift = Fraction(algebra.n, algebra.r)
    spec = compute_c(algebra, k).specialize(Fraction(lam) - shift, Fraction(mu) - shift)
    inv_gram = 1.0 / np.array([float(g) for g in algebra.gram * 2])
    coefs = spec.fcoef * np.prod(inv_gram ** spec.exps, axis=1)
    n = algebra.n
    alphas = [tuple(m) for m in spec.exps[:, :n].tolist()]
    betas = [tuple(m) for m in spec.exps[:, n:].tolist()]
    dF = holo_mixed_derivatives(algebra, F, z[None], alphas)
    dG = holo_mixed_derivatives(algebra, G, z[None], betas)
    total = 0.0 + 0.0j
    for alpha, beta, coef in zip(alphas, betas, coefs):
        total += coef * complex(dF[alpha][0]) * complex(dG[beta][0])
    return complex(total)


def check_covariance_B(algebra, k, lam, mu, gen, tol):
    nu = lam + mu + 2 * k
    n = algebra.n
    e = algebra.e
    F = coherent_state(algebra, lam, (0.2 + 1.1j) * e + 0.05j * np.arange(n))
    G = coherent_state(algebra, mu, (-0.3 + 0.9j) * e + 0.04j * np.arange(n)[::-1])
    scale_psi = algebra.r / (2.0 * algebra.n)
    F_g, G_g = pi_action(gen, lam, F), pi_action(gen, mu, G)
    rows = []
    for z in _default_tube_points(algebra):
        ginv_z = gen.apply_inv(z.reshape(1, -1))[0]
        if spectral(algebra, ginv_z.imag[None])[0, 0] < 0.1:
            continue
        lhs = apply_B(algebra, k, lam, mu, F_g, G_g, z)
        inner_B = apply_B(algebra, k, lam, mu, F, G, ginv_z)
        fac = np.exp(complex(nu) * scale_psi * gen.psi_inv(z.reshape(1, -1))[0])
        rhs = fac * inner_B
        scale = max(abs(lhs), abs(rhs), 1e-30)
        rows.append({"z": [[c.real, c.imag] for c in z.tolist()],
                     "residual": abs(lhs - rhs) / scale})
    return report("bracket-group-covariance", algebra.name, ok=bool(rows), k=k,
                  **{"lambda": float(lam)}, mu=float(mu), generator=gen.kind,
                  tolerance=tol, max_residual=worst(r["residual"] for r in rows),
                  samples=rows)


def check_coherent_transform(algebra, nu, gen, w, tol):
    K = coherent_state(algebra, nu, w)
    KT = pi_action(gen, nu, K)
    gw = gen.apply(w.reshape(1, -1))[0]
    K2 = coherent_state(algebra, nu, gw)
    fac = np.exp((algebra.r * complex(nu) / (2.0 * algebra.n))
                 * np.conj(gen.psi(w.reshape(1, -1))[0]))
    residuals = []
    for z in _default_tube_points(algebra):
        point = z[None]
        a = complex(KT(point)[0])
        b = fac * complex(K2(point)[0])
        residuals.append(abs(a - b) / max(abs(a), abs(b), 1e-300))
    return report("coherent-state-transport", algebra.name, nu=float(nu),
                  generator=gen.kind, tolerance=tol, max_residual=worst(residuals))


# the bumps h of check_partial_isometry, one per support (lo, hi) of
# xi + zeta, and its rule: the 220-node Legendre rule on [1e-9, 3] per axis
PARTIAL_ISOMETRY_BUMPS = ((1.0, 2.2), (1.6, 3.0), (0.8, 2.8))


def partial_isometry_axis():
    """The nodes and weights of the partial isometry's rule on one axis."""
    return scaled_interval_rule(gauss_legendre(220), 1e-9, 3.0)


def partial_isometry_ratios(algebra, ks, lam, mu):
    """The norm ratios ||Phi h||^2 / ||h||^2 of
    ``rclab.tube.check_partial_isometry``, one list per k of ``ks``, each
    integrand zero-padded to all 48,400 nodes of the box."""
    lam_f, mu_f = float(lam), float(mu)
    eta, we = partial_isometry_axis()
    nodes, w = _tensor_rule((eta, eta), (we, we))
    xi, zeta = nodes[:, 0], nodes[:, 1]
    out = []
    for k in ks:
        nu = lam_f + mu_f + 2 * k
        power = -2 * lam_f - 2 * mu_f - 4 * k + 2
        spec = compute_c(algebra, k).specialize(Fraction(lam) - 1, Fraction(mu) - 1)
        ratios = []
        for lo, hi in PARTIAL_ISOMETRY_BUMPS:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            hv = bump(((xi + zeta - mid) / half) ** 2)
            mask = hv > 0
            inside = nodes[mask]
            integrand = np.zeros(len(nodes))
            integrand[mask] = (xi[mask] ** (lam_f - 1) * zeta[mask] ** (mu_f - 1)
                               * inside.sum(axis=1) ** power * spec.numeric(inside) ** 2
                               * hv[mask] ** 2)
            weta = we * bump(((eta - mid) / half) ** 2) ** 2
            ratios.append(float(np.sum(w * integrand)) / float(np.sum(weta * eta ** (-nu + 1))))
        out.append(ratios)
    return out
