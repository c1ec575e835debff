"""The per-point loops that ``rclab.tube`` replaced, for the tests.

``apply_B``, ``check_covariance_B`` and ``check_coherent_transform`` here
visit the tube points one at a time: one coherent-state value and one
``det_power_jets`` call per slot and point, each bracket summed in scalars
one monomial at a time, one evaluation of each coherent state per point.
``rclab.tube`` evaluates all the points of a check in one call per
evaluator; both must give the same bits and write the same report.
"""

from fractions import Fraction

import numpy as np

from rclab import report, worst
from rclab.brackets import compute_c
from rclab.tube import (_default_tube_points, coherent_state, det_power_jets, pi_action,
                        transport)


def slot_derivatives(algebra, slot, z, alphas):
    """d^alpha of the coherent-state slot (nu, w, factor) at the (n,) row
    ``z``: the value times i^(-|alpha|) times the jet at (z - conj w)/i."""
    nu, w, factor = slot
    value = factor * coherent_state(algebra, nu, w)(z[None])
    jets = det_power_jets(algebra, nu, (-1j * (z - np.conj(w)))[None], alphas)
    return {alpha: complex((value * (-1j) ** sum(alpha) * jet)[0])
            for alpha, jet in jets.items()}


def apply_B(algebra, k, lam, mu, F, G, z):
    """The bracket on F(z) G(w) at w = z for the (n,) row ``z`` and the
    slots F and G: the coefficients as ``rclab.tube.apply_B`` builds them,
    and sum_m coef_m dF[alpha_m] dG[beta_m] in scalars."""
    shift = Fraction(algebra.n, algebra.r)
    spec = compute_c(algebra, k).specialize(Fraction(lam) - shift, Fraction(mu) - shift)
    inv_gram = 1.0 / np.array([float(g) for g in algebra.gram * 2])
    coefs = spec.fcoef * np.prod(inv_gram ** spec.exps, axis=1)
    n = algebra.n
    alphas = [tuple(m) for m in spec.exps[:, :n].tolist()]
    betas = [tuple(m) for m in spec.exps[:, n:].tolist()]
    dF = slot_derivatives(algebra, F, z, alphas)
    dG = slot_derivatives(algebra, G, z, betas)
    total = 0.0 + 0.0j
    for alpha, beta, coef in zip(alphas, betas, coefs):
        total += coef * dF[alpha] * dG[beta]
    return complex(total)


def check_covariance_B(algebra, k, lam, mu, gen, tol):
    nu = lam + mu + 2 * k
    n = algebra.n
    e = algebra.e
    F = (lam, (0.2 + 1.1j) * e + 0.05j * np.arange(n), 1.0)
    G = (mu, (-0.3 + 0.9j) * e + 0.04j * np.arange(n)[::-1], 1.0)
    scale_psi = algebra.r / (2.0 * algebra.n)
    F_g, G_g = transport(gen, F), transport(gen, G)
    rows = []
    for z in _default_tube_points(algebra):
        ginv_z = gen.apply_inv(z.reshape(1, -1))[0]
        lhs = apply_B(algebra, k, lam, mu, F_g, G_g, z)
        inner_B = apply_B(algebra, k, lam, mu, F, G, ginv_z)
        fac = np.exp(complex(nu) * scale_psi * gen.psi_inv(z.reshape(1, -1))[0])
        rhs = fac * inner_B
        scale = max(abs(lhs), abs(rhs), 1e-30)
        rows.append({"z": [[c.real, c.imag] for c in z.tolist()],
                     "residual": abs(lhs - rhs) / scale})
    return report("bracket-group-covariance", algebra.name, k=k,
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
