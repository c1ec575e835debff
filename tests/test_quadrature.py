"""Quadrature rules, cone integrals, interval integrals, Gram matrices."""

import math

import numpy as np
import pytest

from rclab.algebra import get_algebra
from rclab.brackets import jacobi_classical
from rclab.quadrature import (
    gauss_jacobi, gauss_legendre, gauss_laguerre,
    gamma_omega_closed, gamma_omega_numeric,
    cone_integrate_invariant, weyl_integral, gram_matrix,
    tube_laplace, box_rule, check_change_of_variables, sym2_polar_grid,
    _sym2_coords,
)


def test_gauss_rule_invariants():
    # positive weights; sum of weights = zeroth moment to 1e-12
    r = gauss_jacobi(48, 1.0, 2.0)
    assert (r.weights > 0).all()
    m0 = 2.0**4 * math.gamma(2.0) * math.gamma(3.0) / math.gamma(5.0)
    assert abs(r.weights.sum() - m0) < 1e-12
    r = gauss_legendre(64)
    assert abs(r.weights.sum() - 2.0) < 1e-12
    r = gauss_laguerre(96, 0.0)
    assert abs(r.weights.sum() - 1.0) < 1e-12
    r = gauss_laguerre(40, 2.5)
    assert abs(r.weights.sum() - math.gamma(3.5)) < 1e-11 * math.gamma(3.5)


def test_gauss_jacobi_degree_exactness():
    # rule with N nodes integrates polynomials of degree 2N-1 exactly
    rule = gauss_jacobi(6, 1.0, 1.0)
    for deg in range(0, 12):
        got = float(np.sum(rule.weights * rule.nodes**deg))
        want = _jacobi_moment(deg, 1, 1)
        assert abs(got - want) < 1e-13, deg


def _jacobi_moment(deg, a, b):
    rule = gauss_jacobi(deg + 4, float(a), float(b))
    return float(np.sum(rule.weights * rule.nodes**deg))


def test_gamma_closed_examples():
    assert abs(gamma_omega_closed(get_algebra("rank1"), 3.0) - 2.0) < 1e-14
    s2 = get_algebra("sym2")
    want = math.sqrt(2 * math.pi) * math.gamma(2.0) * math.gamma(1.5)
    assert abs(gamma_omega_closed(s2, 2.0) - want) < 1e-14


def test_gamma_closed_pole():
    with pytest.raises(ValueError):
        gamma_omega_closed(get_algebra("sym2"), 0.5)  # Gamma(0) pole


def test_gamma_numeric_rank1():
    alg = get_algebra("rank1")
    assert abs(gamma_omega_numeric(alg, 3.0, n=60) - 2.0) < 1e-10


def test_gamma_numeric_sym2_quadrature():
    alg = get_algebra("sym2")
    closed = gamma_omega_closed(alg, 3.0)
    num = gamma_omega_numeric(alg, 3.0, n=80)
    assert abs(num - closed) / closed < 1e-6


def test_gamma_numeric_sym2_mc():
    alg = get_algebra("sym2")
    closed = gamma_omega_closed(alg, 3.0)
    num = gamma_omega_numeric(alg, 3.0, method="mc", mc_samples=1_000_000,
                              seed=20240)
    assert abs(num - closed) / closed < 1e-2


def test_gamma_numeric_gap_coordinates():
    for name in ("sym3", "sym4", "spin5"):
        alg = get_algebra(name)
        closed = gamma_omega_closed(alg, 4.0)
        num = gamma_omega_numeric(alg, 4.0, n=40)
        assert abs(num - closed) / closed < 1e-5, name


def test_gamma_divergent_rejection():
    with pytest.raises(ValueError):
        gamma_omega_numeric(get_algebra("sym2"), 0.3)


def test_cone_constant_against_gamma_identity():
    # integral over the cone of e^{-tr} equals Gamma_Omega(n/r)
    for name in ("sym2", "spin4", "sym3"):
        alg = get_algebra(name)
        got = cone_integrate_invariant(alg, lambda eigs: 1.0, 1.0,
                                       n_radial=60, n_u=60)
        want = gamma_omega_closed(alg, alg.n / alg.r)
        assert abs(got - want) / want < 1e-8, name


def test_sym2_polar_grid_gaussian():
    # full (non-invariant-capable) polar grid integrates the trace-form
    # Gaussian restricted to the cone; reference by invariant reduction
    s, u, t, w = sym2_polar_grid(48, 48, 24)
    coords = _sym2_coords(s, u, t)
    q2 = coords[:, 0] ** 2 + coords[:, 1] ** 2 + 2 * coords[:, 2] ** 2
    got = float(np.sum(w * np.exp(s - 0.5 * q2)))
    alg = get_algebra("sym2")
    want = cone_integrate_invariant(
        alg, lambda e: math.exp(e[0] + e[1] - 0.5 * (e[0] ** 2 + e[1] ** 2)),
        1.0, n_radial=60, n_u=60)
    assert abs(got - want) / want < 1e-8


def test_weyl_rank1_length():
    alg = get_algebra("rank1")
    assert abs(weyl_integral(alg, lambda e: 1.0, 0, 0) - 2.0) < 1e-13


def test_weyl_sym2_vandermonde_volume():
    alg = get_algebra("sym2")
    got = weyl_integral(alg, lambda e: 1.0, 0, 0)
    assert abs(got - 4.0 / 3.0) < 1e-12


def test_weyl_rank1_jacobi_norm():
    # squared norm of P_1^{(1,1)} under (1-x)(1+x): 16/15
    alg = get_algebra("rank1")
    p1 = jacobi_classical(1, 1, 1)

    def f(eigs):
        x = eigs[0]
        return float(sum(float(c) * x**j for j, c in enumerate(p1))) ** 2

    assert abs(weyl_integral(alg, f, 1, 1) - 16.0 / 15.0) < 1e-13


def test_weyl_node_doubling_stability():
    alg = get_algebra("sym2")

    def f(eigs):
        return (eigs[0] + eigs[1]) ** 2 + eigs[0] * eigs[1]

    a = weyl_integral(alg, f, 2, 3, n=40)
    b = weyl_integral(alg, f, 2, 3, n=80)
    assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_weyl_tensor_fallback_even_power():
    # spin4 has d = 2: symmetrized tensor path is polynomial-exact
    alg = get_algebra("spin4")
    a = weyl_integral(alg, lambda e: 1.0, 1, 1, n=24, method="tensor")
    b = weyl_integral(alg, lambda e: 1.0, 1, 1, n=48, method="tensor")
    assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_gram_rank1():
    rep = gram_matrix(get_algebra("rank1"), 1.0, 1.0, 4)
    assert rep.max_off_diagonal_ratio < 1e-12
    assert all(rep.matrix[i][i] > 0 for i in range(5))


def test_gram_sym2():
    rep = gram_matrix(get_algebra("sym2"), 3.0, 3.0, 3)
    assert rep.max_off_diagonal_ratio < 1e-8
    assert all(rep.matrix[i][i] > 0 for i in range(4))
    data = rep.to_jsonable()
    assert data["schema"] == "rc-lab/1"
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "k,l,value"


def test_gram_matrix_symmetric():
    rep = gram_matrix(get_algebra("rank1"), 2.0, 1.0, 3)
    G = rep.matrix
    for i in range(4):
        for j in range(4):
            assert G[i][j] == G[j][i]


def test_tube_laplace_rank1_closed_form():
    alg = get_algebra("rank1")
    nu = 2.5
    z = alg.element((2 + 3j,))
    got = tube_laplace(alg, lambda c: np.ones(len(c)), z, det_power=nu - 1.0)
    want = math.gamma(nu) * ((2 + 3j + 1j) / 1j) ** (-nu)
    assert abs(got - want) / abs(want) < 1e-12


def test_tube_laplace_divergence_guard():
    alg = get_algebra("rank1")
    z = alg.element((0 + 1j,))
    with pytest.raises(ValueError):
        tube_laplace(alg, lambda c: np.ones(len(c)), z, kappa=-2.0)


def test_box_rule_volume():
    nodes, w = box_rule([(0.0, 2.0), (1.0, 4.0)], 12)
    assert abs(w.sum() - 6.0) < 1e-12
    got = float(np.sum(w * nodes[:, 0] * nodes[:, 1]))
    assert abs(got - 2.0 * 7.5) < 1e-12


def test_change_of_variables_rank1():
    rep = check_change_of_variables(get_algebra("rank1"))
    assert rep["pass"], rep
    assert rep["residual"] < 1e-6


def test_change_of_variables_sym2_mc():
    rep = check_change_of_variables(get_algebra("sym2"))
    assert rep["pass"], rep
    assert rep["residual"] < 1e-2
    assert rep["seed"] == 31
