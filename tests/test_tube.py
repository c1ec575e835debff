"""Holomorphic calculus on the tube: branches, derivatives, group action."""

import cmath
import math

import numpy as np
import pytest

from rclab.algebra import get_algebra, NotInCone
from rclab.quadrature import gamma_omega_closed, tube_laplace
from rclab.tube import (
    tube_point, det_batch, logdet_tube, HoloFunction,
    coherent_state, holo_derivative,
    holo_mixed_derivatives, GroupGenerator, pi_action, apply_B,
    check_covariance_B, check_adjoint_image, check_J_factorization,
    check_partial_isometry, check_hua_cocycle, check_coherent_transform,
    default_generators,
)


def tube_el(alg, *coords):
    return alg.element(tuple(complex(c) for c in coords))


def test_tube_point_validation():
    alg = get_algebra("sym2")
    tube_point(alg, (1j, 2j, 0))
    with pytest.raises(NotInCone):
        tube_point(alg, (1j, -1j, 0))


def test_logdet_matches_principal_rank1():
    alg = get_algebra("rank1")
    z = 2 + 3j
    got = logdet_tube(alg, np.array([[z]]))[0]
    assert abs(got - cmath.log(z / 1j)) < 1e-13


def test_logdet_on_imaginary_axis():
    alg = get_algebra("sym2")
    got = logdet_tube(alg, np.array([[2j, 3j, 0]]))[0]
    assert abs(got - math.log(6.0)) < 1e-13


def test_branched_power_consistency_and_paths():
    alg = get_algebra("sym2")
    target = np.array([[0.8 + 1.2j, -0.5 + 2.0j, 0.3 + 0.1j]])
    log = logdet_tube(alg, target)[0]
    d = det_batch(alg, -1j * target)[0]
    assert abs(cmath.exp(log) - d) / abs(d) < 1e-12
    via = logdet_tube(alg, target,
                      waypoints=[np.array([0.1j + 3j, 2.5j, 0.0])])[0]
    assert abs(log - via) < 1e-10


def test_coherent_state_values():
    alg1 = get_algebra("rank1")
    K = coherent_state(alg1, 2.0, tube_el(alg1, 1j))
    assert abs(K.at(tube_el(alg1, 1j)) - 0.25) < 1e-14
    for name in ("rank1", "sym2", "spin4"):
        alg = get_algebra(name)
        ie = tube_el(alg, *(1j * np.array([float(c) for c in alg.e_coords])))
        nu = 1.7
        K = coherent_state(alg, nu, ie)
        assert abs(K.at(ie) - 2.0 ** (-alg.r * nu)) < 1e-13


def test_coherent_state_is_holomorphic():
    alg = get_algebra("sym2")
    K = coherent_state(alg, 2.2, tube_el(alg, 0.2 + 1j, -0.1 + 1.3j, 0.05))
    z0 = np.array([0.3 + 1.2j, -0.1 + 0.9j, 0.05 + 0.02j])
    scale = abs(K(z0.reshape(1, -1))[0])
    h = 1e-5
    for i in range(alg.n):
        pts = np.tile(z0, (4, 1))
        pts[:, i] += [h, -h, 1j * h, -1j * h]
        v = K(pts)
        # d/d(conj z_i) by central differences
        dbar = 0.5 * ((v[0] - v[1]) / (2 * h) + 1j * (v[2] - v[3]) / (2 * h))
        assert abs(dbar) / scale < 1e-8


def test_laplace_of_weight_reproduces_coherent_state():
    # transform of the weight function reproduces Gamma_Omega(nu) k_nu^{ie}
    alg = get_algebra("rank1")
    nu = 2.0
    z = tube_el(alg, 2 + 3j)
    K = coherent_state(alg, nu, tube_el(alg, 1j))
    got = tube_laplace(alg, lambda c: np.ones(len(c)), z, det_power=nu - 1.0)
    want = gamma_omega_closed(alg, nu) * K.at(z)
    assert abs(got - want) / abs(want) < 1e-8


def test_holo_derivative_polynomial():
    alg = get_algebra("rank1")
    F = HoloFunction(alg, lambda c: c[:, 0] ** 2)
    z = alg.element((1j,))
    assert abs(holo_derivative(F, z, (2,)) - 2.0) < 1e-12
    assert abs(holo_derivative(F, z, (1,)) - 2j) < 1e-12


def test_holo_derivative_coherent_vs_symbolic():
    # d/dz (z+i)^{-2} = -2 (z+i)^{-3}; at z = i the branch factor i^2 drops
    # out of the ratio
    alg = get_algebra("rank1")
    K = coherent_state(alg, 2.0, tube_el(alg, 1j))
    z = alg.element((1j,))
    got = holo_derivative(K, z, (1,))
    want = -2.0 * ((2j) / 1j) ** (-3.0) / 1j
    assert abs(got - want) / abs(want) < 1e-10


def test_mixed_derivative_of_product_factorizes():
    alg = get_algebra("rank1")

    def F2(c):
        return c[:, 0] ** 2 * c[:, 1] ** 3

    point = np.array([0.5 + 1j, -0.3 + 1.5j])
    d = holo_mixed_derivatives(alg, F2, point, [(2, 1)])[(2, 1)]
    want = 2.0 * 3.0 * point[1] ** 2
    assert abs(d - want) / abs(want) < 1e-10


def test_cauchy_node_doubling():
    alg = get_algebra("sym2")
    K = coherent_state(alg, 2.3, tube_el(alg, (0.1 + 1.0j), (0.2 + 1.1j), 0.05j))
    z = alg.element((0.3 + 1.4j, -0.2 + 1.6j, 0.1 + 0.05j))
    a = holo_derivative(K, z, (2, 0, 0), n_nodes=32)
    b = holo_derivative(K, z, (2, 0, 0), n_nodes=64)
    assert abs(a - b) / abs(b) < 1e-9


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_generator_cocycles_match_numeric_jacobian(name):
    alg = get_algebra(name)
    e = np.array([float(c) for c in alg.e_coords])
    z = alg.element(tuple(0.3 * np.arange(alg.n) + 1.2j * e
                          + 0.1j * np.arange(alg.n)))
    z0 = z.as_array()
    h = 1e-6
    for gen in default_generators(alg):
        # Det_C(Dg(z)) by central differences against exp(psi_g(z))
        J = np.zeros((alg.n, alg.n), dtype=complex)
        for i in range(alg.n):
            step = np.zeros(alg.n, dtype=complex)
            step[i] = h
            J[:, i] = (gen.apply(z0 + step)[0] - gen.apply(z0 - step)[0]) / (2 * h)
        want = np.linalg.det(J)
        got = np.exp(gen.psi(z0.reshape(1, -1))[0])
        assert abs(got - want) / abs(want) < 1e-8, gen.kind


def test_translation_cocycle_is_one():
    alg = get_algebra("sym2")
    gen = default_generators(alg)[0]
    z = np.array([[0.1 + 1j, 0.2 + 1.5j, 0.0]])
    assert abs(np.exp(gen.psi(z)[0]) - 1.0) < 1e-15


def test_pi_action_translation_identity():
    alg = get_algebra("rank1")
    gen = GroupGenerator(alg, "translation", alg.element((0.0,)))
    K = coherent_state(alg, 2.0, tube_el(alg, 1j))
    KT = pi_action(gen, 2.0, K)
    z = alg.element((0.4 + 1.7j,))
    assert abs(K.at(z) - KT.at(z)) < 1e-14


def test_pi_action_rank1_dilation_by_four():
    # P(2) scales by 4; pi_nu(l)F(z) = 4^{-nu/2} F(z/4)
    alg = get_algebra("rank1")
    gen = GroupGenerator(alg, "dilation", alg.element((4.0,)))
    nu = 3.0
    F = HoloFunction(alg, lambda c: c[:, 0] ** 2)
    FT = pi_action(gen, nu, F)
    z = alg.element((0.8 + 2.0j,))
    want = 4.0 ** (-nu / 2) * (complex(z.coords[0]) / 4.0) ** 2
    assert abs(FT.at(z) - want) / abs(want) < 1e-12


def test_pi_action_inversion_modulus():
    alg = get_algebra("rank1")
    gen = GroupGenerator(alg, "inversion")
    F = HoloFunction(alg, lambda c: np.ones(len(c)))
    FT = pi_action(gen, 2.0, F)
    val = FT.at(alg.element((1j,)))
    assert abs(abs(val) - 1.0) < 1e-12


def test_apply_B_k0_is_restriction():
    alg = get_algebra("rank1")

    def F2(c):
        return c[:, 0] * c[:, 1]

    z = alg.element((0.7 + 1.1j,))
    got = apply_B(alg, 0, 4.0, 2.5, F2, z)
    assert abs(got - complex(z.coords[0]) ** 2) < 1e-12


def test_apply_B_rank1_k1_oracle():
    alg = get_algebra("rank1")

    def F2(c):
        return c[:, 0] * c[:, 1]

    z = alg.element((0.7 + 1.1j,))
    got = apply_B(alg, 1, 4.0, 2.5, F2, z)
    want = (4.0 - 2.5) * complex(z.coords[0])
    assert abs(got - want) / abs(want) < 1e-11


def test_apply_B_bilinear():
    alg = get_algebra("rank1")

    def F2(c):
        return c[:, 0] * c[:, 1]

    def G2(c):
        return c[:, 0] ** 2

    def S2(c):
        return F2(c) + G2(c)

    z = alg.element((0.4 + 1.3j,))
    a = apply_B(alg, 1, 3.0, 3.0, F2, z)
    b = apply_B(alg, 1, 3.0, 3.0, G2, z)
    s = apply_B(alg, 1, 3.0, 3.0, S2, z)
    assert abs(s - (a + b)) < 1e-10 * max(1.0, abs(s))


def test_apply_B_degree_drop():
    # on a polynomial pair input, output degree drops by exactly r*k
    alg = get_algebra("rank1")
    k = 2

    def F2(c):
        return c[:, 0] ** 3 * c[:, 1] ** 2   # total degree 5

    vals = []
    for t in (1.0, 2.0):
        z = alg.element((t * (0.5 + 1.0j),))
        vals.append(apply_B(alg, k, 3.0, 3.0, F2, z))
    # homogeneous of degree 5 - rk = 3: scaling by 2 scales value by 8
    assert abs(vals[1] / vals[0] - 2.0 ** 3) < 1e-9


@pytest.mark.parametrize("kind", ["translation", "dilation", "inversion"])
def test_covariance_rank1(kind):
    alg = get_algebra("rank1")
    gens = {g.kind: g for g in default_generators(alg)}
    for k in (0, 1, 2):
        rep = check_covariance_B(alg, k, 2.6, 3.2, gens[kind])
        assert rep["pass"], rep


def test_covariance_sym2_dilation():
    alg = get_algebra("sym2")
    gens = {g.kind: g for g in default_generators(alg)}
    rep = check_covariance_B(alg, 1, 2.6, 3.2, gens["dilation"])
    assert rep["pass"] and rep["max_residual"] < 1e-6


def test_covariance_sym2_inversion():
    alg = get_algebra("sym2")
    gens = {g.kind: g for g in default_generators(alg)}
    rep = check_covariance_B(alg, 1, 2.6, 3.2, gens["inversion"])
    assert rep["pass"] and rep["max_residual"] < 1e-6


def test_covariance_sym2_k2():
    alg = get_algebra("sym2")
    gens = {g.kind: g for g in default_generators(alg)}
    e = np.array([float(c) for c in alg.e_coords])
    pts = [alg.element(tuple((0.2 + 1.3j) * e)),
           alg.element(tuple((-0.3 + 1.1j) * e + 0.1j * np.arange(alg.n)))]
    rep = check_covariance_B(alg, 2, 2.6, 3.2, gens["dilation"], points=pts)
    assert rep["pass"] and rep["max_residual"] < 1e-6


def test_adjoint_image_sym2_k2():
    alg = get_algebra("sym2")
    z1 = alg.element((0.2 + 1.1j, -0.1 + 1.3j, 0.05 + 0.1j))
    z2 = alg.element((-0.3 + 1.8j, 0.2 + 1.5j, -0.02 + 0.05j))
    rep = check_adjoint_image(alg, 2, 4, 4, z1, z2, tol=1e-3)
    assert rep["pass"] and rep["residual"] < 1e-3


def test_polydisc_radius_violation():
    alg = get_algebra("rank1")
    F = HoloFunction(alg, lambda c: c[:, 0])
    with pytest.raises((ValueError, NotInCone)):
        holo_derivative(F, alg.element((0.5 - 1.0j,)), (1,))


def test_averaging_map_prefactor_bound():
    # the averaged function is bounded by 2^{-n} det^{n/r} |interval| max|f|
    from rclab.quadrature import gauss_legendre, scaled_interval_rule
    from rclab.tube import _bump_1d

    f = _bump_1d(1.0, 3.0)
    gl = gauss_legendre(80)
    v, wv = scaled_interval_rule(gl, -1.0, 1.0)
    for eta in (0.05, 0.2, 0.6):
        jf = 0.5 * eta * float(np.sum(wv * f(eta * (1 - v) / 2)
                                      * f(eta * (1 + v) / 2)))
        assert abs(jf) <= 0.5 * eta * 2.0 * 1.0 + 1e-12


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_hua_cocycle_all_generators(name):
    alg = get_algebra(name)
    e = np.array([float(c) for c in alg.e_coords])
    z = alg.element(tuple(0.4 * np.arange(alg.n) / alg.n + 1.3j * e))
    w = alg.element(tuple(-0.2 * e + 0.9j * e))
    for gen in default_generators(alg):
        rep = check_hua_cocycle(alg, gen, z, w)
        assert rep["pass"] and rep["residual"] < 1e-8, gen.kind


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_coherent_transform_all_generators(name):
    alg = get_algebra(name)
    e = np.array([float(c) for c in alg.e_coords])
    w = alg.element(tuple(0.1 * e + 1.1j * e))
    for gen in default_generators(alg):
        rep = check_coherent_transform(alg, 2.7, gen, w)
        assert rep["pass"] and rep["max_residual"] < 1e-8, gen.kind


def test_coherent_transform_dilation_from_identity_witness():
    # transporting the base coherent state along P(v^{1/2}) reaches the
    # witness iv with the (det v)^{nu/2} factor
    alg = get_algebra("sym2")
    v = alg.element((2.0, 1.5, 0.3))
    gen = GroupGenerator(alg, "dilation", v)
    nu = 3.0
    ie = tube_el(alg, 1j, 1j, 0)
    K = coherent_state(alg, nu, ie)
    KT = pi_action(gen, nu, K)
    from rclab.algebra import det

    gw = gen.apply(ie.as_array().reshape(1, -1))[0]
    K2 = coherent_state(alg, nu, alg.element(tuple(gw)))
    z = alg.element((0.2 + 1.4j, -0.1 + 1.2j, 0.05 + 0.1j))
    fac = float(det(v)) ** (nu / 2)
    assert abs(KT.at(z) - fac * K2.at(z)) / abs(KT.at(z)) < 1e-12


def test_adjoint_image_rank1():
    alg = get_algebra("rank1")
    z1 = alg.element((0.3 + 1.0j,))
    z2 = alg.element((-0.2 + 2.0j,))
    for k in (0, 1, 2):
        rep = check_adjoint_image(alg, k, 3, 3, z1, z2)
        assert rep["pass"], rep
        ph = complex(*rep["measured_phase"])
        assert abs(ph - 1.0) < 1e-6


def test_adjoint_image_vanishes_on_diagonal():
    alg = get_algebra("rank1")
    z = alg.element((1j,))
    rep = check_adjoint_image(alg, 1, 3, 3, z, z)
    assert rep["pass"]
    assert abs(complex(*rep["numeric"])) < 1e-12


def test_adjoint_image_k0_factorizes():
    # k = 0 reduces to the single-slot transform identity on each factor
    alg = get_algebra("rank1")
    z1 = alg.element((0.1 + 1.2j,))
    z2 = alg.element((0.4 + 1.6j,))
    rep = check_adjoint_image(alg, 0, 3, 4, z1, z2)
    assert rep["pass"] and rep["residual"] < 1e-10


def test_J_factorization_rank1():
    rep = check_J_factorization(get_algebra("rank1"))
    assert rep["pass"] and rep["residual"] < 1e-6


def test_J_factorization_sym2_mc():
    rep = check_J_factorization(get_algebra("sym2"))
    assert rep["pass"] and rep["residual"] < 1e-2


def test_partial_isometry_rank1():
    alg = get_algebra("rank1")
    for k in (0, 1):
        rep = check_partial_isometry(alg, k, 3, 3)
        assert rep["pass"], rep
        assert rep["ratio_spread"] < 1e-6
        assert rep["constant_residual"] < 1e-6


def test_partial_isometry_k0_beta_identity():
    # c(lam, mu; 0) = Beta(lam, mu) in rank 1
    alg = get_algebra("rank1")
    rep = check_partial_isometry(alg, 0, 3, 3)
    want = math.gamma(3.0) ** 2 / math.gamma(6.0)
    assert abs(rep["expected_constant"] - want) / want < 1e-12
    assert abs(rep["ratios"][0] - want) / want < 1e-6


def test_bracket_transform_equivalence_rank1():
    from rclab.tube import check_bracket_transform_equivalence

    alg = get_algebra("rank1")
    for k in (0, 1, 2):
        rep = check_bracket_transform_equivalence(alg, k, 3, 4)
        assert rep["pass"] and rep["residual"] < 1e-6, rep


def test_bergman_norm_isometry_rank1():
    from rclab.tube import check_bergman_isometry

    rep = check_bergman_isometry(get_algebra("rank1"))
    assert rep["pass"], rep
    assert rep["ratio_spread"] < 1e-6 and rep["residual"] < 1e-6


def test_partial_isometry_scale_invariance():
    # doubling h scales both norms by 4: the ratio is h-independent, which
    # the spread over differently-scaled bumps already witnesses
    rep = check_partial_isometry(get_algebra("rank1"), 1, 3, 3)
    assert rep["ratio_spread"] < 1e-6
