"""Holomorphic calculus on the tube: branches, derivatives, group action."""

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import tube_ref
from rclab.algebra import ALGEBRA_NAMES, get_algebra, spectral, NotInCone
from rclab.brackets import compute_c
from rclab.cli import _path_logdet
from rclab.quadrature import gamma_omega_closed, tube_laplace
from rclab.tube import (
    logdet_tube, det_power_jets, coherent_state, GroupGenerator, pi_action, apply_B,
    check_covariance_B, check_adjoint_image, check_J_factorization,
    check_partial_isometry, check_hua_cocycle, check_coherent_transform,
    default_generators, _default_tube_points,
)


def tube_el(*coords):
    """The tube point with these coordinates, a complex row."""
    return np.array(coords, dtype=complex)


def at(F, z):
    """F at the single tube point z."""
    return complex(F(z[None])[0])


def jet(alg, nu, u, alpha):
    """d^alpha det^(-nu) / det^(-nu) at the point u, a one-row stack."""
    alpha = tuple(alpha)
    return complex(det_power_jets(alg, nu, np.asarray(u, dtype=complex)[None], [alpha])[alpha][0])


def power_slot(m):
    """z^m = i^m k_{-m}^0(z) in rank one, as a coherent-state slot of
    negative weight."""
    return (-m, np.zeros(1), 1j ** m)


def test_tube_point_validation():
    # a point is in the tube when its imaginary part is in the open cone
    alg = get_algebra("sym2")
    assert np.all(spectral(alg, tube_el(1j, 2j, 0).imag[None]) > 0)
    assert not np.all(spectral(alg, tube_el(1j, -1j, 0).imag[None]) > 0)


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
    # exp of the branch is det(z/i), and the branch is the one the path sum
    # reaches along a polyline from i e (which is not the straight segment)
    alg = get_algebra("sym2")
    target = np.array([[0.8 + 1.2j, -0.5 + 2.0j, 0.3 + 0.1j]])
    log = logdet_tube(alg, target)[0]
    d = alg.det_poly.numeric(-1j * target)[0]
    assert abs(cmath.exp(log) - d) / abs(d) < 1e-12
    via = _path_logdet(alg, np.array([[0.1j + 3j, 2.5j, 0.0], target[0]]))
    assert abs(log - via) < 1e-10


def test_logdet_leaves_the_principal_branch_in_rank_three():
    # at z = (5 + i) e in sym3, Im log det(z/i) = 3 arg(1 - 5i) < -pi: the
    # principal log of det(z/i) is off by 2 pi i, the eigenvalue sum is not
    alg = get_algebra("sym3")
    z = (5 + 1j) * alg.e
    log = logdet_tube(alg, z[None])[0]
    assert log.imag < -math.pi
    assert abs(log - 3 * cmath.log(1 - 5j)) < 1e-13
    assert abs(log - _path_logdet(alg, z[None])) < 1e-12
    principal = cmath.log(alg.det_poly.numeric(-1j * z[None])[0])
    assert abs(principal - log - 2j * math.pi) < 1e-12


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_a_nan_coordinate_is_off_the_tube(name):
    # nan * e + i e has its imaginary part in the cone: the rank <= 2 branch
    # read NaN there, so apply_B divided by a NaN det (a RuntimeWarning),
    # and sym(r >= 3) ended in LinAlgError
    alg = get_algebra(name)
    z = (np.nan * alg.e + 1j * alg.e)[None]
    slot = (4.5, 1j * alg.e, 1.0)
    with pytest.raises(NotInCone):
        logdet_tube(alg, z)
    with pytest.raises(NotInCone):
        apply_B(alg, 1, 4.5, 4.5, slot, slot, z)


def test_logdet_raises_off_the_tube():
    # the branch suite's target for spin8: its imaginary part
    # 1.5 e + 0.2 (0, ..., 7) has an eigenvalue below 0
    alg = get_algebra("spin8")
    n = alg.n
    z = 0.7 * np.arange(1, n + 1) / n + 1j * (1.5 * alg.e + 0.2 * np.arange(n))
    assert spectral(alg, z.imag[None]).min() < 0
    with pytest.raises(NotInCone):
        logdet_tube(alg, z[None])


@pytest.mark.parametrize("name", ["rank1", "sym2", "spin3", "spin4", "spin5", "spin6",
                                  "spin7", "spin8"])
def test_logdet_rows_of_a_stack_have_the_bits_of_a_one_row_call(name):
    # in rank <= 2 the branch is the principal log of det(z/i), and det rows
    # keep their bits; the eigenvalue route's quad_rep contractions moved
    # rows of spin4 and spin8
    from rclab.algebra import quad_rep

    alg = get_algebra(name)
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, (200, alg.n))
    y = quad_rep(alg, rng.uniform(-2, 2, (200, alg.n)), alg.e) + 0.1 * alg.e
    Z = x + 1j * y
    got = logdet_tube(alg, Z)
    for i, row in enumerate(Z):
        assert got[i] == logdet_tube(alg, row[None])[0], i


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_branch_suite_fails_on_a_branch_off_by_2_pi_i(name, monkeypatch):
    from rclab import cli, tube

    logdet = tube.logdet_tube
    monkeypatch.setattr(tube, "logdet_tube",
                        lambda algebra, coords: logdet(algebra, coords) + 2j * math.pi)
    (rep,), ok = cli.run_suites(get_algebra(name), "branch")
    assert not ok and not rep["pass"], rep
    assert abs(rep["residual"] - 2 * math.pi) < 1e-9


def test_coherent_state_values():
    alg1 = get_algebra("rank1")
    K = coherent_state(alg1, 2.0, tube_el(1j))
    assert abs(at(K, tube_el(1j)) - 0.25) < 1e-14
    for name in ("rank1", "sym2", "spin4"):
        alg = get_algebra(name)
        ie = 1j * alg.e
        nu = 1.7
        K = coherent_state(alg, nu, ie)
        assert abs(at(K, ie) - 2.0 ** (-alg.r * nu)) < 1e-13


def test_coherent_state_is_holomorphic():
    alg = get_algebra("sym2")
    K = coherent_state(alg, 2.2, tube_el(0.2 + 1j, -0.1 + 1.3j, 0.05))
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
    z = tube_el(2 + 3j)
    K = coherent_state(alg, nu, tube_el(1j))
    got = tube_laplace(alg, np.zeros((1, 1), dtype=int), z[None], nu - 1.0)[0, 0]
    want = gamma_omega_closed(alg, nu) * at(K, z)
    assert abs(got - want) / abs(want) < 1e-8


def test_holo_derivative_polynomial():
    # det^2 = u^2 in rank one is det^(-nu) at nu = -2: the jets are the
    # ratios 2/u and 2/u^2, and 0 past the degree
    alg = get_algebra("rank1")
    u = [0.5 + 1.5j]
    assert abs(jet(alg, -2, u, (1,)) * u[0] - 2.0) < 1e-14
    assert abs(jet(alg, -2, u, (2,)) * u[0] ** 2 - 2.0) < 1e-14
    assert jet(alg, -2, u, (3,)) == 0


def test_holo_derivative_coherent_vs_symbolic():
    # d/dz (z+i)^{-2} = -2 (z+i)^{-3}; at z = i the branch factor i^2 drops
    # out of the ratio
    alg = get_algebra("rank1")
    K = coherent_state(alg, 2.0, tube_el(1j))
    z = tube_el(1j)
    got = at(K, z) * jet(alg, 2.0, (z - np.conj(tube_el(1j))) / 1j, (1,)) / 1j
    want = -2.0 * ((2j) / 1j) ** (-3.0) / 1j
    assert abs(got - want) / abs(want) < 1e-14


def test_mixed_derivative_of_product_factorizes():
    # at a diagonal matrix of sym2 (x12 = 0), det^(-nu) = x11^(-nu) x22^(-nu), and
    # x12 enters only squared: d11^2 d22 det^(-nu) / det^(-nu) is
    # (-nu)(-nu - 1) x11^-2 (-nu) x22^-1
    alg = get_algebra("sym2")
    nu = 1.7
    u = np.array([0.5 + 1.5j, 1.2 - 0.4j, 0.0])
    want = (-nu) * (-nu - 1) / u[0] ** 2 * (-nu) / u[1]
    got = jet(alg, nu, u, (2, 1, 0))
    assert abs(got - want) / abs(want) < 1e-14


def orders_upto(d, m):
    """Every multi-index over d coordinates of order at most m."""
    if d == 0:
        return [()]
    return [(a,) + rest for a in range(m + 1) for rest in orders_upto(d - 1, m - a)]


def _mul(p, q, top):
    """The product of the {exponent: Fraction} polynomials p and q, less
    the monomials above degree ``top``."""
    out = {}
    by_degree = sorted((sum(b), b, y) for b, y in q.items())
    for a, x in p.items():
        room = top - sum(a)
        for degree, b, y in by_degree:
            if degree > room:
                break
            m = tuple(i + j for i, j in zip(a, b))
            out[m] = out.get(m, 0) + x * y
    return out


def _d(p, i):
    """d/dh_i of the polynomial p."""
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in p.items() if m[i]}


def exact_jets(alg, nu, u, top):
    """{alpha: d^alpha det^(-nu) / det^(-nu) at the rational point u} for
    every |alpha| <= top, in Fractions, from the recursion
    Q_{alpha+e_i} = det d_i Q_alpha - (nu + |alpha|) Q_alpha d_i det with
    d^alpha det^(-nu) = Q_alpha det^(-nu-|alpha|).  Each polynomial is held
    as its Taylor expansion in h at x = u + h: Q_alpha only to degree
    top - |alpha|, all that its value and the derivatives the recursion
    still takes at h = 0 read."""
    n = alg.n
    det = {}
    for m, c in zip(alg.det_poly.exps.tolist(), alg.det_poly.coef[:, 0, 0].tolist()):
        # c prod_i (u_i + h_i)^m_i, expanded
        term = {(0,) * n: Fraction(c, alg.det_poly.den)}
        for i, e in enumerate(m):
            binomial = {tuple(j if l == i else 0 for l in range(n)): math.comb(e, j) * u[i] ** (e - j)
                        for j in range(e + 1)}
            term = _mul(term, binomial, alg.r)
        for key, v in term.items():
            det[key] = det.get(key, 0) + v
    det_u = det.get((0,) * n, 0)
    Q = {(0,) * n: {(0,) * n: Fraction(1)}}
    for alpha in sorted(orders_upto(n, top), key=sum)[1:]:
        i = next(j for j, a in enumerate(alpha) if a)
        prev = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        m = sum(prev)
        cut = top - m - 1
        a = _mul(det, _d(Q[prev], i), cut)
        b = _mul(Q[prev], _d(det, i), cut)
        Q[alpha] = {key: a.get(key, 0) - (nu + m) * b.get(key, 0) for key in set(a) | set(b)}
    return {alpha: q.get((0,) * n, 0) / det_u ** sum(alpha) for alpha, q in Q.items()}


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_det_power_jets_match_the_exact_recursion(name):
    # every multi-index of order <= 4 at one rational point and one
    # rational nu; det u lies between 0.18 (sym4) and 1.08
    alg = get_algebra(name)
    nu = Fraction(7, 3)
    u = [Fraction(c) + Fraction((-1) ** i * (i + 1), 16) for i, c in enumerate(alg.e_coords)]
    want = exact_jets(alg, nu, u, 4)
    got = det_power_jets(alg, float(nu), np.array([[float(c) for c in u]]), list(want))
    for alpha, value in want.items():
        err = abs(complex(got[alpha][0]) - float(value))
        assert err <= 1e-13 * max(1.0, abs(float(value))), (alpha, got[alpha][0], value)


def _stack_rows(alg):
    """Four tube points whose imaginary parts have different least
    eigenvalues."""
    off = 0.05 * (1 + 1j) * np.arange(alg.n) / alg.n
    return np.array([(x + 1j * y) * alg.e + off
                     for x, y in ((0.3, 1.2), (-0.2, 0.7), (0.5, 2.1), (0.0, 1.6))])


@pytest.mark.parametrize("name, k", [("rank1", 0), ("rank1", 3), ("sym2", 1), ("sym2", 2)])
def test_apply_B_on_a_stack_has_the_bits_of_each_row(name, k):
    alg = get_algebra(name)
    n = alg.n
    F = (2.6, (0.2 + 1.1j) * alg.e + 0.05j * np.arange(n), 1.0)
    G = (3.2, (-0.3 + 0.9j) * alg.e + 0.04j * np.arange(n)[::-1], 1.0)
    # the reference sums each row in scalars, one monomial at a time: a
    # stack summed in numpy arrays rounds differently
    stack = _stack_rows(alg)
    got = apply_B(alg, k, 2.6, 3.2, F, G, stack)
    assert got.shape == (len(stack),)
    for value, row in zip(got, stack):
        assert value == apply_B(alg, k, 2.6, 3.2, F, G, row[None])[0] == tube_ref.apply_B(
            alg, k, 2.6, 3.2, F, G, row)


@pytest.mark.parametrize("name, ks", [("rank1", (0, 1, 2, 3)), ("sym2", (1,)),
                                      ("spin4", (1,)), ("spin8", (1,))],
                         ids=["rank1", "sym2", "spin4", "spin8"])
def test_covariance_writes_the_report_of_the_per_point_loop(name, ks):
    alg = get_algebra(name)
    for k in ks:
        for gen in default_generators(alg):
            want = tube_ref.check_covariance_B(alg, k, 2.6, 3.2, gen, 1e-6)
            assert check_covariance_B(alg, k, 2.6, 3.2, gen, 1e-6) == want, (k, gen.kind)


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_coherent_transport_writes_the_report_of_the_per_point_loop(name):
    alg = get_algebra(name)
    w = -0.2 * alg.e + 0.9j * alg.e
    for gen in default_generators(alg):
        want = tube_ref.check_coherent_transform(alg, 2.7, gen, w, 1e-8)
        assert check_coherent_transform(alg, 2.7, gen, w, 1e-8) == want, gen.kind


def test_covariance_fails_at_a_nan_point(monkeypatch):
    # every sample point is differentiated; a NaN point is off the tube, so
    # the check raises and its suite writes a failed report
    from rclab import cli, tube

    points = tube._default_tube_points
    monkeypatch.setattr(tube, "_default_tube_points",
                        lambda algebra: np.concatenate([points(algebra),
                                                        [np.nan * (1 + 1j) * algebra.e]]))
    for name in ("rank1", "sym2"):
        alg = get_algebra(name)
        with pytest.raises(NotInCone):
            check_covariance_B(alg, 1, 2.6, 3.2, default_generators(alg)[0], 1e-6)
        reports, ok = cli.run_suites(alg, "covariance")
        assert not ok and {r["check"] for r in reports} == {"suite-error"}, name


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_generator_cocycles_match_numeric_jacobian(name):
    alg = get_algebra(name)
    Z = _default_tube_points(alg)
    h = 1e-6
    steps = h * np.eye(alg.n)
    for gen in default_generators(alg):
        assert np.abs(gen.apply_inv(gen.apply(Z)) - Z).max() < 1e-14, gen.kind
        got = np.exp(gen.psi(Z))
        for z0, psi_z in zip(Z, got):
            # Det_C(Dg(z)) by central differences against exp(psi_g(z)):
            # column i of Dg is the difference along coordinate i
            J = (gen.apply(z0 + steps) - gen.apply(z0 - steps)).T / (2 * h)
            want = np.linalg.det(J)
            assert abs(psi_z - want) / abs(want) < 1e-8, gen.kind


def test_translation_cocycle_is_one():
    alg = get_algebra("sym2")
    gen = default_generators(alg)[0]
    z = np.array([[0.1 + 1j, 0.2 + 1.5j, 0.0]])
    assert abs(np.exp(gen.psi(z)[0]) - 1.0) < 1e-15


def test_pi_action_translation_identity():
    alg = get_algebra("rank1")
    gen = GroupGenerator(alg, "translation", np.array([0.0]))
    K = coherent_state(alg, 2.0, tube_el(1j))
    KT = pi_action(gen, 2.0, K)
    z = tube_el(0.4 + 1.7j)
    assert abs(at(K, z) - at(KT, z)) < 1e-14


def test_pi_action_rank1_dilation_by_four():
    # P(2) scales by 4; pi_nu(l)F(z) = 4^{-nu/2} F(z/4)
    alg = get_algebra("rank1")
    gen = GroupGenerator(alg, "dilation", np.array([4.0]))
    nu = 3.0
    FT = pi_action(gen, nu, lambda c: c[:, 0] ** 2)
    z = tube_el(0.8 + 2.0j)
    want = 4.0 ** (-nu / 2) * (complex(z[0]) / 4.0) ** 2
    assert abs(at(FT, z) - want) / abs(want) < 1e-12


def test_pi_action_inversion_modulus():
    alg = get_algebra("rank1")
    gen = GroupGenerator(alg, "inversion")
    FT = pi_action(gen, 2.0, lambda c: np.ones(len(c)))
    val = at(FT, tube_el(1j))
    assert abs(abs(val) - 1.0) < 1e-12


def test_generator_refuses_a_dilation_off_the_cone_and_an_unknown_kind():
    alg = get_algebra("sym2")
    with pytest.raises(NotInCone):
        GroupGenerator(alg, "dilation", np.array([1.0, -1.0, 0.0]))
    with pytest.raises(ValueError, match="unknown generator kind"):
        GroupGenerator(alg, "rotation")


def test_apply_B_k0_is_restriction():
    alg = get_algebra("rank1")
    z = tube_el(0.7 + 1.1j)
    got = apply_B(alg, 0, 4.0, 2.5, power_slot(1), power_slot(1), z[None])[0]
    assert abs(got - complex(z[0]) ** 2) < 1e-12


def test_apply_B_rank1_k1_oracle():
    alg = get_algebra("rank1")
    z = tube_el(0.7 + 1.1j)
    got = apply_B(alg, 1, 4.0, 2.5, power_slot(1), power_slot(1), z[None])[0]
    want = (4.0 - 2.5) * complex(z[0])
    assert abs(got - want) / abs(want) < 1e-14


def test_apply_B_bilinear():
    # linear in each slot's factor
    alg = get_algebra("rank1")
    F = (2.6, tube_el(0.2 + 1.1j), 1.0)
    G = (3.2, tube_el(-0.3 + 0.9j), 1.0)
    a, b = 0.3 - 1.7j, -2.2 + 0.4j
    z = tube_el(0.4 + 1.3j)[None]
    for k in (1, 2):
        one = apply_B(alg, k, 3.0, 3.5, F, G, z)[0]
        scaled = apply_B(alg, k, 3.0, 3.5, (*F[:2], a), (*G[:2], b), z)[0]
        assert abs(scaled - a * b * one) < 1e-13 * abs(scaled)


def test_apply_B_degree_drop():
    # on z^3 and z^2 in rank one the output degree drops by exactly r k;
    # on coherent states, z, w -> t z, t w scales det by t^r, so the
    # bracket, of order r k, scales by t^(-r (lam + mu + k))
    k, lam, mu = 2, 3.0, 3.0
    alg = get_algebra("rank1")
    z = tube_el(0.5 + 1.0j)
    pair = apply_B(alg, k, lam, mu, power_slot(3), power_slot(2), np.array([z, 2 * z]))
    assert abs(pair[1] / pair[0] - 2.0 ** 3) < 1e-13
    for name in ("rank1", "sym2"):
        alg = get_algebra(name)
        z = (0.5 + 1.0j) * alg.e + 0.1j * np.arange(alg.n)
        w1 = (0.2 + 1.1j) * alg.e + 0.05j * np.arange(alg.n)
        w2 = (-0.3 + 0.9j) * alg.e
        t = 1.7
        base, moved = (apply_B(alg, k, lam, mu, (2.6, s * w1, 1.0), (3.2, s * w2, 1.0),
                               (s * z)[None])[0] for s in (1.0, t))
        assert abs(moved / base - t ** (-alg.r * (2.6 + 3.2 + k))) < 1e-13, name


def _rising(x, m):
    return math.prod(x + i for i in range(m))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_apply_B_rank1_coherent_states_closed_form(k):
    # the rank-1 bracket is the classical Rankin-Cohen bracket,
    # sum_{a+b=k} (-1)^a C(k, a) (lam+a)_b (mu+b)_a F^(a) G^(b), and
    # d^a/dz^a ((z - conj w)/i)^(-nu) = (-1)^a (nu)_a i^(-a) ((z - conj w)/i)^(-nu-a)
    alg = get_algebra("rank1")
    lam, mu = 2.6, 3.2
    w1, w2 = 0.2 + 1.1j, -0.3 + 0.9j
    F = (lam, tube_el(w1), 1.0)
    G = (mu, tube_el(w2), 1.0)
    z = 0.3 + 1.4j

    def deriv(nu, w, a):
        u = (z - w.conjugate()) / 1j
        return (-1) ** a * _rising(nu, a) * 1j ** (-a) * u ** (-nu - a)

    want = sum((-1) ** a * math.comb(k, a) * _rising(lam + a, k - a) * _rising(mu + k - a, a)
               * deriv(lam, w1, a) * deriv(mu, w2, k - a) for a in range(k + 1))
    got = apply_B(alg, k, lam, mu, F, G, tube_el(z)[None])[0]
    assert abs(got - want) / abs(want) < 1e-10, (got, want)


def test_covariance_differentiates_each_slot_on_its_own(monkeypatch):
    # rank1 k=3 under a translation: each route reads each slot's value once
    # at its five points, not on a tensor grid over both slots (21,760
    # points that way)
    from rclab import tube

    alg = get_algebra("rank1")
    gens = {g.kind: g for g in default_generators(alg)}
    logdet = tube.logdet_tube
    points = []

    def counted(algebra, coords, *args, **kwargs):
        points.append(len(np.atleast_2d(coords)))
        return logdet(algebra, coords, *args, **kwargs)

    monkeypatch.setattr(tube, "logdet_tube", counted)
    rep = check_covariance_B(alg, 3, 2.6, 3.2, gens["translation"], 1e-6)
    assert rep["pass"], rep
    assert points == [5] * 4, points


def test_covariance_sym2_differentiates_along_few_directions(monkeypatch):
    # sym2 k=1 under a translation: the jets take no point off the sample
    # points, so each route reads each slot's value once at its five points,
    # not on a tensor grid over each multi-index's support (22,420 points
    # that way)
    from rclab import tube

    alg = get_algebra("sym2")
    gens = {g.kind: g for g in default_generators(alg)}
    logdet = tube.logdet_tube
    points = []

    def counted(algebra, coords, *args, **kwargs):
        points.append(len(np.atleast_2d(coords)))
        return logdet(algebra, coords, *args, **kwargs)

    monkeypatch.setattr(tube, "logdet_tube", counted)
    rep = check_covariance_B(alg, 1, 2.6, 3.2, gens["translation"], 1e-6)
    assert rep["pass"], rep
    assert points == [5] * 4, points


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_covariance_catches_a_wrong_coefficient(name, monkeypatch, tmp_path, wrong_c1):
    # a constant-coefficient operator commutes with every translation, so
    # only the other generators can see the mutated c(1); the inversion does
    from rclab import brackets
    from rclab.cli import main

    alg = get_algebra(name)
    monkeypatch.setitem(brackets._memory_cache, (name, 1), wrong_c1(alg))
    reps = {g.kind: check_covariance_B(alg, 1, 2.6, 3.2, g, 1e-6) for g in default_generators(alg)}
    assert reps["translation"]["pass"] and not reps["inversion"]["pass"]
    out = tmp_path / "covariance.json"
    code = main(["check", "covariance", "--algebra", name,
                 "--cache-dir", str(tmp_path / "cache"), "--output", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["pass"] is False
    assert not all(rep["pass"] for rep in data["reports"] if rep["k"] == 1)
    assert all(rep["pass"] for rep in data["reports"] if rep["k"] != 1)


def _flip_det_term(algebra, A, B, P):
    """(a|b) a + det(a) b* from P(a)b = (a|b) a - det(a) b* in rank 2."""
    det = algebra.det_poly.numeric(np.atleast_2d(A))[:, None]
    return P + 2 * det * ((B @ (np.array(algebra.gram) * algebra.e))[..., None]
                          * algebra.e - B)


@pytest.mark.parametrize("name, wrong", [
    ("rank1", lambda alg, A, B, P: 1.001 * P), ("sym2", _flip_det_term),
    ("spin5", _flip_det_term), ("sym3", lambda alg, A, B, P: 1.001 * P)],
    ids=["rank1-scaled", "sym2-flipped", "spin5-flipped", "sym3-scaled"])
def test_a_wrong_quadratic_representation_fails_the_cocycle_checks(name, wrong,
                                                                   monkeypatch):
    # a wrong P(a) in one family breaks the lift of the dilation: both the
    # kernel cocycle and the coherent-state transport see it, at the points
    # of the cocycles suite
    from rclab import tube

    alg = get_algebra(name)
    n = alg.n
    z = 0.4 * np.arange(n) / n + 1.3j * alg.e + 0.05j * np.arange(n)
    w = -0.2 * alg.e + 0.9j * alg.e

    def dilation_checks():
        gen = default_generators(alg)[1]
        assert gen.kind == "dilation"
        return (check_hua_cocycle(alg, gen, z, w, 1e-8),
                check_coherent_transform(alg, 2.7, gen, w, 1e-8))

    assert all(rep["pass"] for rep in dilation_checks())
    exact = tube.quad_rep

    def mutated(algebra, A, B):
        P = exact(algebra, A, B)
        return wrong(algebra, A, B, P) if algebra is alg else P

    monkeypatch.setattr(tube, "quad_rep", mutated)
    assert not any(rep["pass"] for rep in dilation_checks())
    other = get_algebra("spin4" if name != "spin5" else "sym2")
    gen = default_generators(other)[1]
    assert check_hua_cocycle(other, gen, other.e * 0.1 + 1j * other.e, 1j * other.e, 1e-8)["pass"]


@pytest.mark.parametrize("kind", ["translation", "dilation", "inversion"])
def test_covariance_rank1(kind):
    alg = get_algebra("rank1")
    gens = {g.kind: g for g in default_generators(alg)}
    for k in (0, 1, 2):
        rep = check_covariance_B(alg, k, 2.6, 3.2, gens[kind], 1e-6)
        assert rep["pass"], rep


def test_covariance_sym2_dilation():
    alg = get_algebra("sym2")
    gens = {g.kind: g for g in default_generators(alg)}
    rep = check_covariance_B(alg, 1, 2.6, 3.2, gens["dilation"], 1e-6)
    assert rep["pass"] and rep["max_residual"] < 1e-6


def test_covariance_sym2_inversion():
    alg = get_algebra("sym2")
    gens = {g.kind: g for g in default_generators(alg)}
    rep = check_covariance_B(alg, 1, 2.6, 3.2, gens["inversion"], 1e-6)
    assert rep["pass"] and rep["max_residual"] < 1e-6


def test_covariance_sym2_k2():
    alg = get_algebra("sym2")
    gens = {g.kind: g for g in default_generators(alg)}
    rep = check_covariance_B(alg, 2, 2.6, 3.2, gens["dilation"], 1e-6)
    assert rep["pass"] and rep["max_residual"] < 1e-6


def test_adjoint_image_sym2_k2():
    alg = get_algebra("sym2")
    z1 = tube_el(0.2 + 1.1j, -0.1 + 1.3j, 0.05 + 0.1j)
    z2 = tube_el(-0.3 + 1.8j, 0.2 + 1.5j, -0.02 + 0.05j)
    rep = check_adjoint_image(alg, 2, 4, 4, z1, z2, tol=1e-3)
    assert rep["pass"] and rep["residual"] < 1e-3


def test_averaging_map_prefactor_bound():
    # the averaged function is bounded by 2^{-n} det^{n/r} |interval| max|f|
    from rclab.quadrature import gauss_legendre, scaled_interval_rule

    def f(x):               # a C^inf bump on (1, 3), 1 at x = 2
        q2 = (x - 2.0) ** 2
        out = np.zeros_like(q2)
        inside = q2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - q2[inside]))
        return out

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
    z = 0.4 * np.arange(alg.n) / alg.n + 1.3j * e
    w = -0.2 * e + 0.9j * e
    for gen in default_generators(alg):
        rep = check_hua_cocycle(alg, gen, z, w, 1e-8)
        assert rep["pass"] and rep["residual"] < 1e-8, gen.kind


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_coherent_transform_all_generators(name):
    alg = get_algebra(name)
    e = np.array([float(c) for c in alg.e_coords])
    w = 0.1 * e + 1.1j * e
    for gen in default_generators(alg):
        rep = check_coherent_transform(alg, 2.7, gen, w, 1e-8)
        assert rep["pass"] and rep["max_residual"] < 1e-8, gen.kind


def test_coherent_transform_dilation_from_identity_witness():
    # transporting the base coherent state along P(v^{1/2}) reaches the
    # witness iv with the (det v)^{nu/2} factor
    alg = get_algebra("sym2")
    v = np.array([2.0, 1.5, 0.3])
    gen = GroupGenerator(alg, "dilation", v)
    nu = 3.0
    ie = tube_el(1j, 1j, 0)
    K = coherent_state(alg, nu, ie)
    KT = pi_action(gen, nu, K)
    gw = gen.apply(ie.reshape(1, -1))[0]
    K2 = coherent_state(alg, nu, gw)
    z = tube_el(0.2 + 1.4j, -0.1 + 1.2j, 0.05 + 0.1j)
    fac = float(alg.det_poly.numeric(v[None])[0]) ** (nu / 2)
    assert abs(at(KT, z) - fac * at(K2, z)) / abs(at(KT, z)) < 1e-12


def test_adjoint_image_rank1():
    alg = get_algebra("rank1")
    z1 = tube_el(0.3 + 1.0j)
    z2 = tube_el(-0.2 + 2.0j)
    for k in (0, 1, 2):
        rep = check_adjoint_image(alg, k, 3, 3, z1, z2, 1e-6)
        assert rep["pass"], rep
        ph = complex(*rep["measured_phase"])
        assert abs(ph - 1.0) < 1e-6


def test_adjoint_image_vanishes_on_diagonal():
    alg = get_algebra("rank1")
    z = tube_el(1j)
    rep = check_adjoint_image(alg, 1, 3, 3, z, z, 1e-6)
    assert rep["pass"]
    assert abs(complex(*rep["numeric"])) < 1e-12


def test_adjoint_image_k0_factorizes():
    # k = 0 reduces to the single-slot transform identity on each factor
    alg = get_algebra("rank1")
    z1 = tube_el(0.1 + 1.2j)
    z2 = tube_el(0.4 + 1.6j)
    rep = check_adjoint_image(alg, 0, 3, 4, z1, z2, 1e-6)
    assert rep["pass"] and rep["residual"] < 1e-10


def test_J_factorization_rank1():
    rep = check_J_factorization(get_algebra("rank1"), 1e-6)
    assert rep["pass"] and rep["residual"] < 1e-6


def test_J_factorization_sym2_quadrature():
    rep = check_J_factorization(get_algebra("sym2"), 1e-4)
    assert rep["pass"] and rep["residual"] < 1e-4
    assert rep["method"] == "quadrature" and "seed" not in rep


def test_partial_isometry_rank1():
    alg = get_algebra("rank1")
    for rep in check_partial_isometry(alg, (0, 1), 3, 3, 1e-6):
        assert rep["pass"], rep
        assert rep["ratio_spread"] < 1e-6
        assert rep["constant_residual"] < 1e-6


def test_partial_isometry_k0_beta_identity():
    # c(lam, mu; 0) = Beta(lam, mu) in rank 1
    alg = get_algebra("rank1")
    [rep] = check_partial_isometry(alg, (0,), 3, 3, 1e-12)
    want = math.gamma(3.0) ** 2 / math.gamma(6.0)
    assert abs(rep["expected_constant"] - want) / want < 1e-12
    assert abs(rep["ratios"][0] - want) / want < 1e-13


def test_bracket_transform_equivalence_rank1():
    from rclab.tube import check_bracket_transform_equivalence

    alg = get_algebra("rank1")
    for k in (0, 1, 2):
        rep = check_bracket_transform_equivalence(alg, k, 3, 4, 1e-6)
        assert rep["pass"] and rep["residual"] < 1e-6, rep


def test_bergman_norm_isometry_rank1():
    from rclab.tube import check_bergman_isometry

    rep = check_bergman_isometry(get_algebra("rank1"), 1e-12)
    assert rep["pass"], rep
    assert rep["ratio_spread"] < 1e-14 and rep["residual"] < 1e-14


def test_bergman_isometry_ratios_match_exact_moments():
    # for f_a(xi) = xi^a e^(-xi) the tube norm is
    # Gamma(a + 1) sqrt(pi) Gamma(a + 1/2) B(nu - 1, 2a + 2 - nu) and
    # ||f_a||^2 = Gamma(2a + 2 - nu) 2^(-(2a + 2 - nu)); both land on exact
    # rules, so each ratio is theirs at rounding
    from rclab.tube import check_bergman_isometry

    rep = check_bergman_isometry(get_algebra("rank1"), 1e-12)
    nu = rep["nu"]
    assert len(rep["ratios"]) == 3
    for a, got in zip((1, 2, 3), rep["ratios"]):
        beta = math.gamma(nu - 1) * math.gamma(2 * a + 2 - nu) / math.gamma(2 * a + 1)
        tube_norm = math.gamma(a + 1) * math.sqrt(math.pi) * math.gamma(a + 0.5) * beta
        norm = math.gamma(2 * a + 2 - nu) * 2.0 ** -(2 * a + 2 - nu)
        assert abs(got - tube_norm / norm) <= 1e-14 * (tube_norm / norm), (a, got)


def _interval_constant(alg, k):
    """2^(-r lam - r mu + n) int C(k)(a)^2 (1 - a)^2 (1 + a)^2 da at
    (lam, mu) = (3, 3), in Fractions, from the moments
    int a^j (1 - a)^2 (1 + a)^2 da = 2/(j+1) - 4/(j+3) + 2/(j+5), j even."""
    from rclab.brackets import compute_C

    poly = compute_C(alg, k, Fraction(2), Fraction(2)).poly
    coef = {int(e): Fraction(int(c), poly.den)
            for e, c in zip(poly.exps[:, 0], poly.coef[:, 0, 0])}

    def moment(j):
        return Fraction(0) if j % 2 else Fraction(2, j + 1) - Fraction(4, j + 3) + Fraction(2, j + 5)

    integral = sum(a * b * moment(i + j) for i, a in coef.items() for j, b in coef.items())
    return Fraction(1, 2 ** (3 + 3 - 1)) * integral


def test_partial_isometry_constants_match_exact_moments():
    alg = get_algebra("rank1")
    reps = check_partial_isometry(alg, (0, 1, 2), 3, 3, 1e-6)
    assert [rep["k"] for rep in reps] == [0, 1, 2]
    for rep in reps:
        want = float(_interval_constant(alg, rep["k"]))
        assert abs(rep["expected_constant"] - want) <= 1e-15 * want, (rep, want)


def test_partial_isometry_ratios_match_exact_moments():
    # each ||Phi h_m||^2 / ||h_m||^2 lands on an exact Laguerre rule, so
    # every ratio is the interval constant at rounding
    alg = get_algebra("rank1")
    reps = check_partial_isometry(alg, (0, 1, 2), 3, 3, 1e-12)
    for rep in reps:
        want = float(_interval_constant(alg, rep["k"]))
        assert len(rep["ratios"]) == 3
        for got in rep["ratios"]:
            assert abs(got - want) <= 1e-14 * want, (rep["k"], got, want)


def test_partial_isometry_leaves_under_1_mb_held():
    # the suite's tensor rules have at most 4 x 4 nodes; what it keeps, its
    # cached Gauss rules, c(k) and C(k), stays far under 1 MB
    import tracemalloc
    from rclab.cli import run_suites

    alg = get_algebra("rank1")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports, ok = run_suites(alg, "partial-isometry")
        assert ok and len(reports) == 3
        del reports
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1e6, held


def _warm_peak_bytes(fn):
    """The peak of the memory that tracemalloc sees during a second call of
    fn(), after a first one built the rules, c(k) and C(k) it caches."""
    import tracemalloc

    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partial_isometry_peak_memory():
    # one (k + 2) x (k + 2) Laguerre tensor rule per k, about 12 kB at peak
    alg = get_algebra("rank1")
    peak = _warm_peak_bytes(lambda: check_partial_isometry(alg, (0, 1, 2), 3, 3, 1e-6))
    assert peak <= 2.0e6, peak


def test_bergman_isometry_peak_memory():
    # one 4 x 4 tensor rule and a 4-node Laguerre rule, about 7 kB at peak
    from rclab.tube import check_bergman_isometry

    alg = get_algebra("rank1")
    peak = _warm_peak_bytes(lambda: check_bergman_isometry(alg, 1e-12))
    assert peak <= 1e5, peak


def test_partial_isometry_scale_invariance():
    # the ratio is h-independent: the three h_m, of different powers of
    # s, give one ratio
    [rep] = check_partial_isometry(get_algebra("rank1"), (1,), 3, 3, 1e-6)
    assert rep["ratio_spread"] < 1e-6
