"""Exact and numeric behavior of the Jordan algebra layer."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rclab.cli import _fd_jacobian
from rclab.algebra import (
    ALGEBRA_NAMES, get_algebra, StructureMap,
    jordan_mul, trace, det, quad_rep, spectral, cone_sqrt, quad_rep_matrices,
    iota, iota_inv, iota_jacobian,
    random_rational_element, random_cone_point, random_interval_point,
    random_chart_points, AlgebraError, AlgebraMismatch, NotInCone,
)

ALGEBRAS = ["rank1", "sym2", "sym3", "spin4", "spin5"]


def exact(alg, coords):
    return alg.element(tuple(Fraction(c) for c in coords))


@pytest.fixture(params=ALGEBRAS)
def algebra(request):
    return get_algebra(request.param)


def test_element_takes_exact_coordinates_only():
    # a float or complex point is a numpy row; an Element stays rational
    alg = get_algebra("sym2")
    for coords in ((0.5, 1.0, 0.0), (1j, 1, 0), (Fraction(1), np.float64(1.0), 0)):
        with pytest.raises(AlgebraError):
            alg.element(coords)
    x = alg.element((Fraction(1, 2), 1, 0))
    assert det(x) == Fraction(1, 2)
    assert jordan_mul(x, x) == alg.element((Fraction(1, 4), Fraction(1), Fraction(0)))
    assert (x + x) / 2 == x and x.as_array().tolist() == [0.5, 1.0, 0.0]


def test_descriptor_dimension_relation(algebra):
    r, d = algebra.r, algebra.d
    assert algebra.n == r + r * (r - 1) * d // 2


def test_identity_trace_det(algebra):
    e = algebra.identity
    assert trace(e) == algebra.r
    assert det(e) == 1


def test_product_table_commutative(algebra):
    rng = random.Random(0)
    for _ in range(10):
        x = random_rational_element(rng, algebra)
        y = random_rational_element(rng, algebra)
        assert jordan_mul(x, y) == jordan_mul(y, x)


def test_jordan_identity_exact(algebra):
    # x.(x^2.y) = x^2.(x.y) on random exact rationals
    rng = random.Random(1)
    n_samples = 100 if algebra.family == "spin" else 25
    for _ in range(n_samples):
        x = random_rational_element(rng, algebra)
        y = random_rational_element(rng, algebra)
        x2 = jordan_mul(x, x)
        assert jordan_mul(x, jordan_mul(x2, y)) == jordan_mul(x2, jordan_mul(x, y))


def test_trace_form_positive_definite(algebra):
    rng = random.Random(2)
    for _ in range(20):
        x = random_rational_element(rng, algebra)
        if any(c != 0 for c in x.coords):
            assert trace(jordan_mul(x, x)) > 0


def test_sym2_identity_acts_trivially():
    alg = get_algebra("sym2")
    rng = random.Random(3)
    x = random_rational_element(rng, alg)
    assert jordan_mul(alg.identity, x) == x


def test_sym2_diagonal_product():
    alg = get_algebra("sym2")
    a = exact(alg, [1, 2, 0])
    b = exact(alg, [3, 4, 0])
    assert jordan_mul(a, b) == exact(alg, [3, 8, 0])


def test_spin_product_formula():
    alg = get_algebra("spin4")
    x = exact(alg, [2, 1, 0, -1])
    y = exact(alg, [3, 0, 2, 1])
    # (x0 y0 + <xb, yb>, x0 yb + y0 xb)
    expected = exact(alg, [2 * 3 + (0 + 0 - 1), 2 * 0 + 3 * 1,
                                   2 * 2 + 0, 2 * 1 - 3])
    assert jordan_mul(x, y) == expected


def test_det_trace_examples():
    alg = get_algebra("sym2")
    x = exact(alg, [2, 3, 0])
    assert det(x) == 6 and trace(x) == 5
    sp = get_algebra("spin5")
    y = exact(sp, [3, 1, 2, 0, 1])
    assert det(y) == 9 - (1 + 4 + 0 + 1)
    assert trace(y) == 6
    r1 = get_algebra("rank1")
    assert det(exact(r1, [7])) == 7 == trace(exact(r1, [7]))


def test_quad_rep_identity_element(algebra):
    rng = random.Random(4)
    y = random_rational_element(rng, algebra)
    assert quad_rep(algebra.identity, y) == y


def test_quad_rep_det_identity_exact(algebra):
    rng = random.Random(5)
    for _ in range(10):
        x = random_rational_element(rng, algebra)
        y = random_rational_element(rng, algebra)
        assert det(quad_rep(x, y)) == det(x) ** 2 * det(y)


def rows(*points):
    return np.array(points, dtype=float)


def jordan_products(algebra, X, Y):
    """The rows x.y = sum_ij x_i y_j (b_i.b_j), by the float product table."""
    return np.einsum("bi,bj,ijk->bk", X, Y, algebra._mult_tensor)


def test_spectral_reconstruction(algebra):
    # the eigenvalues give back tr x and det x, and each is a root of
    # det(x - lam e)
    rng = random.Random(6)
    xs = [random_rational_element(rng, algebra) for _ in range(5)]
    lams = spectral(algebra, np.array([x.as_array() for x in xs]))
    assert lams.shape == (5, algebra.r)
    assert np.all(np.diff(lams, axis=1) >= 0)
    e = np.array(algebra.e_coords, dtype=float)
    for x, lam in zip(xs, lams):
        scale = max(1.0, *np.abs(lam))
        assert abs(sum(lam) - trace(x)) < 1e-12 * scale
        assert abs(np.prod(lam) - det(x)) < 1e-12 * scale ** algebra.r
        shifted = algebra.det_poly.numeric(x.as_array() - lam[:, None] * e)
        assert np.all(np.abs(shifted) < 1e-11 * scale ** algebra.r)


def test_spectral_identity_eigenvalues(algebra):
    lams = spectral(algebra, algebra.identity.as_array())
    assert np.all(np.abs(lams - 1) < 1e-14)


def test_spin_eigenvalue_formula():
    alg = get_algebra("spin4")
    lams = spectral(alg, rows((2.0, 0.6, 0.0, 0.8)))[0]
    assert abs(lams[0] - 1.0) < 1e-14 and abs(lams[1] - 3.0) < 1e-14


def test_rank2_spectral_keeps_a_small_gap():
    # eigenvalues 1 -+ g with g near 1e-9: det = 1 - g^2 rounds to 1, so
    # tr^2 - 4 det loses the gap, while the traceless part keeps it exactly
    g = 2.0 ** -29
    for name, x in (("sym2", (1.0 + g, 1.0 - g, 0.0)),
                    ("spin5", (1.0, 0.6 * g, 0.0, 0.8 * g, 0.0))):
        lams = spectral(get_algebra(name), rows(x))[0]
        assert lams.tolist() == [1.0 - g, 1.0 + g], name


def test_sqrt_examples(algebra):
    e = algebra.identity.as_array()
    assert np.max(np.abs(cone_sqrt(algebra, e) - e)) < 1e-14


def test_sqrt_roundtrip(algebra):
    rng = random.Random(7)
    Z = np.array([random_cone_point(rng, algebra).as_array() for _ in range(10)])
    S = cone_sqrt(algebra, Z)
    for s2, z in zip(jordan_products(algebra, S, S), Z):
        assert np.max(np.abs(s2 - z)) < 1e-12
    assert np.all(spectral(algebra, S) > 0)


def test_sym_sqrt_matches_the_matrix_square_root():
    # the rank-2 closed form and the eigh route give the symmetric matrix
    # square root
    from rclab.algebra import _sym_pairs

    for name in ("sym2", "sym3"):
        alg = get_algebra(name)
        rng = random.Random(15)
        Z = np.array([random_cone_point(rng, alg).as_array() for _ in range(10)])

        def matrix(c):
            m = np.zeros((alg.r, alg.r))
            for (i, j), x in zip(_sym_pairs(alg.r), c):
                m[i, j] = m[j, i] = x
            return m

        for z, s in zip(Z, cone_sqrt(alg, Z)):
            lam, vec = np.linalg.eigh(matrix(z))
            want = vec @ np.diag(np.sqrt(lam)) @ vec.T
            assert np.max(np.abs(matrix(s) - want)) < 1e-12, name


def inverses(algebra, X):
    """x^{-1} = P(x)^{-1} x, through the tube's inversion z -> -z^{-1}."""
    from rclab.tube import GroupGenerator

    return -GroupGenerator(algebra, "inversion").apply(X).real


def test_rank1_sqrt_inverse():
    alg = get_algebra("rank1")
    assert abs(cone_sqrt(alg, rows((4.0,)))[0, 0] - 2.0) < 1e-14
    assert inverses(alg, rows((4.0,)))[0, 0] == 0.25


def test_inverse_exact(algebra):
    # at exact rational cone points, x.x^{-1} = e up to rounding
    rng = random.Random(8)
    points = [random_cone_point(rng, algebra) for _ in range(5)]
    X = np.array([x.as_array() for x in points])
    for got in jordan_products(algebra, X, inverses(algebra, X)):
        assert np.max(np.abs(got - algebra.identity.as_array())) < 1e-12


def test_sqrt_not_in_cone():
    alg = get_algebra("sym2")
    with pytest.raises(NotInCone):
        cone_sqrt(alg, rows((-1.0, 1.0, 0.0)))
    # one bad row among good ones is enough
    with pytest.raises(NotInCone):
        cone_sqrt(alg, rows((1.0, 1.0, 0.0), (1.0, 1.0, 1.0)))


def test_quad_rep_matrices_apply_P(algebra):
    rng = random.Random(16)
    xs = [random_rational_element(rng, algebra) for _ in range(4)]
    ys = [random_rational_element(rng, algebra) for _ in range(4)]
    X = np.array([x.as_array() for x in xs])
    Y = np.array([y.as_array() for y in ys])
    got = np.einsum("bij,bj->bi", quad_rep_matrices(algebra, X), Y)
    for g, x, y in zip(got, xs, ys):
        assert np.max(np.abs(g - quad_rep(x, y).as_array())) < 1e-12


def test_cone_membership_examples(algebra):
    e = algebra.identity.as_array()
    assert np.all(spectral(algebra, e) > 0)
    assert np.all(np.abs(spectral(algebra, 0.5 * e)) < 1)
    assert not np.all(np.abs(spectral(algebra, 2 * e)) < 1)
    iota(algebra, e, 0.5 * e)
    with pytest.raises(AlgebraError):
        iota(algebra, e, 2 * e)


def test_in_interval_sym2_example():
    alg = get_algebra("sym2")
    v = rows((0.5, -0.9, 0.0))
    assert np.all(np.abs(spectral(alg, v)) < 1)
    iota(alg, alg.identity.as_array(), v)


def test_iota_rank1_examples():
    alg = get_algebra("rank1")
    x, y = iota(alg, rows((2.0,)), rows((0.0,)))
    assert abs(x[0, 0] - 1.0) < 1e-14 and abs(y[0, 0] - 1.0) < 1e-14


def test_iota_zero_v_splits_evenly(algebra):
    rng = random.Random(9)
    z = random_cone_point(rng, algebra).as_array()[None]
    x, y = iota(algebra, z, np.zeros_like(z))
    assert np.max(np.abs(x - z / 2)) < 1e-13 and np.max(np.abs(y - z / 2)) < 1e-13


def test_iota_sym2_example():
    alg = get_algebra("sym2")
    z = rows((1.0, 4.0, 0.0))
    v = 0.3 * alg.identity.as_array()[None]
    x, y = iota(alg, z, v)
    np.testing.assert_allclose(x[0], [0.35, 1.4, 0.0], atol=1e-12)
    np.testing.assert_allclose(y[0], [0.65, 2.6, 0.0], atol=1e-12)
    z2, v2 = iota_inv(alg, x, y)
    np.testing.assert_allclose(z2, z, atol=1e-12)


def test_iota_roundtrip_invariant(algebra):
    Z, V = random_chart_points(random.Random(10), algebra, 100)
    X, Y = iota(algebra, Z, V)
    Z2, V2 = iota_inv(algebra, X, Y)
    assert np.max(np.abs(np.hstack([Z2 - Z, V2 - V]))) < 1e-12
    assert np.all(spectral(algebra, X) > 0) and np.all(spectral(algebra, Y) > 0)


def test_iota_batch_matches_one_row_at_a_time(algebra):
    Z, V = random_chart_points(random.Random(13), algebra, 6)
    X, Y = iota(algebra, Z, V)
    for i in range(6):
        x, y = iota(algebra, Z[i], V[i])
        assert np.max(np.abs(x[0] - X[i])) < 1e-14 * max(1.0, np.abs(X[i]).max())
        assert np.max(np.abs(y[0] - Y[i])) < 1e-14 * max(1.0, np.abs(Y[i]).max())


def test_iota_domain_errors():
    alg = get_algebra("sym2")
    zero = np.zeros((1, 3))
    with pytest.raises(NotInCone):
        iota(alg, rows((-1.0, 1.0, 0.0)), zero)
    with pytest.raises(AlgebraError):
        iota(alg, rows((1.0, 1.0, 0.0)), rows((0.5, 1.0, 0.0)))
    with pytest.raises(NotInCone):
        iota_inv(alg, rows((-1.0, 0.0, 0.0)), rows((0.5, 1.0, 0.0)))


def test_jacobian_closed_form_examples():
    r1 = get_algebra("rank1")
    z, v = rows((2.0,)), rows((0.1,))
    assert abs(iota_jacobian(r1, z)[0] - 1.0) < 1e-14
    assert abs(_fd_jacobian(r1, z, v)[0] - 1.0) < 1e-6
    s2 = get_algebra("sym2")
    assert abs(iota_jacobian(s2, s2.identity.as_array()[None])[0] - 0.125) < 1e-15
    assert abs(iota_jacobian(s2, rows((1.0, 4.0, 0.0)))[0] - 1.0) < 1e-13


@pytest.mark.parametrize("name", ["rank1", "sym2", "spin4"])
def test_jacobian_matches_finite_differences(name):
    algebra = get_algebra(name)
    Z, V = random_chart_points(random.Random(11), algebra, 20)
    fd = _fd_jacobian(algebra, Z, V)
    an = iota_jacobian(algebra, Z)
    assert np.all(np.abs(fd - an) / np.abs(an) < 1e-6)


def linear_det(rows):
    """Determinant of a square matrix, by the Leibniz formula."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def character(ell, samples=5):
    """chi(ell) = det(ell e), once det(ell x) = chi(ell) det(x) holds on
    random rational samples and Det(ell) = chi(ell)^(n/r)."""
    alg = ell.algebra
    rng = random.Random(7)
    c = det(ell(alg.identity))
    for _ in range(samples):
        x = random_rational_element(rng, alg)
        assert det(ell(x)) == c * det(x), f"{ell.matrix}: not in the structure group"
    expected = float(c) ** (alg.n / alg.r)
    assert abs(float(linear_det(ell.matrix)) - expected) <= 1e-8 * max(1.0, abs(expected))
    return c


def test_chi_examples():
    alg = get_algebra("sym2")
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert character(StructureMap(alg, identity, Fraction(1))) == 1
    a = exact(alg, [2, 3, 0])
    ell = StructureMap.quadratic(a)
    assert character(ell) == 36 == ell.chi_value
    assert linear_det(ell.matrix) == 216  # 36^{3/2}
    twice = [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]
    assert character(StructureMap(alg, twice, Fraction(4))) == 4  # c^r


def test_chi_rejects_non_structure_map():
    alg = get_algebra("sym2")
    bad = StructureMap(alg, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 1)
    with pytest.raises(AssertionError):
        character(bad)


def test_structure_map_composition():
    alg = get_algebra("sym2")
    rng = random.Random(12)
    a = random_cone_point(rng, alg)
    b = random_cone_point(rng, alg)
    pa, pb = StructureMap.quadratic(a), StructureMap.quadratic(b)
    rows = [[sum(pa.matrix[i][m] * pb.matrix[m][j] for m in range(3)) for j in range(3)]
            for i in range(3)]
    comp = StructureMap(alg, rows, pa.chi_value * pb.chi_value)
    assert character(comp) == det(a) ** 2 * det(b) ** 2


def fraction_element(rng, alg, num_bound=6, den_bound=4):
    """The Fraction reference of the exact samplers' rational draws."""
    return alg.element([Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
                        for _ in range(alg.n)])


def fraction_cone_point(rng, alg):
    u = fraction_element(rng, alg, 3, 3)
    return jordan_mul(u, u) + alg.identity


def fraction_interval_point(rng, alg):
    w = fraction_cone_point(rng, alg)
    t = trace(w)
    alpha = Fraction(rng.randint(1, 9), 10) * 2 / t
    return (alpha * (w - (t / 2) * alg.identity)).as_array()


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_integer_samplers_match_the_fraction_reference(name):
    # random_cone_point and StructureMap run over the integers; the
    # reference is the Fraction arithmetic, from the same rng state
    alg = get_algebra(name)
    rng, ref = random.Random(31), random.Random(31)
    for _ in range(10):
        a = random_cone_point(rng, alg)
        assert a == fraction_cone_point(ref, alg)
        ell = StructureMap.quadratic(a)
        x = random_rational_element(rng, alg)
        assert x == fraction_element(ref, alg)
        want = [sum(ell.matrix[i][j] * x.coords[j] for j in range(alg.n))
                for i in range(alg.n)]
        assert list(ell(x).coords) == want
    assert rng.random() == ref.random()


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_float_samplers_keep_the_bits_of_the_fraction_reference(name):
    # random_interval_point and random_chart_points divide integers once;
    # int / int rounds correctly, as float(Fraction) does, so every bit and
    # the rng state match the Fraction draws
    alg = get_algebra(name)
    rng, ref = random.Random(37), random.Random(37)
    def same_bits(got, want):
        want = np.array(want)
        return (got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes())

    for _ in range(5):
        assert same_bits(random_interval_point(rng, alg), fraction_interval_point(ref, alg))
    Z, V = random_chart_points(rng, alg, 12)
    pairs = [(fraction_cone_point(ref, alg).as_array(), fraction_interval_point(ref, alg))
             for _ in range(12)]
    assert same_bits(Z, [z for z, _ in pairs]) and same_bits(V, [v for _, v in pairs])
    assert rng.getstate() == ref.getstate()


def test_algebra_mismatch_raises():
    with pytest.raises(AlgebraMismatch):
        jordan_mul(get_algebra("sym2").identity, get_algebra("spin4").identity)


def test_random_interval_points_are_in_interval(algebra):
    rng = random.Random(14)
    for _ in range(20):
        v = random_interval_point(rng, algebra)
        assert np.all(np.abs(spectral(algebra, v)) < 1)
