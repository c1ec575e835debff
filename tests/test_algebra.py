"""Exact and numeric behavior of the Jordan algebra layer."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fraction_ref import (
    apply, cone_point, det, mul, quad_rep, quadratic_map, rational_point, table,
    trace,
)
from rclab.cli import _fd_jacobian
from rclab.algebra import (
    ALGEBRA_NAMES, get_algebra, spectral, cone_sqrt, inverse, quad_rep as float_quad_rep,
    iota, iota_inv, iota_jacobian, random_chart_points, AlgebraError, NotInCone,
)

ALGEBRAS = ["rank1", "sym2", "sym3", "spin4", "spin5"]


@pytest.fixture(params=ALGEBRAS)
def algebra(request):
    return get_algebra(request.param)


@pytest.mark.parametrize("name", ["sym1", "spin9"])
def test_get_algebra_builds_only_the_ten_names(name):
    # sym1 was built, yet no suite runs for it: run_suites returned no
    # report and a pass
    with pytest.raises(AlgebraError):
        get_algebra(name)


def test_descriptor_dimension_relation(algebra):
    r, d = algebra.r, algebra.d
    assert algebra.n == r + r * (r - 1) * d // 2


def test_identity_trace_det(algebra):
    e = algebra.e_coords
    assert trace(algebra, e) == algebra.r
    assert det(algebra, e) == 1


def test_product_table_commutative(algebra):
    rng = random.Random(0)
    for _ in range(10):
        x = rational_point(rng, algebra)
        y = rational_point(rng, algebra)
        assert mul(algebra, x, y) == mul(algebra, y, x)


def test_jordan_identity_exact(algebra):
    # x.(x^2.y) = x^2.(x.y) on random exact rationals
    rng = random.Random(1)
    n_samples = 100 if algebra.family == "spin" else 25
    for _ in range(n_samples):
        x = rational_point(rng, algebra)
        y = rational_point(rng, algebra)
        x2 = mul(algebra, x, x)
        assert mul(algebra, x, mul(algebra, x2, y)) == mul(algebra, x2, mul(algebra, x, y))


def test_trace_form_positive_definite(algebra):
    rng = random.Random(2)
    for _ in range(20):
        x = rational_point(rng, algebra)
        if any(c != 0 for c in x):
            assert trace(algebra, mul(algebra, x, x)) > 0


def test_sym2_identity_acts_trivially():
    alg = get_algebra("sym2")
    rng = random.Random(3)
    x = rational_point(rng, alg)
    assert mul(alg, alg.e_coords, x) == x


def test_sym2_diagonal_product():
    alg = get_algebra("sym2")
    assert mul(alg, (1, 2, 0), (3, 4, 0)) == (3, 8, 0)


def test_spin_product_formula():
    alg = get_algebra("spin4")
    x = (2, 1, 0, -1)
    y = (3, 0, 2, 1)
    # (x0 y0 + <xb, yb>, x0 yb + y0 xb)
    expected = (2 * 3 + (0 + 0 - 1), 2 * 0 + 3 * 1, 2 * 2 + 0, 2 * 1 - 3)
    assert mul(alg, x, y) == expected


def test_det_trace_examples():
    alg = get_algebra("sym2")
    x = (2, 3, 0)
    assert det(alg, x) == 6 and trace(alg, x) == 5
    sp = get_algebra("spin5")
    y = (3, 1, 2, 0, 1)
    assert det(sp, y) == 9 - (1 + 4 + 0 + 1)
    assert trace(sp, y) == 6
    r1 = get_algebra("rank1")
    assert det(r1, (7,)) == 7 == trace(r1, (7,))


def test_quad_rep_identity_element(algebra):
    rng = random.Random(4)
    y = rational_point(rng, algebra)
    assert quad_rep(algebra, algebra.e_coords, y) == y


def test_quad_rep_det_identity_exact(algebra):
    rng = random.Random(5)
    for _ in range(10):
        x = rational_point(rng, algebra)
        y = rational_point(rng, algebra)
        assert det(algebra, quad_rep(algebra, x, y)) == det(algebra, x) ** 2 * det(algebra, y)


def rows(*points):
    return np.array(points, dtype=float)


def jordan_products(algebra, X, Y):
    """The rows x.y = sum_ij x_i y_j (b_i.b_j), by the Fraction reference's
    product table taken to floats."""
    return np.einsum("bi,bj,ijk->bk", X, Y, np.array(table(algebra), dtype=float))


def test_spectral_reconstruction(algebra):
    # the eigenvalues give back tr x and det x, and each is a root of
    # det(x - lam e)
    rng = random.Random(6)
    xs = [rational_point(rng, algebra) for _ in range(5)]
    lams = spectral(algebra, rows(*xs))
    assert lams.shape == (5, algebra.r)
    assert np.all(np.diff(lams, axis=1) >= 0)
    for x, lam in zip(xs, lams):
        scale = max(1.0, *np.abs(lam))
        assert abs(sum(lam) - trace(algebra, x)) < 1e-12 * scale
        assert abs(np.prod(lam) - det(algebra, x)) < 1e-12 * scale ** algebra.r
        shifted = algebra.det_poly.numeric(rows(x) - lam[:, None] * algebra.e)
        assert np.all(np.abs(shifted) < 1e-11 * scale ** algebra.r)


def test_spectral_identity_eigenvalues(algebra):
    lams = spectral(algebra, algebra.e[None])
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
    e = algebra.e
    assert np.max(np.abs(cone_sqrt(algebra, e[None]) - e)) < 1e-14


def test_sqrt_roundtrip(algebra):
    rng = random.Random(7)
    Z = rows(*(cone_point(rng, algebra) for _ in range(10)))
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
        Z = rows(*(cone_point(rng, alg) for _ in range(10)))

        def matrix(c):
            m = np.zeros((alg.r, alg.r))
            for (i, j), x in zip(_sym_pairs(alg.r), c):
                m[i, j] = m[j, i] = x
            return m

        for z, s in zip(Z, cone_sqrt(alg, Z)):
            lam, vec = np.linalg.eigh(matrix(z))
            want = vec @ np.diag(np.sqrt(lam)) @ vec.T
            assert np.max(np.abs(matrix(s) - want)) < 1e-12, name


def test_rank1_sqrt_inverse():
    alg = get_algebra("rank1")
    assert abs(cone_sqrt(alg, rows((4.0,)))[0, 0] - 2.0) < 1e-14
    assert inverse(alg, rows((4.0,)))[0, 0] == 0.25


def test_inverse_exact(algebra):
    # at exact rational cone points x, and at the complex tube points x + i y
    # of two of them, x.x^{-1} = e up to rounding
    rng = random.Random(8)
    X = rows(*(cone_point(rng, algebra) for _ in range(6)))
    for P in (X, X[:3] + 1j * X[3:]):
        for got in jordan_products(algebra, P, inverse(algebra, P)):
            assert np.max(np.abs(got - algebra.e)) < 1e-12


def test_sqrt_not_in_cone():
    alg = get_algebra("sym2")
    with pytest.raises(NotInCone):
        cone_sqrt(alg, rows((-1.0, 1.0, 0.0)))
    # one bad row among good ones is enough
    with pytest.raises(NotInCone):
        cone_sqrt(alg, rows((1.0, 1.0, 0.0), (1.0, 1.0, 1.0)))


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_quad_rep_matches_the_fraction_reference(name):
    # P(a)b in each family's closed form, on float rows row by row, one a
    # against every b and every a against one b, against the Fraction
    # 2 a.(a.b) - (a.a).b
    alg = get_algebra(name)
    rng = random.Random(16)
    xs = [rational_point(rng, alg) for _ in range(4)]
    ys = [rational_point(rng, alg) for _ in range(4)]
    A, B = rows(*xs), rows(*ys)

    def close(got, pairs):
        want = rows(*(quad_rep(alg, x, y) for x, y in pairs))
        return got.shape == want.shape and np.allclose(got, want, rtol=1e-13, atol=1e-12)

    assert close(float_quad_rep(alg, A, B), zip(xs, ys))
    assert close(float_quad_rep(alg, A[0], B), ((xs[0], y) for y in ys))
    assert close(float_quad_rep(alg, A, B[0]), ((x, ys[0]) for x in xs))


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_quad_rep_on_complex_rows(name):
    # the closed forms hold over C: P(a)b = 2 a.(a.b) - (a.a).b on complex
    # rows, with the float product table
    alg = get_algebra(name)
    rng = np.random.default_rng(17)
    A, B = (rng.normal(size=(5, alg.n)) + 1j * rng.normal(size=(5, alg.n)) for _ in "ab")
    want = (2 * jordan_products(alg, A, jordan_products(alg, A, B))
            - jordan_products(alg, jordan_products(alg, A, A), B))
    assert np.allclose(float_quad_rep(alg, A, B), want, rtol=1e-13, atol=1e-13)


def test_cone_membership_examples(algebra):
    e = algebra.e
    assert np.all(spectral(algebra, e[None]) > 0)
    assert np.all(np.abs(spectral(algebra, 0.5 * e[None])) < 1)
    assert not np.all(np.abs(spectral(algebra, 2 * e[None])) < 1)
    iota(algebra, e[None], 0.5 * e[None])
    with pytest.raises(AlgebraError):
        iota(algebra, e[None], 2 * e[None])


def test_in_interval_sym2_example():
    alg = get_algebra("sym2")
    v = rows((0.5, -0.9, 0.0))
    assert np.all(np.abs(spectral(alg, v)) < 1)
    iota(alg, alg.e[None], v)


def test_iota_rank1_examples():
    alg = get_algebra("rank1")
    x, y = iota(alg, rows((2.0,)), rows((0.0,)))
    assert abs(x[0, 0] - 1.0) < 1e-14 and abs(y[0, 0] - 1.0) < 1e-14


def test_iota_zero_v_splits_evenly(algebra):
    rng = random.Random(9)
    z = rows(cone_point(rng, algebra))
    x, y = iota(algebra, z, np.zeros_like(z))
    assert np.max(np.abs(x - z / 2)) < 1e-13 and np.max(np.abs(y - z / 2)) < 1e-13


def test_iota_sym2_example():
    alg = get_algebra("sym2")
    z = rows((1.0, 4.0, 0.0))
    v = 0.3 * alg.e[None]
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
        x, y = iota(algebra, Z[i][None], V[i][None])
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
    assert abs(iota_jacobian(s2, s2.e[None])[0] - 0.125) < 1e-15
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


def character(alg, matrix, samples=5):
    """chi(ell) = det(ell e) of the linear map ell with coordinate matrix
    ``matrix``, once det(ell x) = chi(ell) det(x) holds on random rational
    samples and Det(ell) = chi(ell)^(n/r)."""
    rng = random.Random(7)
    c = det(alg, apply(matrix, alg.e_coords))
    for _ in range(samples):
        x = rational_point(rng, alg)
        assert det(alg, apply(matrix, x)) == c * det(alg, x), f"{matrix}: not in the structure group"
    expected = float(c) ** (alg.n / alg.r)
    assert abs(float(linear_det(matrix)) - expected) <= 1e-8 * max(1.0, abs(expected))
    return c


def test_chi_examples():
    alg = get_algebra("sym2")
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert character(alg, identity) == 1
    matrix, chi = quadratic_map(alg, (2, 3, 0))
    assert character(alg, matrix) == 36 == chi
    assert linear_det(matrix) == 216  # 36^{3/2}
    twice = [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]
    assert character(alg, twice) == 4  # c^r


def test_chi_rejects_non_structure_map():
    alg = get_algebra("sym2")
    with pytest.raises(AssertionError):
        character(alg, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_structure_map_composition():
    alg = get_algebra("sym2")
    rng = random.Random(12)
    a = cone_point(rng, alg)
    b = cone_point(rng, alg)
    (pa, _), (pb, _) = quadratic_map(alg, a), quadratic_map(alg, b)
    comp = [[sum(pa[i][m] * pb[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    assert character(alg, comp) == det(alg, a) ** 2 * det(alg, b) ** 2


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_chart_points_are_in_the_cone_and_the_interval(name):
    # z = u^2 + e has least eigenvalue >= 1 (up to rounding) and v = a (2w -
    # tr(w) e) / tr(w) eigenvalues of absolute value <= a < 0.9; equal seeds
    # give equal bytes
    alg = get_algebra(name)
    Z, V = random_chart_points(random.Random(14), alg, 50)
    assert Z.shape == V.shape == (50, alg.n)
    assert spectral(alg, Z).min() >= 1 - 1e-12
    assert np.abs(spectral(alg, V)).max() <= 0.9
    again = random_chart_points(random.Random(14), alg, 50)
    assert Z.tobytes() == again[0].tobytes() and V.tobytes() == again[1].tobytes()
