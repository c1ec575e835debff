"""Exact and numeric behavior of the Jordan algebra layer."""

import random
from fractions import Fraction

import numpy as np
import pytest

from rclab.cli import _fd_jacobian
from rclab.algebra import (
    get_algebra, StructureMap,
    jordan_mul, trace, det, inner, quad_rep, spectral, sqrt_in_cone, inverse,
    in_cone, in_interval, iota, iota_inv, jacobian_iota, chi,
    random_rational_element, random_cone_point, random_interval_point,
    AlgebraMismatch, NotInCone, Singular,
)

ALGEBRAS = ["rank1", "sym2", "sym3", "spin4", "spin5"]


@pytest.fixture(params=ALGEBRAS)
def algebra(request):
    return get_algebra(request.param)


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
            assert inner(x, x) > 0


def test_sym2_identity_acts_trivially():
    alg = get_algebra("sym2")
    rng = random.Random(3)
    x = random_rational_element(rng, alg)
    assert jordan_mul(alg.identity, x) == x


def test_sym2_diagonal_product():
    alg = get_algebra("sym2")
    a = alg.from_fractions([1, 2, 0])
    b = alg.from_fractions([3, 4, 0])
    assert jordan_mul(a, b) == alg.from_fractions([3, 8, 0])


def test_spin_product_formula():
    alg = get_algebra("spin4")
    x = alg.from_fractions([2, 1, 0, -1])
    y = alg.from_fractions([3, 0, 2, 1])
    # (x0 y0 + <xb, yb>, x0 yb + y0 xb)
    expected = alg.from_fractions([2 * 3 + (0 + 0 - 1), 2 * 0 + 3 * 1,
                                   2 * 2 + 0, 2 * 1 - 3])
    assert jordan_mul(x, y) == expected


def test_det_trace_examples():
    alg = get_algebra("sym2")
    x = alg.from_fractions([2, 3, 0])
    assert det(x) == 6 and trace(x) == 5
    sp = get_algebra("spin5")
    y = sp.from_fractions([3, 1, 2, 0, 1])
    assert det(y) == 9 - (1 + 4 + 0 + 1)
    assert trace(y) == 6
    r1 = get_algebra("rank1")
    assert det(r1.from_fractions([7])) == 7 == trace(r1.from_fractions([7]))


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


def test_spectral_reconstruction(algebra):
    rng = random.Random(6)
    for _ in range(5):
        x = random_rational_element(rng, algebra).as_float()
        lams, frame = spectral(x)
        rec = algebra.zero().as_float()
        for lam, c in zip(lams, frame):
            rec = rec + lam * c
            # frame idempotency
            cc = jordan_mul(c, c)
            assert max(abs(a - b) for a, b in zip(cc.coords, c.coords)) < 1e-10
        assert max(abs(a - b) for a, b in zip(rec.coords, x.coords)) < 1e-12


def test_spectral_identity_eigenvalues(algebra):
    lams, _ = spectral(algebra.identity.as_float())
    assert all(abs(l - 1) < 1e-14 for l in lams)


def test_spin_eigenvalue_formula():
    alg = get_algebra("spin4")
    x = alg.element((2.0, 0.6, 0.0, 0.8))
    lams, _ = spectral(x)
    assert abs(lams[0] - 1.0) < 1e-14 and abs(lams[1] - 3.0) < 1e-14


def test_sqrt_examples(algebra):
    e = algebra.identity.as_float()
    s = sqrt_in_cone(e)
    assert max(abs(a - b) for a, b in zip(s.coords, e.coords)) < 1e-14


def test_sqrt_roundtrip(algebra):
    rng = random.Random(7)
    for _ in range(10):
        z = random_cone_point(rng, algebra).as_float()
        s = sqrt_in_cone(z)
        s2 = jordan_mul(s, s)
        assert max(abs(a - b) for a, b in zip(s2.coords, z.coords)) < 1e-12
        assert in_cone(s)


def test_rank1_sqrt_inverse():
    alg = get_algebra("rank1")
    assert abs(sqrt_in_cone(alg.element((4.0,))).coords[0] - 2.0) < 1e-14
    assert inverse(alg.from_fractions([4])).coords[0] == Fraction(1, 4)


def test_inverse_exact(algebra):
    rng = random.Random(8)
    for _ in range(5):
        x = random_cone_point(rng, algebra)
        xi = inverse(x)
        assert jordan_mul(x, xi) == algebra.identity


def test_inverse_singular():
    alg = get_algebra("sym2")
    with pytest.raises(Singular):
        inverse(alg.from_fractions([1, 0, 0]))


def test_sqrt_not_in_cone():
    alg = get_algebra("sym2")
    with pytest.raises(NotInCone):
        sqrt_in_cone(alg.element((-1.0, 1.0, 0.0)))


def test_cone_membership_examples(algebra):
    e = algebra.identity.as_float()
    assert in_cone(e) and in_interval(0.5 * e)
    assert not in_interval(2 * e)


def test_in_interval_sym2_example():
    alg = get_algebra("sym2")
    assert in_interval(alg.element((0.5, -0.9, 0.0)))


def test_iota_rank1_examples():
    alg = get_algebra("rank1")
    x, y = iota(alg.element((2.0,)), alg.element((0.0,)))
    assert abs(x.coords[0] - 1.0) < 1e-14 and abs(y.coords[0] - 1.0) < 1e-14


def test_iota_zero_v_splits_evenly(algebra):
    rng = random.Random(9)
    z = random_cone_point(rng, algebra).as_float()
    x, y = iota(z, algebra.zero().as_float())
    for a, b, c in zip(x.coords, y.coords, z.coords):
        assert abs(a - c / 2) < 1e-13 and abs(b - c / 2) < 1e-13


def test_iota_sym2_example():
    alg = get_algebra("sym2")
    z = alg.element((1.0, 4.0, 0.0))
    v = (0.3 * alg.identity).as_float()
    x, y = iota(z, v)
    np.testing.assert_allclose(list(x.coords), [0.35, 1.4, 0.0], atol=1e-12)
    np.testing.assert_allclose(list(y.coords), [0.65, 2.6, 0.0], atol=1e-12)
    z2, v2 = iota_inv(x, y)
    np.testing.assert_allclose(list(z2.coords), list(z.coords), atol=1e-12)


def test_iota_roundtrip_invariant(algebra):
    rng = random.Random(10)
    for _ in range(100):
        z = random_cone_point(rng, algebra).as_float()
        v = random_interval_point(rng, algebra).as_float()
        x, y = iota(z, v)
        z2, v2 = iota_inv(x, y)
        err = max(abs(p - q) for p, q in zip(z2.coords + v2.coords,
                                             z.coords + v.coords))
        assert err < 1e-12
        assert in_cone(x) and in_cone(y)


def test_iota_domain_errors():
    alg = get_algebra("sym2")
    with pytest.raises(NotInCone):
        iota(alg.element((-1.0, 1.0, 0.0)), alg.zero().as_float())


def test_jacobian_closed_form_examples():
    r1 = get_algebra("rank1")
    z = r1.element((2.0,))
    v = r1.element((0.1,))
    assert abs(jacobian_iota(z, v) - 1.0) < 1e-14
    assert abs(_fd_jacobian(r1, z, v) - 1.0) < 1e-6
    s2 = get_algebra("sym2")
    assert abs(jacobian_iota(s2.identity.as_float(), s2.zero().as_float()) - 0.125) < 1e-15
    z2 = s2.element((1.0, 4.0, 0.0))
    assert abs(jacobian_iota(z2, s2.zero().as_float()) - 1.0) < 1e-13


@pytest.mark.parametrize("name", ["rank1", "sym2", "spin4"])
def test_jacobian_matches_finite_differences(name):
    algebra = get_algebra(name)
    rng = random.Random(11)
    for _ in range(20):
        z = random_cone_point(rng, algebra).as_float()
        v = random_interval_point(rng, algebra).as_float()
        fd = _fd_jacobian(algebra, z, v)
        an = jacobian_iota(z, v)
        assert abs(fd - an) / abs(an) < 1e-6


def test_chi_examples():
    alg = get_algebra("sym2")
    assert chi(StructureMap.identity(alg)) == 1
    a = alg.from_fractions([2, 3, 0])
    ell = StructureMap.quadratic(a)
    assert chi(ell) == 36
    assert ell.det_map() == 216  # 36^{3/2}
    assert chi(StructureMap.scaling(alg, Fraction(2))) == 4  # c^r


def test_chi_rejects_non_structure_map():
    alg = get_algebra("sym2")
    bad = StructureMap(alg, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 1, "shear")
    with pytest.raises(Exception):
        chi(bad)


def test_structure_map_composition():
    alg = get_algebra("sym2")
    rng = random.Random(12)
    a = random_cone_point(rng, alg)
    b = random_cone_point(rng, alg)
    comp = StructureMap.quadratic(a).compose(StructureMap.quadratic(b))
    assert chi(comp) == det(a) ** 2 * det(b) ** 2


def test_algebra_mismatch_raises():
    with pytest.raises(AlgebraMismatch):
        jordan_mul(get_algebra("sym2").identity, get_algebra("spin4").identity)


def test_random_interval_points_are_in_interval(algebra):
    rng = random.Random(14)
    for _ in range(20):
        v = random_interval_point(rng, algebra)
        assert in_interval(v.as_float())
