"""The sparse polynomial type: exact and numpy evaluation against a plain loop."""

import gc
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fraction_ref import poly_items, quad_rep
from rclab.algebra import ALGEBRA_NAMES, get_algebra, quad_rep as float_quad_rep
from rclab.brackets import compute_c, compute_C
from rclab.cli import K_CAPS
from rclab.poly import _BLOCK, Poly

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
CASES = [(name, k) for name in ALGEBRA_NAMES for k in range(min(K_CAPS[name], 2) + 1)]


def reference(terms, point):
    """sum_m c_m prod_i x_i^{m_i} over Fractions, one monomial at a time."""
    total = Fraction(0)
    for mono, coef in terms:
        term = Fraction(coef)
        for e, x in zip(mono, point):
            term *= Fraction(x) ** e
        total += term
    return total


def abs_scale(terms, point):
    """sum_m |c_m prod_i x_i^{m_i}|, the size of the rounding of a float sum."""
    return float(reference([(m, abs(c)) for m, c in terms], [abs(x) for x in point]))


def assert_numeric_agrees(poly, terms, point):
    exact = reference(terms, point)
    got = poly.numeric(np.array([[float(x) for x in point]]))[0]
    assert abs(got - float(exact)) <= 1e-12 * max(abs_scale(terms, point), 1e-300)


def closed_det(alg, x):
    """det from its definition: x0^2 - |xb|^2 on spin(m), the matrix
    determinant (Laplace expansion) on sym(r)."""
    if alg.family == "spin":
        return x[0] ** 2 - sum(c * c for c in x[1:])
    pairs = [(i, i) for i in range(alg.r)] + [(i, j) for i in range(alg.r)
                                             for j in range(i + 1, alg.r)]
    mat = [[None] * alg.r for _ in range(alg.r)]
    for (i, j), c in zip(pairs, x):
        mat[i][j] = mat[j][i] = c

    def laplace(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * laplace([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    return laplace(mat)


def points(n):
    return st.lists(rationals, min_size=n, max_size=n)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ALGEBRA_NAMES), data=st.data())
def test_det_against_the_loop(name, data):
    alg = get_algebra(name)
    x = data.draw(points(alg.n))
    terms = poly_items(alg.det_poly)
    assert alg.det_poly.exact(x) == reference(terms, x) == closed_det(alg, x)
    assert_numeric_agrees(alg.det_poly, terms, x)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), s=rationals, t=rationals, data=st.data())
def test_bracket_against_the_loop(case, s, t, data):
    name, k = case
    alg = get_algebra(name)
    c = compute_c(alg, k)
    x, y = data.draw(points(alg.n)), data.draw(points(alg.n))
    terms = [(m, sum(Fraction(p, q) * s**i * t**j for i, j, p, q in coef))
             for m, coef in c.poly.rows()]
    want = reference(terms, x + y)
    assert c.evaluate(x, y, s, t) == want
    spec = c.specialize(s, t)
    assert c.evaluate_specialized(spec, x, y) == want
    assert_numeric_agrees(spec, terms, x + y)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), lam=rationals, mu=rationals, data=st.data())
def test_restriction_against_the_loop(case, lam, mu, data):
    name, k = case
    alg = get_algebra(name)
    C = compute_C(alg, k, lam, mu)
    v = data.draw(points(alg.r))   # the eigenvalues of a point
    terms = poly_items(C.poly)
    assert C.poly.exact(v) == reference(terms, v)
    assert_numeric_agrees(C.poly, terms, v)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_values_against_the_loop(case, data):
    # den times c(k) at integer points, as the int64 table of the
    # coefficients of s^i t^j
    name, k = case
    alg = get_algebra(name)
    poly = compute_c(alg, k).poly
    row = st.lists(st.integers(-9, 9), min_size=2 * alg.n, max_size=2 * alg.n)
    ints = data.draw(st.lists(row, min_size=1, max_size=3))
    got = poly.values(ints)
    assert got.dtype == np.int64 and got.shape == (len(ints), *poly.coef.shape[1:])
    rows = poly.rows()
    for table, x in zip(got.tolist(), ints):
        want = [[poly.den * reference([(m, Fraction(p, q)) for m, coef in rows
                                       for i2, j2, p, q in coef if (i2, j2) == (i, j)], x)
                 for j in range(len(table[0]))] for i in range(len(table))]
        assert table == want


@pytest.mark.parametrize("name", [name for name in ALGEBRA_NAMES if name != "rank1"])
def test_values_raises_past_int64_instead_of_wrapping(name):
    # det(2^31 e) is 2^(31 r): 2^62 in rank 2, past 2^63 in rank >= 3, where
    # an int64 product would wrap
    alg = get_algebra(name)
    e = alg.e_coords
    assert alg.det_poly.values([[2 ** 10 * c for c in e]]).tolist() == [[[2 ** (10 * alg.r)]]]
    with pytest.raises(OverflowError, match="Poly.values: int64 entries could reach"):
        alg.det_poly.values([[2 ** 31 * c for c in e]])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ALGEBRA_NAMES), data=st.data())
def test_quad_rep_against_the_fraction_reference(name, data):
    alg = get_algebra(name)
    x, y = data.draw(points(alg.n)), data.draw(points(alg.n))
    want = np.array(quad_rep(alg, x, y), dtype=float)
    got = float_quad_rep(alg, np.array(x, dtype=float), np.array(y, dtype=float))
    assert got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_rows_are_canonical_whatever_the_insertion_order():
    c = compute_c(get_algebra("sym2"), 2)
    items = [(m, {(i, j): Fraction(p, q) for i, j, p, q in coef})
             for m, coef in c.poly.rows()]
    random.Random(3).shuffle(items)
    shuffled = Poly.from_terms(dict(items), 6)
    assert shuffled.exps.tolist() == sorted(shuffled.exps.tolist())
    assert shuffled.exps.tolist() == c.poly.exps.tolist()
    assert shuffled.coef.tolist() == c.poly.coef.tolist() and shuffled.den == c.poly.den
    pts = np.random.default_rng(0).normal(size=(7, 6))
    spec = shuffled.at(Fraction(5, 2), Fraction(-1, 3))
    same = c.specialize(Fraction(5, 2), Fraction(-1, 3))
    assert np.array_equal(spec.numeric(pts), same.numeric(pts))


def test_parameters_must_be_set_before_evaluation():
    c = compute_c(get_algebra("rank1"), 1)
    with pytest.raises(ValueError):
        c.poly.exact((Fraction(1), Fraction(2)))


def test_numeric_blocks_match_one_point_at_a_time():
    # three blocks, the last one short, complex coordinates: the rows at
    # the block edges keep the bits of one-row calls
    C = compute_C(get_algebra("spin8"), 2, 4, 4)
    m = 2 * _BLOCK + 3
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    whole = C.poly.numeric(pts)
    assert whole.dtype == complex
    rows = [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK, m - 1]
    one_by_one = np.concatenate([C.poly.numeric(pts[[i]]) for i in rows])
    assert np.array_equal(whole[rows], one_by_one)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
@pytest.mark.parametrize("kind", [float, complex])
def test_det_rows_keep_the_bits_of_one_row_calls(name, kind):
    # each value takes the same operations whatever else is in the stack;
    # a (points x monomials) table summed by BLAS moved 56-156 of these 200
    # rows in sym3, spin4..spin8 and complex sym4
    algebra = get_algebra(name)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200, algebra.n))
    if kind is complex:
        pts = pts + 1j * rng.normal(size=pts.shape)
    whole = algebra.det_poly.numeric(pts)
    one_by_one = np.concatenate([algebra.det_poly.numeric(row[None]) for row in pts])
    assert np.array_equal(whole, one_by_one)


def test_numeric_holds_nothing_past_the_call():
    # with the cyclic collector off, a call over 50,000 sym4 rows leaves
    # the traced memory where it was apart from its result, so no power
    # array is held in a reference cycle; its peak, one block's powers and
    # the result, stays under 4 MB
    det = get_algebra("sym4").det_poly
    pts = np.random.default_rng(3).normal(size=(50_000, 10)) + 0j
    det.numeric(pts[:1])    # the float coefficients, cached on the Poly
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vals = det.numeric(pts)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert 0 <= now - before - vals.nbytes < 1024, now - before - vals.nbytes
    assert peak - before < 4e6, peak - before


def test_zero_coefficients_are_not_stored():
    p = Poly.from_terms({(0, 1): {(0, 0): 0, (1, 1): Fraction(2)}, (1, 0): 0}, 2)
    assert p.rows() == [((0, 1), [(1, 1, 2, 1)])]
    assert p.coef.shape == (1, 2, 2)
    # rows that vanish are dropped, and the denominator is reduced
    q = Poly.from_terms({(1, 0): 0, (0, 1): 4}, 2, 8)
    assert q.exps.tolist() == [[0, 1]] and q.coef.tolist() == [[[1]]] and q.den == 2


# a coefficient: an int or a Fraction, zero included, or a dict of them over
# s^i t^j, i, j <= 2, whose top powers may all be zero
numbers = st.one_of(st.integers(-3, 3), rationals)
coefficients = st.one_of(numbers, st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), numbers, max_size=4))


@given(terms=st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coefficients, max_size=6),
       den=st.integers(1, 12))
@example(terms={}, den=4)
@example(terms={(1, 0, 0): 0, (0, 2, 0): {(1, 1): 0}}, den=1)
@example(terms={(0, 0, 1): {(2, 1): 0, (0, 2): 0, (0, 0): 3}, (0, 1, 0): Fraction(1, 2)}, den=6)
def test_from_terms_is_collect_on_the_same_terms(terms, den):
    # from_terms fills its table straight from the distinct keys; the
    # reference sorts the rows with np.unique and trims them
    coefs = [c if isinstance(c, dict) else {(0, 0): c} for c in terms.values()]
    lcm = math.lcm(1, *(Fraction(v).denominator for c in coefs for v in c.values()))
    coef = np.zeros((len(coefs), 3, 3), dtype=object)
    for row, c in enumerate(coefs):
        for (i, j), v in c.items():
            coef[row, i, j] = int(Fraction(v) * lcm)
    exps, order = np.unique(np.array(list(terms), dtype=np.int64).reshape(-1, 3), axis=0,
                            return_index=True)
    assert Poly.from_terms(terms, 3, den) == Poly._trimmed(exps, coef[order], lcm * den)
