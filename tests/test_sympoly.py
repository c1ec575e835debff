"""The exact symbolic engine: the pencil operator L, its powers, extraction."""

import json
import math
import os
import random
from fractions import Fraction
from math import comb, lcm, prod

import numpy as np
import pytest

import rclab.sympoly as S
from fraction_ref import (
    apply_pencil_operator, fraction_operator, frame, pencil_chain, poly_items,
)
from rclab.algebra import ALGEBRA_NAMES, get_algebra, sym
from rclab.cli import K_CAPS
from rclab.brackets import bracket_table_json
from rclab.poly import Poly
from rclab.sympoly import (
    SymExpr, BracketPolynomial, NonzeroRemainder,
    apply_D_power, extract_bracket_polynomial, extract_interval_polynomial, cayley_check,
    _pencil_operator, _pencil_tables, _eigen_tables,
)


def coefficient(expr, e):
    """The Q[s,t] coefficient of Delta_0^(s+e_0) ... Delta_r^(t+e_r) in expr."""
    return {key: Fraction(v, expr.den) for key, v in expr.terms.get(tuple(e), {}).items()}


def listed(terms):
    """{exponents: coefdict} as a list of (exponents, [(key, value)]), so that
    == compares the order of the terms and of their coefficients too."""
    return [(e, list(c.items())) for e, c in terms.items()]


def fraction_terms(expr):
    """The terms of expr with each int coefficient over expr.den as a Fraction,
    after checking that they are ints over one positive int denominator."""
    assert type(expr.den) is int and expr.den > 0
    assert all(type(v) is int for c in expr.terms.values() for v in c.values())
    return {e: {ij: Fraction(v, expr.den) for ij, v in c.items()}
            for e, c in expr.terms.items()}


def coefs(c):
    """{monomial: {(i, j): coefficient of s^i t^j}} of a bracket polynomial."""
    return {m: {(i, j): Fraction(p, q) for i, j, p, q in coef}
            for m, coef in c.poly.rows()}


def operator(alg):
    """L as {beta: {alpha: coefficient of Delta^alpha in T_beta}}."""
    return {beta: dict(t_beta) for beta, t_beta in fraction_operator(alg)}


# ---------------------------------------------------------------------------
# The pencil tables and the operator L


def test_sym2_pencil_tables():
    # det(x + tau y) for 2 x 2 symmetric matrices, coordinates (11, 22, 12)
    x11, x22, x12, y11, y22, y12 = ((0,) * i + (1,) + (0,) * (5 - i) for i in range(6))

    def mono(*factors):
        return tuple(map(sum, zip(*factors)))

    tables = _pencil_tables(get_algebra("sym2"))
    assert (tables.nvars, tables.den) == (6, 1)
    assert tables.rows == [
        {mono(x11, x22): 1, mono(x12, x12): -1},
        {mono(x11, y22): 1, mono(x22, y11): 1, mono(x12, y12): -2},
        {mono(y11, y22): 1, mono(y12, y12): -1},
    ]


def polynomial_value(table, point):
    """An {exponent tuple: int} polynomial at a point, over Fractions."""
    return sum(c * prod(Fraction(x) ** e for x, e in zip(point, mono))
               for mono, c in table.items())


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_eigen_tables_are_the_pencil_tables_on_a_frame(name):
    # 2^r delta_j(a) = Delta_j(x, y) at x = sum (1 - a_i) c_i, y = sum (1 + a_i) c_i
    alg = get_algebra(name)
    tables, pencil = _eigen_tables(alg), _pencil_tables(alg)
    assert (tables.nvars, tables.den, len(tables.rows)) == (alg.r, 2 ** alg.r, alg.r + 1)
    rng = random.Random(11)
    for _ in range(5):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(alg.r)]
        xy = frame(alg, [1 - x for x in a]) + frame(alg, [1 + x for x in a])
        assert ([polynomial_value(row, a) for row in tables.rows]
                == [polynomial_value(row, xy) for row in pencil.rows])


def test_rank1_operator_is_the_difference():
    assert operator(get_algebra("rank1")) == {(1, 0): {(0, 0): 1}, (0, 1): {(0, 0): -1}}


@pytest.mark.parametrize("name", ["sym2", "spin3", "spin4", "spin5", "spin6",
                                  "spin7", "spin8"])
def test_rank2_operator_closed_form(name):
    # (n/2)(d0 - 2 d1 + d2) + D0 d0^2 + D2 d2^2 + (D0 - D1 + D2) d1^2
    #   + (D1 - 2 D0) d0 d1 + (D1 - 2 D2) d1 d2 - D1 d0 d2
    alg = get_algebra(name)
    half = Fraction(alg.n, 2)
    D0, D1, D2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert operator(alg) == {
        (1, 0, 0): {(0, 0, 0): half}, (0, 1, 0): {(0, 0, 0): -2 * half},
        (0, 0, 1): {(0, 0, 0): half},
        (2, 0, 0): {D0: 1}, (0, 0, 2): {D2: 1}, (0, 2, 0): {D0: 1, D1: -1, D2: 1},
        (1, 1, 0): {D1: 1, D0: -2}, (0, 1, 1): {D1: 1, D2: -2}, (1, 0, 1): {D1: -1},
    }


def test_spin3_is_sym2_in_the_pencil_coordinates():
    # the algebras are isomorphic, so L and every c(k) agree as polynomials in Delta
    sym2, spin3 = get_algebra("sym2"), get_algebra("spin3")
    assert operator(spin3) == operator(sym2)
    a, b = SymExpr.det_power_seed(sym2, 0, 0), SymExpr.det_power_seed(spin3, 0, 0)
    for _ in range(3):
        a = apply_D_power(SymExpr.shifted_weight(a), 1)
        b = apply_D_power(SymExpr.shifted_weight(b), 1)
        assert (a.terms, a.den) == (b.terms, b.den)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_every_operator_matches_the_pinned_one(name):
    # L of every algebra as the per-point derivation gave it: most of sym4's
    # 125 beta never act on Delta_0^a Delta_r^b, so no table pins them
    path = os.path.join(os.path.dirname(__file__), "fixtures", "pencil_operators.json")
    with open(path) as fh:
        pinned = json.load(fh)[name]
    # L is held once, as ints over one denominator
    operator, den = _pencil_operator(get_algebra(name))
    assert all(type(v) is int for _, t_beta in operator for _, v in t_beta)
    assert type(den) is int and den > 0
    assert [(beta, [(alpha, Fraction(v, den)) for alpha, v in t_beta])
            for beta, t_beta in operator] == [
        (tuple(beta), [(tuple(alpha), Fraction(v)) for alpha, v in t_beta])
        for beta, t_beta in pinned]


@pytest.mark.parametrize("row,message", [(0, "a fit point disagrees"),
                                         (-1, "the certificate fails")])
@pytest.mark.parametrize("name", ["rank1", "sym2", "sym3", "sym4"])
def test_a_wrong_jet_fails_the_derivation(name, row, message, monkeypatch, fresh_tables):
    # one coefficient of one jet off by one, at the first fit point or at the
    # last certificate point: the derivation of L must raise.  The jet of
    # order r is the constant coefficient of a monomial of det, and it alone
    # makes the constant T_beta, |beta| = 1, at that point
    samples, interpolate, calls = S._pencil_samples, S._interpolate, []

    def record(algebra, points):
        calls.append(points)
        return samples(algebra, points)

    monkeypatch.setattr(S, "_pencil_samples", record)
    alg = get_algebra(name)
    _pencil_operator(alg)
    # one batched pass over every fit and certificate point
    assert [len(points) for points in calls] == [comb(2 * alg.r - 1, alg.r) + alg.r + 2]
    gammas = S._faa_di_bruno(alg)[2][0]
    g = next(g for g, gamma in enumerate(gammas) if sum(gamma) == alg.r)

    def wrong(values, context):
        jets = interpolate(values, context)   # [point, j, gamma]
        jets[row, 0, g] += 1
        return jets

    monkeypatch.setattr(S, "_interpolate", wrong)
    _pencil_operator.cache_clear()
    with pytest.raises(NonzeroRemainder, match=message):
        _pencil_operator(alg)


def test_solve_returns_the_integral_solution_exactly():
    # the first column has no pivot in row 0, and X has entries of both signs
    a = [[0, 1, 2], [3, -1, 0], [1, 1, 1], [2, 0, 5]]
    x = [[4, -7], [-300, 1], [0, 2 ** 20]]
    b = (np.array(a, dtype=object) @ np.array(x, dtype=object)).tolist()
    solution = S._solve(a, b, "test").tolist()
    assert solution == x
    assert all(type(v) is int for row in solution for v in row)


def test_solve_reduces_entries_past_int64():
    # int64 would overflow on these entries; sym4's symbols reach 2^33
    a = [[2 ** 70 + 1, 3], [5, -2 ** 65], [2 ** 64, 2 ** 63 + 7]]
    x = [[7, -1], [-9, 12]]
    b = (np.array(a, dtype=object) @ np.array(x, dtype=object)).tolist()
    assert S._solve(a, b, "test").tolist() == x


@pytest.mark.parametrize("a,b,message", [
    ([[1, 2], [2, 4], [3, 6]], [[1], [2], [3]], "the fit is singular"),
    ([[1, 0], [0, 1], [1, 1]], [[1], [2], [4]], "a fit point disagrees"),
    # 2x = 1: X mod P is 1/2 mod P, whose lift misses the row
    ([[2]], [[1]], "a fit point disagrees"),
    # x = P: an integral solution outside (-P/2, P/2) lifts to 0 and misses
    ([[1]], [[2 ** 31 - 1]], "a fit point disagrees"),
], ids=["singular", "disagrees", "not-integral", "out-of-range"])
def test_solve_raises_rather_than_return_a_wrong_solution(a, b, message):
    with pytest.raises(NonzeroRemainder, match=f"test: {message}"):
        S._solve(a, b, "test")


def _inverse_vandermonde(r):
    """V^-1 in Fractions for V[i][j] = i^j, i, j = 0..r, by Gauss-Jordan."""
    rows = [[Fraction(i) ** j for j in range(r + 1)] + [Fraction(i == m) for m in range(r + 1)]
            for i in range(r + 1)]
    for c in range(r + 1):
        p = next(i for i in range(c, r + 1) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(r + 1):
            if i != c:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[c])]
    return [row[r + 1:] for row in rows]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lagrange_matrix_is_d_times_the_inverse_vandermonde(r):
    # built once per r and shared by every call, so it must be read-only
    matrix, den = S._lagrange(r)
    inverse = _inverse_vandermonde(r)
    assert den == lcm(*(v.denominator for row in inverse for v in row))
    assert matrix.tolist() == [[int(v * den) for v in row] for row in inverse]
    assert matrix.dtype == np.int64 and not matrix.flags.writeable
    assert S._lagrange(r)[0] is matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 0


@pytest.mark.parametrize("name", ["sym3", "sym4"])
def test_interpolation_is_exact_or_raises(name, monkeypatch, fresh_tables):
    # tau^2 (tau - 1) from its values at tau = 0..4; tau (tau - 1) / 2 takes
    # integer values there but has no integer coefficients
    tau = np.arange(5)[:, None]
    assert S._interpolate(tau ** 2 * (tau - 1), "test").ravel().tolist() == [0, 0, -1, 1, 0]
    with pytest.raises(NonzeroRemainder, match="not divisible"):
        S._interpolate(tau * (tau - 1) // 2, "test")
    # one value of one jet off by one, at tau = 1: for r >= 3 the Lagrange
    # polynomial of that node has a coefficient that D V^-1 / D leaves fractional
    interpolate = S._interpolate

    def wrong(values, context):
        values = values.copy()
        values[0, 1, 0] += 1
        return interpolate(values, context)

    monkeypatch.setattr(S, "_interpolate", wrong)
    with pytest.raises(NonzeroRemainder, match="sym[34] jets: a jet is not divisible"):
        _pencil_operator(get_algebra(name))


@pytest.mark.parametrize("bound,stage", [(10 ** 5, "evaluation"), (3000, "interpolation"),
                                         (100, "symbols")])
def test_int64_overflow_raises_instead_of_wrapping(bound, stage):
    # numpy's int64 products wrap silently, and no RuntimeWarning says so:
    # each int64 stage bounds its entries first.  Near 10^5 the powers of
    # the coordinates, and near 100 the exact symbols (1.3e27), pass 2^63;
    # the fit and certificate points of sym4 reach a jet of 456 and a
    # symbol of 9.7e9
    alg, rng = sym(4), random.Random(1)
    points = [tuple(rng.randint(-bound, bound) for _ in range(2 * alg.n)) for _ in range(3)]
    with pytest.raises(OverflowError, match=f"sym4 .*{stage}: int64 entries could reach"):
        S._pencil_samples(alg, points)


def test_expansion_raises_past_int64_instead_of_wrapping():
    # Delta_1 of sym2 has a coefficient -2, so Delta_1^2 has a monomial with
    # the coefficient 4: at 3 * 2^60 that is 12 * 2^60, past 2^63, where an
    # int64 product would wrap.  At 2^56 the expansion is 2^56 times the one
    # of Delta_1^2.
    alg = get_algebra("sym2")
    tables = _pencil_tables(alg)
    assert min(tables.rows[1].values()) == -2
    one = S._expand(SymExpr(alg, {(0, 2, 0): {(0, 0): 1}}), 2, tables)
    big = S._expand(SymExpr(alg, {(0, 2, 0): {(0, 0): 2 ** 56}}), 2, tables)
    assert np.array_equal(big.exps, one.exps) and big.den == one.den
    assert big.coef.tolist() == (one.coef * 2 ** 56).tolist()
    with pytest.raises(OverflowError, match="sym2 k=2 expansion: int64 entries could reach"):
        S._expand(SymExpr(alg, {(0, 2, 0): {(0, 0): 3 * 2 ** 60}}), 2, tables)
    # a coefficient past 2^62 cannot enter the int64 coefficient table
    with pytest.raises(OverflowError, match="sym2 pencil terms: int64 entries could reach"):
        S._expand(SymExpr(alg, {(0, 2, 0): {(0, 0): 2 ** 63 + 1}}), 2, tables)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_the_integer_operator_over_its_denominator_is_L(name):
    # L is held once, as ints over one denominator in lowest terms, and the
    # integer step with it is the Fraction step with L over that
    # denominator, on a term where every beta acts (the chain's terms leave
    # most of sym4's 125 beta idle)
    alg = get_algebra(name)
    operator, den = _pencil_operator(alg)
    assert math.gcd(den, *(v for _, t_beta in operator for _, v in t_beta)) == 1
    every = (alg.r + 2,) * (alg.r + 1)
    expr = SymExpr(alg, {every: {(0, 0): 5, (1, 2): -3}, (1,) * (alg.r + 1): {(2, 0): 1}}, 7)
    want = apply_pencil_operator(fraction_terms(expr), alg.r, fraction_operator(alg))
    assert listed(fraction_terms(apply_D_power(expr, 1))) == listed(want)


@pytest.mark.parametrize("name,kmax", [(name, K_CAPS[name]) for name in ALGEBRA_NAMES]
                         + [("sym4", 2), ("sym3", 3)])
def test_the_integer_chain_is_the_fraction_chain(name, kmax):
    # the chain steps over ints; the Fraction loop it replaced must give the
    # same terms, in the same order, at every k, and each entry holds ints
    # over one denominator
    alg = get_algebra(name)
    expr, chain = SymExpr.det_power_seed(alg, 0, 0), []
    for k in range(kmax + 1):
        if k:
            expr = apply_D_power(SymExpr.shifted_weight(expr), 1)
        chain.append(listed(fraction_terms(expr)))
    assert chain == [listed(terms) for terms in pencil_chain(alg, kmax, fraction_operator(alg))]


def test_the_chain_and_its_expansions_make_no_fraction(monkeypatch):
    # once L is built, a chain step, its shift and both expansions run on
    # ints over one denominator: not one Fraction is made
    alg = sym(2)
    _pencil_operator(alg)

    def refuse(*args):
        raise AssertionError("the exact engine made a Fraction")

    monkeypatch.setattr(S, "Fraction", refuse)
    expr, polys = SymExpr.det_power_seed(alg, 0, 0), []
    for k in range(1, 5):
        expr = apply_D_power(SymExpr.shifted_weight(expr), 1)
        polys.append(extract_bracket_polynomial(expr, k).poly)
        extract_interval_polynomial(expr, k)
    monkeypatch.undo()
    from rclab.brackets import compute_c
    assert polys[-1] == compute_c(get_algebra("sym2"), 4).poly


def test_apply_D_zero_is_identity():
    alg = get_algebra("sym2")
    e = SymExpr.det_power_seed(alg, 2, 2)
    assert apply_D_power(e, 0) == e


def test_diff_rank1_power_rule():
    # D x^(s+1) y^t = (s+1) x^s y^t - t x^(s+1) y^(t-1)
    alg = get_algebra("rank1")
    e = apply_D_power(SymExpr.det_power_seed(alg, 1, 0), 1)
    assert e.terms == {(0, 0): {(1, 0): 1, (0, 0): 1}, (1, -1): {(0, 1): -1}}


def test_diff_constant_term_vanishes():
    # 3 x^s y^t differentiates to 3s x^(s-1) y^t - 3t x^s y^(t-1), which
    # vanishes only at s = t = 0; the empty sum stays empty
    alg = get_algebra("rank1")
    e = apply_D_power(SymExpr(alg, {(0, 0): {(0, 0): 3}}), 1)
    assert e.terms == {(-1, 0): {(1, 0): 3}, (0, -1): {(0, 1): -3}}
    assert apply_D_power(SymExpr(alg, {}), 1).terms == {}


def test_apply_D_rank1_k1():
    alg = get_algebra("rank1")
    e = apply_D_power(SymExpr.det_power_seed(alg, 1, 1), 1)
    # (s+1) x^s y^{t+1} - (t+1) x^{s+1} y^t
    assert coefficient(e, (0, 1)) == {(1, 0): 1, (0, 0): 1}
    assert coefficient(e, (1, 0)) == {(0, 1): -1, (0, 0): -1}
    assert e.num_terms() == 2


def test_apply_D_sym2_seed():
    # the part of D (det x)^(s+1) (det y)^t without Delta_1 and t is
    # det(d/dx) (det x)^(s+1) = (s+1)(s+3/2) (det x)^s
    alg = get_algebra("sym2")
    e = apply_D_power(SymExpr.det_power_seed(alg, 1, 0), 1)
    assert {ij: v for ij, v in coefficient(e, (0, 0, 0)).items() if ij[1] == 0} == {
        (2, 0): 1, (1, 0): Fraction(5, 2), (0, 0): Fraction(3, 2)}
    assert coefficient(SymExpr.shifted_weight(SymExpr.det_power_seed(alg, 0, 0)),
                       (1, 0, 1)) == {(0, 0): 1}


# ---------------------------------------------------------------------------
# Extraction: hand-derived oracles


def test_extract_k0_is_one():
    for name in ("rank1", "sym2", "spin4"):
        alg = get_algebra(name)
        c = extract_bracket_polynomial(SymExpr.det_power_seed(alg, 0, 0), 0)
        zero = (0,) * (2 * alg.n)
        assert coefs(c) == {zero: {(0, 0): Fraction(1)}}


def test_extract_rank1_k1():
    alg = get_algebra("rank1")
    c = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, 1, 1), 1), 1)
    assert coefs(c)[(0, 1)] == {(1, 0): Fraction(1), (0, 0): Fraction(1)}
    assert coefs(c)[(1, 0)] == {(0, 1): Fraction(-1), (0, 0): Fraction(-1)}


def test_extract_rank1_k2():
    alg = get_algebra("rank1")
    c = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, 2, 2), 2), 2)
    # (s+2)(s+1) y^2 - 2(s+2)(t+2) xy + (t+2)(t+1) x^2
    terms = coefs(c)
    assert terms[(0, 2)] == {(2, 0): 1, (1, 0): 3, (0, 0): 2}
    assert terms[(1, 1)] == {(1, 1): -2, (1, 0): -4, (0, 1): -4, (0, 0): -8}
    assert terms[(2, 0)] == {(0, 2): 1, (0, 1): 3, (0, 0): 2}


def test_homogeneity_enforced():
    alg = get_algebra("rank1")
    with pytest.raises(AssertionError):
        BracketPolynomial(alg, 1, Poly.from_terms({(0, 2): 1}, 2))


@pytest.mark.parametrize("name,kmax", [("rank1", 4), ("sym2", 2), ("spin4", 2)])
def test_divisibility_certification(name, kmax):
    alg = get_algebra(name)
    for k in range(kmax + 1):
        c = extract_bracket_polynomial(
            apply_D_power(SymExpr.det_power_seed(alg, k, k), k), k)
        # constructor verified homogeneity of degree r*k
        assert (c.poly.exps.sum(axis=1) == alg.r * k).all()


def test_exchange_antisymmetry_small():
    for name in ("rank1", "sym2"):
        alg = get_algebra(name)
        for k in (1, 2):
            c = extract_bracket_polynomial(
                apply_D_power(SymExpr.det_power_seed(alg, k, k), k), k)
            # c(k)_{t,s}(y, x): the slots and the parameters swapped
            n, sign, cs = alg.n, (-1) ** (alg.r * k), coefs(c)
            swapped = {m[n:] + m[:n]: {(j, i): v for (i, j), v in p.items()}
                       for m, p in cs.items()}
            assert swapped == {m: {ij: sign * v for ij, v in p.items()} for m, p in cs.items()}


def test_extract_raises_on_a_non_polynomial():
    # Delta_0^(s-1) Delta_r^t is no polynomial times Delta_0^s Delta_r^t
    alg = get_algebra("sym2")
    for e in ((-1, 0, 0), (2, 1, -1)):
        expr = SymExpr(alg, {e: {(0, 0): 1}, (0, 0, 0): {(0, 0): 1}})
        with pytest.raises(NonzeroRemainder):
            extract_bracket_polynomial(expr, 0)
        with pytest.raises(NonzeroRemainder):
            SymExpr.shifted_weight(expr)


def test_specialize_and_evaluate_examples():
    alg = get_algebra("rank1")
    c1 = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, 1, 1), 1), 1)
    assert c1.evaluate((1,), (1,), Fraction(0), Fraction(0)) == 0
    assert c1.evaluate((1,), (2,), Fraction(2), Fraction(3)) == 2
    spec = dict(poly_items(c1.specialize(Fraction(2), Fraction(3))))
    assert spec[(0, 1)] == 3 and spec[(1, 0)] == -4


def test_specialize_builds_once_per_weight_on_its_own_c_k(monkeypatch):
    # the c(k) holds each specialisation it built; a c(k) built again after
    # the memory cache is reset holds its own
    import rclab.brackets as B

    alg = get_algebra("sym2")
    c = B.compute_c(alg, 2)
    spec = c.specialize(Fraction(1, 2), Fraction(3))
    assert spec == c.poly.at(Fraction(1, 2), Fraction(3))
    assert c.specialize(Fraction(1, 2), Fraction(3)) is spec
    assert c.specialize(Fraction(3), Fraction(1, 2)) is not spec
    monkeypatch.setattr(B, "_memory_cache", {})
    again = B.compute_c(alg, 2)
    assert again is not c
    fresh = again.specialize(Fraction(1, 2), Fraction(3))
    assert fresh is not spec and fresh == spec


# ---------------------------------------------------------------------------
# Cayley-type constants (internal oracle for the operator expansion)


def test_cayley_rank1():
    alg = get_algebra("rank1")
    assert cayley_check(alg, 3) == 3


def test_cayley_sym2():
    alg = get_algebra("sym2")
    assert cayley_check(alg, 1) == Fraction(3, 2)
    assert cayley_check(alg, 2) == 5


@pytest.mark.parametrize("name", ["rank1", "sym2", "sym3", "sym4", "spin3",
                                  "spin4", "spin5", "spin6", "spin7", "spin8"])
def test_cayley_constant_all_algebras(name):
    # det(d/dx) det(x)^m = prod_{j<r} (m + j d/2) det(x)^(m-1)
    alg = get_algebra(name)
    for m in range(1, 5):
        val = cayley_check(alg, m)   # raises if the quotient is not constant
        want = Fraction(1)
        for j in range(alg.r):
            want *= m + Fraction(j * alg.d, 2)
        assert val == want


# ---------------------------------------------------------------------------
# Wire format


def read_table(data):
    """The BracketPolynomial of a `polys --format json` table, read apart
    from rclab: each "p/q" as a Fraction, all over their common denominator."""
    terms = {tuple(row["mono"]): {(i, j): Fraction(v) for i, j, v in row["coef"]}
             for row in data["terms"]}
    den = lcm(1, *(v.denominator for c in terms.values() for v in c.values()))
    terms = {m: {ij: int(v * den) for ij, v in c.items()} for m, c in terms.items()}
    alg = get_algebra(data["algebra"])
    return BracketPolynomial(alg, data["k"], Poly.from_terms(terms, 2 * alg.n, den))


def test_bracket_json_roundtrip():
    alg = get_algebra("sym2")
    c = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, 1, 1), 1), 1)
    back = read_table(json.loads(bracket_table_json(c)))
    assert back == c
    data = json.loads(bracket_table_json(c))
    assert data["schema"] == "rc-lab/1"


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_every_table_survives_the_wire_format(name):
    # a reader that takes each "p/q" as a Fraction gets back the polynomial,
    # its denominator included
    from rclab.brackets import compute_c
    from rclab.cli import K_CAPS

    alg = get_algebra(name)
    for k in range(K_CAPS[name] + 1):
        c = compute_c(alg, k)
        back = read_table(json.loads(bracket_table_json(c)))
        assert back == c and back.poly.den == c.poly.den, k


@pytest.mark.parametrize("name,k", [("rank1", 2), ("sym2", 1)])
def test_bracket_golden_files(name, k):
    alg = get_algebra(name)
    c = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, k, k), k), k)
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        f"c_{name}_k{k}.json")
    with open(path) as fh:
        golden = json.load(fh)
    assert read_table(golden) == c
    assert json.loads(bracket_table_json(c)) == golden
