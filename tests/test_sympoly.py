"""The exact symbolic engine: derivations, operator powers, extraction."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rclab.algebra import get_algebra
from rclab.poly import Poly
from rclab.sympoly import (
    SymExpr, BracketPolynomial, NonzeroRemainder,
    apply_D_power, extract_bracket_polynomial, cayley_check,
    _derivation, _det_power_poly, _exact_divide,
)


def coefficient(expr, mono, a, b):
    """The Q[s,t] coefficient of x^mono (det x)^(s+a) (det y)^(t+b) in expr."""
    coef = expr.terms.get((tuple(mono), a, b), {})
    return {key: Fraction(v, 2**expr.scale) for key, v in coef.items()}


def coefs(c):
    """{monomial: {(i, j): coefficient of s^i t^j}} of a bracket polynomial."""
    return {m: {(i, j): Fraction(p, q) for i, j, p, q in coef}
            for m, coef in c.poly.rows()}


# ---------------------------------------------------------------------------
# Derivation: plain partials, the trace-form derivation divided by gram_i


def test_diff_rank1_power_rule():
    alg = get_algebra("rank1")
    e = SymExpr.det_power_seed(alg, 1, 0)   # x^{s+1}
    d = _derivation(e.terms, alg, 0)
    # (s+1) x^{s}
    assert d == {((0, 0), 0, 0): {(1, 0): 1, (0, 0): 1}}


def test_diff_sym2_det_gradient_is_adjugate():
    # d/dx (det x)^{s+1}: gradient components (x22, x11, -x12) in the
    # trace-form convention, which halves the plain partial in x12
    alg = get_algebra("sym2")
    e = SymExpr.det_power_seed(alg, 1, 0)
    d11 = _derivation(e.terms, alg, 0)
    assert d11[((0, 1, 0, 0, 0, 0), 0, 0)] == {(1, 0): 1, (0, 0): 1}
    d12 = _derivation(e.terms, alg, 2)
    assert alg.gram[2] == 2
    assert d12[((0, 0, 1, 0, 0, 0), 0, 0)] == {(1, 0): -2, (0, 0): -2}


def test_diff_constant_term_vanishes():
    alg = get_algebra("rank1")
    e = {((0, 0), 0, 0): {(0, 0): 3}}
    # det-power offset 0 with s-degree 0 still differentiates to s * ...,
    # which vanishes only at s = 0; a true constant has empty det exponent
    d = _derivation(e, alg, 1)      # d/dy
    assert d == {((0, 0), 0, -1): {(0, 1): 3}}
    assert not _derivation({}, alg, 0)


def test_apply_D_zero_is_identity():
    alg = get_algebra("sym2")
    e = SymExpr.det_power_seed(alg, 2, 2)
    assert apply_D_power(e, 0) == e


def test_apply_D_rank1_k1():
    alg = get_algebra("rank1")
    e = apply_D_power(SymExpr.det_power_seed(alg, 1, 1), 1)
    # (s+1) x^s y^{t+1} - (t+1) x^{s+1} y^t
    assert coefficient(e, (0, 0), 0, 1) == {(1, 0): 1, (0, 0): 1}
    assert coefficient(e, (0, 0), 1, 0) == {(0, 1): -1, (0, 0): -1}
    assert e.num_terms() == 2


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
            sw = c.swap_slots_and_params()
            sign = Fraction((-1) ** (alg.r * k))
            assert coefs(sw) == {m: {key: sign * v for key, v in p.items()}
                                 for m, p in coefs(c).items()}


def test_exact_divide_raises_on_remainder():
    alg = get_algebra("sym2")
    detx = _det_power_poly(alg, 1, "x")     # the engine's integer divisor
    assert all(type(c) is int for c in detx.values())
    num = {(1, 0, 0, 0, 0, 0): {(0, 0): 1}}   # x11: not divisible
    with pytest.raises(NonzeroRemainder):
        _exact_divide(num, detx, "unit test")
    # det x * x11 + 1 divides up to the remainder 1
    num = {(2, 1, 0, 0, 0, 0): {(0, 0): 1}, (1, 0, 2, 0, 0, 0): {(0, 0): -1},
           (0, 0, 0, 0, 0, 0): {(0, 0): 1}}
    with pytest.raises(NonzeroRemainder):
        _exact_divide(num, detx, "unit test")


def test_extract_raises_on_a_non_polynomial():
    # (det x)^(s-1) (det y)^t is no polynomial times (det x)^s (det y)^t
    alg = get_algebra("sym2")
    expr = SymExpr(alg, {((0,) * 6, -1, 0): {(0, 0): 1}})
    with pytest.raises(NonzeroRemainder):
        extract_bracket_polynomial(expr, 0)


def test_specialize_and_evaluate_examples():
    alg = get_algebra("rank1")
    c1 = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, 1, 1), 1), 1)
    one = alg.element((Fraction(1),))
    two = alg.element((Fraction(2),))
    assert c1.evaluate(one, one, Fraction(0), Fraction(0)) == 0
    assert c1.evaluate(one, two, Fraction(2), Fraction(3)) == 2
    spec = dict(c1.specialize(Fraction(2), Fraction(3)).items())
    assert spec[(0, 1)] == 3 and spec[(1, 0)] == -4


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


def test_bracket_json_roundtrip():
    alg = get_algebra("sym2")
    c = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, 1, 1), 1), 1)
    back = BracketPolynomial.from_jsonable(json.loads(json.dumps(c.to_jsonable())))
    assert back == c
    data = c.to_jsonable()
    assert data["schema"] == "rc-lab/1"


@pytest.mark.parametrize("name,k", [("rank1", 2), ("sym2", 1)])
def test_bracket_golden_files(name, k):
    import json
    import os

    alg = get_algebra(name)
    c = extract_bracket_polynomial(
        apply_D_power(SymExpr.det_power_seed(alg, k, k), k), k)
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        f"c_{name}_k{k}.json")
    with open(path) as fh:
        golden = json.load(fh)
    assert BracketPolynomial.from_jsonable(golden) == c
    assert json.loads(json.dumps(c.to_jsonable(), sort_keys=True)) == golden
