"""Bracket construction, restriction to the interval, exact identities."""

import json
import os
from fractions import Fraction

import pytest

from rclab.algebra import get_algebra, det, iota
from rclab.brackets import (
    compute_c, compute_C, diag_element,
    jacobi_classical, jacobi_proportionality,
    check_chi_covariance, check_iota_factorization, check_aut_invariance,
    bracket_table_csv, bracket_table_latex, bracket_table_json,
)


def test_compute_c_k0_constant_one():
    for name in ("rank1", "sym2"):
        alg = get_algebra(name)
        c = compute_c(alg, 0)
        zero = (0,) * (2 * alg.n)
        assert list(c.terms) == [zero]
        assert c.terms[zero].terms == {(0, 0): Fraction(1)}


def test_compute_c_rank1_k1():
    alg = get_algebra("rank1")
    c = compute_c(alg, 1)
    assert c.terms[(0, 1)].terms == {(1, 0): 1, (0, 0): 1}
    assert c.terms[(1, 0)].terms == {(0, 1): -1, (0, 0): -1}


def test_diagonal_restriction_at_equal_parameters():
    # the slot exchange sends c_{s,t}(x,y) to (-1)^{rk} c_{t,s}(y,x), so the
    # diagonal restriction at s = t vanishes exactly when r*k is odd
    import random

    from rclab.algebra import random_rational_element

    rng = random.Random(0)
    r1 = get_algebra("rank1")
    c1 = compute_c(r1, 3)   # rk = 3, odd
    for _ in range(10):
        x = random_rational_element(rng, r1)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert c1.evaluate(x, x, s, s) == 0
    # sym2, k = 1 has rk = 2: the diagonal value is (s+1) det x, not zero
    alg = get_algebra("sym2")
    c = compute_c(alg, 1)
    for _ in range(10):
        x = random_rational_element(rng, alg)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert c.evaluate(x, x, s, s) == (s + 1) * det(x)


def test_disk_cache_roundtrip(tmp_path):
    alg = get_algebra("sym2")
    import rclab.brackets as B

    B._memory_cache.pop((alg.name, 1), None)
    c1 = compute_c(alg, 1, str(tmp_path))
    path = tmp_path / "c_sym2_k1.json"
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["schema"] == "rc-lab/1" and data["format"] == 1
    B._memory_cache.pop((alg.name, 1), None)
    c2 = compute_c(alg, 1, str(tmp_path))
    assert c1 == c2
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def test_disk_cache_rejects_a_misnamed_payload(tmp_path, monkeypatch):
    import rclab.brackets as B

    want = compute_c(get_algebra("rank1"), 3)
    payload = compute_c(get_algebra("sym2"), 1).to_json()
    path = tmp_path / "c_rank1_k3.json"
    path.write_text(payload)
    monkeypatch.setattr(B, "_memory_cache", {})
    got = compute_c(get_algebra("rank1"), 3, str(tmp_path))
    assert got == want
    data = json.loads(path.read_text())
    assert (data["algebra"], data["k"]) == ("rank1", 3)


def test_disk_cache_rewrites_an_old_format(tmp_path, monkeypatch):
    import rclab.brackets as B

    alg = get_algebra("sym2")
    data = compute_c(alg, 1).to_jsonable()
    data["format"] = 0
    path = tmp_path / "c_sym2_k1.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(B, "_memory_cache", {})
    compute_c(alg, 1, str(tmp_path))
    assert json.loads(path.read_text())["format"] == B.CACHE_FORMAT


def test_compute_C_k0_is_one():
    alg = get_algebra("sym2")
    C = compute_C(alg, 0, 2, 2)
    assert C.terms == {(0, 0, 0): Fraction(1)}


def test_compute_C_rank1_k1_formula():
    # C(1)_{lam,mu}(v) = (lam-mu)/2 + (lam+mu+2) v / 2
    C = compute_C(get_algebra("rank1"), 1, Fraction(3), Fraction(5))
    assert C.terms[(0,)] == Fraction(-1)
    assert C.terms[(1,)] == Fraction(5)
    C2 = compute_C(get_algebra("rank1"), 1, Fraction(2), Fraction(7))
    assert C2.evaluate(get_algebra("rank1").from_fractions([0])) == Fraction(-5, 2)


def test_compute_C_symbolic_parameters():
    C = compute_C(get_algebra("rank1"), 1)
    # coefficient of v is (s + t + 2)/2 as a parameter polynomial
    coef = C.terms[(1,)]
    assert coef.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
                          (0, 0): Fraction(1)}


def test_jacobi_classical_values():
    # P_2^{(0,0)} = (3x^2 - 1)/2
    p2 = jacobi_classical(2, 0, 0)
    assert p2 == [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]
    # P_1^{(1,2)} = (1-2)/2 + (1+2+2)x/2
    assert jacobi_classical(1, 1, 2) == [Fraction(-1, 2), Fraction(5, 2)]


@pytest.mark.parametrize("params", [(0, 0), (1, 2), (3, 3)])
def test_jacobi_proportionality_exact(params):
    lam, mu = params
    for k in range(7):
        ratio = jacobi_proportionality(k, lam, mu)
        assert ratio != 0
        # measured constant: k! for this normalization of the pipeline
        import math

        assert ratio == math.factorial(k)


def test_chi_covariance_reports_clean():
    for name, k in (("rank1", 2), ("sym2", 1), ("spin4", 1)):
        rep = check_chi_covariance(get_algebra(name), k, samples=15)
        assert rep["pass"] and rep["violations"] == []
        assert rep["exact"] is True


def test_iota_factorization_rank1_v0():
    # at v = 0, k = 1: both sides equal det(eta) (lam - mu)/2
    alg = get_algebra("rank1")
    c = compute_c(alg, 1)
    lam, mu = Fraction(5), Fraction(2)
    spec = c.specialize(lam, mu)
    eta = alg.element((1.7,))
    x, y = iota(eta, alg.element((0.0,)))
    lhs = c.evaluate_specialized(spec, x, y)
    assert abs(lhs - 1.7 * (5 - 2) / 2) < 1e-12


def test_iota_factorization_reports():
    for name, k in (("rank1", 2), ("sym2", 2), ("spin4", 2)):
        rep = check_iota_factorization(get_algebra(name), k, samples=8)
        assert rep["pass"], rep
        assert rep["max_residual"] < 1e-10


def test_iota_factorization_fails_on_nan(monkeypatch):
    import rclab.brackets as B

    monkeypatch.setattr(B, "det", lambda x: float("nan"))
    rep = check_iota_factorization(get_algebra("rank1"), 1)
    assert rep["pass"] is False


def test_aut_invariance():
    for name in ("sym2", "sym3", "spin4", "spin5"):
        rep = check_aut_invariance(get_algebra(name), 1, 2, 3)
        assert rep["pass"], rep


def test_diag_element():
    s2 = get_algebra("sym2")
    v = diag_element(s2, [1.5, -0.5])
    assert v.coords == (1.5, -0.5, 0)
    sp = get_algebra("spin4")
    v = diag_element(sp, [1.0, 3.0])
    from rclab.algebra import spectral

    lams, _ = spectral(v.as_float())
    assert abs(lams[0] - 1.0) < 1e-14 and abs(lams[1] - 3.0) < 1e-14


def test_emitters_deterministic():
    alg = get_algebra("sym2")
    c = compute_c(alg, 1)
    assert bracket_table_csv(c) == bracket_table_csv(c)
    latex = bracket_table_latex(c)
    assert latex.startswith("\\begin{tabular}{ll}")
    assert latex.count("\\\\") >= c.num_monomials()
    data = json.loads(bracket_table_json(c))
    assert data["schema"] == "rc-lab/1"


def test_ortho_poly_degree_bound():
    alg = get_algebra("sym2")
    for k in (1, 2):
        C = compute_C(alg, k, 3, 3)
        assert C.degree() <= alg.r * k
