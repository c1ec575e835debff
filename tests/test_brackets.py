"""Bracket construction, restriction to the interval, exact identities."""

import json
import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, prod
from operator import add

import numpy as np
import pytest

from fraction_ref import (
    cone_point, det, fraction_operator, frame, frame_matrix, mul, pencil_chain, poly_items,
    quad_rep, rational_point,
)
from rclab.algebra import ALGEBRA_NAMES, get_algebra, iota, spectral
from rclab.brackets import (
    pencil_cache, compute_c, compute_C, certify_box, certify_expansions, jacobi_proportionality,
    bracket_table_csv, bracket_table_latex, bracket_table_json,
)
from rclab.poly import Poly
from rclab.quadrature import weyl_integral
from rclab.cli import K_CAPS
from rclab.sympoly import NonzeroRemainder, SymExpr, apply_D_power, extract_bracket_polynomial

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def coefs(c):
    """{monomial: {(i, j): coefficient of s^i t^j}} of c(k) or C(k)."""
    return {m: {(i, j): Fraction(p, q) for i, j, p, q in coef}
            for m, coef in c.poly.rows()}


def test_compute_c_k0_constant_one():
    for name in ("rank1", "sym2"):
        alg = get_algebra(name)
        c = compute_c(alg, 0)
        zero = (0,) * (2 * alg.n)
        assert coefs(c) == {zero: {(0, 0): Fraction(1)}}


def test_compute_c_rank1_k1():
    alg = get_algebra("rank1")
    c = compute_c(alg, 1)
    assert coefs(c)[(0, 1)] == {(1, 0): 1, (0, 0): 1}
    assert coefs(c)[(1, 0)] == {(0, 1): -1, (0, 0): -1}


def test_diagonal_restriction_at_equal_parameters():
    # the slot exchange sends c_{s,t}(x,y) to (-1)^{rk} c_{t,s}(y,x), so the
    # diagonal restriction at s = t vanishes exactly when r*k is odd
    rng = random.Random(0)
    r1 = get_algebra("rank1")
    c1 = compute_c(r1, 3)   # rk = 3, odd
    for _ in range(10):
        x = rational_point(rng, r1)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert c1.evaluate(x, x, s, s) == 0
    # sym2, k = 1 has rk = 2: the diagonal value is (s+1) det x, not zero
    alg = get_algebra("sym2")
    c = compute_c(alg, 1)
    for _ in range(10):
        x = rational_point(rng, alg)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert c.evaluate(x, x, s, s) == (s + 1) * det(alg, x)


def cold(monkeypatch):
    """Forget every c(k), pencil chain and cache file read the process
    holds, as a new process would."""
    import rclab.brackets as B

    monkeypatch.setattr(B, "_memory_cache", {})
    monkeypatch.setattr(B, "_pencils", {})
    monkeypatch.setattr(B, "_on_disk", {})


def cached_c(alg, k, cache_dir):
    with pencil_cache(alg, cache_dir):
        return compute_c(alg, k)


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    import rclab.brackets as B

    alg = get_algebra("sym2")
    cold(monkeypatch)
    c2 = cached_c(alg, 2, str(tmp_path))
    path = tmp_path / "c_sym2.json"
    data = json.loads(path.read_text())
    assert data["format"] == B.CACHE_FORMAT == 2
    assert data["algebra"] == "sym2" and len(data["chain"]) == 3
    chain = B._pencils["sym2"]
    cold(monkeypatch)
    monkeypatch.setattr(B, "apply_D_power", None)   # a build would raise
    assert cached_c(alg, 2, str(tmp_path)) == c2
    assert B._pencils["sym2"] == chain
    assert os.listdir(tmp_path) == ["c_sym2.json"]


def test_disk_cache_rejects_a_misnamed_payload(tmp_path, monkeypatch):
    # another algebra's chain under this algebra's name is a miss, rewritten
    cold(monkeypatch)
    cached_c(get_algebra("sym2"), 3, str(tmp_path))
    (tmp_path / "c_sym2.json").rename(tmp_path / "c_rank1.json")
    want = compute_c(get_algebra("rank1"), 3)
    cold(monkeypatch)
    assert cached_c(get_algebra("rank1"), 3, str(tmp_path)) == want
    data = json.loads((tmp_path / "c_rank1.json").read_text())
    assert data["algebra"] == "rank1" and len(data["chain"]) == 4


def test_disk_cache_rewrites_an_old_format(tmp_path, monkeypatch):
    # a format-1 file, one c(k) in x, y monomials, is a miss, rewritten
    import rclab.brackets as B

    alg = get_algebra("sym2")
    path = tmp_path / "c_sym2.json"
    path.write_text(bracket_table_json(compute_c(alg, 1)))
    cold(monkeypatch)
    cached_c(alg, 1, str(tmp_path))
    assert json.loads(path.read_text())["format"] == B.CACHE_FORMAT


def test_disk_cache_extends_a_shorter_chain(tmp_path, monkeypatch):
    # c(2) from a file that holds c(0), c(1): one step, and the file rewritten
    import rclab.brackets as B

    alg = get_algebra("sym2")
    cold(monkeypatch)
    cached_c(alg, 1, str(tmp_path))
    path = tmp_path / "c_sym2.json"
    want = compute_c(alg, 2)
    cold(monkeypatch)
    steps = []
    monkeypatch.setattr(B, "apply_D_power",
                        lambda expr, k: steps.append(k) or apply_D_power(expr, k))
    assert cached_c(alg, 2, str(tmp_path)) == want
    assert steps == [1] and len(json.loads(path.read_text())["chain"]) == 3


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_a_chain_file_keeps_the_bytes_of_the_fraction_chain(name, tmp_path, monkeypatch):
    # the file of a chain built to the cap holds the Fraction chain's terms,
    # in its order, byte for byte
    alg, kmax = get_algebra(name), K_CAPS[name]
    cold(monkeypatch)
    cached_c(alg, kmax, str(tmp_path))
    chain = [[[list(e), [[i, j, f"{v.numerator}/{v.denominator}"] for (i, j), v in coef.items()]]
              for e, coef in terms.items()]
             for terms in pencil_chain(alg, kmax, fraction_operator(alg))]
    want = json.dumps({"format": 2, "algebra": name, "chain": chain}, separators=(",", ":"))
    assert (tmp_path / f"c_{name}.json").read_text() == want


def mangled_chain_file(tmp_path, monkeypatch, mangle):
    """c_sym2.json holding c(0..2) after ``mangle`` has changed its chain,
    and the bytes the intact file has."""
    cold(monkeypatch)
    cached_c(get_algebra("sym2"), 2, str(tmp_path))
    path = tmp_path / "c_sym2.json"
    text = path.read_text()
    data = json.loads(text)
    mangle(data["chain"])
    path.write_text(json.dumps(data))
    return path, text


def drop_an_exponent(chain):
    # the Delta-degree stays k; only the exponent count gives it away
    exps = chain[1][0][0]
    exps.remove(0)


def swap_entries(chain):
    chain[1], chain[2] = chain[2], chain[1]


@pytest.mark.parametrize("mangle", [drop_an_exponent, swap_entries])
def test_a_mangled_chain_file_is_a_miss(mangle, tmp_path, monkeypatch):
    alg = get_algebra("sym2")
    want = [compute_c(alg, k) for k in range(3)]
    path, text = mangled_chain_file(tmp_path, monkeypatch, mangle)
    cold(monkeypatch)
    assert [cached_c(alg, k, str(tmp_path)) for k in range(3)] == want
    assert path.read_text() == text


@pytest.mark.parametrize("name,kmax", [
    ("rank1", 8), ("sym2", 4), ("sym3", 1), ("spin3", 3), ("spin4", 3),
    ("spin5", 2), ("spin6", 2), ("spin7", 2), ("spin8", 2)])
def test_compute_c_recurrence_matches_the_definition(name, kmax, monkeypatch):
    # c(k) from c(k-1) by one power of D equals D^k on the seed, byte for byte
    import rclab.brackets as B

    monkeypatch.setattr(B, "_memory_cache", {})
    alg = get_algebra(name)
    for k in range(kmax + 1):
        seed = SymExpr.det_power_seed(alg, k, k)
        want = extract_bracket_polynomial(apply_D_power(seed, k), k)
        assert compute_c(alg, k) == want


def test_a_cold_compute_c_writes_its_own_file(tmp_path, monkeypatch):
    # one file per algebra, whatever k is asked for, and no .tmp left
    import rclab.brackets as B

    alg = get_algebra("sym2")
    cold(monkeypatch)
    c3 = cached_c(alg, 3, str(tmp_path))
    assert os.listdir(tmp_path) == ["c_sym2.json"]
    assert B._load_chain(str(tmp_path / "c_sym2.json"), alg) == B._pencils["sym2"]
    cold(monkeypatch)
    assert cached_c(alg, 3, str(tmp_path)) == c3


def test_a_build_reads_no_lower_file(tmp_path, monkeypatch):
    # a per-k file of the old layout is neither read nor rewritten
    alg = get_algebra("sym2")
    want = compute_c(alg, 2)
    path = tmp_path / "c_sym2_k1.json"
    misnamed = bracket_table_json(compute_c(get_algebra("spin3"), 1))
    path.write_text(misnamed)
    cold(monkeypatch)
    assert cached_c(alg, 2, str(tmp_path)) == want
    assert path.read_text() == misnamed
    assert sorted(os.listdir(tmp_path)) == ["c_sym2.json", "c_sym2_k1.json"]


def chain_length(path):
    return len(json.loads(path.read_text())["chain"])


def test_a_shorter_held_chain_leaves_a_longer_file(tmp_path, monkeypatch):
    # a process that already read the file and then holds a shorter chain
    # (it forgot its own, or a library caller built one) extends that chain
    # without writing it over the longer file
    import rclab.brackets as B

    alg = get_algebra("rank1")
    path = tmp_path / "c_rank1.json"
    cold(monkeypatch)
    cached_c(alg, 8, str(tmp_path))
    assert chain_length(path) == 9
    monkeypatch.setattr(B, "_memory_cache", {})
    monkeypatch.setattr(B, "_pencils", {})
    compute_c(alg, 1)
    cached_c(alg, 3, str(tmp_path))
    assert chain_length(path) == 9


def test_a_held_chain_takes_a_longer_file_that_agrees(tmp_path, monkeypatch):
    import rclab.brackets as B

    alg = get_algebra("rank1")
    cold(monkeypatch)
    c8 = cached_c(alg, 8, str(tmp_path))
    cold(monkeypatch)
    compute_c(alg, 1)
    monkeypatch.setattr(B, "apply_D_power", None)   # a build would raise
    assert cached_c(alg, 8, str(tmp_path)) == c8
    assert len(B._pencils["rank1"]) == 9


def test_a_file_that_disagrees_with_the_held_chain_is_overwritten(tmp_path, monkeypatch):
    # a longer file whose c(1) is off in one coefficient is not taken, and
    # the held chain replaces it
    import rclab.brackets as B

    alg = get_algebra("rank1")
    path = tmp_path / "c_rank1.json"
    cold(monkeypatch)
    cached_c(alg, 4, str(tmp_path))
    data = json.loads(path.read_text())
    data["chain"][1][0][1][0][2] = "7/1"
    path.write_text(json.dumps(data))
    cold(monkeypatch)
    c2 = compute_c(alg, 2)
    assert cached_c(alg, 2, str(tmp_path)) == c2
    assert chain_length(path) == 3
    assert B._load_chain(str(path), alg) == B._pencils["rank1"]


def test_compute_C_k0_is_one():
    alg = get_algebra("sym2")
    C = compute_C(alg, 0, 2, 2)
    assert poly_items(C.poly) == [((0, 0), Fraction(1))]


def test_compute_C_rank1_k1_formula():
    # C(1)_{lam,mu}(v) = (lam-mu)/2 + (lam+mu+2) v / 2
    C = compute_C(get_algebra("rank1"), 1, Fraction(3), Fraction(5))
    assert poly_items(C.poly) == [((0,), Fraction(-1)), ((1,), Fraction(5))]
    C2 = compute_C(get_algebra("rank1"), 1, Fraction(2), Fraction(7))
    assert C2.poly.exact((Fraction(0),)) == Fraction(-5, 2)


def test_compute_C_symbolic_parameters():
    C = compute_C(get_algebra("rank1"), 1)
    # coefficient of v is (s + t + 2)/2 as a parameter polynomial
    assert coefs(C)[(1,)] == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
                              (0, 0): Fraction(1)}


@pytest.mark.parametrize("params", [(0, 0), (1, 2), (3, 3)])
def test_jacobi_proportionality_exact(params):
    lam, mu = params
    for k in range(7):
        ratio = jacobi_proportionality(k, lam, mu)
        assert ratio != 0
        # measured constant: k! for this normalization of the pipeline
        import math

        assert ratio == math.factorial(k)


def chi_covariance_reference(algebra, kmax, samples=50):
    """The samples at which c(k)(P(a)x, P(a)y) = det(a)^(2k) c(k)(x, y) fails,
    per k = 0..kmax, over Fractions, each sample drawn once for every k."""
    rng = random.Random(2024)
    draws = [(cone_point(rng, algebra), rational_point(rng, algebra), rational_point(rng, algebra),
              [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in "st"])
             for _ in range(samples)]
    out = []
    for k in range(kmax + 1):
        c = compute_c(algebra, k)
        out.append([i for i, (a, x, y, st) in enumerate(draws) if c.evaluate_specialized(
            c.specialize(*st), quad_rep(algebra, a, x), quad_rep(algebra, a, y))
            != det(algebra, a) ** (2 * k) * c.evaluate_specialized(c.specialize(*st), x, y)])
    return out


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_chi_covariance_matches_the_fraction_reference(name):
    # no suite checks the covariance: it holds by construction once the
    # certificate ties c(k) to the pencil form; over Fractions every sample
    # of every k matches
    from rclab.cli import _check_k

    alg = get_algebra(name)
    assert chi_covariance_reference(alg, _check_k(alg)) == [[]] * (_check_k(alg) + 1)


def test_chi_covariance_catches_a_wrong_coefficient(monkeypatch, wrong_c1):
    from rclab import brackets

    alg = get_algebra("spin4")
    monkeypatch.setitem(brackets._memory_cache, ("spin4", 1), wrong_c1(alg))
    assert [bool(v) for v in chi_covariance_reference(alg, 2)] == [False, True, False]


def test_iota_factorization_rank1_v0():
    # at v = 0, k = 1: both sides equal det(eta) (lam - mu)/2
    alg = get_algebra("rank1")
    c = compute_c(alg, 1)
    lam, mu = Fraction(5), Fraction(2)
    spec = c.specialize(lam, mu)
    x, y = iota(alg, np.array([[1.7]]), np.array([[0.0]]))
    lhs = spec.numeric(np.hstack([x, y]))[0]
    assert abs(lhs - 1.7 * (5 - 2) / 2) < 1e-12


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_the_frame_of_the_oracles(name):
    # sum a_i c_i has the eigenvalues a and the determinant prod a_i, and the
    # frame sums to e
    alg = get_algebra(name)
    a = [Fraction(3, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-5, 4)][:alg.r]
    v = frame(alg, a)
    got = spectral(alg, np.array(v, dtype=float)[None])[0]
    assert np.allclose(got, sorted(map(float, a)), rtol=0, atol=1e-14)
    assert det(alg, v) == prod(a)
    assert frame(alg, [1] * alg.r) == alg.e_coords


def test_emitters_deterministic():
    alg = get_algebra("sym2")
    c = compute_c(alg, 1)
    assert bracket_table_csv(c) == bracket_table_csv(c)
    latex = bracket_table_latex(c)
    assert latex.startswith("\\begin{tabular}{ll}")
    assert latex.count("\\\\") >= c.num_monomials()
    data = json.loads(bracket_table_json(c))
    assert data["schema"] == "rc-lab/1"


EMITTERS = (bracket_table_json, bracket_table_csv, bracket_table_latex)


def test_the_three_tables_of_a_c_k_read_its_rows_once(monkeypatch):
    # each format read Poly.rows and labelled every row again
    import rclab.brackets as B

    calls = []
    rows = Poly.rows

    def counted(poly):
        calls.append(poly)
        return rows(poly)

    monkeypatch.setattr(Poly, "rows", counted)
    monkeypatch.setattr(B, "_rendered", [None, None])
    c = compute_c(get_algebra("sym2"), 2)
    for emit in EMITTERS:
        emit(c)
    assert calls == [c.poly]


def test_a_c_k_built_again_renders_its_own_tables(monkeypatch):
    # the emitters hold the rows of the c(k) last rendered: a c(k) built
    # again for the same (algebra, k), from a chain with one coefficient
    # changed, must not be written with them
    import rclab.brackets as B

    alg = get_algebra("sym2")
    c1 = compute_c(alg, 1)
    before = [emit(c1) for emit in EMITTERS]
    chain = B._pencil(alg, 1)
    terms = {e: dict(c) for e, c in chain.terms.items()}
    coef = terms.setdefault((0,) * alg.r + (1,), {})
    coef[0, 0] = coef.get((0, 0), 0) + chain.den
    with monkeypatch.context() as m:
        m.setitem(B._pencils, alg.name, [B._pencil(alg, 0), SymExpr(alg, terms, chain.den)])
        m.setattr(B, "_memory_cache", {})
        other = compute_c(alg, 1)
        assert other != c1
        after = [emit(other) for emit in EMITTERS]
        m.setattr(B, "_rendered", [None, None])
        assert after == [emit(other) for emit in EMITTERS]
    assert all(a != b for a, b in zip(after, before))
    assert [emit(c1) for emit in EMITTERS] == before


def test_ortho_poly_degree_bound():
    alg = get_algebra("sym2")
    for k in (1, 2):
        C = compute_C(alg, k, 3, 3)
        assert C.poly.exps.sum(axis=1).max() <= alg.r * k


@pytest.mark.parametrize("name", ["sym2", "spin4"])
def test_tables_match_the_golden_files(name):
    # the CSV and LaTeX bytes of c(2), as the tables were first written
    c = compute_c(get_algebra(name), 2)
    for emit, ext in ((bracket_table_csv, "csv"), (bracket_table_latex, "tex")):
        with open(os.path.join(FIXTURES, f"c_{name}_k2.{ext}")) as fh:
            assert emit(c) == fh.read()


def test_restriction_needs_both_weights_or_neither():
    with pytest.raises(ValueError):
        compute_C(get_algebra("rank1"), 1, 3)


@pytest.mark.parametrize("weights", [(), (3, 2)])
def test_restriction_refuses_a_negative_k(weights):
    # as compute_c does; a negative k must not read the end of the chain
    with pytest.raises(ValueError, match="k must be >= 0"):
        compute_C(get_algebra("sym2"), -1, *weights)


def frame_forms(alg):
    """x = F(1 - a)/2 and y = F(1 + a)/2 on the frame F of ``frame_matrix``, as
    2n linear forms {exponent tuple of a_1..a_r: Fraction} in the eigenvalues."""
    one = (0,) * alg.r
    forms = []
    for sign in (-1, 1):
        for row in frame_matrix(alg):
            form = {one: sum(row) / 2}
            form.update({tuple(int(j == i) for j in range(alg.r)): sign * f / 2
                         for i, f in enumerate(row)})
            forms.append({m: v for m, v in form.items() if v})
    return forms


def times(p, q):
    """The product of two {exponent tuple: coefficient} polynomials."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def on_the_frame(forms, mono, r, weight):
    """weight times the x, y monomial ``mono`` at the frame ``forms``, a
    polynomial in a_1..a_r."""
    acc = {(0,) * r: weight}
    for form, e in zip(forms, mono):
        for _ in range(e):
            acc = times(acc, form)
    return acc


def restriction_reference(c, lam, mu):
    """C(k)_{lam,mu} from c(k)_{lam,mu} term by term over Fractions: each
    monomial at x = F(1 - a)/2, y = F(1 + a)/2, one coordinate at a time."""
    forms = frame_forms(c.algebra)
    terms = {}
    for mono, value in poly_items(c.poly.at(lam, mu)):
        for m, w in on_the_frame(forms, mono, c.algebra.r, value).items():
            terms[m] = terms.get(m, 0) + w
    return Poly.from_terms(terms, c.algebra.r)


def restriction_over_Q_s_t(algebra, c):
    """C(k) from the x, y monomials of c(k), over Q[s,t]: each monomial at the
    integer forms 4x, 4y of the frame (every monomial has degree rk, so each
    takes 4^-(rk) into the denominator), summed term by term."""
    forms = [{m: int(4 * v) for m, v in form.items()} for form in frame_forms(algebra)]
    terms = {}
    for mono, coef in c.poly.rows():
        for m, w in on_the_frame(forms, mono, algebra.r, 1).items():
            acc = terms.setdefault(m, {})
            for i, j, p, q in coef:
                acc[i, j] = acc.get((i, j), 0) + w * Fraction(p, q)
    return Poly.from_terms(terms, algebra.r, 4 ** (algebra.r * c.k))


CAPPED_CASES = [(name, k) for name, cap in K_CAPS.items() for k in range(cap + 1)]


@pytest.mark.parametrize("name, k", CAPPED_CASES)
def test_compute_C_is_the_restriction_of_the_specialized_c(name, k):
    alg = get_algebra(name)
    c = compute_c(alg, k)
    for lam, mu in ((3, 3), (Fraction(7, 2), Fraction(5, 2)), (Fraction(-1, 3), 4), (0, 0)):
        assert compute_C(alg, k, lam, mu).poly == restriction_reference(c, lam, mu)


@pytest.mark.parametrize("name, k", CAPPED_CASES)
def test_compute_C_is_the_restriction_of_c_over_Q_s_t(name, k):
    # C(k) comes from the pencil form over the eigenvalue tables, the oracle
    # from the x, y monomials of c(k) on a Jordan frame
    alg = get_algebra(name)
    assert compute_C(alg, k).poly == restriction_over_Q_s_t(alg, compute_c(alg, k))


def test_compute_C_ignores_a_replaced_c(monkeypatch, tmp_path, wrong_c1):
    # C(k) reads no c(k), so a wrong c(1) leaves C(1) as it was, and the
    # certificate, which puts c(1) against the chain, fails
    from rclab import brackets
    from rclab.cli import main

    for name in ("rank1", "spin4"):
        alg = get_algebra(name)
        before = compute_C(alg, 1).poly
        out = tmp_path / f"poly_{name}.json"
        with monkeypatch.context() as m:
            m.setitem(brackets._memory_cache, (name, 1), wrong_c1(alg))
            assert compute_C(alg, 1).poly == before
            assert main(["check", "polynomiality", "--algebra", name, "--output", str(out)]) == 1
        assert json.loads(out.read_text())["reports"][0]["error"] == (
            f"NonzeroRemainder: {name} k=1: the x, y expansion differs from the pencil form "
            f"at sample 0")


@pytest.mark.parametrize("table, side", [("_pencil_tables", "x, y"),
                                         ("_eigen_tables", "eigenvalue")], ids=["pencil", "eigen"])
@pytest.mark.parametrize("name", ["rank1", "sym2", "sym3", "sym4", "spin4", "spin6", "spin8"])
def test_a_wrong_table_entry_fails_polynomiality(monkeypatch, fresh_tables, name, table, side):
    # one entry of Delta_0 (the first monomial of det x, or the constant of
    # prod (1 - a_i)) off by one: the expansion is no longer the pencil form,
    # and the certificate names the side, k and the first sample that
    # differs (sym3 and spin4 agree at sample 0 on the x, y side)
    from rclab import brackets, sympoly
    from rclab.cli import run_suites

    alg = get_algebra(name)
    tables = getattr(sympoly, table)(alg)
    rows = [dict(row) for row in tables.rows]
    rows[0][min(rows[0])] += 1
    wrong = sympoly._TableSet(rows, tables.nvars, tables.den)
    monkeypatch.setattr(sympoly, table, lambda algebra: wrong)
    monkeypatch.setattr(brackets, "_memory_cache", {})
    [rep], ok = run_suites(alg, "polynomiality")
    sample = int(side == "x, y" and name in ("sym3", "spin4"))
    assert not ok and rep["error"] == (f"NonzeroRemainder: {name} k=1: the {side} expansion "
                                       f"differs from the pencil form at sample {sample}")


def test_certificate_raises_past_int64_instead_of_wrapping():
    # rank 1's eigenvalue-side pencil form is bounded by 2^61.7 at k = 8 and
    # by 2^70.8 at k = 9, past the caps that polynomiality checks
    alg = get_algebra("rank1")
    certify_expansions(alg, 8)
    with pytest.raises(OverflowError, match="rank1 k=9: the eigenvalue certificate: "
                                            "Poly.values: int64 entries could reach"):
        certify_expansions(alg, 9)


def test_int64_stages_have_headroom_at_the_caps(monkeypatch):
    # both expansions at every k up to the cap, and the certificate at every
    # k that polynomiality checks, stay below the int64 bounds: the largest
    # are 2^31 (expansion) and 2^44 (values and the pencil form)
    from rclab import brackets
    from rclab.cli import _check_k

    monkeypatch.setattr(brackets, "_memory_cache", {})
    for name in ALGEBRA_NAMES:
        alg = get_algebra(name)
        for k in range(K_CAPS[name] + 1):
            compute_c(alg, k), compute_C(alg, k)
        for k in range(_check_k(alg) + 1):
            certify_expansions(alg, k)


def monomial_symmetric(a, kappa):
    """m_kappa at the eigenvalue rows of a: the sum of a^p over the distinct
    permutations p of kappa."""
    return sum(np.prod(a ** np.array(p), axis=1) for p in sorted(set(permutations(kappa))))


def box_ratios(alg, k, lam=3, mu=2):
    """|<C(k), m_kappa>| / (|C(k)| |m_kappa|) under the interval weight at
    (lam, mu), for every partition kappa in the r x k box but (k^r), with
    m_kappa the monomial symmetric polynomial of the r eigenvalues.

    C(k) is the BC_r Jacobi polynomial of the rectangle (k^r) (Heckman and
    Opdam, Compositio Math. 64, 1987; Koornwinder, Contemp. Math. 138, 1992):
    orthogonal to every m_kappa but its own, which with its support in the
    box fixes it up to a scalar, with no use of the operator or the chain.
    The chamber rule is exact for these polynomial integrands.
    """
    C = compute_C(alg, k, lam, mu)
    kappas = [kappa for kappa in combinations_with_replacement(range(k, -1, -1), alg.r)
              if kappa != (k,) * alg.r]

    def integrands(a):
        c = C.poly.numeric(a)
        ms = [monomial_symmetric(a, kappa) for kappa in kappas]
        return np.stack([c * c] + [c * m for m in ms] + [m * m for m in ms], axis=1)

    vals = weyl_integral(alg, integrands, lam, mu, n=24)
    cross, norms = vals[1:len(kappas) + 1], vals[len(kappas) + 1:]
    return np.abs(cross) / np.sqrt(vals[0] * norms)


@pytest.mark.parametrize("name, k", [(name, k) for name, k in CAPPED_CASES if k])
def test_C_is_orthogonal_to_the_rest_of_its_box(name, k):
    alg = get_algebra(name)
    ratios = box_ratios(alg, k)
    assert len(ratios) == comb(k + alg.r, alg.r) - 1
    assert ratios.max() < 1e-12, ratios.max()


def c1_change(alg, j, twin=True):
    """c(0) and c(1) plus Delta_j + (-1)^r Delta_{r-j}, a change of the chain
    that keeps slot exchange; without its ``twin`` Delta_{r-j}, one that
    breaks it.  j = r changes the two corners."""
    from rclab import brackets

    r, c1 = alg.r, brackets._pencil(alg, 1)
    terms = {e: dict(c) for e, c in c1.terms.items()}
    for i, step in ((j, 1), (r - j, twin * (-1) ** r)):
        coef = terms.setdefault(tuple(int(m == i) for m in range(r + 1)), {})
        coef[0, 0] = coef.get((0, 0), 0) + step * c1.den
    return [brackets._pencil(alg, 0), SymExpr(alg, terms, c1.den)]


def test_the_box_oracle_catches_a_chain_that_keeps_slot_exchange(monkeypatch):
    # the box oracle reads no chain (the certificate's corners fail it too)
    from rclab import brackets

    for name in ("sym2", "sym3", "spin3", "spin4", "spin5", "spin6", "spin7", "spin8"):
        with monkeypatch.context() as m:
            m.setitem(brackets._pencils, name, c1_change(get_algebra(name), get_algebra(name).r))
            m.setattr(brackets, "_memory_cache", {})
            assert box_ratios(get_algebra(name), 1).max() > 1e-3, name


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_a_chain_with_wrong_corners_fails_check_all(monkeypatch, name):
    # exchange and both expansions hold: only the corners in polynomiality,
    # which check all runs everywhere, see it; without its twin exchange does
    from rclab import brackets
    from rclab.cli import _plan, run_suites

    alg = get_algebra(name)
    kept, broken = c1_change(alg, alg.r), c1_change(alg, alg.r, twin=False)
    monkeypatch.setitem(brackets._pencils, name, kept)
    monkeypatch.setattr(brackets, "_memory_cache", {})
    [rep], ok = run_suites(alg, "polynomiality")
    assert not ok and "k=1: the coefficient of Delta_r^k" in rep["error"]
    assert run_suites(alg, "exchange")[1] and "polynomiality" in _plan(alg, "all", {})
    monkeypatch.setitem(brackets._pencils, name, broken)
    assert [rep["pass"] for rep in run_suites(alg, "exchange")[0][:2]] == [True, False]


@pytest.mark.parametrize("name", [name for name in ALGEBRA_NAMES if name != "rank1"])
def test_a_change_inside_the_chain_fails_check_all_through_the_box(monkeypatch, tmp_path, name):
    # c(1) + Delta_1 + (-1)^r Delta_{r-1} keeps slot exchange, both corners
    # and both expansions; without the box certificate check all passed it
    # for sym3, sym4 and spin3..spin8
    from rclab import brackets
    from rclab.cli import main

    alg = get_algebra(name)
    monkeypatch.setitem(brackets._pencils, name, c1_change(alg, 1))
    monkeypatch.setattr(brackets, "_memory_cache", {})
    out = tmp_path / "check.json"
    assert main(["check", "all", "--algebra", name, "--output", str(out)]) == 1
    reports = json.loads(out.read_text())["reports"]
    [error] = [rep["error"] for rep in reports if rep.get("suite") == "polynomiality"]
    assert f"k=1, (lambda, mu) = (3, 2): <C(k), m_kappa> is not 0" in error
    assert f"of the {alg.r} x 1 box" in error
    assert all(rep["pass"] for rep in reports if rep["check"] == "slot-exchange-antisymmetry")


def changed_C(monkeypatch, change):
    """brackets.compute_C replaced by ``change`` of what it returns, as
    (algebra, k, lam, mu, C) -> Poly."""
    from rclab import brackets

    real = brackets.compute_C
    monkeypatch.setattr(brackets, "compute_C", lambda alg, k, lam, mu: brackets.OrthoPoly(
        alg, change(alg, k, lam, mu, real)))


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_the_box_certificate_fails_sums_at_a_weight_off_by_one(monkeypatch, name):
    # the box sums at (lam + 1, mu) against C(k) at (lam, mu)
    changed_C(monkeypatch, lambda alg, k, lam, mu, real: real(alg, k, lam - 1, mu).poly)
    with pytest.raises(NonzeroRemainder, match=r"k=1, \(lambda, mu\) = \(4, 2\): <C\(k\), m_kappa> is not 0"):
        certify_box(get_algebra(name), 1, 4, 2)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_the_box_certificate_fails_an_exponent_above_k(monkeypatch, name):
    def grown(alg, k, lam, mu, real):
        terms = dict(poly_items(real(alg, k, lam, mu).poly))
        terms[(k + 1,) + (0,) * (alg.r - 1)] = 1
        return Poly.from_terms(terms, alg.r)

    changed_C(monkeypatch, grown)
    with pytest.raises(NonzeroRemainder, match="an exponent above k"):
        certify_box(get_algebra(name), 1, 3, 2)


@pytest.mark.parametrize("k", range(1, 7))
def test_a_rank1_C_scaled_in_one_coefficient_fails_the_box_and_jacobi(monkeypatch, k):
    # its lowest monomial doubled: C(k) is no longer orthogonal to it
    def scaled(alg, k, lam, mu, real):
        C = real(alg, k, lam, mu).poly
        assert C.exps[0, 0] < k
        coef = C.coef.copy()
        coef[0] *= 2
        return Poly(C.exps, coef, C.den)

    changed_C(monkeypatch, scaled)
    with pytest.raises(NonzeroRemainder, match=f"rank1 k={k}, .*: <C\\(k\\), m_kappa> is not 0"):
        certify_box(get_algebra("rank1"), k, 1, 2)
    with pytest.raises(NonzeroRemainder, match=f"rank1 k={k}, .*: <C\\(k\\), m_kappa> is not 0"):
        jacobi_proportionality(k, 1, 2)


def test_the_jacobi_report_reads_k_factorial():
    from rclab.cli import run_suites

    [rep], ok = run_suites(get_algebra("rank1"), "jacobi")
    assert ok and len(rep["rows"]) == 21
    assert all(row["ratio"] == f"{factorial(row['k'])}/1" for row in rep["rows"])
