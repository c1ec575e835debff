"""Quadrature rules, cone integrals, interval integrals, Gram matrices."""

import functools
import math
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest

from rclab import quadrature
from rclab.algebra import ALGEBRA_NAMES, get_algebra
from rclab.cli import SUITE_TABLE
from rclab.poly import Poly
from rclab.quadrature import (
    gauss_jacobi, gauss_legendre, gauss_laguerre, MAX_LAGUERRE_NODES,
    gamma_omega_closed, gamma_omega_numeric,
    weyl_integral, gram_matrix,
    tube_laplace, check_change_of_variables,
)
from rclab.tube import check_J_factorization, logdet_tube, _default_tube_points

from recurrence_ref import gauss_from_recurrence


def test_gauss_rule_invariants():
    # positive weights; sum of weights = zeroth moment to 1e-12
    r = gauss_jacobi(48, 1.0, 2.0)
    assert (r.weights > 0).all()
    m0 = 2.0**4 * math.gamma(2.0) * math.gamma(3.0) / math.gamma(5.0)
    assert abs(r.weights.sum() - m0) < 1e-12
    r = gauss_legendre(64)
    assert abs(r.weights.sum() - 2.0) < 1e-12
    r = gauss_laguerre(96, 0.0)
    assert abs(r.weights.sum() - 1.0) < 1e-12
    r = gauss_laguerre(40, 2.5)
    assert abs(r.weights.sum() - math.gamma(3.5)) < 1e-11 * math.gamma(3.5)


# the algebras whose check-all rules are compared with the reference loop
CHECKED_RULE_ALGEBRAS = ("rank1", "sym2", "spin4", "spin5", "spin6", "spin7", "spin8")


@pytest.fixture(scope="module")
def check_all_rules(tmp_path_factory):
    """Every Gauss rule that check all builds for CHECKED_RULE_ALGEBRAS, each
    built afresh: {(kind, key): (n, a, b, rule, Newton passes, weight
    passes)}, with the recurrence (a, b) the rule was built from."""
    from rclab.cli import main

    tmp = tmp_path_factory.mktemp("check-all-rules")
    calls, built, per_rule = {}, [], {}
    newton, weights = quadrature._newton_step, quadrature._christoffel_weights
    from_recurrence = quadrature._gauss_from_recurrence

    def counted(kind, fn):
        def run(*args):
            calls[kind] += 1
            return fn(*args)

        return run

    def recorded(n, a, b):
        rule = from_recurrence(n, a, b)
        built.append((n, a.copy(), b.copy(), rule))
        return rule

    def counted_rule(kind, rule):
        @functools.cache
        def build(*key):
            calls.update(newton=0, weights=0)
            out = rule.__wrapped__(*key)
            per_rule[kind, key] = (*built[-1], calls["newton"], calls["weights"])
            return out

        return build

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_newton_step", counted("newton", newton))
        mp.setattr(quadrature, "_christoffel_weights", counted("weights", weights))
        mp.setattr(quadrature, "_gauss_from_recurrence", recorded)
        mp.setattr(quadrature, "_jacobi_rule",
                   counted_rule("gauss-jacobi", quadrature._jacobi_rule))
        mp.setattr(quadrature, "_laguerre_rule",
                   counted_rule("gauss-laguerre", quadrature._laguerre_rule))
        for name in CHECKED_RULE_ALGEBRAS:
            assert main(["check", "all", "--algebra", name, "--cache-dir", str(tmp),
                         "--output", str(tmp / f"{name}.json")]) == 0
    return per_rule


def test_check_all_builds_no_rule_past_80_nodes(monkeypatch):
    # each rule is O(n^3) through the dense eigvalsh of its Jacobi matrix;
    # the isometry check's x axis once took a 560-node rule of its own, the
    # partial isometry a 220-node one and the Bergman isometry two of 140
    # nodes; sym2's 80-node gamma rule is now the most
    from rclab.cli import run_suites

    sizes = []
    build = quadrature._gauss_from_recurrence
    monkeypatch.setattr(quadrature, "_gauss_from_recurrence",
                        lambda n, a, b: sizes.append(n) or build(n, a, b))
    for cached in ("_jacobi_rule", "_laguerre_rule", "_rays"):   # every rule afresh
        monkeypatch.setattr(quadrature, cached,
                            functools.cache(getattr(quadrature, cached).__wrapped__))
    for name in ("rank1", "sym2"):
        assert run_suites(get_algebra(name), "all")[1], name
    assert sizes and max(sizes) <= 80, sorted(set(sizes))


def test_newton_stops_at_the_rounding_floor(check_all_rules):
    # every rule that check all builds takes at most three Newton passes over
    # the recurrence and one pass for the weights
    assert {kind for kind, _ in check_all_rules} == {"gauss-jacobi", "gauss-laguerre"}
    passes = {key: rec[-2:] for key, rec in check_all_rules.items()}
    assert all(1 <= newton <= 3 and weights == 1
               for newton, weights in passes.values()), passes


def _assert_reference_bits(n, a, b, rule):
    nodes, weights = gauss_from_recurrence(n, a, b, b[0])
    assert np.array_equal(rule.nodes, nodes), n
    assert np.array_equal(rule.weights, weights), n


def test_check_all_rules_have_the_reference_bits(check_all_rules):
    # the two-pass rules match the loop that ran the whole recurrence in
    # every pass, bit for bit, on every rule of check all
    assert len(check_all_rules) >= 10
    for n, a, b, rule, _, _ in check_all_rules.values():
        _assert_reference_bits(n, a, b, rule)


def _recurrences(monkeypatch):
    """Capture the (n, a, b) of each rule built while this is installed."""
    seen = []

    def capture(n, a, b):
        seen.append((n, a, b))
        return quadrature.QuadratureRule(np.zeros(n), np.zeros(n))

    monkeypatch.setattr(quadrature, "_gauss_from_recurrence", capture)
    return seen


def test_laguerre_rules_past_the_rescale_have_the_reference_bits(monkeypatch):
    # from 187 nodes the 2^256 rescale fires, and each pass now decides it
    # from its own rows; every weight keeps its bits
    seen = _recurrences(monkeypatch)
    for n in range(187, MAX_LAGUERRE_NODES + 1):
        quadrature._laguerre_rule.__wrapped__(n, 0.0)
    for n in (187, 220, MAX_LAGUERRE_NODES):
        quadrature._laguerre_rule.__wrapped__(n, 11.0)
    monkeypatch.undo()
    for n, a, b in seen:
        _assert_reference_bits(n, a, b, quadrature._gauss_from_recurrence(n, a, b))


def test_heavy_jacobi_rules_have_the_reference_bits(monkeypatch):
    # alpha or beta about 151-165, where the mass comes from lgamma
    seen = _recurrences(monkeypatch)
    for big in (151.5, 155.0, 160.0, 165.0):
        for n in (20, 60):
            quadrature._jacobi_rule.__wrapped__(n, big, 3.0)
            quadrature._jacobi_rule.__wrapped__(n, 0.0, big)
    quadrature._jacobi_rule.__wrapped__(200, 160.0, 3.0)
    monkeypatch.undo()
    for n, a, b in seen:
        _assert_reference_bits(n, a, b, quadrature._gauss_from_recurrence(n, a, b))


def test_gauss_laguerre_moments_at_128_nodes():
    for alpha in (0.0, 1.8, 2.5, 5.6):
        rule = gauss_laguerre(128, alpha)
        for k in range(41):
            got = math.fsum(rule.weights * rule.nodes**k)
            assert abs(got / math.gamma(k + alpha + 1) - 1) < 1e-12, (alpha, k)


def test_gauss_laguerre_does_not_overflow_up_to_256_nodes():
    # the Christoffel sum of the largest nodes overflowed from n = 187
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n in (187, 256):
            for alpha in (0.0, 2.5, 11.0):
                rule = quadrature._laguerre_rule.__wrapped__(n, alpha)
                assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights >= 0)
                for k in range(41):
                    got = math.fsum(rule.weights * rule.nodes**k)
                    assert abs(got / math.gamma(k + alpha + 1) - 1) < 1e-12, (n, alpha, k)


def test_rescaled_christoffel_sum_keeps_the_bits():
    # powers of two are exact: where the plain sum of squares is a normal
    # float, the rescaled weights are the same bits
    n, alpha = 186, 0.0
    x = np.array(gauss_laguerre(n, alpha).nodes)
    a = np.array([2 * k + alpha + 1 for k in range(n)], dtype=float)
    b = np.array([1.0] + [k * (k + alpha) for k in range(1, n + 1)])
    got = quadrature._christoffel_weights(x, a.tolist(), np.sqrt(b).tolist(), n)
    p_prev, p, plain = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    top = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            plain += p ** 2
            sb = math.sqrt(b[j]) if j > 0 else 0.0
            p_prev, p = p, ((x - a[j]) * p - sb * p_prev) / math.sqrt(b[j + 1])
            top = max(top, np.abs(p[:-1]).max())
        w = 1.0 / plain
    assert top > 2.0 ** 256     # so the rescale fired
    normal = w >= np.finfo(float).tiny
    assert normal.sum() >= n - 2
    assert np.array_equal(got[normal], w[normal])


@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_the_growth_bound_holds_at_every_step(monkeypatch, slope):
    # a pass skips its overflow test while the bound grown by _growth stays
    # under 2^255; from the true maxima of two steps that bound must reach
    # the next true maximum, or a skipped test could have fired.  Rows p
    # (slope 0) and (p, p') (slope 1), over rules where the growth is nearly
    # as large as the bound and over ones where it is far below it
    seen = _recurrences(monkeypatch)
    quadrature._laguerre_rule.__wrapped__(256, 0.0)
    quadrature._laguerre_rule.__wrapped__(100, 11.0)
    quadrature._jacobi_rule.__wrapped__(140, 0.0, 0.0)
    quadrature._jacobi_rule.__wrapped__(60, 2.5, 160.0)
    monkeypatch.undo()
    tight = 0.0
    for n, a, b in seen:
        x = quadrature._gauss_from_recurrence(n, a, b).nodes
        sb = np.sqrt(b)
        g, h = quadrature._growth(x, a.tolist(), sb.tolist(), n, slope)
        P_prev, P = np.zeros((2, n)), np.zeros((2, n))
        P[0] = 1.0 / sb[0]
        for j in range(n):
            nxt = ((x - a[j]) * P - (sb[j] if j > 0 else 0.0) * P_prev) / sb[j + 1]
            nxt[1] += slope * P[0] / sb[j + 1]
            top, bound = np.abs(nxt).max(), g[j] * np.abs(P).max() + h[j] * np.abs(P_prev).max()
            assert top <= bound * (1 + 1e-12), (n, j)
            tight = max(tight, top / bound)
            # the next step from these maxima, scaled by a power of two
            f = 2.0 ** -math.frexp(top)[1]
            P_prev, P = P * f, nxt * f
    assert tight > 0.6      # halved, the bound would fail some step


def test_gauss_jacobi_degree_exactness():
    # rule with N nodes integrates polynomials of degree 2N-1 exactly
    rule = gauss_jacobi(6, 1.0, 1.0)
    for deg in range(0, 12):
        got = float(np.sum(rule.weights * rule.nodes**deg))
        want = _jacobi_moment(deg, 1, 1)
        assert abs(got - want) < 1e-13, deg


def test_chebyshev_rule_at_alpha_plus_beta_minus_one():
    # b[1] divided 0 by 0 when alpha + beta = -1 (ZeroDivisionError)
    rule = gauss_jacobi(5, -0.5, -0.5)
    assert np.allclose(rule.nodes, np.cos((9 - 2 * np.arange(5)) * np.pi / 10), 0, 1e-15)
    assert np.allclose(rule.weights, np.pi / 5, rtol=4e-15, atol=0)


def test_jacobi_rule_at_alpha_plus_beta_minus_one_is_exact():
    # the Beta moments: x = 2u - 1 with u ~ Beta(1/4, 3/4), whose moments are in Q,
    # times the mass Gamma(3/4) Gamma(1/4) = pi sqrt(2)
    rule, b = gauss_jacobi(5, -0.25, -0.75), Fraction(1, 4)
    for m in range(10):
        moment = sum(math.comb(m, j) * (-1) ** (m - j) * 2 ** j
                     * math.prod((b + i) / (1 + i) for i in range(j)) for j in range(m + 1))
        want = math.pi * math.sqrt(2) * float(moment)
        assert abs(np.sum(rule.weights * rule.nodes ** m) - want) <= 1e-14 * abs(want), m


@pytest.mark.parametrize("big", [155.0, 160.0, 165.0])
@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_jacobi_mass_past_the_product_overflow(big, side):
    # 2^(alpha+beta+1) Gamma(alpha+1) Gamma(beta+1) overflows to inf from
    # about 151 without raising, and the rule came out NaN; at the other
    # weight 0 the mass is 2^(big+1) B(1, big+1) = 2^(big+1) / (big+1)
    alpha, beta = (big, 0.0) if side == "alpha" else (0.0, big)
    rule = gauss_jacobi(80, alpha, beta)
    assert np.isfinite(rule.nodes).all() and np.isfinite(rule.weights).all()
    want = 2.0 ** (big + 1) / (big + 1)
    assert abs(rule.weights.sum() - want) <= 1e-12 * want


def test_gauss_rules_are_cached_and_read_only():
    # one rule per (n, alpha, beta), shared by every caller and frozen
    rule = gauss_jacobi(24, 1, 2.0)
    assert gauss_jacobi(24, 1.0, 2) is rule
    assert gauss_laguerre(40, 2.5) is gauss_laguerre(40, 2.5)
    for arr in (rule.nodes, rule.weights, gauss_laguerre(40, 2.5).nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights *= 2.0
    assert abs(gauss_jacobi(24, 1.0, 2.0).weights.sum()
               - 2.0**4 * math.gamma(2.0) * math.gamma(3.0) / math.gamma(5.0)) < 1e-12
    # distinct alphas stay distinct rules
    a, b = gauss_laguerre(40, 2.5), gauss_laguerre(40, 2.0)
    assert a is not b and not np.array_equal(a.nodes, b.nodes)
    assert abs(b.weights.sum() - math.gamma(3.0)) < 1e-11 * math.gamma(3.0)
    # Legendre is the Jacobi rule at alpha = beta = 0
    assert gauss_legendre(32).nodes is gauss_jacobi(32, 0, 0).nodes
    # arguments are rejected before the cache is consulted
    with pytest.raises(ValueError):
        gauss_laguerre(257)
    with pytest.raises(ValueError):
        gauss_laguerre(16, -1)
    with pytest.raises(ValueError):
        gauss_jacobi(16, -1.0, 0.0)
    with pytest.raises(ValueError):
        gauss_jacobi(16, 0.0, -2)
    with pytest.raises(ValueError):
        gauss_jacobi(0, 0.0, 0.0)


def _jacobi_moment(deg, a, b):
    rule = gauss_jacobi(deg + 4, float(a), float(b))
    return float(np.sum(rule.weights * rule.nodes**deg))


def test_gamma_closed_examples():
    assert abs(gamma_omega_closed(get_algebra("rank1"), 3.0) - 2.0) < 1e-14
    s2 = get_algebra("sym2")
    want = math.sqrt(2 * math.pi) * math.gamma(2.0) * math.gamma(1.5)
    assert abs(gamma_omega_closed(s2, 2.0) - want) < 1e-14


def test_gamma_closed_pole():
    with pytest.raises(ValueError):
        gamma_omega_closed(get_algebra("sym2"), 0.5)  # Gamma(0) pole


@pytest.mark.parametrize("name", ["rank1", "sym2", "sym3"])
def test_a_nan_nu_is_refused(name):
    # nan <= bound is false, so a NaN nu passed the convergence test: the
    # closed product came out NaN and the eigenvalue rule ended in LinAlgError
    alg = get_algebra(name)
    with pytest.raises(ValueError, match="integral diverges"):
        gamma_omega_closed(alg, math.nan)
    with pytest.raises(ValueError, match="integral diverges"):
        gamma_omega_numeric(alg, math.nan)


def test_gamma_numeric_rank1():
    alg = get_algebra("rank1")
    assert abs(gamma_omega_numeric(alg, 3.0, n=60) - 2.0) < 1e-10


def test_gamma_numeric_rank1_fractional_power():
    # det^p lives in the Laguerre rule, so a fractional power costs nothing
    alg = get_algebra("rank1")
    assert abs(gamma_omega_numeric(alg, 2.5) - gamma_omega_closed(alg, 2.5)) < 1e-13


def _peak_bytes(fn, *args, **kwargs):
    """The peak of the memory that tracemalloc sees (numpy buffers
    included) during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_gamma_numeric_matches_the_closed_product(name):
    # one chamber rule of rank r - 1 for every r >= 2, whose axes carry every
    # x_i^p; with only lam_1^p in a rule, the r >= 3 gap grid read 1.1e-3 for
    # sym3 at nu = 1.1 and sym4 at nu = 1.6, and 1.09e-8 for sym4 at nu = 3
    alg = get_algebra(name)
    lo = (alg.r - 1) * alg.d / 2 + 0.05
    for nu in [*np.linspace(lo, 40.0, 24), *(nu for nu in (3.0, 3.5, 4.0) if nu > lo)]:
        closed = gamma_omega_closed(alg, nu)
        got = gamma_omega_numeric(alg, nu, n=80)
        assert abs(got - closed) <= 1e-12 * closed, (nu, got, closed)


def test_gamma_numeric_sym4_peak_at_48_nodes():
    # the 48^3 chamber rule; the 40^4 gap grid took 246 MB before it was
    # summed one slice at a time
    alg = get_algebra("sym4")
    gamma_omega_numeric(alg, 4.0, n=48)     # the Gauss rules are built once
    peak = _peak_bytes(gamma_omega_numeric, alg, 4.0, n=48)
    assert peak < 16e6, peak


def test_gamma_numeric_sym4_peak_at_80_nodes():
    # the 80^3 = 512,000 points that `gamma --nodes` allows at most
    alg = get_algebra("sym4")
    gamma_omega_numeric(alg, 4.0, n=80)
    peak = _peak_bytes(gamma_omega_numeric, alg, 4.0, n=80)
    assert peak < 64e6, peak


def test_gamma_divergent_rejection():
    with pytest.raises(ValueError):
        gamma_omega_numeric(get_algebra("sym2"), 0.3)


def test_cone_constant_against_gamma_identity():
    # integral over the cone of e^{-tr} equals Gamma_Omega(n/r)
    for name in ("sym2", "spin4", "sym3"):
        alg = get_algebra(name)
        got = gamma_omega_numeric(alg, alg.n / alg.r, n=60)
        want = gamma_omega_closed(alg, alg.n / alg.r)
        assert abs(got - want) / want < 1e-8, name


def selberg(alg, lam, mu):
    """The chamber integral of 1 against prod (1-a_i)^lam (1+a_i)^mu
    |Vandermonde|^d in closed form: with t = (1 + a)/2 it is
    2^(r(lam+mu+1) + d r(r-1)/2) S_r(mu+1, lam+1, d/2) / r!, S_r the Selberg
    integral (Selberg 1944; Forrester and Warnaar, Bull. AMS 45, 2008)."""
    r, g = alg.r, alg.d / 2
    S = 1.0
    for j in range(r):
        S *= (math.gamma(mu + 1 + j * g) * math.gamma(lam + 1 + j * g)
              * math.gamma(1 + (j + 1) * g)
              / (math.gamma(lam + mu + 2 + (r + j - 1) * g) * math.gamma(1 + g)))
    return 2.0 ** (r * (lam + mu + 1) + alg.d * r * (r - 1) / 2) * S / math.factorial(r)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_weyl_integral_matches_selberg(name):
    # one chamber rule for every rank; (0, 0) is the chamber's volume (2 in
    # rank 1, 4/3 for sym2), and the fractional weights are not carried by
    # every factor of the rule.  The worst case, sym4 at (2.5, 3.25), reads
    # 1.4e-14
    alg = get_algebra(name)
    for lam, mu in ((0, 0), (3, 2), (4, 4), (2, 3), (3.5, 2), (2.5, 3.25)):
        got = weyl_integral(alg, lambda e: np.ones(len(e)), lam, mu, n=20)
        want = selberg(alg, lam, mu)
        assert abs(got - want) < 5e-14 * want, (lam, mu, got, want)


def test_weyl_rank1_is_the_gauss_jacobi_rule():
    # the one-axis chamber map: the nodes and weights of gauss_jacobi, bit
    # for bit, so every rank-1 result keeps its bytes
    rows = []

    def identity(eigs):
        rows.append(eigs)
        return np.eye(len(eigs))

    for lam, mu, n in ((0, 0, 7), (3.5, 2, 20), (1, 4.25, 33)):
        rows.clear()
        weights = weyl_integral(get_algebra("rank1"), identity, lam, mu, n=n)
        rule = gauss_jacobi(n, lam, mu)
        assert rows[0].shape == (n, 1)
        assert np.array_equal(rows[0][:, 0], rule.nodes)
        assert np.array_equal(weights, rule.weights)


def test_weyl_rows_are_ascending_inside_the_chamber():
    rows = []

    def ones(eigs):
        rows.append(eigs)
        return np.ones(len(eigs))

    weyl_integral(get_algebra("sym4"), ones, 2.5, 1, n=6)
    (a,) = rows
    assert a.shape == (6 ** 4, 4)
    assert np.all(a > -1) and np.all(a < 1) and np.all(np.diff(a, axis=1) > 0)


def test_weyl_rank1_jacobi_norm():
    # squared norm of P_1^{(1,1)}(x) = 2x under (1-x)(1+x): 16/15
    alg = get_algebra("rank1")

    def f(eigs):
        return (2 * eigs[:, 0]) ** 2

    assert abs(weyl_integral(alg, f, 1, 1) - 16.0 / 15.0) < 1e-13


def test_weyl_node_doubling_stability():
    alg = get_algebra("sym2")

    def f(eigs):
        return (eigs[:, 0] + eigs[:, 1]) ** 2 + eigs[:, 0] * eigs[:, 1]

    a = weyl_integral(alg, f, 2, 3, n=40)
    b = weyl_integral(alg, f, 2, 3, n=80)
    assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_gram_rank1():
    rep = gram_matrix(get_algebra("rank1"), 1.0, 1.0, 4)
    assert rep["max_off_diagonal_ratio"] < 1e-12
    assert all(rep["matrix"][i][i] > 0 for i in range(5))


def test_gram_sym2():
    rep = gram_matrix(get_algebra("sym2"), 3.0, 3.0, 3)
    assert rep["max_off_diagonal_ratio"] < 1e-8
    assert all(rep["matrix"][i][i] > 0 for i in range(4))
    assert (rep["schema"], rep["kind"]) == ("rc-lab/1", "gram-report")


def test_gram_ratio_survives_a_diagonal_product_past_the_float_range():
    # at lambda = 600 the diagonal entries reach 1e175 and 1e179, whose
    # product overflows to inf and made every ratio 0.0
    rep = gram_matrix(get_algebra("rank1"), 600.0, 1.0, 4)
    G = rep["matrix"]
    assert math.isinf(G[0][0] * G[4][4])
    want = abs(G[0][4]) / (math.sqrt(G[0][0]) * math.sqrt(G[4][4]))
    got = next(r["ratio"] for r in rep["off_diagonal_ratios"] if (r["k"], r["l"]) == (0, 4))
    assert got > 0 and abs(got - want) <= 1e-12 * want
    assert rep["max_off_diagonal_ratio"] >= got


def test_gram_error_keeps_a_nan_that_is_not_first(monkeypatch):
    # Python's max drops a NaN that follows a number: max([1e-13, nan]) is
    # 1e-13, so a NaN entry of the n-node matrix read as a tiny error
    gram_once = quadrature._gram_once

    def nan_at_n_nodes(algebra, polys, lam, mu, n):
        G = gram_once(algebra, polys, lam, mu, n)
        if n == nodes:
            G[1][2] = math.nan
        return G

    alg = get_algebra("rank1")
    nodes = quadrature.gram_nodes(alg, 2.0, 1.0, 3)
    monkeypatch.setattr(quadrature, "_gram_once", nan_at_n_nodes)
    rep = gram_matrix(alg, 2.0, 1.0, 3)
    assert math.isnan(rep["estimated_error"])
    assert all(math.isfinite(v) for row in rep["matrix"] for v in row)


def test_gram_matrix_symmetric():
    rep = gram_matrix(get_algebra("rank1"), 2.0, 1.0, 3)
    G = rep["matrix"]
    for i in range(4):
        for j in range(4):
            assert G[i][j] == G[j][i]


def _rows(monos, n):
    """The Poly whose monomial rows are ``monos``, each with coefficient 1."""
    return Poly.from_terms(dict.fromkeys(map(tuple, monos), 1), n)


def _row_integrands(rows):
    """One callable per monomial row of ``rows``, in row order: the row as a
    Poly of its own, evaluated by ``Poly.numeric``."""
    return [_rows([m], rows.exps.shape[1]).numeric for m in rows.exps.tolist()]


def test_tube_laplace_rank1_closed_form():
    # the radial integral is closed, so it holds where the phase e^{i s Re z}
    # turns fast: a 128-node Laguerre rule in s is off by 43 at z = 10 and
    # by 8.9e3 at z = 60
    alg = get_algebra("rank1")
    nu = 2.5
    for zz in (2 + 3j, -5 + 1j, 10, 60):
        z = np.array([zz], dtype=complex)
        got = tube_laplace(alg, _rows([(0,)], 1).exps, z[None], nu - 1.0)[0, 0]
        want = math.gamma(nu) * ((zz + 1j) / 1j) ** (-nu)
        assert abs(got - want) / abs(want) < 1e-13, zz


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_tube_laplace_rank1_far_from_the_imaginary_axis(p):
    # rank 1 has one ray, so no angular rule bounds |Re z|: at z = x + 0.5i,
    # x up to 60, the transform is Gamma(a) b^(-a), b = 1.5 - ix, a = 1 + p,
    # at rounding (the Bergman isometry reads |Re z| up to about 15).  An
    # integer power keeps the reference to a few ulps
    alg = get_algebra("rank1")
    xs = np.linspace(-60.0, 60.0, 241)
    got = tube_laplace(alg, np.zeros((1, 1), dtype=int), (xs + 0.5j)[:, None], p)[:, 0]
    for x, g in zip(xs.tolist(), got.tolist()):
        want = math.gamma(1 + p) / complex(1.5, -x) ** (1 + p)
        assert abs(g - want) <= 1e-15 * abs(want), (x, g, want)


def test_tube_laplace_sym2_far_from_the_imaginary_axis():
    # at Re z_00 = 20 a 128-node Laguerre rule in s is off by 31; the
    # closed radial integral leaves only the angular rule's error
    alg = get_algebra("sym2")
    nu = 2.8
    z = np.array([20, 0, 0], dtype=complex)
    got = tube_laplace(alg, _rows([(0, 0, 0)], 3).exps, z[None], nu - 1.5)[0, 0]
    want = gamma_omega_closed(alg, nu) * np.exp(-nu * logdet_tube(alg, (z + 1j * alg.e)[None]))[0]
    assert abs(got - want) / abs(want) < 1e-3


def test_tube_laplace_many_integrands_match_single_calls():
    # one rule for several monomial rows gives the bits of one call per row:
    # 1, x_0, x_-1^2, x_0^3
    for name, coords in (("rank1", (0.3 + 1.4j,)), ("sym2", (0.3 + 1.4j, 1.1j, 0.2 + 0.1j))):
        alg = get_algebra(name)
        n = alg.n
        monos = [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,),
                 (3,) + (0,) * (n - 1)]
        rows = Poly.from_terms({m: Fraction(-7, 3 + i) for i, m in enumerate(monos)}, n)
        z = np.array(coords)
        got = tube_laplace(alg, rows.exps, z[None], 0.8)[0]
        one = [tube_laplace(alg, _rows([m], n).exps, z[None], 0.8)[0]
               for m in rows.exps.tolist()]
        assert got.shape == (4,) and got.dtype == complex
        assert got.tobytes() == np.concatenate(one).tobytes(), name


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_tube_laplace_on_a_stack_gives_the_bits_of_one_call_per_point(name):
    alg = get_algebra(name)
    exps = np.array([(0,) * alg.n, (1,) + (0,) * (alg.n - 1), (2,) * alg.n])
    Z = _default_tube_points(alg)
    got = tube_laplace(alg, exps, Z, 0.8)
    assert got.shape == (len(Z), len(exps)) and got.dtype == complex
    one = [tube_laplace(alg, exps, z[None], 0.8) for z in Z]
    assert got.tobytes() == np.concatenate(one).tobytes()


def _sym2_ray_grid():
    """The (u, theta) grid of the sym2 Laplace rays, one entry per ray: u,
    theta and the weight without the det power."""
    n_u, n_theta = 48, 48
    c_polar = quadrature.mehta_cone_constant(get_algebra("sym2")) / math.pi
    u, wu = quadrature.scaled_interval_rule(gauss_legendre(n_u), 0.0, 1.0)
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    wt = np.full(n_theta, math.pi / n_theta)
    U, T = np.meshgrid(u, theta, indexing="ij")
    WU, WT = np.meshgrid(wu, wt, indexing="ij")
    u_, t_ = U.ravel(), T.ravel()
    return u_, t_, (WU * WT).ravel() * c_polar * (u_ / 2)


def _tube_laplace_per_branch(alg, integrands, z, p):
    """The Laplace rule as it was written per algebra before the ray table:
    rank 1 on its own Laguerre nodes, sym2 with the coordinates of
    k diag(s(1-u)/2, s(1+u)/2) k^T taken per node from cos and sin of theta."""
    if alg.name == "rank1":
        wcplx = 1.0 - 1j * complex(z[0])
        rs = gauss_laguerre(128, p)
        xi = rs.nodes / wcplx.real
        phase = np.exp(-1j * wcplx.imag * xi)
        return np.array([np.sum(rs.weights * g(xi[:, None]) * phase) / wcplx.real ** (1 + p)
                         for g in integrands])
    u, t, w = _sym2_ray_grid()
    rs = gauss_laguerre(128, 2 * p + 2)

    def coords_of(s, u, theta):
        lam1, lam2 = s * (1 - u) / 2, s * (1 + u) / 2
        c, sn = np.cos(theta), np.sin(theta)
        return np.stack([c**2 * lam1 + sn**2 * lam2, sn**2 * lam1 + c**2 * lam2,
                         c * sn * (lam2 - lam1)], axis=1)

    unit = coords_of(np.ones_like(u), u, t)
    gram = np.array([1.0, 1.0, 2.0])
    q = unit[:, 0] + unit[:, 1] + unit @ (gram * z.imag)
    posc = unit @ (gram * z.real)
    s_scaled = rs.nodes[None, :] / q[:, None]
    coords = coords_of(s_scaled.ravel(), np.repeat(u, 128), np.repeat(t, 128))
    phase = np.exp(1j * posc[:, None] * s_scaled)
    wray = w * ((1 - u**2) / 4) ** p / q ** (2 * p + 3)
    return np.array([np.sum(wray * ((g(coords).reshape(len(u), 128) * phase) @ rs.weights))
                     for g in integrands])


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_tube_laplace_rays_match_the_per_branch_rule(name):
    # the one ray rule moves each value by rounding only, measured against
    # the largest value of its row: some monomial integrals are about 1e-18
    alg = get_algebra(name)
    rows = _rows([(0,) * alg.n, *np.eye(alg.n, dtype=int).tolist(),
                  [2] + [1] * (alg.n - 1)], alg.n)
    integrands = _row_integrands(rows)
    for z in _default_tube_points(alg):
        for p in (0.3, 1.8):
            got = tube_laplace(alg, rows.exps, z[None], p)[0]
            want = _tube_laplace_per_branch(alg, integrands, z, p)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (z, p)


def _laplace_suite_fails(name):
    from rclab.cli import run_suites

    reports, ok = run_suites(get_algebra(name), "laplace")
    rep = reports[0]
    assert rep["check"] == "laplace-transform-of-weight", rep
    assert not ok and not rep["pass"] and rep["max_residual"] > rep["tolerance"], rep


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_laplace_fails_on_one_scaled_ray_weight(name, monkeypatch):
    unit, weights, det = quadrature._rays(name)
    weights = weights.copy()
    weights[len(weights) // 2] *= 2.0
    monkeypatch.setattr(quadrature, "_rays", lambda n: (unit, weights, det))
    _laplace_suite_fails(name)


def test_laplace_fails_without_det_omega_to_the_p(monkeypatch):
    # in rank 1 det omega = 1 on the one ray, so only sym2 can lose it
    unit, weights, det = quadrature._rays("sym2")
    monkeypatch.setattr(quadrature, "_rays", lambda n: (unit, weights, np.ones_like(det)))
    _laplace_suite_fails("sym2")


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_laplace_fails_on_a_radial_rule_without_the_det_power(name, monkeypatch):
    # the laplace suite integrates det^p at p = 2.8 - n/r; a radial factor
    # Gamma(a) b^(-a) with a lowered by rp drops the s^{rp} of det(s omega)^p
    alg = get_algebra(name)
    p = 2.8 - alg.n / alg.r
    radial = quadrature._radial
    monkeypatch.setattr(quadrature, "_radial", lambda a, b: radial(a - alg.r * p, b))
    _laplace_suite_fails(name)


def test_tube_laplace_sym2_peak_memory():
    # the closed radial integral needs a few (rows x rays) tables, about
    # 0.24 MB; a 128-node radial rule on the rays took 2.17 MB
    alg = get_algebra("sym2")
    args = (alg, _rows([(0, 0, 0)], 3).exps, _default_tube_points(alg)[1][None], 1.3)
    tube_laplace(*args)     # the rays are built once
    peak = _peak_bytes(tube_laplace, *args)
    assert peak < 1e6, peak


def test_tube_laplace_divergence_guard():
    alg = get_algebra("rank1")
    z = np.array([0.5 - 2j])     # Im z + e = -1 is outside the cone
    with pytest.raises(ValueError):
        tube_laplace(alg, _rows([(0,)], 1).exps, z[None], 0.0)


def test_change_of_variables_rank1():
    rep = check_change_of_variables(get_algebra("rank1"), 1e-6)
    assert rep["pass"], rep
    assert rep["residual"] < 1e-6


def test_change_of_variables_sym2_quadrature():
    rep = check_change_of_variables(get_algebra("sym2"), 1e-4)
    assert rep["pass"], rep
    assert rep["residual"] < 1e-4
    assert rep["method"] == "quadrature"
    assert "seed" not in rep
    assert rep == check_change_of_variables(get_algebra("sym2"), 1e-4)


CHART_CHECKS = [check_change_of_variables, check_J_factorization]
CHART_SUITES = {check_change_of_variables: "change-of-variables",
                check_J_factorization: "laplace-factorization"}


def _at_table_tol(check, name):
    """``check`` for the algebra ``name`` at the tolerance its suite's row of
    SUITE_TABLE gives it."""
    suite = CHART_SUITES[check]
    return check(get_algebra(name), SUITE_TABLE[suite].tolerances(name)[suite])


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_rank1_chart_checks_read_below_1e_10(check):
    # the Laguerre x ray x chamber rule on the closed moments of F reads about
    # 1.3e-16 and 1.3e-15 in rank 1; the midpoint rule of a bump it replaced
    # read 1.5e-12 and 1.2e-12
    rep = _at_table_tol(check, "rank1")
    assert rep["pass"] and rep["tolerance"] <= 1e-11, rep
    assert rep["residual"] < 1e-13, rep
    assert rep["nodes"] == {"s": 24, "omega": 1, "v": 2}, rep


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_sym2_chart_checks_read_below_1e_13(check):
    # about 7.2e-16 and 1.7e-15; the bump grids read 1.8e-5 and 4.3e-6
    rep = _at_table_tol(check, "sym2")
    assert rep["pass"] and rep["tolerance"] <= 1e-11, rep
    assert rep["residual"] < 1e-13, rep
    assert rep["nodes"] == {"s": 24, "omega": 192, "v": 12}, rep


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_chart_checks_raise_off_the_chart_table(check):
    with pytest.raises(ValueError):
        check(get_algebra("spin4"), 1e-6)


def test_every_chart_algebra_has_a_tolerance_and_a_tube_point():
    from rclab.tube import CHART_TUBE_POINTS

    for suite in CHART_SUITES.values():
        row = SUITE_TABLE[suite]
        assert row.algebras == ("rank1", "sym2"), suite
        assert all(suite in row.tolerances(name) for name in row.algebras), suite
    assert CHART_TUBE_POINTS.keys() == {"rank1", "sym2"}


def _fails(check, name):
    rep = _at_table_tol(check, name)
    assert not rep["pass"] and rep["residual"] > rep["tolerance"], rep


@pytest.fixture
def scaled_chart(monkeypatch, fresh_chart_rule):
    # a 1e-9 scale error in P(z^{1/2}), w = P(z^{1/2}) v, inside iota moves
    # both chart residuals to about 3.6e-10 in rank 1 and 1.2e-9 for sym2
    from rclab import algebra as jordan

    exact = jordan.quad_rep
    monkeypatch.setattr(jordan, "quad_rep", lambda *args: (1 + 1e-9) * exact(*args))


@pytest.fixture
def scaled_iota(monkeypatch, fresh_chart_rule):
    # x and y both off by a relative 1e-9: the residuals read 2.6e-10 to 6e-9
    exact = quadrature.iota
    monkeypatch.setattr(quadrature, "iota",
                        lambda *args: tuple((1 + 1e-9) * p for p in exact(*args)))


@pytest.fixture
def no_det_factor(monkeypatch, fresh_chart_rule):
    monkeypatch.setattr(quadrature, "iota_jacobian",
                        lambda algebra, zc: np.full(len(zc), 2.0 ** -algebra.n))


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_sym2_chart_checks_fail_on_a_scaled_chart(check, scaled_chart):
    _fails(check, "sym2")


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_rank1_chart_checks_fail_on_a_scaled_chart(check, scaled_chart):
    _fails(check, "rank1")


@pytest.mark.parametrize("name", ["rank1", "sym2"])
@pytest.mark.parametrize("check", CHART_CHECKS)
def test_chart_checks_fail_on_a_scaled_iota(check, name, scaled_iota):
    _fails(check, name)


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_sym2_chart_checks_fail_without_the_det_factor(check, no_det_factor):
    _fails(check, "sym2")


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_rank1_chart_checks_fail_without_the_det_factor(check, no_det_factor):
    _fails(check, "rank1")


@pytest.fixture
def nan_chart_point(monkeypatch, fresh_chart_rule):
    # one x row of each iota call NaN: the chart sum has no filter, so the
    # NaN must reach the rhs of both checks
    exact = quadrature.iota

    def nan_row(*args):
        X, Y = exact(*args)
        X[len(X) // 2] = np.nan
        return X, Y

    monkeypatch.setattr(quadrature, "iota", nan_row)


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_sym2_chart_checks_fail_on_nan(check, nan_chart_point):
    rep = _at_table_tol(check, "sym2")
    assert not rep["pass"] and np.all(np.isnan(rep["rhs"])), rep


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_rank1_chart_checks_fail_on_nan(check, nan_chart_point):
    rep = _at_table_tol(check, "rank1")
    assert not rep["pass"] and np.all(np.isnan(rep["rhs"])), rep


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_chart_check_fails_on_a_nan_chart_point(name, monkeypatch, fresh_chart_rule):
    # a NaN in one z row of z^{1/2} makes that row's x and y NaN inside iota;
    # the chart term must carry it to the chart side, not drop the row
    from rclab import algebra as jordan

    exact = jordan.cone_sqrt

    def nan_row(algebra, zs):
        roots = exact(algebra, zs)
        roots[len(roots) // 2] = np.nan
        return roots

    monkeypatch.setattr(jordan, "cone_sqrt", nan_row)
    rep = _at_table_tol(check_change_of_variables, name)
    assert not rep["pass"] and np.isnan(rep["rhs"]), rep


def _chart_terms_off_by(monkeypatch, factor):
    """Every term of the cached chart rule times ``factor``."""
    rule = quadrature._chart_rule

    def scaled(name):
        zs, terms, n_v = rule(name)
        return zs, terms * factor, n_v

    monkeypatch.setattr(quadrature, "_chart_rule", scaled)


@pytest.fixture
def chart_terms_off_by_1e_7(monkeypatch):
    # both rank 1 chart residuals become about 1e-7, between the tolerance
    # before the table (1e-6) and the table's
    _chart_terms_off_by(monkeypatch, 1 + 1e-7)


@pytest.mark.parametrize("check", CHART_CHECKS)
def test_rank1_chart_checks_catch_a_1e_7_error_at_the_table_tolerance(
        check, chart_terms_off_by_1e_7):
    alg = get_algebra("rank1")
    assert check(alg, 1e-6)["pass"]
    rep = _at_table_tol(check, "rank1")
    assert not rep["pass"] and rep["tolerance"] < rep["residual"] < 1e-6, rep


@pytest.fixture
def chart_terms_off_by_1e_10(monkeypatch):
    # each chart residual becomes about 1e-10: below the tolerances of the
    # bump grids (1e-8 in rank 1, 1e-4 for sym2), above the table's
    _chart_terms_off_by(monkeypatch, 1 + 1e-10)


@pytest.mark.parametrize("name, old_tol", [("rank1", 1e-8), ("sym2", 1e-4)])
@pytest.mark.parametrize("check", CHART_CHECKS)
def test_chart_checks_catch_a_1e_10_error_at_the_table_tolerance(
        check, name, old_tol, chart_terms_off_by_1e_10):
    assert check(get_algebra(name), old_tol)["pass"]
    rep = _at_table_tol(check, name)
    assert rep["tolerance"] <= 1e-11
    assert not rep["pass"] and 1e-11 < rep["residual"] < 1e-9, rep


def _chart_rule_reference(name):
    """The terms of the chart rule of ``name`` from r x r matrices: x, y =
    (z -+ z^{1/2} v z^{1/2}) / 2 with z^{1/2} from eigh, F and the Jacobian
    2^{-n} det(z)^{n/r} by numpy's det, at the rule's own nodes and
    weights, each weight divided by the factor of F its rule carries."""
    alg = get_algebra(name)
    n, r = alg.n, alg.r
    idx = {"rank1": [[0]], "sym2": [[0, 2], [2, 1]]}[name]
    p, q = quadrature.CHART_POWERS
    alpha = 2 * n - 1 + r * (p + q)
    radial = gauss_laguerre(24, alpha)
    unit, w_rays, _ = quadrature._rays(name, 12, 16)
    a, w_a = quadrature._chamber_rule(r, alg.d, p, q, 2)
    w_a = w_a / np.prod((1 - a) ** p * (1 + a) ** q, axis=1)
    vs, w_v = (a, w_a) if r == 1 else quadrature._sym2_polar(a[:, 0], a[:, 1], w_a, 3)
    V = vs[:, idx]
    terms = []
    for s, w_s in zip(radial.nodes, radial.weights):
        Z = (s * unit)[:, idx]
        lam, vec = np.linalg.eigh(Z)
        root = (vec * np.sqrt(lam)[:, None, :]) @ np.swapaxes(vec, 1, 2)
        W = root[:, None] @ V[None] @ root[:, None]
        X, Y = (Z[:, None] - W) / 2, (Z[:, None] + W) / 2
        F = (np.linalg.det(X) ** p * np.exp(-np.trace(X, axis1=2, axis2=3))
             * np.linalg.det(Y) ** q * np.exp(-np.trace(Y, axis1=2, axis2=3)))
        jac = 2.0 ** -n * np.linalg.det(Z) ** (n / r)
        terms.append(F @ w_v * jac * w_rays * w_s * np.exp(s) * s ** (n - 1 - alpha))
    return np.concatenate(terms)


def _agrees_with_the_reference(name, z_nodes, v_nodes):
    """The chart rule of ``name`` against ``_chart_rule_reference``: the
    node counts, and every term within a relative 1e-13."""
    zs, terms, n_v = quadrature._chart_rule(name)
    want = _chart_rule_reference(name)
    assert len(zs) == len(terms) == len(want) == z_nodes and n_v == v_nodes
    assert np.all(want > 0)
    assert np.max(np.abs(terms - want) / want) <= 1e-13


def test_rank1_chart_rule_matches_the_reference(fresh_chart_rule):
    # 24 radial nodes on the single ray, 2 v nodes
    _agrees_with_the_reference("rank1", 24, 2)


def test_sym2_chart_rule_matches_the_reference(fresh_chart_rule):
    # 24 radial nodes x 192 rays, 4 eigenvalue pairs of v x 3 angles
    _agrees_with_the_reference("sym2", 24 * 192, 12)


def test_sym2_chart_rule_peak_memory(fresh_chart_rule):
    # summed per radial node, the 55,296 points of the rule take about
    # 0.7 MB; one pass over all of them took 8.6 MB
    quadrature._rays("sym2", 12, 16)    # the rays and the Laguerre rule are
    gauss_laguerre(24, 8.0)             # built and cached apart
    peak = _peak_bytes(quadrature._chart_rule, "sym2")
    assert peak <= 8e6, peak


def _chart_iota_calls(name, tmp_path, monkeypatch):
    """The row counts of the iota calls `check all` makes in quadrature."""
    from rclab.cli import main

    exact = quadrature.iota
    calls = []

    def counted(algebra, Z, V):
        calls.append(len(Z))
        return exact(algebra, Z, V)

    monkeypatch.setattr(quadrature, "iota", counted)
    code = main(["check", "all", "--algebra", name, "--cache-dir", str(tmp_path),
                 "--output", str(tmp_path / "all.json")])
    assert code == 0
    return calls


def test_check_all_sym2_runs_the_chart_inner_loop_once(tmp_path, monkeypatch,
                                                       fresh_chart_rule):
    # both sym2 chart checks share one cached rule: iota runs once per
    # process at each of its 24 radial nodes, over the 192 rays x 12 v nodes
    calls = _chart_iota_calls("sym2", tmp_path, monkeypatch)
    assert calls == [192 * 12] * 24, calls


def test_check_all_rank1_runs_the_chart_inner_loop_once(tmp_path, monkeypatch,
                                                        fresh_chart_rule):
    # rank 1 shares the same rule between its two chart checks
    calls = _chart_iota_calls("rank1", tmp_path, monkeypatch)
    assert calls == [2] * 24, calls
