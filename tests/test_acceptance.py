"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with -s or in captured
output).  Tolerances are pinned here and nowhere else.
"""

import time
import numpy as np

from rclab.algebra import get_algebra
from rclab import brackets, quadrature, tube
import rclab.cli as cli

RANGE = [("rank1", 6), ("sym2", 3), ("sym3", 2), ("spin4", 2)]


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_polynomiality(cache_dir):
    import rclab.brackets as B

    for name, kmax in RANGE:
        for k in range(kmax + 1):
            B._memory_cache.pop((name, k), None)
    t0 = time.time()
    counts = {}
    for name, kmax in RANGE:
        alg = get_algebra(name)
        for k in range(kmax + 1):
            poly = brackets.compute_c(alg, k, cache_dir)
            counts[(name, k)] = poly.num_monomials()
    elapsed = time.time() - t0
    ok = elapsed < 600 and all(v > 0 for v in counts.values())
    _line(1, "rodrigues-polynomiality", ok,
          f"({elapsed:.1f}s for {len(counts)} polynomials, cap 600s)")


def test_criterion_02_chi_covariance(cache_dir):
    worst = None
    for name, kmax in RANGE:
        alg = get_algebra(name)
        for k in range(kmax + 1):
            rep = brackets.check_chi_covariance(alg, k, samples=50,
                                                cache_dir=cache_dir)
            if not rep["pass"]:
                worst = (name, k, rep["violations"][:3])
    _line(2, "chi-covariance-exact", worst is None,
          "" if worst is None else str(worst))


def test_criterion_03_homogeneity(cache_dir):
    ok = True
    for name, kmax in RANGE:
        alg = get_algebra(name)
        for k in range(kmax + 1):
            poly = brackets.compute_c(alg, k, cache_dir)
            if not all(sum(m) == alg.r * k for m in poly.terms):
                ok = False
    _line(3, "homogeneity-degree-rk", ok)


def test_criterion_04_jacobi_reduction(cache_dir):
    ok = True
    detail = []
    for lam, mu in ((0, 0), (1, 2), (3, 3)):
        for k in range(7):
            try:
                ratio = brackets.jacobi_proportionality(k, lam, mu, cache_dir)
                detail.append(f"k={k}:{ratio}")
            except AssertionError as exc:
                ok = False
                detail.append(str(exc))
    _line(4, "rank1-jacobi-reduction", ok, f"(ratios {detail[:7]})")


def test_criterion_05_orthogonality(cache_dir):
    rep1 = quadrature.gram_matrix(get_algebra("rank1"), 1.0, 1.0, 4,
                                  cache_dir=cache_dir)
    rep2 = quadrature.gram_matrix(get_algebra("sym2"), 3.0, 3.0, 3,
                                  cache_dir=cache_dir)
    ok = rep1.max_off_diagonal_ratio < 1e-12 and rep2.max_off_diagonal_ratio < 1e-8
    _line(5, "interval-orthogonality", ok,
          f"(rank1 {rep1.max_off_diagonal_ratio:.2e} < 1e-12, "
          f"sym2 {rep2.max_off_diagonal_ratio:.2e} < 1e-8)")


def test_criterion_06_jacobian_and_change_of_variables():
    import random

    from rclab.algebra import (random_cone_point, random_interval_point,
                               jacobian_iota)
    from rclab.cli import _fd_jacobian

    worst = 0.0
    for name in ("rank1", "sym2"):
        alg = get_algebra(name)
        rng = random.Random(23)
        for _ in range(20):
            z = random_cone_point(rng, alg).as_float()
            v = random_interval_point(rng, alg).as_float()
            fd = _fd_jacobian(alg, z, v)
            an = jacobian_iota(z, v)
            worst = max(worst, abs(fd - an) / abs(an))
    rep1 = quadrature.check_change_of_variables(get_algebra("rank1"))
    rep2 = quadrature.check_change_of_variables(get_algebra("sym2"))
    ok = worst < 1e-6 and rep1["residual"] < 1e-6 and rep2["residual"] < 1e-2
    _line(6, "polar-chart-jacobian+varchange", ok,
          f"(fd {worst:.2e} < 1e-6, rank1 {rep1['residual']:.2e} < 1e-6, "
          f"sym2-mc {rep2['residual']:.2e} < 1e-2)")


def test_criterion_07_gamma():
    r1 = get_algebra("rank1")
    s2 = get_algebra("sym2")
    e1 = abs(quadrature.gamma_omega_numeric(r1, 3.0, n=60) - 2.0) / 2.0
    closed = quadrature.gamma_omega_closed(s2, 3.0)
    e2 = abs(quadrature.gamma_omega_numeric(s2, 3.0, n=80) - closed) / closed
    mc = quadrature.gamma_omega_numeric(s2, 3.0, method="mc",
                                        mc_samples=1_000_000, seed=20240)
    e3 = abs(mc - closed) / closed
    ok = e1 < 1e-10 and e2 < 1e-6 and e3 < 1e-2
    _line(7, "cone-gamma-integral", ok,
          f"(rank1 {e1:.2e} < 1e-10, sym2 {e2:.2e} < 1e-6, mc {e3:.2e} < 1e-2)")


def test_criterion_08_laplace_identity():
    worst = {}
    for name, tol in (("rank1", 1e-8), ("sym2", 1e-4)):
        alg = get_algebra(name)
        nu = 2.8
        gamma_nu = quadrature.gamma_omega_closed(alg, nu)
        ie = 1j * np.array([float(c) for c in alg.e_coords])
        res = 0.0
        pts = [alg.element(tuple(c)) for c in tube._default_tube_points(alg)]
        assert len(pts) == 5
        for z in pts:
            num = quadrature.tube_laplace(
                alg, lambda c: np.ones(len(c)), z, kappa=1.0,
                det_power=nu - alg.n / alg.r)
            want = gamma_nu * np.exp(-nu * tube.logdet_tube(
                alg, (z.as_array() + ie).reshape(1, -1))[0])
            res = max(res, abs(num - want) / abs(want))
        worst[name] = (res, tol)
    ok = all(res < tol for res, tol in worst.values())
    _line(8, "laplace-of-weight-identity", ok,
          f"(rank1 {worst['rank1'][0]:.2e} < 1e-8, "
          f"sym2 {worst['sym2'][0]:.2e} < 1e-4)")


def test_criterion_09_L2_factorization():
    rep1 = tube.check_J_factorization(get_algebra("rank1"))
    rep2 = tube.check_J_factorization(get_algebra("sym2"))
    ok = rep1["residual"] < 1e-6 and rep2["residual"] < 1e-2
    _line(9, "restriction-transform-factorization", ok,
          f"(rank1 {rep1['residual']:.2e} < 1e-6, "
          f"sym2-mc {rep2['residual']:.2e} < 1e-2)")


def test_criterion_10_adjoint_image(cache_dir):
    r1 = get_algebra("rank1")
    z1 = r1.element((0.3 + 1.0j,))
    z2 = r1.element((-0.2 + 2.0j,))
    phases = []
    worst1 = 0.0
    for k in (0, 1, 2):
        rep = tube.check_adjoint_image(r1, k, 3, 3, z1, z2, tol=1e-6,
                                       cache_dir=cache_dir)
        worst1 = max(worst1, rep["residual"])
        phases.append(complex(*rep["measured_phase"]))
    s2 = get_algebra("sym2")
    w1 = s2.element((0.2 + 1.1j, -0.1 + 1.3j, 0.05 + 0.1j))
    w2 = s2.element((-0.3 + 1.8j, 0.2 + 1.5j, -0.02 + 0.05j))
    rep2 = tube.check_adjoint_image(s2, 1, 3, 3, w1, w2, tol=1e-3,
                                    cache_dir=cache_dir)
    phases.append(complex(*rep2["measured_phase"]))
    ok = worst1 < 1e-6 and rep2["residual"] < 1e-3
    _line(10, "adjoint-image-closed-form", ok,
          f"(rank1 {worst1:.2e} < 1e-6, sym2 {rep2['residual']:.2e} < 1e-3, "
          f"measured phases ~ {phases[0]:.6f})")


def test_criterion_11_partial_isometry(cache_dir):
    worst_spread = 0.0
    worst_const = 0.0
    for k in (0, 1, 2):
        rep = tube.check_partial_isometry(get_algebra("rank1"), k, 3, 3,
                                          cache_dir=cache_dir)
        worst_spread = max(worst_spread, rep["ratio_spread"])
        worst_const = max(worst_const, rep["constant_residual"])
    ok = worst_spread < 1e-6 and worst_const < 1e-6
    _line(11, "adjoint-partial-isometry", ok,
          f"(spread {worst_spread:.2e}, constant {worst_const:.2e}, both < 1e-6)")


def test_criterion_12_covariance(cache_dir):
    worst_cov = 0.0
    for name, ks in (("rank1", (0, 1, 2, 3)), ("sym2", (1,))):
        alg = get_algebra(name)
        for k in ks:
            for gen in tube.default_generators(alg):
                rep = tube.check_covariance_B(alg, k, 2.6, 3.2, gen,
                                              tol=1e-6, cache_dir=cache_dir)
                assert rep["samples"], (name, k, gen.kind)
                worst_cov = max(worst_cov, rep["max_residual"])
    worst_aux = 0.0
    for name in ("rank1", "sym2"):
        alg = get_algebra(name)
        e = np.array([float(c) for c in alg.e_coords])
        z = alg.element(tuple(0.4 * np.arange(alg.n) / alg.n + 1.3j * e))
        w = alg.element(tuple(-0.2 * e + 0.9j * e))
        for gen in tube.default_generators(alg):
            worst_aux = max(worst_aux,
                            tube.check_hua_cocycle(alg, gen, z, w)["residual"])
            worst_aux = max(worst_aux, tube.check_coherent_transform(
                alg, 2.7, gen, w)["max_residual"])
    ok = worst_cov < 1e-6 and worst_aux < 1e-8
    _line(12, "bracket-group-covariance", ok,
          f"(covariance {worst_cov:.2e} < 1e-6, cocycles {worst_aux:.2e} < 1e-8)")


def test_criterion_13_determinism(tmp_path, cache_dir):
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"report_{tag}.json"
        code = cli.main(["check", "all", "--algebra", "rank1",
                         "--cache-dir", cache_dir, "--output", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    _line(13, "byte-identical-reports", ok, f"({len(outs[0])} bytes)")
