"""Command-line interface.

Subcommands
    polys   write bracket-polynomial coefficient tables (json/csv/latex)
    gram    interval Gram matrices of the restricted family
    gamma   cone Gamma function (closed form, optionally numeric)
    check   run verification suites; exit 0 iff everything passes
    cache   inspect or clear the on-disk polynomial cache

Configuration precedence: command-line flags > config file (simple
``key = value`` lines, '#' comments) > built-in defaults.  All artifacts
are deterministic: identical configuration (including seeds) produces
byte-identical output.  Exit codes: 0 success, 1 check failure, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import SCHEMA, report, worst
from .algebra import get_algebra, ALGEBRA_NAMES, AlgebraError
from . import brackets, quadrature, tube

# documented feasibility caps for the Rodrigues pipeline (desk scale)
K_CAPS = {
    "rank1": 8, "sym2": 4, "sym3": 2, "sym4": 1,
    "spin3": 3, "spin4": 3, "spin5": 2, "spin6": 2, "spin7": 2, "spin8": 2,
}

# acceptance-scale k ranges exercised by `check`
CHECK_K = {"rank1": 6, "sym2": 3, "sym3": 2, "spin4": 2}


class ConfigError(Exception):
    pass


def _check_k(algebra) -> int:
    """Largest k the suites check: CHECK_K, clamped to the feasibility cap."""
    return min(CHECK_K.get(algebra.name, 2), K_CAPS[algebra.name])


def _sanitize(obj):
    """Convert numpy scalars/arrays so reports serialize deterministically."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return obj


def dump_report(data) -> str:
    return json.dumps(_sanitize(data), indent=2, sort_keys=True) + "\n"


def read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def merged(args, key, default=None, cast=str):
    """flags > config file > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config", {})
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from exc
    return default


def _algebra_from(args):
    name = merged(args, "algebra", "rank1")
    try:
        return get_algebra(name)
    except AlgebraError as exc:
        raise ConfigError(str(exc)) from exc


def _write_out(args, text: str):
    path = merged(args, "output")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_polys(args) -> int:
    algebra = _algebra_from(args)
    k = merged(args, "k", 1, int)
    cap = K_CAPS[algebra.name]
    if not 0 <= k <= cap:
        raise ConfigError(f"k={k} outside the feasibility cap 0..{cap} for {algebra.name}")
    fmt = merged(args, "format", "json")
    cache_dir = merged(args, "cache_dir")
    which = merged(args, "family_kind", "two-slot")
    if which == "two-slot":
        poly = brackets.compute_c(algebra, k, cache_dir)
        if fmt == "json":
            text = brackets.bracket_table_json(poly)
        elif fmt == "csv":
            text = brackets.bracket_table_csv(poly)
        elif fmt == "latex":
            text = brackets.bracket_table_latex(poly)
        else:
            raise ConfigError(f"unknown format {fmt!r}")
    else:
        lam = merged(args, "lam", None, Fraction)
        mu = merged(args, "mu", None, Fraction)
        C = brackets.compute_C(algebra, k, lam, mu, cache_dir)
        rows = []
        for m in sorted(C.terms):
            rows.append({"mono": list(m), "coef": brackets._coef_label(C.terms[m])})
        payload = {"schema": SCHEMA, "kind": "restricted-polynomial",
                   "algebra": algebra.name, "k": k,
                   "lambda": None if lam is None else str(lam),
                   "mu": None if mu is None else str(mu), "terms": rows}
        if fmt == "json":
            text = dump_report(payload)
        elif fmt == "csv":
            lines = ["mono,coefficient"]
            for r in rows:
                lines.append("\"%s\",\"%s\"" % ("*".join(map(str, r["mono"])), r["coef"]))
            text = "\n".join(lines) + "\n"
        else:
            raise ConfigError("latex output is for the two-slot family")
    _write_out(args, text)
    return 0


def cmd_gram(args) -> int:
    algebra = _algebra_from(args)
    kmax = merged(args, "kmax", 2, int)
    if kmax > K_CAPS[algebra.name]:
        raise ConfigError(f"kmax={kmax} above cap {K_CAPS[algebra.name]}")
    lam = merged(args, "lam", 1.0, float)
    mu = merged(args, "mu", 1.0, float)
    threshold = 1 + (algebra.r - 1) * algebra.d - algebra.n / algebra.r
    if lam <= threshold or mu <= threshold:
        raise ConfigError(
            f"weights must exceed 1 + (r-1)d - n/r = {threshold} for orthogonality"
        )
    n = merged(args, "nodes", None, int)
    rep = quadrature.gram_matrix(algebra, lam, mu, kmax, n,
                                 merged(args, "cache_dir"))
    fmt = merged(args, "format", "json")
    if fmt == "json":
        text = dump_report(rep.to_jsonable())
    elif fmt == "csv":
        text = rep.to_csv()
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    _write_out(args, text)
    return 0


def cmd_gamma(args) -> int:
    algebra = _algebra_from(args)
    nu = merged(args, "nu", None, float)
    if nu is None:
        raise ConfigError("gamma requires --nu")
    closed = quadrature.gamma_omega_closed(algebra, nu)
    out = {"schema": SCHEMA, "kind": "cone-gamma", "algebra": algebra.name,
           "nu": nu, "closed": closed}
    kind = merged(args, "rule", None)
    if kind:
        n = merged(args, "nodes", 80, int)
        seed = merged(args, "seed", 20240, int)
        if kind == "monte-carlo":
            samples = merged(args, "samples", 1_000_000, int)
            out["numeric"] = quadrature.gamma_omega_numeric(
                algebra, nu, "mc", mc_samples=samples, seed=seed)
            out["rule"] = {"kind": kind, "samples": samples, "seed": seed}
        else:
            out["numeric"] = quadrature.gamma_omega_numeric(algebra, nu, "quadrature", n=n)
            out["rule"] = {"kind": "eigenvalue-quadrature", "nodes": n}
    _write_out(args, dump_report(out))
    return 0


def cmd_cache(args) -> int:
    cache_dir = merged(args, "cache_dir") or ".rclab-cache"
    action = args.cache_action
    if action == "inspect":
        entries = []
        if os.path.isdir(cache_dir):
            for name in sorted(os.listdir(cache_dir)):
                path = os.path.join(cache_dir, name)
                entries.append({"file": name, "bytes": os.path.getsize(path)})
        _write_out(args, dump_report(
            {"schema": SCHEMA, "kind": "cache-listing", "dir": cache_dir,
             "entries": entries}))
        return 0
    if action == "clear":
        removed = []
        if os.path.isdir(cache_dir):
            for name in sorted(os.listdir(cache_dir)):
                if name.startswith("c_") and name.endswith(".json"):
                    os.unlink(os.path.join(cache_dir, name))
                    removed.append(name)
        _write_out(args, dump_report(
            {"schema": SCHEMA, "kind": "cache-clear", "dir": cache_dir,
             "removed": removed}))
        return 0
    raise ConfigError(f"unknown cache action {action!r}")


# ---------------------------------------------------------------------------
# Verification suites


def _suite_polynomiality(algebra, cache_dir, tols):
    # compute_c certifies each row: a nonzero remainder or a monomial of the
    # wrong degree raises, and run_suites turns that into a failed report
    rows = []
    for k in range(_check_k(algebra) + 1):
        poly = brackets.compute_c(algebra, k, cache_dir)
        rows.append({"k": k, "monomials": poly.num_monomials(),
                     "degree": algebra.r * k, "zero_remainder": True,
                     "homogeneous": True})
    return [report("rodrigues-polynomiality", algebra.name, ok=True, rows=rows)]


def _suite_exchange(algebra, cache_dir, tols):
    from .sympoly import ParamPoly

    reports = []
    for k in range(_check_k(algebra) + 1):
        c = brackets.compute_c(algebra, k, cache_dir)
        sw = c.swap_slots_and_params()
        sign = Fraction((-1) ** (algebra.r * k))
        ok = set(sw.terms) == set(c.terms) and all(
            sw.terms[m] == ParamPoly(
                {kk: sign * v for kk, v in c.terms[m].terms.items()})
            for m in c.terms
        )
        reports.append(report("slot-exchange-antisymmetry", algebra.name,
                              ok=ok, k=k, exact=True))
    return reports


def _suite_chi(algebra, cache_dir, tols):
    return [brackets.check_chi_covariance(algebra, k, samples=50,
                                          cache_dir=cache_dir)
            for k in range(_check_k(algebra) + 1)]


def _suite_cayley(algebra, cache_dir, tols):
    from .sympoly import cayley_check

    # the Cayley identity: det(d/dx) det(x)^m = prod_{j<r} (m + j d/2) det(x)^(m-1)
    # (Faraut-Koranyi, Analysis on Symmetric Cones, 1994)
    rows = []
    ok = True
    for m in range(1, 5):
        val = cayley_check(algebra, m)
        want = Fraction(1)
        for j in range(algebra.r):
            want *= m + Fraction(j * algebra.d, 2)
        ok = ok and val == want
        rows.append({"m": m, "constant": f"{val.numerator}/{val.denominator}"})
    return [report("determinant-operator-constant", algebra.name, ok=ok,
                   rows=rows)]


def _suite_jacobi(algebra, cache_dir, tols):
    if algebra.family != "rank1":
        return []
    rows = []
    for lam, mu in ((0, 0), (1, 2), (3, 3)):
        for k in range(7):
            ratio = brackets.jacobi_proportionality(k, lam, mu, cache_dir)
            rows.append({"k": k, "lambda": lam, "mu": mu,
                         "ratio": f"{ratio.numerator}/{ratio.denominator}"})
    # jacobi_proportionality raises unless C(k) is a nonzero multiple of P_k
    return [report("rank1-jacobi-reduction", algebra.name, ok=True, exact=True,
                   rows=rows)]


def _suite_iota_fact(algebra, cache_dir, tols):
    tol = tols.get("iota-fact", 1e-10)
    return [brackets.check_iota_factorization(algebra, k, samples=10, tol=tol,
                                              cache_dir=cache_dir)
            for k in range(1, min(_check_k(algebra), 2) + 1)]


def _suite_jordan_numerics(algebra, cache_dir, tols):
    import random as _random

    from .algebra import (random_cone_point, random_interval_point, iota,
                          iota_inv, jacobian_iota)

    rng = _random.Random(17)
    roundtrip = []
    for _ in range(100):
        z = random_cone_point(rng, algebra).as_float()
        v = random_interval_point(rng, algebra).as_float()
        x, y = iota(z, v, check=False)
        z2, v2 = iota_inv(x, y)
        roundtrip.append(worst(abs(p - q) for p, q in
                               zip(z2.coords + v2.coords, z.coords + v.coords)))
    jacobian = []
    for _ in range(20):
        z = random_cone_point(rng, algebra).as_float()
        v = random_interval_point(rng, algebra).as_float()
        an = jacobian_iota(z, v)
        jacobian.append(abs(_fd_jacobian(algebra, z, v) - an) / abs(an))
    return [
        report("polar-chart-roundtrip", algebra.name, samples=100,
               max_residual=worst(roundtrip),
               tolerance=tols.get("iota-roundtrip", 1e-12)),
        report("polar-chart-jacobian", algebra.name, samples=20,
               max_residual=worst(jacobian),
               tolerance=tols.get("jacobian", 1e-6)),
    ]


def _fd_jacobian(algebra, z, v, eps=1e-5):
    from .algebra import iota

    n = algebra.n
    w0 = np.array([float(c) for c in z.coords] + [float(c) for c in v.coords])

    def f(w):
        a, b = iota(algebra.element(tuple(w[:n])),
                    algebra.element(tuple(w[n:])), check=False)
        return np.array([float(c) for c in a.coords + b.coords])

    J = np.zeros((2 * n, 2 * n))
    for i in range(2 * n):
        wp, wm = w0.copy(), w0.copy()
        wp[i] += eps
        wm[i] -= eps
        J[:, i] = (f(wp) - f(wm)) / (2 * eps)
    return float(np.linalg.det(J))


def _suite_varchange(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    return [quadrature.check_change_of_variables(algebra)]


def _suite_gamma(algebra, cache_dir, tols):
    def gamma_report(nu, method, numeric, tol, **fields):
        closed = quadrature.gamma_omega_closed(algebra, nu)
        return report("cone-gamma-integral", algebra.name, nu=nu, method=method,
                      **fields, closed=closed, numeric=numeric,
                      residual=abs(numeric - closed) / closed, tolerance=tol)

    if algebra.family == "rank1":
        return [gamma_report(3.0, "gauss-laguerre",
                             quadrature.gamma_omega_numeric(algebra, 3.0, n=60),
                             tols.get("gamma", 1e-10))]
    if algebra.name == "sym2":
        quad = quadrature.gamma_omega_numeric(algebra, 3.0, n=80)
        mc = quadrature.gamma_omega_numeric(algebra, 3.0, method="mc",
                                            mc_samples=1_000_000, seed=20240)
        return [gamma_report(3.0, "eigenvalue-quadrature", quad,
                             tols.get("gamma", 1e-6)),
                gamma_report(3.0, "monte-carlo", mc, tols.get("gamma-mc", 1e-2),
                             seed=20240, samples=1_000_000)]
    return [gamma_report(4.0, "eigenvalue-quadrature",
                         quadrature.gamma_omega_numeric(algebra, 4.0, n=48),
                         tols.get("gamma", 1e-5))]


def _suite_orthogonality(algebra, cache_dir, tols):
    if algebra.family == "rank1":
        rep = quadrature.gram_matrix(algebra, 1.0, 1.0, 4, cache_dir=cache_dir)
        tol = tols.get("orthogonality", 1e-12)
    elif algebra.name == "sym2":
        rep = quadrature.gram_matrix(algebra, 3.0, 3.0, 3, cache_dir=cache_dir)
        tol = tols.get("orthogonality", 1e-8)
    else:
        return []
    data = rep.to_jsonable()
    del data["schema"], data["algebra"]
    return [report("interval-orthogonality", algebra.name, tolerance=tol, **data)]


def _tube_points_for(algebra):
    return [algebra.element(tuple(c)) for c in tube._default_tube_points(algebra)]


def _suite_laplace(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    nu = 2.8
    tol = tols.get("laplace", 1e-8 if algebra.family == "rank1" else 1e-4)
    closed_gamma = quadrature.gamma_omega_closed(algebra, nu)
    ie = 1j * np.array([float(c) for c in algebra.e_coords])
    rows = []
    for z in _tube_points_for(algebra):
        num = quadrature.tube_laplace(
            algebra, lambda c: np.ones(len(c)), z, kappa=1.0,
            det_power=nu - algebra.n / algebra.r)
        want = closed_gamma * np.exp(
            -nu * tube.logdet_tube(algebra, (z.as_array() + ie).reshape(1, -1))[0])
        rows.append({"z": [repr(c) for c in z.coords],
                     "residual": abs(num - want) / abs(want)})
    out = [report("laplace-transform-of-weight", algebra.name, nu=nu,
                  points=len(rows), max_residual=worst(r["residual"] for r in rows),
                  tolerance=tol, samples=rows)]
    if algebra.family == "rank1":
        out.append(tube.check_bergman_isometry(
            algebra, tol=tols.get("isometry-norm", 1e-6)))
    return out


def _suite_jfact(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    return [tube.check_J_factorization(algebra)]


def _suite_operator_equivalence(algebra, cache_dir, tols):
    if algebra.family != "rank1":
        return []
    return [tube.check_bracket_transform_equivalence(
        algebra, k, 3, 4, tol=tols.get("operator-equivalence", 1e-6),
        cache_dir=cache_dir) for k in (0, 1, 2, 3)]


def _suite_adjoint(algebra, cache_dir, tols):
    reports = []
    if algebra.family == "rank1":
        z1 = algebra.element((0.3 + 1.0j,))
        z2 = algebra.element((-0.2 + 2.0j,))
        for k in (0, 1, 2):
            reports.append(tube.check_adjoint_image(
                algebra, k, 3, 3, z1, z2, tol=tols.get("adjoint", 1e-6),
                cache_dir=cache_dir))
    elif algebra.name == "sym2":
        z1 = algebra.element((0.2 + 1.1j, -0.1 + 1.3j, 0.05 + 0.1j))
        z2 = algebra.element((-0.3 + 1.8j, 0.2 + 1.5j, -0.02 + 0.05j))
        reports.append(tube.check_adjoint_image(
            algebra, 1, 3, 3, z1, z2, tol=tols.get("adjoint", 1e-3),
            cache_dir=cache_dir))
    return reports


def _suite_isometry(algebra, cache_dir, tols):
    if algebra.family != "rank1":
        return []
    return [tube.check_partial_isometry(algebra, k, 3, 3,
                                        tol=tols.get("isometry", 1e-6),
                                        cache_dir=cache_dir)
            for k in (0, 1, 2)]


def _suite_covariance(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    tol = tols.get("covariance", 1e-6)
    ks = (0, 1, 2, 3) if algebra.family == "rank1" else (1,)
    reports = []
    for k in ks:
        for gen in tube.default_generators(algebra):
            reports.append(tube.check_covariance_B(
                algebra, k, 2.6, 3.2, gen, tol=tol, cache_dir=cache_dir))
    return reports


def _suite_hua(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    tol = tols.get("hua", 1e-8)
    e = np.array([float(c) for c in algebra.e_coords])
    n = algebra.n
    z = algebra.element(tuple(0.4 * np.arange(n) / n + 1.3j * e
                              + 0.05j * np.arange(n)))
    w = algebra.element(tuple(-0.2 * e + 0.9j * e))
    out = []
    for gen in tube.default_generators(algebra):
        out.append(tube.check_hua_cocycle(algebra, gen, z, w, tol=tol))
        out.append(tube.check_coherent_transform(algebra, 2.7, gen, w,
                                                 tol=tols.get("coherent", 1e-8)))
    return out


def _suite_aut(algebra, cache_dir, tols):
    if algebra.family == "rank1":
        return []
    kmax = min(_check_k(algebra), 2)
    return [brackets.check_aut_invariance(algebra, k, 3, 3,
                                          tol=tols.get("aut", 1e-10),
                                          cache_dir=cache_dir)
            for k in range(1, kmax + 1)]


def _suite_branch(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    e = np.array([float(c) for c in algebra.e_coords])
    n = algebra.n
    target = (0.7 * np.arange(1, n + 1) / n + 1j * (1.5 * e + 0.2 * np.arange(n)))
    wp = [np.asarray(-0.5 * e + 2.1j * e, dtype=complex)]
    direct = tube.logdet_tube(algebra, target.reshape(1, -1))[0]
    via = tube.logdet_tube(algebra, target.reshape(1, -1), waypoints=wp)[0]
    return [report("branch-path-independence", algebra.name,
                   residual=abs(direct - via), tolerance=tols.get("branch", 1e-10))]


def _suite_cauchy(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    e = np.array([float(c) for c in algebra.e_coords])
    w = algebra.element(tuple((0.1 + 1.0j) * e))
    K = tube.coherent_state(algebra, 2.3, w)
    z = algebra.element(tuple((0.3 + 1.4j) * e))
    alpha = tuple([2] + [0] * (algebra.n - 1))
    d32 = tube.holo_derivative(K, z, alpha, n_nodes=32)
    d64 = tube.holo_derivative(K, z, alpha, n_nodes=64)
    return [report("contour-derivative-stability", algebra.name,
                   residual=abs(d32 - d64) / max(abs(d64), 1e-300),
                   tolerance=tols.get("cauchy", 1e-9))]


SUITES = {
    "polynomiality": _suite_polynomiality,
    "exchange": _suite_exchange,
    "chi-covariance": _suite_chi,
    "cayley": _suite_cayley,
    "jacobi": _suite_jacobi,
    "iota-factorization": _suite_iota_fact,
    "jordan-numerics": _suite_jordan_numerics,
    "change-of-variables": _suite_varchange,
    "gamma": _suite_gamma,
    "orthogonality": _suite_orthogonality,
    "laplace": _suite_laplace,
    "laplace-factorization": _suite_jfact,
    "operator-equivalence": _suite_operator_equivalence,
    "adjoint-image": _suite_adjoint,
    "partial-isometry": _suite_isometry,
    "covariance": _suite_covariance,
    "cocycles": _suite_hua,
    "aut-invariance": _suite_aut,
    "branch": _suite_branch,
    "cauchy-stability": _suite_cauchy,
}


def run_suites(algebra, selector: str, cache_dir=None, tols=None):
    tols = tols or {}
    if selector == "all":
        names = list(SUITES)
    elif selector in SUITES:
        names = [selector]
    else:
        raise ConfigError(
            f"unknown suite {selector!r}; choose from all, {', '.join(SUITES)}")
    reports = []
    for name in names:
        try:
            reports.extend(SUITES[name](algebra, cache_dir, tols))
        except Exception as exc:
            # an error inside a suite is a failed check, not an aborted run
            reports.append(report("suite-error", algebra.name, ok=False,
                                  suite=name, error=f"{type(exc).__name__}: {exc}"))
    ok = all(r["pass"] for r in reports)
    return reports, ok


def cmd_check(args) -> int:
    algebra = _algebra_from(args)
    selector = args.suite
    tols = {}
    for item in merged(args, "tol", []) or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, val = item.split("=", 1)
        tols[name] = float(val)
    cache_dir = merged(args, "cache_dir")
    reports, ok = run_suites(algebra, selector, cache_dir, tols)
    payload = {
        "schema": SCHEMA,
        "kind": "check-report",
        "algebra": algebra.name,
        "suite": selector,
        "reports": reports,
        "pass": ok,
    }
    _write_out(args, dump_report(payload))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rclab",
        description="Bracket polynomial families on symmetric cones: "
                    "construction and verification.")
    p.add_argument("--config", help="key = value configuration file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--algebra", choices=ALGEBRA_NAMES)
        sp.add_argument("--output", help="write to this path instead of stdout")
        sp.add_argument("--cache-dir", dest="cache_dir")

    sp = sub.add_parser("polys", help="emit bracket polynomial tables")
    common(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--format", choices=("json", "csv", "latex"))
    sp.add_argument("--kind", dest="family_kind",
                    choices=("two-slot", "restricted"))
    sp.add_argument("--lambda", dest="lam")
    sp.add_argument("--mu", dest="mu")
    sp.set_defaults(func=cmd_polys)

    sp = sub.add_parser("gram", help="interval Gram matrix of the family")
    common(sp)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--mu", dest="mu", type=float)
    sp.add_argument("--nodes", type=int)
    sp.add_argument("--format", choices=("json", "csv"))
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("gamma", help="Gamma function of the cone")
    common(sp)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--rule", choices=("eigenvalue-quadrature", "monte-carlo"))
    sp.add_argument("--nodes", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("check", help="run verification suites")
    common(sp)
    sp.add_argument("suite", nargs="?", default="all")
    sp.add_argument("--tol", action="append",
                    help="override a tolerance: name=value (repeatable)")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("cache", help="inspect or clear the polynomial cache")
    common(sp)
    sp.add_argument("cache_action", choices=("inspect", "clear"))
    sp.set_defaults(func=cmd_cache)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = read_config_file(args.config) if args.config else {}
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
