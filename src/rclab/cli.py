"""Command-line interface.

Subcommands
    polys   write bracket-polynomial coefficient tables (json/csv/latex)
    gram    interval Gram matrices of the restricted family
    gamma   cone Gamma function (closed form, optionally numeric)
    check   run verification suites; exit 0 iff everything passes
    cache   inspect or clear the on-disk polynomial cache

Configuration precedence: command-line flags > config file (simple
``key = value`` lines, '#' comments) > built-in defaults.  A config key is
one of the subcommand's flag names without its dashes ('-' and '_' alike);
any other key is a configuration error.  All artifacts
are deterministic: identical configuration (including seeds) produces
byte-identical output.  Exit codes: 0 success, 1 check failure, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import SCHEMA, report, worst
from .algebra import get_algebra, ALGEBRA_NAMES, AlgebraError
from . import brackets, quadrature, tube
from .poly import Poly

# documented feasibility caps for the Rodrigues pipeline (desk scale)
K_CAPS = {
    "rank1": 8, "sym2": 4, "sym3": 2, "sym4": 1,
    "spin3": 3, "spin4": 3, "spin5": 2, "spin6": 2, "spin7": 2, "spin8": 2,
}

# acceptance-scale k ranges exercised by `check`
CHECK_K = {"rank1": 6, "sym2": 3}

# documented caps on the costly numeric options.  The sym2 Monte Carlo
# sampler holds at most two float arrays of --samples values; a Gauss rule of
# n nodes takes time growing faster than n^2 (4,000 nodes take about 20 s);
# gram integrates on (n + 8)^r points, n = --nodes, for rank r.
MAX_SAMPLES = 2_000_000
MAX_NODES = 1_000
MAX_GRAM_POINTS = 250_000

# `polys --format` values per `--kind`; latex is for the two-slot family only
POLYS_FORMATS = {"two-slot": ("json", "csv", "latex"), "restricted": ("json", "csv")}


class ConfigError(Exception):
    pass


def _check_k(algebra) -> int:
    """Largest k the suites check: CHECK_K, clamped to the feasibility cap."""
    return min(CHECK_K.get(algebra.name, 2), K_CAPS[algebra.name])


def _jsonable(obj):
    """What json cannot write itself: numpy values, complex numbers as
    [re, im] and Fractions as "p/q"."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dump_report(data) -> str:
    return json.dumps(data, default=_jsonable, indent=2, sort_keys=True) + "\n"


def read_config_file(path: str, keys) -> dict:
    """The ``key = value`` lines of ``path`` by argparse dest.  ``keys`` are
    the dests of the subcommand's flags, each its flag name without the
    dashes and with '_' for '-'; any other key is a ConfigError."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, val = (s.strip() for s in line.split("=", 1))
                dest = key.replace("-", "_")
                if dest not in keys:
                    names = ", ".join(k.replace("_", "-") for k in sorted(keys))
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                                      f"choose from {names}")
                out[dest] = val
    except OSError as exc:
        raise ConfigError(f"--config {path}: {exc.strerror}") from exc
    return out


def merged(args, key, default=None, cast=str):
    """flags > config file > default.  A text value, from the file or from a
    flag without an argparse type, goes through ``cast``; a value it rejects
    is a ConfigError naming the flag."""
    val = getattr(args, key, None)
    if val is None:
        val = getattr(args, "_config", {}).get(key)
    if not isinstance(val, str):
        return default if val is None else val
    try:
        return cast(val)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"--{key.replace('_', '-')}: bad value {val!r}") from exc


def _int_option(args, key, default, lo, hi):
    """An integer option, rejected outside lo..hi."""
    val = merged(args, key, default, int)
    if not lo <= val <= hi:
        raise ConfigError(f"--{key} must lie in {lo}..{hi}, got {val}")
    return val


def _algebra_from(args):
    name = merged(args, "algebra", "rank1")
    try:
        return get_algebra(name)
    except AlgebraError as exc:
        raise ConfigError(str(exc)) from exc


def _cache_dir(args):
    """--cache-dir, created up front: a path that cannot be a directory is a
    configuration error, not a failed build."""
    path = merged(args, "cache_dir")
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--cache-dir {path}: {exc.strerror}") from exc
    return path


def _check_output(args):
    """Refuse, before any work, an --output in a missing or read-only directory."""
    path = merged(args, "output")
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"--output {path}: no writable directory {folder}")


def _write_out(args, text: str):
    path = merged(args, "output")
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"--output {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_polys(args) -> int:
    algebra = _algebra_from(args)
    k = merged(args, "k", 1, int)
    cap = K_CAPS[algebra.name]
    if not 0 <= k <= cap:
        raise ConfigError(f"k={k} outside the feasibility cap 0..{cap} for {algebra.name}")
    fmt = merged(args, "format", "json")
    which = merged(args, "kind", "two-slot")
    if which not in POLYS_FORMATS:
        raise ConfigError(f"unknown kind {which!r}")
    if fmt not in POLYS_FORMATS[which]:
        raise ConfigError(f"format {fmt!r} is not one of "
                          f"{', '.join(POLYS_FORMATS[which])} for the {which} family")
    cache_dir = _cache_dir(args)
    if which == "two-slot":
        poly = brackets.compute_c(algebra, k, cache_dir)
        if fmt == "json":
            text = brackets.bracket_table_json(poly)
        elif fmt == "csv":
            text = brackets.bracket_table_csv(poly)
        else:
            text = brackets.bracket_table_latex(poly)
    else:
        lam = merged(args, "lambda", None, Fraction)
        mu = merged(args, "mu", None, Fraction)
        if (lam is None) != (mu is None):
            raise ConfigError("give both --lambda and --mu, or neither")
        C = brackets.compute_C(algebra, k, lam, mu, cache_dir)
        rows = [{"mono": list(m), "coef": brackets._coef_label(coef)}
                for m, coef in C.poly.rows()]
        payload = {"schema": SCHEMA, "kind": "restricted-polynomial",
                   "algebra": algebra.name, "k": k,
                   "lambda": None if lam is None else str(lam),
                   "mu": None if mu is None else str(mu), "terms": rows}
        if fmt == "json":
            text = dump_report(payload)
        else:
            lines = ["mono,coefficient"]
            for r in rows:
                lines.append("\"%s\",\"%s\"" % ("*".join(map(str, r["mono"])), r["coef"]))
            text = "\n".join(lines) + "\n"
    _write_out(args, text)
    return 0


def cmd_gram(args) -> int:
    algebra = _algebra_from(args)
    kmax = _int_option(args, "kmax", 2, 0, K_CAPS[algebra.name])
    lam = merged(args, "lambda", 1.0, float)
    mu = merged(args, "mu", 1.0, float)
    threshold = 1 + (algebra.r - 1) * algebra.d - algebra.n / algebra.r
    if lam <= threshold or mu <= threshold:
        raise ConfigError(
            f"weights must exceed 1 + (r-1)d - n/r = {threshold} for orthogonality"
        )

    def rule_fits(n):
        return 1 <= n <= MAX_NODES - 8 and (n + 8) ** algebra.r <= MAX_GRAM_POINTS

    caps = f"n + 8 <= {MAX_NODES} and (n + 8)^{algebra.r} <= {MAX_GRAM_POINTS}"
    # the weights fix the rule size that integrates exactly, so they obey the
    # caps even when --nodes is given; far past them the entries overflow
    if not (math.isfinite(lam + mu)
            and rule_fits(quadrature.gram_nodes(algebra, lam, mu, kmax))):
        raise ConfigError(f"--lambda and --mu need a rule of n = 2 r kmax + "
                          f"int(lambda + mu) + d + 12 nodes with {caps}")
    n = merged(args, "nodes", None, int)
    if n is not None and not rule_fits(n):
        raise ConfigError(f"--nodes must be >= 1 with {caps}, got {n}")
    rep = quadrature.gram_matrix(algebra, lam, mu, kmax, n, _cache_dir(args))
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
    try:
        closed = quadrature.gamma_omega_closed(algebra, nu)
    except OverflowError:
        closed = math.inf
    if not math.isfinite(closed):
        raise ConfigError(f"--nu {nu}: the cone Gamma product is not a finite float")
    out = {"schema": SCHEMA, "kind": "cone-gamma", "algebra": algebra.name,
           "nu": nu, "closed": closed}
    kind = merged(args, "rule", None)
    if kind:
        n = _int_option(args, "nodes", 80, 1, MAX_NODES)
        seed = merged(args, "seed", 20240, int)
        if kind == "monte-carlo":
            samples = _int_option(args, "samples", 1_000_000, 1, MAX_SAMPLES)
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


def _tol(tols, name, default):
    """The tolerance ``name``: ``default`` or a --tol value that tightens it.
    A looser or non-positive one is a ConfigError: a check must be able to fail."""
    val = tols.get(name, default)
    if not 0 < val <= default:
        raise ConfigError(f"--tol {name}={val!r}: a tolerance may only tighten, "
                          f"to a value in (0, {default!r}]")
    return val


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
    reports = []
    for k in range(_check_k(algebra) + 1):
        c = brackets.compute_c(algebra, k, cache_dir)
        sw = c.swap_slots_and_params()
        p = c.poly
        ok = sw.poly == Poly(p.exps, (-1) ** (algebra.r * k) * p.coef, p.den)
        reports.append(report("slot-exchange-antisymmetry", algebra.name,
                              ok=ok, k=k, exact=True))
    return reports


def _suite_chi(algebra, cache_dir, tols):
    return brackets.check_chi_covariance(algebra, _check_k(algebra), samples=50,
                                         cache_dir=cache_dir)


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
    tol = _tol(tols, "iota-fact", 1e-10)
    return brackets.check_iota_factorization(algebra, min(_check_k(algebra), 2),
                                             samples=10, tol=tol, cache_dir=cache_dir)


def _suite_jordan_numerics(algebra, cache_dir, tols):
    import random as _random

    from .algebra import random_chart_points, iota, iota_inv, iota_jacobian

    rng = _random.Random(17)
    Z, V = random_chart_points(rng, algebra, 100)
    Z2, V2 = iota_inv(algebra, *iota(algebra, Z, V))
    roundtrip = np.abs(np.hstack([Z2 - Z, V2 - V])).max(axis=1)
    Z, V = random_chart_points(rng, algebra, 20)
    an = iota_jacobian(algebra, Z)
    jacobian = np.abs(_fd_jacobian(algebra, Z, V) - an) / np.abs(an)
    return [
        report("polar-chart-roundtrip", algebra.name, samples=100,
               max_residual=worst(roundtrip.tolist()),
               tolerance=_tol(tols, "iota-roundtrip", 1e-12)),
        report("polar-chart-jacobian", algebra.name, samples=20,
               max_residual=worst(jacobian.tolist()),
               tolerance=_tol(tols, "jacobian", 1e-6)),
    ]


def _fd_jacobian(algebra, Z, V, eps=1e-5):
    """Central-difference Jacobian determinants of iota at rows (z, v)."""
    from .algebra import iota

    m, n = Z.shape
    steps = eps * np.eye(2 * n)
    W = np.hstack([Z, V])[:, None, :]
    rows = np.concatenate([W + steps, W - steps], axis=1).reshape(-1, 2 * n)
    F = np.hstack(iota(algebra, rows[:, :n], rows[:, n:])).reshape(m, 2, 2 * n, 2 * n)
    # F[:, 0, i] - F[:, 1, i] is column i of the Jacobian
    J = np.swapaxes(F[:, 0] - F[:, 1], 1, 2) / (2 * eps)
    return np.linalg.det(J)


def _suite_varchange(algebra, cache_dir, tols):
    if algebra.name not in quadrature.CHART_NODES:
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
                             _tol(tols, "gamma", 1e-10))]
    if algebra.name == "sym2":
        quad = quadrature.gamma_omega_numeric(algebra, 3.0, n=80)
        mc = quadrature.gamma_omega_numeric(algebra, 3.0, method="mc",
                                            mc_samples=1_000_000, seed=20240)
        return [gamma_report(3.0, "eigenvalue-quadrature", quad,
                             _tol(tols, "gamma", 1e-6)),
                gamma_report(3.0, "monte-carlo", mc, _tol(tols, "gamma-mc", 1e-2),
                             seed=20240, samples=1_000_000)]
    return [gamma_report(4.0, "eigenvalue-quadrature",
                         quadrature.gamma_omega_numeric(algebra, 4.0, n=48),
                         _tol(tols, "gamma", 1e-5))]


def _suite_orthogonality(algebra, cache_dir, tols):
    if algebra.family == "rank1":
        rep = quadrature.gram_matrix(algebra, 1.0, 1.0, 4, cache_dir=cache_dir)
        tol = _tol(tols, "orthogonality", 1e-12)
    elif algebra.name == "sym2":
        rep = quadrature.gram_matrix(algebra, 3.0, 3.0, 3, cache_dir=cache_dir)
        tol = _tol(tols, "orthogonality", 1e-8)
    else:
        return []
    data = rep.to_jsonable()
    del data["schema"], data["algebra"]
    return [report("interval-orthogonality", algebra.name, tolerance=tol, **data)]


def _suite_laplace(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    nu = 2.8
    tol = _tol(tols, "laplace", 1e-8 if algebra.family == "rank1" else 1e-4)
    closed_gamma = quadrature.gamma_omega_closed(algebra, nu)
    ie = 1j * algebra.e
    rows = []
    for z in tube._default_tube_points(algebra):
        num = quadrature.tube_laplace(
            algebra, [lambda c: np.ones(len(c))], z,
            det_power=nu - algebra.n / algebra.r)[0]
        want = closed_gamma * np.exp(
            -nu * tube.logdet_tube(algebra, (z + ie).reshape(1, -1))[0])
        rows.append({"z": [[c.real, c.imag] for c in z.tolist()],
                     "residual": abs(num - want) / abs(want)})
    out = [report("laplace-transform-of-weight", algebra.name, nu=nu,
                  points=len(rows), max_residual=worst(r["residual"] for r in rows),
                  tolerance=tol, samples=rows)]
    if algebra.family == "rank1":
        out.append(tube.check_bergman_isometry(
            algebra, tol=_tol(tols, "isometry-norm", 1e-6)))
    return out


def _suite_jfact(algebra, cache_dir, tols):
    if algebra.name not in quadrature.CHART_NODES:
        return []
    return [tube.check_J_factorization(algebra)]


def _suite_operator_equivalence(algebra, cache_dir, tols):
    if algebra.family != "rank1":
        return []
    return [tube.check_bracket_transform_equivalence(
        algebra, k, 3, 4, tol=_tol(tols, "operator-equivalence", 1e-6),
        cache_dir=cache_dir) for k in (0, 1, 2, 3)]


def _suite_adjoint(algebra, cache_dir, tols):
    reports = []
    if algebra.family == "rank1":
        z1 = np.array([0.3 + 1.0j])
        z2 = np.array([-0.2 + 2.0j])
        for k in (0, 1, 2):
            reports.append(tube.check_adjoint_image(
                algebra, k, 3, 3, z1, z2, tol=_tol(tols, "adjoint", 1e-6),
                cache_dir=cache_dir))
    elif algebra.name == "sym2":
        z1 = np.array([0.2 + 1.1j, -0.1 + 1.3j, 0.05 + 0.1j])
        z2 = np.array([-0.3 + 1.8j, 0.2 + 1.5j, -0.02 + 0.05j])
        reports.append(tube.check_adjoint_image(
            algebra, 1, 3, 3, z1, z2, tol=_tol(tols, "adjoint", 1e-3),
            cache_dir=cache_dir))
    return reports


def _suite_isometry(algebra, cache_dir, tols):
    if algebra.family != "rank1":
        return []
    return [tube.check_partial_isometry(algebra, k, 3, 3,
                                        tol=_tol(tols, "isometry", 1e-6),
                                        cache_dir=cache_dir)
            for k in (0, 1, 2)]


def _suite_covariance(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    tol = _tol(tols, "covariance", 1e-6)
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
    tol = _tol(tols, "hua", 1e-8)
    e = algebra.e
    n = algebra.n
    z = 0.4 * np.arange(n) / n + 1.3j * e + 0.05j * np.arange(n)
    w = -0.2 * e + 0.9j * e
    out = []
    for gen in tube.default_generators(algebra):
        out.append(tube.check_hua_cocycle(algebra, gen, z, w, tol=tol))
        out.append(tube.check_coherent_transform(algebra, 2.7, gen, w,
                                                 tol=_tol(tols, "coherent", 1e-8)))
    return out


def _suite_aut(algebra, cache_dir, tols):
    if algebra.family == "rank1":
        return []
    kmax = min(_check_k(algebra), 2)
    return [brackets.check_aut_invariance(algebra, k, 3, 3,
                                          tol=_tol(tols, "aut", 1e-10),
                                          cache_dir=cache_dir)
            for k in range(1, kmax + 1)]


def _suite_branch(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    e = algebra.e
    n = algebra.n
    target = (0.7 * np.arange(1, n + 1) / n + 1j * (1.5 * e + 0.2 * np.arange(n)))
    direct = tube.logdet_tube(algebra, target.reshape(1, -1))[0]
    via = _path_logdet(algebra, np.array([-0.5 * e + 2.1j * e, target]))
    return [report("branch-path-independence", algebra.name,
                   residual=abs(direct - via), tolerance=_tol(tols, "branch", 1e-10))]


def _path_logdet(algebra, corners, steps=64):
    """log det(z/i) at the last of ``corners``: the sum of the principal
    logs of det ratios along the polyline from i e through ``corners``, in
    ``steps`` equal steps a segment."""
    corners = np.concatenate([[1j * algebra.e], corners])
    t = np.linspace(0.0, 1.0, steps + 1)[1:, None]
    pts = np.concatenate([corners[:1]] + [a + t * (b - a)
                                          for a, b in zip(corners[:-1], corners[1:])])
    dets = algebra.det_poly.numeric(-1j * pts)
    return complex(np.log(dets[1:] / dets[:-1]).sum())


def _suite_cauchy(algebra, cache_dir, tols):
    if algebra.name not in ("rank1", "sym2"):
        return []
    e = algebra.e
    K = tube.coherent_state(algebra, 2.3, (0.1 + 1.0j) * e)
    z = (0.3 + 1.4j) * e
    # a mixed index wherever there are two coordinates: it takes several rings
    alpha = (2,) if algebra.n == 1 else (2, 1) + (0,) * (algebra.n - 2)
    d32, d64 = (tube.holo_mixed_derivatives(algebra, K, z, [alpha], n_nodes=nodes)[alpha]
                for nodes in (32, 64))
    return [report("contour-derivative-stability", algebra.name,
                   residual=abs(d32 - d64) / max(abs(d64), 1e-300),
                   tolerance=_tol(tols, "cauchy", 1e-9))]


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


# every name a suite reads from ``tols``; `check --tol` accepts no other
TOL_NAMES = frozenset((
    "adjoint", "aut", "branch", "cauchy", "coherent", "covariance", "gamma",
    "gamma-mc", "hua", "iota-fact", "iota-roundtrip", "isometry",
    "isometry-norm", "jacobian", "laplace", "operator-equivalence",
    "orthogonality",
))


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
        except ConfigError:
            raise
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
    # flags give a list; a config file gives ``tol = name=value, name=value``
    for item in merged(args, "tol", [], lambda v: v.replace(",", " ").split()):
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        name, val = item.split("=", 1)
        if name not in TOL_NAMES:
            raise ConfigError(f"unknown tolerance {name!r}; choose from "
                              f"{', '.join(sorted(TOL_NAMES))}")
        tols[name] = float(val)
        if not 0 < tols[name] < math.inf:
            raise ConfigError(f"--tol {item}: a tolerance must be positive and finite")
    cache_dir = _cache_dir(args)
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
        sp.add_argument("--cache-dir")

    sp = sub.add_parser("polys", help="emit bracket polynomial tables")
    common(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--format", choices=POLYS_FORMATS["two-slot"])
    sp.add_argument("--kind", choices=tuple(POLYS_FORMATS))
    sp.add_argument("--lambda")
    sp.add_argument("--mu")
    sp.set_defaults(func=cmd_polys)

    sp = sub.add_parser("gram", help="interval Gram matrix of the family")
    common(sp)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--lambda", type=float)
    sp.add_argument("--mu", type=float)
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
    # a config-file key is the dest of one of the subcommand's flags
    for sp in sub.choices.values():
        sp.set_defaults(config_keys=frozenset(
            a.dest for a in sp._actions if a.option_strings and a.dest != "help"))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = (read_config_file(args.config, args.config_keys)
                        if args.config else {})
        _check_output(args)
        return args.func(args)
    except (ConfigError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
