"""Command-line interface.

Subcommands
    polys   write bracket-polynomial coefficient tables (json/csv/latex)
    gram    interval Gram matrices of the restricted family
    gamma   cone Gamma function (closed form, optionally numeric)
    check   run verification suites; exit 0 iff everything passes
    cache   inspect or clear the on-disk cache of pencil chains

Configuration precedence: command-line flags > config file (simple
``key = value`` lines, '#' comments) > built-in defaults.  A config key is
one of the subcommand's flag names without its dashes ('-' and '_' alike);
any other key is a configuration error.  All artifacts
are deterministic: identical configuration produces
byte-identical output.  Exit codes: 0 success, 1 check failure, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
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
CHECK_K = {"rank1": 6, "sym2": 3}

# documented caps on the costly numeric options.  A Gauss rule of n nodes
# takes time growing faster than n^2 (4,000 nodes take about 20 s); gram
# integrates on (n + 8)^r points, n = --nodes, for rank r, and gamma's
# eigenvalue rule on n^(r-1) points (80^3 for sym4 at the default 80), or on
# at most quadrature.MAX_LAGUERRE_NODES Laguerre nodes in rank 1.
MAX_NODES = 1_000
MAX_GRAM_POINTS = 250_000
MAX_GAMMA_POINTS = 512_000

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
    """The ``key = value`` lines of ``path`` by argparse dest.  ``keys`` maps
    the dests of the subcommand's flags, each its flag name without the
    dashes and with '_' for '-', to the flag's choices or None; any other
    key, a key set on two lines, or a value outside the choices, is a
    ConfigError."""
    out, first = {}, {}
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
                if dest in first:
                    raise ConfigError(f"{path}:{lineno}: {key} is set again; "
                                      f"line {first[dest]} set it first")
                first[dest] = lineno
                if keys[dest] is not None and val not in keys[dest]:
                    raise ConfigError(f"{path}:{lineno}: invalid {key} {val!r}; "
                                      f"choose from {', '.join(keys[dest])}")
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
    """Refuse, before any work, an --output that is a directory or lies in a
    missing or read-only one."""
    path = merged(args, "output")
    if not path:
        return
    if os.path.isdir(path):
        raise ConfigError(f"--output {path}: is a directory")
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
    if fmt not in POLYS_FORMATS[which]:
        raise ConfigError(f"format {fmt!r} is not one of "
                          f"{', '.join(POLYS_FORMATS[which])} for the {which} family")
    lam = merged(args, "lambda", None, Fraction)
    mu = merged(args, "mu", None, Fraction)
    if which == "two-slot" and (lam, mu) != (None, None):
        raise ConfigError("--lambda and --mu weight the restricted family only")
    if (lam is None) != (mu is None):
        raise ConfigError("give both --lambda and --mu, or neither")
    with brackets.pencil_cache(algebra, _cache_dir(args)):
        if which == "two-slot":
            emit = {"json": brackets.bracket_table_json, "csv": brackets.bracket_table_csv,
                    "latex": brackets.bracket_table_latex}[fmt]
            text = emit(brackets.compute_c(algebra, k))
        else:
            C = brackets.compute_C(algebra, k, lam, mu)
            rows = [{"mono": list(m), "coef": brackets._coef_label(coef)}
                    for m, coef in C.poly.rows()]
            payload = {"schema": SCHEMA, "kind": "restricted-polynomial",
                       "algebra": algebra.name, "k": k,
                       "lambda": None if lam is None else str(lam),
                       "mu": None if mu is None else str(mu), "terms": rows}
            text = dump_report(payload) if fmt == "json" else "mono,coefficient\n" + "".join(
                f"\"{'*'.join(map(str, r['mono']))}\",\"{r['coef']}\"\n" for r in rows)
    _write_out(args, text)
    return 0


def cmd_gram(args) -> int:
    algebra = _algebra_from(args)
    cap = K_CAPS[algebra.name]
    kmax = _int_option(args, "kmax", min(2, cap), 0, cap)
    threshold = 1 + (algebra.r - 1) * algebra.d - algebra.n / algebra.r
    # by default each weight is the least integer the family is orthogonal at
    least = float(math.floor(threshold) + 1)
    lam = merged(args, "lambda", least, float)
    mu = merged(args, "mu", least, float)
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
    with brackets.pencil_cache(algebra, _cache_dir(args)):
        rep = quadrature.gram_matrix(algebra, lam, mu, kmax, n)
    if merged(args, "format", "json") == "json":
        _write_out(args, dump_report(rep))
    else:
        _write_out(args, "k,l,value\n" + "".join(
            f"{k},{l},{v!r}\n" for k, row in enumerate(rep["matrix"]) for l, v in enumerate(row)))
    return 0


def cmd_gamma(args) -> int:
    algebra = _algebra_from(args)
    nu = merged(args, "nu", None, float)
    if nu is None:
        raise ConfigError("gamma requires --nu")
    kind = merged(args, "rule", None)
    # --nodes sizes the rule: without one it is refused, not ignored
    if not kind and merged(args, "nodes") is not None:
        raise ConfigError("--nodes: not read without --rule")
    if not math.isfinite(nu):
        raise ConfigError(f"--nu {nu}: not a finite number")
    if kind:
        n = _int_option(args, "nodes", 80, 1, MAX_NODES)
        if algebra.r == 1 and n > quadrature.MAX_LAGUERRE_NODES:
            raise ConfigError(f"--nodes {n}: rank 1 takes at most "
                              f"{quadrature.MAX_LAGUERRE_NODES} Laguerre nodes")
        if n ** (algebra.r - 1) > MAX_GAMMA_POINTS:
            raise ConfigError(f"--nodes {n}: n^{algebra.r - 1} > {MAX_GAMMA_POINTS} points")
    try:
        closed = quadrature.gamma_omega_closed(algebra, nu)
    except OverflowError:
        closed = math.inf
    if not math.isfinite(closed):
        raise ConfigError(f"--nu {nu}: the cone Gamma product is not a finite float")
    out = {"schema": SCHEMA, "kind": "cone-gamma", "algebra": algebra.name,
           "nu": nu, "closed": closed}
    if kind:
        out.update(numeric=quadrature.gamma_omega_numeric(algebra, nu, n),
                   rule={"kind": kind, "nodes": n})
        if not math.isfinite(out["numeric"]):
            raise ConfigError(f"--nu {nu}: the {kind} value is not a finite float")
    _write_out(args, dump_report(out))
    return 0


def cmd_cache(args) -> int:
    cache_dir = merged(args, "cache_dir")
    if not cache_dir:
        raise ConfigError("cache requires --cache-dir")
    if args.cache_action == "inspect":
        entries = []
        if os.path.isdir(cache_dir):
            for name in sorted(os.listdir(cache_dir)):
                path = os.path.join(cache_dir, name)
                entries.append({"file": name, "bytes": os.path.getsize(path)})
        _write_out(args, dump_report(
            {"schema": SCHEMA, "kind": "cache-listing", "dir": cache_dir,
             "entries": entries}))
        return 0
    removed, failed = [], []    # the one other action argparse lets through: clear
    if os.path.isdir(cache_dir):
        for name in sorted(os.listdir(cache_dir)):
            # a cache file, or what a write killed before its rename left
            if name.startswith("c_") and name.endswith((".json", ".tmp")):
                try:
                    os.unlink(os.path.join(cache_dir, name))
                    removed.append(name)
                except OSError as exc:
                    failed.append(f"{os.path.join(cache_dir, name)} ({exc.strerror})")
    if failed:
        raise ConfigError(f"cache clear could not remove {', '.join(failed)}")
    _write_out(args, dump_report(
        {"schema": SCHEMA, "kind": "cache-clear", "dir": cache_dir,
         "removed": removed}))
    return 0


# ---------------------------------------------------------------------------
# Verification suites: each takes (algebra, tols), where ``tols``
# holds exactly the tolerances its SUITE_TABLE row lists for the algebra,
# built-in or tightened by --tol, and returns a list of reports


def _suite_polynomiality(algebra, tols):
    # each row is certified, and run_suites turns a raise into a failed report:
    # compute_c raises on a nonzero remainder or a monomial of the wrong degree,
    # certify_expansions unless c(k) and C(k) are the pencil form of the chain,
    # and certify_box unless C(k) is orthogonal to the rest of its box
    rows = []
    for k in range(_check_k(algebra) + 1):
        poly = brackets.compute_c(algebra, k)
        brackets.certify_expansions(algebra, k)
        for lam, mu in ((3, 2), (3, 3)):
            brackets.certify_box(algebra, k, lam, mu)
        rows.append({"k": k, "monomials": poly.num_monomials(),
                     "degree": algebra.r * k, "zero_remainder": True,
                     "homogeneous": True})
    return [report("rodrigues-polynomiality", algebra.name, ok=True, rows=rows)]


def _suite_exchange(algebra, tols):
    # c(k)_{s,t}(x, y) = (-1)^(rk) c(k)_{t,s}(y, x) on the chain: Delta_j(y, x)
    # = Delta_{r-j}(x, y), so coef_e(s, t) = (-1)^(rk) coef_e'(t, s) with e'
    # the reversed e
    reports = []
    for k in range(_check_k(algebra) + 1):
        terms = brackets._pencil(algebra, k).terms
        sign = (-1) ** (algebra.r * k)
        ok = terms == {e[::-1]: {(j, i): sign * v for (i, j), v in coef.items()}
                       for e, coef in terms.items()}
        reports.append(report("slot-exchange-antisymmetry", algebra.name,
                              ok=ok, k=k, exact=True))
    return reports


def _suite_cayley(algebra, tols):
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


def _suite_jacobi(algebra, tols):
    rows = []
    for lam, mu in ((0, 0), (1, 2), (3, 3)):
        for k in range(7):
            ratio = brackets.jacobi_proportionality(k, lam, mu)
            rows.append({"k": k, "lambda": lam, "mu": mu,
                         "ratio": f"{ratio.numerator}/{ratio.denominator}"})
    # jacobi_proportionality raises unless certify_box shows C(k) = c P_k, c != 0
    return [report("rank1-jacobi-reduction", algebra.name, ok=True, exact=True,
                   rows=rows)]


def _suite_jordan_numerics(algebra, tols):
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
               tolerance=tols["iota-roundtrip"]),
        report("polar-chart-jacobian", algebra.name, samples=20,
               max_residual=worst(jacobian.tolist()), tolerance=tols["jacobian"]),
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


def _suite_varchange(algebra, tols):
    return [quadrature.check_change_of_variables(algebra, tols["change-of-variables"])]


# (nu, nodes, method) of the cone Gamma check per algebra; "*" is the rest
_GAMMA_CHECK = {"rank1": (3.0, 60, "gauss-laguerre"),
                "sym2": (3.0, 80, "eigenvalue-quadrature"),
                "*": (4.0, 48, "eigenvalue-quadrature")}


def _suite_gamma(algebra, tols):
    nu, n, method = _GAMMA_CHECK.get(algebra.name, _GAMMA_CHECK["*"])
    closed = quadrature.gamma_omega_closed(algebra, nu)
    numeric = quadrature.gamma_omega_numeric(algebra, nu, n)
    return [report("cone-gamma-integral", algebra.name, nu=nu, method=method,
                   closed=closed, numeric=numeric,
                   residual=abs(numeric - closed) / closed, tolerance=tols["gamma"])]


def _suite_laplace(algebra, tols):
    nu = 2.8
    closed_gamma = quadrature.gamma_omega_closed(algebra, nu)
    points = tube._default_tube_points(algebra)
    logdets = tube.logdet_tube(algebra, points + 1j * algebra.e)
    nums = quadrature.tube_laplace(algebra, np.zeros((1, algebra.n), dtype=int), points,
                                   nu - algebra.n / algebra.r)[:, 0]
    rows = []
    for z, logdet, num in zip(points, logdets, nums):
        want = closed_gamma * np.exp(-nu * logdet)
        rows.append({"z": [[c.real, c.imag] for c in z.tolist()],
                     "residual": abs(num - want) / abs(want)})
    out = [report("laplace-transform-of-weight", algebra.name, nu=nu,
                  points=len(rows), max_residual=worst(r["residual"] for r in rows),
                  tolerance=tols["laplace"], samples=rows)]
    if algebra.family == "rank1":
        out.append(tube.check_bergman_isometry(algebra, tol=tols["isometry-norm"]))
    return out


def _suite_jfact(algebra, tols):
    return [tube.check_J_factorization(algebra, tols["laplace-factorization"])]


def _suite_operator_equivalence(algebra, tols):
    return [tube.check_bracket_transform_equivalence(
        algebra, k, 3, 4, tol=tols["operator-equivalence"])
        for k in (0, 1, 2, 3)]


def _suite_adjoint(algebra, tols):
    reports = []
    if algebra.family == "rank1":
        z1 = np.array([0.3 + 1.0j])
        z2 = np.array([-0.2 + 2.0j])
        for k in (0, 1, 2):
            reports.append(tube.check_adjoint_image(
                algebra, k, 3, 3, z1, z2, tol=tols["adjoint"]))
    else:
        z1 = np.array([0.2 + 1.1j, -0.1 + 1.3j, 0.05 + 0.1j])
        z2 = np.array([-0.3 + 1.8j, 0.2 + 1.5j, -0.02 + 0.05j])
        reports.append(tube.check_adjoint_image(
            algebra, 1, 3, 3, z1, z2, tol=tols["adjoint"]))
    return reports


def _suite_isometry(algebra, tols):
    return tube.check_partial_isometry(algebra, (0, 1, 2), 3, 3, tol=tols["isometry"])


def _suite_covariance(algebra, tols):
    ks = (0, 1, 2, 3) if algebra.family == "rank1" else (1,)
    reports = []
    for k in ks:
        for gen in tube.default_generators(algebra):
            reports.append(tube.check_covariance_B(
                algebra, k, 2.6, 3.2, gen, tol=tols["covariance"]))
    return reports


def _suite_hua(algebra, tols):
    e = algebra.e
    n = algebra.n
    z = 0.4 * np.arange(n) / n + 1.3j * e + 0.05j * np.arange(n)
    w = -0.2 * e + 0.9j * e
    out = []
    for gen in tube.default_generators(algebra):
        out.append(tube.check_hua_cocycle(algebra, gen, z, w, tol=tols["hua"]))
        out.append(tube.check_coherent_transform(algebra, 2.7, gen, w,
                                                 tol=tols["coherent"]))
    return out


def _suite_branch(algebra, tols):
    e = algebra.e
    n = algebra.n
    # Im target = 1.5 e + 0.6 (0..n-1)/n stays in the cone for every algebra
    target = 0.7 * np.arange(1, n + 1) / n + 1j * (1.5 * e + 0.6 * np.arange(n) / n)
    direct = tube.logdet_tube(algebra, target[None])[0]
    via = _path_logdet(algebra, np.array([-0.5 * e + 2.1j * e, target]))
    return [report("branch-path-independence", algebra.name,
                   residual=abs(direct - via), tolerance=tols["branch"])]


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


@dataclass(frozen=True)
class Suite:
    """A row of SUITE_TABLE: the run function, the algebras it runs for and
    the tolerances it reads, each a built-in value or ``{algebra: value,
    "*": value}`` where it differs by algebra (no entry: not read there)."""
    run: object
    algebras: tuple = ALGEBRA_NAMES
    tols: dict = field(default_factory=dict)

    def tolerances(self, algebra_name) -> dict:
        """The built-in tolerances the suite reads for the algebra."""
        own = {name: val.get(algebra_name, val.get("*")) if isinstance(val, dict) else val
               for name, val in self.tols.items()}
        return {name: val for name, val in own.items() if val is not None}


_RANK1 = ("rank1",)
_RANK1_SYM2 = ("rank1", "sym2")

# where each suite runs and what it reads, in report order
SUITE_TABLE = {
    "polynomiality": Suite(_suite_polynomiality),
    "exchange": Suite(_suite_exchange),
    "cayley": Suite(_suite_cayley),
    "jacobi": Suite(_suite_jacobi, _RANK1),
    "jordan-numerics": Suite(_suite_jordan_numerics,
                             tols={"iota-roundtrip": 1e-12,
                                   "jacobian": {"rank1": 1e-7, "*": 1e-6}}),
    "change-of-variables": Suite(_suite_varchange, _RANK1_SYM2, {"change-of-variables": 1e-12}),
    "gamma": Suite(_suite_gamma, tols={"gamma": 1e-12}),
    "laplace": Suite(_suite_laplace, _RANK1_SYM2, {
        "laplace": {"rank1": 1e-12, "sym2": 1e-4}, "isometry-norm": {"rank1": 1e-12}}),
    "laplace-factorization": Suite(_suite_jfact, _RANK1_SYM2, {"laplace-factorization": 1e-11}),
    "operator-equivalence": Suite(_suite_operator_equivalence, _RANK1,
                                  {"operator-equivalence": 1e-12}),
    "adjoint-image": Suite(_suite_adjoint, _RANK1_SYM2,
                           {"adjoint": {"rank1": 1e-11, "sym2": 1e-3}}),
    "partial-isometry": Suite(_suite_isometry, _RANK1, {"isometry": 1e-12}),
    "covariance": Suite(_suite_covariance, _RANK1_SYM2,
                        {"covariance": {"rank1": 1e-9, "sym2": 1e-10}}),
    "cocycles": Suite(_suite_hua, _RANK1_SYM2,
                      {"hua": 1e-12, "coherent": {"rank1": 1e-12, "sym2": 1e-11}}),
    "branch": Suite(_suite_branch, _RANK1_SYM2, {"branch": {"rank1": 1e-11, "sym2": 1e-12}}),
}

# run_suites looks these up at call time: a caller may wrap an entry
SUITES = {name: row.run for name, row in SUITE_TABLE.items()}


def _plan(algebra, selector, tols):
    """Each suite ``selector`` names for ``algebra`` with the built-in
    tolerances it reads (each name belongs to one suite).  Anything the
    table refuses, a ``tols`` entry that does not tighten one of those
    included, is a ConfigError: it stops the run before any suite."""
    if selector == "all":
        names = [n for n, row in SUITE_TABLE.items() if algebra.name in row.algebras]
    elif selector not in SUITE_TABLE:
        raise ConfigError(
            f"unknown suite {selector!r}; choose from all, {', '.join(SUITE_TABLE)}")
    elif algebra.name not in SUITE_TABLE[selector].algebras:
        raise ConfigError(f"suite {selector!r} does not run for {algebra.name}; it "
                          f"runs for {', '.join(SUITE_TABLE[selector].algebras)}")
    else:
        names = [selector]
    plan = {name: SUITE_TABLE[name].tolerances(algebra.name) for name in names}
    read = {t: v for own in plan.values() for t, v in own.items()}
    for tol, val in tols.items():
        if tol not in read:
            raise ConfigError(f"--tol {tol}: no selected suite reads it for {algebra.name};"
                              f" they read {', '.join(sorted(read)) or 'no tolerance'}")
        # a check at a looser tolerance might be unable to fail
        if not 0 < val <= read[tol]:
            raise ConfigError(f"--tol {tol}={val!r}: a tolerance may only tighten, "
                              f"to a value in (0, {read[tol]!r}]")
    return plan


def run_suites(algebra, selector: str, tols=None):
    """The reports of the suites ``selector`` names and whether all pass."""
    tols = tols or {}
    reports = []
    for name, builtin in _plan(algebra, selector, tols).items():
        try:
            got = SUITES[name](algebra, {t: tols.get(t, v) for t, v in builtin.items()})
            if not got:
                raise ValueError("the suite wrote no report")
            reports.extend(got)
        except Exception as exc:
            # an error inside a suite is a failed check, not an aborted run
            reports.append(report("suite-error", algebra.name, ok=False,
                                  suite=name, error=f"{type(exc).__name__}: {exc}"))
    return reports, all(r["pass"] for r in reports)


def cmd_check(args) -> int:
    algebra = _algebra_from(args)
    selector = args.suite
    tols = {}
    # the config file's ``tol = name=value, name=value`` first, then the
    # flags, each replacing the names it gives; a name given twice by one of
    # the two is refused, as last one wins would drop a tolerance unseen
    for items in (getattr(args, "_config", {}).get("tol", "").replace(",", " ").split(),
                  args.tol or []):
        own = {}
        for item in items:
            name, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"--tol expects name=value, got {item!r}")
            if name in own:
                raise ConfigError(f"--tol {name}: given twice")
            try:
                own[name] = float(val)
            except ValueError:
                raise ConfigError(f"--tol {item}: {val!r} is not a number") from None
        tols.update(own)
    _plan(algebra, selector, tols)      # a refused run makes no --cache-dir
    with brackets.pencil_cache(algebra, _cache_dir(args)):
        reports, ok = run_suites(algebra, selector, tols)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was, and
    the ``config_keys`` dicts it hands to each namespace are only read."""
    p = argparse.ArgumentParser(
        prog="rclab",
        description="Bracket polynomial families on symmetric cones: "
                    "construction and verification.")
    p.add_argument("--config", help="key = value configuration file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, algebra=True, cache_dir=True):
        if algebra:
            sp.add_argument("--algebra", choices=ALGEBRA_NAMES)
        sp.add_argument("--output", help="write to this path instead of stdout")
        if cache_dir:
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
    common(sp, cache_dir=False)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--rule", choices=("eigenvalue-quadrature",))
    sp.add_argument("--nodes", type=int)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("check", help="run verification suites")
    common(sp)
    sp.add_argument("suite", nargs="?", default="all")
    sp.add_argument("--tol", action="append",
                    help="override a tolerance: name=value (repeatable)")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("cache", help="inspect or clear the polynomial cache")
    common(sp, algebra=False)
    sp.add_argument("cache_action", choices=("inspect", "clear"))
    sp.set_defaults(func=cmd_cache)
    # a config-file key is the dest of one of the subcommand's flags, and
    # its value one of the flag's choices
    for sp in sub.choices.values():
        sp.set_defaults(config_keys={
            a.dest: a.choices for a in sp._actions if a.option_strings and a.dest != "help"})
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = (read_config_file(args.config, args.config_keys)
                        if args.config else {})
        _check_output(args)
        return args.func(args)
    except (ConfigError, AlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
