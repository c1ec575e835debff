"""Checks of rclab's outputs against computations made apart from rclab.

Nothing here imports rclab.  Every check returns a list of error strings;
an empty list means the output passed.  The oracles are:

* the closed form of the rank-1 bracket,
  c(k)_{s,t}(x, y) = sum_j C(k,j) (-1)^(k-j) (s+k)_j (t+k)_(k-j) x^(k-j) y^j
  with falling factorials, built in Q[s,t];
* slot exchange, c_{t,s}(y, x) = (-1)^(rk) c_{s,t}(x, y), and homogeneity
  of degree rk, for every algebra;
* the classical Jacobi polynomial from its explicit sum,
  P_k^(a,b)(v) = sum_j C(k+a, k-j) C(k+b, j) ((v-1)/2)^j ((v+1)/2)^(k-j);
* the Cayley identity det(d/dx) det(x)^m = prod_{j<r} (m + j d/2) det(x)^(m-1)
  (Faraut-Koranyi 1994);
* the cone Gamma function (2 pi)^((n-r)/2) prod_j Gamma(nu - j d/2);
* finite residuals below tolerances that are no looser than the acceptance
  bounds rclab shipped with (TOLERANCE_CEILING).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import ALGEBRAS

# The loosest tolerance each report may carry, per (check, algebra), as the
# acceptance bounds stood when the benchmark was written.  Tolerances may be
# tightened, never loosened.  A pair not listed falls back to the loosest
# value of its check, and a check not listed to 1e-2.
TOLERANCE_CEILING = {
    "interval-chart-factorization": {"*": 1e-10},
    "polar-chart-roundtrip": {"*": 1e-12},
    "polar-chart-jacobian": {"*": 1e-6},
    "polar-chart-change-of-variables": {"rank1": 1e-6, "sym2": 1e-2},
    "cone-gamma-integral": {"rank1": 1e-10, "sym2": 1e-6, "sym2/monte-carlo": 1e-2,
                            "*": 1e-5},
    "interval-orthogonality": {"rank1": 1e-12, "sym2": 1e-8},
    "laplace-transform-of-weight": {"rank1": 1e-8, "sym2": 1e-4},
    "transform-norm-isometry": {"rank1": 1e-6},
    "laplace-averaging-factorization": {"rank1": 1e-6, "sym2": 1e-2},
    "bracket-transform-equivalence": {"rank1": 1e-6},
    "adjoint-image-laplace": {"rank1": 1e-6, "sym2": 1e-3},
    "adjoint-partial-isometry": {"rank1": 1e-6},
    "bracket-group-covariance": {"*": 1e-6},
    "kernel-cocycle-identity": {"*": 1e-8},
    "coherent-state-transport": {"*": 1e-8},
    "branch-path-independence": {"*": 1e-10},
    "contour-derivative-stability": {"*": 1e-9},
    "automorphism-invariance": {"*": 1e-10},
}
RESIDUAL_FIELDS = ("residual", "max_residual", "constant_residual",
                   "max_off_diagonal_ratio")
GRAM_RATIO_LIMIT = 1e-12


# ---------------------------------------------------------------------------
# Polynomials in Q[s,t]: dicts {(i, j): Fraction} for s^i t^j


def parse_bracket(data) -> dict:
    """A `polys --format json` table as {mono: {(i, j): Fraction}}."""
    return {tuple(row["mono"]): {(int(i), int(j)): Fraction(v) for i, j, v in row["coef"]}
            for row in data["terms"]}


def _falling(shift: int, j: int) -> list:
    """Coefficients of (u + shift)(u + shift - 1)...(u + shift - j + 1) in u."""
    out = [Fraction(1)]
    for i in range(j):
        nxt = [Fraction(0)] * (len(out) + 1)
        for p, c in enumerate(out):
            nxt[p] += c * (shift - i)
            nxt[p + 1] += c
        out = nxt
    return out


def rank1_closed_form(k: int) -> dict:
    out = {}
    for j in range(k + 1):
        scale = math.comb(k, j) * (-1) ** (k - j)
        coef = {}
        for i, a in enumerate(_falling(k, j)):
            for l, b in enumerate(_falling(k, k - j)):
                if a * b:
                    coef[(i, l)] = scale * a * b
        out[(k - j, j)] = coef
    return out


def check_bracket(terms: dict, alg: str, k: int) -> list:
    """Homogeneity, slot exchange and, in rank 1, the closed form."""
    n, r, _ = ALGEBRAS[alg]
    errors = []
    terms = {m: {ij: v for ij, v in c.items() if v} for m, c in terms.items()}
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        errors.append(f"{alg} k={k}: empty polynomial")
    for m in terms:
        if len(m) != 2 * n or sum(m) != r * k:
            errors.append(f"{alg} k={k}: monomial {m} is not of degree {r * k} in 2x{n} variables")
            break
    sign = (-1) ** (r * k)
    for m, coef in terms.items():
        partner = terms.get(m[n:] + m[:n], {})
        if {(j, i): sign * v for (i, j), v in coef.items()} != partner:
            errors.append(f"{alg} k={k}: slot exchange fails at {m}")
            break
    if alg == "rank1" and terms != rank1_closed_form(k):
        errors.append(f"rank1 k={k}: differs from the closed form")
    return errors


# ---------------------------------------------------------------------------
# Rank-1 restriction and Jacobi polynomials: dense coefficient lists in v


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_pow(p, e):
    out = [Fraction(1)]
    for _ in range(e):
        out = _poly_mul(out, p)
    return out


def _binom(z: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out = out * (z - i) / (i + 1)
    return out


def _add_into(acc, p, scale):
    for i, c in enumerate(p):
        acc[i] += scale * c


def jacobi_closed_form(k: int, a: Fraction, b: Fraction) -> list:
    out = [Fraction(0)] * (k + 1)
    lo, hi = [Fraction(-1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]
    for j in range(k + 1):
        term = _poly_mul(_poly_pow(lo, j), _poly_pow(hi, k - j))
        _add_into(out, term, _binom(k + a, k - j) * _binom(k + b, j))
    return out


def restrict_rank1(terms: dict, lam: Fraction, mu: Fraction) -> list:
    """c(k)_{lam,mu}((1 - v)/2, (1 + v)/2) as coefficients in v."""
    deg = max(sum(m) for m in terms)
    out = [Fraction(0)] * (deg + 1)
    x, y = [Fraction(1, 2), Fraction(-1, 2)], [Fraction(1, 2), Fraction(1, 2)]
    for (a, b), coef in terms.items():
        value = sum(v * lam**i * mu**j for (i, j), v in coef.items())
        _add_into(out, _poly_mul(_poly_pow(x, a), _poly_pow(y, b)), value)
    return out


def ratio_if_proportional(p: list, q: list):
    """The nonzero constant c with p = c q, or None."""
    size = max(len(p), len(q))
    p = p + [Fraction(0)] * (size - len(p))
    q = q + [Fraction(0)] * (size - len(q))
    ratio = None
    for a, b in zip(p, q):
        if b == 0:
            if a != 0:
                return None
            continue
        if ratio is None:
            ratio = a / b
        elif a / b != ratio:
            return None
    return ratio or None


def check_restricted(payload, k: int, lam: Fraction, mu: Fraction) -> list:
    """rclab's C(k) in rank 1 against the closed form and Jacobi P_k."""
    ours = [Fraction(0)] * (k + 1)
    for row in payload["terms"]:
        (e,) = row["mono"]
        ours[e] += Fraction(row["coef"])
    errors = []
    want = restrict_rank1(rank1_closed_form(k), lam, mu)
    if ours != want:
        errors.append(f"C(k={k}) at ({lam}, {mu}) differs from the restricted closed form")
    if ratio_if_proportional(ours, jacobi_closed_form(k, lam, mu)) is None:
        errors.append(f"C(k={k}) at ({lam}, {mu}) is not proportional to P_k")
    return errors


def jacobi_ratio(k: int, lam, mu) -> Fraction:
    lam, mu = Fraction(lam), Fraction(mu)
    return ratio_if_proportional(restrict_rank1(rank1_closed_form(k), lam, mu),
                                 jacobi_closed_form(k, lam, mu))


# ---------------------------------------------------------------------------
# Closed-form constants


def cayley_constant(alg: str, m: int) -> Fraction:
    _, r, d = ALGEBRAS[alg]
    out = Fraction(1)
    for j in range(r):
        out *= m + Fraction(j * d, 2)
    return out


def gamma_closed(alg: str, nu: float) -> float:
    n, r, d = ALGEBRAS[alg]
    out = (2 * math.pi) ** ((n - r) / 2)
    for j in range(r):
        out *= math.gamma(nu - j * d / 2)
    return out


# ---------------------------------------------------------------------------
# Reports


def _fraction(v):
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        return None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _ceiling(check: str, alg: str, method) -> float:
    table = TOLERANCE_CEILING.get(check)
    if table is None:
        return 1e-2
    for key in (f"{alg}/{method}", alg, "*"):
        if key in table:
            return table[key]
    return max(table.values())


def _check_residuals(rep, alg) -> list:
    name = rep.get("check")
    tol = rep.get("tolerance")
    errors = []
    if not _is_number(tol) or not 0 < tol <= _ceiling(name, alg, rep.get("method")):
        return [f"{name}: tolerance {tol!r} missing or looser than the acceptance bound"]
    fields = [f for f in RESIDUAL_FIELDS if f in rep]
    if not fields:
        return [f"{name}: has a tolerance but no residual"]
    for f in fields:
        v = rep[f]
        if not (_is_number(v) and math.isfinite(v) and v < tol):
            errors.append(f"{name}: {f} = {v!r} is not finite and below {tol}")
    worst = rep.get("max_residual")
    for sample in rep.get("samples") if isinstance(rep.get("samples"), list) else []:
        v = sample.get("residual")
        if not (_is_number(v) and math.isfinite(v) and _is_number(worst) and v <= worst):
            errors.append(f"{name}: sample residual {v!r} not finite or above max_residual")
            break
    return errors


def _gram_ratios(matrix) -> list:
    size = len(matrix)
    if any(len(row) != size for row in matrix) or any(
            not (math.isfinite(matrix[i][i]) and matrix[i][i] > 0) for i in range(size)):
        return None
    return [abs(matrix[i][j]) / math.sqrt(matrix[i][i] * matrix[j][j])
            for i in range(size) for j in range(i + 1, size)]


def check_gram(rep, limit=GRAM_RATIO_LIMIT) -> list:
    """Off-diagonal ratios recomputed from the matrix, all below ``limit``."""
    ratios = _gram_ratios(rep.get("matrix", []))
    if ratios is None:
        return ["gram: matrix not square with a positive finite diagonal"]
    worst = max(ratios, default=0.0)
    if not (math.isfinite(worst) and worst < limit):
        return [f"gram: off-diagonal ratio {worst!r} not below {limit}"]
    reported = rep.get("max_off_diagonal_ratio")
    if not (_is_number(reported) and abs(reported - worst) <= 1e-3 * worst + 1e-300):
        return [f"gram: reported ratio {reported!r} differs from {worst!r}"]
    return []


def check_report(rep, alg: str, polys: dict) -> list:
    """One report of `check` against the oracles.  ``polys`` maps k to terms."""
    name = rep.get("check")
    _, r, _ = ALGEBRAS[alg]
    if rep.get("algebra") != alg:
        return [f"{name}: report for algebra {rep.get('algebra')!r}"]
    if name == "chi-covariance":
        ok = rep.get("violations") == [] and _is_number(rep.get("samples")) \
            and rep["samples"] > 0
        return [] if ok else [f"chi-covariance k={rep.get('k')}: violations or no samples"]
    if name == "slot-exchange-antisymmetry":
        k = rep.get("k")
        if k not in polys:
            return [f"slot exchange k={k}: no polynomial to check"]
        return check_bracket(polys[k], alg, k)
    if name == "rodrigues-polynomiality":
        errors = []
        for row in rep.get("rows", []):
            k = row.get("k")
            if k not in polys:
                errors.append(f"polynomiality k={k}: no polynomial to check")
                continue
            if row.get("degree") != r * k or row.get("monomials") != len(polys[k]):
                errors.append(f"polynomiality k={k}: degree or monomial count wrong")
            errors.extend(check_bracket(polys[k], alg, k))
        return errors or ([] if rep.get("rows") else ["polynomiality: no rows"])
    if name == "determinant-operator-constant":
        rows = rep.get("rows", [])
        bad = [row.get("m") for row in rows
               if _fraction(row.get("constant")) != cayley_constant(alg, row.get("m", 0))]
        if not rows or bad:
            return [f"cayley {alg}: constants differ from prod (m + j d/2) at m={bad}"]
        return []
    if name == "rank1-jacobi-reduction":
        bad = [(row.get("k"), row.get("lambda"), row.get("mu")) for row in rep.get("rows", [])
               if _fraction(row.get("ratio"))
               != jacobi_ratio(row.get("k"), row.get("lambda"), row.get("mu"))]
        if not rep.get("rows") or bad:
            return [f"jacobi reduction: ratios differ at {bad[:3]}"]
        return []
    errors = _check_residuals(rep, alg)
    if name == "cone-gamma-integral":
        want = gamma_closed(alg, rep.get("nu"))
        closed, num = rep.get("closed"), rep.get("numeric")
        if not (_is_number(closed) and abs(closed - want) <= 1e-12 * want):
            errors.append(f"gamma {alg}: closed form {closed!r} differs from {want!r}")
        if not (_is_number(num) and abs(num - want) / want < rep.get("tolerance", 0)):
            errors.append(f"gamma {alg}: numeric {num!r} too far from {want!r}")
    if name == "interval-orthogonality":
        errors.extend(check_gram(rep, rep.get("tolerance", 0)))
    return errors


def check_payload(payload, alg: str, polys: dict) -> list:
    """A whole `check` output: every report, and the overall verdict."""
    if payload.get("kind") != "check-report" or payload.get("algebra") != alg:
        return ["check: not a check report for " + alg]
    reports = payload.get("reports", [])
    if not reports:
        return ["check: no reports"]
    errors = []
    for rep in reports:
        errors.extend(check_report(rep, alg, polys))
    if payload.get("pass") is not True:
        errors.append("check: overall verdict is not pass")
    return errors


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
