"""Construction of the named polynomial families and their exact identities.

``compute_c`` runs the Rodrigues pipeline (determinant operator applied to
det-power weights, then exact extraction) and caches the result on disk;
``compute_C`` restricts the two-slot polynomial to the interval chart
x -> (e - x)/2, y -> (e + x)/2, producing the one-variable-slot family that
generalizes the Jacobi polynomials (and reduces to them exactly in rank 1).

The check_* functions return JSON-serializable reports made by
``rclab.report``; exact checks use rational arithmetic end to end.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from fractions import Fraction

from . import report, worst
from .algebra import (
    JordanAlgebra, Element, StructureMap, get_algebra, det, iota,
    random_rational_element, random_cone_point, random_interval_point,
)
from .sympoly import (
    SymExpr, ParamPoly, BracketPolynomial, apply_D_power,
    extract_bracket_polynomial,
)

__all__ = [
    "compute_c",
    "OrthoPoly",
    "compute_C",
    "jacobi_classical",
    "jacobi_proportionality",
    "check_chi_covariance",
    "check_iota_factorization",
    "check_aut_invariance",
    "bracket_table_json",
    "bracket_table_csv",
    "bracket_table_latex",
    "diag_element",
]

CACHE_FORMAT = 1
_memory_cache: dict = {}


def _cache_path(cache_dir, algebra, k):
    return os.path.join(cache_dir, f"c_{algebra.name}_k{k}.json")


def _load_cached(path, algebra, k):
    """c(k) from a cache file, or None unless the file holds exactly that
    polynomial in the current format (missing, torn, stale or misnamed)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if (data["format"], data["algebra"], data["k"]) != (
                CACHE_FORMAT, algebra.name, k):
            return None
        return BracketPolynomial.from_jsonable(data)
    except (OSError, ValueError, KeyError, TypeError, AssertionError):
        return None


def compute_c(algebra: JordanAlgebra, k: int,
              cache_dir: str | None = None) -> BracketPolynomial:
    """The k-th bracket polynomial c(k)_{s,t} for the given algebra.

    Results are memoized in-process and, when ``cache_dir`` is given,
    persisted as versioned JSON (written atomically so concurrent readers
    never see a torn file).  A cache file that does not hold this algebra's
    c(k) in the current format is a miss and is rewritten.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    mem_key = (algebra.name, k)
    poly = _memory_cache.get(mem_key)
    path = _cache_path(cache_dir, algebra, k) if cache_dir else None
    if poly is None and path:
        poly = _load_cached(path, algebra, k)
    computed = poly is None
    if computed:
        seed = SymExpr.det_power_seed(algebra, k, k)
        poly = extract_bracket_polynomial(apply_D_power(seed, k), k)
    _memory_cache[mem_key] = poly
    if path and (computed or not os.path.exists(path)):
        os.makedirs(cache_dir, exist_ok=True)
        payload = json.dumps(poly.to_jsonable(), separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return poly


# ---------------------------------------------------------------------------
# The one-slot family C(k)


class OrthoPoly:
    """C(k)_{lam,mu} on V: the bracket restricted to the interval chart.

    ``terms`` maps n-variable exponent tuples to Fractions when (lam, mu)
    are specialized, or to ParamPoly otherwise.  The polynomial is
    invariant under the automorphism group of the algebra, so it only
    depends on eigenvalues.
    """

    def __init__(self, algebra, k, lam, mu, terms):
        self.algebra = algebra
        self.k = k
        self.lam = lam
        self.mu = mu
        self.terms = {m: c for m, c in terms.items() if c}

    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def evaluate(self, v: Element):
        total = 0
        for m, c in self.terms.items():
            term = c
            for e, coord in zip(m, v.coords):
                if e:
                    term = term * coord**e
            total = total + term
        return total

    def coefficients_1d(self):
        """Rank-1 view: dense coefficient list [c_0, ..., c_deg]."""
        if self.algebra.n != 1:
            raise ValueError("coefficients_1d is a rank-1 helper")
        deg = self.degree()
        out = [Fraction(0)] * (deg + 1)
        for m, c in self.terms.items():
            out[m[0]] = c
        return out

    def __repr__(self):
        return (f"OrthoPoly({self.algebra.name}, k={self.k}, "
                f"lam={self.lam}, mu={self.mu}, {len(self.terms)} monomials)")


def compute_C(algebra: JordanAlgebra, k: int, lam=None, mu=None,
              cache_dir: str | None = None) -> OrthoPoly:
    """Substitute x <- (e - v)/2, y <- (e + v)/2 (and s <- lam, t <- mu)."""
    c = compute_c(algebra, k, cache_dir)
    n = algebra.n
    half = Fraction(1, 2)
    e = algebra.e_coords
    specialize = lam is not None and mu is not None
    if specialize:
        lam, mu = Fraction(lam), Fraction(mu)
    out: dict = {}
    for mono, coef in c.terms.items():
        base = coef(lam, mu) if specialize else coef
        # expand prod_i ((e_i - v_i)/2)^alpha_i ((e_i + v_i)/2)^beta_i
        acc = {(0,) * n: base}
        for i in range(n):
            for sign_flip, expo in ((-1, mono[i]), (1, mono[n + i])):
                for _ in range(expo):
                    nxt = {}
                    for m, cc in acc.items():
                        c_const = cc * (half * e[i])
                        if c_const:
                            nxt[m] = nxt.get(m, type(c_const)(0)) + c_const
                        mv = m[:i] + (m[i] + 1,) + m[i + 1:]
                        c_var = cc * (half * sign_flip)
                        prev = nxt.get(mv)
                        nxt[mv] = c_var if prev is None else prev + c_var
                    acc = {m: cc for m, cc in nxt.items() if cc}
        for m, cc in acc.items():
            prev = out.get(m)
            out[m] = cc if prev is None else prev + cc
    out = {m: cc for m, cc in out.items() if cc}
    return OrthoPoly(algebra, k, lam, mu, out)


def diag_element(algebra: JordanAlgebra, values) -> Element:
    """Element with the given eigenvalues on a fixed Jordan frame."""
    values = list(values)
    if len(values) != algebra.r:
        raise ValueError(f"need {algebra.r} eigenvalues")
    if algebra.family == "rank1":
        return algebra.element((values[0],))
    if algebra.family == "spin":
        lo, hi = values
        coords = [(lo + hi) / 2, (hi - lo) / 2] + [0] * (algebra.n - 2)
        return algebra.element(tuple(coords))
    r = algebra.r
    coords = list(values) + [0] * (algebra.n - r)
    return algebra.element(tuple(coords))


# ---------------------------------------------------------------------------
# Classical Jacobi polynomials (exact three-term recurrence oracle)


def jacobi_classical(k: int, alpha, beta):
    """Coefficient list of P_k^(alpha,beta) from the three-term recurrence."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    p0 = [Fraction(1)]
    if k == 0:
        return p0
    p1 = [(alpha - beta) / 2, (alpha + beta + 2) / 2]
    if k == 1:
        return p1
    for n in range(2, k + 1):
        ab = alpha + beta
        c0 = 2 * n * (n + ab) * (2 * n + ab - 2)
        c1 = (2 * n + ab - 1) * (alpha**2 - beta**2)
        c2 = (2 * n + ab - 1) * (2 * n + ab) * (2 * n + ab - 2)
        c3 = 2 * (n + alpha - 1) * (n + beta - 1) * (2 * n + ab)
        pn = [Fraction(0)] * (n + 1)
        for j, v in enumerate(p1):
            pn[j] += c1 * v
            pn[j + 1] += c2 * v
        for j, v in enumerate(p0):
            pn[j] -= c3 * v
        p0, p1 = p1, [v / c0 for v in pn]
    return p1


def jacobi_proportionality(k: int, lam, mu, cache_dir=None):
    """Exact ratio C(k)_{lam,mu} / P_k^(lam,mu) in rank 1.

    The families are proportional with a nonzero rational constant; the
    constant is measured, not assumed.  Raises if proportionality fails.
    """
    alg = get_algebra("rank1")
    C = compute_C(alg, k, lam, mu, cache_dir)
    ours = C.coefficients_1d()
    ref = jacobi_classical(k, lam, mu)
    if len(ours) < len(ref):
        ours = ours + [Fraction(0)] * (len(ref) - len(ours))
    ratio = None
    for c_ours, c_ref in zip(ours, ref):
        if c_ref == 0:
            if c_ours != 0:
                raise AssertionError(f"k={k}: zero pattern mismatch")
            continue
        r = Fraction(c_ours) / c_ref
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise AssertionError(f"k={k}: ratios differ: {ratio} vs {r}")
    if ratio is None or ratio == 0:
        raise AssertionError(f"k={k}: degenerate proportionality constant")
    return ratio


# ---------------------------------------------------------------------------
# Identity checks (report dicts)


def check_chi_covariance(algebra: JordanAlgebra, k: int, samples: int = 50,
                         seed: int = 2024, cache_dir=None) -> dict:
    """Exact test of c(k)(l x, l y) = chi(l)^k c(k)(x, y) for l = P(a)."""
    c = compute_c(algebra, k, cache_dir)
    rng = random.Random(seed)
    violations = []
    for idx in range(samples):
        a = random_cone_point(rng, algebra)
        ell = StructureMap.quadratic(a)
        chi_val = det(a) ** 2
        x = random_rational_element(rng, algebra)
        y = random_rational_element(rng, algebra)
        s0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        t0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = c.evaluate(ell(x), ell(y), s0, t0)
        rhs = chi_val**k * c.evaluate(x, y, s0, t0)
        if lhs != rhs:
            violations.append({"sample": idx, "s": str(s0), "t": str(t0)})
    return report("chi-covariance", algebra.name, ok=not violations, k=k,
                  samples=samples, exact=True, violations=violations)


def check_iota_factorization(algebra: JordanAlgebra, k: int, samples: int = 20,
                             params=((2, 3), (Fraction(7, 2), Fraction(5, 2))),
                             seed: int = 99, tol: float = 1e-10,
                             cache_dir=None) -> dict:
    """Numeric test of c(k)_{lam,mu}(iota(eta, v)) = det(eta)^k C(k)_{lam,mu}(v)."""
    c = compute_c(algebra, k, cache_dir)
    rng = random.Random(seed)
    rows = []
    for lam, mu in params:
        spec = c.specialize(Fraction(lam), Fraction(mu))
        C = compute_C(algebra, k, lam, mu, cache_dir)
        for _ in range(samples):
            eta = random_cone_point(rng, algebra).as_float()
            v = random_interval_point(rng, algebra).as_float()
            x, y = iota(eta, v)
            lhs = c.evaluate_specialized(spec, x, y)
            rhs = float(det(eta)) ** k * float(C.evaluate(v))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            rows.append({"lam": str(lam), "mu": str(mu),
                         "residual": abs(lhs - rhs) / scale})
    return report("interval-chart-factorization", algebra.name, k=k,
                  tolerance=tol, max_residual=worst(r["residual"] for r in rows),
                  samples=rows)


def _random_automorphism(algebra, rng):
    """A sampled automorphism acting on coordinates (float matrix action)."""
    import numpy as np

    if algebra.family == "rank1":
        return lambda v: v
    if algebra.family == "spin":
        m = algebra.n - 1
        g = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(m)]
                                   for _ in range(m)]))[0]

        def act(v):
            coords = np.array([float(c) for c in v.coords])
            out = np.concatenate([[coords[0]], g @ coords[1:]])
            return v.algebra.element(tuple(out))

        return act
    r = algebra.r
    from .algebra import _sym_pairs

    pairs = _sym_pairs(r)
    g = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(r)]
                               for _ in range(r)]))[0]

    def act(v):
        mat = np.zeros((r, r))
        for idx, (i, j) in enumerate(pairs):
            mat[i, j] = mat[j, i] = float(v.coords[idx])
        out = g @ mat @ g.T
        return v.algebra.element(tuple(out[i, j] for (i, j) in pairs))

    return act


def check_aut_invariance(algebra: JordanAlgebra, k: int, lam, mu,
                         samples: int = 10, seed: int = 5, tol: float = 1e-10,
                         cache_dir=None) -> dict:
    """C(k) composed with a sampled automorphism equals C(k)."""
    rng = random.Random(seed)
    C = compute_C(algebra, k, lam, mu, cache_dir)
    residuals = []
    for _ in range(samples):
        act = _random_automorphism(algebra, rng)
        v = random_interval_point(rng, algebra).as_float()
        a = float(C.evaluate(v))
        b = float(C.evaluate(act(v)))
        residuals.append(abs(a - b) / max(1.0, abs(a)))
    return report("automorphism-invariance", algebra.name, k=k,
                  max_residual=worst(residuals), tolerance=tol)


# ---------------------------------------------------------------------------
# Table emitters (CLI backends)


def _mono_label(algebra, mono):
    n = algebra.n
    bits = []
    for i, e in enumerate(mono):
        if not e:
            continue
        slot = "x" if i < n else "y"
        name = algebra.basis_labels[i % n]
        suffix = name[1:] if name.startswith("x") else name
        var = f"{slot}{suffix}"
        bits.append(var if e == 1 else f"{var}^{e}")
    return "*".join(bits) if bits else "1"


def _coef_label(coef) -> str:
    if isinstance(coef, ParamPoly):
        bits = []
        for (i, j), v in coef.sorted_items():
            mono = "".join([f"*s^{i}" if i else "", f"*t^{j}" if j else ""])
            bits.append(f"{v}{mono}")
        return " + ".join(bits) if bits else "0"
    return str(coef)


def bracket_table_json(poly: BracketPolynomial) -> str:
    return json.dumps(poly.to_jsonable(), indent=2, sort_keys=True) + "\n"


def bracket_table_csv(poly: BracketPolynomial) -> str:
    lines = ["mono,coefficient"]
    for m in sorted(poly.terms):
        label = _mono_label(poly.algebra, m)
        lines.append(f"\"{label}\",\"{_coef_label(poly.terms[m])}\"")
    return "\n".join(lines) + "\n"


def bracket_table_latex(poly: BracketPolynomial) -> str:
    rows = []
    for m in sorted(poly.terms):
        label = _mono_label(poly.algebra, m).replace("*", r"\,")
        coef = _coef_label(poly.terms[m]).replace("*", r"\,")
        rows.append(f"  ${label}$ & ${coef}$ \\\\")
    body = "\n".join(rows)
    return (
        "\\begin{tabular}{ll}\n"
        "\\hline\n"
        "monomial & coefficient \\\\\n"
        "\\hline\n" + body + "\n\\hline\n\\end{tabular}\n"
    )
