"""Construction of the named polynomial families and their exact identities.

Both families are expansions of one pencil chain: the Rodrigues pipeline
(the determinant operator applied to det-power weights) runs one power of
the operator per step from c(k-1) to c(k) in the pencil coordinates of
``rclab.sympoly``.  ``compute_c`` expands c(k) to x, y monomials;
``compute_C`` expands the same pencil form on the interval chart
x = (e - v)/2, y = (e + v)/2, in the r eigenvalues of v, producing the
one-slot family that generalizes the Jacobi polynomials (and reduces to
them exactly in rank 1).  Both expansions read the one chain, so the
checks that compare them test the two expansions, not the chain.
Only the chain goes to disk, one file per algebra, read and written by
``pencil_cache`` around the work of a command.

The check_* functions return JSON-serializable reports made by
``rclab.report``; exact checks use rational arithmetic end to end.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import tempfile
from fractions import Fraction
from math import lcm

import numpy as np

from . import SCHEMA, report, worst
from .algebra import (
    JordanAlgebra, get_algebra, iota, spectral, _random_ints, _cone_ints, _int_mul,
    random_chart_points,
)
from .poly import Poly
from .sympoly import (
    SymExpr, BracketPolynomial, apply_D_power, extract_bracket_polynomial,
    extract_interval_polynomial,
)

__all__ = [
    "pencil_cache",
    "compute_c",
    "OrthoPoly",
    "compute_C",
    "jacobi_classical",
    "jacobi_proportionality",
    "check_chi_covariance",
    "check_iota_factorization",
    "bracket_table_json",
    "bracket_table_csv",
    "bracket_table_latex",
]

CACHE_FORMAT = 2
# fixed draws of the numeric and exact checks, so their reports repeat bit
# for bit: the seeds and the (lam, mu) weights of the iota factorization
CHI_SEED = 2024
IOTA_SEED = 99
IOTA_WEIGHTS = ((2, 3), (Fraction(7, 2), Fraction(5, 2)))
# samples per integer monomial table of the chi-covariance check: a table of
# all 2 x 50 points at spin8 k = 2 holds about 1 MB of big integers
CHI_BLOCK = 10
# (algebra name, k) -> c(k) in x, y monomials
_memory_cache: dict = {}
# algebra name -> [c(0), c(1), ...] times (det x)^s (det y)^t, in the pencil
# coordinates: the in-process chain each build extends
_pencils: dict = {}
# the c(k) the table emitters last rendered, and its ``_labelled_rows``
_rendered: list = [None, None]
# cache file path -> length of the chain it holds, as this process last read
# (0 for a miss or a chain that disagrees with the held one) or wrote it
_on_disk: dict = {}


def _load_chain(path, algebra):
    """The pencil chain of a cache file, or None unless it is this algebra's
    chain in the current format: a missing, torn or stale file, another
    algebra's chain, a row of other than r + 1 exponents and a term of
    entry k whose Delta-degree is not k are all misses.  The "p/q" strings
    of an entry are put over their lcm."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if (data["format"], data["algebra"]) != (CACHE_FORMAT, algebra.name):
            return None
        chain = []
        for k, entry in enumerate(data["chain"]):
            terms = {}
            for exps, coef in entry:
                if len(exps) != algebra.r + 1 or sum(exps) != k:
                    return None
                terms[tuple(exps)] = {(i, j): Fraction(v) for i, j, v in coef}
            den = lcm(1, *(v.denominator for c in terms.values() for v in c.values()))
            chain.append(SymExpr(algebra, {e: {ij: int(v * den) for ij, v in c.items()}
                                           for e, c in terms.items()}, den))
        return chain
    except (OSError, ValueError, KeyError, TypeError):
        return None


@contextlib.contextmanager
def pencil_cache(algebra: JordanAlgebra, cache_dir: str | None):
    """Run the work inside on the pencil chain ``cache_dir`` holds for
    ``algebra``, and keep there what the work adds.

    The first use of ``c_<algebra>.json`` in a process reads it, even when a
    chain is held: a longer file chain that equals every held entry is
    taken, and a file that disagrees or is a miss (``_load_chain``) counts
    as empty.  On exit the chain is written back, atomically, when it is
    longer than the file's or no file is there; the temporary file of a
    write killed before its rename is a c_* file, so ``cache clear``
    removes it.
    """
    if not cache_dir:
        yield
        return
    path = os.path.join(cache_dir, f"c_{algebra.name}.json")
    if path not in _on_disk:
        held = _pencils.get(algebra.name, [])
        chain = _load_chain(path, algebra) or []
        if chain[:len(held)] != held[:len(chain)]:
            chain = []
        if len(chain) > len(held):
            _pencils[algebra.name] = chain
        _on_disk[path] = len(chain)
    yield
    chain = _pencils.get(algebra.name)
    if not chain or (len(chain) <= _on_disk[path] and os.path.exists(path)):
        return
    # each coefficient w / den in lowest terms as "p/q", q = 1 included
    entries = [[[e, [[i, j, "{0.numerator}/{0.denominator}".format(Fraction(w, expr.den))]
                     for (i, j), w in c.items()]] for e, c in expr.terms.items()]
               for expr in chain]
    payload = json.dumps({"format": CACHE_FORMAT, "algebra": algebra.name, "chain": entries},
                         separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix="c_", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
        _on_disk[path] = len(chain)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _pencil(algebra, k):
    """c(k) (det x)^s (det y)^t in the pencil coordinates: the in-process
    chain from c(0) = 1, extended by one application of the determinant
    operator D per step,
    c(k) = det(x)^-s det(y)^-t D[det(x)^(s+1) det(y)^(t+1) c(k-1)_{s+1,t+1}]."""
    chain = _pencils.setdefault(algebra.name, [SymExpr.det_power_seed(algebra, 0, 0)])
    while len(chain) <= k:
        chain.append(apply_D_power(SymExpr.shifted_weight(chain[-1]), 1))
    return chain[k]


def compute_c(algebra: JordanAlgebra, k: int) -> BracketPolynomial:
    """The k-th bracket polynomial c(k)_{s,t} for the given algebra: the
    x, y expansion of the pencil form ``_pencil(algebra, k)``, memoized
    in-process.  Only the pencil chain goes to disk (``pencil_cache``)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    key = (algebra.name, k)
    if key not in _memory_cache:
        _memory_cache[key] = extract_bracket_polynomial(_pencil(algebra, k), k)
    return _memory_cache[key]


# ---------------------------------------------------------------------------
# The one-slot family C(k)


class OrthoPoly:
    """C(k)_{lam,mu} on V: the bracket restricted to the interval chart.

    C(k) is invariant under the automorphism group of the algebra, so
    ``poly`` holds it as a symmetric polynomial in the r eigenvalues of v,
    with coefficients in Q when (lam, mu) are specialized, else in Q[s, t].
    """

    def __init__(self, algebra: JordanAlgebra, poly: Poly):
        self.algebra = algebra
        self.poly = poly

    def evaluate(self, points) -> np.ndarray:
        """Values at the rows v of an (m, n) float array, through the
        eigenvalues of each row."""
        return self.poly.numeric(spectral(self.algebra, points))


def compute_C(algebra: JordanAlgebra, k: int, lam=None, mu=None) -> OrthoPoly:
    """C(k)(v) = c(k)((e - v)/2, (e + v)/2), in Q[s, t] or at s = lam, t = mu,
    as a polynomial in the eigenvalues a_1..a_r of v.

    C(k) is expanded from the pencil form of the in-process chain over the
    closed eigenvalue tables delta_j(a) (``extract_interval_polynomial``),
    never from a c(k) in memory or on disk.  ``check_iota_factorization``
    compares the x, y expansion of the chain through det's pencil tables
    and iota with this expansion through ``spectral``: both read the one
    chain, so it tests the two expansions and a wrong chain passes it.
    """
    if (lam is None) != (mu is None):
        raise ValueError("give both weights lam and mu, or neither")
    C = extract_interval_polynomial(_pencil(algebra, k), k)
    return OrthoPoly(algebra, C if lam is None else C.at(lam, mu))


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


def jacobi_proportionality(k: int, lam, mu):
    """Exact ratio C(k)_{lam,mu} / P_k^(lam,mu) in rank 1.

    The families are proportional with a nonzero rational constant; the
    constant is measured, not assumed.  Raises if proportionality fails.
    """
    alg = get_algebra("rank1")
    C = compute_C(alg, k, lam, mu)
    ref = jacobi_classical(k, lam, mu)
    coef = dict(C.poly.items())
    ours = [coef.get((j,), Fraction(0)) for j in range(len(ref))]
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


def check_chi_covariance(algebra: JordanAlgebra, kmax: int, samples: int = 50) -> list:
    """Exact test of c(k)(l x, l y) = chi(l)^k c(k)(x, y) for l = P(a), one
    report per k = 0..kmax.

    The samples are drawn once per algebra and shared by every k, all as
    integers: a cone point a = A/D, two rational points x, y over one
    denominator q, and weights (s0, t0).  With structure constants C/t,
    l x = (2 C(A, C(A, X)) - C(C(A, A), X)) / (t^2 D^2 q), and chi(l) =
    det(a)^2 = (N / (m D^r))^2, N / m the value of det_poly at A.  c(k) is
    homogeneous of degree rk, so with v the integer value of c(k) at
    integer numerators, the identity reads
    v(l X, l Y) m^2k = N^2k t^2rk v(X, Y).  Per k, each sample's
    coefficients of c(k) at (s0, t0) meet the integer monomial table of its
    two points, built for CHI_BLOCK samples at a time; no Fraction is made
    per sample.
    """
    cs = [compute_c(algebra, k) for k in range(kmax + 1)]
    n, t, det_poly = algebra.n, algebra._table_den, algebra.det_poly
    rng = random.Random(CHI_SEED)
    cones, points, weights = [], [], []
    for _ in range(samples):
        A, _ = _cone_ints(rng, algebra)
        X, qx = _random_ints(rng, n)
        Y, qy = _random_ints(rng, n)
        q = lcm(qx, qy)
        AA = _int_mul(algebra, A, A)
        XY = [v * (q // qx) for v in X] + [v * (q // qy) for v in Y]
        for Z in (XY[:n], XY[n:]):
            # (t D)^2 q P(a) z = 2 C(A, C(A, Z)) - C(C(A, A), Z)
            AAZ = _int_mul(algebra, A, _int_mul(algebra, A, Z))
            points.extend(2 * u - v for u, v in zip(AAZ, _int_mul(algebra, AA, Z)))
        points.extend(XY)
        cones.append(A)
        weights.append([rng.randint(-4, 4), rng.randint(1, 3),
                        rng.randint(-4, 4), rng.randint(1, 3)])
    points = np.array(points, dtype=object).reshape(samples, 2, 2 * n)
    sn, sd, tn, td = np.array(weights, dtype=object).reshape(-1, 4).T
    dets = det_poly.monomials(cones).dot(det_poly.coef[:, 0, 0])
    reports = []
    for k, c in enumerate(cs):
        coef = c.poly.coef
        flat = coef.reshape(len(coef), -1)
        # per sample: c(k)'s coefficients at (s0, t0) = (sn/sd, tn/td), times
        # den sd^ds td^dt, contracted with the monomials at l(x, y) and (x, y)
        sp = [sn**a * sd**(coef.shape[1] - 1 - a) for a in range(coef.shape[1])]
        tp = [tn**b * td**(coef.shape[2] - 1 - b) for b in range(coef.shape[2])]
        st = np.stack([u * v for u in sp for v in tp], axis=1)
        lhs, rhs = np.empty((2, samples), dtype=object)
        for lo in range(0, samples, CHI_BLOCK):
            table = c.poly.monomials(points[lo:lo + CHI_BLOCK].reshape(-1, 2 * n))
            for i, row in enumerate(st[lo:lo + CHI_BLOCK]):
                spec = flat.dot(row)
                lhs[lo + i], rhs[lo + i] = table[2 * i].dot(spec), table[2 * i + 1].dot(spec)
        lhs *= det_poly.den ** (2 * k)
        rhs *= dets ** (2 * k) * t ** (2 * algebra.r * k)
        violations = [{"sample": idx, "s": str(Fraction(weights[idx][0], weights[idx][1])),
                       "t": str(Fraction(weights[idx][2], weights[idx][3]))}
                      for idx in np.flatnonzero(lhs != rhs).tolist()]
        reports.append(report("chi-covariance", algebra.name, ok=not violations, k=k,
                              samples=samples, exact=True, violations=violations))
    return reports


def check_iota_factorization(algebra: JordanAlgebra, kmax: int, samples: int = 20, *,
                             tol: float) -> list:
    """Numeric test of c(k)_{lam,mu}(iota(eta, v)) = det(eta)^k C(k)_{lam,mu}(v),
    one report per k = 1..kmax (at k = 0 both sides are 1).

    The left side is the x, y expansion of the chain through det's pencil
    tables, at iota(eta, v); the right side is its expansion over the closed
    eigenvalue tables, at the eigenvalues of v.  Both read the one chain, so
    a wrong table on either side fails the test and a wrong chain passes it.

    The chart points, ``samples`` per (lam, mu) of IOTA_WEIGHTS, are drawn
    and mapped by iota once and shared by every k.
    """
    rng = random.Random(IOTA_SEED)
    charts = []
    for lam, mu in IOTA_WEIGHTS:
        etas, vs = random_chart_points(rng, algebra, samples)
        xs, ys = iota(algebra, etas, vs)
        charts.append((lam, mu, np.hstack([xs, ys]), algebra.det_poly.numeric(etas), vs))
    reports = []
    for k in range(1, kmax + 1):
        c = compute_c(algebra, k)
        rows = []
        for lam, mu, xys, dets, vs in charts:
            spec = c.specialize(Fraction(lam), Fraction(mu))
            lhss = spec.numeric(xys)
            rhss = dets ** k * compute_C(algebra, k, lam, mu).evaluate(vs)
            for lhs, rhs in zip(lhss.tolist(), rhss.tolist()):
                scale = max(abs(lhs), abs(rhs), 1e-30)
                rows.append({"lam": str(lam), "mu": str(mu),
                             "residual": abs(lhs - rhs) / scale})
        reports.append(report("interval-chart-factorization", algebra.name, k=k,
                              tolerance=tol, max_residual=worst(r["residual"] for r in rows),
                              samples=rows))
    return reports


# ---------------------------------------------------------------------------
# Table emitters (CLI backends)


def _coef_label(coef) -> str:
    """One coefficient of ``Poly.rows`` as a sum of c*s^i*t^j terms."""
    return " + ".join((f"{p}" if q == 1 else f"{p}/{q}") + (f"*s^{i}" if i else "")
                      + (f"*t^{j}" if j else "") for i, j, p, q in coef)


def _labelled_rows(poly: BracketPolynomial):
    """``poly.poly.rows()``, each row with its monomial label (x1*y2^3) and
    its coefficient label, for all three table formats.  The c(k) last
    rendered and its rows are held in ``_rendered``, so the three formats of
    one c(k), asked for one after another, share one pass; a c(k) built
    again is another object and gets its own."""
    if _rendered[0] is not poly:
        n, labels = poly.algebra.n, poly.algebra.basis_labels
        names = [slot + (name[1:] if name.startswith("x") else name)
                 for slot in "xy" for name in labels[:n]]
        rows = [(mono, coef, "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                                      for i, e in enumerate(mono) if e) or "1",
                 _coef_label(coef)) for mono, coef in poly.poly.rows()]
        _rendered[:] = poly, rows
    return _rendered[1]


def bracket_table_json(poly: BracketPolynomial) -> str:
    """The table in the bytes of ``json.dumps(..., indent=2, sort_keys=True)``
    of {"algebra", "format": 1, "k", "kind": "bracket-polynomial", "schema",
    "terms": [{"coef": [[i, j, "p/q"], ...], "mono": [...]}, ...]}, written
    line by line in its fixed layout: with an indent, json drops its C
    encoder and runs several times slower.  A "p/q" of ints is plain ASCII,
    so json would write it as the f-string does."""
    head = [f"  {json.dumps(key)}: {json.dumps(val)}," for key, val in (
        ("algebra", poly.algebra.name), ("format", 1), ("k", poly.k),
        ("kind", "bracket-polynomial"), ("schema", SCHEMA))]
    rows = []
    for mono, coef, _, _ in _labelled_rows(poly):
        coef = ",\n".join(f"        [\n          {i},\n          {j},\n"
                          f"          \"{p}/{q}\"\n        ]" for i, j, p, q in coef)
        mono = ",\n".join(f"        {e}" for e in mono)
        rows.append(f'    {{\n      "coef": [\n{coef}\n      ],\n'
                    f'      "mono": [\n{mono}\n      ]\n    }}')
    return "\n".join(["{", *head, '  "terms": [', ",\n".join(rows), "  ]", "}"]) + "\n"


def bracket_table_csv(poly: BracketPolynomial) -> str:
    return "mono,coefficient\n" + "".join(
        f"\"{mono}\",\"{coef}\"\n" for _, _, mono, coef in _labelled_rows(poly))


def bracket_table_latex(poly: BracketPolynomial) -> str:
    body = "".join(f"  ${mono}$ & ${coef}$ \\\\\n".replace("*", r"\,")
                   for _, _, mono, coef in _labelled_rows(poly))
    return ("\\begin{tabular}{ll}\n\\hline\nmonomial & coefficient \\\\\n\\hline\n"
            + body + "\\hline\n\\end{tabular}\n")
