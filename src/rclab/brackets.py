"""Construction of the named polynomial families and their exact identities.

Both families are expansions of one pencil chain: the Rodrigues pipeline
(the determinant operator applied to det-power weights) runs one power of
the operator per step from c(k-1) to c(k) in the pencil coordinates of
``rclab.sympoly``.  ``compute_c`` expands c(k) to x, y monomials;
``compute_C`` expands the same pencil form on the interval chart
x = (e - v)/2, y = (e + v)/2, in the r eigenvalues of v, producing the
one-slot family that generalizes the Jacobi polynomials (and reduces to
them exactly in rank 1).  ``certify_expansions`` puts both expansions
against the pencil form of their chain entry, exactly, with the Delta_j
from det itself, and checks the entry's two corners against their closed
products; ``certify_box`` checks the orthogonality that fixes C(k).
Only the chain goes to disk, one file per algebra, read and written by
``pencil_cache`` around the work of a command.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import random
import tempfile
from fractions import Fraction
from operator import add

import numpy as np

from . import SCHEMA
from .algebra import JordanAlgebra, get_algebra, spectral
from .poly import Poly, _check_int64
from .sympoly import (
    NonzeroRemainder, SymExpr, BracketPolynomial, apply_D_power, extract_bracket_polynomial,
    extract_interval_polynomial, _c_mul, _interpolate, _mul, _term_table,
)

__all__ = [
    "pencil_cache",
    "compute_c",
    "certify_expansions",
    "certify_box",
    "OrthoPoly",
    "compute_C",
    "jacobi_proportionality",
    "bracket_table_json",
    "bracket_table_csv",
    "bracket_table_latex",
]

CACHE_FORMAT = 2
# fixed draws of ``certify_expansions``: its seed, the samples per k and
# side, and the bound on each drawn integer coordinate
CERT_SEED = 2024
CERT_SAMPLES = 8
CERT_BOUND = 9
# (algebra name, k) -> c(k) in x, y monomials; (name, k, "C") -> C(k) in Q[s, t]
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
            den = math.lcm(1, *(v.denominator for c in terms.values() for v in c.values()))
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


def _deltas(algebra, rows):
    """Delta_0..Delta_r at integer rows (x, y), an (rows, r + 1) int64 array:
    det at x + tau y, tau = 0..r, interpolated exactly in tau.  It reads det
    alone, not the tables or the expansion that ``certify_expansions``
    checks."""
    n, r = algebra.n, algebra.r
    rows = np.array(rows, dtype=np.int64)
    lines = rows[:, :n] + np.arange(r + 1)[:, None, None] * rows[:, n:]
    values = algebra.det_poly.values(lines.reshape(-1, n))[:, 0, 0].reshape(r + 1, len(rows))
    return _interpolate(values, f"{algebra.name} certificate").T


@functools.cache
def _cert_samples(algebra):
    """The samples of ``certify_expansions``, the same for every k, each
    with its Delta_j (``_deltas``): ((x, y rows, their Delta_j), (eigenvalue
    rows a, the Delta_j at the integer chart rows 4x, 4y)), int64 arrays
    built once per algebra and returned read-only."""
    n, r = algebra.n, algebra.r
    rng = random.Random(CERT_SEED)
    xys, eigs = ([[rng.randint(-CERT_BOUND, CERT_BOUND) for _ in range(count)]
                  for _ in range(CERT_SAMPLES)] for count in (2 * n, r))
    # 4x = 2e - 2v and 4y = 2e + 2v, with 2v on the coordinate frame
    two_v = [[a[0] + a[1], a[0] - a[1]] + [0] * (n - 2) if algebra.family == "spin"
             else [2 * x for x in a] + [0] * (n - r) for a in eigs]
    charts = [[2 * e - w for e, w in zip(algebra.e_coords, v)]
              + [2 * e + w for e, w in zip(algebra.e_coords, v)] for v in two_v]
    samples = ((np.array(xys, dtype=np.int64), _deltas(algebra, xys)),
               (np.array(eigs, dtype=np.int64), _deltas(algebra, charts)))
    for array in itertools.chain.from_iterable(samples):
        array.flags.writeable = False
    return samples


def certify_expansions(algebra: JordanAlgebra, k: int) -> None:
    """Raise ``NonzeroRemainder``, naming the side, k and the sample, unless
    c(k) and C(k) are the pencil form of chain entry k.

    Each side is compared exactly at CERT_SAMPLES integer samples of a fixed
    seed, as polynomials in (s, t), with the Delta_j of ``_deltas``:
    * x, y: c(k)(x, y) against sum_e coef_e(s, t) prod_j Delta_j(x, y)^e_j;
    * eigenvalues: C(k)(a) against the same at x = (e - v)/2, y = (e + v)/2,
      with v = sum_i a_i c_i on the coordinate frame: the diagonal for
      sym(r), ((a_1 + a_2)/2, (a_1 - a_2)/2, 0, ...) for the spin factors
      and a in rank 1.  It is taken at the integers 4x, 4y, where each term,
      of Delta-degree k, is 4^(rk) times its value.
    Both sides are int64 tables, one row per sample: ``Poly.values`` of the
    expansion, and the (samples x terms) table of the Delta-monomials times
    the entry's coefficient table.  Each stage is bounded before it runs and
    raises OverflowError instead of wrapping.  The range is every k that
    ``check`` uses (``cli._check_k``), whose largest bound is 2^44 (rank 1
    at k = 6, the eigenvalue side); rank 1 stays below 2^62 up to k = 8,
    and k = 9 raises.
    The corners of the entry read only r and d: the coefficient of
    Delta_r^k is prod_{i<r} (s + 1 + i d/2)_k (rising factorials), and that
    of Delta_0^k is (-1)^(rk) times the same product in t.
    """
    r, d = algebra.r, algebra.d
    pencil = _pencil(algebra, k)
    # 2^(rk) times each corner product, one factor 2 (s + 1 + i d/2 + m) at a time
    corner_s, corner_t = {(0, 0): 1}, {(0, 0): (-1) ** (r * k)}
    for i in range(r):
        for m in range(k):
            corner_s = _c_mul(corner_s, [2 + i * d + 2 * m, 2], [1])
            corner_t = _c_mul(corner_t, [1], [2 + i * d + 2 * m, 2])
    for name, e, want in (("Delta_r^k", (0,) * r + (k,), corner_s),
                          ("Delta_0^k", (k,) + (0,) * r, corner_t)):
        got = {ij: v * 2 ** (r * k) for ij, v in pencil.terms.get(e, {}).items()}
        if got != {ij: v * pencil.den for ij, v in want.items() if v}:
            raise NonzeroRemainder(f"{algebra.name} k={k}: the coefficient of {name} "
                                   f"is not its corner product")
    exps, coefs = _term_table(pencil)
    form = Poly(exps, coefs.astype(object), pencil.den)
    (xys, xy_deltas), (eigs, eig_deltas) = _cert_samples(algebra)
    for side, poly, points, scale, deltas in (
            ("x, y", compute_c(algebra, k).poly, xys, 1, xy_deltas),
            ("eigenvalue", compute_C(algebra, k).poly, eigs, 4 ** (r * k), eig_deltas)):
        # poly(points) scale = form(deltas), each side over its den
        where = f"{algebra.name} k={k}: the {side} certificate"
        g = math.gcd(scale * form.den, poly.den)
        try:
            sides = [(poly.values(points), scale * form.den // g),
                     (form.values(deltas), poly.den // g)]
        except OverflowError as exc:
            raise OverflowError(f"{where}: {exc}") from exc
        _check_int64(max(int(np.abs(v).max(initial=0)) * f for v, f in sides), where)
        lhs, rhs = np.zeros((2, CERT_SAMPLES, *np.maximum(*(v.shape[1:] for v, _ in sides))),
                            dtype=np.int64)
        for out, (v, f) in zip((lhs, rhs), sides):
            out[:, :v.shape[1], :v.shape[2]] = v * f
        bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
        if bad.size:
            raise NonzeroRemainder(f"{algebra.name} k={k}: the {side} expansion "
                                   f"differs from the pencil form at sample {bad[0]}")


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
    never from a c(k) in memory or on disk; ``certify_expansions`` puts it
    against that pencil form with the Delta_j taken from det.  Each weight
    specialises the one expansion over Q[s, t] held in ``_memory_cache``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if (lam is None) != (mu is None):
        raise ValueError("give both weights lam and mu, or neither")
    if (algebra.name, k, "C") not in _memory_cache:
        _memory_cache[algebra.name, k, "C"] = extract_interval_polynomial(_pencil(algebra, k), k)
    C = _memory_cache[algebra.name, k, "C"]
    return OrthoPoly(algebra, C if lam is None else C.at(lam, mu))


# ---------------------------------------------------------------------------
# The box certificate of C(k), and Jacobi reduction in rank 1


def certify_box(algebra: JordanAlgebra, k: int, lam: int, mu: int) -> None:
    """Raise ``NonzeroRemainder``, naming k, (lam, mu) and the first bad
    kappa, unless C(k) at integers lam, mu >= 0 has no exponent above k and
    is orthogonal to the monomial symmetric m_kappa of each kappa of the
    r x k box but (k^r), under (1 - a)^lam (1 + a)^mu |V(a)|^d on the
    eigenvalue chamber: that fixes C(k), the BC_r Jacobi polynomial of (k^r)
    (Koornwinder, Contemp. Math. 138, 1992), up to a scalar.  At x = (1 + a)/2
    on 0 < x_1 < ... < x_r < 1 the weight is a polynomial, x^alpha integrates
    to prod_j 1/(alpha_1 + ... + alpha_j + j), the m_kappa(x) span what the
    m_kappa(a) do (symmetric, in the box, of degree < rk), and every integral
    times lcm(1..top)^r, top the largest factor, is an int.
    """
    if not all(isinstance(w, int) and w >= 0 for w in (lam, mu)):
        raise ValueError("certify_box takes integer weights lam, mu >= 0")
    r, d, where = algebra.r, algebra.d, f"{algebra.name} k={k}, (lambda, mu) = ({lam}, {mu})"
    C = compute_C(algebra, k, lam, mu).poly
    if C.exps.max(initial=0) > k:
        raise NonzeroRemainder(f"{where}: C(k) has an exponent above k, outside the box")
    kappas = list(itertools.combinations_with_replacement(range(k, -1, -1), r))[1:]
    if not kappas:  # k = 0: the box holds (0^r) alone
        return
    c_x = {}  # C(k) at a = 2x - 1
    for beta, c in zip(map(tuple, C.exps.tolist()), C.coef[:, 0, 0].tolist()):
        for alpha in itertools.product(*(range(b + 1) for b in beta)):
            c_x[alpha] = c_x.get(alpha, 0) + c * math.prod(
                math.comb(b, j) * 2 ** j * (-1) ** (b - j) for b, j in zip(beta, alpha))
    # the weight: (1 - x_j)^lam x_j^mu per j, times (x_j - x_i)^d per i < j
    line = [(mu + p, math.comb(lam, p) * (-1) ** p) for p in range(lam + 1)]
    weight = {tuple(e for e, _ in f): math.prod(c for _, c in f)
              for f in itertools.product(line, repeat=r)}
    for i, j in itertools.combinations(range(r), 2):
        weight = _mul(weight, {tuple(d - p if m == j else p if m == i else 0 for m in range(r)):
                               math.comb(d, p) * (-1) ** p for p in range(d + 1)})
    # the factors alpha_1 + ... + alpha_j + j <= top of x^alpha, alpha_i <= 2k, per weight term
    top = 2 * r * k + r * (lam + mu) + d * r * (r - 1) // 2 + r
    _check_int64(top ** r, f"{where}: box certificate")
    alphas = list(itertools.product(range(2 * k + 1), repeat=r))
    factors = np.cumsum(np.reshape(alphas, (-1, 1, r)) + list(weight), axis=2) + range(1, r + 1)
    scaled = math.lcm(*range(1, top + 1)) ** r // np.prod(factors, axis=2).astype(object)
    moments = dict(zip(alphas, scaled.dot(np.array(list(weight.values()), dtype=object))))
    for kappa in kappas:
        if sum(c * moments[tuple(map(add, p, beta))] for p in set(itertools.permutations(kappa))
               for beta, c in c_x.items()):
            raise NonzeroRemainder(f"{where}: <C(k), m_kappa> is not 0 at kappa = "
                                   f"{kappa} of the {r} x {k} box")


def jacobi_proportionality(k: int, lam: int, mu: int) -> Fraction:
    """c in C(k)_{lam,mu} = c P_k^(lam,mu), rank 1, integer lam, mu >= 0, once
    ``certify_box`` shows C(k) such a multiple (degree <= k, orthogonal to
    every lower degree): c = C(k)(1) / P_k(1), P_k(1) = binom(k + lam, k).
    The constant is measured, not assumed; a zero one raises."""
    alg = get_algebra("rank1")
    certify_box(alg, k, lam, mu)
    ratio = compute_C(alg, k, lam, mu).poly.exact((1,)) / math.comb(k + lam, k)
    if not ratio:
        raise NonzeroRemainder(f"rank1 k={k}: C(k) is 0, so no multiple of P_k")
    return ratio


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
