"""Exact symbolic calculus for the Rodrigues construction, in pencil coordinates.

Write det(x + tau y) = sum_j tau^j Delta_j(x, y), j = 0..r, so Delta_0 =
det x and Delta_r = det y.  D = det(d/dx - d/dy) and the brackets c(k)_{s,t}
are relative invariants of the pencil (x, y) under the structure group, and
on functions of Delta_0..Delta_r, D acts as the order-r operator
L = sum_{1 <= |beta| <= r} T_beta(Delta) d_Delta^beta, each T_beta of
Delta-degree |beta| - 1.  The recursion runs on sums of terms
coef(s, t) Delta_0^(s+e_0) Delta_1^e_1 ... Delta_r^(t+e_r), coef in Q[s, t].
Every exact object is held once, as Python ints over one denominator: L
per algebra, and each expression with the integer coefficients of all its
terms over its ``den``.  A chain step, its shift and the expansions run on
ints and make no Fraction.

L is derived once per algebra from exact jets.  At p = (x0, y0),
(d/dx - d/dy)^gamma f(p) = d_u^gamma f(x0 + u, y0 - u) at u = 0, so
sum_beta T_beta(p) w^beta = det(grad_u) exp(sum_j w_j (Delta_j(p + (u, -u))
- Delta_j(p))) at u = 0, which Faa di Bruno's formula expands over the set
partitions of the r derivatives of each monomial of det.  The jets and the
symbols scale * T_beta(p) of every fit and certificate point come from one
int64 pass: each jet is a polynomial of degree r in the pencil variable
tau, evaluated at tau = 0..r and interpolated exactly, and each entry is
bounded before it is formed, so nothing wraps.  Each T_beta is fitted in
the Delta-monomials of degree |beta| - 1 at seeded integer points of a
Jordan frame: the fit is solved mod the prime 2^31 - 1 and checked exactly
over the integers at every fit point.  It assumes that scale * T_beta has
integer coefficients and raises otherwise, as it does when a fit point
disagrees; a generic point off the frame where L misses the jets raises
too, which certifies the invariance the fit assumes.

Extraction strips Delta_0^s Delta_r^t.  The Delta_j are algebraically
independent, so a term left with a negative power of Delta_0 or Delta_r is
no polynomial and raises ``NonzeroRemainder``, the analogue of a remainder
in division by det.  Only the polynomial asked for is expanded, by one
int64 matrix product over a set of integer Delta_j tables: the (table
monomials x terms) matrix of the Delta-monomials of the terms times the
(terms x s^i t^j) coefficient table, trimmed and reduced in int64, and
bounded before it runs like every int64 stage.  The tables over x, y give
c(k), and the tables delta_j(a) = Delta_j((e - v)/2, (e + v)/2) over the r
eigenvalues a_i of v give C(k) with no x, y monomial in between.  No
floating point enters the values; only the bounds are taken in floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from math import comb
from operator import add, sub

import numpy as np

from .algebra import JordanAlgebra
from .poly import Poly, _check_int64

__all__ = [
    "NonzeroRemainder",
    "SymExpr",
    "BracketPolynomial",
    "apply_D_power",
    "extract_bracket_polynomial",
    "extract_interval_polynomial",
    "cayley_check",
]

# seed of the fit and certificate points of every algebra's operator L
_POINT_SEED = 2024
# the prime modulus of the fit's elimination
_PRIME = 2 ** 31 - 1


class NonzeroRemainder(ArithmeticError):
    """An exact certificate failed: a non-polynomial remainder, an operator
    fit that misses a point, or an expansion that is not its pencil form;
    signals an implementation bug."""


# ---------------------------------------------------------------------------
# Coefficient ring: plain dicts {(deg_s, deg_t): int} of Z[s, t]; an
# expression puts all of them over one denominator


def _c_mul(a, ps, pt):
    """a(s, t) ps(s) pt(t), with ps and pt coefficient lists, lowest first."""
    out = {}
    for (i, j), v in a.items():
        for p, x in enumerate(ps):
            for q, y in enumerate(pt):
                out[i + p, j + q] = out.get((i + p, j + q), 0) + v * x * y
    return out


def _falling(e, q):
    """Coefficients of (x + e)(x + e - 1)...(x + e - q + 1), lowest first."""
    p = [1]
    for m in range(q):
        p = [a * (e - m) + b for a, b in zip(p + [0], [0] + p)]
    return p


def _c_shift(a):
    """a(s + 1, t + 1)."""
    out = {}
    for (i, j), v in a.items():
        for p in range(i + 1):
            for q in range(j + 1):
                out[(p, q)] = out.get((p, q), 0) + v * comb(i, p) * comb(j, q)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Expressions


class SymExpr:
    """Sum of coef(s,t) * Delta_0^(s+e_0) Delta_1^e_1 ... Delta_r^(t+e_r) terms.

    Internal storage: dict {(e_0, ..., e_r): coefdict} with coefdict a
    Z[s,t] dict, every coefficient over the one positive int ``den``.  The
    constructor divides both by their gcd, so equal expressions have equal
    terms and den.  Terms with equal exponents are always merged; zero
    terms are dropped.
    """

    __slots__ = ("algebra", "terms", "den")

    def __init__(self, algebra: JordanAlgebra, terms=None, den=1):
        terms = terms if terms is not None else {}
        g = math.gcd(den, *(v for c in terms.values() for v in c.values()))
        if g != 1:
            terms = {e: {ij: v // g for ij, v in c.items()} for e, c in terms.items()}
        self.algebra, self.terms, self.den = algebra, terms, den // g

    @classmethod
    def det_power_seed(cls, algebra: JordanAlgebra, a: int, b: int) -> "SymExpr":
        """The single term (det x)^(s+a) (det y)^(t+b)."""
        return cls(algebra, {(a,) + (0,) * (algebra.r - 1) + (b,): {(0, 0): 1}})

    @classmethod
    def shifted_weight(cls, expr: "SymExpr") -> "SymExpr":
        """(det x)^(s+1) (det y)^(t+1) c_{s+1,t+1} for c = c(k).

        ``expr`` is c(k) (det x)^s (det y)^t, as ``apply_D_power`` returns
        it; D applied to the weight and stripped of (det x)^s (det y)^t is
        c(k+1).  The shift keeps the denominator.
        """
        terms = _polynomial_terms(expr, f"{expr.algebra.name} weight")
        return cls(expr.algebra, {(e[0] + 1,) + e[1:-1] + (e[-1] + 1,): _c_shift(coef)
                                  for e, coef in terms.items()}, expr.den)

    def num_terms(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SymExpr) and self.algebra is other.algebra
                and self.den == other.den and self.terms == other.terms)


def _polynomial_terms(expr, context):
    """The terms of ``expr``, which must be a polynomial in Delta times
    Delta_0^s Delta_r^t: a negative power of Delta_0 or Delta_r raises."""
    bad = [e for e in expr.terms if e[0] < 0 or e[-1] < 0]
    if bad:
        raise NonzeroRemainder(f"{context}: remainder at Delta^{max(bad)}, "
                               f"not divisible by det x or det y")
    return expr.terms


# ---------------------------------------------------------------------------
# Integer tables, memoised per algebra descriptor


def _det_terms(algebra):
    """(exponent tuple, int) per monomial of det, whose coefficients are ints."""
    det = algebra.det_poly
    return list(zip(map(tuple, det.exps.tolist()), det.coef[:, 0, 0].tolist()))


def _mul(a, b):
    """Product of two {exponent tuple: int} polynomials."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class _TableSet:
    """Integer polynomials ``rows`` (dicts over ``nvars`` coordinates), each
    over the denominator ``den``, and the memo of their products."""

    __slots__ = ("rows", "nvars", "den", "_products")

    def __init__(self, rows, nvars, den=1):
        self.rows, self.nvars, self.den = rows, nvars, den
        self._products = {}

    def monomial(self, e):
        """prod_j rows[j]^e_j, that is den^|e| Delta_0^e_0 ... Delta_r^e_r, cached."""
        if e not in self._products:
            j = next((j for j, ej in enumerate(e) if ej), None)
            self._products[e] = ({(0,) * self.nvars: 1} if j is None else _mul(
                self.monomial(e[:j] + (e[j] - 1,) + e[j + 1:]), self.rows[j]))
        return self._products[e]


@functools.cache
def _pencil_tables(algebra):
    """Delta_0..Delta_r over the 2n coordinates (x-slot first): substitute
    z = x + tau y in det and split by the power of tau."""
    tables = [{} for _ in range(algebra.r + 1)]
    for mono, c in _det_terms(algebra):
        # prod_i (x_i + tau y_i)^m_i: a_i of the m_i factors come from y
        for a in itertools.product(*(range(m + 1) for m in mono)):
            w = c * math.prod(map(comb, mono, a))
            key = tuple(map(sub, mono, a)) + a
            table = tables[sum(a)]
            table[key] = table.get(key, 0) + w
    return _TableSet([{m: c for m, c in t.items() if c} for t in tables], 2 * algebra.n)


@functools.cache
def _eigen_tables(algebra):
    """delta_j(a) = 2^-r [tau^j] prod_i ((1 - a_i) + tau (1 + a_i)) over the r
    eigenvalues a_i of v, each over 2^r: Delta_j((e - v)/2, (e + v)/2) at
    v = sum_i a_i c_i on a Jordan frame c_1..c_r, where det is the product
    of the eigenvalues."""
    r = algebra.r
    one, product = (0,) * r, {(0,) * (r + 1): 1}
    for i in range(r):
        a_i = tuple(int(j == i) for j in range(r))
        # times (1 - a_i) + tau (1 + a_i), the last exponent that of tau
        product = _mul(product, {one + (0,): 1, a_i + (0,): -1,
                                 one + (1,): 1, a_i + (1,): 1})
    rows = [{} for _ in range(r + 1)]
    for m, c in product.items():
        rows[m[-1]][m[:-1]] = c
    return _TableSet(rows, r, 2 ** r)


# ---------------------------------------------------------------------------
# The operator L, from jets


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [(first,)] + part
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]


@functools.cache
def _faa_di_bruno(algebra):
    """det(grad_u) exp(g(u)) at u = 0, for any g with g(0) = 0, as
    (keys, scale, plan): the sum over the keys (blocks, weight) of
    weight/scale * prod_{gamma in blocks} [u^gamma] g, with integer weights.

    grad_u is the trace-form gradient d/du_i / gram_i.  For each monomial of
    det and each set partition of its r derivatives, a block of multi-index
    gamma takes gamma! [u^gamma] g.  ``plan`` = (gammas, rests, coefs): the
    multi-indices gamma = 0 and every block (the blocks of a key index this
    list), the distinct exponents m - gamma over the monomials m of det, and
    the int64 matrix whose [t, g] entry sums c_m prod_i C(m_i, gamma_i) over
    the m with m - gamma_g = rests[t], so that [u^gamma_g] det(a + v) =
    sum_t coefs[t, g] a^rests[t].
    """
    n, det = algebra.n, _det_terms(algebra)
    table = {}
    for mono, c in det:
        w = c / math.prod(Fraction(g) ** e for g, e in zip(algebra.gram, mono))
        positions = [i for i, e in enumerate(mono) for _ in range(e)]
        for part in _set_partitions(list(range(len(positions)))):
            key = tuple(sorted(tuple(sum(positions[p] == i for p in block) for i in range(n))
                               for block in part))
            weight = w * math.prod(math.factorial(x) for gamma in key for x in gamma)
            table[key] = table.get(key, 0) + weight
    scale = math.lcm(1, *(w.denominator for w in table.values()))
    gammas = sorted({(0,) * n} | {g for key in table for g in key})
    rests = {}
    for g, gamma in enumerate(gammas):
        for mono, c in det:
            if all(map(int.__ge__, mono, gamma)):
                row = rests.setdefault(tuple(map(sub, mono, gamma)), [0] * len(gammas))
                row[g] += c * math.prod(map(comb, mono, gamma))
    index = {gamma: g for g, gamma in enumerate(gammas)}
    keys = [(tuple(index[gamma] for gamma in key), int(w * scale))
            for key, w in table.items() if w]
    return keys, scale, (gammas, np.array(list(rests), dtype=np.int64),
                         np.array(list(rests.values()), dtype=np.int64))


@functools.cache
def _lagrange(r):
    """(D V^-1, D) for the Vandermonde matrix V at tau = 0..r, D the least
    common denominator of V^-1: an int64 matrix, built once per r and
    returned read-only."""
    basis = []   # the Lagrange polynomial of each node, lowest coefficient first
    for k in range(r + 1):
        p = [Fraction(1)]
        for m in range(r + 1):
            if m != k:
                p = [(b - m * a) / (k - m) for a, b in zip(p + [0], [0] + p)]
        basis.append(p)
    den = math.lcm(1, *(v.denominator for p in basis for v in p))
    matrix = np.array([[int(p[j] * den) for p in basis] for j in range(r + 1)], dtype=np.int64)
    matrix.flags.writeable = False
    return matrix, den


def _interpolate(values, context):
    """The tau^j coefficients, j = 0..r, of integer polynomials of degree at
    most r in tau from their values at tau = 0..r (axis -2), exactly.

    With V the Vandermonde matrix at tau = 0..r and D the least common
    denominator of V^-1, the coefficients are (D V^-1) values / D
    (``_lagrange``); a nonzero remainder of the division by D raises
    ``NonzeroRemainder``.
    """
    matrix, den = _lagrange(values.shape[-2] - 1)
    _check_int64(int(np.abs(matrix).sum(axis=1).max()) * int(np.abs(values).max(initial=0)),
                 f"{context} interpolation")
    jets, rem = np.divmod(matrix @ values, den)
    if rem.any():
        raise NonzeroRemainder(f"{context}: a jet is not divisible by D = {den}")
    return jets


def _pencil_samples(algebra, points):
    """(delta, symbols) at the integer points (x0, y0), in one int64 pass:
    delta[p, j] = Delta_j(p), and symbols[q][p, b] = scale * T_beta(p) for the
    b-th beta of degree q in ``_exponents`` order (see ``_faa_di_bruno``).

    The jet [u^gamma] Delta_j(x0 + u, y0 - u) is the tau^j coefficient of
    det(a + (1 - tau) u), a = x0 + tau y0: of (1 - tau)^|gamma| sum_t
    coefs[t, gamma] a^rests[t], a polynomial of degree r in tau.  It is
    evaluated at tau = 0..r for every point and interpolated exactly.  A key
    of q blocks contributes weight * prod_l sum_j jet_l[j] Delta_j: the
    outer product of its q jet rows, summed per q over the keys, one key at
    a time, and projected onto the beta of degree q by a 0/1 matrix.  Each
    int64 stage is bounded before it runs and raises OverflowError instead
    of wrapping.
    """
    n, r = algebra.n, algebra.r
    keys, _, (gammas, rests, coefs) = _faa_di_bruno(algebra)
    context = f"{algebra.name} jets"
    pts = np.array(points, dtype=np.int64)
    # |a_i| and |1 - tau| are at most (r + 1) max |coordinate|
    _check_int64(int(np.abs(coefs).sum(axis=0).max())
                 * ((r + 1) * max(1, int(np.abs(pts).max()))) ** r, f"{context} evaluation")
    tau = np.arange(r + 1)
    a = pts[:, None, :n] + tau[:, None] * pts[:, None, n:]
    mono = np.ones((len(pts), r + 1, len(rests)), dtype=np.int64)
    for i in range(n):
        mono *= a[:, :, i, None] ** rests[:, i]
    orders = np.array([sum(gamma) for gamma in gammas])
    rows = _interpolate((mono @ coefs) * (1 - tau)[:, None] ** orders, context).transpose(2, 0, 1)
    _check_int64(sum(abs(w) for _, w in keys) * ((r + 1) * int(np.abs(rows).max())) ** r,
                 f"{algebra.name} symbols")
    tables = {q: np.zeros((len(pts), (r + 1) ** q), dtype=np.int64) for q in range(1, r + 1)}
    for blocks, weight in keys:
        outer = weight * rows[blocks[0]]
        for g in blocks[1:]:
            outer = (outer[:, :, None] * rows[g][:, None, :]).reshape(len(pts), -1)
        tables[len(blocks)] += outer
    symbols = {}
    for q, table in tables.items():
        index = {beta: b for b, beta in enumerate(_exponents(r + 1, q))}
        project = np.zeros((table.shape[1], len(index)), dtype=np.int64)
        for row, js in enumerate(itertools.product(range(r + 1), repeat=q)):
            project[row, index[tuple(map(js.count, range(r + 1)))]] = 1
        symbols[q] = table @ project
    return rows[0], symbols


def _exponents(count, degree):
    """Exponent tuples of ``count`` variables with the given total degree."""
    return [e for e in itertools.product(range(degree + 1), repeat=count)
            if sum(e) == degree]


def _solve(a, b, context):
    """The integer X (an object array) with a X = b, for integer matrices a
    (rows >= columns) and b.

    Gauss-Jordan elimination runs mod P = 2^31 - 1 in int64 on entries
    reduced from Python ints, so a product of two residues stays below 2^62.
    The residues of X are lifted to (-P/2, P/2), and a X = b is checked
    exactly over the integers at every row.  The fit assumes an integral
    solution: a column without pivot mod P (a singular fit) raises
    ``NonzeroRemainder``, and so does a row that misses, whether a fit point
    disagrees or the solution is not integral.
    """
    a, b = np.array(a, dtype=object), np.array(b, dtype=object)
    cols = a.shape[1]
    m = (np.concatenate([a, b], axis=1) % _PRIME).astype(np.int64)
    for c in range(cols):
        pivots = np.flatnonzero(m[c:, c])
        if not pivots.size:
            raise NonzeroRemainder(f"{context}: the fit is singular")
        m[[c, c + pivots[0]]] = m[[c + pivots[0], c]]
        row = m[c] * pow(int(m[c, c]), -1, _PRIME) % _PRIME
        m -= m[:, c, None] * row
        m[c] = row
        m %= _PRIME
    x = ((m[:cols, cols:] + _PRIME // 2) % _PRIME - _PRIME // 2).astype(object)
    if (a @ x != b).any():
        raise NonzeroRemainder(f"{context}: a fit point disagrees with the lift of X mod P")
    return x


@functools.cache
def _pencil_operator(algebra):
    """L as (operator, den), operator = [(beta, [(alpha, int)])]: D acts on
    functions of Delta as sum_beta T_beta(Delta) d_Delta^beta, T_beta =
    sum_alpha (int / den) Delta^alpha.

    Fitted at C(2r-1, r) + r integer points of a Jordan frame (only the
    first r coordinates of each slot nonzero), then certified at two
    generic integer points.  The fit's integral solution is L times its
    scale; both are divided by their gcd.
    """
    n, r = algebra.n, algebra.r
    scale = _faa_di_bruno(algebra)[1]
    rng = random.Random(_POINT_SEED)

    def frame():
        return tuple(rng.randint(-4, 4) for _ in range(r)) + (0,) * (n - r)

    fit = [frame() + frame() for _ in range(comb(2 * r - 1, r) + r)]
    generic = [tuple(rng.randint(-3, 3) for _ in range(2 * n)) for _ in range(2)]
    delta, symbols = _pencil_samples(algebra, fit + generic)
    delta, count = delta.tolist(), len(fit)
    operator = []
    for q in range(1, r + 1):
        alphas, betas = _exponents(r + 1, q - 1), _exponents(r + 1, q)
        context = f"{algebra.name} operator, order {q}"
        a = np.array([[math.prod(map(pow, d, al)) for al in alphas] for d in delta],
                     dtype=object)
        sym = symbols[q].astype(object)
        x = _solve(a[:count], sym[:count], context)
        misses = np.flatnonzero((a[count:] @ x != sym[count:]).any(axis=0))
        if misses.size:
            raise NonzeroRemainder(f"{context}: the certificate fails at {betas[misses[0]]}")
        for beta, column in zip(betas, x.T.tolist()):
            coefs = [(al, v) for al, v in zip(alphas, column) if v]
            if coefs:
                operator.append((beta, coefs))
    g = math.gcd(scale, *(v for _, coefs in operator for _, v in coefs))
    return [(beta, [(al, v // g) for al, v in coefs]) for beta, coefs in operator], scale // g


def _apply_pencil_operator(expr):
    """L applied to ``expr``: d_Delta^beta of each term, times T_beta, as
    (terms, den), the ints over the product of the two denominators."""
    algebra = expr.algebra
    r, (operator, op_den) = algebra.r, _pencil_operator(algebra)
    out = {}
    for e, coef in expr.terms.items():
        for beta, t_beta in operator:
            mid = math.prod(math.perm(e[j], beta[j]) for j in range(1, r))
            if not mid:
                continue
            c = _c_mul(coef, _falling(e[0], beta[0]), _falling(e[r], beta[r]))
            base = tuple(map(sub, e, beta))
            for alpha, v in t_beta:
                acc = out.setdefault(tuple(map(add, base, alpha)), {})
                vm = v * mid
                for ij, w in c.items():
                    acc[ij] = acc.get(ij, 0) + w * vm
    out = {e: {ij: w for ij, w in c.items() if w} for e, c in out.items()}
    return {e: c for e, c in out.items() if c}, expr.den * op_den


def apply_D_power(expr: SymExpr, k: int) -> SymExpr:
    """Apply det(d/dx - d/dy)^k, as the algebra's pencil operator L."""
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        expr = SymExpr(expr.algebra, *_apply_pencil_operator(expr))
    return expr


# ---------------------------------------------------------------------------
# Polynomial extraction


class BracketPolynomial:
    """The extracted bracket polynomial: exact, coefficients in Q[s,t].

    ``poly`` holds it over Z[s,t] and one denominator.  Every monomial has
    total degree exactly r*k (checked at construction), and any
    specialization (s0, t0) is a genuine polynomial on V x V.
    """

    def __init__(self, algebra: JordanAlgebra, k: int, poly: Poly):
        self.algebra = algebra
        self.k = int(k)
        self.poly = poly
        self._specialized = {}      # (s0, t0) -> poly.at(s0, t0)
        bad = poly.exps.sum(axis=1) != algebra.r * self.k
        if bad.any():
            m = tuple(poly.exps[bad][0].tolist())
            raise AssertionError(
                f"monomial {m} has degree {sum(m)}, expected {algebra.r * self.k}")

    def num_monomials(self):
        return len(self.poly.exps)

    def specialize(self, s0, t0) -> Poly:
        """The polynomial at rational (s0, t0), for evaluate_specialized.
        Built once per (s0, t0) and held by this object; callers share it
        and do not change it."""
        key = (s0, t0)
        if key not in self._specialized:
            self._specialized[key] = self.poly.at(s0, t0)
        return self._specialized[key]

    def evaluate(self, x, y, s0, t0):
        """The exact value at rational coordinate sequences x, y and (s0, t0)."""
        return self.poly.at(s0, t0).exact(tuple(x) + tuple(y))

    def evaluate_specialized(self, spec: Poly, x, y):
        """``evaluate`` with the parameters already set by ``specialize``."""
        return spec.exact(tuple(x) + tuple(y))

    def __eq__(self, other):
        return (isinstance(other, BracketPolynomial)
                and self.algebra is other.algebra and self.k == other.k
                and self.poly == other.poly)

    def __repr__(self):
        return (f"BracketPolynomial({self.algebra.name}, k={self.k}, "
                f"{self.num_monomials()} monomials)")


def _term_table(expr):
    """(exponents, coefficients) of the terms of ``expr`` in sorted order:
    an (terms, r + 1) int64 matrix of the e, and the (terms, deg_s + 1,
    deg_t + 1) int64 table of their integer coefficients of s^i t^j; a
    coefficient of 2^62 or more raises OverflowError."""
    keys = sorted(expr.terms)
    _check_int64(max((abs(v) for c in expr.terms.values() for v in c.values()), default=0),
                 f"{expr.algebra.name} pencil terms")
    ds = max((i for c in expr.terms.values() for i, _ in c), default=0)
    dt = max((j for c in expr.terms.values() for _, j in c), default=0)
    coefs = np.zeros((len(keys), ds + 1, dt + 1), dtype=np.int64)
    for row, e in enumerate(keys):
        for (i, j), v in expr.terms[e].items():
            coefs[row, i, j] = v
    return np.array(keys, dtype=np.int64).reshape(len(keys), -1), coefs


def _expand(expr: SymExpr, k: int, tables: _TableSet) -> Poly:
    """Strip (det x)^s (det y)^t and expand the rest in the monomials of
    ``tables``, over den^k times the common denominator of the terms.  A
    term left with a negative power of det x or det y means the operator
    (not the construction) is wrong, so it raises.

    One int64 product: the (table monomials x terms) matrix of the
    products ``tables.monomial(e)`` times the (terms x s^i t^j) coefficient
    table of ``_term_table``; its entries and partial sums are bounded,
    row by row, by |matrix| times the largest |coefficient| of each term
    (in floats, far below the factor 2 between 2^62 and 2^63), and checked
    before the product runs."""
    _polynomial_terms(expr, f"{expr.algebra.name} k={k}")
    exps, coefs = _term_table(expr)
    products = [tables.monomial(e) for e in map(tuple, exps.tolist())]
    monos = sorted(set().union(*products))
    index = dict(zip(monos, itertools.count()))
    matrix = np.zeros((len(monos), len(products)), dtype=np.int64)
    for col, product in enumerate(products):
        matrix[list(map(index.__getitem__, product)), col] = list(product.values())
    flat = coefs.reshape(len(coefs), -1)
    bound = np.abs(matrix.astype(float)) @ np.abs(flat.astype(float)).max(axis=1)
    _check_int64(bound.max(initial=0), f"{expr.algebra.name} k={k} expansion")
    table = (matrix @ flat).reshape(len(monos), *coefs.shape[1:])
    return Poly._trimmed(np.array(monos, dtype=np.int64).reshape(len(monos), tables.nvars),
                         table, expr.den * tables.den ** k)


def extract_bracket_polynomial(expr: SymExpr, k: int) -> BracketPolynomial:
    """c(k) in x, y monomials from D applied to a det-power weight, such as
    D^k applied to the seed with offsets a = b = k."""
    return BracketPolynomial(expr.algebra, k, _expand(expr, k, _pencil_tables(expr.algebra)))


def extract_interval_polynomial(expr: SymExpr, k: int) -> Poly:
    """C(k)(v) = c(k)((e - v)/2, (e + v)/2) in Q[s, t] from the same pencil
    form, as a symmetric polynomial in the eigenvalues a_1..a_r of v: the
    expansion of ``extract_bracket_polynomial`` over the eigenvalue tables
    delta_j(a)."""
    return _expand(expr, k, _eigen_tables(expr.algebra))


# ---------------------------------------------------------------------------
# Internal validation oracle


def cayley_check(algebra: JordanAlgebra, m: int) -> Fraction:
    """det(d/dx)(det x)^m / (det x)^(m-1), which must be a constant.

    It is L applied to Delta_0^m at s = t = 0; anything but a single term
    c Delta_0^(m-1) raises.  For sym(2) the value is m(m + 1/2).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    expr = apply_D_power(SymExpr.det_power_seed(algebra, m, 0), 1)
    values = {e: coef[(0, 0)] for e, coef in expr.terms.items() if coef.get((0, 0))}
    want = (m - 1,) + (0,) * algebra.r
    if set(values) != {want}:
        raise NonzeroRemainder(f"cayley {algebra.name} m={m}: L det^m is not a "
                               f"multiple of det^(m-1): {sorted(values)[:3]}")
    return Fraction(values[want], expr.den)
