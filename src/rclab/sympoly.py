"""Exact symbolic calculus for the Rodrigues construction.

The expressions handled here are finite sums of terms

    coef(s, t) * x^alpha * y^beta * (det x)^(s+a) * (det y)^(t+b)

with coef a polynomial in the two parameters (s, t), alpha/beta monomials
in the n coordinates of each slot, and integer offsets a, b.  This class of
expressions is closed under the partial derivatives d/dx_i, d/dy_i, which
is all the determinant-operator pipeline needs.

No floating point enters anywhere, and the engine runs over the integers.
A ``SymExpr`` holds coefficients in Z[s, t] and a power of two, 2^scale,
that its value is divided by.  The trace-form derivation in coordinate i
is d/dz_i / gram_i with gram_i in {1, 2}, and det(d/dx - d/dy) has order
r, so 2^r times it is an integral combination of plain partial
derivatives: the derivation tables, the determinant powers and the
operator monomials are all integral.  Every determinant has leading
coefficient +-1 in lex order, so the exact divisions of the extraction
stay in Z and are remainder-checked.  At the boundary c(k) becomes a
``BracketPolynomial``, whose ``Poly`` is an integer Z[s,t] table over
2^(rk).  Polynomiality of the extracted bracket is certified, not
approximated.  Every operation is deterministic, independent of any
evaluation schedule.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb
from operator import add, neg

import numpy as np

from . import SCHEMA
from .algebra import JordanAlgebra, Element, get_algebra
from .poly import Poly

__all__ = [
    "NonzeroRemainder",
    "SymExpr",
    "BracketPolynomial",
    "apply_D_power",
    "extract_bracket_polynomial",
    "cayley_check",
]


class NonzeroRemainder(ArithmeticError):
    """Exact division left a remainder; signals an implementation bug."""


# ---------------------------------------------------------------------------
# Coefficient ring: plain dicts {(deg_s, deg_t): int} of Z[s, t]


def _c_iadd(acc, b, factor=1):
    for k, v in b.items():
        w = acc.get(k, 0) + v * factor
        if w:
            acc[k] = w
        elif k in acc:
            del acc[k]

def _c_scale(a, f):
    if not f:
        return {}
    return {k: v * f for k, v in a.items()}

def _c_mul_linear(a, var, const):
    """Multiply by (s + const) or (t + const): var is 0 for s, 1 for t."""
    out = {}
    for (i, j), v in a.items():
        k = (i + 1, j) if var == 0 else (i, j + 1)
        out[k] = out.get(k, 0) + v
        if const:
            k0 = (i, j)
            w = out.get(k0, 0) + v * const
            if w:
                out[k0] = w
            elif k0 in out:
                del out[k0]
    return {k: v for k, v in out.items() if v}

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
    """Sum of coef(s,t) * monomial * (det x)^(s+a) (det y)^(t+b) terms.

    Internal storage: dict {(mono, a, b): coefdict} where mono is a tuple
    of 2n exponents (x-slot first) and coefdict is a Z[s,t] dict; the
    expression is that sum divided by 2**scale.  Terms with equal
    (mono, a, b) are always merged; zero terms are dropped.
    """

    __slots__ = ("algebra", "terms", "scale")

    def __init__(self, algebra: JordanAlgebra, terms=None, scale: int = 0):
        self.algebra = algebra
        self.terms = terms if terms is not None else {}
        self.scale = scale

    @classmethod
    def det_power_seed(cls, algebra: JordanAlgebra, a: int, b: int) -> "SymExpr":
        """The single term (det x)^(s+a) (det y)^(t+b)."""
        mono = (0,) * (2 * algebra.n)
        return cls(algebra, {(mono, a, b): {(0, 0): 1}})

    @classmethod
    def shifted_weight(cls, poly: "BracketPolynomial") -> "SymExpr":
        """(det x)^(s+1) (det y)^(t+1) c_{s+1,t+1}(x, y) for c = c(k).

        D applied to it and stripped of (det x)^s (det y)^t is c(k+1).  The
        coefficients of c(k) lie in 2^(-rk) Z, and 2^(rk) is the scale.
        """
        scale = poly.algebra.r * poly.k
        unit = 2**scale
        if unit % poly.poly.den:
            raise ValueError(f"{poly!r}: coefficients not in 2^-{scale} Z")
        terms = {(mono, 1, 1): _c_shift({(i, j): p * (unit // q) for i, j, p, q in coef})
                 for mono, coef in poly.poly.rows()}
        return cls(poly.algebra, terms, scale)

    def num_terms(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, SymExpr) and self.algebra is other.algebra
                and self.scale == other.scale and self.terms == other.terms)


# ---------------------------------------------------------------------------
# Integer tables, cached on the algebra descriptor


def _memo(algebra, attr, build):
    value = getattr(algebra, attr, None)
    if value is None:
        value = build()
        object.__setattr__(algebra, attr, value)
    return value


def _det_power_poly(algebra, p, slot):
    """(det)^p as an integer monomial dict embedded in the 2n variables."""
    cache = _memo(algebra, "_detpow_cache", dict)
    key = (p, slot)
    if key in cache:
        return cache[key]
    pad = (0,) * algebra.n
    base = {}
    for mono, c in algebra.det_poly.items():
        if c.denominator != 1:
            raise ValueError(f"{algebra.name}: det coefficient {c} is not an integer")
        base[tuple(mono) + pad if slot == "x" else pad + tuple(mono)] = int(c)
    out = {(0,) * (2 * algebra.n): 1}
    for _ in range(p):
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in base.items():
                m = _mono_mul(m1, m2)
                w = nxt.get(m, 0) + c1 * c2
                if w:
                    nxt[m] = w
                elif m in nxt:
                    del nxt[m]
        out = nxt
    cache[key] = out
    return out


def _gradients(algebra):
    """Plain partial derivative of det in each of the 2n coordinates.

    Entry idx < n is d(det x)/dx_idx, entry n + i is d(det y)/dy_i, both
    as integer monomial dicts in the 2n variables.
    """
    def build():
        n = algebra.n
        grads = []
        for idx in range(2 * n):
            det = _det_power_poly(algebra, 1, "x" if idx < n else "y")
            grads.append({m[:idx] + (m[idx] - 1,) + m[idx + 1:]: c * m[idx]
                          for m, c in det.items() if m[idx]})
        return grads

    return _memo(algebra, "_int_grads", build)


def _operator_monomials(algebra):
    """2^r det(d/dx - d/dy) in the trace-form derivations, over plain partials.

    The trace-form derivation in coordinate i is d/dz_i / gram_i with
    gram_i in {1, 2}; each monomial of det has order r, so 2^r times its
    weight is an integer.  Returns {exponent tuple (2n): int}.
    """
    def build():
        n = algebra.n
        result = {}
        for dmono, dcoef in algebra.det_poly.items():
            w = dcoef * 2**algebra.r
            for g, e in zip(algebra.gram, dmono):
                w /= Fraction(g) ** e
            # multiply out prod_i (xi_i - zeta_i)^{e_i}
            partial = {(0,) * (2 * n): w}
            for i, e in enumerate(dmono):
                for _ in range(e):
                    nxt = {}
                    for mono, c in partial.items():
                        m1 = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                        nxt[m1] = nxt.get(m1, 0) + c
                        j = n + i
                        m2 = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                        nxt[m2] = nxt.get(m2, 0) - c
                    partial = nxt
            for mono, c in partial.items():
                w = result.get(mono, 0) + c
                if w:
                    result[mono] = w
                elif mono in result:
                    del result[mono]
        if any(c.denominator != 1 for c in result.values()):
            raise ValueError(f"{algebra.name}: 2^r D is not integral")
        return {mono: int(c) for mono, c in result.items()}

    return _memo(algebra, "_op_monos", build)


# ---------------------------------------------------------------------------
# Derivations and the determinant operator


def _acc(out, key, coef, factor):
    """out[key] += factor * coef, dropping the key when it cancels."""
    acc = out.get(key)
    if acc is None:
        out[key] = {ij: v * factor for ij, v in coef.items()}
    else:
        _c_iadd(acc, coef, factor)
        if not acc:
            del out[key]


def _derivation(terms, algebra, idx, out=None, factor=1):
    """Plain partial derivative in coordinate idx (0..n-1 in x, n..2n-1 in y).

    Adds ``factor`` times the derivative into ``out`` (a new dict by
    default) and returns it.
    """
    in_x = idx < algebra.n
    grad = _gradients(algebra)[idx]
    out = {} if out is None else out
    for (mono, a, b), coef in terms.items():
        e = mono[idx]
        if e:
            _acc(out, (mono[:idx] + (e - 1,) + mono[idx + 1:], a, b), coef, e * factor)
        # (s+a) (det x)^(s+a-1) d(det x)/dx_idx, or the same in y
        if in_x:
            shifted, a1, b1 = _c_mul_linear(coef, 0, a), a - 1, b
        else:
            shifted, a1, b1 = _c_mul_linear(coef, 1, b), a, b - 1
        if shifted:
            for gmono, gc in grad.items():
                _acc(out, (_mono_mul(mono, gmono), a1, b1), shifted, gc * factor)
    return out


def _apply_operator(terms, algebra, ops):
    """Sum of c * d^alpha(terms) over ops {alpha: c}.

    Each alpha is a sequence of derivations; sequences are walked in sorted
    order, so a derivative shared by several monomials as a prefix is
    computed once, and the last derivation of each adds straight into the
    total.
    """
    seqs = sorted((tuple(i for i, e in enumerate(alpha) for _ in range(e)), c)
                  for alpha, c in ops.items())
    total = {}
    stack = [((), terms)]      # derivatives along the current prefix
    for seq, c in seqs:
        while seq[:len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        while len(stack[-1][0]) < len(seq) - 1:
            prefix, cur = stack[-1]
            idx = seq[len(prefix)]
            stack.append((prefix + (idx,), _derivation(cur, algebra, idx)))
        _derivation(stack[-1][1], algebra, seq[-1], total, c)
    return total


def apply_D_power(expr: SymExpr, k: int) -> SymExpr:
    """Apply det(d/dx - d/dy)^k, expanded via the algebra's det polynomial."""
    if k < 0:
        raise ValueError("k must be >= 0")
    algebra = expr.algebra
    ops = _operator_monomials(algebra)
    terms = expr.terms
    for _ in range(k):
        terms = _apply_operator(terms, algebra, ops)
    return SymExpr(algebra, terms, expr.scale + algebra.r * k)


# ---------------------------------------------------------------------------
# Polynomial extraction: common denominator + exact division


def _divide(num, divisor, context=""):
    """Divide {mono: coefdict} by {mono: int} over Z: num = quot * divisor + rem.

    Lex order on exponent tuples; no monomial of ``rem`` is divisible by the
    divisor's leading monomial.  That leading coefficient is +-1 for every
    implemented determinant, so the quotient stays integral.
    """
    lead_div = max(divisor)
    cd = divisor[lead_div]
    if cd not in (1, -1):
        raise ValueError(f"{context}: leading coefficient {cd} is not +-1")
    work = {m: dict(c) for m, c in num.items()}
    heap = [tuple(map(neg, m)) for m in work]
    heapq.heapify(heap)
    quot, rem = {}, {}
    while work:
        while heap:
            m = tuple(map(neg, heap[0]))
            if m in work:
                break
            heapq.heappop(heap)
        lead = m
        if any(a < b for a, b in zip(lead, lead_div)):
            rem[lead] = work.pop(lead)
            continue
        qmono = tuple(a - b for a, b in zip(lead, lead_div))
        qcoef = _c_scale(work[lead], cd)      # 1/cd == cd
        quot[qmono] = qcoef
        for dm, dc in divisor.items():
            tgt = _mono_mul(qmono, dm)
            acc = work.get(tgt)
            if acc is None:
                acc = {}
                work[tgt] = acc
                heapq.heappush(heap, tuple(map(neg, tgt)))
            _c_iadd(acc, qcoef, -dc)
            if not acc:
                del work[tgt]
    return quot, rem


def _exact_divide(num, divisor, context=""):
    """The quotient of ``_divide``; a nonzero remainder raises."""
    quot, rem = _divide(num, divisor, context)
    if rem:
        raise NonzeroRemainder(f"{context}: remainder at {max(rem)}, "
                               f"not divisible by {max(divisor)}")
    return quot


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
        bad = poly.exps.sum(axis=1) != algebra.r * self.k
        if bad.any():
            m = tuple(poly.exps[bad][0].tolist())
            raise AssertionError(
                f"monomial {m} has degree {sum(m)}, expected {algebra.r * self.k}")

    def num_monomials(self):
        return len(self.poly.exps)

    def specialize(self, s0, t0) -> Poly:
        """The polynomial at rational (s0, t0), for evaluate_specialized."""
        return self.poly.at(s0, t0)

    def evaluate(self, x: Element, y: Element, s0, t0):
        return self.poly.at(s0, t0)(x.coords + y.coords)

    def evaluate_specialized(self, spec: Poly, x: Element, y: Element):
        return spec(x.coords + y.coords)

    def swap_slots_and_params(self) -> "BracketPolynomial":
        """c(k)_{t,s}(y, x) as a BracketPolynomial (for the exchange test)."""
        p = self.poly
        return BracketPolynomial(self.algebra, self.k, Poly.collect(
            np.roll(p.exps, self.algebra.n, axis=1), p.coef.transpose(0, 2, 1), p.den))

    def __eq__(self, other):
        return (isinstance(other, BracketPolynomial)
                and self.algebra is other.algebra and self.k == other.k
                and self.poly == other.poly)

    # -- wire format --------------------------------------------------------

    def to_jsonable(self):
        rows = [{"mono": list(mono),
                 "coef": [[i, j, f"{p}/{q}"] for i, j, p, q in coef]}
                for mono, coef in self.poly.rows()]
        return {
            "schema": SCHEMA,
            "kind": "bracket-polynomial",
            "format": 1,
            "algebra": self.algebra.name,
            "k": self.k,
            "terms": rows,
        }

    @classmethod
    def from_jsonable(cls, data) -> "BracketPolynomial":
        algebra = get_algebra(data["algebra"])
        terms = {tuple(row["mono"]): {(int(i), int(j)): Fraction(v)
                                      for i, j, v in row["coef"]}
                 for row in data["terms"]}
        return cls(algebra, data["k"], Poly.from_terms(terms, 2 * algebra.n))

    def __repr__(self):
        return (f"BracketPolynomial({self.algebra.name}, k={self.k}, "
                f"{self.num_monomials()} monomials)")


def _mono_mul(m1, m2):
    return tuple(map(add, m1, m2))


def _clear_negative_layers(terms, algebra, slot, context):
    """Eliminate negative det-power offsets in one slot.

    ``terms`` is {(mono, a, b): coefdict}.  The layer with the most
    negative offset, L = sum_b P_b det_other^(b - bmin), is divisible by
    det once: modulo det the whole expression reduces to that single
    layer, the total is a polynomial, and det_x is coprime to det_y.  Each
    P_b is divided by det on its own, P_b = Q_b det + R_b, and Q_b re-enters
    one layer up at the same b.  No monomial of any R_b is divisible by
    the leading monomial of det, nor of sum_b R_b det_other^(b - bmin),
    which is L minus a multiple of det; a multiple of det with that
    property is zero, and the check that it is zero certifies the step.
    """
    primary = 0 if slot == "x" else 1   # index of the offset being cleared
    det_this = _det_power_poly(algebra, 1, slot)
    other_slot = "y" if slot == "x" else "x"
    while True:
        amin = min((key[1 + primary] for key in terms), default=0)
        if amin >= 0:
            return terms
        parts = {}          # b -> P_b
        for key in [key for key in terms if key[1 + primary] == amin]:
            parts.setdefault(key[2 - primary], {})[key[0]] = terms.pop(key)
        bmin = min(parts)
        leftover = {}
        for b, part in parts.items():
            quot, rem = _divide(part, det_this, f"{context} layer {slot}^{amin}")
            for m, coef in quot.items():
                _acc(terms, (m, amin + 1, b) if primary == 0 else (m, b, amin + 1),
                     coef, 1)
            for m, coef in rem.items():
                for dm, dc in _det_power_poly(algebra, b - bmin, other_slot).items():
                    _acc(leftover, _mono_mul(m, dm), coef, dc)
        if leftover:
            raise NonzeroRemainder(f"{context} layer {slot}^{amin}: remainder at "
                                   f"{max(leftover)}, not divisible by det {slot}")


def extract_bracket_polynomial(expr: SymExpr, k: int) -> BracketPolynomial:
    """Strip (det x)^s (det y)^t and certify the result is a polynomial.

    The input is D applied to a det-power weight, such as D^k applied to
    the seed with offsets a = b = k.  Residual negative offsets are cleared
    layer by layer with exact divisions; a nonzero remainder would mean the
    operator expansion (not the construction) is wrong, so it raises.  The
    integer table is divided by 2^scale.
    """
    algebra = expr.algebra
    context = f"{algebra.name} k={k}"
    terms = {key: dict(coef) for key, coef in expr.terms.items()}
    terms = _clear_negative_layers(terms, algebra, "x", context)
    terms = _clear_negative_layers(terms, algebra, "y", context)
    out = {}
    for (mono, a, b), coef in terms.items():
        for mx, cx in _det_power_poly(algebra, a, "x").items():
            mxy = _mono_mul(mono, mx)
            for my, cy in _det_power_poly(algebra, b, "y").items():
                _acc(out, _mono_mul(mxy, my), coef, cx * cy)
    return BracketPolynomial(algebra, k, Poly.from_terms(out, 2 * algebra.n,
                                                         2**expr.scale))


# ---------------------------------------------------------------------------
# Internal validation oracle


def cayley_check(algebra: JordanAlgebra, m: int) -> Fraction:
    """det(d/dx)(det x)^m / (det x)^(m-1), which must be a constant.

    A non-constant quotient (or a remainder) indicates a gradient-convention
    bug in the derivation tables.  For sym(2) the value is m(m + 1/2).  It
    runs on the operator tables of ``apply_D_power``, keeping the monomials
    with no y-derivative: 2^r det(d/dx).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = algebra.n
    ops = {alpha: c for alpha, c in _operator_monomials(algebra).items()
           if not any(alpha[n:])}
    seed = {((0,) * (2 * n), m, 0): {(0, 0): 1}}
    # specialize s = 0: surviving terms all have det-exponent >= 0
    plain = {}
    for (mono, a, b), coef in _apply_operator(seed, algebra, ops).items():
        v = coef.get((0, 0))
        if not v:
            continue
        if a < 0:
            raise NonzeroRemainder(f"negative det power {a} survived at s=0")
        for mx, cx in _det_power_poly(algebra, a, "x").items():
            _acc(plain, _mono_mul(mono, mx), {(0, 0): v}, cx)
    divisor = _det_power_poly(algebra, m - 1, "x")
    quot = _exact_divide(plain, divisor, f"cayley {algebra.name} m={m}")
    zero = (0,) * (2 * n)
    if set(quot) != {zero}:
        raise NonzeroRemainder(f"cayley quotient not constant: {sorted(quot)[:3]}")
    return Fraction(quot[zero].get((0, 0), 0), 2**algebra.r)
