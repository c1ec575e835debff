"""Exact symbolic calculus for the Rodrigues construction.

The expressions handled here are finite sums of terms

    coef(s, t) * x^alpha * y^beta * (det x)^(s+a) * (det y)^(t+b)

with coef an exact polynomial in the two parameters (s, t), alpha/beta
monomials in the n coordinates of each slot, and integer offsets a, b.
This class of expressions is closed under the trace-form derivations
d/dx_i, d/dy_i, which is all the determinant-operator pipeline needs.

No floating point enters anywhere: coefficients are Fractions throughout,
so polynomiality of the extracted bracket is certified, not approximated.
Expressions are immutable from the caller's point of view and every
operation is deterministic, independent of any evaluation schedule.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction

from . import SCHEMA
from .algebra import JordanAlgebra, Element, get_algebra

__all__ = [
    "NonzeroRemainder",
    "ParamPoly",
    "SymExpr",
    "BracketPolynomial",
    "diff",
    "apply_D_power",
    "extract_bracket_polynomial",
    "cayley_check",
]


class NonzeroRemainder(ArithmeticError):
    """Exact division left a remainder; signals an implementation bug."""


# ---------------------------------------------------------------------------
# Coefficient ring Q[s, t]: plain dicts {(deg_s, deg_t): Fraction} in the hot
# path, with ParamPoly as the public wrapper.


def _c_add(a, b):
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = w
        elif k in out:
            del out[k]
    return out

def _c_iadd(acc, b, factor=None):
    if factor is not None and factor == 1:
        factor = None
    for k, v in b.items():
        if factor is not None:
            v = v * factor
        w = acc.get(k, 0) + v
        if w:
            acc[k] = w
        elif k in acc:
            del acc[k]

def _c_scale(a, f):
    if not f:
        return {}
    return {k: v * f for k, v in a.items()}

def _c_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            w = out.get(k, 0) + v1 * v2
            if w:
                out[k] = w
            elif k in out:
                del out[k]
    return out

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

def _c_eval(a, s0, t0):
    total = 0
    for (i, j), v in a.items():
        term = v
        if i:
            term = term * s0**i
        if j:
            term = term * t0**j
        total = total + term
    return total


class ParamPoly:
    """Exact polynomial in the two parameters (s, t).

    Sparse map (deg_s, deg_t) -> Fraction; zero coefficients are never
    stored.  Supports ring arithmetic and exact or float evaluation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, v in terms.items():
                v = v if isinstance(v, Fraction) else Fraction(v)
                if v:
                    t[(int(k[0]), int(k[1]))] = v
        self.terms = t

    @classmethod
    def const(cls, v):
        return cls({(0, 0): Fraction(v)})

    @classmethod
    def _raw(cls, d):
        p = cls.__new__(cls)
        p.terms = d
        return p

    def __add__(self, other):
        return ParamPoly._raw(_c_add(self.terms, other.terms))

    def __sub__(self, other):
        return ParamPoly._raw(_c_add(self.terms, _c_scale(other.terms, -1)))

    def __neg__(self):
        return ParamPoly._raw(_c_scale(self.terms, -1))

    def __mul__(self, other):
        if isinstance(other, ParamPoly):
            return ParamPoly._raw(_c_mul(self.terms, other.terms))
        return ParamPoly._raw(_c_scale(self.terms, Fraction(other)))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __call__(self, s0, t0):
        return _c_eval(self.terms, s0, t0)

    def degree(self):
        return max((i + j for (i, j) in self.terms), default=-1)

    def swap_st(self):
        return ParamPoly._raw({(j, i): v for (i, j), v in self.terms.items()})

    def sorted_items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), v in self.sorted_items():
            mono = "".join(["" if v is None else "",
                            f"s^{i}" if i else "", f"t^{j}" if j else ""])
            bits.append(f"{v}{('*' + mono) if mono else ''}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Expressions


class SymExpr:
    """Sum of coef(s,t) * monomial * (det x)^(s+a) (det y)^(t+b) terms.

    Internal storage: dict {(mono, a, b): coefdict} where mono is a tuple
    of 2n exponents (x-slot first) and coefdict is a Q[s,t] dict.  Terms
    with equal (mono, a, b) are always merged; zero terms are dropped.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: JordanAlgebra, terms=None):
        self.algebra = algebra
        self.terms = terms if terms is not None else {}

    @classmethod
    def det_power_seed(cls, algebra: JordanAlgebra, a: int, b: int) -> "SymExpr":
        """The single term (det x)^(s+a) (det y)^(t+b)."""
        mono = (0,) * (2 * algebra.n)
        return cls(algebra, {(mono, a, b): {(0, 0): Fraction(1)}})

    def copy(self):
        return SymExpr(self.algebra, {k: dict(v) for k, v in self.terms.items()})

    def num_terms(self):
        return len(self.terms)

    def coefficient(self, mono, a, b) -> ParamPoly:
        return ParamPoly._raw(dict(self.terms.get((tuple(mono), a, b), {})))

    def __eq__(self, other):
        return (isinstance(other, SymExpr) and self.algebra is other.algebra
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def scaled(self, f) -> "SymExpr":
        f = Fraction(f)
        return SymExpr(self.algebra, {k: _c_scale(v, f) for k, v in self.terms.items()})

    def plus(self, other: "SymExpr") -> "SymExpr":
        out = {k: dict(v) for k, v in self.terms.items()}
        for k, v in other.terms.items():
            acc = out.setdefault(k, {})
            _c_iadd(acc, v)
            if not acc:
                del out[k]
        return SymExpr(self.algebra, out)


def _grad_cache(algebra):
    # algebraic gradient of det per coordinate, cached on the descriptor
    cache = getattr(algebra, "_alg_grads", None)
    if cache is None:
        cache = algebra.det_gradients()
        object.__setattr__(algebra, "_alg_grads", cache)
    return cache


def _diff_single(terms, algebra, idx):
    """Trace-form derivation w.r.t. coordinate idx (0..n-1 in x, n..2n-1 in y)."""
    n = algebra.n
    in_x = idx < n
    i = idx if in_x else idx - n
    grads = _grad_cache(algebra)
    w = Fraction(1) / Fraction(algebra.gram[i])
    gi = grads[i]
    out = {}
    for (mono, a, b), coef in terms.items():
        e = mono[idx]
        if e:
            newmono = mono[:idx] + (e - 1,) + mono[idx + 1:]
            key = (newmono, a, b)
            acc = out.setdefault(key, {})
            _c_iadd(acc, coef, w * e)
            if not acc:
                del out[key]
        # (s+a) (det)^(s+a-1) * grad_i(det), grad in the matching slot
        shifted = _c_mul_linear(coef, 0 if in_x else 1, Fraction(a if in_x else b))
        if shifted:
            newab = (a - 1, b) if in_x else (a, b - 1)
            for gmono, gc in gi.items():
                if in_x:
                    m = tuple(p + q for p, q in zip(mono[:n], gmono)) + mono[n:]
                else:
                    m = mono[:n] + tuple(p + q for p, q in zip(mono[n:], gmono))
                key = (m, newab[0], newab[1])
                acc = out.setdefault(key, {})
                _c_iadd(acc, shifted, gc)
                if not acc:
                    del out[key]
    return out


def diff(expr: SymExpr, slot: str, i: int) -> SymExpr:
    """Exact derivation of ``expr`` in the trace-form gradient convention.

    ``slot`` is "x" or "y"; ``i`` indexes the coordinate.  Off-diagonal
    sym(r) coordinates carry the factor 1/2 (and every spin coordinate the
    factor 1/2) coming from the trace-form Gram matrix, which is exactly
    what makes the symbol of the determinant operator equal det(xi - zeta).
    """
    if slot not in ("x", "y"):
        raise ValueError("slot must be 'x' or 'y'")
    idx = i if slot == "x" else expr.algebra.n + i
    return SymExpr(expr.algebra, _diff_single(expr.terms, expr.algebra, idx))


def _operator_monomials(algebra):
    """det(dx - dy) expanded over the 2n derivation symbols.

    Returns dict {exponent tuple (2n): Fraction}; cached per algebra.
    """
    cache = getattr(algebra, "_op_monos", None)
    if cache is not None:
        return cache
    n = algebra.n
    out = {(0,) * (2 * n): Fraction(1)}
    # multiply out prod_i (xi_i - zeta_i)^{e_i} for each det monomial
    result = {}
    for dmono, dcoef in algebra.det_poly.items():
        partial = {(0,) * (2 * n): dcoef}
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
    object.__setattr__(algebra, "_op_monos", result)
    return result


def _apply_operator_monomial(terms, algebra, alpha):
    cur = terms
    for idx, e in enumerate(alpha):
        for _ in range(e):
            cur = _diff_single(cur, algebra, idx)
            if not cur:
                return cur
    return cur


def apply_D_power(expr: SymExpr, k: int, algebra: JordanAlgebra | None = None) -> SymExpr:
    """Apply det(d/dx - d/dy)^k, expanded via the algebra's det polynomial."""
    if k < 0:
        raise ValueError("k must be >= 0")
    algebra = algebra or expr.algebra
    ops = _operator_monomials(algebra)
    terms = expr.terms
    for _ in range(k):
        total = {}
        for alpha, c in ops.items():
            piece = _apply_operator_monomial(terms, algebra, alpha)
            for key, coef in piece.items():
                acc = total.setdefault(key, {})
                _c_iadd(acc, coef, c)
                if not acc:
                    del total[key]
        terms = total
    return SymExpr(algebra, terms)


# ---------------------------------------------------------------------------
# Polynomial extraction: common denominator + exact division


def _det_power_poly(algebra, p, slot):
    """(det)^p as a plain monomial dict embedded in the 2n variables."""
    cache = getattr(algebra, "_detpow_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(algebra, "_detpow_cache", cache)
    key = (p, slot)
    if key in cache:
        return cache[key]
    n = algebra.n
    zero = (0,) * (2 * n)
    out = {zero: Fraction(1)}
    base = {}
    for mono, c in algebra.det_poly.items():
        if slot == "x":
            base[tuple(mono) + (0,) * n] = c
        else:
            base[(0,) * n + tuple(mono)] = c
    for _ in range(p):
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in base.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                w = nxt.get(m, 0) + c1 * c2
                if w:
                    nxt[m] = w
                elif m in nxt:
                    del nxt[m]
        out = nxt
    cache[key] = out
    return out


def _exact_divide(num, divisor, context=""):
    """Divide {mono: coefdict} by {mono: Fraction}; remainder must vanish.

    Lex order on exponent tuples; the divisor's leading coefficient is
    +-1 for every implemented determinant, so no content issues arise.
    """
    lead_div = max(divisor)
    cd = divisor[lead_div]
    work = {m: dict(c) for m, c in num.items()}
    heap = [tuple(-e for e in m) for m in work]
    heapq.heapify(heap)
    quot = {}
    while work:
        while heap:
            m = tuple(-e for e in heap[0])
            if m in work:
                break
            heapq.heappop(heap)
        lead = m
        if any(a < b for a, b in zip(lead, lead_div)):
            raise NonzeroRemainder(
                f"{context}: leading monomial {lead} not divisible by {lead_div}"
            )
        qmono = tuple(a - b for a, b in zip(lead, lead_div))
        qcoef = _c_scale(work[lead], Fraction(1) / cd)
        quot[qmono] = qcoef
        for dm, dc in divisor.items():
            tgt = tuple(a + b for a, b in zip(qmono, dm))
            acc = work.get(tgt)
            if acc is None:
                acc = {}
                work[tgt] = acc
                heapq.heappush(heap, tuple(-e for e in tgt))
            _c_iadd(acc, qcoef, -dc)
            if not acc:
                del work[tgt]
    return quot


class BracketPolynomial:
    """The extracted bracket polynomial: exact, coefficients in Q[s,t].

    ``terms`` maps 2n-exponent tuples to ParamPoly coefficients.  Every
    monomial has total degree exactly r*k (checked at construction), and
    any specialization (s0, t0) is a genuine polynomial on V x V.
    """

    def __init__(self, algebra: JordanAlgebra, k: int, terms, check=True):
        self.algebra = algebra
        self.k = int(k)
        self.terms = {
            tuple(m): (c if isinstance(c, ParamPoly) else ParamPoly(c))
            for m, c in terms.items() if c
        }
        if check:
            want = algebra.r * self.k
            for m in self.terms:
                if sum(m) != want:
                    raise AssertionError(
                        f"monomial {m} has degree {sum(m)}, expected {want}"
                    )

    def num_monomials(self):
        return len(self.terms)

    def specialize(self, s0, t0):
        """Numeric coefficients at (s0, t0); exact for rational inputs."""
        out = {}
        for m, c in self.terms.items():
            v = c(s0, t0)
            if v:
                out[m] = v
        return out

    def evaluate(self, x: Element, y: Element, s0, t0):
        coords = tuple(x.coords) + tuple(y.coords)
        total = 0
        for m, c in self.terms.items():
            term = c(s0, t0)
            for e, v in zip(m, coords):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def evaluate_specialized(self, spec, x: Element, y: Element):
        coords = tuple(x.coords) + tuple(y.coords)
        total = 0
        for m, cv in spec.items():
            term = cv
            for e, v in zip(m, coords):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def swap_slots_and_params(self) -> "BracketPolynomial":
        """c(k)_{t,s}(y, x) as a BracketPolynomial (for the exchange test)."""
        n = self.algebra.n
        out = {}
        for m, c in self.terms.items():
            out[m[n:] + m[:n]] = c.swap_st()
        return BracketPolynomial(self.algebra, self.k, out)

    def __eq__(self, other):
        return (isinstance(other, BracketPolynomial)
                and self.algebra is other.algebra and self.k == other.k
                and self.terms == other.terms)

    # -- wire format --------------------------------------------------------

    def to_jsonable(self):
        rows = []
        for m in sorted(self.terms):
            coef = [[i, j, f"{v.numerator}/{v.denominator}"]
                    for (i, j), v in self.terms[m].sorted_items()]
            rows.append({"mono": list(m), "coef": coef})
        return {
            "schema": SCHEMA,
            "kind": "bracket-polynomial",
            "format": 1,
            "algebra": self.algebra.name,
            "k": self.k,
            "terms": rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), separators=(",", ":"))

    @classmethod
    def from_jsonable(cls, data) -> "BracketPolynomial":
        algebra = get_algebra(data["algebra"])
        terms = {}
        for row in data["terms"]:
            coef = {(int(i), int(j)): Fraction(v) for i, j, v in row["coef"]}
            terms[tuple(row["mono"])] = ParamPoly(coef)
        return cls(algebra, data["k"], terms)

    @classmethod
    def from_json(cls, text: str) -> "BracketPolynomial":
        return cls.from_jsonable(json.loads(text))

    def __repr__(self):
        return (f"BracketPolynomial({self.algebra.name}, k={self.k}, "
                f"{len(self.terms)} monomials)")


def _mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def _clear_negative_layers(terms, algebra, slot, context):
    """Eliminate negative det-power offsets in one slot.

    ``terms`` is {(mono, a, b): coefdict}.  The layer with the most
    negative offset is flattened (its det powers in the *other* slot are
    expanded relative to the layer's own minimum) and divided by det once;
    the quotient re-enters one layer up.  Each layer is exactly divisible:
    modulo det_x the whole expression reduces to that single layer, the
    total is a polynomial, and det_x is coprime to det_y.
    """
    primary = 0 if slot == "x" else 1   # index of the offset being cleared
    det_this = _det_power_poly(algebra, 1, slot)
    other_slot = "y" if slot == "x" else "x"
    while True:
        amin = min(key[1 + primary] for key in terms)
        if amin >= 0:
            return terms
        layer = {key: coef for key, coef in terms.items() if key[1 + primary] == amin}
        for key in layer:
            del terms[key]
        bmin = min(key[2 - primary] for key in layer)
        flat = {}
        for (mono, a, b), coef in layer.items():
            off = (b if primary == 0 else a) - bmin
            for dm, dc in _det_power_poly(algebra, off, other_slot).items():
                m = _mono_mul(mono, dm)
                acc = flat.setdefault(m, {})
                _c_iadd(acc, coef, dc)
                if not acc:
                    del flat[m]
        quot = _exact_divide(flat, det_this, f"{context} layer {slot}^{amin}")
        for m, coef in quot.items():
            key = (m, amin + 1, bmin) if primary == 0 else (m, bmin, amin + 1)
            acc = terms.setdefault(key, {})
            _c_iadd(acc, coef)
            if not acc:
                del terms[key]


def extract_bracket_polynomial(expr: SymExpr, k: int) -> BracketPolynomial:
    """Strip (det x)^s (det y)^t and certify the result is a polynomial.

    The input is D^k applied to the seed with offsets a = b = k.  Residual
    negative offsets are cleared layer by layer with exact divisions; a
    nonzero remainder would mean the operator expansion (not the
    construction) is wrong, so it raises.
    """
    algebra = expr.algebra
    if not expr.terms:
        return BracketPolynomial(algebra, k, {})
    context = f"{algebra.name} k={k}"
    terms = {key: dict(coef) for key, coef in expr.terms.items()}
    terms = _clear_negative_layers(terms, algebra, "x", context)
    terms = _clear_negative_layers(terms, algebra, "y", context)
    out = {}
    for (mono, a, b), coef in terms.items():
        for mx, cx in _det_power_poly(algebra, a, "x").items():
            mxy = _mono_mul(mono, mx)
            for my, cy in _det_power_poly(algebra, b, "y").items():
                m = _mono_mul(mxy, my)
                acc = out.setdefault(m, {})
                _c_iadd(acc, coef, cx * cy)
                if not acc:
                    del out[m]
    return BracketPolynomial(algebra, k, {m: ParamPoly(c) for m, c in out.items()})


# ---------------------------------------------------------------------------
# Internal validation oracle


def cayley_check(algebra: JordanAlgebra, m: int) -> Fraction:
    """det(d/dx)(det x)^m / (det x)^(m-1), which must be a constant.

    A non-constant quotient (or a remainder) indicates a gradient-convention
    bug in the derivation tables.  For sym(2) the value is m(m + 1/2).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = algebra.n
    seed = SymExpr(algebra, {((0,) * (2 * n), m, 0): {(0, 0): Fraction(1)}})
    ops = _operator_monomials(algebra)
    # restrict to pure-x operator monomials (the seed has no y-dependence,
    # but mixed monomials would annihilate it anyway)
    total = {}
    for alpha, c in ops.items():
        piece = _apply_operator_monomial(seed.terms, algebra, alpha)
        for key, coef in piece.items():
            acc = total.setdefault(key, {})
            _c_iadd(acc, coef, c)
            if not acc:
                del total[key]
    # specialize s = t = 0: surviving terms all have det-exponent >= 0
    plain = {}
    for (mono, a, b), coef in total.items():
        v = _c_eval(coef, Fraction(0), Fraction(0))
        if not v:
            continue
        if a < 0:
            raise NonzeroRemainder(f"negative det power {a} survived at s=0")
        for mx, cx in _det_power_poly(algebra, a, "x").items():
            mm = tuple(p + q for p, q in zip(mono, mx))
            w = plain.get(mm, 0) + v * cx
            if w:
                plain[mm] = w
            elif mm in plain:
                del plain[mm]
    divisor = _det_power_poly(algebra, m - 1, "x")
    quot = _exact_divide({mm: {(0, 0): c} for mm, c in plain.items()}, divisor,
                         f"cayley {algebra.name} m={m}")
    zero = (0,) * (2 * n)
    if set(quot) != {zero}:
        raise NonzeroRemainder(f"cayley quotient not constant: {sorted(quot)[:3]}")
    return _c_eval(quot[zero], Fraction(0), Fraction(0))
