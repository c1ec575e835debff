"""One sparse polynomial type, evaluated exactly and over numpy arrays.

A ``Poly`` is a polynomial in N variables with coefficients in Z[s, t]/den:
an exponent matrix with one row per monomial, the rows in ascending
lexicographic (canonical) order; an integer table ``coef[row, i, j]``, the
coefficient of s^i t^j; and one positive integer denominator.  The order is
fixed by the monomials alone, so every float sum over the rows is the same
wherever the polynomial came from (built in the process or read from disk).

``at(s, t)`` sets the parameters to rationals and stays over the integers.
A Poly without parameters evaluates

* exactly over the integers, from one power table of the coordinates,
  which feeds the table of the monomial values: ``values`` gives den times the
  polynomial at a batch of integer points as that table in int64 times the
  int64 coefficient table, bounded before it runs so that a value past
  int64 raises OverflowError instead of wrapping; ``exact`` at one
  rational point X/q builds the table over Python ints, lifts each row at
  X to the top degree D and divides the sum once, by den q^D;
* over an (m, N) float or complex array (``numeric``): per block of points,
  one contiguous array per power of each coordinate that occurs, each the
  one below it times the coordinate; each monomial is the product of its
  powers in column order, and the rows are added into the output in
  canonical order, ``out += c * term``.  A value takes the same operations
  whatever else is in the stack, so each row keeps the bits of a one-row
  call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import attrgetter

import numpy as np

__all__ = ["Poly"]

# points ``numeric`` evaluates at a time
_BLOCK = 1 << 12


class Poly:
    __slots__ = ("exps", "coef", "den", "_columns", "_fcoef", "_terms")

    def __init__(self, exps, coef, den):
        """Rows of ``exps`` distinct and sorted; ``from_terms`` sees to both."""
        self.exps = exps          # (m, N) int64
        self.coef = coef          # (m, deg_s + 1, deg_t + 1) object array of ints
        self.den = den
        # the exponent column of each coordinate that occurs
        self._columns = [(i, exps[:, i]) for i in range(exps.shape[1]) if exps[:, i].any()]
        self._fcoef = self._terms = None

    @classmethod
    def from_terms(cls, terms, nvars: int, den=1) -> "Poly":
        """From {exponent tuple: coefficient}, every coefficient divided by
        ``den``; a coefficient is a rational (int or Fraction) or a
        {(i, j): rational} dict, the polynomial sum of c s^i t^j.  The keys
        are distinct, so the rows are the sorted keys and nothing is summed;
        each value goes straight to its place in the flat table."""
        keys = sorted(terms)
        coefs = [c if isinstance(c, dict) else {(0, 0): c} for c in map(terms.__getitem__, keys)]
        lcm = math.lcm(1, *map(attrgetter("denominator"),
                               chain.from_iterable(map(dict.values, coefs))))
        powers = set().union(*coefs)
        ds = max((i for i, _ in powers), default=0)
        width = max((j for _, j in powers), default=0) + 1
        size = (ds + 1) * width
        flat = [0] * (len(keys) * size)
        for base, c in zip(range(0, len(flat), size), coefs):
            for (i, j), x in c.items():
                flat[base + i * width + j] = x.numerator * (lcm // x.denominator)
        coef = np.array(flat, dtype=object).reshape(len(keys), ds + 1, width)
        exps = np.array(keys, dtype=np.int64).reshape(len(keys), nvars)
        return cls._trimmed(exps, coef, lcm * den)

    @classmethod
    def _trimmed(cls, exps, coef, den) -> "Poly":
        """From distinct sorted rows over ``den``: zero rows and zero top
        powers of s and t dropped, and the denominator reduced, so equal
        polynomials have equal tables.  ``coef`` holds Python ints, or int64
        (an expansion's product, trimmed and reduced in int64); the result
        holds Python ints."""
        nonzero = coef != 0
        keep = nonzero.any(axis=(1, 2))
        ds = max(np.flatnonzero(nonzero.any(axis=(0, 2))), default=0)
        dt = max(np.flatnonzero(nonzero.any(axis=(0, 1))), default=0)
        coef = coef[keep, :ds + 1, :dt + 1]
        g = math.gcd(den, int(np.gcd.reduce(coef.ravel())))
        if g > 1:
            coef, den = coef // g, den // g
        return cls(exps[keep], coef.astype(object, copy=False), den)

    def at(self, s, t) -> "Poly":
        """This polynomial at rational s, t, in the canonical form of
        ``_trimmed``: rows that vanish are dropped, the denominator reduced."""
        s, t = Fraction(s), Fraction(t)
        ds, dt = self.coef.shape[1] - 1, self.coef.shape[2] - 1
        # homogenised powers: s^i = s_num^i s_den^(ds - i) / s_den^ds
        sp = np.array([s.numerator**i * s.denominator**(ds - i) for i in range(ds + 1)],
                      dtype=object)
        tp = np.array([t.numerator**j * t.denominator**(dt - j) for j in range(dt + 1)],
                      dtype=object)
        return Poly._trimmed(self.exps, self.coef.dot(tp).dot(sp).reshape(-1, 1, 1),
                             self.den * s.denominator**ds * t.denominator**dt)

    def _constant(self):
        if self.coef.shape[1:] != (1, 1):
            raise ValueError("set the parameters with at(s, t) first")
        return self.coef[:, 0, 0]

    def rows(self):
        """(exponent tuple, [(i, j, p, q)]) per row: each nonzero coefficient
        p/q of s^i t^j in lowest terms (q > 0), in ascending (i, j)."""
        out = [(tuple(m), []) for m in self.exps.tolist()]
        row, i, j = np.nonzero(self.coef)
        for r, i, j, c in zip(row.tolist(), i.tolist(), j.tolist(),
                              self.coef[row, i, j].tolist()):
            g = math.gcd(c, self.den)
            out[r][1].append((i, j, c // g, self.den // g))
        return out

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.den == other.den
                and np.array_equal(self.exps, other.exps)
                and np.array_equal(self.coef, other.coef))

    @property
    def fcoef(self) -> np.ndarray:
        """The coefficients as floats, each the nearest to its rational."""
        if self._fcoef is None:
            self._fcoef = np.array([int(c) / self.den for c in self._constant()],
                                   dtype=float)
        return self._fcoef

    def _table(self, ints, dtype) -> np.ndarray:
        """The (m, rows) ``dtype`` table of the monomials at the rows of an
        (m, N) integer array: the power table of the coordinates
        (``_powers``), read at each row's exponents, one coordinate at a
        time."""
        ints = np.asarray(ints, dtype=dtype).reshape(-1, self.exps.shape[1])
        powers = _powers(ints, self.exps.max(axis=0, initial=0))
        acc = np.ones((len(ints), len(self.exps)), dtype=dtype)
        for i, e in self._columns:
            acc *= powers[:, i, e]
        return acc

    def values(self, ints) -> np.ndarray:
        """den times the polynomial at the rows of an (m, N) integer array:
        the (m, deg_s + 1, deg_t + 1) int64 table of the coefficients of
        s^i t^j, the int64 monomial table times the coefficient table.

        Every power, product and partial sum is at most the polynomial with
        each coefficient row's largest |entry| at X, X_i the largest
        |coordinate i| (at least 1).  That bound, taken in floats (whose
        rounding is far below the factor 2 between 2^62 and int64's 2^63),
        is checked before the product runs, so a value past it raises
        OverflowError instead of wrapping."""
        ints = np.asarray(ints, dtype=np.int64).reshape(-1, self.exps.shape[1])
        coef = self.coef.reshape(len(self.coef), -1).astype(np.int64)
        top = np.maximum(np.abs(ints.astype(float)).max(axis=0, initial=0), 1)
        _check_int64(self._table(top, float)[0] @ np.abs(coef.astype(float)).max(axis=1),
                     "Poly.values")
        return (self._table(ints, np.int64) @ coef).reshape(len(ints), *self.coef.shape[1:])

    def exact(self, point) -> Fraction:
        """Value at a point with rational coordinates, over the integers: at
        the point X/q, q one denominator, each monomial of X is lifted to the
        top degree D by q^(D - its degree), and the sum divided once, by
        den q^D."""
        point = [Fraction(x) for x in point]
        q = math.lcm(1, *(x.denominator for x in point))
        deg = self.exps.sum(axis=1).tolist()
        top = max(deg, default=0)
        table = self._table([[x.numerator * (q // x.denominator) for x in point]], object)[0]
        lifted = table * np.array([q ** (top - d) for d in deg], dtype=object)
        return Fraction(int(lifted.dot(self._constant())), self.den * q**top)

    def numeric(self, points) -> np.ndarray:
        """Values at the rows of an (m, N) float or complex array."""
        points = np.asarray(points)
        dtype = np.result_type(points.dtype, np.float64)
        if self._terms is None:
            # the top power of each coordinate that occurs; per row, its
            # float coefficient and the (coordinate, exponent) keys of its
            # powers, in column order
            self._terms = ([(i, int(e.max())) for i, e in self._columns],
                           [(c, [(i, e) for i, e in enumerate(row) if e])
                            for c, row in zip(self.fcoef.tolist(), self.exps.tolist())])
        tops, terms = self._terms
        out = np.zeros(len(points), dtype)
        for lo in range(0, len(points), _BLOCK):
            cols = np.ascontiguousarray(points[lo:lo + _BLOCK].T, dtype=dtype)
            power = {}
            for i, top in tops:
                power[i, 1] = cols[i]
                for p in range(2, top + 1):
                    power[i, p] = power[i, p - 1] * cols[i]
            acc = out[lo:lo + _BLOCK]
            free, spare = np.empty((2, len(acc)), dtype)
            for c, keys in terms:
                if not keys:        # the constant row
                    acc += c
                    continue
                term = power[keys[0]]
                for key in keys[1:]:
                    # into a free buffer: numpy multiplies complex arrays in
                    # place by another loop, which may round differently
                    term = np.multiply(term, power[key], out=free)
                    free, spare = spare, free
                acc += np.multiply(term, c, out=free)
        return out


def _check_int64(bound, context):
    """numpy's int64 products wrap silently: raise unless ``bound``, a bound
    on every product and sum about to be formed, stays below 2^62."""
    if bound >= 2 ** 62:
        raise OverflowError(f"{context}: int64 entries could reach {float(bound):.3g}")


def _powers(ints, tops) -> np.ndarray:
    """The (m, N, max(tops) + 1) table of ints[:, i] ** min(p, tops[i]), in
    the dtype of ``ints``: no power past the top of its coordinate is
    formed."""
    out = np.empty(ints.shape + (int(tops.max(initial=0)) + 1,), dtype=ints.dtype)
    out[..., 0] = 1
    for p in range(1, out.shape[2]):
        out[..., p] = out[..., p - 1] * np.where(p <= tops, ints, 1)
    return out
