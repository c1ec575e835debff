"""The Fraction reference of the exact Jordan arithmetic, for the tests.

A point is a tuple of Fractions.  Products read a Fraction structure table
that this module builds from each family's definition (``table``), where
``rclab.algebra`` holds no table at all, only closed forms, so the
reference stays independent of the integer paths it checks: ``sym_table``
multiplies Fraction matrices, and the spin and rank-1 products are written
out.  The
pencil chain is stepped here with one Fraction product per term, the loop
the integer step of ``rclab.sympoly`` replaces, from L taken to Fractions
(``fraction_operator``).
"""

from fractions import Fraction
from math import comb, perm, prod
from operator import add, sub

from rclab.sympoly import _pencil_operator

# algebra name -> its Fraction structure table
_TABLES = {}


def poly_items(poly):
    """(exponent tuple, Fraction) per row of a Poly without parameters."""
    return [(tuple(m), Fraction(int(c), poly.den))
            for m, c in zip(poly.exps.tolist(), poly.coef[:, 0, 0])]


def table(alg):
    """table[i][j], the coordinates of b_i.b_j as Fractions, built once per
    algebra from the family's definition."""
    if alg.name not in _TABLES:
        n = alg.n
        if alg.family == "sym":
            _TABLES[alg.name] = sym_table(alg.r)
        elif alg.family == "spin":
            # (x0, xb).(y0, yb) = (x0 y0 + <xb, yb>, x0 yb + y0 xb)
            def product(x, y):
                inner = sum(a * b for a, b in zip(x[1:], y[1:]))
                return (x[0] * y[0] + inner,) + tuple(
                    x[0] * b + y[0] * a for a, b in zip(x[1:], y[1:]))

            basis = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
            _TABLES[alg.name] = tuple(tuple(product(u, v) for v in basis) for u in basis)
        else:   # rank1: the reals
            _TABLES[alg.name] = (((Fraction(1),),),)
    return _TABLES[alg.name]


def mul(alg, x, y):
    """The Jordan product x.y."""
    out = [Fraction(0)] * alg.n
    for i, row in enumerate(table(alg)):
        for j, prod in enumerate(row):
            for k, c in enumerate(prod):
                if c:
                    out[k] += c * x[i] * y[j]
    return tuple(out)


def trace(alg, x):
    # tr x = (x, e) in the diagonal trace form
    return sum(g * e * c for g, e, c in zip(alg.gram, alg.e_coords, x))


def det(alg, x):
    return alg.det_poly.exact(x)


def quad_rep(alg, x, y):
    """P(x)y = 2 x.(x.y) - (x.x).y."""
    return tuple(2 * u - v for u, v in zip(mul(alg, x, mul(alg, x, y)),
                                           mul(alg, mul(alg, x, x), y)))


def quadratic_map(alg, a):
    """The coordinate matrix of P(a), column j the image of b_j, and its
    character chi(P(a)) = (det a)^2."""
    columns = [quad_rep(alg, a, [int(i == j) for i in range(alg.n)]) for j in range(alg.n)]
    return [list(row) for row in zip(*columns)], det(alg, a) ** 2


def apply(matrix, x):
    return tuple(sum(m * v for m, v in zip(row, x)) for row in matrix)


def sym_table(r):
    """The structure table of sym(r) from Fraction matrices: b_a.b_b =
    (b_a b_b + b_b b_a)/2 for the basis matrices E_ij + E_ji (E_ii on the
    diagonal), read at the entries (i, j), i <= j, in the coordinate order
    of ``rclab.algebra`` (the diagonal first)."""
    pairs = [(i, i) for i in range(r)] + [(i, j) for i in range(r) for j in range(i + 1, r)]

    def basis_matrix(i, j):
        m = [[Fraction(0)] * r for _ in range(r)]
        m[i][j] = m[j][i] = Fraction(1)
        return m

    def jordan(a, b):
        return [[sum(a[i][k] * b[k][j] + b[i][k] * a[k][j] for k in range(r)) / 2
                 for j in range(r)] for i in range(r)]

    mats = [basis_matrix(i, j) for i, j in pairs]
    return tuple(tuple(tuple(m[i][j] for i, j in pairs) for m in (jordan(a, b) for b in mats))
                 for a in mats)


def frame_matrix(alg):
    """The n x r matrix F (Fractions) whose product with a is the coordinate
    row of sum_i a_i c_i on a fixed Jordan frame c_1..c_r: the diagonal
    comes first in sym(r), and spin(m) takes c_-+ = (e -+ u)/2 with u the
    first unit vector past e."""
    F = [[Fraction(int(i == j)) for j in range(alg.r)] for i in range(alg.n)]
    if alg.family == "spin":
        F[:2] = [[Fraction(1, 2)] * 2, [Fraction(-1, 2), Fraction(1, 2)]]
    return F


def frame(alg, a):
    """The coordinate row of sum_i a_i c_i (``frame_matrix``)."""
    return tuple(sum(f * x for f, x in zip(row, a)) for row in frame_matrix(alg))


def rational_point(rng, alg, num_bound=6, den_bound=4):
    """n rationals num/den, each drawn numerator first, as the integer
    samplers draw them."""
    return tuple(Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
                 for _ in range(alg.n))


def cone_point(rng, alg):
    """u.u + e, strictly inside the cone."""
    u = rational_point(rng, alg, 3, 3)
    return tuple(w + e for w, e in zip(mul(alg, u, u), alg.e_coords))


# ---------------------------------------------------------------------------
# The pencil chain over Fractions


def _falling(e, q):
    """Coefficients of (x + e)(x + e - 1)...(x + e - q + 1), lowest first."""
    p = [1]
    for m in range(q):
        p = [a * (e - m) + b for a, b in zip(p + [0], [0] + p)]
    return p


def _c_mul(a, ps, pt):
    """a(s, t) ps(s) pt(t) over Q[s, t]."""
    out = {}
    for (i, j), v in a.items():
        for p, x in enumerate(ps):
            for q, y in enumerate(pt):
                out[i + p, j + q] = out.get((i + p, j + q), 0) + v * x * y
    return out


def c_shift(a):
    """a(s + 1, t + 1) over Q[s, t]."""
    out = {}
    for (i, j), v in a.items():
        for p in range(i + 1):
            for q in range(j + 1):
                out[(p, q)] = out.get((p, q), 0) + v * comb(i, p) * comb(j, q)
    return {k: v for k, v in out.items() if v}


def apply_pencil_operator(terms, r, operator):
    """L = [(beta, [(alpha, Fraction)])] applied to {exponents: coefdict}."""
    out = {}
    for e, coef in terms.items():
        for beta, t_beta in operator:
            mid = prod(perm(e[j], beta[j]) for j in range(1, r))
            if not mid:
                continue
            c = _c_mul(coef, _falling(e[0], beta[0]), _falling(e[r], beta[r]))
            base = tuple(map(sub, e, beta))
            for alpha, v in t_beta:
                acc = out.setdefault(tuple(map(add, base, alpha)), {})
                for ij, w in c.items():
                    acc[ij] = acc.get(ij, 0) + w * v * mid
    out = {e: {ij: w for ij, w in c.items() if w} for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def fraction_operator(alg):
    """L of ``rclab.sympoly`` as [(beta, [(alpha, Fraction)])]."""
    operator, den = _pencil_operator(alg)
    return [(beta, [(alpha, Fraction(v, den)) for alpha, v in t_beta])
            for beta, t_beta in operator]


def pencil_chain(alg, kmax, operator):
    """The terms of c(0)..c(kmax) times (det x)^s (det y)^t: c(k + 1) is L
    applied to (det x)^(s+1) (det y)^(t+1) c(k)_{s+1,t+1}."""
    r = alg.r
    chain = [{(0,) * (r + 1): {(0, 0): 1}}]
    for _ in range(kmax):
        weight = {(e[0] + 1,) + e[1:-1] + (e[-1] + 1,): c_shift(coef)
                  for e, coef in chain[-1].items()}
        chain.append(apply_pencil_operator(weight, r, operator))
    return chain
