"""The Fraction reference of the exact Jordan arithmetic, for the tests.

A point is a tuple of Fractions.  Products read the Fraction structure
table ``JordanAlgebra.table``, never the integer ``_int_table``, so the
reference stays independent of the integer paths it checks.
"""

from fractions import Fraction


def mul(alg, x, y):
    """The Jordan product x.y."""
    out = [Fraction(0)] * alg.n
    for i, row in enumerate(alg.table):
        for j, prod in enumerate(row):
            for k, c in enumerate(prod):
                if c:
                    out[k] += c * x[i] * y[j]
    return tuple(out)


def trace(alg, x):
    return sum(t * c for t, c in zip(alg.trace_vec, x))


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


def rational_point(rng, alg, num_bound=6, den_bound=4):
    """n rationals num/den, each drawn numerator first, as the integer
    samplers draw them."""
    return tuple(Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
                 for _ in range(alg.n))


def cone_point(rng, alg):
    """u.u + e, strictly inside the cone."""
    u = rational_point(rng, alg, 3, 3)
    return tuple(w + e for w, e in zip(mul(alg, u, u), alg.e_coords))
