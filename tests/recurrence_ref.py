"""The Gauss rule loop that ``rclab.quadrature`` replaced, for the tests.

``gauss_from_recurrence`` runs the whole recurrence of p_tilde, p_tilde'
and the Christoffel sum together in every Newton pass and once more for the
weights (``orthonormal_eval``), and rescales a node by 2^-256 whenever |p|
or |p'| passes 2^256.  ``rclab.quadrature`` runs (p_tilde, p_tilde') alone
in each Newton pass and p_tilde alone for the weights; both must give every
rule the same bits.
"""

import math

import numpy as np


def orthonormal_eval(x, a, b, m0, n):
    """p_tilde_n, its derivative and the Christoffel sum of p_tilde_0..n-1
    squared at x (vectorized over x), each times 2^-e, 2^-e and 2^-2e."""
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(m0))
    dp_prev = np.zeros_like(x)
    dp = np.zeros_like(x)
    s = np.zeros_like(x)
    e = np.zeros(x.shape, dtype=int)
    for j in range(n):
        s += p ** 2
        sb_next = math.sqrt(b[j + 1])
        sb = math.sqrt(b[j]) if j > 0 else 0.0
        p_next = ((x - a[j]) * p - sb * p_prev) / sb_next
        dp_next = ((x - a[j]) * dp + p - sb * dp_prev) / sb_next
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
        big = np.maximum(np.abs(p), np.abs(dp)) > 2.0 ** 256
        if big.any():
            f = np.where(big, 2.0 ** -256, 1.0)
            p, p_prev, dp, dp_prev, s = p * f, p_prev * f, dp * f, dp_prev * f, s * f * f
            e += 256 * big
    return p, dp, s, e


def gauss_from_recurrence(n, a, b, m0):
    """(nodes, weights): Golub-Welsch initial nodes, Newton-polished on the
    recurrence until the largest step relative to max(1, |x|) is below 1e-14
    or stops shrinking."""
    J = np.zeros((n, n))
    for i in range(n):
        J[i, i] = a[i]
        if i + 1 < n:
            off = math.sqrt(b[i + 1])
            J[i, i + 1] = off
            J[i + 1, i] = off
    x = np.linalg.eigvalsh(J)
    last = math.inf
    for _ in range(50):
        pn, dpn, _, _ = orthonormal_eval(x, a, b, m0, n)
        dx = pn / dpn
        x = x - dx
        step = np.max(np.abs(dx) / np.maximum(1.0, np.abs(x)))
        if step < 1e-14 or step >= last:
            break
        last = step
    _, _, s, e = orthonormal_eval(x, a, b, m0, n)
    return x, np.ldexp(1.0 / s, -2 * e)
