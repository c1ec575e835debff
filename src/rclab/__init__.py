"""Generalized Rankin-Cohen bracket polynomials on Euclidean Jordan algebras.

Exact construction of the bracket polynomial family via a Rodrigues-type
formula, together with symbolic and numerical verification of the identities
the family satisfies (covariance, interval orthogonality, Laplace-transform
factorization, tube-domain group covariance).
"""

import math

from .algebra import get_algebra, ALGEBRA_NAMES

__version__ = "0.1.0"

SCHEMA = "rc-lab/1"

# Report fields that measure an error against the report's tolerance.
RESIDUALS = ("residual", "max_residual", "constant_residual", "ratio_spread",
             "max_off_diagonal_ratio")

__all__ = ["get_algebra", "ALGEBRA_NAMES", "SCHEMA", "report", "worst",
           "__version__"]


def report(check: str, algebra: str, ok=None, **fields) -> dict:
    """A check report in the SCHEMA format, its verdict in ``pass``.

    With a ``tolerance`` the report passes only if every RESIDUALS field it
    carries is finite and below the tolerance, and ``ok`` holds if given.
    Without one it passes only if ``ok`` holds: an exact check states its
    condition, it never passes by default.
    """
    tol = fields.get("tolerance")
    if tol is None:
        if ok is None:
            raise ValueError(f"{check}: report without tolerance or condition")
        passed = bool(ok)
    else:
        residuals = [fields[key] for key in RESIDUALS if key in fields]
        if not residuals:
            raise ValueError(f"{check}: tolerance without a residual")
        passed = (all(math.isfinite(v) and v < tol for v in residuals)
                  and (ok is None or bool(ok)))
    return {"schema": SCHEMA, "check": check, "algebra": algebra, **fields,
            "pass": passed}


def worst(values) -> float:
    """The largest of ``values`` and 0.0, or NaN if any value is NaN."""
    out = 0.0
    for v in values:
        if math.isnan(v):
            return math.nan
        out = max(out, v)
    return out
