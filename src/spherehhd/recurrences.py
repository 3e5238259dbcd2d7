"""Closed-form coefficients for the degree recurrences and the Cholesky factor.

All couplings between the scalar bases on the sphere uncouple by absolute
order.  The four couplings below give every nonzero entry of the
conversions and of the colatitude block ``A``; the diagonal of the
longitude block ``B`` is the order ``m`` itself.  The other three are the
entries of the closed-form Cholesky factor of an order ``m >= 1``'s
normal matrix, which the solver back-substitutes with and the
conditioning analysis bounds.  The solver's plane rotations and order
zero's factor are closed forms of their own, in :mod:`.solver`.  ``m`` is
always the absolute order (callers pass ``abs(m)``); ``l`` and ``m`` may
be scalars or numpy arrays that broadcast together, e.g. a (degree, order)
grid.

Each formula is evaluated as written, products inside a single square root.
The arguments stay comfortably inside float64 range for any practical
truncation degree, so no logarithmic rescaling is done.
"""

import numpy as np

__all__ = [
    "alpha",
    "beta",
    "gamma",
    "delta",
    "chol_d",
    "chol_e",
    "chol_f",
]


def _as_degrees(l, minimum, name):
    arr = np.asarray(l, dtype=np.float64)
    if np.any(arr < minimum):
        raise ValueError(f"{name}: degree l must be >= {minimum}, got {l}")
    return arr


def _check_order(m, minimum, name):
    below = np.any(m < minimum) if isinstance(m, np.ndarray) else m < minimum
    if below:
        raise ValueError(f"{name}: order m must be >= {minimum}")


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def alpha(l, m):
    """Coupling of the tangential basis onto the lower-degree csc(theta) harmonic.

    Defined for ``l >= m >= 0`` with ``l >= 1``; always nonpositive, and zero
    exactly when ``l == m``.
    """
    _check_order(m, 0, "alpha")
    la = _as_degrees(l, np.maximum(1, m), "alpha")
    out = -np.sqrt((la - m) * (la - m + 1) / ((2 * la - 1) * (2 * la + 1)))
    return _maybe_scalar(out)


def beta(l, m):
    """Coupling of the tangential basis onto the higher-degree csc(theta) harmonic.

    Defined for ``l >= 0``, ``m >= 0``; strictly positive once ``l + m >= 1``.
    """
    _check_order(m, 0, "beta")
    la = _as_degrees(l, 0, "beta")
    out = np.sqrt((la + m) * (la + m + 1) / ((2 * la + 1) * (2 * la + 3)))
    return _maybe_scalar(out)


def gamma(l, m):
    """Lower-degree coefficient of the colatitude derivative of a harmonic.

    Defined for ``l >= m >= 0`` with ``l >= 1``; always nonpositive.
    """
    _check_order(m, 0, "gamma")
    la = _as_degrees(l, np.maximum(1, m), "gamma")
    out = -(la + 1) * np.sqrt((la - m) * (la + m) / ((2 * la - 1) * (2 * la + 1)))
    return _maybe_scalar(out)


def delta(l, m):
    """Higher-degree coefficient of the colatitude derivative of a harmonic.

    Defined for ``l >= m >= 0``; zero only at ``l == 0``.
    """
    _check_order(m, 0, "delta")
    la = _as_degrees(l, m, "delta")
    out = la * np.sqrt((la - m + 1) * (la + m + 1) / ((2 * la + 1) * (2 * la + 3)))
    return _maybe_scalar(out)


def chol_d(l, m):
    """Diagonal entry of the closed-form Cholesky factor of the normal matrix."""
    _check_order(m, 1, "chol_d")
    la = _as_degrees(l, 1, "chol_d")
    out = (la + m - 1) * np.sqrt(
        (la + m + 1) * (la + 2 * m) * (la + 2 * m + 1)
        / ((la + m) * (2 * la + 2 * m - 1) * (2 * la + 2 * m + 1))
    )
    return _maybe_scalar(out)


def chol_e(l, m):
    """First superdiagonal magnitude of the closed-form Cholesky factor."""
    _check_order(m, 1, "chol_e")
    la = _as_degrees(l, 1, "chol_e")
    out = np.sqrt(la * (la + 2 * m + 1) / ((la + m) * (la + m + 1)))
    return _maybe_scalar(out)


def chol_f(l, m):
    """Second superdiagonal magnitude of the closed-form Cholesky factor."""
    _check_order(m, 1, "chol_f")
    la = _as_degrees(l, 1, "chol_f")
    out = (la + m + 2) * np.sqrt(
        la * (la + 1) * (la + m)
        / ((la + m + 1) * (2 * la + 2 * m + 1) * (2 * la + 2 * m + 3))
    )
    return _maybe_scalar(out)
