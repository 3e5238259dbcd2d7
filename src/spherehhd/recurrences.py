"""Closed-form coefficients for the degree recurrences and the Cholesky factor.

All couplings between the scalar bases on the sphere uncouple by absolute
order.  The four couplings below give every nonzero entry of the
conversions and of the colatitude block ``A``; the diagonal of the
longitude block ``B`` is the order ``m`` itself.  The other three are the
entries of the closed-form Cholesky factor of an order ``m >= 1``'s
normal matrix, which the solver back-substitutes with and the
conditioning analysis bounds.  ``m`` is always the absolute order
(callers pass ``abs(m)``); ``l`` and ``m`` may be scalars or numpy arrays
that broadcast together, e.g. a (degree, order) grid.

Each formula is written once, with one division and one square root, in
a private evaluator for whole grids that checks its domain in O(1), at a
grid's first entries, its least in degree and order: :func:`_conversion`
(``alpha``, ``beta``), :func:`_derivative` (``gamma``, ``delta``) and
:func:`_qr`, the plane rotations of an order's ``A + B`` problem with the
factor they leave (order zero's are in :mod:`.solver`).  The solver calls
them; the public functions check every entry and wrap them.
"""

import numpy as np

__all__ = ["alpha", "beta", "gamma", "delta", "chol_d", "chol_e", "chol_f"]


def _checked(name, l, m, lmin, mmin):
    """Degrees ``l`` as float64, once every entry passes ``m >= mmin`` and ``l >= lmin``."""
    if np.any(m < mmin) if isinstance(m, np.ndarray) else m < mmin:
        raise ValueError(f"{name}: order m must be >= {mmin}")
    arr = np.asarray(l, dtype=np.float64)
    if np.any(arr < lmin):
        raise ValueError(f"{name}: degree l must be >= {lmin}, got {l}")
    return arr


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def _check_corner(name, l, m, lmin, mmin):
    """O(1) domain check of a grid at its first entries, which must be its least ``l`` and ``m``."""
    l, m = np.asarray(l), np.asarray(m)
    if l.size and m.size and (m.flat[0] < mmin or l.flat[0] < lmin(m.flat[0])):
        raise ValueError(f"{name}: grid starts at l = {l.flat[0]}, m = {m.flat[0]}, outside its domain")


def _conversion(l, m):
    """``(alpha(l, m), beta(l - 2, m))`` on a grid from ``l >= 1`` (``beta`` real at 1 for ``m <= 1``)."""
    _check_corner("_conversion", l, m, lambda m0: 1, 0)
    odd = 2 * l - 1
    return (-np.sqrt((l - m) * (l - m + 1) / (odd * (odd + 2))),
            np.sqrt((l + m - 2) * (l + m - 1) / ((odd - 2) * odd)))


def _derivative(l, m):
    """``(gamma(l, m), delta(l - 1, m))`` on a grid from ``l >= max(1, m)``: one square root."""
    _check_corner("_derivative", l, m, lambda m0: max(1, m0), 0)
    root = np.sqrt((l - m) * (l + m) / ((2 * l - 1) * (2 * l + 1)))
    return -(l + 1) * root, (l - 1) * root


def _qr(l, m):
    """Closed-form QR of order ``m``'s ``A + B`` at column ``l - 1`` on a grid from ``l, m >= 1``.

    Returns the paper's plane rotation ``(c, s)`` of the column and the row
    ``(d, -e, -f)`` of the triangular factor it leaves (see :func:`chol_d`).
    """
    _check_corner("_qr", l, m, lambda m0: 1, 1)
    lm = l + m
    lm1, l2m, llm = lm + 1, lm + m, l * lm
    l2m1, odd = l2m + 1, 2 * lm + 1
    rotation = lm1 * l2m1
    return (np.sqrt((m + 1) * odd / rotation), np.sqrt(llm / rotation)), (
        (lm - 1) * np.sqrt(lm1 * l2m * l2m1 / (lm * (odd - 2) * odd)),
        -np.sqrt(l * l2m1 / (lm * lm1)),
        (-2 - lm) * np.sqrt(llm * (l + 1) / (lm1 * odd * (odd + 2))),
    )


def alpha(l, m):
    """Coupling of the tangential basis onto the lower-degree csc(theta) harmonic.

    Defined for ``l >= m >= 0`` with ``l >= 1``; always nonpositive, and zero
    exactly when ``l == m``.
    """
    return _maybe_scalar(_conversion(_checked("alpha", l, m, np.maximum(1, m), 0), m)[0])


def beta(l, m):
    """Coupling of the tangential basis onto the higher-degree csc(theta) harmonic.

    Defined for ``l >= 0``, ``m >= 0``; strictly positive once ``l + m >= 1``.
    """
    return _maybe_scalar(_conversion(_checked("beta", l, m, 0, 0) + 2, m)[1])


def gamma(l, m):
    """Lower-degree coefficient of the colatitude derivative of a harmonic.

    Defined for ``l >= m >= 0`` with ``l >= 1``; always nonpositive.
    """
    return _maybe_scalar(_derivative(_checked("gamma", l, m, np.maximum(1, m), 0), m)[0])


def delta(l, m):
    """Higher-degree coefficient of the colatitude derivative of a harmonic.

    Defined for ``l >= m >= 0``; zero only at ``l == 0``.
    """
    return _maybe_scalar(_derivative(_checked("delta", l, m, m, 0) + 1, m)[1])


def _chol(l, m):
    """``(chol_d, chol_e, chol_f)`` from one :func:`_qr` pass, every entry checked."""
    d, e, f = _qr(_checked("chol_d/e/f", l, m, 1, 1), m)[1]
    return _maybe_scalar(d), _maybe_scalar(-e), _maybe_scalar(-f)


def chol_d(l, m):
    """Diagonal entry of the closed-form Cholesky factor of the normal matrix."""
    return _chol(l, m)[0]


def chol_e(l, m):
    """First superdiagonal magnitude of the closed-form Cholesky factor."""
    return _chol(l, m)[1]


def chol_f(l, m):
    """Second superdiagonal magnitude of the closed-form Cholesky factor."""
    return _chol(l, m)[2]
