"""Conditioning analysis of the per-order systems.

The normal matrix of one order's block system has the closed-form Cholesky
factor ``R`` with three nonzero diagonals (``d``, ``-e``, ``-f``), which
turns condition-number estimation into scalar inequalities:

* the 2-norm condition number of the block system equals that of ``R``;
* row/column-sum bounds on bidiagonal-like triangles bracket the extreme
  singular values for orders ``m >= 2``;
* for ``m == 1`` a block semi-separable representation of ``R^{-1}`` gives
  a Frobenius-norm bound that grows only logarithmically; the lemmas on its
  2x2 blocks are checked in ``tests/test_conditioning.py``.

Dense singular-value and eigenvalue oracles (LAPACK via numpy) live here
and in the test suite only; the fast solver never touches them.  They
take the plain arrays of :func:`build_R` and :func:`build_CD`; the
factor's diagonals are :func:`.recurrences.chol_d`, ``chol_e`` and
``chol_f``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import recurrences as rec
from .operators import _dense_system, build_A, build_B
from .spectra import _require_integers, _require_order

__all__ = ["ConditionReport", "build_R", "build_CD", "kappa_numeric", "kappa_bound",
           "qi_singular_bounds", "inverse_norm_frobenius_bound", "inverse_norm_conjecture"]

DENSE_ORACLE_LIMIT = 512


def build_R(n, m):
    """Dense Cholesky factor of size ``n`` for order ``m``: ``chol_d`` on the diagonal, ``-chol_e``
    and ``-chol_f`` on the first and second superdiagonals."""
    _require_integers("build_R", n=n, m=m)
    if n < 1 or m < 1:
        raise ValueError(f"build_R: need n >= 1 and m >= 1, got n={n}, m={m}")
    d, e, f = rec._chol(np.arange(1, n + 1), m)
    r, i = np.diag(d), np.arange(n)
    r[i[:-1], i[1:]] = -e[:-1]
    r[i[:-2], i[2:]] = -f[:-2]
    return r


def build_CD(n, m):
    """Dense normal-matrix blocks ``C = A'A + B'B`` and ``D = A'B + B'A``.

    ``C`` comes out pentadiagonal with exact zeros on the first sub- and
    superdiagonals, ``D`` tridiagonal with an exactly zero main diagonal;
    an ``AssertionError`` reports an entry outside either structure.
    """
    _require_order("build_CD", n, m)
    a, b = build_A(n, m), build_B(n, m)
    c = a.T @ a + b.T @ b
    d = a.T @ b + b.T @ a
    off = np.abs(np.subtract.outer(np.arange(n - m), np.arange(n - m)))
    if np.any(c[(off == 1) | (off > 2)]) or np.any(d[off != 1]):
        raise AssertionError("C or D has entries outside its structure")
    return c, d


def kappa_bound(n, m):
    """Proved upper bound on the 2-norm condition number of the order-``m`` factor.

    The ``m == 1`` branch grows like ``n log n``; for ``m >= 2`` the bound is
    the ratio of the singular-value brackets and is uniform in ``n/m``.
    """
    _require_order("kappa_bound", n, m)
    if m == 1:
        return (n + 2.5) * (4.0 * math.exp(1.0 + 7.0 * math.pi**2 / 8.0) * (2.0 + math.log(n)))
    return (n + m + 1.5) / (m - 1.5)


def qi_singular_bounds(n, m):
    """Row/column-sum brackets on the extreme singular values of the factor.

    Returns ``(sigma_max_upper, sigma_min_lower)``; the lower bound is only
    valid for ``m >= 2`` and is ``None`` at ``m == 1``.  Entries whose index
    drops below one contribute zero.
    """
    _require_integers("qi_singular_bounds", n=n, m=m)
    if n < 1 or m < 1:
        raise ValueError("qi_singular_bounds: need n >= 1 and m >= 1")
    d, e, f = rec._chol(np.arange(1, n + 1), m)
    e_prev = np.concatenate([[0.0], e[:-1]])  # e_{l-1}
    f_prev2 = np.concatenate([[0.0, 0.0], f[:-2]])  # f_{l-2}
    sigma_max = max(np.max(d + e + f), np.max(d + e_prev + f_prev2))
    if m == 1:
        return float(sigma_max), None
    sigma_min = min(np.min(d - e - f), np.min(d - e_prev - f_prev2))
    return float(sigma_max), float(sigma_min)


@dataclass
class ConditionReport:
    """Dense condition numbers of one order's system next to the proved bounds."""

    n: int
    m: int
    kappa_R: float
    kappa_M: float
    bound: float
    sigma_max_bound: float = None
    sigma_min_bound: float = None


def kappa_numeric(n, m):
    """Dense-oracle condition numbers for truncation ``n`` and order ``m``.

    The block system is assembled densely and its singular values compared
    with those of the closed-form factor (of matching dimension ``n - m``);
    the report also carries the theorem bound evaluated at ``(n, m)`` and
    the singular-value brackets.  Refuses truncations beyond the dense
    oracle scale.
    """
    _require_order("kappa_numeric", n, m)
    if n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"kappa_numeric: dense oracle limited to n <= {DENSE_ORACLE_LIMIT}")
    sv_r = np.linalg.svd(build_R(n - m, m), compute_uv=False)
    sv_m = np.linalg.svd(_dense_system(n, m), compute_uv=False)
    return ConditionReport(n, m, float(sv_r[0] / sv_r[-1]), float(sv_m[0] / sv_m[-1]), kappa_bound(n, m),
                           *qi_singular_bounds(n - m, m))


def inverse_norm_frobenius_bound(n):
    """Proved bound on ``||R^{-1}||_2`` for ``m == 1`` with ``n`` 2x2 blocks.

    Proved for the blocked dimension ``2n``; dense inverses of the
    constructed factors stay below it.
    """
    _require_integers("inverse_norm_frobenius_bound", n=n)
    if n < 1:
        raise ValueError("inverse_norm_frobenius_bound: need n >= 1")
    return 4.0 * math.exp(1.0 + 7.0 * math.pi**2 / 8.0) * (2.0 + math.log(2 * n - 1))


def inverse_norm_conjecture(n):
    """Conjectured sharp estimate of ``||R^{-1}||_2`` at ``m == 1`` (reported, not proved)."""
    _require_integers("inverse_norm_conjecture", n=n)
    if n <= 1:
        raise ValueError("inverse_norm_conjecture: need n > 1")
    return (2.0 / math.pi) * math.log(n + 2.5)
