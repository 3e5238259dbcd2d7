"""Dense per-order operators for the oracles: derivative blocks and the perfect shuffle.

For every order the two derivative blocks are

* ``A`` -- colatitude derivative, sub/superdiagonal entries from the degree
  recurrence, zero main diagonal (at ``m == 0`` the same entries land on the
  main and second subdiagonal because the potential degrees start at 1);
* ``B`` -- longitude derivative, a constant ``m`` diagonal over a zero row.

Stacking them as ``[[A, B], [B, A]]`` and interleaving rows and columns with
the perfect shuffle (odd indices collected before even indices) produces a
pentadiagonal system.  The solver uses closed forms (:mod:`.recurrences`)
in place of these matrices.  :func:`build_A` and :func:`build_B` return
them dense, for the oracles, scattered from the entries that
:func:`_block_entries` lists for any orders at once, which :mod:`.verify`
checks against the paper's structural claims.
"""

import numpy as np

from . import recurrences as rec
from .spectra import _require_integers, _require_order

__all__ = ["build_A", "build_B", "shuffle_permutation"]


def _runs(counts):
    """Position of each entry within its run, for runs of ``counts`` entries laid end to end."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _block_entries(n, orders):
    """``(order, row, column, value)`` arrays of the stored entries of ``A``, and of ``B``, at degree ``n``.

    One grid covers the ``orders`` (ascending, ``0 <= m <= n - 1``), entries grouped by order.  Rows
    count csc degrees from ``m``, columns potential degrees from ``max(m, 1)``.  For ``L = m + 1 .. n``,
    ``A`` holds ``gamma(L, m)`` at degrees ``(L - 1, L)`` and ``delta(L - 1, m)`` at ``(L, L - 1)``
    where each lies inside the block; ``B`` holds ``m`` at ``(l, l)`` for every column ``l``.
    """
    orders = np.asarray(orders)
    first = np.maximum(orders, 1)  # the least potential degree
    m = np.repeat(orders, n - orders)
    start = np.repeat(first, n - orders)
    L = m + 1 + _runs(n - orders)
    gamma, delta = rec._derivative(L.astype(np.float64), m)
    keep = np.stack([L < n, L > start], axis=1)  # [gamma, delta] of each L
    pairs = (m, m), (L - 1 - m, L - m), (L - start, L - 1 - start), (gamma, delta)
    j = _runs(n - first)
    m = np.repeat(orders, n - first)
    return tuple(np.stack(x, axis=1)[keep] for x in pairs), (m, j, j, m.astype(np.float64))


def _scatter(entries, shape):
    """Dense ``shape`` array that holds ``entries`` of one order (see :func:`_block_entries`)."""
    _, rows, cols, values = entries
    out = np.zeros(shape)
    out[rows, cols] = values
    return out


def build_A(n, m):
    """Colatitude-derivative block for order ``m`` at truncation degree ``n``, as a dense array.

    Rows are csc-harmonic degrees ``m..n`` (``0..n`` for ``m == 0``), columns
    are potential degrees ``m..n-1`` (``1..n-1`` for ``m == 0``).
    """
    _require_integers("build_A", n=n)
    _require_integers("build_A", least=0, m=m)
    if m >= 1:
        _require_order("build_A", n, m)
    elif n < 2:
        raise ValueError("build_A: need n >= 2 at m = 0")
    return _scatter(_block_entries(n, [m])[0], (n + 1 - m, n - max(m, 1)))


def build_B(n, m):
    """Longitude-derivative block, as a dense array: constant ``m`` diagonal over a zero row."""
    _require_order("build_B", n, m)
    return _scatter(_block_entries(n, [m])[1], (n + 1 - m, n - m))


def _dense_system(n, m):
    """Dense ``[[A, B], [B, A]]`` of order ``m >= 1``, for the oracles."""
    a, b = build_A(n, m), build_B(n, m)
    return np.block([[a, b], [b, a]])


def shuffle_permutation(size):
    """Perfect shuffle: odd (1-based) indices collected before even indices.

    Returned as a 0-based index array; used as a scatter map, i.e. old row
    ``k`` of the stacked block system lands at row ``perm[k]`` of the
    interleaved system.
    """
    _require_integers("shuffle_permutation", least=0, size=size)
    if size % 2 != 0:
        raise ValueError("shuffle_permutation: size must be even")
    return np.concatenate([np.arange(0, size, 2), np.arange(1, size, 2)])
