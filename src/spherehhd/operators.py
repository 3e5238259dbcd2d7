"""Per-order operator assembly: banded blocks, perfect shuffle, basis conversions.

For every order the two derivative blocks are

* ``A`` -- colatitude derivative, sub/superdiagonal entries from the degree
  recurrence, zero main diagonal (at ``m == 0`` the same entries land on the
  main and second subdiagonal because the potential degrees start at 1);
* ``B`` -- longitude derivative, a constant ``m`` diagonal over a zero row.

Stacking them as ``[[A, B], [B, A]]`` and interleaving rows and columns with
the perfect shuffle (odd indices collected before even indices) produces a
pentadiagonal system; the permutations are realized as index maps and are
never materialized as matrices.

The basis conversions are a two-term stencil (:func:`z_to_cscy`) and its
inverse, two interleaved parity chains solved by substitution
(:func:`cscy_to_z`).  Both have block forms that act on a zero-padded
(degree, order) grid of many orders at once, which :mod:`.solver` uses to
run ``decompose`` and ``differentiate`` per block of orders; the
single-order functions are blocks of one order.
"""

from dataclasses import dataclass

import numpy as np

from . import recurrences as rec

__all__ = [
    "BandedMatrix",
    "OrderSystem",
    "build_A",
    "build_B",
    "shuffle_permutation",
    "build_order_system",
    "z_to_cscy",
    "cscy_to_z",
]


class BandedMatrix:
    """Rectangular banded matrix stored by diagonals.

    ``data[upper_bw + i - j, j]`` holds entry ``(i, j)``; entries with
    ``i - j > lower_bw`` or ``j - i > upper_bw`` are structurally zero.
    """

    def __init__(self, rows, cols, lower_bw, upper_bw, data=None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.lower_bw = int(lower_bw)
        self.upper_bw = int(upper_bw)
        shape = (self.lower_bw + self.upper_bw + 1, self.cols)
        if data is None:
            self.data = np.zeros(shape)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != shape:
                raise ValueError(f"band data must have shape {shape}")
            self.data = data

    @property
    def shape(self):
        return (self.rows, self.cols)

    def diagonal(self, offset):
        """View of the diagonal ``i - j == offset`` indexed by column ``j``."""
        if not -self.upper_bw <= offset <= self.lower_bw:
            raise ValueError(f"offset {offset} outside band")
        return self.data[self.upper_bw + offset]

    def set_diagonal(self, offset, values):
        self.diagonal(offset)[:] = values

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if i - j > self.lower_bw or j - i > self.upper_bw:
            return 0.0
        return float(self.data[self.upper_bw + i - j, j])

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ValueError(f"matvec: expected length {self.cols}, got {x.shape}")
        y = np.zeros(self.rows)
        for off in range(-self.upper_bw, self.lower_bw + 1):
            lo = max(0, -off)
            hi = min(self.cols, self.rows - off)
            if hi <= lo:
                continue
            y[lo + off : hi + off] += self.data[self.upper_bw + off, lo:hi] * x[lo:hi]
        return y

    def toarray(self):
        out = np.zeros((self.rows, self.cols))
        for off in range(-self.upper_bw, self.lower_bw + 1):
            lo = max(0, -off)
            hi = min(self.cols, self.rows - off)
            for j in range(lo, hi):
                out[j + off, j] = self.data[self.upper_bw + off, j]
        return out

    def bandwidths_used(self):
        """Actual (lower, upper) bandwidths of the stored nonzeros."""
        lower = upper = 0
        for off in range(-self.upper_bw, self.lower_bw + 1):
            lo = max(0, -off)
            hi = min(self.cols, self.rows - off)
            if hi > lo and np.any(self.data[self.upper_bw + off, lo:hi]):
                lower = max(lower, off)
                upper = max(upper, -off)
        return lower, upper


def build_A(n, m):
    """Colatitude-derivative block for order ``m`` at truncation degree ``n``.

    Rows are csc-harmonic degrees ``m..n`` (``0..n`` for ``m == 0``), columns
    are potential degrees ``m..n-1`` (``1..n-1`` for ``m == 0``).
    """
    if m < 0:
        raise ValueError("build_A: order must be >= 0")
    if m >= 1 and m > n - 1:
        raise ValueError(f"build_A: need 1 <= m <= n-1, got m={m}, n={n}")
    if m == 0:
        if n < 2:
            raise ValueError("build_A: need n >= 2 at m = 0")
        A = BandedMatrix(n + 1, n - 1, lower_bw=2, upper_bw=0)
        cols = np.arange(1, n)  # potential degrees
        A.set_diagonal(0, rec.gamma(cols, 0))
        A.set_diagonal(2, rec.delta(cols, 0))
        return A
    q, p = n + 1 - m, n - m
    A = BandedMatrix(q, p, lower_bw=1, upper_bw=1)
    if p > 1:
        A.diagonal(-1)[1:] = rec.gamma(np.arange(m + 1, n), m)
    A.set_diagonal(1, rec.delta(np.arange(m, n), m))
    return A


def build_B(n, m):
    """Longitude-derivative block: constant ``m`` diagonal over a zero row."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"build_B: need 1 <= m <= n-1, got m={m}, n={n}")
    q, p = n + 1 - m, n - m
    B = BandedMatrix(q, p, lower_bw=0, upper_bw=0)
    B.set_diagonal(0, float(m))
    return B


def shuffle_permutation(size):
    """Perfect shuffle: odd (1-based) indices collected before even indices.

    Returned as a 0-based index array; used as a scatter map, i.e. old row
    ``k`` of the stacked block system lands at row ``perm[k]`` of the
    interleaved system.
    """
    if size % 2 != 0:
        raise ValueError("shuffle_permutation: size must be even")
    return np.concatenate([np.arange(0, size, 2), np.arange(1, size, 2)])


@dataclass
class OrderSystem:
    """One order's block system together with its interleaved banded form."""

    n: int
    m: int
    A: BandedMatrix
    B: BandedMatrix
    shuffled: BandedMatrix
    perm_rows: np.ndarray
    perm_cols: np.ndarray


def build_order_system(n, m):
    """Assemble ``[[A, B], [B, A]]`` and its pentadiagonal interleaved form.

    The permutations are applied by index scatter, never by matrix
    multiplication; the builder refuses to place an entry outside the
    pentadiagonal band, so success certifies the bandwidths.
    """
    if not 1 <= m <= n - 1:
        raise ValueError(f"build_order_system: need 1 <= m <= n-1, got m={m}, n={n}")
    A = build_A(n, m)
    B = build_B(n, m)
    q, p = A.rows, A.cols
    perm_rows = shuffle_permutation(2 * q)
    perm_cols = shuffle_permutation(2 * p)
    shuffled = BandedMatrix(2 * q, 2 * p, lower_bw=2, upper_bw=2)

    def place(values, old_i, old_j):
        ni = perm_rows[old_i]
        nj = perm_cols[old_j]
        off = ni - nj
        if np.any(off > 2) or np.any(off < -2):
            raise AssertionError("interleaved entry outside the pentadiagonal band")
        shuffled.data[2 + off, nj] = values

    for off in (-1, 1):
        vals = A.diagonal(off)
        lo = max(0, -off)
        hi = min(p, q - off)
        j = np.arange(lo, hi)
        place(vals[lo:hi], j + off, j)  # top-left copy
        place(vals[lo:hi], q + j + off, p + j)  # bottom-right copy
    j = np.arange(p)
    bdiag = B.diagonal(0)
    place(bdiag, j, p + j)  # top-right copy
    place(bdiag, q + j, j)  # bottom-left copy
    return OrderSystem(n, m, A, B, shuffled, perm_rows, perm_cols)


def _conversion_sign(m):
    # the tangential basis at m == 0 uses the order-one Legendre functions,
    # which enter the csc-harmonic recurrence with the opposite sign
    return 1.0 if m != 0 else -1.0


def z_to_cscy(z, m, n):
    """Convert one order slice from the tangential basis to csc-harmonic form.

    ``z`` covers degrees ``||m|-1|..n``; the result covers degrees
    ``|m|..n``.  The degree ``n+1`` tail generated by the top coefficient is
    not representable and is dropped here; callers that need it account for
    ``beta(n, |m|) * z[-1]`` separately.
    """
    mu = abs(m)
    z = np.asarray(z, dtype=np.float64)
    if mu == 0:
        if z.shape != (n,):
            raise ValueError(f"z_to_cscy: expected length {n} at m=0, got {z.shape}")
        w = np.zeros(n + 1)
        w[:n] += rec.alpha(np.arange(1, n + 1), 0) * z
        w[2:] += rec.beta(np.arange(1, n), 0) * z[:-1]
        return _conversion_sign(0) * w
    L = n - mu + 2
    if z.shape != (L,):
        raise ValueError(f"z_to_cscy: expected length {L}, got {z.shape}")
    return _z_to_cscy_block(z[:, None, None], np.array([mu]))[:, 0, 0]


def _z_to_cscy_block(z, ms):
    """:func:`z_to_cscy` for several orders ``ms >= 1`` at once.

    Column ``k`` of ``z`` (shape ``(rows, K, c)``) holds ``c`` slices of
    order ``ms[k]`` (degrees ``ms[k]-1`` upward), zero-padded to the common
    row count.  Row ``i`` of the result is csc-harmonic degree ``ms[k] + i``;
    rows past an order's own ``n - ms[k] + 1`` carry its dropped tail and
    are not part of it.
    """
    rows = z.shape[0] - 1
    degrees = ms + np.arange(rows)[:, None]
    w = rec.beta(degrees - 1, ms)[..., None] * z[:-1]
    w[:-1] += rec.alpha(degrees[:-1] + 1, ms)[..., None] * z[2:]
    return w


def _substitute(g, r, sizes):
    """Solve ``z[i] = g[i] + r[i] * z[i + 2]`` from the last row to row 0, zero past the last row.

    Column ``k`` of ``g`` (shape ``(rows, K, c)``) and ``r`` (``(rows, K, 1)``)
    is one chain of ``sizes[k]`` rows; ``sizes`` is nonincreasing, so the
    chains that reach row ``i`` are a prefix of the columns.  ``g`` must be
    zero and ``r`` finite past each chain's size; ``z`` is then zero there.
    The two parities are independent, so each step solves two rows.
    """
    rows, nprob = g.shape[:2]
    # one row of every chain is a contiguous run, so a step is two ufunc calls
    gg = g.reshape(rows, -1)
    rr = np.broadcast_to(r, g.shape).reshape(rows, -1)
    chains = np.searchsorted(-np.asarray(sizes), -np.arange(rows), side="left")
    active = gg.shape[1] // nprob * chains  # entries of the chains reaching each row
    z = np.zeros((rows + 2, gg.shape[1]))
    for top in range(rows, 0, -2):
        lo = max(top - 2, 0)
        k = active[lo]
        zk = z[lo:top, :k]
        np.multiply(rr[lo:top, :k], z[lo + 2 : top + 2, :k], out=zk)
        zk += gg[lo:top, :k]
    return z[:rows].reshape(g.shape)


def _cscy_to_z_block(w, ms, n):
    """:func:`cscy_to_z` for several orders ``ms >= 1`` (ascending) at once.

    ``w`` has shape ``(n - ms[0] + 2, K, c)``: column ``k`` holds ``c``
    csc-harmonic slices of order ``ms[k]`` (row ``i`` is degree
    ``ms[k] + i``), zero past its own ``n - ms[k] + 1`` rows.  Returns ``z``
    of the same shape, row ``i`` at degree ``ms[k] - 1 + i`` and zero past
    the order's ``n - ms[k] + 2`` rows.
    """
    degrees = ms - 1 + np.arange(w.shape[0])[:, None]  # degree of z row i
    b = rec.beta(degrees, ms)[..., None]
    # z_l = (w_{l+1} - alpha(l + 2) z_{l+2}) / beta(l); the top z_n stays zero
    return _substitute(w / b, -rec.alpha(degrees + 2, ms)[..., None] / b, n - ms + 2)


def _cscy_to_z_zero(w, n):
    """Order-zero chains for ``c`` csc-harmonic slices ``w`` of shape ``(n + 1, c)``.

    Substitutes upward from degree 1, ``z_l = -(w_{l-1} + beta(l - 2) z_{l-2}) / alpha(l)``,
    which is :func:`_substitute` on the reversed rows; row ``n`` of ``w`` is
    the redundant equation.
    """
    ls = np.arange(n, 0, -1)  # reversed row i is degree n - i
    a = rec.alpha(ls, 0)
    r = -rec.beta(np.maximum(ls - 2, 0), 0) / a  # beta(0, 0) == 0 below degree 3
    z = _substitute((-w[ls - 1] / a[:, None])[:, None], r[:, None, None], [n])
    return z[::-1, 0]


def cscy_to_z(w, m, n):
    """Convert one csc-harmonic order slice back to the tangential basis.

    Solves the two interleaved parity chains of the conversion by
    substitution.  For ``|m| >= 1`` the substitution runs from the top degree
    downward and the single free top-degree coefficient of the deficient
    chain is set to zero; exact data generated by differentiating a
    degree ``<= n-1`` potential has no content there, so the conversion is
    exact on that range.  At ``m == 0`` both chains substitute upward from
    the bottom and one equation is redundant.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("cscy_to_z: expected a single order slice")
    mu = abs(m)
    if mu == 0:
        if w.shape != (n + 1,):
            raise ValueError(f"cscy_to_z: expected length {n + 1} at m=0, got {w.shape[0]}")
        return _cscy_to_z_zero(w[:, None], n)[:, 0]
    if w.shape != (n - mu + 1,):
        raise ValueError(f"cscy_to_z: expected length {n - mu + 1}, got {w.shape[0]}")
    return _cscy_to_z_block(np.append(w, 0.0)[:, None, None], np.array([mu]), n)[:, 0, 0]
