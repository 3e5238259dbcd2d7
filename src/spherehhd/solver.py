"""The fast path: per-order closed-form least squares, the basis conversions and the decomposition.

For an order ``m >= 1``, ``P [[A, B], [B, A]] P = diag(A + B, A - B)`` with
``P = (1/sqrt 2) [[I, I], [I, -I]]``, and ``A - B = -D (A + B) D`` with
``D = diag((-1)^i)``.  So each order is one ``(p+1) x p`` tridiagonal
least-squares problem ``A + B`` (``p = n - m``; subdiagonal ``delta``,
diagonal ``m``, superdiagonal ``gamma``) with four right-hand sides.  The
paper gives its QR factorization in closed form: one plane rotation per
column, and ``R = Q'(A + B)`` is the closed-form Cholesky factor of the
normal matrix, with two superdiagonals.  :func:`.recurrences._qr` gives
both for a whole block of orders in one pass.  The sweep takes them as
inputs: it applies the rotations to the right-hand sides and
back-substitutes with ``diag(R)^-1 R``.  Row scaling keeps the solution,
and substitution's backward error is componentwise (Higham, *Accuracy and
Stability*, Thm 8.5), so the quotients add one rounding per entry and the
bounds proved for ``R`` still hold.  Order zero's least-squares problem
has a closed-form minimizer, which :func:`decompose` evaluates directly
from the field's order-zero slices, with no sweep.

Every sequential sweep over degree -- the rotations, the back-substitution
and the conversion to the tangential basis (:func:`cscy_to_z`, two
interleaved parity chains; :func:`z_to_cscy` is a two-term stencil) -- is a
linear recurrence, run by one partitioned kernel, :func:`_recurrence`, on
(degree, right-hand side, lane) arrays, in chunks of ``BLOCK_CHUNK_STEPS``
steps on a block of several lanes and of ``CHUNK_STEPS`` on a grid of one
problem.  :func:`decompose` and :func:`differentiate` fold the order
triangle into blocks of ``BLOCK_ORDERS`` lanes: order ``m`` has ``n - m``
unknowns and order ``n - m`` has ``m``, so a lane holds both
(:func:`_lanes`), and about ``n / 64`` blocks cover all orders.  A block's
layout follows from its own orders, and a call draws every temporary, the
grid included, from one workspace (:func:`_empty`); a one-order call uses
a fresh one.  In :func:`differentiate` whole-grid expressions apply
``[[A, B], [B, A]]``, the kernel converts to the tangential basis, and
order zero is one scale, ``-sqrt(l (l + 1)) s_l``.  Each order costs O(n),
the whole O(n^2); no normal equations are formed.
"""

import math

import numpy as np

from . import recurrences as rec
from .spectra import (HHDResult, ScalarSpectrum, TangentField, _order_offsets, _real_array, _require_field,
                      _require_finite, _require_integers, _require_order, _require_potentials)

__all__ = ["solve_order", "differentiate", "decompose", "z_to_cscy", "cscy_to_z"]

# Lanes per block in decompose and differentiate; 32 make n = 64 one block.
# With one workspace per call (measured on top of 9d0e309, 2-vCPU Xeon),
# 16 / 32 / 64 gave decompose 0.215 / 0.183 / 0.183 s and differentiate
# 0.090 / 0.090 / 0.092 s at n = 1024, and 22.7 / 17.4 / 16.1 ms and
# 10.2 / 8.3 / 8.6 ms at n = 256 (medians of 30 calls, alternating in one
# process).
BLOCK_ORDERS = 32


# Steps per chunk of the recurrence kernel on a grid of one problem: every
# one-order call and a block of one lane.  A call takes about 2 CHUNK_STEPS
# + rows / CHUNK_STEPS Python steps, so a longer chunk makes a one-order solve
# grow more slowly than its size, and acceptance criterion 02 fits that
# growth to a slope in [0.8, 1.2].  On a 2-vCPU Xeon at n = 1024, L = 2 / 4 /
# 6 / 8 gave decompose 0.228 / 0.185 / 0.169 / 0.165 s (median of 5 calls),
# a peak-RSS rise over decompose of 24.1 / 22.5 / 22.7 / 21.9 MiB, and
# criterion 02's per-order slope 0.945 / 0.88 / 0.806 / 0.754: 6 is on the
# edge of the window and 8 outside it.
CHUNK_STEPS = 4

# Steps per chunk on a grid of several lanes, every other block of decompose
# and differentiate.  There the phase work is data-bound and the carry's one
# Python step per chunk is what a longer chunk saves.  On a 2-vCPU Xeon, as
# the median ratio to 4 of alternating calls in one process, 8 / 12 / 16 gave
# decompose 1.006 / 1.046 / 1.066 at n = 64, 0.941 / 0.924 / 0.916 at 256 and
# 0.901 / 0.902 / 0.875 at 1024, and differentiate 0.992 / 1.042 / 1.044,
# 0.977 / 0.986 / 0.991 and 0.969 / 0.978 / 0.968: 8 gains from n = 256 up
# and leaves n = 64, one block, as it was.
BLOCK_CHUNK_STEPS = 8


def _empty(work, key, shape):
    """Uninitialized ``shape`` array, a view of the buffer ``key`` of the dict ``work``, grown on demand.

    One ``work`` per call serves all its blocks, so each temporary is allocated once per call.
    A view is valid until ``key`` is asked for again, so a caller may hold data that is spent
    before a callee runs in one of the callee's keys.
    """
    size, buffer = math.prod(shape), work.get(key)
    if buffer is None or buffer.size < size:
        buffer = work[key] = np.empty(size)
    return buffer[:size].reshape(shape)


def _recurrence(g, a=None, b=None, *, work):
    """Solve ``y[i] = g[i] + a[i] y[i-1] + b[i] y[i-2]`` in place, ``y[-1] = y[-2] = 0``.

    ``g`` has shape ``(rows, r, K)``, any ``rows``: ``r`` right-hand sides
    of ``K`` problems, whose coefficients ``a`` and ``b`` have shape
    ``(rows, K)``, or are ``None`` for zero; one is given.  A recurrence
    that runs downward takes reversed views.  Without ``a`` the parities
    never meet, and each pair of rows is one step of a first-order
    recurrence.  The step-major copies live in ``work`` (:func:`_empty`).

    Partition method (Wang 1981; the SPIKE solver of Polizzi & Sameh 2006):
    every chunk of ``CHUNK_STEPS`` steps, ``BLOCK_CHUNK_STEPS`` when ``K >
    1``, runs at once from zero inflow, with the responses of its last
    values to a unit inflow carried as extra right-hand sides; one step per
    chunk then carries the true last values across the chunks, and the
    chunks run again from their true inflow with the arithmetic of a
    sequential loop.  Filler rows of zero ``g``, ``a`` and ``b`` lead a
    short first chunk and keep y zero.
    """
    rows, r, nprob = g.shape
    length = CHUNK_STEPS if nprob == 1 else BLOCK_CHUNK_STEPS  # steps per chunk
    pair, a, b = (1, a, b) if a is not None else (2, b, None)
    span = pair * length  # rows per chunk
    head = rows % span  # rows of a short first chunk, which filler rows lead
    q, nchunk = 1 if b is None else 2, -(-rows // span)

    def places(x, out):  # pairs of views: out[i, c, chunk, problem] and x's rows (rows, c, nprob) there
        chunks = out.reshape(length, -1, nchunk, pair, nprob).transpose(2, 0, 3, 1, 4)  # [chunk, i, half, c, problem]
        found = [(chunks[head > 0 :], x[head:].reshape(-1, length, pair, *x.shape[1:]))]
        for h in range(pair if head else 0):  # x's row j of the first chunk is its row span - head + j
            j = (h + head) % pair
            found.append((chunks[0, (span - head + j) // pair :, h], x[j:head:pair]))
        return found

    # the coefficients step-major, past filler rows of zero a and b in a short first chunk
    coefs = _empty(work, "coefs", (length, q, nchunk, pair * nprob))
    if head:
        coefs[:, :, 0] = 0.0
    copies = [p for k, x in enumerate((a, b)[:q]) for p in places(x[:, None], coefs[:, k : k + 1])]
    a, b = coefs[:, 0], (coefs[:, 1] if q == 2 else None)

    def sweep(y, y1, y2, t):  # y[i] = (y[i] + a[i] y1) + b[i] y2, step by step
        for i, out in enumerate(y):
            out += np.multiply(a[i], y1, out=t)
            if b is not None:
                out += np.multiply(b[i], y2, out=t)
            y1, y2 = out, y1

    # phase 1: every chunk from zero inflow; columns r + j of each step
    # hold the response to a unit y[-1 - j]
    steps = _empty(work, "steps", (length + 1, r + q, nchunk, pair * nprob))
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


def _lane_grid(ms, rows):
    """The grid (see :func:`_z_to_cscy_block`) of ``rows`` rows of lanes that hold one order ``ms[k]`` each."""
    return ms + np.arange(1.0, rows + 1)[:, None], ms[None], np.ones((1, 1), dtype=bool)


def _z_to_cscy_block(z, grid, work):
    """:func:`z_to_cscy` for ``c`` slices in each of ``K`` lanes of ``z``, shape ``(rows, c, K)``.

    Row by row, ``grid = (l, m, keep)`` gives the order ``m`` and degree
    ``l - 2`` a lane row holds (orders one behind the other, each from
    degree ``m - 1``, order zero padded) and zero coupling where ``keep`` is False, on
    the zero rows between orders.  Result row ``i`` is csc degree ``l - 1``,
    an order's dropped tail past its ``n - m + 1`` rows.  ``z`` is
    overwritten, and the result is ``work``'s ``"w"`` (see :func:`_empty`).
    """
    # row i, csc degree l - 1, is beta(l - 2) z[i] + alpha(l) z[i + 2]
    l, m, keep = (x[: z.shape[0] - 1] for x in grid)
    alpha, beta = rec._conversion(l, m)
    alpha *= keep
    w = np.multiply(beta[:, None], z[:-1], out=_empty(work, "w", (len(l),) + z.shape[1:]))
    z[2:] *= alpha[:-1, None]
    w[:-1] += z[2:]
    return w


def _cscy_to_z_block(w, grid, work):
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


def _slice_order(name, m, n, values, label, shift):
    """``|m|`` and ``values`` as a float64 array, once integer ``m`` is an order of Z at degree ``n`` and ``values``,
    named ``label``, are its finite slice in Z (``shift`` 1) or Y (0); anything else is refused under ``name``."""
    _require_integers(name, m=m, n=n)
    (_, z_count), (_, count) = (_order_offsets(int(n), s, int(m)) for s in (1, shift))  # ints: no int64 wrap
    if z_count < 1:
        raise ValueError(f"{name}: order {m} outside basis Z with n={n}")
    values = _real_array(name, values)
    if values.shape != (count,):
        raise ValueError(f"{name}: expected length {count} at m={m}, got {values.shape}")
    _require_finite(f"{name}: {label}", values)
    return abs(m), values


def z_to_cscy(z, m, n):
    """Convert one order slice from the tangential basis to csc-harmonic form.

    ``z`` covers degrees ``||m|-1|..n``; the result covers degrees
    ``|m|..n``.  The degree ``n+1`` tail generated by the top coefficient is
    not representable and is dropped here; callers that need it account for
    ``beta(n, |m|) * z[-1]`` separately.
    """
    mu, z = _slice_order("z_to_cscy", m, n, z, "z", 1)
    # order zero's basis enters negated; -0.0 pads at degrees -1, 0, n + 1 fix the signs of zero results
    z = np.concatenate(([-0.0, -0.0], z, [-0.0])) if mu == 0 else z.copy()
    w = _z_to_cscy_block(z[:, None, None], _lane_grid(np.array([mu]), len(z) - 1), {})[: n + 1 - mu, 0, 0]
    return w if mu else -w


def cscy_to_z(w, m, n):
    """Convert one csc-harmonic order slice back to the tangential basis.

    Solves the two interleaved parity chains of the conversion by
    substitution.  For ``|m| >= 1`` the substitution runs from the top degree
    downward and the single free top-degree coefficient of the deficient
    chain is set to zero; exact data generated by differentiating a
    degree ``<= n-1`` potential has no content there, so the conversion is
    exact on that range.  At ``m == 0`` both chains substitute upward from
    degree 1, ``z_l = -(w_{l-1} + beta(l - 2) z_{l-2}) / alpha(l)``, and the
    top equation is redundant.
    """
    mu, w = _slice_order("cscy_to_z", m, n, w, "w", 0)
    if mu == 0:  # alpha(l, 0) and beta(l - 2, 0) at degree l of row i; beta(-1, 0) == beta(0, 0) == 0
        a, b = rec._conversion(np.arange(1.0, n + 1)[:, None], 0)
        z = (-w[:n, None] / a)[:, :, None]
        _recurrence(z, b=-b / a, work={})
        return z[:, 0, 0]
    z = np.zeros((len(w) + 1, 1, 1))
    z[:-1, 0, 0] = w
    return _cscy_to_z_block(z, _lane_grid(np.array([mu]), len(z)), {})[:, 0, 0]


def _lsq_sweep(segments, rotations, factor, rhs, work):
    """Least squares for tridiagonal problems of shape ``(p + 1) x p``, one or two to a lane.

    ``segments = (live, ends)``: ``live`` (``(rows, L)``) marks each
    problem's ``p`` rows, one run, in the lanes of ``rhs`` (``(rows, r,
    L)``), and ``ends`` the (row, lane) index arrays of each problem's row
    ``p``.  The known plane rotation ``(c[j, k], s[j, k])`` acts on rows
    ``j, j + 1`` of lane ``k``, and ``factor = (d, e, f)`` holds the
    magnitudes of the triangular factor left, ``R[j, j : j + 3] = d[j],
    -e[j], -f[j]``.  Off the live rows entries must be finite and are
    ignored: the sweep zeroes the rotations and off-diagonals there in
    place, with unit pivots, and puts an identity rotation before each run
    past row 0.  Returns ``x`` (``(rows - 1, r, L)``, zero off the live
    rows) and the signed residuals left in the rows ``ends``.  ``x`` is a
    view of ``rhs``, solved in place; the temporaries are ``work``'s (see
    :func:`_empty`).
    """
    (live, ends), (c, s), (d, e, f) = segments, rotations, factor
    for x in (c, s, e, f):
        x *= live
    np.putmask(c[:-1], live[1:] > live[:-1], 1.0)
    np.putmask(d, ~live, 1.0)
    # (s[j] / d[j]) rhs[j + 1] for row j of diag(d)^-1 Q'rhs (below), before the rotations overwrite rhs:
    # they leave t[j] = c[j - 1] rhs[j] - s[j - 1] t[j - 1] in row j
    below = np.multiply((s[:-1] / d[:-1])[:, None], rhs[1:], out=_empty(work, "spare", rhs[1:].shape))
    t = rhs
    t[1:] *= c[:-1, None]
    _recurrence(t, np.concatenate((np.zeros_like(s[:1]), -s[:-1])), work=work)
    residual = t[ends[0], :, ends[1]]
    # row j of Q'rhs is q[j] = c[j] t[j] + s[j] rhs[j + 1]; the back-substitution with the unit-diagonal
    # diag(d)^-1 R, x[j] = q[j] / d[j] + (e[j] / d[j]) x[j + 1] + (f[j] / d[j]) x[j + 2], runs from the bottom
    t *= (c / d)[:, None]
    t[:-1] += below
    _recurrence(t[::-1], (e / d)[::-1], (f / d)[::-1], work=work)
    return t[:-1], residual


def _lanes(n, low, paired, work):
    """The layout of a block: lane ``k`` holds order ``low[k] >= 1`` and, if ``k < paired``, order ``n - low[k]`` behind it.

    Order ``m`` takes ``n - m + 2`` lane rows (degrees ``m - 1 .. n``), its
    problem the first ``n - m + 1``; a partner starts at a multiple of 8, an
    even row as :func:`_solve_orders` needs, past two gap rows.  A lane has
    ``rows + 1`` rows, ``rows = n + 12`` with partners, else ``n + 1 -
    low[0]``, the rows :func:`solve_order` gives order ``low[0]``: in
    :func:`_blocks` a block without partners is order ``n / 2`` alone, which
    it then solves to the bit as :func:`solve_order` does.  Where
    :func:`_recurrence`'s chunk boundaries fall in an order's rows moves
    only their rounding, since the gap rows couple nothing.  Returns each
    problem's order in :func:`_lsq_sweep`'s order (firsts, then partners),
    its ``ends`` indices, the ``(l, m, keep)`` grid of the lanes (see
    :func:`_z_to_cscy_block`), whose gap rows continue the first order's
    degrees, in the closed forms' domain, ``keep = l <= n + 2``, and
    :func:`_gather`'s spans by basis.  ``l`` and ``m`` are ``work``'s (see
    :func:`_empty`).
    """
    rows = n + 12 if paired else n + 1 - low[0]
    first = (n + 11 - low) // 8 * 8  # a partner's first row: first + low + 1 <= n + 12
    i = np.arange(rows + 1.0)[:, None]
    second = i >= first  # a partner's rows
    second[:, paired:] = False
    l, m = _empty(work, "l", second.shape), _empty(work, "m", second.shape)
    np.add(i, low + 1.0, out=l)
    np.add(l, n - 2.0 * low - first, out=l, where=second)  # a partner's l is n + 1 - low at its first row
    np.copyto(m, low)
    np.copyto(m, n - low, where=second)
    keep = l <= n + 2
    # the (K, 2, rows + 1) masks of the firsts and of the partners (lanes reversed): an order fills
    # its rows of l <= n + 2 in basis Z, at degree n, and of l <= n in Y, at the potentials' n - 1
    bounds = int(low[0]), int(low[-1]) + 1, n - int(low[paired - 1]), n + 1 - int(low[0])  # of the spans' orders
    spans, pick = {}, slice(paired - 1, None, -1)
    for basis, degree, shift, within in (("Z", n, 1, keep), ("Y", n - 1, 0, l <= n)):
        firsts, partners = (within > second).T, (within & second).T[:paired][::-1]  # within and not second, and both
        at = [_order_offsets(degree, shift, mu)[0] for mu in bounds]
        spans[basis] = [(slice(*at[:2]), slice(None), firsts[:, None].repeat(2, 1)),
                        (slice(*at[2:]), pick, partners[:, None].repeat(2, 1))][: 1 + (paired > 0)]
    # each problem's row n - m and lane (see _lsq_sweep), and its order
    ends = np.concatenate((n - low, first[:paired] + low[:paired])), np.concatenate((np.arange(len(low)), np.arange(paired)))
    return np.concatenate((low, n - low[:paired])), ends, (l, m, keep), spans


def _blocks(n, work):
    """The layouts (see :func:`_lanes`) of the blocks of ``BLOCK_ORDERS`` lanes that hold orders ``1 .. n - 1``."""
    for start in range(1, n // 2 + 1, BLOCK_ORDERS):
        stop = min(start + BLOCK_ORDERS, n // 2 + 1)  # the last block may have fewer lanes, or order n / 2 alone
        paired = max(min(stop, (n + 1) // 2) - start, 0)  # the orders m with 2 m < n
        yield _lanes(n, np.arange(start, stop), paired, work)


def _order_problems(n, ends, grid):
    """Segments (see :func:`_lsq_sweep`), rotations and triangular factors of a block's problems (see :func:`_lanes`).

    Row ``j`` of order ``m``'s ``A + B`` problem, lane row ``l <= n``, is :func:`.recurrences._qr` at
    ``l - m = j + 1``: the paper's closed-form rotation and the row of the Cholesky factor it leaves.
    """
    l, m = (x[: len(grid[0]) - 1] for x in grid[:2])
    return ((l <= n, ends), *rec._qr(l - m, m))


def _solve_orders(n, ends, grid, b1, b2, work):
    """Least squares for the block systems of a block's orders, by its ``ends`` and ``grid`` (see :func:`_lanes`).

    ``b1``/``b2`` (``(rows, r, K)``, ``K`` lanes) are the halves of the
    right-hand sides: ``A + B`` takes ``b1 + b2`` for ``x1 + x2`` and
    ``D (b2 - b1)`` for ``D (x1 - x2)``, as partners start at even rows.
    Returns the halves of the solution, zero off each order's ``n - m``
    rows, and each problem's residual norm.
    """
    rows, r, nlanes = b1.shape
    rhs = _empty(work, "rhs", (rows, 2 * r, nlanes))
    np.add(b1, b2, out=rhs[:, :r])
    np.subtract(b2, b1, out=rhs[:, r:])
    rhs[1::2, r:] *= -1.0  # D
    x, res = _lsq_sweep(*_order_problems(n, ends, grid), rhs, work)
    u, v = x[:, :r], x[:, r:]
    v[1::2] *= -1.0
    halves = _empty(work, "spare", (2,) + u.shape)  # the sweep is done with it
    np.add(u, v, out=halves[0])
    np.subtract(u, v, out=halves[1])
    halves *= 0.5
    return halves[0], halves[1], math.sqrt(0.5) * np.hypot.reduce(res, axis=1)


def solve_order(n, m, rhs):
    """Least-squares solve of order ``m``'s block system ``[[A, B], [B, A]]``.

    ``rhs`` stacks the two block rows (length ``2(n+1-m)``) and may carry
    one column or several.  Returns ``(x, residual)``: ``x`` stacks the two
    block columns in natural degree order, and ``residual`` is the 2-norm
    of the residual over all columns.  Raises ``ValueError`` on a complex
    ``rhs``, or naming the first ``rhs`` row that holds a non-finite value.
    """
    _require_order("solve_order", n, m)
    rhs = _real_array("solve_order", rhs)
    q = n + 1 - m
    if rhs.ndim not in (1, 2) or rhs.shape[0] != 2 * q:
        raise ValueError(f"solve_order: rhs must have {2 * q} rows, got shape {rhs.shape}")
    if rhs.size == 0:
        raise ValueError("solve_order: rhs must have at least one column")
    _require_finite("solve_order: rhs", rhs)
    # one problem in one lane, its row p is q - 1
    x1, x2, residual = _solve_orders(n, ([q - 1], [0]), _lane_grid(np.array([m]), q + 1), *rhs.reshape(2, q, -1, 1), {})
    x = np.concatenate([x1[..., 0], x2[..., 0]])
    return (x[:, 0] if rhs.ndim == 1 else x), float(residual[0])


def _gather(spans, specs, grids, work):
    """Copy a block's orders of each spectrum (one basis) into its grid, zero elsewhere, by its ``spans``.

    The firsts fill one span of the flat storage, ``+m`` before ``-m``, the partners another: a span
    picks the lanes of a ``(K, 2, rows)`` grid in flat order, and its mask their entries (see :func:`_lanes`).
    """
    by_lane = _empty(work, "spare", grids[0].shape[::-1])  # a masked copy into a strided grid is slower
    for spec, grid in zip(specs, grids):
        by_lane.fill(0.0)
        for span, pick, inside in spans[spec.basis]:
            by_lane[pick][inside[..., : len(grid)]] = spec.flat()[span]
        grid[...] = by_lane.transpose(2, 1, 0)


def _scatter(spans, specs, grids):
    """Write each grid into a block's orders of its spectrum, by the block's ``spans`` (see :func:`_gather`)."""
    for spec, grid in zip(specs, grids):
        for span, pick, inside in spans[spec.basis]:
            spec.flat()[span] = grid.transpose(2, 1, 0)[pick][inside[..., : len(grid)]]


def differentiate(s, t):
    """Tangential field of the potentials: ``grad(s) + e_r x grad(t)``.

    Both potentials must share a degree ``n - 1``; their ``(0, 0)``
    coefficients are ignored since constants have no gradient.  The result
    is expressed in the tangential basis at truncation degree ``n``, which
    is exactly the range :func:`decompose` inverts, orders ``m >= 1`` in
    folded blocks (see :func:`_lanes`).  Raises ``ValueError`` on a
    non-finite coefficient or on potentials that are not basis-Y spectra.
    """
    _require_potentials("differentiate", s, t)
    if s.n < 1:
        raise ValueError("differentiate: need potential degree >= 1")
    n = s.n + 1
    out = TangentField.zeros(n)
    # order zero is one scale: its tangential basis is P~_l^1, and the
    # colatitude derivative of P~_l^0 is -sqrt(l (l + 1)) P~_l^1; z_n stays zero
    scale = -np.sqrt(np.arange(1.0, n) * np.arange(2.0, n + 1))
    for comp, pot in ((out.theta, s), (out.phi, t)):  # order zero leads both tables
        comp.flat()[: n - 1] = scale * pot.flat()[1:n]
    # columns of a block: (s_m, s_-m, t_m, t_-m) in, (theta_m, theta_-m,
    # phi_m, phi_-m) out; in each, [[A, B], [B, A]] couples column c with
    # column 3 - c through B = m
    cross, work = np.array([-1.0, 1.0, 1.0, -1.0])[:, None], {}
    for _, _, (l, m, keep), spans in _blocks(n, work):
        x = _empty(work, "steps", (len(l), 4, l.shape[1]))  # spent before the conversion's kernel takes it
        _gather(spans, (s, t), (x[:, :2], x[:, 2:]), work)
        # row i of A x is gamma(l) x[i + 1] + delta(l - 2) x[i - 1], csc degree l - 1;
        # gap rows take nothing from the order above them
        gamma, delta = rec._derivative(l[:-1], m[:-1])
        gamma *= keep[:-1]
        w, product = _empty(work, "w", x.shape), _empty(work, "spare", x.shape)
        np.multiply(gamma[:, None], x[1:], out=w[:-1])
        w[-1] = 0.0
        w[1:] += np.multiply(delta[:, None], x[:-1], out=product[1:])
        x *= m[:, None]
        w += np.multiply(cross, x[:, ::-1], out=product)
        del gamma, delta  # before the conversion makes its grids
        z = _cscy_to_z_block(w, (l, m, keep), work)
        _scatter(spans, (out.theta, out.phi), (z[:, :2], z[:, 2:]))
    return out


def decompose(field):
    """Split a tangential field into spheroidal and toroidal potentials.

    Solves the per-order block systems by least squares; the ``(0, 0)``
    coefficients of both potentials are fixed to zero, which selects the
    minimum-norm representative.  Content the truncated model cannot
    represent (orders ``|m| >= n`` and the degree ``n+1`` tails) is reported
    in ``out_of_range_by_order`` rather than raised.  Raises ``ValueError``
    on a non-finite coefficient, naming its component and ``(l, m)``.

    Orders ``m >= 1`` are swept in folded blocks (see :func:`_lanes`);
    order zero is solved in closed form.  Its block is ``A0 = C0 S``, with
    ``C0`` the order-zero conversion and ``S = diag(-sqrt(l (l + 1)))`` (see
    :func:`differentiate`), so for a slice ``z`` (degrees ``1..n``)
    ``min ||A0 x - C0 z|| = min ||C0 u||`` over ``u`` with ``u_n = -z_n``,
    and ``S x = z + u`` below degree ``n``.  ``sin(theta) P~_l^1`` is
    proportional to ``(1 - x^2) P_l'``, and ``P_l' = C^{3/2}_{l-1}``, so the
    optimal ``q' = sum u_l P_l'`` is ``C^{5/2}_{n-1} = sum (2k + 3) / 3
    C^{3/2}_k`` over ``k = n - 1, n - 3, ...`` (DLMF 18.9): ``u_l`` is
    proportional to ``sqrt(l (l + 1)(2l + 1))`` for ``l = n, n - 2, ...`` and
    0 otherwise.  The residual lies along ``sqrt(2r + 1)`` on the csc degrees
    ``r = n - 1, n - 3, ...`` (squared norm ``n (n + 1) / 2``), orthogonal to
    ``C0``'s other columns, which meets column ``n`` in
    ``sqrt(2n - 1) alpha(n, 0)``: its norm is ``sqrt(2 / (2n + 1)) |z_n|``.
    """
    _require_field("decompose", field)
    n, theta, phi = field.n, field.theta, field.phi
    if n < 2:
        raise ValueError("decompose: need truncation degree n >= 2")
    result = HHDResult(ScalarSpectrum(n - 1), ScalarSpectrum(n - 1))
    residual, tops = np.empty(n), np.empty(n)  # by order; tops: the norm of its degree-n coefficients
    l = np.arange(1.0, n)
    w = np.where((n - l) % 2, 0.0, np.sqrt(l * (l + 1) * (2 * l + 1) / (n * (n + 1) * (2 * n + 1))))
    z = np.array((theta.flat()[:n], phi.flat()[:n]))  # order zero leads both tables
    result.spheroidal.flat()[1:n], result.toroidal.flat()[1:n] = -(z[:, :-1] - z[:, -1:] * w) / np.sqrt(l * (l + 1))
    work = {}
    for orders, ends, grid, spans in _blocks(n, work):
        z = _empty(work, "rhs", (len(grid[0]), 4, grid[0].shape[1]))  # theta_m, theta_-m, phi_m, phi_-m; spent before the rhs
        _gather(spans, (theta, phi), (z[:, :2], z[:, 2:]), work)
        tops[orders] = np.hypot.reduce(z[ends[0] + 1, :, ends[1]], axis=1)  # the row past a problem's end is degree n
        w = _z_to_cscy_block(z, grid, work)
        np.negative(w[:, 3], out=w[:, 3])
        # the halves (see _solve_orders) of the systems of (s_m, -t_-m) and (s_-m, t_m)
        x1, x2, residual[orders] = _solve_orders(n, ends, grid, w[:, :2], w[:, 3:1:-1], work)
        x2[:, 0] *= -1.0
        _scatter(spans, (result.spheroidal, result.toroidal), (x1, x2[:, ::-1]))
    # out of range: beta(n, m) times the degree-n coefficients of orders below n, then orders n, n + 1,
    # the end of a table: +n and -n (degrees n - 1, n), +(n + 1) and -(n + 1) (degree n)
    tops[0] = math.hypot(theta.flat()[n - 1], phi.flat()[n - 1])  # |z_n| of order zero
    residual[0] = math.sqrt(2 / (2 * n + 1)) * tops[0]
    result.residual_by_order.update(enumerate(residual.tolist()))
    a, b = (comp.flat()[_order_offsets(n, 1, n)[0] :].tolist() for comp in (theta, phi))
    outside = (rec._conversion(n + 2.0, np.arange(n))[1] * tops).tolist() + [math.hypot(*a[:4], *b[:4]), math.hypot(*a[4:], *b[4:])]
    result.out_of_range_by_order.update(enumerate(outside))
    return result
