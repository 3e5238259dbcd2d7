"""Per-order least squares with the paper's closed-form QR, and the decomposition.

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
back-substitutes with the closed-form ``R`` itself, so the paper's proved
bounds describe the very factor it uses.  At ``m == 0`` the colatitude
block splits by degree parity into two lower-bidiagonal chains, with
closed-form rotations and bidiagonal factors of their own; they ride in
the first block's sweep as two more problems.

The sweep solves many problems at once in (degree, right-hand side, lane)
arrays; applying the rotations and back-substituting are linear
recurrences over degree, run by :func:`.operators._recurrence`.  The
problem builders return the bare closed forms, and the sweep gives them
zero rotations and off-diagonals and unit pivots off each problem's rows.
:func:`decompose` and :func:`differentiate` fold the order triangle into
blocks of ``BLOCK_ORDERS`` lanes: order ``m`` has ``n - m`` unknowns and
order ``n - m`` has ``m``, so a lane holds both (:func:`_lanes`), and about
``n / 64`` blocks cover all orders.  In :func:`differentiate` whole-grid
expressions apply ``[[A, B], [B, A]]``, the same kernel converts to the
tangential basis, and order zero is one scale, ``-sqrt(l (l + 1)) s_l``.
Each order costs O(n), the whole O(n^2); no normal equations are formed.
"""

import math

import numpy as np

from . import recurrences as rec
from .operators import _cscy_to_z_block, _lane_grid, _recurrence, _z_to_cscy_block
from .spectra import HHDResult, ScalarSpectrum, TangentField, _require_integers

__all__ = ["solve_order", "differentiate", "decompose", "decompose_order_zero"]

# Lanes per block in decompose and differentiate; 32 make n = 64 one block.
# At n = 1024 on a 2-vCPU Xeon, decompose took 0.260 / 0.221 / 0.239 s with
# 16 / 32 / 64 (medians of 5 calls, alternating in one process).
BLOCK_ORDERS = 32


def _require_finite(name, values):
    """Raise ``ValueError`` naming ``name`` and the first row of ``values`` with a non-finite entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad.reshape(len(values), -1).any(axis=1)))
        raise ValueError(f"{name}: non-finite value in row {row}")


def _lsq_sweep(segments, rotations, factor, rhs):
    """Least squares for tridiagonal problems of shape ``(p + 1) x p``, one or two to a lane.

    ``segments = (starts, sizes)`` gives each problem's first row and ``p``:
    problem ``k < L`` lies in lane ``k`` of ``rhs`` (``(rows, r, L)``) from
    row 0, problem ``L + k`` past its row ``p``.  The known plane rotation
    ``(c[j, k], s[j, k])`` acts on rows ``j, j + 1`` of lane ``k``, and
    ``factor = (d, e, f)`` holds the diagonals ``R[j, j]``, ``R[j, j + 1]``,
    ``R[j, j + 2]`` of the triangular factor left (``(d, e)`` if
    bidiagonal).  Off a problem's ``p`` rows entries must be finite and are
    ignored: the sweep zeroes the rotations and off-diagonals there, with
    unit pivots, and puts an identity rotation before a second problem.
    Returns ``x`` (``(rows - 1, r, L)``, zero off the problems' rows) and
    the signed residuals ``(len(sizes), r)`` left in each row ``p``.
    """
    rows, _, nlanes = rhs.shape
    (starts, sizes), second = segments, slice(nlanes, None)
    lanes, i = np.arange(len(sizes)) % nlanes, np.arange(rows)[:, None]
    live = i < sizes[:nlanes]
    if len(sizes) > nlanes:  # second problems
        live[:, lanes[second]] |= (i >= starts[second]) & (i < starts[second] + sizes[second])
    c, s, *off = (live * x for x in (*rotations, *factor[1:]))
    c[starts[second] - 1, lanes[second]] = 1.0
    d = np.where(live, factor[0], 1.0)
    # what the rotations leave in row j: t[j] = c[j - 1] rhs[j] - s[j - 1] t[j - 1]
    t = rhs.copy()
    t[1:] *= c[:-1, None]
    _recurrence(t, np.concatenate((np.zeros_like(s[:1]), -s[:-1])))
    residual = t[starts + sizes, :, lanes]
    # row j of Q'rhs is q[j] = c[j] t[j] + s[j] rhs[j + 1]; the back-substitution
    # x[j] = (q[j] - e[j] x[j + 1] - f[j] x[j + 2]) / d[j] runs from the bottom
    t *= c[:, None]
    t[:-1] += s[:-1, None] * rhs[1:]
    _recurrence(t[::-1], *(-x[::-1] for x in off), d=d[::-1])
    return t[:-1], residual


def _lanes(n, low, paired):
    """Lanes of a block: lane ``k`` holds order ``low[k]`` and, if ``k < paired``, order ``n - low[k]`` behind it.

    Order ``m`` takes ``n - m + 2`` lane rows (degrees ``m - 1 .. n``), its
    problem the first ``n - m + 1``; a partner starts at a multiple of 8
    past two gap rows.  A lane has ``rows + 1`` rows, ``rows = n + 12`` with
    partners, else ``n + 1 - low[0]``: with ``low[0] % 4 == 1`` each order
    meets :func:`.operators._recurrence`'s chunk boundaries where a block of
    consecutive orders does.  A leading 0 in ``low`` stands for order zero's
    chains, two lanes after the others.  Returns each problem's order and
    first row in :func:`_lsq_sweep`'s order (the chains after the firsts)
    and the ``(l, m, keep)`` grid of the other lanes (see
    :func:`.operators._z_to_cscy_block`), whose gap rows continue the first
    order's degrees, in the closed forms' domain; ``keep = l <= n + 2``.
    """
    zero = int(low[0] == 0)
    ms, rows = low[zero:], n + 12 if paired else n + 1 - max(low[0], 1)
    first = (n + 11 - ms) // 8 * 8  # first + m + 1 <= n + 12
    orders = np.concatenate((ms, np.zeros(2 * zero, dtype=int), n - ms[:paired]))
    starts = np.concatenate((np.zeros(len(orders) - paired, dtype=int), first[:paired]))
    first[paired:], i = rows + 1, np.arange(rows + 1.0)[:, None]
    second, l = i >= first, i + (ms + 1.0)
    np.add(i, n + 1.0 - ms - first, out=l, where=second)  # np.where is slower
    return orders, starts, (l, np.where(second, n - ms, ms), l <= n + 2)


def _order_problems(n, lanes):
    """Segments, rotations and triangular factors of the problems of ``lanes`` (see :func:`_lanes`).

    Row ``j`` of order ``m``'s ``A + B`` problem is :func:`.recurrences._qr` at ``l = j + 1``: the
    paper's closed-form rotation and the row of the Cholesky factor it leaves; order zero's chains are padded.
    """
    orders, starts, (l, m, _) = lanes
    rows, nlanes, sizes = len(l) - 1, l.shape[1], n - orders
    grids = rec._qr(l[:rows] - m[:rows], m[:rows])
    if not orders.all():
        sizes[nlanes : nlanes + 2], rotations, (d, e) = _order_zero_problems(n)
        grids = [[np.concatenate((x, np.concatenate((y, np.zeros((rows - n, 2))))), axis=1) for x, y in zip(*group)]
                 for group in zip(grids, (rotations, (d, e, np.zeros_like(d))))]
    return ((starts, sizes), *grids)


def _solve_orders(n, lanes, b1, b2):
    """Least squares for the block systems of the orders of ``lanes`` (see :func:`_lanes`).

    ``b1``/``b2`` (``(rows, r, K)``, ``K`` lanes of orders ``>= 1``) are the halves of the
    right-hand sides: ``A + B`` takes ``b1 + b2`` for ``x1 + x2`` and ``D (b2 - b1)`` for
    ``D (x1 - x2)``, as partners start at even rows.  A last slot may hold order zero's chains as
    the halves, each a problem in a lane of its own.  Returns the halves of the solution, zero off
    each order's ``n - m`` rows, and each problem's residual norm, the chains' combined.
    """
    rows, r, slots = b1.shape
    nlanes = lanes[2][0].shape[1]
    sign = (1.0 - 2.0 * (np.arange(rows) % 2))[:, None, None]  # D
    rhs = np.empty((rows, 2 * r, 2 * slots - nlanes))
    if slots > nlanes:  # the chains' (theta, phi) columns in two lanes, zero in the other two
        rhs[:, :r, nlanes:], rhs[:, r:, nlanes:] = np.concatenate((b1[..., nlanes:], b2[..., nlanes:]), axis=2), 0.0
    np.add(b1[..., :nlanes], b2[..., :nlanes], out=rhs[:, :r, :nlanes])
    np.subtract(b2[..., :nlanes], b1[..., :nlanes], out=rhs[:, r:, :nlanes])
    rhs[:, r:] *= sign
    x, res = _lsq_sweep(*_order_problems(n, lanes), rhs)
    u, v = x[:, :r], sign[:-1] * x[:, r:]
    x1, x2 = 0.5 * (u + v), 0.5 * (u - v)
    residual = math.sqrt(0.5) * np.hypot.reduce(res, axis=1)
    if slots > nlanes:  # the chains' own solutions and residual, neither mixed nor scaled
        x1[..., nlanes], x2[..., nlanes] = x[:, :r, nlanes], x[:, :r, nlanes + 1]
        residual[nlanes : nlanes + 2] = np.hypot.reduce(res[nlanes : nlanes + 2, :r].ravel())
    return x1[..., :slots], x2[..., :slots], residual


def solve_order(n, m, rhs):
    """Least-squares solve of order ``m``'s block system ``[[A, B], [B, A]]``.

    ``rhs`` stacks the two block rows (length ``2(n+1-m)``) and may carry
    one column or several.  Returns ``(x, residual)``: ``x`` stacks the two
    block columns in natural degree order, and ``residual`` is the 2-norm
    of the residual over all columns.  Raises ``ValueError`` naming the
    first ``rhs`` row that holds a non-finite value.
    """
    _require_integers("solve_order", n=n, m=m)
    if not 1 <= m <= n - 1:
        raise ValueError(f"solve_order: need 1 <= m <= n-1, got m={m}, n={n}")
    rhs = np.asarray(rhs, dtype=np.float64)
    q = n + 1 - m
    if rhs.ndim not in (1, 2) or rhs.shape[0] != 2 * q:
        raise ValueError(f"solve_order: rhs must have {2 * q} rows, got shape {rhs.shape}")
    _require_finite("solve_order: rhs", rhs)
    halves, ms = rhs.reshape(2, q, -1, 1), np.array([m])
    x1, x2, residual = _solve_orders(n, (ms, np.zeros(1, int), _lane_grid(ms, q + 1)), halves[0], halves[1])
    x = np.concatenate([x1[..., 0], x2[..., 0]])
    return (x[:, 0] if rhs.ndim == 1 else x), float(residual[0])


def _order_zero_problems(n):
    """Sizes, rotations and triangular factors of order zero's two parity chains.

    ``A0`` maps potential degree ``l`` to rows ``l - 1`` (``gamma``) and
    ``l + 1`` (``delta``), so it splits into two lower-bidiagonal chains:
    odd degrees against even rows (problem 0) and even degrees against odd
    rows (problem 1).  Column ``j`` of chain ``k`` has potential degree
    ``l = 2j + k + 1`` and the closed-form rotation
    ``s = sqrt(l (l + 1) / ((l + 2)(l + 3)))``,
    ``c = (-1)^(j + 1) sqrt(2 (2l + 3) / ((l + 2)(l + 3)))``.  The factor it
    leaves is upper bidiagonal, the Cholesky factor of the chain's normal
    matrix, returned as ``(d, e)``: ``R[j, j] = sqrt(l (l + 1)(l + 2)(l + 3) / ((2l + 1)(2l + 3)))``,
    ``R[j, j + 1] = -sqrt(l (l + 1)(l + 2)(l + 3) / ((2l + 3)(2l + 5)))``.
    The grids have ``n`` rows, those of :func:`decompose_order_zero`'s sweep.
    """
    sizes = np.array([n // 2, (n - 1) // 2])
    j = np.arange(n)[:, None]
    l = 2.0 * j + np.arange(2) + 1
    denom = (l + 2) * (l + 3)
    c = np.where(j % 2, 1.0, -1.0) * np.sqrt(2 * (2 * l + 3) / denom)
    rotations = c, np.sqrt(l * (l + 1) / denom)
    top = l * (l + 1) * denom
    d = np.sqrt(top / ((2 * l + 1) * (2 * l + 3)))
    e = -np.sqrt(top / ((2 * l + 3) * (2 * l + 5)))
    return sizes, rotations, (d, e)


def decompose_order_zero(theta_slice, phi_slice, n):
    """Separable ``m == 0`` solve: gradient and curl decouple completely.

    ``theta_slice``/``phi_slice`` are the order-zero csc-harmonic
    coefficients (degrees ``0..n``); returns the order-zero spheroidal and
    toroidal coefficients (degrees ``1..n-1``) and the combined residual
    norm.  Raises ``ValueError`` naming the slice and the row (degree) of a
    non-finite value.
    """
    _require_integers("decompose_order_zero", n=n)
    if n < 2:
        raise ValueError(f"decompose_order_zero: need truncation degree n >= 2, got {n}")
    theta_slice = np.asarray(theta_slice, dtype=np.float64)
    phi_slice = np.asarray(phi_slice, dtype=np.float64)
    if theta_slice.shape != (n + 1,) or phi_slice.shape != (n + 1,):
        raise ValueError("decompose_order_zero: slices must have length n + 1")
    _require_finite("decompose_order_zero: theta_slice", theta_slice)
    _require_finite("decompose_order_zero: phi_slice", phi_slice)
    b1, b2 = _parity_chains(np.column_stack([theta_slice, phi_slice]), n)
    x1, x2, residual = _solve_orders(n, _lanes(n, np.zeros(1, int), 0), b1, b2)
    vs, vt = _unchain(x1, x2, n)
    return vs, vt, float(residual[0])


def _parity_chains(w, rows):
    """Order zero's csc columns ``w`` (degrees ``0..n``, ``n < rows``) as chains 0 and 1, ``(rows, c, 1)``
    each, row ``j`` of chain ``k`` at degree ``2j + k``: the halves :func:`_solve_orders` takes."""
    grid = np.zeros((2 * rows, w.shape[1]))
    grid[: len(w)] = w
    return grid.reshape(rows, 2, -1, 1).transpose(1, 0, 2, 3)


def _unchain(x1, x2, n):
    """Order zero's potentials ``(s, t)``, degrees ``1..n-1``, from the last slot of its chains' solutions."""
    return np.stack((x1[..., -1], x2[..., -1]), axis=1).reshape(-1, x1.shape[1])[: n - 1].T


def _spans(spec, lanes, rows):
    """Where the orders of ``lanes`` lie in ``spec``: ``(span, pick, inside)`` for the firsts and the partners.

    The firsts, ascending, fill one span of the flat storage, ``+m`` before
    ``-m``, the partners, descending, another; ``pick`` selects the span's
    lanes of a ``(K, 2, rows)`` grid in flat order, ``inside`` its entries.
    """
    orders, starts, (l, _, _) = lanes
    nlanes, paired = l.shape[1], np.count_nonzero(starts)
    offsets, counts = spec.order_offsets(np.concatenate((orders[:nlanes], orders[len(orders) - paired :][::-1])))
    i, first, ends = np.arange(rows), starts[len(orders) - paired :][::-1, None, None], offsets + 2 * counts
    low, high = np.empty((nlanes, 2, rows), dtype=bool), np.empty((paired, 2, rows), dtype=bool)
    np.less(i, counts[:nlanes, None, None], out=low)  # a broadcast mask is slower
    np.less(i - first, counts[nlanes:, None, None], out=high)
    high &= i >= first
    spans = [(slice(offsets[0], ends[nlanes - 1]), slice(None), low)]
    if paired:
        spans.append((slice(offsets[nlanes], ends[-1]), slice(paired - 1, None, -1), high))
    return spans


def _gather(lanes, specs, grids):
    """Copy the orders of ``lanes`` (see :func:`_spans`) of each spectrum (one layout) into its zero grid."""
    spans = _spans(specs[0], lanes, grids[0].shape[0])
    for spec, grid in zip(specs, grids):
        by_lane = np.zeros(grid.shape[::-1])  # a masked copy into a strided grid is slower
        for span, pick, inside in spans:
            by_lane[pick][inside] = spec.flat()[span]
        grid[...] = by_lane.transpose(2, 1, 0)


def _scatter(lanes, specs, grids):
    """Write each grid into the orders of ``lanes`` (see :func:`_spans`) of its spectrum."""
    spans = _spans(specs[0], lanes, grids[0].shape[0])
    for spec, grid in zip(specs, grids):
        for span, pick, inside in spans:
            spec.flat()[span] = grid.transpose(2, 1, 0)[pick][inside]


def differentiate(s, t):
    """Tangential field of the potentials: ``grad(s) + e_r x grad(t)``.

    Both potentials must share a degree ``n_pot = n - 1``; their ``(0, 0)``
    coefficients are ignored since constants have no gradient.  The result
    is expressed in the tangential basis at truncation degree ``n``, which
    is exactly the range :func:`decompose` inverts, orders ``m >= 1`` in
    folded blocks (see :func:`_lanes`).  Raises ``ValueError`` on a
    non-finite coefficient or on potentials that are not basis-Y spectra.
    """
    if not (isinstance(s, ScalarSpectrum) and isinstance(t, ScalarSpectrum)):
        raise ValueError("differentiate: potentials must be basis-Y spectra (ScalarSpectrum)")
    if s.n_pot != t.n_pot:
        raise ValueError("differentiate: potentials must share a degree")
    if s.n_pot < 1:
        raise ValueError("differentiate: need potential degree >= 1")
    s.require_finite("differentiate: s")
    t.require_finite("differentiate: t")
    n = s.n_pot + 1
    out = TangentField.zeros(n)
    # order zero is one scale: its tangential basis is P~_l^1, and the
    # colatitude derivative of P~_l^0 is -sqrt(l (l + 1)) P~_l^1; z_n stays zero
    scale = -np.sqrt(np.arange(1.0, n) * np.arange(2.0, n + 1))
    for comp, pot in ((out.theta, s), (out.phi, t)):
        comp.order_slice(0)[:-1] = scale * pot.order_slice(0)[1:]
    # columns of a block: (s_m, s_-m, t_m, t_-m) in, (theta_m, theta_-m,
    # phi_m, phi_-m) out; in each, [[A, B], [B, A]] couples column c with
    # column 3 - c through B = m
    cross = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
    for start in range(1, n // 2 + 1, BLOCK_ORDERS):
        low = np.arange(start, min(start + BLOCK_ORDERS, n // 2 + 1))
        lanes = _lanes(n, low, np.count_nonzero(2 * low < n))
        l, m, keep = lanes[2]
        x = np.zeros((len(l), 4, len(low)))
        _gather(lanes, (s, t), (x[:, :2], x[:, 2:]))
        # row i of A x is gamma(l) x[i + 1] + delta(l - 2) x[i - 1], csc degree l - 1;
        # gap rows take nothing from the order above them
        gamma, delta = rec._derivative(l[:-1], m[:-1])
        gamma *= keep[:-1]
        w = np.zeros_like(x)
        w[:-1] = gamma[:, None] * x[1:]
        w[1:] += delta[:, None] * x[:-1]
        x *= m[:, None]
        w += cross * x[:, ::-1]
        z = _cscy_to_z_block(w, lanes[2])
        _scatter(lanes, (out.theta, out.phi), (z[:, :2], z[:, 2:]))
    return out


def _block_rhs(theta, phi, lanes, n):
    """The halves (see :func:`_solve_orders`) of the systems of ``(s_m, -t_-m)`` and ``(s_-m, t_m)`` of
    ``lanes``' orders, and in a last slot the ``(theta, phi)`` columns of order zero's chains, if present."""
    orders, _, grid = lanes
    rows, nlanes = grid[0].shape
    z = np.zeros((rows, 4, nlanes))  # theta_m, theta_-m, phi_m, phi_-m
    _gather(lanes, (theta, phi), (z[:, :2], z[:, 2:]))
    w = _z_to_cscy_block(z, grid)
    b1, b2 = w[:, :2], w[:, 3:1:-1] * [[-1.0], [1.0]]
    if not orders.all():
        zero = np.full((n + 3, 2, 1), -0.0)  # degrees -1 .. n + 1, see _z_to_cscy_block
        zero[2:-1, :, 0] = np.column_stack((theta.order_slice(0), phi.order_slice(0)))
        chains = _parity_chains(-_z_to_cscy_block(zero, _lane_grid(np.zeros(1, int), n + 2))[:-1, :, 0], rows - 1)
        b1, b2 = (np.concatenate(pair, axis=2) for pair in zip((b1, b2), chains))
    return b1, b2


def decompose(field):
    """Split a tangential field into spheroidal and toroidal potentials.

    Solves the per-order block systems by least squares; the ``(0, 0)``
    coefficients of both potentials are fixed to zero, which selects the
    minimum-norm representative.  Content the truncated model cannot
    represent (orders ``|m| >= n`` and the degree ``n+1`` tails) is reported
    in ``out_of_range_by_order`` rather than raised.  Raises ``ValueError``
    on a non-finite coefficient, naming its component and ``(l, m)``.
    """
    if not isinstance(field, TangentField):
        raise ValueError("decompose: the field must be a TangentField")
    n = field.n
    if n < 2:
        raise ValueError("decompose: need truncation degree n >= 2")
    theta, phi = field.theta, field.phi
    theta.require_finite("decompose: theta")
    phi.require_finite("decompose: phi")
    result = HHDResult(ScalarSpectrum(n - 1), ScalarSpectrum(n - 1))
    residual = np.empty(n)  # by order
    for start in range(1, n // 2 + 1, BLOCK_ORDERS):
        # order zero's two parity chains ride in the first block's sweep
        low = np.arange(start - (start == 1), min(start + BLOCK_ORDERS, n // 2 + 1))
        lanes = _lanes(n, low, np.count_nonzero((low > 0) & (2 * low < n)))
        b1, b2 = _block_rhs(theta, phi, lanes, n)
        x1, x2, res = _solve_orders(n, lanes, b1, b2)
        if start == 1:
            result.spheroidal.order_slice(0)[1:], result.toroidal.order_slice(0)[1:] = _unchain(x1, x2, n)
        k = lanes[2][0].shape[1]
        x1, x2 = x1[..., :k], x2[:, ::-1, :k] * [[1.0], [-1.0]]
        _scatter(lanes, (result.spheroidal, result.toroidal), (x1, x2))
        residual[lanes[0]] = res
    result.residual_by_order.update(zip(range(n), residual.tolist()))
    # out of range: beta(n, m) times the degree-n coefficients of orders below n, then orders n, n + 1
    offsets, counts = theta.order_offsets(np.arange(n))
    tops = np.hypot.reduce([comp.flat()[offsets + k * counts - 1] for comp in (theta, phi) for k in (1, 2)], axis=0)
    tops[0] = math.hypot(theta.flat()[n - 1], phi.flat()[n - 1])
    result.out_of_range_by_order.update(zip(range(n), (rec._conversion(n + 2.0, np.arange(n))[1] * tops).tolist()))
    for mu, tail in ((n, slice(-6, -2)), (n + 1, slice(-2, None))):  # +-n, +-(n + 1) end the storage
        result.out_of_range_by_order[mu] = math.hypot(*theta.flat()[tail], *phi.flat()[tail])
    return result
