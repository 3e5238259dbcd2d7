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
bounds describe the very factor it uses.  Order zero's least-squares
problem has a closed-form minimizer, which :func:`decompose` evaluates
directly from the field's order-zero slices, with no sweep.

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
from .spectra import HHDResult, ScalarSpectrum, TangentField, _real_array, _require_integers

__all__ = ["solve_order", "differentiate", "decompose"]

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
    ``R[j, j + 2]`` of the triangular factor left.  Off a problem's ``p``
    rows entries must be finite and are ignored: the sweep zeroes the
    rotations and off-diagonals there, with unit pivots, and puts an
    identity rotation before a second problem.  Returns ``x``
    (``(rows - 1, r, L)``, zero off the problems' rows) and the signed
    residuals ``(len(sizes), r)`` left in each row ``p``.
    """
    rows, _, nlanes = rhs.shape
    (starts, sizes), second = segments, slice(nlanes, None)
    lanes, i = np.arange(len(sizes)) % nlanes, np.arange(rows)[:, None]
    live = i < sizes[:nlanes]
    if len(sizes) > nlanes:  # second problems
        live[:, lanes[second]] |= (i >= starts[second]) & (i < starts[second] + sizes[second])
    c, s, e, f = (live * x for x in (*rotations, *factor[1:]))
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
    _recurrence(t[::-1], -e[::-1], -f[::-1], d=d[::-1])
    return t[:-1], residual


def _lanes(n, low, paired):
    """Lanes of a block: lane ``k`` holds order ``low[k] >= 1`` and, if ``k < paired``, order ``n - low[k]`` behind it.

    Order ``m`` takes ``n - m + 2`` lane rows (degrees ``m - 1 .. n``), its
    problem the first ``n - m + 1``; a partner starts at a multiple of 8
    past two gap rows.  A lane has ``rows + 1`` rows, ``rows = n + 12`` with
    partners, else ``n + 1 - low[0]``: with ``low[0] % 4 == 1`` each order
    meets :func:`.operators._recurrence`'s chunk boundaries where a block of
    consecutive orders does.  Returns each problem's order and first row in
    :func:`_lsq_sweep`'s order and the ``(l, m, keep)`` grid of the lanes
    (see :func:`.operators._z_to_cscy_block`), whose gap rows continue the
    first order's degrees, in the closed forms' domain; ``keep = l <= n + 2``.
    """
    rows = n + 12 if paired else n + 1 - low[0]
    first = (n + 11 - low) // 8 * 8  # first + m + 1 <= n + 12
    orders = np.concatenate((low, n - low[:paired]))
    starts = np.concatenate((np.zeros(len(low), dtype=int), first[:paired]))
    first[paired:], i = rows + 1, np.arange(rows + 1.0)[:, None]
    second, l = i >= first, i + (low + 1.0)
    np.add(i, n + 1.0 - low - first, out=l, where=second)  # np.where is slower
    return orders, starts, (l, np.where(second, n - low, low), l <= n + 2)


def _order_problems(n, lanes):
    """Segments, rotations and triangular factors of the problems of ``lanes`` (see :func:`_lanes`).

    Row ``j`` of order ``m``'s ``A + B`` problem is :func:`.recurrences._qr` at ``l = j + 1``: the
    paper's closed-form rotation and the row of the Cholesky factor it leaves.
    """
    orders, starts, (l, m, _) = lanes
    rows = len(l) - 1
    return ((starts, n - orders), *rec._qr(l[:rows] - m[:rows], m[:rows]))


def _solve_orders(n, lanes, b1, b2):
    """Least squares for the block systems of the orders of ``lanes`` (see :func:`_lanes`).

    ``b1``/``b2`` (``(rows, r, K)``, ``K`` lanes) are the halves of the
    right-hand sides: ``A + B`` takes ``b1 + b2`` for ``x1 + x2`` and
    ``D (b2 - b1)`` for ``D (x1 - x2)``, as partners start at even rows.
    Returns the halves of the solution, zero off each order's ``n - m``
    rows, and each problem's residual norm.
    """
    rows, r, nlanes = b1.shape
    sign = (1.0 - 2.0 * (np.arange(rows) % 2))[:, None, None]  # D
    rhs = np.empty((rows, 2 * r, nlanes))
    np.add(b1, b2, out=rhs[:, :r])
    np.subtract(b2, b1, out=rhs[:, r:])
    rhs[:, r:] *= sign
    x, res = _lsq_sweep(*_order_problems(n, lanes), rhs)
    u, v = x[:, :r], sign[:-1] * x[:, r:]
    return 0.5 * (u + v), 0.5 * (u - v), math.sqrt(0.5) * np.hypot.reduce(res, axis=1)


def solve_order(n, m, rhs):
    """Least-squares solve of order ``m``'s block system ``[[A, B], [B, A]]``.

    ``rhs`` stacks the two block rows (length ``2(n+1-m)``) and may carry
    one column or several.  Returns ``(x, residual)``: ``x`` stacks the two
    block columns in natural degree order, and ``residual`` is the 2-norm
    of the residual over all columns.  Raises ``ValueError`` on a complex
    ``rhs``, or naming the first ``rhs`` row that holds a non-finite value.
    """
    _require_integers("solve_order", n=n, m=m)
    if not 1 <= m <= n - 1:
        raise ValueError(f"solve_order: need 1 <= m <= n-1, got m={m}, n={n}")
    rhs = _real_array("solve_order", rhs)
    q = n + 1 - m
    if rhs.ndim not in (1, 2) or rhs.shape[0] != 2 * q:
        raise ValueError(f"solve_order: rhs must have {2 * q} rows, got shape {rhs.shape}")
    _require_finite("solve_order: rhs", rhs)
    halves, ms = rhs.reshape(2, q, -1, 1), np.array([m])
    x1, x2, residual = _solve_orders(n, (ms, np.zeros(1, int), _lane_grid(ms, q + 1)), halves[0], halves[1])
    x = np.concatenate([x1[..., 0], x2[..., 0]])
    return (x[:, 0] if rhs.ndim == 1 else x), float(residual[0])


def _spans(spec, lanes, rows):
    """Where the orders of ``lanes`` lie in ``spec``: ``(span, pick, inside)`` for the firsts and the partners.

    The firsts, ascending, fill one span of the flat storage, ``+m`` before
    ``-m``, the partners, descending, another; ``pick`` selects the span's
    lanes of a ``(K, 2, rows)`` grid in flat order, ``inside`` its entries.
    """
    orders, starts, (l, _, _) = lanes
    nlanes, paired = l.shape[1], len(orders) - l.shape[1]
    offsets, counts = spec.order_offsets(np.concatenate((orders[:nlanes], orders[nlanes:][::-1])))
    i, first, ends = np.arange(rows), starts[nlanes:][::-1, None, None], offsets + 2 * counts
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


def _block_rhs(theta, phi, lanes):
    """The halves (see :func:`_solve_orders`) of the systems of ``(s_m, -t_-m)`` and ``(s_-m, t_m)`` of ``lanes``' orders."""
    grid = lanes[2]
    rows, nlanes = grid[0].shape
    z = np.zeros((rows, 4, nlanes))  # theta_m, theta_-m, phi_m, phi_-m
    _gather(lanes, (theta, phi), (z[:, :2], z[:, 2:]))
    w = _z_to_cscy_block(z, grid)
    return w[:, :2], w[:, 3:1:-1] * [[-1.0], [1.0]]


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
    l = np.arange(1.0, n)
    w = np.where((n - l) % 2, 0.0, np.sqrt(l * (l + 1) * (2 * l + 1) / (n * (n + 1) * (2 * n + 1))))
    for comp, pot in ((theta, result.spheroidal), (phi, result.toroidal)):
        z = comp.order_slice(0)
        pot.order_slice(0)[1:] = -(z[:-1] - z[-1] * w) / np.sqrt(l * (l + 1))
    residual[0] = math.sqrt(2 / (2 * n + 1)) * math.hypot(theta.order_slice(0)[-1], phi.order_slice(0)[-1])
    for start in range(1, n // 2 + 1, BLOCK_ORDERS):
        low = np.arange(start, min(start + BLOCK_ORDERS, n // 2 + 1))
        lanes = _lanes(n, low, np.count_nonzero(2 * low < n))
        x1, x2, residual[lanes[0]] = _solve_orders(n, lanes, *_block_rhs(theta, phi, lanes))
        _scatter(lanes, (result.spheroidal, result.toroidal), (x1, x2[:, ::-1] * [[1.0], [-1.0]]))
    result.residual_by_order.update(zip(range(n), residual.tolist()))
    # out of range: beta(n, m) times the degree-n coefficients of orders below n, then orders n, n + 1
    offsets, counts = theta.order_offsets(np.arange(n))
    tops = np.hypot.reduce([comp.flat()[offsets + k * counts - 1] for comp in (theta, phi) for k in (1, 2)], axis=0)
    tops[0] = math.hypot(theta.flat()[n - 1], phi.flat()[n - 1])
    result.out_of_range_by_order.update(zip(range(n), (rec._conversion(n + 2.0, np.arange(n))[1] * tops).tolist()))
    for mu, tail in ((n, slice(-6, -2)), (n + 1, slice(-2, None))):  # +-n, +-(n + 1) end the storage
        result.out_of_range_by_order[mu] = math.hypot(*theta.flat()[tail], *phi.flat()[tail])
    return result
