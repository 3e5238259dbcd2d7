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
``n / 64`` blocks cover all orders.  A call lays its blocks out once: the
next block's grid and gather/scatter masks follow from the last one's by
an offset, and every block writes into one workspace the call allocates
and drops (:func:`.operators._empty`).  In :func:`differentiate`
whole-grid expressions apply ``[[A, B], [B, A]]``, the same kernel
converts to the tangential basis, and order zero is one scale,
``-sqrt(l (l + 1)) s_l``.  Each order costs O(n), the whole O(n^2); no
normal equations are formed.
"""

import math

import numpy as np

from . import recurrences as rec
from .operators import _cscy_to_z_block, _empty, _lane_grid, _recurrence, _z_to_cscy_block
from .spectra import HHDResult, ScalarSpectrum, TangentField, _real_array, _require_integers

__all__ = ["solve_order", "differentiate", "decompose"]

# Lanes per block in decompose and differentiate; 32 make n = 64 one block.
# With one workspace per call (measured on top of 9d0e309, 2-vCPU Xeon),
# 16 / 32 / 64 gave decompose 0.215 / 0.183 / 0.183 s and differentiate
# 0.090 / 0.090 / 0.092 s at n = 1024, and 22.7 / 17.4 / 16.1 ms and
# 10.2 / 8.3 / 8.6 ms at n = 256 (medians of 30 calls, alternating in one
# process).
BLOCK_ORDERS = 32


def _require_finite(name, values):
    """Raise ``ValueError`` naming ``name`` and the first row of ``values`` with a non-finite entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad.reshape(len(values), -1).any(axis=1)))
        raise ValueError(f"{name}: non-finite value in row {row}")


def _lsq_sweep(segments, rotations, factor, rhs, work=None):
    """Least squares for tridiagonal problems of shape ``(p + 1) x p``, one or two to a lane.

    ``segments = (live, seconds, ends)``: ``live`` (``(rows, L)``) marks
    the problems' ``p`` rows in the lanes of ``rhs`` (``(rows, r, L)``),
    ``seconds`` and ``ends`` the (row, lane) index arrays of the first row
    of each problem past another and of each problem's row ``p``.  The
    known plane rotation ``(c[j, k], s[j, k])`` acts on rows ``j, j + 1`` of
    lane ``k``, and ``factor = (d, e, f)`` holds the diagonals ``R[j, j]``,
    ``R[j, j + 1]``, ``R[j, j + 2]`` of the triangular factor left.  Off the
    live rows entries must be finite and are ignored: the sweep zeroes the
    rotations and off-diagonals there in place, with unit pivots, and puts
    an identity rotation before a second problem.  Returns ``x`` (``(rows -
    1, r, L)``, zero off the live rows) and the signed residuals left in the
    rows ``ends``.  ``x`` is a view of ``rhs``, solved in place; the
    temporaries are ``work``'s (see :func:`.operators._empty`).
    """
    (live, seconds, ends), (c, s), (d, e, f) = segments, rotations, factor
    for x in (c, s, e, f):
        x *= live
    c[seconds[0] - 1, seconds[1]] = 1.0
    np.putmask(d, ~live, 1.0)
    # s[j] rhs[j + 1] for row j of Q'rhs (below), before the rotations overwrite rhs:
    # they leave t[j] = c[j - 1] rhs[j] - s[j - 1] t[j - 1] in row j
    below = np.multiply(s[:-1, None], rhs[1:], out=_empty(work, "spare", rhs[1:].shape))
    t, a = rhs, _empty(work, "a", s.shape)
    t[1:] *= c[:-1, None]
    a[0] = 0.0
    np.negative(s[:-1], out=a[1:])
    _recurrence(t, a, work=work)
    residual = t[ends[0], :, ends[1]]
    # row j of Q'rhs is q[j] = c[j] t[j] + s[j] rhs[j + 1]; the back-substitution
    # x[j] = (q[j] - e[j] x[j + 1] - f[j] x[j + 2]) / d[j] runs from the bottom
    t *= c[:, None]
    t[:-1] += below
    e, f = np.negative(e, out=a), np.negative(f, out=_empty(work, "b", f.shape))
    _recurrence(t[::-1], e[::-1], f[::-1], d=d[::-1], work=work)
    return t[:-1], residual


def _lanes(n, low, paired):
    """Lanes of blocks: lane ``k`` holds order ``low[k] + o >= 1`` and, if ``k < paired``, order ``n - low[k] - o`` behind it.

    Order ``m`` takes ``n - m + 2`` lane rows (degrees ``m - 1 .. n``), its
    problem the first ``n - m + 1``; a partner starts at a multiple of 8
    past two gap rows.  A lane has ``rows + 1`` rows, ``rows = n + 12`` with
    partners, else ``n + 1 - low[0]``: with ``low[0] % 4 == 1`` each order
    meets :func:`.operators._recurrence`'s chunk boundaries where a block of
    consecutive orders does.  Returns ``block(o)`` (``o`` a multiple of 8 up
    to ``n / 2``): each problem's order in :func:`_lsq_sweep`'s order
    (firsts, then partners), its ``(seconds, ends)`` indices, the ``(l, m,
    keep)`` grid of the lanes (see :func:`.operators._z_to_cscy_block`),
    whose gap rows continue the first order's degrees, in the closed forms'
    domain, ``keep = l <= n + 2``, and :func:`_gather`'s spans by basis.
    The offset moves the firsts' ``l`` and ``m`` by ``o``, the partners'
    first row and ``m`` by ``-o``: a block's grid and indices are the
    layout's by one operation with a scalar each, a mask by two, and every
    block shares the same arrays.
    """
    nlanes, lanes = len(low), np.arange(len(low))
    rows = n + 12 if paired else n + 1 - low[0]
    first = (n + 11 - low) // 8 * 8  # first + low + 1 <= n + 12
    first[paired:] = rows + n + 1  # out of reach: no partner
    i = np.arange(rows + 1.0)[:, None]
    rel = i - first  # lane row past the partner's first
    firsts_l, partners_l, partners_m = i + (low + 1.0), rel + (n + 1.0 - low), n - low + 0.0  # at o = 0
    l, m, keep, live, second, part = (np.empty(rel.shape, dtype) for dtype in (float, float, bool, bool, bool, bool))
    # each problem's lane, its row n - m, and the orders whose pairs bound the spans, at o = 0
    problems, orders = np.concatenate((lanes, lanes[:paired])), np.empty(nlanes + paired, int)
    ends = np.concatenate((n - low, first[:paired] + low[:paired]))  # a partner's does not move
    bounds, pick = (int(low[0]), int(low[-1]) + 1, n - int(low[paired - 1]), n + 1 - int(low[0])), slice(paired - 1, None, -1)
    # the (K, 2, rows + 1) masks of the firsts and of the partners (lanes reversed): an order's
    # entries fill its rows of l <= n + 2 in basis Z and l <= n in Y; a basis's pair of orders mu
    # starts at n + (mu - 1) (c - mu) in the flat storage (see spectra's order_offsets)
    masks = [(basis, 2 * lead, within, np.empty((nlanes, 2, rows + 1), bool), np.empty((paired, 2, rows + 1), bool))
             for basis, lead, within in (("Z", n + 2, keep), ("Y", n, live))]

    def block(o):
        np.add(low, o, out=orders[:nlanes])
        np.subtract(n - o, low[:paired], out=orders[nlanes:])
        np.subtract(n - o, low, out=ends[:nlanes])
        np.greater_equal(rel, -o, out=second)
        np.add(firsts_l, o, out=l)
        np.copyto(l, partners_l, where=second)
        np.add(low, o, out=m, casting="unsafe")
        np.copyto(m, partners_m - o, where=second)
        np.less_equal(l, n + 2, out=keep)
        np.less_equal(l, n, out=live)
        spans = {}
        for basis, c, within, firsts, partners in masks:
            np.greater(within, second, out=part)  # within and not second
            firsts[...] = part.T[:, None]
            np.logical_and(within, second, out=part)
            partners[...] = part.T[:paired][::-1, None]
            at = [n + (mu - 1) * (c - mu) for mu in (bounds[0] + o, bounds[1] + o, bounds[2] - o, bounds[3] - o)]
            spans[basis] = [(slice(*at[:2]), slice(None), firsts), (slice(*at[2:]), pick, partners)][: 1 + (paired > 0)]
        return orders, ((first[:paired] - o, lanes[:paired]), (ends, problems)), (l, m, keep), spans

    return block


def _blocks(n):
    """The layouts (see :func:`_lanes`) of the blocks of ``BLOCK_ORDERS`` lanes that hold orders ``1 .. n - 1``."""
    shape = None
    for start in range(1, n // 2 + 1, BLOCK_ORDERS):
        stop = min(start + BLOCK_ORDERS, n // 2 + 1)
        paired = max(min(stop, (n + 1) // 2) - start, 0)  # the orders m with 2 m < n
        if (stop - start, paired) != shape:  # the last block may have fewer lanes, or order n / 2 alone
            shape, block, base = (stop - start, paired), _lanes(n, np.arange(start, stop), paired), start
        yield block(start - base)


def _order_problems(n, lanes):
    """Segments (see :func:`_lsq_sweep`), rotations and triangular factors of the problems of ``lanes`` (see :func:`_lanes`).

    Row ``j`` of order ``m``'s ``A + B`` problem, lane row ``l <= n``, is :func:`.recurrences._qr` at
    ``l - m = j + 1``: the paper's closed-form rotation and the row of the Cholesky factor it leaves.
    """
    _, (seconds, ends), (l, m, _) = lanes[:3]
    rows = len(l) - 1
    return ((l[:rows] <= n, seconds, ends), *rec._qr(l[:rows] - m[:rows], m[:rows]))


def _solve_orders(n, lanes, b1, b2, work=None):
    """Least squares for the block systems of the orders of ``lanes`` (see :func:`_lanes`).

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
    x, res = _lsq_sweep(*_order_problems(n, lanes), rhs, work)
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
    _require_integers("solve_order", n=n, m=m)
    if not 1 <= m <= n - 1:
        raise ValueError(f"solve_order: need 1 <= m <= n-1, got m={m}, n={n}")
    rhs = _real_array("solve_order", rhs)
    q = n + 1 - m
    if rhs.ndim not in (1, 2) or rhs.shape[0] != 2 * q:
        raise ValueError(f"solve_order: rhs must have {2 * q} rows, got shape {rhs.shape}")
    _require_finite("solve_order: rhs", rhs)
    ms, none = np.array([m]), np.zeros(0, int)  # one problem in one lane: no partner, its row p is q - 1
    x1, x2, residual = _solve_orders(n, (ms, ((none, none), ([q - 1], [0])), _lane_grid(ms, q + 1)), *rhs.reshape(2, q, -1, 1))
    x = np.concatenate([x1[..., 0], x2[..., 0]])
    return (x[:, 0] if rhs.ndim == 1 else x), float(residual[0])


def _gather(lanes, specs, grids, work):
    """Copy the orders of ``lanes`` of each spectrum (one basis) into its grid, zero elsewhere.

    The firsts fill one span of the flat storage, ``+m`` before ``-m``, the partners another: a span
    picks the lanes of a ``(K, 2, rows)`` grid in flat order, and its mask their entries (see :func:`_lanes`).
    """
    by_lane = _empty(work, "spare", grids[0].shape[::-1])  # a masked copy into a strided grid is slower
    for spec, grid in zip(specs, grids):
        by_lane.fill(0.0)
        for span, pick, inside in lanes[3][spec.basis]:
            by_lane[pick][inside[..., : len(grid)]] = spec.flat()[span]
        grid[...] = by_lane.transpose(2, 1, 0)


def _scatter(lanes, specs, grids):
    """Write each grid into the orders of ``lanes`` (see :func:`_gather`) of its spectrum."""
    for spec, grid in zip(specs, grids):
        for span, pick, inside in lanes[3][spec.basis]:
            spec.flat()[span] = grid.transpose(2, 1, 0)[pick][inside[..., : len(grid)]]


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
    for comp, pot in ((out.theta, s), (out.phi, t)):  # order zero leads both tables
        comp.flat()[: n - 1] = scale * pot.flat()[1:n]
    # columns of a block: (s_m, s_-m, t_m, t_-m) in, (theta_m, theta_-m,
    # phi_m, phi_-m) out; in each, [[A, B], [B, A]] couples column c with
    # column 3 - c through B = m
    cross, work = np.array([-1.0, 1.0, 1.0, -1.0])[:, None], {}
    for lanes in _blocks(n):
        l, m, keep = lanes[2]
        x = _empty(work, "steps", (len(l), 4, l.shape[1]))  # spent before the conversion's kernel takes it
        _gather(lanes, (s, t), (x[:, :2], x[:, 2:]), work)
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
        z = _cscy_to_z_block(w, lanes[2], work)
        _scatter(lanes, (out.theta, out.phi), (z[:, :2], z[:, 2:]))
    return out


def _block_rhs(theta, phi, lanes, work):
    """The halves (see :func:`_solve_orders`) of the systems of ``(s_m, -t_-m)`` and ``(s_-m, t_m)`` of ``lanes``' orders."""
    grid = lanes[2]
    rows, nlanes = grid[0].shape
    z = _empty(work, "rhs", (rows, 4, nlanes))  # theta_m, theta_-m, phi_m, phi_-m; spent before the rhs
    _gather(lanes, (theta, phi), (z[:, :2], z[:, 2:]), work)
    w = _z_to_cscy_block(z, grid, work)
    np.negative(w[:, 3], out=w[:, 3])
    return w[:, :2], w[:, 3:1:-1]


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
    z = np.array((theta.flat()[:n], phi.flat()[:n]))  # order zero leads both tables
    result.spheroidal.flat()[1:n], result.toroidal.flat()[1:n] = -(z[:, :-1] - z[:, -1:] * w) / np.sqrt(l * (l + 1))
    work = {}
    for lanes in _blocks(n):
        x1, x2, residual[lanes[0]] = _solve_orders(n, lanes, *_block_rhs(theta, phi, lanes, work), work)
        x2[:, 0] *= -1.0
        _scatter(lanes, (result.spheroidal, result.toroidal), (x1, x2[:, ::-1]))
    # out of range: beta(n, m) times the degree-n coefficients of orders below n, then orders n, n + 1,
    # the last six entries of a table: +n and -n (degrees n - 1, n), +(n + 1) and -(n + 1) (degree n)
    m = np.arange(n)
    minus = n - 1 + m * (2 * n + 3 - m)  # degree n of -m, before the pair of m + 1 (see _lanes)
    at = np.array((minus - (n + 2 - m), minus))  # and of +m, which holds n + 2 - m entries
    tops = np.hypot.reduce(np.concatenate((theta.flat()[at], phi.flat()[at])), axis=0)
    tops[0] = math.hypot(theta.flat()[n - 1], phi.flat()[n - 1])  # |z_n| of order zero
    residual[0] = math.sqrt(2 / (2 * n + 1)) * tops[0]
    result.residual_by_order.update(enumerate(residual.tolist()))
    a, b = theta.flat()[-6:].tolist(), phi.flat()[-6:].tolist()
    outside = (rec._conversion(n + 2.0, m)[1] * tops).tolist() + [math.hypot(*a[:4], *b[:4]), math.hypot(*a[4:], *b[4:])]
    result.out_of_range_by_order.update(enumerate(outside))
    return result
