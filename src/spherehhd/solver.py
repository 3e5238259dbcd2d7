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
the first block's sweep as two more problems, next to orders 1, 2, ....

The sweep solves many problems at once in (degree, right-hand side,
problem) arrays; applying the rotations and back-substituting are linear
recurrences over degree, run by :func:`.operators._recurrence`.  The
problem builders return the bare closed forms; the sweep itself gives a
problem shorter than the array zero rotations and off-diagonals and unit
pivots past its size.  :func:`decompose` feeds the sweep blocks of
``BLOCK_ORDERS`` orders, and :func:`differentiate` runs per block too: a
few whole-grid expressions apply ``[[A, B], [B, A]]``, and the same kernel
converts the result to the tangential basis.  Order zero of
:func:`differentiate` is one scale, ``z_l = -sqrt(l (l + 1)) s_l``.  Each
order costs O(n) either way, the whole O(n^2).  The normal equations are
never formed.
"""

import math

import numpy as np

from . import recurrences as rec
from .operators import _cscy_to_z_block, _recurrence, _z_to_cscy_block
from .spectra import HHDResult, ScalarSpectrum, TangentField, _require_integers

__all__ = ["solve_order", "differentiate", "decompose", "decompose_order_zero"]

# Orders per block in decompose and differentiate.  Wider blocks need fewer
# numpy calls per degree but hold O(n * BLOCK_ORDERS) working memory.  At
# n = 1024 on a 2-vCPU Xeon (medians of 5 calls, 3 processes each), decompose
# took 0.199-0.206 / 0.182-0.187 / 0.198-0.205 s for 16 / 32 / 64 and raised
# peak RSS by 20.2 / 22.5 / 27.8 MiB (16 MiB of it the result): 64 is slower.
BLOCK_ORDERS = 32


def _require_finite(name, values):
    """Raise ``ValueError`` naming ``name`` and the first row of ``values`` with a non-finite entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad.reshape(len(values), -1).any(axis=1)))
        raise ValueError(f"{name}: non-finite value in row {row}")


def _lsq_sweep(sizes, rotations, factor, rhs):
    """Least squares for K tridiagonal problems of shape ``(p_k + 1) x p_k``.

    ``rhs`` of shape ``(P + 1, r, K)``, ``P = max(sizes)``, holds the
    right-hand sides.  The known plane rotation ``(c[j, k], s[j, k])`` of
    column ``j`` of problem ``k``, from ``rotations = (c, s)``, acts on rows
    ``j, j + 1``; ``factor = (d, e, f)`` holds the triangular factor ``R``
    that the rotations leave, as its diagonals ``R[j, j]``, ``R[j, j + 1]``
    and ``R[j, j + 2]`` (``(d, e)`` if bidiagonal), all with ``P + 1`` rows.
    Past a problem's size, entries must be finite and are ignored: the sweep
    zeroes the rotations and off-diagonals there and puts unit pivots in ``d``.

    Returns the solutions ``x`` of shape ``(P, r, K)``, zero past each
    problem's size, and the signed residuals ``(K, r)``, i.e. what the
    rotations leave in row ``p_k`` of the right-hand side.
    """
    rows, _, nprob = rhs.shape
    live = np.arange(rows)[:, None] < sizes
    c, s, *off = (live * x for x in (*rotations, *factor[1:]))
    d = np.where(live, factor[0], 1.0)
    # what the rotations leave in row j: t[j] = c[j - 1] rhs[j] - s[j - 1] t[j - 1]
    t = rhs.copy()
    t[1:] *= c[:-1, None]
    _recurrence(t, np.concatenate((np.zeros_like(s[:1]), -s[:-1])))
    residual = t[sizes, :, np.arange(nprob)]
    # row j of Q'rhs is q[j] = c[j] t[j] + s[j] rhs[j + 1]; the back-substitution
    # x[j] = (q[j] - e[j] x[j + 1] - f[j] x[j + 2]) / d[j] runs from the bottom
    t *= c[:, None]
    t[:-1] += s[:-1, None] * rhs[1:]
    _recurrence(t[::-1], *(-x[::-1] for x in off), d=d[::-1])
    return t[:-1], residual


def _order_problems(n, ms):
    """Sizes, rotations and triangular factors of the problems of the ascending orders ``ms``.

    Column ``j`` of order ``m``'s ``A + B`` problem is :func:`.recurrences._qr`
    at ``l = j + 1``: the paper's closed-form rotation and the row of the
    closed-form Cholesky factor it leaves.  A leading order 0 stands for
    problems 0 and 1, its parity chains (:func:`_order_zero_problems`).
    """
    k = int(ms[0] == 0)
    sizes, grids = n - ms[k:], rec._qr(np.arange(1.0, n + 2 - max(ms[0], 1))[:, None], ms[k:])
    if k:
        chains, rotations, (d, e) = _order_zero_problems(n)
        sizes = np.concatenate((chains, sizes))
        grids = [[np.concatenate(pair, axis=1) for pair in zip(*group)]
                 for group in zip((rotations, (d, e, np.zeros_like(d))), grids)]
    return (sizes, *grids)


def _solve_orders(n, ms, b1, b2):
    """Least squares for the block systems of the ascending orders ``ms``.

    ``b1``/``b2`` are the top and bottom halves of the right-hand sides,
    shape ``(n + 1 - max(ms[0], 1), r, len(ms))``; rows past an order's own
    ``n - m + 1`` are ignored.  The ``A + B`` problem takes ``b1 + b2`` for
    ``x1 + x2`` and ``D (b2 - b1)`` for ``D (x1 - x2)`` (see the module
    docstring).  At order zero the halves are its two parity chains instead,
    each a problem of its own in lanes that the mixing leaves out.  Returns
    the two halves of the solution, one row fewer and zero past each order's
    ``n - m`` rows, and each order's residual norm.
    """
    rows, r = b1.shape[:2]
    k = int(ms[0] == 0)  # order zero's chains are problems 0 and 1
    sign = (1.0 - 2.0 * (np.arange(rows) % 2))[:, None, None]  # D
    rhs = np.empty((rows, 2 * r, len(ms) + k))
    if k:  # the chains' (theta, phi) columns in two lanes, zero in the other two
        rhs[:, :r, :2], rhs[:, r:, :2] = np.concatenate((b1[..., :1], b2[..., :1]), axis=2), 0.0
    np.add(b1[..., k:], b2[..., k:], out=rhs[:, :r, 2 * k :])
    np.subtract(b2[..., k:], b1[..., k:], out=rhs[:, r:, 2 * k :])
    rhs[:, r:] *= sign
    x, res = _lsq_sweep(*_order_problems(n, ms), rhs)
    u, v = x[:, :r], sign[:-1] * x[:, r:]
    x1, x2 = 0.5 * (u + v), 0.5 * (u - v)
    residual = math.sqrt(0.5) * np.hypot.reduce(res, axis=1)
    if k:  # the chains' own solutions and residual, neither mixed nor scaled
        x1[..., 1], x2[..., 1] = x[:, :r, 0], x[:, :r, 1]
        residual[1] = np.hypot.reduce(res[:2, :r].ravel())
    return x1[..., k:], x2[..., k:], residual[k:]


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
    halves = rhs.reshape(2, q, -1, 1)
    x1, x2, residual = _solve_orders(n, np.array([m]), halves[0], halves[1])
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
    The grids have ``n`` rows, those of :func:`decompose`'s first block.
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
    x1, x2, residual = _solve_orders(n, np.zeros(1, dtype=int), b1, b2)
    vs, vt = _unchain(x1, x2, n)
    return vs, vt, float(residual[0])


def _parity_chains(w, n):
    """Order zero's csc columns ``w`` (degrees ``0..n``) as chains 0 and 1, ``(n, c, 1)`` each, row ``j``
    of chain ``k`` at degree ``2j + k``: the halves :func:`_solve_orders` takes."""
    grid = np.zeros((2 * n, w.shape[1]))
    grid[: n + 1] = w
    return grid.reshape(n, 2, -1, 1).transpose(1, 0, 2, 3)


def _unchain(x1, x2, n):
    """Order zero's potentials ``(s, t)``, degrees ``1..n-1``, from column 0 of its chains' solutions."""
    return np.stack((x1[..., 0], x2[..., 0]), axis=1).reshape(-1, x1.shape[1])[: n - 1].T


def _pairs(spec, ms, rows):
    """Where the slices of orders ``+m, -m`` for the consecutive ``ms`` lie in ``spec``.

    In the canonical layout they fill one contiguous span of the flat
    storage, order by order, ``+m`` before ``-m``.  Returns that span and a
    ``(len(ms), 2, rows)`` mask of the slice entries, so that the span maps
    onto a zero-padded ``(rows, 2, len(ms))`` grid whose row ``i`` is the
    ``i``-th degree of each slice.
    """
    starts, counts = spec.order_offsets(ms)
    inside = np.arange(rows) < counts[:, None, None]
    span = slice(starts[0], starts[-1] + 2 * counts[-1])
    return span, np.broadcast_to(inside, (len(ms), 2, rows))


def _gather(ms, specs, grids):
    """Copy the slices of orders ``+ms, -ms`` of each spectrum (one layout) into its zero grid."""
    span, inside = _pairs(specs[0], ms, grids[0].shape[0])
    for spec, grid in zip(specs, grids):
        by_order = np.zeros(inside.shape)  # a masked copy into a strided grid is slower
        by_order[inside] = spec.flat()[span]
        grid[...] = by_order.transpose(2, 1, 0)


def _scatter(ms, specs, grids):
    """Write each grid (see :func:`_pairs`) into the slices of orders ``+ms, -ms`` of its spectrum."""
    span, inside = _pairs(specs[0], ms, grids[0].shape[0])
    for spec, grid in zip(specs, grids):
        spec.flat()[span] = grid.transpose(2, 1, 0)[inside]


def differentiate(s, t):
    """Tangential field of the potentials: ``grad(s) + e_r x grad(t)``.

    Both potentials must share a degree ``n_pot = n - 1``; their ``(0, 0)``
    coefficients are ignored since constants have no gradient.  The result
    is expressed in the tangential basis at truncation degree ``n``, which
    is exactly the range :func:`decompose` inverts.  Orders ``m >= 1`` run
    in blocks of ``BLOCK_ORDERS`` orders.  Raises ``ValueError`` on a
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
    cross = np.array([-1.0, 1.0, 1.0, -1.0])
    for start in range(1, n, BLOCK_ORDERS):
        ms = np.arange(start, min(start + BLOCK_ORDERS, n))
        rows = n - ms[0] + 2
        x = np.zeros((rows, 4, len(ms)))
        _gather(ms, (s, t), (x[:, :2], x[:, 2:]))
        # row i of A x is gamma(l + 1) x[i + 1] + delta(l - 1) x[i - 1], l = m + i
        gamma, delta = rec._derivative(ms + np.arange(1.0, rows)[:, None], ms)
        w = np.zeros_like(x)
        w[:-1] = gamma[:, None] * x[1:]
        w[1:] += delta[:, None] * x[:-1]
        w += (cross[:, None] * ms) * x[:, ::-1]
        z = _cscy_to_z_block(w, ms)
        _scatter(ms, (out.theta, out.phi), (z[:, :2], z[:, 2:]))
    return out


def _block_rhs(theta, phi, ms, n):
    """Block right-hand sides of orders ``ms`` and the norms of their dropped tails.

    The two halves (see :func:`_solve_orders`) carry two columns: the
    systems of ``(s_m, -t_-m)`` and of ``(s_-m, t_m)``; at order zero, a
    leading 0 in ``ms``, the ``(theta, phi)`` columns of chains 0 and 1.
    """
    k = int(ms[0] == 0)
    orders = ms[k:]
    z = np.zeros((n - orders[0] + 2, 4, len(orders)))  # theta_m, theta_-m, phi_m, phi_-m
    _gather(orders, (theta, phi), (z[:, :2], z[:, 2:]))
    w = _z_to_cscy_block(z, orders)
    tops = np.hypot.reduce(z[n - orders + 1, :, np.arange(len(orders))], axis=1)
    b1, b2 = w[:, :2], w[:, 3:1:-1] * [[-1.0], [1.0]]
    if k:
        zero = np.full((n + 3, 2, 1), -0.0)  # degrees -1 .. n + 1, see _z_to_cscy_block
        zero[2:-1, :, 0] = np.column_stack((theta.order_slice(0), phi.order_slice(0)))
        chains = _parity_chains(-_z_to_cscy_block(zero, ms[:1])[:-1, :, 0], n)
        b1, b2 = (np.concatenate(pair, axis=2) for pair in zip(chains, (b1, b2)))
        tops = np.append(math.hypot(*zero[-2, :, 0]), tops)
    return b1, b2, rec._conversion(n + 2.0, ms)[1] * tops  # beta(n, m) times the top degree


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
    for start in range(1, n, BLOCK_ORDERS):
        # order zero's two parity chains ride in the first block's sweep
        ms = np.arange(start - (start == 1), min(start + BLOCK_ORDERS, n))
        b1, b2, tails = _block_rhs(theta, phi, ms, n)
        x1, x2, residual = _solve_orders(n, ms, b1, b2)
        k = int(start == 1)
        if k:
            result.spheroidal.order_slice(0)[1:], result.toroidal.order_slice(0)[1:] = _unchain(x1, x2, n)
        x1, x2 = x1[..., k:], x2[:, ::-1, k:] * [[1.0], [-1.0]]
        _scatter(ms[k:], (result.spheroidal, result.toroidal), (x1, x2))
        result.residual_by_order.update(zip(ms.tolist(), residual.tolist()))
        result.out_of_range_by_order.update(zip(ms.tolist(), tails.tolist()))

    for mu in (n, n + 1):
        result.out_of_range_by_order[mu] = math.hypot(
            *(v for comp in (theta, phi) for m in (mu, -mu) for v in comp.order_slice(m))
        )
    return result
