"""Per-order least squares by one batched Givens sweep, and the decomposition.

For an order ``m >= 1`` the block system ``[[A, B], [B, A]]`` splits
exactly: with ``P = (1/sqrt 2) [[I, I], [I, -I]]``,
``P [[A, B], [B, A]] P = diag(A + B, A - B)``.  Each half is a
``(p+1) x p`` tridiagonal least-squares problem (``p = n - m``) with
subdiagonal ``delta``, diagonal ``+-m`` and superdiagonal ``gamma``.  One
plane rotation per column reduces it to an upper-triangular ``R`` with two
superdiagonals, the paper's closed-form Cholesky factor (its first
superdiagonal flips sign for ``A - B``), and a three-term back-substitution
finishes the solve.  At ``m == 0`` the colatitude block splits by degree
parity into two lower-bidiagonal chains, which the same sweep solves with a
zero superdiagonal.

The sweep runs over many problems at once in (column, problem) arrays.
Problems are sorted by size, so the ones still active at column ``j`` are a
contiguous prefix; :func:`decompose` feeds it blocks of ``BLOCK_ORDERS``
orders with both halves of each order side by side.  :func:`differentiate`
runs per block of orders too: it gathers the potentials into one
(degree, order) grid, applies ``[[A, B], [B, A]]`` as a few whole-grid
expressions and converts to the tangential basis with one chain
substitution over degree.  Every order costs O(n) in both directions, the
whole of either O(n^2).

The normal equations are never formed: squaring the system would square its
condition number, and one least-squares pass in float64 already meets the
error target.
"""

import math

import numpy as np

from . import recurrences as rec
from .operators import _cscy_to_z_block, _cscy_to_z_zero, _z_to_cscy_block, build_A, z_to_cscy
from .spectra import HHDResult, ScalarSpectrum, TangentField

__all__ = [
    "solve_order",
    "differentiate",
    "decompose",
    "decompose_order_zero",
]

# Orders per block in decompose and differentiate.  Wider blocks need fewer
# numpy calls per column but hold O(n * BLOCK_ORDERS) working memory.  Measured at n = 1024
# on a 2-vCPU Xeon, decompose took 1.5 / 1.0 / 0.68 s for 16 / 32 / 64 and
# added 4.6 / 9 / 17.5 MiB of peak RSS; 32 is the widest that stays near the
# peak memory of a decomposition done one order at a time.
BLOCK_ORDERS = 32

_SQRT_HALF = math.sqrt(0.5)


def _lsq_sweep(sizes, sub, diag, sup, rhs):
    """Least squares for K tridiagonal problems of shape ``(p_k + 1) x p_k``.

    Column ``j`` of problem ``k`` holds ``sup[j, k]`` in row ``j - 1``,
    ``diag[j, k]`` in row ``j`` and the nonzero ``sub[j, k]`` in row
    ``j + 1``; ``rhs[i, k]`` is row ``i`` of its right-hand sides, an array
    of shape ``(sizes[0] + 1, K, r)`` that the sweep overwrites.  ``sizes``
    holds the ``p_k`` in nonincreasing order and the coefficient arrays have
    ``sizes[0]`` rows.  Entries past a problem's own size must be finite and
    do not affect it.

    Returns the solutions ``x`` of shape ``(sizes[0], K, r)``, zero past each
    problem's size; the signed residuals ``(K, r)``, i.e. what the rotations
    leave in row ``p_k`` of the right-hand side; and the triangular factor
    as its diagonals ``(R[j, j], R[j, j+1], R[j, j+2])``, whose entries
    outside each problem's ``p_k x p_k`` triangle are meaningless.
    """
    pmax, nprob = sub.shape
    # active[j]: how many problems have a column j (a prefix, by sorting)
    active = np.searchsorted(-np.asarray(sizes), -np.arange(pmax), side="left")
    d, e, f = np.zeros((3, pmax, nprob))
    # working row j after the rotations of columns < j: entries a (column j)
    # and b (column j + 1), right-hand side y; row j of rhs then takes Q'rhs
    a = np.array(diag[0])
    b = np.array(sup[min(1, pmax - 1)])
    y = rhs[0].copy()
    for j in range(pmax):
        k = active[j]
        aj, bj, yj = a[:k], b[:k], y[:k]
        low = sub[j, :k]
        r = np.hypot(aj, low)
        c = aj / r
        s = low / r
        # past the last column any finite value will do: the next row's
        # entries then only reach R outside the triangle
        diag_next, sup_next = diag[min(j + 1, pmax - 1), :k], sup[min(j + 2, pmax - 1), :k]
        d[j, :k] = r
        e[j, :k] = c * bj + s * diag_next
        f[j, :k] = s * sup_next
        a[:k] = c * diag_next - s * bj
        b[:k] = c * sup_next
        c, s = c[:, None], s[:, None]
        rhs_next = rhs[j + 1, :k]
        rhs[j, :k] = c * yj + s * rhs_next
        y[:k] = c * rhs_next - s * yj
    x = np.zeros((pmax + 2,) + rhs.shape[1:])
    for j in range(pmax - 1, -1, -1):
        k = active[j]
        x[j, :k] = (
            rhs[j, :k] - e[j, :k, None] * x[j + 1, :k] - f[j, :k, None] * x[j + 2, :k]
        ) / d[j, :k, None]
    return x[:pmax], y, (d, e, f)


def _order_problems(n, ms):
    """Sizes and tridiagonals of the ``A + B`` and ``A - B`` halves of orders ``ms``.

    ``ms`` ascends from 1; problem ``2i`` is ``A + B`` and ``2i + 1`` is
    ``A - B`` of order ``ms[i]``, so sizes come out nonincreasing.
    """
    sizes = np.repeat(n - ms, 2)
    degrees = ms + np.arange(sizes[0])[:, None]  # potential degree of each column
    sub = np.repeat(rec.delta(degrees, ms), 2, axis=1)
    sup = np.repeat(rec.gamma(degrees, ms), 2, axis=1)
    diag = np.broadcast_to(np.column_stack([ms, -ms]).ravel().astype(np.float64), sub.shape)
    return sizes, sub, diag, sup


def _solve_orders(n, ms, b1, b2):
    """Least squares for the block systems of orders ``ms`` (ascending, >= 1).

    ``b1``/``b2`` are the top and bottom halves of the right-hand sides,
    shape ``(n - ms[0] + 1, len(ms), r)``; rows past an order's own
    ``n - m + 1`` are ignored.  Returns the two halves of the solution,
    shape ``(n - ms[0], len(ms), r)`` and zero past each order's ``n - m``
    rows, and each order's residual norm over all ``r`` columns.
    """
    sizes, sub, diag, sup = _order_problems(n, ms)
    rhs = np.empty((b1.shape[0], 2 * len(ms), b1.shape[2]))
    np.add(b1, b2, out=rhs[:, 0::2])
    np.subtract(b1, b2, out=rhs[:, 1::2])
    x, res, _ = _lsq_sweep(sizes, sub, diag, sup, rhs)
    u, v = x[:, 0::2], x[:, 1::2]
    residual = _SQRT_HALF * np.hypot.reduce(res.reshape(len(ms), -1), axis=1)
    return 0.5 * (u + v), 0.5 * (u - v), residual


def solve_order(n, m, rhs):
    """Least-squares solve of order ``m``'s block system ``[[A, B], [B, A]]``.

    ``rhs`` stacks the two block rows (length ``2(n+1-m)``) and may carry
    one column or several.  Returns ``(x, residual)``: ``x`` stacks the two
    block columns in natural degree order, and ``residual`` is the 2-norm
    of the residual over all columns.
    """
    if not 1 <= m <= n - 1:
        raise ValueError(f"solve_order: need 1 <= m <= n-1, got m={m}, n={n}")
    rhs = np.asarray(rhs, dtype=np.float64)
    q = n + 1 - m
    if rhs.ndim not in (1, 2) or rhs.shape[0] != 2 * q:
        raise ValueError(f"solve_order: rhs must have {2 * q} rows, got shape {rhs.shape}")
    halves = rhs.reshape(2, q, 1, -1)
    x1, x2, residual = _solve_orders(n, np.array([m]), halves[0], halves[1])
    x = np.concatenate([x1[:, 0], x2[:, 0]])
    return (x[:, 0] if rhs.ndim == 1 else x), float(residual[0])


def decompose_order_zero(theta_slice, phi_slice, n):
    """Separable ``m == 0`` solve: gradient and curl decouple completely.

    ``theta_slice``/``phi_slice`` are the order-zero csc-harmonic
    coefficients (degrees ``0..n``); returns the order-zero spheroidal and
    toroidal coefficients (degrees ``1..n-1``) and the combined residual
    norm.
    """
    theta_slice = np.asarray(theta_slice, dtype=np.float64)
    phi_slice = np.asarray(phi_slice, dtype=np.float64)
    if theta_slice.shape != (n + 1,) or phi_slice.shape != (n + 1,):
        raise ValueError("decompose_order_zero: slices must have length n + 1")
    # A0 maps potential degree l to rows l - 1 (gamma) and l + 1 (delta), so
    # it splits into two lower-bidiagonal chains: odd degrees against even
    # rows (problem 0) and even degrees against odd rows (problem 1)
    pmax = n // 2
    degrees = np.arange(1, 2 * pmax + 1).reshape(pmax, 2)  # [j, chain] -> 2j + chain + 1
    w = np.zeros((2 * pmax + 2, 2))
    w[: n + 1] = np.column_stack([theta_slice, phi_slice])
    x, res, _ = _lsq_sweep(
        np.array([n // 2, (n - 1) // 2]),
        rec.delta(degrees, 0),
        rec.gamma(degrees, 0),
        np.zeros((pmax, 2)),
        w.reshape(pmax + 1, 2, 2),  # [j, chain] -> row degree 2j + chain
    )
    v = x.reshape(2 * pmax, 2)[: n - 1]
    return v[:, 0], v[:, 1], float(np.hypot.reduce(res.ravel()))


def _pairs(spec, ms, rows):
    """Where the slices of orders ``+m, -m`` for the consecutive ``ms`` lie in ``spec``.

    In the canonical layout they fill one contiguous span of the flat
    storage, order by order, ``+m`` before ``-m``.  Returns that span and a
    ``(len(ms), 2, rows)`` mask of the slice entries, so that the span maps
    onto a zero-padded ``(rows, len(ms), 2)`` grid whose row ``i`` is the
    ``i``-th degree of each slice.
    """
    starts, counts = spec.order_offsets(ms)
    inside = np.arange(rows) < counts[:, None, None]
    span = slice(starts[0], starts[-1] + 2 * counts[-1])
    return span, np.broadcast_to(inside, (len(ms), 2, rows))


def _gather(spec, ms, grid):
    """Copy the slices of orders ``+ms, -ms`` into the zero grid ``grid`` (see :func:`_pairs`)."""
    span, inside = _pairs(spec, ms, grid.shape[0])
    grid.transpose(1, 2, 0)[inside] = spec.flat()[span]


def _scatter(spec, ms, grid):
    """Write the grid ``grid`` (see :func:`_pairs`) into the slices of orders ``+ms, -ms``."""
    span, inside = _pairs(spec, ms, grid.shape[0])
    spec.flat()[span] = grid.transpose(1, 2, 0)[inside]


def differentiate(s, t):
    """Tangential field of the potentials: ``grad(s) + e_r x grad(t)``.

    Both potentials must share a degree ``n_pot = n - 1``; their ``(0, 0)``
    coefficients are ignored since constants have no gradient.  The result
    is expressed in the tangential basis at truncation degree ``n``, which
    is exactly the range :func:`decompose` inverts.  Orders ``m >= 1`` run
    in blocks of ``BLOCK_ORDERS`` orders.  Raises ``ValueError`` on a
    non-finite coefficient.
    """
    if s.n_pot != t.n_pot:
        raise ValueError("differentiate: potentials must share a degree")
    if s.n_pot < 1:
        raise ValueError("differentiate: need potential degree >= 1")
    s.require_finite("differentiate: s")
    t.require_finite("differentiate: t")
    n = s.n_pot + 1
    out = TangentField.zeros(n)
    a0 = build_A(n, 0)
    w0 = np.column_stack([a0.matvec(s.order_slice(0)[1:]), a0.matvec(t.order_slice(0)[1:])])
    z0 = _cscy_to_z_zero(w0, n)
    out.theta.set_order_slice(0, z0[:, 0])
    out.phi.set_order_slice(0, z0[:, 1])
    # columns of a block: (s_m, s_-m, t_m, t_-m) in, (theta_m, theta_-m,
    # phi_m, phi_-m) out; in each, [[A, B], [B, A]] couples column c with
    # column 3 - c through B = m
    cross = np.array([-1.0, 1.0, 1.0, -1.0])
    for start in range(1, n, BLOCK_ORDERS):
        ms = np.arange(start, min(start + BLOCK_ORDERS, n))
        rows = n - ms[0] + 2
        x = np.zeros((rows, len(ms), 4))
        _gather(s, ms, x[:, :, :2])
        _gather(t, ms, x[:, :, 2:])
        degrees = ms + np.arange(rows)[:, None]  # potential and csc degree of row i
        # row i of A x is gamma(l + 1) x[i + 1] + delta(l - 1) x[i - 1], l = degree of row i
        w = np.zeros_like(x)
        w[:-1] = rec.gamma(degrees[1:], ms)[..., None] * x[1:]
        w[1:] += rec.delta(degrees[:-1], ms)[..., None] * x[:-1]
        w += (ms[:, None] * cross) * x[:, :, ::-1]
        z = _cscy_to_z_block(w, ms, n)
        _scatter(out.theta, ms, z[:, :, :2])
        _scatter(out.phi, ms, z[:, :, 2:])
    return out


def _block_rhs(theta, phi, ms, n):
    """Block right-hand sides of orders ``ms`` and the norms of their dropped tails.

    The two halves (see :func:`_solve_orders`) carry two columns: the
    systems of ``(s_m, -t_-m)`` and of ``(s_-m, t_m)``.
    """
    rows = n - ms[0] + 2
    z = np.zeros((rows, len(ms), 4))  # theta_m, theta_-m, phi_m, phi_-m
    _gather(theta, ms, z[:, :, :2])
    _gather(phi, ms, z[:, :, 2:])
    w = _z_to_cscy_block(z, ms)
    tops = np.hypot.reduce(z[n - ms + 1, np.arange(len(ms))], axis=1)
    return w[:, :, :2], w[:, :, 3:1:-1] * [-1.0, 1.0], rec.beta(n, ms) * tops


def decompose(field):
    """Split a tangential field into spheroidal and toroidal potentials.

    Solves the per-order block systems by least squares; the ``(0, 0)``
    coefficients of both potentials are fixed to zero, which selects the
    minimum-norm representative.  Content the truncated model cannot
    represent (orders ``|m| >= n`` and the degree ``n+1`` tails) is reported
    in ``out_of_range_by_order`` rather than raised.  Raises ``ValueError``
    on a non-finite coefficient, naming its component and ``(l, m)``.
    """
    n = field.n
    if n < 2:
        raise ValueError("decompose: need truncation degree n >= 2")
    theta, phi = field.theta, field.phi
    theta.require_finite("decompose: theta")
    phi.require_finite("decompose: phi")
    result = HHDResult(ScalarSpectrum(n - 1), ScalarSpectrum(n - 1))

    zt0, zp0 = theta.order_slice(0), phi.order_slice(0)
    vs0, vt0, res0 = decompose_order_zero(z_to_cscy(zt0, 0, n), z_to_cscy(zp0, 0, n), n)
    result.spheroidal.order_slice(0)[1:] = vs0
    result.toroidal.order_slice(0)[1:] = vt0
    result.residual_by_order[0] = res0
    result.out_of_range_by_order[0] = rec.beta(n, 0) * math.hypot(zt0[-1], zp0[-1])

    for start in range(1, n, BLOCK_ORDERS):
        ms = np.arange(start, min(start + BLOCK_ORDERS, n))
        b1, b2, tails = _block_rhs(theta, phi, ms, n)
        x1, x2, residual = _solve_orders(n, ms, b1, b2)
        _scatter(result.spheroidal, ms, x1)
        _scatter(result.toroidal, ms, x2[:, :, ::-1] * [1.0, -1.0])
        result.residual_by_order.update(zip(ms.tolist(), residual.tolist()))
        result.out_of_range_by_order.update(zip(ms.tolist(), tails.tolist()))

    for mu in (n, n + 1):
        result.out_of_range_by_order[mu] = math.hypot(
            *(v for comp in (theta, phi) for m in (mu, -mu) for v in comp.order_slice(m))
        )
    return result
