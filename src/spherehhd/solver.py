"""Per-order least squares with the paper's closed-form QR, and the decomposition.

For an order ``m >= 1``, ``P [[A, B], [B, A]] P = diag(A + B, A - B)`` with
``P = (1/sqrt 2) [[I, I], [I, -I]]``, and ``A - B = -D (A + B) D`` with
``D = diag((-1)^i)``.  So each order is one ``(p+1) x p`` tridiagonal
least-squares problem ``A + B`` (``p = n - m``; subdiagonal ``delta``,
diagonal ``m``, superdiagonal ``gamma``) with four right-hand sides.  The
paper gives its QR factorization in closed form: one plane rotation per
column, and ``R = Q'(A + B)`` is its Cholesky factor, with two
superdiagonals.  The sweep builds ``R`` from those rotations and the matrix
entries as whole-grid expressions, applies the rotations to the right-hand
sides and back-substitutes.  At ``m == 0`` the colatitude block splits by
degree parity into two lower-bidiagonal chains, with closed-form rotations
of their own, on the same sweep.

The sweep solves many problems at once in (column, problem) arrays, sorted
by size so that those still active at column ``j`` are a prefix;
:func:`decompose` feeds it blocks of ``BLOCK_ORDERS`` orders.
:func:`differentiate` runs per block of orders too: it gathers the
potentials into one (degree, order) grid, applies ``[[A, B], [B, A]]`` as a
few whole-grid expressions and converts to the tangential basis with one
chain substitution over degree.  Each order costs O(n) either way, the whole
O(n^2).  The normal equations are never formed.
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
# numpy calls per column but hold O(n * BLOCK_ORDERS) working memory.  At
# n = 1024 on a 2-vCPU Xeon (medians of 5 calls, 5 processes each), decompose
# took 0.73-0.91 / 0.43-0.67 / 0.41-0.51 s for 16 / 32 / 64 and raised peak
# RSS by 14.4 / 18.7 / 27.0 MiB (16 MiB of it the result): 64 gains little.
BLOCK_ORDERS = 32


def _lsq_sweep(sizes, rotations, columns, rhs):
    """Least squares for K tridiagonal problems of shape ``(p_k + 1) x p_k``.

    Column ``j`` of problem ``k`` holds ``sup[j, k]`` in row ``j - 1``,
    ``diag[j, k]`` in row ``j`` and ``sub[j, k]`` in row ``j + 1``, with
    ``columns = (sub, diag, sup)`` of ``sizes[0] + 2`` rows.  Its known plane
    rotation ``(c[j, k], s[j, k])`` from ``rotations = (c, s)`` acts on rows
    ``j, j + 1`` and zeroes ``sub[j, k]``.  ``rhs``, shape
    ``(sizes[0] + 1, K, r)``, holds the right-hand sides and is overwritten.
    ``sizes`` (the ``p_k``) must not increase; entries past a problem's own
    size must be finite and do not affect it.

    Returns the solutions ``x`` of shape ``(sizes[0], K, r)``, zero past each
    problem's size; the signed residuals ``(K, r)``, i.e. what the rotations
    leave in row ``p_k`` of the right-hand side; and the triangular factor
    ``R = Q'M`` as its diagonals ``(R[j, j], R[j, j+1], R[j, j+2])``, whose
    entries outside each problem's ``p_k x p_k`` triangle are meaningless.
    """
    c, s = rotations
    sub, diag, sup = columns
    pmax, nprob = c.shape
    # active[j]: how many problems have a column j (a prefix, by sorting)
    active = np.searchsorted(-np.asarray(sizes), -np.arange(pmax), side="left")
    # row j of M after the rotations of columns < j holds a (column j) and
    # b (column j + 1); rotation j turns rows j, j + 1 into row j of R
    b = np.array(sup[1 : pmax + 1])
    b[1:] *= c[:-1]
    a = np.array(diag[:pmax])
    a[1:] = c[:-1] * a[1:] - s[:-1] * b[:-1]
    d = c * a + s * sub[:pmax]
    e = c * b + s * diag[1 : pmax + 1]
    f = s * sup[2:]
    rot = np.stack([c, s, -s, c], axis=-1).reshape(pmax, nprob, 2, 2)
    by_problem = rhs.transpose(1, 0, 2)  # [k, i] -> row i of problem k
    for j, k in enumerate(active.tolist()):
        pair = by_problem[:k, j : j + 2]
        pair[...] = rot[j, :k] @ pair
    x = np.zeros((pmax + 2,) + rhs.shape[1:])
    for j in range(pmax - 1, -1, -1):
        k = active[j]
        x[j, :k] = (
            rhs[j, :k] - e[j, :k, None] * x[j + 1, :k] - f[j, :k, None] * x[j + 2, :k]
        ) / d[j, :k, None]
    return x[:pmax], rhs[sizes, np.arange(nprob)], (d, e, f)


def _order_problems(n, ms):
    """Sizes, rotations and tridiagonals of the ``A + B`` problems of orders ``ms``.

    ``ms`` ascends from 1, so sizes come out nonincreasing.  The rotation of
    column ``j`` is the paper's closed form, with ``l = j + 1``:
    ``s = sqrt(l (l + m) / ((l + m + 1)(l + 2m + 1)))`` and
    ``c = sqrt((m + 1)(2l + 2m + 1) / ((l + m + 1)(l + 2m + 1)))``.
    """
    sizes = n - ms
    j = np.arange(sizes[0] + 2)[:, None]
    degrees = ms + j  # potential degree of each column
    l = j[:-2] + 1
    denom = (l + ms + 1) * (l + 2 * ms + 1)
    rotations = np.sqrt((ms + 1) * (2 * l + 2 * ms + 1) / denom), np.sqrt(l * (l + ms) / denom)
    sub = rec.delta(degrees, ms)
    diag = np.broadcast_to(ms.astype(np.float64), sub.shape)
    return sizes, rotations, (sub, diag, rec.gamma(degrees, ms))


def _solve_orders(n, ms, b1, b2):
    """Least squares for the block systems of orders ``ms`` (ascending, >= 1).

    ``b1``/``b2`` are the top and bottom halves of the right-hand sides,
    shape ``(rows, len(ms), r)``; rows past an order's own ``n - m + 1`` are
    ignored.  The ``A + B`` problem takes ``b1 + b2`` for ``x1 + x2`` and
    ``D (b2 - b1)`` for ``D (x1 - x2)`` (see the module docstring).  Returns
    the two halves of the solution, shape ``(n - ms[0], len(ms), r)`` and
    zero past each order's ``n - m`` rows, and each order's residual norm.
    """
    r = b1.shape[2]
    sign = (1.0 - 2.0 * (np.arange(b1.shape[0]) % 2))[:, None, None]  # D
    rhs = np.concatenate([b1 + b2, sign * (b2 - b1)], axis=2)
    x, res, _ = _lsq_sweep(*_order_problems(n, ms), rhs)
    u, v = x[..., :r], sign[: x.shape[0]] * x[..., r:]
    residual = math.sqrt(0.5) * np.hypot.reduce(res, axis=1)
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


def _order_zero_problems(n):
    """Sizes, rotations and bidiagonals of order zero's two parity chains.

    ``A0`` maps potential degree ``l`` to rows ``l - 1`` (``gamma``) and
    ``l + 1`` (``delta``), so it splits into two lower-bidiagonal chains:
    odd degrees against even rows (problem 0) and even degrees against odd
    rows (problem 1).  Column ``j`` of chain ``k`` has potential degree
    ``l = 2j + k + 1`` and the closed-form rotation
    ``s = sqrt(l (l + 1) / ((l + 2)(l + 3)))``,
    ``c = (-1)^(j + 1) sqrt(2 (2l + 3) / ((l + 2)(l + 3)))``.
    """
    pmax = n // 2
    j = np.arange(pmax + 2)[:, None]
    degrees = 2 * j + np.arange(2) + 1
    l = degrees[:pmax]
    denom = (l + 2) * (l + 3)
    c = np.where(j[:pmax] % 2, 1.0, -1.0) * np.sqrt(2 * (2 * l + 3) / denom)
    rotations = c, np.sqrt(l * (l + 1) / denom)
    columns = rec.delta(degrees, 0), rec.gamma(degrees, 0), np.zeros(degrees.shape)
    return np.array([pmax, (n - 1) // 2]), rotations, columns


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
    pmax = n // 2
    w = np.zeros((2 * pmax + 2, 2))
    w[: n + 1] = np.column_stack([theta_slice, phi_slice])
    # [j, chain] -> row degree 2j + chain
    x, res, _ = _lsq_sweep(*_order_zero_problems(n), w.reshape(pmax + 1, 2, 2))
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
