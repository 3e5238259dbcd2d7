"""Self-contained numerical verification: one check per claim of the paper.

Each check compares the library with an independent route (pointwise
evaluation, dense linear algebra or closed-form bounds) over the sizes,
seeds or nodes it is given, and yields ``(where, deviation)`` per item.
The caller holds the tolerance: an item passes when ``deviation <= tol``.
A check of inequalities ``lhs <= rhs`` yields the largest excess
``lhs - rhs``, so its tolerance is zero.  :data:`SUITES` runs the checks
at a ``quick`` and a ``full`` level; the acceptance criteria call them at
their own sizes.  Coefficient functions are reached through their module,
so swapping one out makes the checks that depend on it fail.
"""

import numpy as np

from . import recurrences as rec
from . import conditioning as cond
from . import operators as ops
from .pointwise import GridSpec, _Basis, analyze_z, synthesize_from_potentials
from .solver import cscy_to_z, decompose, differentiate, solve_order, z_to_cscy
from .spectra import random_potentials, relative_l2_error

__all__ = ["run_verification", "SUITES"]


def _worst(values):
    """Largest magnitude in ``values``, NaN if any is NaN (Python's ``max`` may skip a NaN)."""
    return float(np.max(np.abs(values)))


def identity_deviations(lmax, nodes):
    """Conversion (sign flipped at ``m == 0``) and derivative identities at ``(theta, phi)`` nodes."""
    for th, ph in nodes:
        csc = 1.0 / np.sin(th)
        basis = _Basis(lmax + 1, th, ph)  # one Legendre table per order at this node
        for m in range(-lmax, lmax + 1):
            mu = abs(m)
            for l in range(max(abs(mu - 1), 1), lmax + 1):
                rhs = rec.beta(l, mu) * basis.Y(l + 1, m) * csc
                if l - 1 >= mu:
                    rhs += rec.alpha(l, mu) * basis.Y(l - 1, m) * csc
                devs = [basis.Z(l, m) - (1.0 if mu else -1.0) * rhs]
                if l >= mu:
                    dth, dph = basis.gradY(l, m)
                    rhs = rec.delta(l, mu) * basis.Y(l + 1, m) * csc
                    if l - 1 >= mu:
                        rhs += rec.gamma(l, mu) * basis.Y(l - 1, m) * csc
                    devs += [dth - rhs, dph - (-m) * basis.Y(l, -m) * csc]
                yield f"(l={l}, m={m}) at ({th:.3f}, {ph:.3f})", _worst(devs)


def conversion_deviations(sizes):
    """``z -> cscy -> z -> cscy`` per order of the field of ``random_potentials(n, n)``."""
    for n in sizes:
        field = differentiate(*random_potentials(n, n))
        for m in range(-(n - 1), n):
            devs = []
            for z in (field.theta.order_slice(m), field.phi.order_slice(m)):
                w = z_to_cscy(z, m, n)
                z2 = cscy_to_z(w, m, n)
                scale = max(1.0, _worst(z))
                devs += [_worst(z2 - z) / scale, _worst(z_to_cscy(z2, m, n) - w) / scale]
            yield f"(n={n}, m={m})", _worst(devs)


def structure_deviations(sizes):
    """Excess over ``(n+1-m) x (n-m)`` shapes, ``A`` zero off its first sub- and superdiagonals,
    ``B`` zero off a diagonal of ``m``, and a pentadiagonal interleaved system (bands only).

    Every order of a degree at once, on the entries that ``build_A`` and ``build_B`` scatter.
    The shuffle of ``2q`` rows sends rows ``i`` and ``q + i`` where that of ``2n`` rows sends
    ``i`` and ``n + i``, so one shuffle of ``2n`` rows and one of ``2n - 2`` columns place all.
    """
    for n in sizes:
        a, b = ops._block_entries(n, np.arange(1, n))
        rows, cols = ops.shuffle_permutation(2 * n), ops.shuffle_permutation(2 * n - 2)
        order = np.arange(1, n)
        worst = []
        # each block's entries hold |row - column| == band; the shifts place
        # its two copies, A top left and bottom right, B top right and bottom left
        for (m, i, j, v), band, shifts in ((a, 1, ((0, 0), (n, n - 1))), (b, 0, ((0, n - 1), (n, 0)))):
            excess = [(np.minimum(i, j) < 0) | (i > n - m) | (j >= n - m),
                      np.where(np.abs(i - j) != band, np.abs(v), 0.0)]
            excess += [np.abs(rows[r + i] - cols[c + j]) - 2 for r, c in shifts]
            worst.append(np.maximum.reduceat(np.max(excess, axis=0), np.searchsorted(m, order)))
        m, i, j, v = b
        diag = np.zeros((n - 1, n - 1))  # B's diagonal, one order per row
        on = (i == j) & (i < n - m)
        diag[m[on] - 1, i[on]] = v[on]
        inside = np.arange(n - 1) < (n - order)[:, None]
        worst.append(np.max(np.where(inside, np.abs(diag - order[:, None]), 0.0), axis=1))
        for m, dev in zip(order.tolist(), np.max(worst, axis=0).tolist()):
            yield f"(n={n}, m={m})", dev


def permutation_deviations(sizes):
    """Dense check that the system the shuffle's index maps scatter is ``[[A, B], [B, A]]``.

    The entries of every order of a degree come from one call, the dense
    system from ``build_A`` and ``build_B`` one order at a time.
    """
    for n in sizes:
        (am, ai, aj, av), (bm, bi, bj, bv) = ops._block_entries(n, np.arange(1, n))
        for m in range(1, n):
            a, b = am == m, bm == m
            i, j, v, k, l, w = ai[a], aj[a], av[a], bi[b], bj[b], bv[b]
            q, p = n + 1 - m, n - m
            rows, cols = ops.shuffle_permutation(2 * q), ops.shuffle_permutation(2 * p)
            shuffled = np.zeros((2 * q, 2 * p))
            for r, c, x in ((i, j, v), (q + i, p + j, v), (k, p + l, w), (q + k, l, w)):
                shuffled[rows[r], cols[c]] = x
            yield f"(n={n}, m={m})", _worst(shuffled[np.ix_(rows, cols)] - ops._dense_system(n, m))


def cholesky_deviations(sizes):
    """Deviation of the closed-form ``R'R`` from ``C + D``, relative to its largest entry."""
    for n in sizes:
        for m in range(1, n):
            cd = np.add(*cond.build_CD(n, m))
            r = cond.build_R(n - m, m)
            yield f"(n={n}, m={m})", _worst(r.T @ r - cd) / _worst(cd)


def condition_deviations(sizes):
    """Relative gap between the dense condition numbers of ``[[A, B], [B, A]]`` and of ``R``."""
    for n in sizes:
        for m in range(1, n):
            rep = cond.kappa_numeric(n, m)
            yield f"(n={n}, m={m})", abs(rep.kappa_M - rep.kappa_R) / rep.kappa_R


def eigenvalue_deviations(n, orders):
    """Eigenvalues of ``M'M`` against those of ``C + D`` taken twice, over the largest."""
    for m in orders:
        dense = ops._dense_system(n, m)
        ev_m = np.linalg.eigvalsh(dense.T @ dense)
        ev_cd = np.linalg.eigvalsh(np.add(*cond.build_CD(n, m)))
        yield f"(n={n}, m={m})", _worst(ev_m - np.sort(np.concatenate([ev_cd, ev_cd]))) / ev_m[-1]


def entry_bound_excess(lmax, mmax):
    """Excess over ``d <= (l + 2m)/2``, ``e <= 1``, ``f <= (l + 1)/2``, ``d`` increasing and,
    for ``m >= 2``, ``d - e - f >= m - 3/2``, per order ``m <= mmax`` over ``l <= lmax``."""
    ell = np.arange(1, lmax + 1, dtype=np.float64)
    for m in range(1, mmax + 1):
        d, e, f = rec._chol(ell, m)
        excess = [d - (ell + 2 * m) / 2, e - 1.0, f - (ell + 1) / 2,
                  np.nextafter(d[:-1], np.inf) - d[1:]]  # d[l] < d[l + 1]
        if m >= 2:
            excess.append(m - 1.5 - (d - e - f))
        yield f"m={m}", float(np.max(np.concatenate(excess)))


def condition_bound_excess(sizes):
    """Excess over ``kappa_R <= kappa_bound`` and the ``qi_singular_bounds`` brackets of ``R``;
    for ``m >= 2`` also over ``sigma_max <= n + m + 3/2`` and ``sigma_min >= m - 3/2``."""
    for n in sizes:
        for m in range(1, n):
            sv = np.linalg.svd(cond.build_R(n - m, m), compute_uv=False)
            sigma_max, sigma_min = cond.qi_singular_bounds(n - m, m)
            excess = [float(sv[0] / sv[-1]) - cond.kappa_bound(n, m), sv[0] - sigma_max]
            if m >= 2:
                excess += [sigma_min - sv[-1], sv[0] - (n + m + 1.5), m - 1.5 - sv[-1]]
            yield f"(n={n}, m={m})", float(np.max(excess))


def lstsq_deviations(n, seed):
    """``solve_order`` against dense least squares, for two random right-hand sides per order."""
    rng = np.random.default_rng(seed)
    for m in range(1, n):
        dense = ops._dense_system(n, m)
        rhs = rng.standard_normal((dense.shape[0], 2))
        x_ref, *_ = np.linalg.lstsq(dense, rhs, rcond=None)
        yield f"(n={n}, m={m})", _worst(solve_order(n, m, rhs)[0] - x_ref) / _worst(x_ref)


def consistent_deviations(n, m, seed):
    """``solve_order`` on a consistent system ``b``: its error, and its residual over ``||b||``."""
    dense = ops._dense_system(n, m)
    x_true = np.random.default_rng(seed).standard_normal((dense.shape[1], 2))
    x, residual = solve_order(n, m, dense @ x_true)
    yield f"x at (n={n}, m={m})", _worst(x - x_true) / _worst(x_true)
    yield f"residual at (n={n}, m={m})", residual / float(np.linalg.norm(dense @ x_true))


def quadrature_deviations(sizes, seed):
    """Quadrature vs ``differentiate``, on the field of ``random_potentials(n, seed + n)``."""
    for n in sizes:
        s, t = random_potentials(n, seed + n)
        grid = GridSpec.for_degree(n)
        via_quadrature = analyze_z(*synthesize_from_potentials(s, t, grid), grid, n)
        spectral = differentiate(s, t)
        yield f"n={n}", _worst(np.concatenate([via_quadrature.theta.flat() - spectral.theta.flat(),
                                               via_quadrature.phi.flat() - spectral.phi.flat()]))


def roundtrip_deviations(sizes, seeds):
    """Relative error of ``decompose(differentiate(s, t))`` on ``random_potentials(n, seed)``."""
    for n in sizes:
        for seed in seeds:
            s, t = random_potentials(n, seed)
            result = decompose(differentiate(s, t))
            yield f"(n={n}, seed={seed})", _worst([relative_l2_error(result.spheroidal, s),
                                                    relative_l2_error(result.toroidal, t)])


_NODES = [(th, ph) for th in np.linspace(0.15, np.pi - 0.15, 5) for ph in (0.3, 2.1, 4.4)]
_DEGREES = ((2, 3, 5, 8, 13, 21, 33),), (tuple(range(2, 65)) + (96, 128, 192, 256),)
_CONDITION = ((8, 16),), ((8, 16, 32, 64),)

# (suite, check, tolerance, quick arguments, full arguments); a suite of
# several checks has one row per check and passes when all of them do
SUITES = [
    ("pointwise-identities", identity_deviations, 1e-13, (8, _NODES), (20, _NODES)),
    ("conversion-roundtrip", conversion_deviations, 1e-12, *_CONDITION),
    ("block-structure", structure_deviations, 0.0, *_DEGREES),
    ("block-structure", permutation_deviations, 0.0, *_DEGREES),
    ("cholesky-identity", cholesky_deviations, 1e-13, ((4, 8, 16),), ((4, 8, 16, 32, 64),)),
    ("condition-equalities", condition_deviations, 1e-10, *_CONDITION),
    ("condition-equalities", eigenvalue_deviations, 1e-10, (12, (1, 2, 3)), (12, (1, 2, 3))),
    ("proved-bounds", entry_bound_excess, 0.0, (1000, 30), (10000, 100)),
    ("proved-bounds", condition_bound_excess, 0.0, *_CONDITION),
    ("solver-vs-dense", lstsq_deviations, 1e-11, (12, 5), (12, 5)),
    ("solver-vs-dense", consistent_deviations, 1e-12, (16, 3, 5), (16, 3, 5)),
    ("quadrature-oracle", quadrature_deviations, 1e-10, ((6, 10), 11), ((6, 10, 16), 11)),
    ("roundtrip-error", roundtrip_deviations, 1e-12, ((16, 64), (1, 2)), ((16, 64, 256), (1, 2, 3))),
]


def _run_check(check, tol, args):
    """``(passed, detail)``: at least one item, every item within ``tol``; the detail names the worst."""
    try:
        items = list(check(*args))
    except Exception as exc:  # a crash is a failure, not an abort
        return False, f"{check.__name__} raised {type(exc).__name__}: {exc}"
    if not items:
        return False, f"{check.__name__} checked nothing"
    # a failing item (NaN included) outranks every passing one
    where, dev = max(items, key=lambda item: (not item[1] <= tol, item[1]))
    return dev <= tol, f"{check.__name__} worst {where}: {dev:.2e} (tol {tol:.1e})"


def run_verification(level="quick"):
    """Run every suite at ``level`` ("quick" or "full"); returns a list of (name, passed, detail)."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = {}
    for name, check, tol, quick, full in SUITES:
        ok, detail = _run_check(check, tol, quick if level == "quick" else full)
        prev_ok, prev = results.get(name, (True, None))
        results[name] = prev_ok and ok, detail if prev is None else f"{prev}; {detail}"
    return [(name, ok, detail) for name, (ok, detail) in results.items()]
