import importlib
import inspect
import math
import pkgutil
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spherehhd
from spherehhd import recurrences as rec
from spherehhd.conditioning import build_CD, build_R, condition_trend, kappa_bound, kappa_numeric, qi_singular_bounds
from spherehhd.operators import CHUNK_STEPS, _dense_system, build_A, build_B, cscy_to_z, z_to_cscy
from spherehhd.solver import (
    _lanes,
    _lsq_sweep,
    _order_problems,
    decompose,
    differentiate,
    solve_order,
)
from spherehhd.spectra import (
    ScalarSpectrum,
    TangentField,
    ZSpectrum,
    new_scalar_spectrum,
    random_potentials,
    relative_l2_error,
)

from conftest import FOLD_DEGREES


def block_problems(n, ms):
    """Segments, rotations and factors of a block of consecutive orders ``ms``, one to a lane."""
    return _order_problems(n, _lanes(n, ms, 0)(0))


def sweep_halves(n, m, rhs=None):
    """Run the sweep on the A + B and A - B halves of order ``m``.

    The kernel solves only A + B; A - B = -D (A + B) D with D = diag((-1)^i)
    turns the A - B half into A + B with right-hand side -D b, solution D y
    and factor D R D.  Returns, per half, the dense matrix, the solution, the
    residual and the dense triangular factor.
    """
    segments, rotations, (d, e, f) = block_problems(n, np.array([m]))
    p = int(segments[1][0])
    if rhs is None:
        rhs = np.zeros((p + 1, 2, 1))
    r = rhs.shape[2]
    dq, dp = (-1.0) ** np.arange(p + 1), (-1.0) ** np.arange(p)
    both = np.concatenate([rhs[:, 0], -dq[:, None] * rhs[:, 1]], axis=1)[:, :, None]
    x, res = _lsq_sweep(segments, rotations, (d, e, f), both)
    a, b = build_A(n, m), build_B(n, m)
    r_plus, j = np.diag(d[:p, 0]), np.arange(p)
    r_plus[j[:-1], j[1:]], r_plus[j[:-2], j[2:]] = e[: p - 1, 0], f[: max(p - 2, 0), 0]
    return [
        (a + b, x[:, :r, 0], res[0, :r], r_plus),
        (a - b, dp[:, None] * x[:, r:, 0], res[0, r:], dp[:, None] * r_plus * dp),
    ]


def test_rotations_are_orthogonal(rng):
    # Q'rhs = [R x; residual], so orthogonal rotations preserve the rhs norm
    n, m = 12, 3
    rhs = rng.standard_normal((n - m + 1, 2, 3))
    for k, (_, x, res, r) in enumerate(sweep_halves(n, m, rhs)):
        for col in range(rhs.shape[2]):
            kept = np.hypot(np.linalg.norm(r @ x[:, col]), res[col])
            assert kept == pytest.approx(np.linalg.norm(rhs[:, k, col]), rel=1e-14)


def test_rotations_reproduce_r_factor():
    # R'R equals M'M for both halves: the sweep back-substitutes with M's Cholesky factor
    for dense, _, _, r in sweep_halves(10, 2):
        normal = dense.T @ dense
        assert np.max(np.abs(r.T @ r - normal)) / np.max(np.abs(normal)) < 1e-13
        assert np.allclose(np.triu(r), r)


def rotate(c, s, columns):
    """``Q'M`` for a ``(p + 1) x p`` tridiagonal ``M``, in Python floats, one rotation at a time.

    ``columns = (sub, diag, sup)`` hold column ``j``'s entries in rows
    ``j + 1``, ``j`` and ``j - 1``; rotation ``j`` turns rows ``j, j + 1``
    into ``c row_j + s row_(j+1)`` and ``c row_(j+1) - s row_j``.  Returns
    the diagonals ``R[j, j]``, ``R[j, j + 1]`` (inside the ``p x p``
    triangle), ``R[j, j + 2]`` of the top ``p`` rows, and what is left in
    column ``j`` below row ``j``.
    """
    sub, diag, sup = (np.asarray(x, dtype=np.float64).tolist() + [0.0, 0.0] for x in columns)
    p = len(c)
    a, b = diag[0], sup[1]  # row j of M after the rotations of columns < j
    d, e, f, left = [], [], [], []
    for j in range(p):
        d.append(c[j] * a + s[j] * sub[j])
        e.append(c[j] * b + s[j] * diag[j + 1])
        f.append(s[j] * sup[j + 2])
        left.append(c[j] * sub[j] - s[j] * a)
        a, b = c[j] * diag[j + 1] - s[j] * b, c[j] * sup[j + 2]
    return np.array(d), np.array(e[: p - 1]), np.array(f[: max(p - 2, 0)]), np.array(left)


def assert_rotations_give_factor(rotations, factor, columns, p, k=0):
    """Problem ``k``: orthogonal rotations to 4 eps, ``Q'M = [R; 0]`` with ``R`` from ``factor``.

    The entries left below ``R`` are at most ``1e-15 R[j, j]``, and ``R``'s
    diagonals deviate from ``factor`` by at most ``1e-13`` of its largest
    entry, which lies on the diagonal.
    """
    c, s = (x[:p, k] for x in rotations)
    assert np.max(np.abs(c * c + s * s - 1.0), initial=0.0) <= 4 * np.finfo(np.float64).eps
    d, e, f = factor[0][:p, k], factor[1][: p - 1, k], factor[2][: max(p - 2, 0), k]
    *diagonals, left = rotate(c.tolist(), s.tolist(), columns)
    assert np.all(np.abs(left) <= 1e-15 * d)
    scale = np.max(np.abs(d), initial=0.0)
    for have, want in zip(diagonals, (d, e, f)):
        assert np.max(np.abs(have - want), initial=0.0) <= 1e-13 * scale


def test_sweep_r_matches_closed_form_cholesky_factor():
    # the closed-form rotations turn each half's M into [R; 0], with R the
    # factor the sweep back-substitutes with: build_R(n - m, m) for A + B, and
    # D R D, reached by the rotations (-1)^(j + 1) c_j, for A - B
    for n in (4, 8, 16, 32, 64):
        for m in range(1, n):
            (_, sizes), (c, s), factor = block_problems(n, np.array([m]))
            p = int(sizes[0])
            closed = build_R(p, m)
            d, e, f = (x[:, 0] for x in factor)
            assert np.array_equal(d[:p], np.diagonal(closed))
            assert np.array_equal(e[: p - 1], np.diagonal(closed, 1))
            assert np.array_equal(f[: max(p - 2, 0)], np.diagonal(closed, 2))
            a, b = build_A(n, m), build_B(n, m)
            flip = (-1.0) ** np.arange(1, p + 2)[:, None]
            for dense, cj, ej in ((a + b, c, e), (a - b, flip * c, -e)):
                columns = np.diagonal(dense, -1), np.diagonal(dense), np.r_[0.0, np.diagonal(dense, 1)]
                assert_rotations_give_factor((cj, s), (d[:, None], ej[:, None], f[:, None]), columns, p)


@pytest.mark.parametrize("n,m", [(4096, 1), (4096, 2), (4096, 3), (4096, 64), (4096, 1000), (4096, 4095)])
def test_closed_form_rotations_beyond_dense_oracles(n, m):
    # the same check at sizes past DENSE_ORACLE_LIMIT, with A + B from the
    # recurrences: column j holds gamma in row j - 1, m in row j, delta in row j + 1
    (_, sizes), rotations, factor = block_problems(n, np.array([m]))
    p = int(sizes[0])
    degrees = m + np.arange(p)
    columns = rec.delta(degrees, m), np.full(p, float(m)), rec.gamma(degrees, m)
    assert_rotations_give_factor(rotations, factor, columns, p)


def test_r_diagonal_nonnegative_and_small_system():
    halves = sweep_halves(8, 7)  # two 2 x 1 halves of the 4 x 2 system
    for dense, _, _, r in halves:
        assert dense.shape == (2, 1) and r.shape == (1, 1)
        assert r[0, 0] > 0
        # dense QR oracle: R'R must equal M'M
        assert_allclose(r.T @ r, dense.T @ dense, atol=1e-14)


def test_r_diagonal_nonzero_high_degree():
    for _, _, _, r in sweep_halves(32, 1):
        assert np.all(np.diag(r) > 0.0)


def test_factorization_deterministic(rng):
    rhs = rng.standard_normal((2 * (20 + 1 - 4), 2))
    x_a, res_a = solve_order(20, 4, rhs)
    x_b, res_b = solve_order(20, 4, rhs)
    assert np.array_equal(x_a, x_b)
    assert res_a == res_b


def test_solve_zero_rhs():
    x, res = solve_order(9, 2, np.zeros((2 * (9 + 1 - 2), 2)))
    assert not np.any(x)
    assert res == 0.0


def test_solve_consistent_system(rng):
    n, m = 16, 3
    dense = _dense_system(n, m)
    x_true = rng.standard_normal((dense.shape[1], 2))
    rhs = dense @ x_true
    x, res = solve_order(n, m, rhs)
    assert np.max(np.abs(x - x_true)) / np.max(np.abs(x_true)) < 1e-13
    assert res <= 1e-13 * np.linalg.norm(rhs)


@pytest.mark.parametrize("m", range(1, 12))
def test_solve_matches_dense_least_squares(m, rng):
    n = 12
    dense = _dense_system(n, m)
    rhs = rng.standard_normal((dense.shape[0], 2))
    x, res = solve_order(n, m, rhs)
    x_ref, *_ = np.linalg.lstsq(dense, rhs, rcond=None)
    assert np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref)) < 1e-11
    res_ref = np.linalg.norm(dense @ x_ref - rhs)
    assert res == pytest.approx(res_ref, rel=1e-10)


def test_solve_single_column_and_shape_errors(rng):
    n, m = 10, 2
    rows = 2 * (n + 1 - m)
    b = rng.standard_normal(rows)
    x, _ = solve_order(n, m, b)
    assert x.shape == (2 * (n - m),)
    with pytest.raises(ValueError):
        solve_order(n, m, rng.standard_normal(rows + 1))


def test_residual_local_optimality(rng):
    # perturbing any solved coordinate cannot decrease the residual
    n, m = 12, 2
    dense = _dense_system(n, m)
    rhs = rng.standard_normal(dense.shape[0])
    x, res = solve_order(n, m, rhs)
    base = np.linalg.norm(dense @ x - rhs)
    for k in range(len(x)):
        for eps in (1e-6, -1e-6):
            xp = x.copy()
            xp[k] += eps
            assert np.linalg.norm(dense @ xp - rhs) >= base - 1e-15


def test_factor_domain_errors():
    with pytest.raises(ValueError):
        solve_order(8, 0, np.zeros(18))
    with pytest.raises(ValueError):
        solve_order(8, 8, np.zeros(2))


def test_differentiate_zero_potentials():
    field = differentiate(new_scalar_spectrum(5), new_scalar_spectrum(5))
    assert field.norm() == 0.0


def test_differentiate_single_mode_order_zero():
    # gradient of the degree-1 zonal harmonic lives at order 0 only
    s = new_scalar_spectrum(3)
    s[1, 0] = 1.0
    field = differentiate(s, new_scalar_spectrum(3))
    assert field.phi.norm() == 0.0
    nonzero_orders = [m for m in field.theta.orders() if np.any(field.theta.order_slice(m))]
    assert nonzero_orders == [0]
    # and its only tangential coefficient is at degree 1: dY_{1,0}/dtheta = -sqrt(2) Z_{1,0}
    assert field.theta[1, 0] == pytest.approx(-np.sqrt(2.0), rel=1e-14)


def test_differentiate_order_zero_is_one_scale():
    # the tangential basis at m = 0 is P~_l^1, and the colatitude derivative
    # of P~_l^0 is -sqrt(l (l + 1)) P~_l^1: no degree-n content
    n = 256
    s, t = random_potentials(n, seed=8)
    field = differentiate(s, t)
    l = np.arange(1.0, n)
    for comp, pot in ((field.theta, s), (field.phi, t)):
        z0, want = comp.order_slice(0), -np.sqrt(l * (l + 1.0)) * pot.order_slice(0)[1:]
        assert np.max(np.abs(z0[:-1] - want)) <= 4e-16 * np.max(np.abs(want))
        assert z0[-1] == 0.0


def test_differentiate_degree_mismatch():
    with pytest.raises(ValueError):
        differentiate(new_scalar_spectrum(3), new_scalar_spectrum(4))


@pytest.mark.parametrize("s,t", [(ZSpectrum(3), ZSpectrum(3)),
                                 (new_scalar_spectrum(3), ZSpectrum(3))])
def test_differentiate_rejects_non_scalar_potentials(s, t):
    with pytest.raises(ValueError, match="basis-Y"):
        differentiate(s, t)


def test_decompose_zero_field():
    result = decompose(TangentField.zeros(6))
    assert result.spheroidal.norm() == 0.0
    assert result.toroidal.norm() == 0.0
    assert all(v == 0.0 for v in result.residual_by_order.values())
    assert all(v == 0.0 for v in result.out_of_range_by_order.values())


def test_decompose_single_gradient_mode():
    n = 4
    s = new_scalar_spectrum(n - 1)
    s[1, 0] = 1.0
    field = differentiate(s, new_scalar_spectrum(n - 1))
    result = decompose(field)
    assert result.spheroidal[1, 0] == pytest.approx(1.0, rel=1e-14)
    assert result.toroidal.norm() < 1e-14
    rest = result.spheroidal.flat().copy()
    rest[np.abs(rest - 1.0) < 1e-12] = 0.0
    assert np.max(np.abs(rest)) < 1e-14


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_decompose_roundtrip(n):
    s, t = random_potentials(n, seed=n + 5)
    result = decompose(differentiate(s, t))
    assert relative_l2_error(result.spheroidal, s) < 1e-12
    assert relative_l2_error(result.toroidal, t) < 1e-12


def test_decompose_normalization_exact_zero():
    s, t = random_potentials(12, seed=3)
    result = decompose(differentiate(s, t))
    assert result.spheroidal[0, 0] == 0.0
    assert result.toroidal[0, 0] == 0.0


def test_decompose_order_zero_separable():
    n = 16
    s = new_scalar_spectrum(n - 1)
    t = new_scalar_spectrum(n - 1)
    rng = np.random.default_rng(8)
    s.order_slice(0)[1:] = rng.standard_normal(n - 1)
    t.order_slice(0)[1:] = rng.standard_normal(n - 1)
    field = differentiate(s, t)
    result = decompose(field)
    assert relative_l2_error(result.spheroidal, s) < 1e-13
    assert relative_l2_error(result.toroidal, t) < 1e-13
    # pure-toroidal order-zero data leaves the spheroidal part empty
    t_only = differentiate(new_scalar_spectrum(n - 1), t)
    result = decompose(t_only)
    assert np.linalg.norm(result.spheroidal.order_slice(0)) < 1e-13
    s_only = differentiate(s, new_scalar_spectrum(n - 1))
    result = decompose(s_only)
    assert np.linalg.norm(result.toroidal.order_slice(0)) < 1e-13


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1), consistent=st.booleans())
@example(n=2, seed=0, consistent=False)
@example(n=3, seed=1, consistent=True)
def test_decompose_solves_order_zero_in_closed_form(n, seed, consistent):
    # decompose solves order zero from the field's order-zero slices alone:
    # on random slices, against dense least squares on A0 in csc-harmonic
    # form, with the residual orthogonal to A0's range; a consistent order
    # zero comes back
    if consistent:
        s, t = random_potentials(n, seed)
        field = differentiate(s, t)
    else:
        field, rng = TangentField.zeros(n), np.random.default_rng(seed)
        for comp in (field.theta, field.phi):
            comp.order_slice(0)[:] = rng.standard_normal(n)
    result = decompose(field)
    w = np.column_stack([z_to_cscy(comp.order_slice(0), 0, n) for comp in (field.theta, field.phi)])
    got = np.column_stack([result.spheroidal.order_slice(0), result.toroidal.order_slice(0)])
    assert not np.any(got[0])
    a0 = build_A(n, 0)
    ref, *_ = np.linalg.lstsq(a0, w, rcond=None)
    assert np.max(np.abs(got[1:] - ref)) <= 1e-11 * np.max(np.abs(ref))
    r = a0 @ got[1:] - w
    residual = result.residual_by_order[0]
    assert residual == pytest.approx(np.linalg.norm(r), rel=1e-9, abs=1e-13 * np.linalg.norm(w))
    assert np.max(np.abs(a0.T @ r)) <= 1e-12 * np.linalg.norm(a0) * np.linalg.norm(w)
    if consistent:
        truth = np.column_stack([s.order_slice(0), t.order_slice(0)])
        assert np.max(np.abs(got - truth)) <= 1e-13 * np.max(np.abs(truth))


def order_zero_oracle(z, n):
    """Least squares of order zero, ``A0 x = C0 z``, in 40 digits for a slice ``z`` (degrees ``1..n``).

    ``A0`` comes from the closed forms of ``gamma`` and ``delta`` and the
    conversion ``C0`` from those of ``alpha`` and ``beta`` (negated at order
    zero, see :func:`z_to_cscy`); the normal equations square ``A0``'s
    condition number, below 1e4 here.  Returns ``C0 z``, ``x`` (degrees
    ``1..n-1``) and the residual norm, rounded to double.
    """
    mp = mpmath.mp
    with mpmath.workdps(40):
        zz = [mp.mpf(0)] + [mp.mpf(float(v)) for v in z] + [mp.mpf(0)]  # degrees 0 .. n + 1
        alpha = [-mp.sqrt(mp.mpf(l * (l + 1)) / ((2 * l - 1) * (2 * l + 1))) for l in range(1, n + 2)]
        beta = [mp.sqrt(mp.mpf(k * (k + 1)) / ((2 * k + 1) * (2 * k + 3))) for k in range(n + 1)]
        b = mp.matrix([-((beta[r - 1] * zz[r - 1] if r else 0) + alpha[r] * zz[r + 1]) for r in range(n + 1)])
        a = mp.matrix(n + 1, n - 1)
        for l in range(1, n):  # column l - 1: gamma(l, 0) in row l - 1, delta(l, 0) in row l + 1
            a[l - 1, l - 1] = -(l + 1) * l / mp.sqrt((2 * l - 1) * (2 * l + 1))
            a[l + 1, l - 1] = l * (l + 1) / mp.sqrt((2 * l + 1) * (2 * l + 3))
        x = mp.lu_solve(a.T * a, a.T * b)
        return [np.array([float(v) for v in y]) for y in (b, x)] + [float(mp.norm(a * x - b))]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1), perturbed=st.booleans())
@example(n=2, seed=0, perturbed=True)
@example(n=24, seed=1, perturbed=True)
def test_order_zero_matches_extended_precision_least_squares(n, seed, perturbed):
    # the closed form against a 40-digit least-squares solution: the
    # potentials to 5e-16 of the slice's largest entry, the residual to 1e-15
    s, t = random_potentials(n, seed)
    field = differentiate(s, t)
    if perturbed:
        rng = np.random.default_rng(seed)
        for comp in (field.theta, field.phi):
            comp.order_slice(0)[:] += rng.standard_normal(n)
    result = decompose(field)
    residuals = []
    for comp, pot in ((field.theta, result.spheroidal), (field.phi, result.toroidal)):
        b, x, residual = order_zero_oracle(comp.order_slice(0), n)
        assert np.max(np.abs(z_to_cscy(comp.order_slice(0), 0, n) - b)) <= 1e-15 * np.max(np.abs(b))
        assert np.max(np.abs(pot.order_slice(0)[1:] - x)) <= 5e-16 * np.max(np.abs(x))
        residuals.append(residual)
    want = math.hypot(*residuals)
    assert result.residual_by_order[0] == pytest.approx(want, rel=1e-15, abs=1e-30 * field.norm())


def test_consistent_order_zero_leaves_no_residual():
    # differentiate leaves the degree-n coefficient of order zero at 0.0, and
    # the closed-form residual is that coefficient times sqrt(2 / (2n + 1))
    n = 256
    result = decompose(differentiate(*random_potentials(n, seed=4)))
    assert result.residual_by_order[0] == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_order_zero_in_a_small_first_block_matches_dense_least_squares(n):
    # at n = 2 and 3 order zero has one or two unknowns, and the first block
    # of the other orders holds one or two lanes
    rng = np.random.default_rng(n)
    field = TangentField(ZSpectrum(n), ZSpectrum(n))
    for comp in (field.theta, field.phi):
        comp.flat()[:] = rng.standard_normal(comp.size)
    result = decompose(field)
    a0 = build_A(n, 0)
    w = np.column_stack([z_to_cscy(comp.order_slice(0), 0, n) for comp in (field.theta, field.phi)])
    ref, *_ = np.linalg.lstsq(a0, w, rcond=None)
    got = np.column_stack([result.spheroidal.order_slice(0)[1:], result.toroidal.order_slice(0)[1:]])
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert result.residual_by_order[0] == pytest.approx(np.linalg.norm(a0 @ ref - w), rel=1e-10)


def _random_field(n, seed):
    rng = np.random.default_rng(seed)
    return TangentField(*(ZSpectrum(n, rng.standard_normal(ZSpectrum(n).size)) for _ in range(2)))


@pytest.mark.parametrize("n", FOLD_DEGREES)
def test_blocked_decompose_matches_per_order_dense_least_squares(n):
    # every order of a general field, wherever the fold puts it, against
    # lstsq on its dense block system: the columns (s_m, s_-m) over
    # (-t_-m, t_m) solve [[A, B], [B, A]] for (theta_m, theta_-m) over
    # (-phi_-m, phi_m) in csc-harmonic form; order zero solves A0
    field = _random_field(n, n)
    result = decompose(field)
    pots, comps = (result.spheroidal, result.toroidal), (field.theta, field.phi)
    for m in range(n):
        csc = {(c, k): z_to_cscy(comp.order_slice(k), k, n) for c, comp in enumerate(comps) for k in {m, -m}}
        if m == 0:
            dense, rhs = build_A(n, 0), np.column_stack([csc[0, 0], csc[1, 0]])
            got = np.column_stack([pot.order_slice(0)[1:] for pot in pots])
        else:
            dense = _dense_system(n, m)
            rhs = np.block([[csc[0, m][:, None], csc[0, -m][:, None]], [-csc[1, -m][:, None], csc[1, m][:, None]]])
            s_m, s_neg, t_m, t_neg = (pot.order_slice(k) for pot in pots for k in (m, -m))
            got = np.block([[s_m[:, None], s_neg[:, None]], [-t_neg[:, None], t_m[:, None]]])
        ref, *_ = np.linalg.lstsq(dense, rhs, rcond=None)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref)), f"order {m}"
        assert result.residual_by_order[m] == pytest.approx(np.linalg.norm(dense @ ref - rhs), rel=1e-10)
        # the dropped tail: beta(n, m) times the degree-n coefficients
        tops = [comp.order_slice(k)[-1] for comp in comps for k in {m, -m}]
        assert result.out_of_range_by_order[m] == pytest.approx(rec.beta(n, m) * np.linalg.norm(tops), rel=1e-14)
    for mu in (n, n + 1):
        outside = np.concatenate([comp.order_slice(k) for comp in comps for k in (mu, -mu)])
        assert result.out_of_range_by_order[mu] == pytest.approx(np.linalg.norm(outside), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 140), pick=st.integers(0, 141))
@example(n=64, pick=32)  # order n / 2, alone in its lane
@example(n=65, pick=33)  # the partner in the last lane of a full block
@example(n=66, pick=33)  # the one lane of a last block
@example(n=66, pick=65)  # order n - 1, the partner in the first lane
@example(n=5, pick=0)  # order zero, solved apart from the lanes
def test_orders_are_isolated_in_the_folded_lanes(n, pick):
    # a new input for order m (both components, +m and -m) changes no other
    # order's potentials, residual or out-of-range norm, to the bit
    m = pick % (n + 2)
    field = _random_field(n, n)
    before = decompose(field)
    rng = np.random.default_rng(n + 1)
    for comp in (field.theta, field.phi):
        for k in {m, -m}:
            comp.order_slice(k)[:] = rng.standard_normal(len(comp.order_slice(k)))
    after = decompose(field)
    for k in range(-(n - 1), n):
        if abs(k) != m:
            for a, b in ((before.spheroidal, after.spheroidal), (before.toroidal, after.toroidal)):
                assert a.order_slice(k).tobytes() == b.order_slice(k).tobytes(), f"order {k}"
    for table in ("residual_by_order", "out_of_range_by_order"):
        a, b = getattr(before, table), getattr(after, table)
        assert list(a) == list(b) == list(range(n + 2 if table == "out_of_range_by_order" else n))
        assert all(a[k] == b[k] for k in a if k != m), table


def test_calls_keep_no_state():
    # a call builds its block layout and workspace for itself and keeps
    # neither: interleaved calls at other degrees leave each differentiate
    # and decompose result, residuals and out-of-range norms included,
    # bit-identical to the same call made in another order, and the solver
    # and operators modules gain no array or container
    import spherehhd.operators as operators_module
    import spherehhd.solver as solver_module

    def held():
        return {(mod.__name__, name): (type(v), len(v)) for mod in (solver_module, operators_module)
                for name, v in vars(mod).items() if isinstance(v, (np.ndarray, list, tuple, dict, set))}

    def run(n):
        field = differentiate(*random_potentials(n, n))
        result = decompose(_random_field(n, n))  # a general field: nonzero residuals
        tables = (result.residual_by_order, result.out_of_range_by_order)
        return [x.flat().tobytes() for x in (field.theta, field.phi, result.spheroidal, result.toroidal)] + [
            (list(t), np.array(list(t.values())).tobytes()) for t in tables]

    before, sizes = held(), (1030, 64, 257, 64, 9)
    first = {n: run(n) for n in sorted(set(sizes))}
    for n in sizes:
        assert run(n) == first[n], n
    assert held() == before


def test_out_of_range_reporting():
    n = 6
    field = TangentField.zeros(n)
    field.theta[n, n] = 2.0  # order n: outside every solvable system
    field.phi[n, -(n + 1)] = 1.0  # order n+1
    result = decompose(field)
    assert result.out_of_range_by_order[n] == pytest.approx(2.0)
    assert result.out_of_range_by_order[n + 1] == pytest.approx(1.0)
    assert result.spheroidal.norm() == 0.0 and result.toroidal.norm() == 0.0
    # top-degree content in the deficient chain of a solvable order is tail-reported
    field = TangentField.zeros(n)
    field.theta[n, 2] = 1.0
    result = decompose(field)
    assert result.out_of_range_by_order[2] > 0.0


def test_general_field_residual_reported():
    # an arbitrary tangential field is not exactly a gradient/curl pair of a
    # degree <= n-1 potential; the inconsistency lands in the residuals
    n = 8
    rng = np.random.default_rng(4)
    field = TangentField(ZSpectrum(n), ZSpectrum(n))
    field.theta.flat()[:] = rng.standard_normal(field.theta.size)
    field.phi.flat()[:] = rng.standard_normal(field.phi.size)
    result = decompose(field)
    assert result.total_residual() > 1e-3
    assert result.total_out_of_range() > 1e-3


def test_decompose_rejects_tiny_degree():
    with pytest.raises(ValueError):
        decompose(TangentField.zeros(1))


@pytest.mark.parametrize("field", [ScalarSpectrum(5), ScalarSpectrum(1), ZSpectrum(5),
                                   (ZSpectrum(5), ZSpectrum(5))], ids=["Y5", "Y1", "Z5", "pair"])
def test_decompose_rejects_a_field_that_is_not_a_tangent_field(field):
    with pytest.raises(ValueError, match="must be a TangentField"):
        decompose(field)


# (call, a value that is not an integer, the same value as a numpy integer)
@pytest.mark.parametrize("call,bad,good", [
    (ZSpectrum, 2.5, np.int64(2)),
    (ScalarSpectrum, True, np.int64(1)),
    (ScalarSpectrum, "3", np.int64(3)),
    (lambda m: solve_order(5, m, np.zeros(10)), 1.5, np.int64(1)),
    (lambda n: solve_order(n, 1, np.zeros(10)), 5.0, np.int64(5)),
    (lambda m: z_to_cscy(np.zeros(3), m, 2), 1.0, np.int64(1)),
    (lambda n: cscy_to_z(np.zeros(2), 1, n), 2.0, np.int64(2)),
    (lambda n: build_A(n, 0), 5.0, np.int64(5)),
    (lambda m: build_B(5, m), 1.5, np.int64(1)),
    (lambda n: build_R(n, 1), 2.5, np.int64(2)),
    (lambda n: build_CD(n, 1), 5.0, np.int64(5)),
    (lambda n: kappa_bound(n, 2), 10.5, np.int64(10)),
    (lambda n: qi_singular_bounds(n, 2), 6.5, np.int64(6)),
    (lambda n: kappa_numeric(n, 2), 8.0, np.int64(8)),
    (lambda n: condition_trend(n), 8.0, np.int64(8)),
], ids=["Z-float", "Y-bool", "Y-str", "solve-m", "solve-n", "z_to_cscy-m", "cscy_to_z-n", "build_A-n",
        "build_B-m", "build_R-n", "build_CD-n", "kappa_bound-n", "qi_singular_bounds-n",
        "kappa_numeric-n", "condition_trend-n"])
def test_degrees_and_orders_must_be_integers(call, bad, good):
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(repr(bad))}"):
        call(bad)
    call(good)


def test_exported_names_resolve():
    # a deleted name must leave its module's __all__ and the package's
    # re-exports; every re-export is listed in the __all__ of its module
    modules = [importlib.import_module(f"spherehhd.{info.name}") for info in pkgutil.iter_modules(spherehhd.__path__)
               if info.name != "__main__"]
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module.__name__
    for name, value in vars(spherehhd).items():
        if not name.startswith("_") and not inspect.ismodule(value):
            assert name in sys.modules[value.__module__].__all__, name


# every entry point that takes coefficients as an array, with complex ones:
# a cast to float64 would keep only their real part
COMPLEX_CALLS = {
    "ScalarSpectrum": lambda: ScalarSpectrum(1, 2j * np.ones(ScalarSpectrum(1).size)),
    "ZSpectrum": lambda: ZSpectrum(1, 2j * np.ones(ZSpectrum(1).size)),
    "solve_order": lambda: solve_order(5, 1, np.ones(10, dtype=complex)),
    "z_to_cscy": lambda: z_to_cscy(np.ones(3, dtype=complex), 1, 2),
    "cscy_to_z": lambda: cscy_to_z(np.ones(2, dtype=complex), 1, 2),
}


@pytest.mark.parametrize("name", COMPLEX_CALLS)
def test_complex_input_is_refused(name):
    with pytest.raises(ValueError, match=f"^{name}: values must be real"):
        COMPLEX_CALLS[name]()


def test_decompose_rejects_non_finite_input():
    n = 6
    s, t = random_potentials(n, seed=5)
    field = differentiate(s, t)
    field.phi[3, -2] = np.nan
    with pytest.raises(ValueError, match=r"phi.*\(l=3, m=-2\)"):
        decompose(field)
    t[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"t.*\(l=2, m=1\)"):
        differentiate(s, t)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_one_order_solvers_reject_non_finite_input(value, rng):
    rhs = rng.standard_normal((16, 2))
    rhs[5, 1] = value
    with pytest.raises(ValueError, match="rhs.* row 5"):
        solve_order(10, 3, rhs)
    with pytest.raises(ValueError, match="rhs.* row 5"):
        solve_order(10, 3, rhs[:, 1])


def test_decompose_power_of_two_scale_is_exact_and_norms_finite():
    # rotations depend on the matrix only, so scaling the field by 2**990
    # scales the potentials exactly; the reported norms must not overflow
    n = 16
    field = TangentField(ZSpectrum(n), ZSpectrum(n))
    rng = np.random.default_rng(11)
    field.theta.flat()[:] = rng.standard_normal(field.theta.size)
    field.phi.flat()[:] = rng.standard_normal(field.phi.size)
    big = TangentField(ZSpectrum(n, field.theta.flat() * 2.0**990),
                       ZSpectrum(n, field.phi.flat() * 2.0**990))
    small, large = decompose(field), decompose(big)
    assert np.array_equal(large.spheroidal.flat(), small.spheroidal.flat() * 2.0**990)
    assert np.array_equal(large.toroidal.flat(), small.toroidal.flat() * 2.0**990)
    for total in (large.total_residual(), large.total_out_of_range()):
        assert np.isfinite(total) and total > 0.0
    assert large.total_residual() == pytest.approx(small.total_residual() * 2.0**990, rel=1e-12)


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_roundtrip_error_within_statistical_bound(n):
    # relative error stays below K sqrt(kappa) eps with K = 100, where kappa
    # is the worst per-order condition number (attained at m = 1)
    sv = np.linalg.svd(build_R(n - 1, 1), compute_uv=False)
    kappa_max = sv[0] / sv[-1]
    bound = 100.0 * np.sqrt(kappa_max) * np.finfo(np.float64).eps
    s, t = random_potentials(n, seed=n)
    result = decompose(differentiate(s, t))
    err = max(
        relative_l2_error(result.spheroidal, s),
        relative_l2_error(result.toroidal, t),
    )
    assert err <= bound


def _assert_sweep_matches_lstsq(dense, sizes, rhs, got):
    """Problem ``k`` of a sweep against ``np.linalg.lstsq`` on its dense matrix ``dense[k]``."""
    x, res = got
    for k, p in enumerate(sizes.tolist()):
        b = rhs[: p + 1, :, k]
        ref, *_ = np.linalg.lstsq(dense[k], b, rcond=None)
        assert np.max(np.abs(x[:p, :, k] - ref), initial=0.0) <= 1e-11 * np.max(np.abs(ref), initial=0.0)
        assert not np.any(x[p:, :, k])
        want = np.linalg.norm(dense[k] @ ref - b, axis=0)
        assert_allclose(np.abs(res[k]), want, rtol=1e-10, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 3 * CHUNK_STEPS + 1),
    m0=st.integers(1, 4),
    nprob=st.integers(1, 6),
    r=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(p=CHUNK_STEPS - 1, m0=1, nprob=1, r=1, seed=0)
@example(p=2 * CHUNK_STEPS, m0=2, nprob=5, r=2, seed=1)
@example(p=2 * CHUNK_STEPS + 1, m0=3, nprob=6, r=4, seed=2)
def test_lsq_sweep_matches_dense_least_squares(p, m0, nprob, r, seed):
    # a block of consecutive orders: sizes p, p - 1, ... in one call; the
    # rows past each problem's own p_k + 1 are ignored
    n = p + m0
    ms = np.arange(m0, m0 + min(nprob, p))
    rhs = np.random.default_rng(seed).standard_normal((p + 1, r, len(ms)))
    dense = [build_A(n, m) + build_B(n, m) for m in ms.tolist()]
    sizes = n - ms
    _assert_sweep_matches_lstsq(dense, sizes, rhs, _lsq_sweep(*block_problems(n, ms), rhs.copy()))


@pytest.mark.parametrize("layout", ["orders", "folded"])
def test_lsq_sweep_ignores_rotations_past_each_size(layout):
    # the sweep itself zeroes the rotations and off-diagonals and puts unit
    # pivots off a problem's rows -- past its size and, in a folded lane, in
    # the gap between its two problems: any finite values there in the
    # rotations or the factor, and in the right-hand side off a problem's
    # rows, leave the solutions and residuals unchanged, even values that
    # would overflow the recurrence kernel's chunk responses
    n, low = 3 * CHUNK_STEPS + 2, np.arange(1, 7)
    # lane m holds order m, or orders m and n - m when folded
    segments, rotations, factor = _order_problems(n, _lanes(n, low, len(low) if layout == "folded" else 0)(0))
    (rows, nlanes), (starts, sizes) = rotations[0].shape, segments
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal((rows, 2, nlanes))
    live, used = np.zeros((2, rows, nlanes), dtype=bool)
    for k, (start, p) in enumerate(zip(starts.tolist(), sizes.tolist())):
        live[start : start + p, k % nlanes] = used[start : start + p + 1, k % nlanes] = True
    if layout == "folded":
        assert np.all(starts[nlanes:] > starts[:nlanes] + sizes[:nlanes] + 1)

    def noisy(grids, keep=live):
        return tuple(np.where(keep, x, rng.uniform(-1e300, 1e300, x.shape)) for x in grids)

    x, res = _lsq_sweep(segments, rotations, factor, rhs.copy())  # solved in place
    (rhs_noisy,) = noisy((rhs,), used[:, None])
    x_noisy, res_noisy = _lsq_sweep(segments, noisy(rotations), noisy(factor), rhs_noisy)
    assert np.array_equal(x_noisy, x)
    assert not np.any(np.where(live[:-1, None], 0.0, x))
    assert np.array_equal(res_noisy, res)
