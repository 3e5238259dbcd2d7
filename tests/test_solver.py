import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spherehhd import recurrences as rec
from spherehhd.conditioning import build_R
from spherehhd.operators import CHUNK_STEPS, build_A, build_B, cscy_to_z, z_to_cscy
from spherehhd.solver import (
    BLOCK_ORDERS,
    _lsq_sweep,
    _order_problems,
    _order_zero_problems,
    decompose,
    decompose_order_zero,
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

from conftest import dense_block_system


def sweep_halves(n, m, rhs=None):
    """Run the sweep on the A + B and A - B halves of order ``m``.

    The kernel solves only A + B; A - B = -D (A + B) D with D = diag((-1)^i)
    turns the A - B half into A + B with right-hand side -D b, solution D y
    and factor D R D.  Returns, per half, the dense matrix, the solution, the
    residual and the dense triangular factor.
    """
    sizes, rotations, (d, e, f) = _order_problems(n, np.array([m]))
    p = int(sizes[0])
    if rhs is None:
        rhs = np.zeros((p + 1, 2, 1))
    r = rhs.shape[2]
    dq, dp = (-1.0) ** np.arange(p + 1), (-1.0) ** np.arange(p)
    both = np.concatenate([rhs[:, 0], -dq[:, None] * rhs[:, 1]], axis=1)[:, :, None]
    x, res = _lsq_sweep(sizes, rotations, (d, e, f), both)
    a, b = build_A(n, m).toarray(), build_B(n, m).toarray()
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
    d, e = factor[0][:p, k], factor[1][: p - 1, k]
    # a bidiagonal factor (d, e), order zero's, has no second superdiagonal: Q'M must have none
    f = factor[2][: max(p - 2, 0), k] if len(factor) == 3 else np.zeros(max(p - 2, 0))
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
            sizes, (c, s), factor = _order_problems(n, np.array([m]))
            p = int(sizes[0])
            closed = build_R(p, m)
            d, e, f = (x[:, 0] for x in factor)
            assert np.array_equal(d[:p], np.diagonal(closed))
            assert np.array_equal(e[: p - 1], np.diagonal(closed, 1))
            assert np.array_equal(f[: max(p - 2, 0)], np.diagonal(closed, 2))
            a, b = build_A(n, m).toarray(), build_B(n, m).toarray()
            flip = (-1.0) ** np.arange(1, p + 2)[:, None]
            for dense, cj, ej in ((a + b, c, e), (a - b, flip * c, -e)):
                columns = np.diagonal(dense, -1), np.diagonal(dense), np.r_[0.0, np.diagonal(dense, 1)]
                assert_rotations_give_factor((cj, s), (d[:, None], ej[:, None], f[:, None]), columns, p)
    # order zero: chain k holds the columns of parity k + 1 and rows of parity k of A0
    for n in range(2, 65):
        a0 = build_A(n, 0).toarray()
        sizes, rotations, factor = _order_zero_problems(n)
        for k, p in enumerate(sizes.tolist()):
            chain = a0[k::2, k::2]
            columns = np.diagonal(chain, -1), np.diagonal(chain), np.zeros(p)
            assert_rotations_give_factor(rotations, factor, columns, p, k)


@pytest.mark.parametrize(
    "n,m", [(4096, 1), (4096, 2), (4096, 3), (4096, 64), (4096, 1000), (4096, 4095), (4096, 0), (4097, 0)]
)
def test_closed_form_rotations_beyond_dense_oracles(n, m):
    # the same check at sizes past DENSE_ORACLE_LIMIT, with M from the
    # recurrences: A + B for m >= 1, and order zero's two parity chains
    if m == 0:
        sizes, rotations, factor = _order_zero_problems(n)
    else:
        sizes, rotations, factor = _order_problems(n, np.array([m]))
    for k, p in enumerate(sizes.tolist()):
        if m:  # column j: gamma in row j - 1, m in row j, delta in row j + 1
            degrees = m + np.arange(p)
            columns = rec.delta(degrees, m), np.full(p, float(m)), rec.gamma(degrees, m)
        else:  # column j: gamma in row j, delta in row j + 1
            degrees = 2 * np.arange(p) + k + 1
            columns = rec.delta(degrees, 0), rec.gamma(degrees, 0), np.zeros(p)
        assert_rotations_give_factor(rotations, factor, columns, p, k)


def test_order_zero_factor_is_exact_cholesky_factor():
    # in exact arithmetic R'R equals each chain's normal matrix M'M: the
    # squares of R's entries and of delta(l, 0), gamma(l, 0) are rational,
    # and R[j, j] > 0 > R[j, j + 1] while delta > 0 > gamma; the float
    # entries square to the rationals within 4 eps
    eps = np.finfo(np.float64).eps
    sizes, _, (d, e) = _order_zero_problems(17)
    for k, p in enumerate(sizes.tolist()):
        ls = [2 * j + k + 1 for j in range(p)]
        delta2 = [Fraction(l * l * (l + 1) ** 2, (2 * l + 1) * (2 * l + 3)) for l in ls]
        gamma2 = [Fraction((l + 1) ** 2 * l * l, (2 * l - 1) * (2 * l + 1)) for l in ls]
        top = [l * (l + 1) * (l + 2) * (l + 3) for l in ls]
        d2 = [Fraction(t, (2 * l + 1) * (2 * l + 3)) for t, l in zip(top, ls)]
        e2 = [Fraction(t, (2 * l + 3) * (2 * l + 5)) for t, l in zip(top, ls)]
        for j in range(p):
            # column j of M: gamma(l_j) in row j, delta(l_j) in row j + 1
            assert d2[j] + (e2[j - 1] if j else 0) == gamma2[j] + delta2[j]
            assert d[j, k] > 0.0 and abs(Fraction(d[j, k]) ** 2 - d2[j]) <= 4 * eps * d2[j]
            if j + 1 < p:
                assert d2[j] * e2[j] == delta2[j] * gamma2[j + 1]
                assert e[j, k] < 0.0 and abs(Fraction(e[j, k]) ** 2 - e2[j]) <= 4 * eps * e2[j]


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
    dense = dense_block_system(n, m)
    x_true = rng.standard_normal((dense.shape[1], 2))
    rhs = dense @ x_true
    x, res = solve_order(n, m, rhs)
    assert np.max(np.abs(x - x_true)) / np.max(np.abs(x_true)) < 1e-13
    assert res <= 1e-13 * np.linalg.norm(rhs)


@pytest.mark.parametrize("m", range(1, 12))
def test_solve_matches_dense_least_squares(m, rng):
    n = 12
    dense = dense_block_system(n, m)
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
    dense = dense_block_system(n, m)
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


def test_decompose_order_zero_direct_call():
    n = 10
    vs, vt, res = decompose_order_zero(np.zeros(n + 1), np.zeros(n + 1), n)
    assert not np.any(vs) and not np.any(vt) and res == 0.0
    with pytest.raises(ValueError):
        decompose_order_zero(np.zeros(n), np.zeros(n + 1), n)


@pytest.mark.parametrize("n", [0, 1])
def test_decompose_order_zero_rejects_tiny_degree(n):
    with pytest.raises(ValueError, match="n >= 2"):
        decompose_order_zero(np.zeros(n + 1), np.zeros(n + 1), n)


def test_decompose_order_zero_consistency():
    n = 12
    s, t = random_potentials(n, seed=21)
    field = differentiate(s, t)
    wth = z_to_cscy(field.theta.order_slice(0), 0, n)
    wph = z_to_cscy(field.phi.order_slice(0), 0, n)
    vs, vt, _ = decompose_order_zero(wth, wph, n)
    assert_allclose(vs, s.order_slice(0)[1:], atol=1e-13)
    assert_allclose(vt, t.order_slice(0)[1:], atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1), perturbed=st.booleans())
@example(n=2, seed=0, perturbed=True)
@example(n=BLOCK_ORDERS + 1, seed=1, perturbed=False)
@example(n=BLOCK_ORDERS + 2, seed=2, perturbed=True)
def test_decompose_solves_order_zero_in_the_first_block(n, seed, perturbed):
    # decompose sweeps order zero's two parity chains as two more problems of
    # its first block; decompose_order_zero sweeps them on the same n-row
    # grid, so both give the same bits.  A consistent order zero comes back,
    # and a perturbed one leaves a residual orthogonal to A0's range
    s, t = random_potentials(n, seed)
    field = differentiate(s, t)
    if perturbed:
        rng = np.random.default_rng(seed)
        for comp in (field.theta, field.phi):
            comp.flat()[:] += rng.standard_normal(comp.size)
    result = decompose(field)
    w = np.column_stack([z_to_cscy(comp.order_slice(0), 0, n) for comp in (field.theta, field.phi)])
    vs, vt, residual = decompose_order_zero(w[:, 0], w[:, 1], n)
    got = np.column_stack([result.spheroidal.order_slice(0), result.toroidal.order_slice(0)])
    assert np.array_equal(got[1:], np.column_stack([vs, vt])) and not np.any(got[0])
    assert result.residual_by_order[0] == residual
    a0 = build_A(n, 0).toarray()
    r = a0 @ got[1:] - w
    assert residual == pytest.approx(np.linalg.norm(r), rel=1e-9, abs=1e-13 * np.linalg.norm(w))
    assert np.max(np.abs(a0.T @ r)) <= 1e-12 * np.linalg.norm(a0) * np.linalg.norm(w)
    if not perturbed:
        truth = np.column_stack([s.order_slice(0), t.order_slice(0)])
        assert np.max(np.abs(got - truth)) <= 1e-13 * np.max(np.abs(truth))


@pytest.mark.parametrize("n", [2, 3])
def test_order_zero_in_a_small_first_block_matches_dense_least_squares(n):
    # at n = 2 and 3 the first block holds one or two orders, and the chains
    # (n // 2 + 1 rows) fill most of its n rows
    rng = np.random.default_rng(n)
    field = TangentField(ZSpectrum(n), ZSpectrum(n))
    for comp in (field.theta, field.phi):
        comp.flat()[:] = rng.standard_normal(comp.size)
    result = decompose(field)
    a0 = build_A(n, 0).toarray()
    w = np.column_stack([z_to_cscy(comp.order_slice(0), 0, n) for comp in (field.theta, field.phi)])
    ref, *_ = np.linalg.lstsq(a0, w, rcond=None)
    got = np.column_stack([result.spheroidal.order_slice(0)[1:], result.toroidal.order_slice(0)[1:]])
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert result.residual_by_order[0] == pytest.approx(np.linalg.norm(a0 @ ref - w), rel=1e-10)


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
    (lambda n: decompose_order_zero(np.zeros(4), np.zeros(4), n), 3.0, np.int64(3)),
    (lambda m: z_to_cscy(np.zeros(3), m, 2), 1.0, np.int64(1)),
    (lambda n: cscy_to_z(np.zeros(2), 1, n), 2.0, np.int64(2)),
], ids=["Z-float", "Y-bool", "Y-str", "solve-m", "solve-n", "order-zero-n", "z_to_cscy-m", "cscy_to_z-n"])
def test_degrees_and_orders_must_be_integers(call, bad, good):
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(repr(bad))}"):
        call(bad)
    call(good)


def test_order_zero_chain_shapes(rng):
    # A0 (10 x 8 at n = 9) splits into two 5 x 4 parity chains; a consistent
    # rhs comes back exactly, in natural degree order
    n = 9
    a0 = build_A(n, 0).toarray()
    assert a0.shape == (10, 8)
    vs_true, vt_true = rng.standard_normal((2, n - 1))
    vs, vt, res = decompose_order_zero(a0 @ vs_true, a0 @ vt_true, n)
    assert vs.shape == vt.shape == (n - 1,)
    assert_allclose(vs, vs_true, atol=1e-13)
    assert_allclose(vt, vt_true, atol=1e-13)
    assert res <= 1e-13


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
    theta, phi = rng.standard_normal((2, 11))
    phi[4] = value
    with pytest.raises(ValueError, match="phi_slice.* row 4"):
        decompose_order_zero(theta, phi, 10)


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
    """Problem ``k`` of a sweep against ``np.linalg.lstsq`` on its dense matrix ``dense[k]``.

    A problem may have no column (order zero's second chain at n = 2).
    """
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
    dense = [build_A(n, m).toarray() + build_B(n, m).toarray() for m in ms.tolist()]
    sizes = n - ms
    _assert_sweep_matches_lstsq(dense, sizes, rhs, _lsq_sweep(*_order_problems(n, ms), rhs))


@pytest.mark.parametrize("zero", [False, True], ids=["orders", "order-zero"])
def test_lsq_sweep_ignores_rotations_past_each_size(zero):
    # the sweep itself zeroes the rotations and off-diagonals and puts unit
    # pivots past a problem's size: any finite values there in the rotations
    # or the factor leave the solutions and residuals unchanged, even values
    # that would overflow the recurrence kernel's chunk responses
    n = 3 * CHUNK_STEPS + 2
    sizes, rotations, factor = _order_zero_problems(n) if zero else _order_problems(n, np.arange(1, 7))
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal((len(rotations[0]), 2, len(sizes)))
    past = np.arange(len(rotations[0]))[:, None] >= sizes

    def noisy(grids):
        return tuple(np.where(past, rng.uniform(-1e300, 1e300, x.shape), x) for x in grids)

    x, res = _lsq_sweep(sizes, rotations, factor, rhs)
    x_noisy, res_noisy = _lsq_sweep(sizes, noisy(rotations), noisy(factor), rhs)
    assert np.array_equal(x_noisy, x)
    assert not any(np.any(x[p:, :, k]) for k, p in enumerate(sizes.tolist()))
    assert np.array_equal(res_noisy, res)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6 * CHUNK_STEPS + 3), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=2 * CHUNK_STEPS, r=1, seed=0)
@example(n=2 * CHUNK_STEPS + 1, r=2, seed=1)
def test_order_zero_chains_match_dense_least_squares(n, r, seed):
    # chain k: potential degrees of parity k + 1 against rows of parity k of A0
    a0 = build_A(n, 0).toarray()
    sizes, rotations, factor = _order_zero_problems(n)
    dense = [a0[k::2, k::2] for k in range(2)]
    assert [d.shape for d in dense] == [(p + 1, p) for p in sizes.tolist()]
    rhs = np.random.default_rng(seed).standard_normal((n, r, 2))  # the grids' n rows
    _assert_sweep_matches_lstsq(dense, sizes, rhs, _lsq_sweep(sizes, rotations, factor, rhs))
