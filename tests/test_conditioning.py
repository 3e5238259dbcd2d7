import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherehhd import conditioning
from spherehhd.conditioning import (
    block_a,
    block_a_inv,
    block_b,
    block_c,
    build_CD,
    build_R,
    condition_trend,
    inverse_norm_conjecture,
    inverse_norm_frobenius_bound,
    kappa_bound,
    kappa_numeric,
    qi_singular_bounds,
)
from spherehhd.operators import _dense_system
from spherehhd.recurrences import chol_d, chol_e, chol_f


def test_build_R_values():
    r = build_R(3, 2)
    assert r[0, 0] == pytest.approx(2.138089935299395, rel=1e-15)
    assert r[0, 0] == pytest.approx(math.sqrt(32 / 7), rel=1e-15)
    single = build_R(1, 1)
    assert single.shape == (1, 1)
    assert single[0, 0] == pytest.approx(math.sqrt(6 / 5), rel=1e-15)
    with pytest.raises(ValueError):
        build_R(0, 1)
    with pytest.raises(ValueError):
        build_R(3, 0)


def test_R_dense_layout():
    dense = build_R(4, 2)
    ell = np.arange(1, 5)
    assert np.array_equal(np.diagonal(dense), chol_d(ell, 2))
    assert np.array_equal(np.diagonal(dense, 1), -chol_e(ell[:3], 2))
    assert np.array_equal(np.diagonal(dense, 2), -chol_f(ell[:2], 2))
    assert dense[1, 0] == 0.0 and dense[0, 3] == 0.0
    assert np.all(np.triu(dense) == dense)


def test_CD_structure():
    cd, dd = build_CD(6, 2)
    # first sub/superdiagonals of C vanish, main diagonal of D vanishes
    assert not np.any(np.diagonal(cd, 1))
    assert not np.any(np.diagonal(cd, -1))
    assert not np.any(np.diagonal(dd))
    assert_allclose(cd, cd.T)
    assert_allclose(dd, dd.T)


def test_CD_symmetric_bit_exact():
    c, d = build_CD(10, 3)
    assert np.array_equal(c, c.T)
    assert np.array_equal(d, d.T)


def test_CD_structure_check_fires(monkeypatch):
    # a main diagonal in A keeps C and D inside their bands, but puts entries
    # on the first off-diagonals of C and on the diagonal of D
    true_build_A = conditioning.build_A

    def build_A_with_diagonal(n, m):
        a = true_build_A(n, m)
        np.fill_diagonal(a, 1.0)
        return a

    monkeypatch.setattr(conditioning, "build_A", build_A_with_diagonal)
    with pytest.raises(AssertionError, match="outside its structure"):
        build_CD(6, 2)


def test_kappa_bound_values():
    assert kappa_bound(10, 2) == pytest.approx(27.0, rel=1e-15)
    assert kappa_bound(10, 5) == pytest.approx(16.5 / 3.5, rel=1e-15)
    assert kappa_bound(8, 2) == pytest.approx(23.0, rel=1e-15)
    assert kappa_numeric(8, 2).kappa_M <= 23.0
    m1 = kappa_bound(100, 1)
    expected = 102.5 * 4.0 * math.exp(1.0 + 7.0 * math.pi**2 / 8.0) * (2.0 + math.log(100.0))
    assert m1 == pytest.approx(expected, rel=1e-15)


def test_kappa_numeric_equality_all_orders():
    for n in (8, 16):
        for m in range(1, n):
            rep = kappa_numeric(n, m)
            assert rep.kappa_R >= 1.0 and rep.kappa_M >= 1.0
            assert abs(rep.kappa_M - rep.kappa_R) / rep.kappa_R <= 1e-10
            assert rep.kappa_R <= rep.bound


def test_kappa_numeric_against_m1_bound():
    rep = kappa_numeric(100, 1)
    assert rep.kappa_R <= kappa_bound(100, 1)


def test_kappa_numeric_scale_guard():
    with pytest.raises(ValueError):
        kappa_numeric(1024, 2)


def test_condition_number_squares_under_normal_equations():
    # forming M'M squares the condition number: the reason the solver
    # never touches the normal equations
    rep = kappa_numeric(16, 1)
    dense = _dense_system(16, 1)
    ev = np.linalg.eigvalsh(dense.T @ dense)
    assert ev[-1] / ev[0] == pytest.approx(rep.kappa_M**2, rel=1e-8)


def test_qi_bounds_values():
    upper, lower = qi_singular_bounds(10, 2)
    assert upper <= 10 + 2 + 1.5
    assert lower >= 0.5
    upper1, lower1 = qi_singular_bounds(10, 1)
    assert lower1 is None
    assert upper1 <= 10 + 1 + 1.5


def test_qi_bounds_bracket_dense_singular_values():
    for n, m in ((32, 3), (24, 2), (40, 7)):
        upper, lower = qi_singular_bounds(n, m)
        sv = np.linalg.svd(build_R(n, m), compute_uv=False)
        assert sv[0] <= upper
        assert sv[-1] >= lower
    upper, _ = qi_singular_bounds(32, 1)
    sv = np.linalg.svd(build_R(32, 1), compute_uv=False)
    assert sv[0] <= upper


def test_blocked_pieces_match_R():
    # the 2x2 blocks tile the dense factor at m = 1
    nb = 4
    r = build_R(2 * nb, 1)
    for l in range(1, nb + 1):
        rows = slice(2 * l - 2, 2 * l)
        assert_allclose(block_a(l), r[rows, rows], atol=1e-15)
        if l < nb:
            cols = slice(2 * l, 2 * l + 2)
            assert_allclose(block_b(l), r[rows, cols], atol=1e-15)
    for l in range(1, nb + 1):
        assert_allclose(block_a_inv(l) @ block_a(l), np.eye(2), atol=1e-14)
        assert_allclose(block_c(l), -block_a_inv(l) @ block_b(l), atol=1e-15)


def test_block_a_inv_infinity_norm_bound():
    # ||a_l^{-1}||_inf <= 2/(l - 1/2), checked numerically over a long run
    for l in range(1, 1001):
        norm = np.max(np.sum(np.abs(block_a_inv(l)), axis=1))
        assert norm <= 2.0 / (l - 0.5) + 1e-15


def test_block_c_infinity_norm_bound():
    for l in range(1, 1001):
        norm = np.max(np.sum(np.abs(block_c(l)), axis=1))
        assert norm <= 1.0 + 0.5 / (l - 0.5) + 1.75 / (l - 0.5) ** 2 + 1e-15


def test_block_inverse_names_itself_below_degree_one():
    # block_c inverts the diagonal block first, and so stops at the same check
    for l in (0, -1):
        for block in (block_a_inv, block_c):
            with pytest.raises(ValueError, match="^block_a_inv: need l >= 1$"):
                block(l)


def test_condition_trend_names_itself_on_orders_outside_the_factor():
    for m in (7, 5, 0, -1):
        with pytest.raises(ValueError, match=f"^condition_trend: need 1 <= m <= n-1, got m={m}, n=5$"):
            condition_trend(5, orders=[m])
    with pytest.raises(ValueError, match="^condition_trend: m must be an integer"):
        condition_trend(5, orders=[2.5])
    assert sorted(condition_trend(5, orders=[1, 4])) == [1, 4]


def test_closed_form_c_matches_display():
    for l in (1, 2, 5, 9):
        d1, d2 = chol_d(2 * l - 1, 1), chol_d(2 * l, 1)
        e1, e2 = chol_e(2 * l - 1, 1), chol_e(2 * l, 1)
        f1, f2 = chol_f(2 * l - 1, 1), chol_f(2 * l, 1)
        expected = np.array(
            [
                [(f1 * d2 + e1 * e2) / (d1 * d2), e1 * f2 / (d1 * d2)],
                [e2 / d2, f2 / d2],
            ]
        )
        assert_allclose(block_c(l), expected, rtol=1e-14, atol=1e-15)


def test_inverse_norm_frobenius_bound():
    # dense ||R^{-1}||_2 at blocked size 2n stays below the proved bound
    for nb in (4, 8, 16):
        r = build_R(2 * nb, 1)
        inv_norm = np.linalg.svd(np.linalg.inv(r), compute_uv=False)[0]
        assert inv_norm <= inverse_norm_frobenius_bound(nb)
    # monotone increasing in the block count
    vals = [inverse_norm_frobenius_bound(k) for k in range(1, 30)]
    assert np.all(np.diff(vals) > 0.0)


def test_inverse_norm_conjecture_values():
    assert inverse_norm_conjecture(100) == pytest.approx((2 / math.pi) * math.log(102.5), rel=1e-15)
    assert inverse_norm_conjecture(2) == pytest.approx(0.9575254099589361, rel=1e-12)
    with pytest.raises(ValueError):
        inverse_norm_conjecture(1)


def test_inverse_norm_conjecture_is_in_the_ballpark():
    # reported estimate, soft-checked: within a factor of two of the dense value
    n = 64
    r = build_R(n, 1)
    inv_norm = np.linalg.svd(np.linalg.inv(r), compute_uv=False)[0]
    est = inverse_norm_conjecture(n)
    assert 0.5 <= inv_norm / est <= 2.0


def test_condition_decreases_with_order():
    # soft-asserted empirical trend at fixed truncation degree
    n = 64
    trend = condition_trend(n)
    ms = sorted(trend)
    ratios = [trend[b] / trend[a] for a, b in zip(ms, ms[1:])]
    assert max(ratios) <= 1.0 + 1e-8


def test_kappa_equals_sqrt_of_combined_block_condition():
    # kappa(M) = sqrt(kappa(C + D)) via the dense eigenvalue oracle
    for n, m in ((12, 1), (16, 4), (20, 9)):
        rep = kappa_numeric(n, m)
        c, d = build_CD(n, m)
        ev = np.linalg.eigvalsh(c + d)
        assert rep.kappa_M == pytest.approx(math.sqrt(ev[-1] / ev[0]), rel=1e-10)
