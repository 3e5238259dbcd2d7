import math

import numpy as np
import pytest

from spherehhd.recurrences import alpha, beta, gamma, delta, chol_d, chol_e, chol_f


def test_alpha_values():
    assert alpha(2, 2) == 0.0
    assert alpha(2, 1) == pytest.approx(-0.3651483716701107, abs=1e-15)
    assert alpha(1, 0) == pytest.approx(-0.816496580927726, abs=1e-15)


def test_beta_values():
    assert beta(0, 0) == 0.0
    assert beta(1, 1) == pytest.approx(0.6324555320336759, abs=1e-15)
    assert beta(3, 2) == pytest.approx(0.6900655593423543, abs=1e-15)


def test_gamma_values():
    assert gamma(1, 1) == 0.0
    assert gamma(2, 1) == pytest.approx(-1.3416407864998738, abs=1e-15)
    assert gamma(2, 0) == pytest.approx(-1.5491933384829666, abs=1e-15)


def test_delta_values():
    assert delta(0, 0) == 0.0
    assert delta(1, 1) == pytest.approx(0.4472135954999579, abs=1e-15)
    assert delta(2, 1) == pytest.approx(0.9561828874675149, abs=1e-15)


def test_cholesky_entry_values():
    # the explicit entries appearing in the row-sum estimate at (l=1, m=2)
    assert chol_d(1, 2) == pytest.approx(math.sqrt(32 / 7), rel=1e-15, abs=0)
    assert chol_e(1, 2) == pytest.approx(math.sqrt(1 / 2), rel=1e-15, abs=0)
    assert chol_f(1, 2) == pytest.approx(math.sqrt(25 / 42), rel=1e-15, abs=0)
    assert chol_d(1, 1) == pytest.approx(math.sqrt(6 / 5), rel=1e-15, abs=0)


def test_chol_e_bounded_for_huge_degree():
    assert chol_e(10**6, 1) < 1.0


@pytest.mark.parametrize(
    "fn,l,m",
    [
        (alpha, 0, 0),
        (alpha, 1, 2),
        (gamma, 0, 0),
        (gamma, 2, 3),
        (delta, 1, 2),
        (chol_d, 0, 1),
        (chol_d, 1, 0),
        (chol_e, 1, 0),
        (chol_f, 0, 2),
    ],
)
def test_domain_violations_raise(fn, l, m):
    with pytest.raises(ValueError):
        fn(l, m)


def test_negative_order_raises():
    with pytest.raises(ValueError):
        beta(3, -1)


def test_signs_on_valid_domain():
    ls = np.arange(1, 200)
    for m in (0, 1, 3, 7):
        sub = ls[ls >= m]
        assert np.all(alpha(sub, m) <= 0.0)
        assert np.all(beta(sub, m) >= 0.0)
        assert np.all(gamma(sub, m) <= 0.0)
        assert np.all(delta(sub, m) >= 0.0)
    assert np.all(beta(ls, 2) > 0.0)  # strictly positive once l + m >= 1


def test_entry_upper_bounds_full_grid():
    # d <= (l + 2m)/2, e <= 1, f <= (l+1)/2 over the full check grid
    ls = np.arange(1, 10**4 + 1, dtype=np.float64)
    for m in range(1, 101):
        assert np.all(chol_d(ls, m) <= (ls + 2 * m) / 2)
        assert np.all(chol_e(ls, m) <= 1.0)
        assert np.all(chol_f(ls, m) <= (ls + 1) / 2)


def test_row_sum_lower_bound_grid():
    ls = np.arange(1, 10**4 + 1, dtype=np.float64)
    for m in range(2, 101):
        rows = chol_d(ls, m) - chol_e(ls, m) - chol_f(ls, m)
        assert np.all(rows >= m - 1.5)


def test_diagonal_entries_increase_in_degree():
    ls = np.arange(1, 5001, dtype=np.float64)
    for m in (1, 2, 5, 40, 100):
        assert np.all(np.diff(chol_d(ls, m)) > 0.0)


def test_order_one_ratio_estimates():
    # e_l/d_l <= 2/(l+1) and f_l/d_l <= 1 - 1/l + 5/(2 l (l+2)) at m = 1
    ls = np.arange(1, 10**4 + 1, dtype=np.float64)
    d = chol_d(ls, 1)
    assert np.all(chol_e(ls, 1) / d <= 2.0 / (ls + 1))
    assert np.all(chol_f(ls, 1) / d <= 1.0 - 1.0 / ls + 5.0 / (2 * ls * (ls + 2)))


def test_array_and_scalar_agree():
    ls = np.array([1, 2, 5, 9])
    vals = beta(ls, 2)
    assert vals.shape == (4,)
    assert vals[2] == beta(5, 2)
