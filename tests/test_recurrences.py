import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherehhd import recurrences as rec
from spherehhd.conditioning import build_R
from spherehhd.recurrences import alpha, beta, gamma, delta, chol_d, chol_e, chol_f
from spherehhd.solver import _cscy_to_z_block, _lane_grid, _lanes, _order_problems, _z_to_cscy_block, decompose, differentiate
from spherehhd.spectra import random_potentials


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
        # degrees and orders must be finite integers; NaN passes every comparison with a bound
        (alpha, np.nan, 1),
        (alpha, 2.5, 1),
        (beta, 3, np.nan),
        (beta, np.inf, 1),
        (gamma, -np.inf, 0),
        (gamma, 3, 2.5),
        (delta, 2.5, 0),
        (delta, 3, np.inf),
        (chol_d, np.nan, 1),
        (chol_d, 3, -np.inf),
        (chol_e, np.inf, 1),
        (chol_f, 3, 2.5),
        (chol_f, np.array([1.0, 2.0, np.nan]), 1),
        # nor is a bool, or an int past the float range, whose order is checked before any floor on l
        (alpha, True, 1),
        (chol_d, True, 1),
        (beta, 2, True),
        (gamma, np.array([True, True]), 0),
        pytest.param(alpha, 10**400, 1, id="alpha-huge-l"),
        pytest.param(gamma, 10**400, 2, id="gamma-huge-l"),
        pytest.param(alpha, 3, 10**400, id="alpha-huge-m"),
        pytest.param(delta, [3, -(10**400)], 0, id="delta-huge-negative-l"),
        # nor a complex number, whose imaginary part would be dropped, a string or None
        pytest.param(alpha, 3 + 2j, 1, id="alpha-complex-l"),
        pytest.param(chol_d, 2j, 1, id="chol_d-complex-l"),
        pytest.param(beta, 3, 1 + 0j, id="beta-complex-m"),
        pytest.param(alpha, "4", 1, id="alpha-string-l"),
        pytest.param(gamma, 3, "1", id="gamma-string-m"),
        pytest.param(alpha, None, 1, id="alpha-none-l"),
        pytest.param(chol_e, 3, None, id="chol_e-none-m"),
        pytest.param(delta, [3, None], 0, id="delta-none-entry"),
    ],
)
def test_domain_violations_raise(fn, l, m):
    name = "chol_d/e/f" if fn.__name__.startswith("chol_") else fn.__name__  # one checked pass gives all three
    with pytest.raises(ValueError, match=f"^{name}: "):
        fn(l, m)


# the first offending entry, in the floor wording of every integer argument; a degree's floor follows its order
@pytest.mark.parametrize("fn,l,m,message", [
    (delta, np.arange(1, 6), 2, "delta: degree l must be >= 2, got 1 at m=2"),
    (alpha, 2, 3, "alpha: degree l must be >= 3, got 2 at m=3"),
    (alpha, np.arange(3, 9), -1, "alpha: order m must be >= 0, got -1"),
    (beta, np.array([2, -1, -2]), 0, "beta: degree l must be >= 0, got -1 at m=0"),
    (gamma, np.array([[3], [1]]), np.array([[0, 2]]), "gamma: degree l must be >= 2, got 1 at m=2"),
    (delta, 4, np.array([1, -3, -1]), "delta: order m must be >= 0, got -3"),
    (chol_e, 0, 2, "chol_d/e/f: degree l must be >= 1, got 0 at m=2"),
    (chol_f, 3, np.array([2, 0]), "chol_d/e/f: order m must be >= 1, got 0"),
    (chol_d, np.array([2.0, 3.0 + 0j]), 1, "chol_d/e/f: degree l must be a finite integer, got (2+0j)"),
    (alpha, np.array(["4"]), 1, "alpha: degree l must be a finite integer, got '4'"),
    (beta, 3, [1, None], "beta: order m must be a finite integer, got None"),
], ids=["delta-l", "alpha-l", "alpha-m", "beta-l", "gamma-grid", "delta-m", "chol-l", "chol-m", "chol-complex",
        "alpha-string", "beta-none"])
def test_domain_errors_name_the_first_offending_entry(fn, l, m, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(l, m)


def test_integers_of_every_type_give_the_same_coefficients():
    # numpy integers and integer-valued floats pass the check as Python ints do, to the bit
    for fn in (alpha, beta, gamma, delta, chol_d, chol_e, chol_f):
        assert fn(np.int64(5), np.uint8(2)) == fn(5.0, 2.0) == fn(5, 2)
        assert np.array_equal(fn(np.array([5, 6], dtype=np.int32), 2), fn([5.0, 6.0], np.float64(2)))


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


# the closed forms written out once more, in Python integer arithmetic: one
# correctly rounded division and square root each, as numpy's are
_REFERENCE = {
    "alpha": lambda l, m: -math.sqrt((l - m) * (l - m + 1) / ((2 * l - 1) * (2 * l + 1))),
    "beta": lambda l, m: math.sqrt((l + m) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3))),
    "gamma": lambda l, m: -(l + 1) * math.sqrt((l - m) * (l + m) / ((2 * l - 1) * (2 * l + 1))),
    "delta": lambda l, m: l * math.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3))),
    "c": lambda l, m: math.sqrt((m + 1) * (2 * l + 2 * m + 1) / ((l + m + 1) * (l + 2 * m + 1))),
    "s": lambda l, m: math.sqrt(l * (l + m) / ((l + m + 1) * (l + 2 * m + 1))),
    "d": lambda l, m: (l + m - 1) * math.sqrt(
        (l + m + 1) * (l + 2 * m) * (l + 2 * m + 1) / ((l + m) * (2 * l + 2 * m - 1) * (2 * l + 2 * m + 1))
    ),
    "e": lambda l, m: math.sqrt(l * (l + 2 * m + 1) / ((l + m) * (l + m + 1))),
    "f": lambda l, m: (l + m + 2) * math.sqrt(
        l * (l + 1) * (l + m) / ((l + m + 1) * (2 * l + 2 * m + 1) * (2 * l + 2 * m + 3))
    ),
}


def _reference(name, l, m, shift=0):
    """``_REFERENCE[name]`` at ``(l + shift, m)`` over the broadcast grid."""
    grid_l, grid_m = np.broadcast_arrays(l, m)
    values = [_REFERENCE[name](int(a) + shift, int(b)) for a, b in zip(grid_l.ravel(), grid_m.ravel())]
    return np.reshape(values, grid_l.shape)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 64),
    first=st.integers(1, 63),
    width=st.integers(1, 63),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_evaluators_match_the_checked_coefficients(n, first, width, seed):
    # record every grid the solver and the block conversions hand to the
    # private evaluators -- decompose and differentiate, plus one random
    # ascending range of orders -- and compare each output bit for bit with
    # the public checked functions, build_R's factor and the closed forms
    # evaluated entry by entry in Python
    calls = []

    def recorder(name):
        true = getattr(rec, name)

        def wrapper(l, m):
            out = true(l, m)  # recorded as returned: the solver scales some outputs in place
            calls.append((name, l, m, [[np.copy(x) for x in o] if isinstance(o, tuple) else np.copy(o) for o in out]))
            return out

        return wrapper

    ms = np.arange(min(first, n - 1), min(first + width, n))
    rows = n - ms[0] + 2
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_qr", "_conversion", "_derivative"):
            mp.setattr(rec, name, recorder(name))
        decompose(differentiate(*random_potentials(n, seed)))
        _, ends, grid, _ = _lanes(n, ms, 0, {})
        _order_problems(n, ends, grid)
        grid = _lane_grid(ms, rows)
        _cscy_to_z_block(_z_to_cscy_block(np.ones((rows + 1, 1, len(ms))), grid, {}), grid, {})
    assert {call[0] for call in calls} == {"_qr", "_conversion", "_derivative"}
    for name, l, m, out in calls:
        if name == "_conversion":
            assert np.array_equal(out[0], alpha(l, m)) and np.array_equal(out[0], _reference("alpha", l, m))
            assert np.array_equal(out[1], beta(l - 2, m)) and np.array_equal(out[1], _reference("beta", l, m, -2))
        elif name == "_derivative":
            assert np.array_equal(out[0], gamma(l, m)) and np.array_equal(out[0], _reference("gamma", l, m))
            assert np.array_equal(out[1], delta(l - 1, m))
            assert np.array_equal(out[1], _reference("delta", l, m, -1))
        else:
            (c, s), (d, e, f) = out
            assert np.array_equal(d, chol_d(l, m)) and np.array_equal(e, chol_e(l, m))
            assert np.array_equal(f, chol_f(l, m))
            for have, key in ((c, "c"), (s, "s"), (d, "d"), (e, "e"), (f, "f")):
                assert np.array_equal(have, _reference(key, l, m))
            # from the first row of each order in a lane, its n - m columns are build_R's
            for k, lane in enumerate(np.broadcast_to(m, l.shape).T):
                for mk in np.unique(lane).astype(int).tolist():
                    start, p = int(np.argmax(lane == mk)), n - mk
                    r = build_R(p, mk)
                    assert np.array_equal(d[start : start + p, k], np.diagonal(r))
                    assert np.array_equal(-e[start : start + p - 1, k], np.diagonal(r, 1))
                    assert np.array_equal(-f[start : start + max(p - 2, 0), k], np.diagonal(r, 2))


def test_grid_evaluators_reject_an_out_of_domain_corner():
    # the O(1) check reads the grid's first entries: degree l = 0, order
    # m = 0 for the factor, and l = m - 1 for gamma all lie outside
    ms = np.arange(3, 7)
    column = np.arange(5.0)[:, None]
    for evaluator in (rec._qr, rec._conversion, rec._derivative):
        evaluator(ms + 1 + column, ms)  # the solver's grid
        with pytest.raises(ValueError):
            evaluator(column, ms)
    with pytest.raises(ValueError):
        rec._qr(column + 1, ms - 3)
    with pytest.raises(ValueError):
        rec._derivative(ms - 1 + column, ms)
