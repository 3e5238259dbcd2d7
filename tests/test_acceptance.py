"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria 01 and 03-08 run the checks of :mod:`spherehhd.verify` (the ones
``spherehhd verify`` runs) at the criteria's own sizes, seeds and nodes,
and assert every item they yield.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion PASS
lines.  The complexity criterion times decompositions up to degree 4096
and dominates the runtime of the suite.
"""

import math
import time

import numpy as np
import pytest

from spherehhd import verify
from spherehhd.recurrences import chol_d, chol_e, chol_f
from spherehhd.solver import decompose, differentiate, solve_order
from spherehhd.spectra import ScalarSpectrum, TangentField, ZSpectrum, random_potentials


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} ({name}): PASS - {detail}")


def _within(tol, items):
    """Assert each ``(where, deviation)`` of a verify check is at most ``tol``; returns the worst.

    A check that yields nothing fails: it would pass without checking.
    """
    worst = None
    for where, dev in items:
        assert dev <= tol, f"{where}: {dev:.3e} > {tol:.0e}"
        worst = dev if worst is None else max(worst, dev)
    assert worst is not None, "the check yielded no item"
    return worst


@pytest.mark.parametrize("items", [[], [("a", 0.0), ("b", math.nan)]], ids=["empty", "nan"])
def test_a_check_without_a_verdict_fails(monkeypatch, items):
    # a check that yields nothing, or NaN, fails a criterion and its suite alike
    with pytest.raises(AssertionError):
        _within(1.0, iter(items))
    monkeypatch.setattr(verify, "SUITES", [("stub", lambda: iter(items), 1.0, (), ())])
    assert [ok for _, ok, _ in verify.run_verification("quick")] == [False]


def test_criterion_01_roundtrip_accuracy():
    tol = 1e-12
    t0 = time.perf_counter()
    worst = _within(tol, verify.roundtrip_deviations((16, 64, 256, 1024), range(1, 6)))
    elapsed = time.perf_counter() - t0
    _report(1, "roundtrip accuracy", f"max rel error {worst:.2e} <= {tol:.0e}, {elapsed:.1f}s")


def test_criterion_02_quadratic_complexity():
    sizes = (256, 512, 1024, 2048, 4096)
    # three passes over all sizes in turn, each size keeping its fastest
    # call, so that one slow call cannot tilt the fit
    fields = [differentiate(*random_potentials(n, seed=1)) for n in sizes]
    decompose_times = [math.inf] * len(sizes)
    for _ in range(3):
        for k, field in enumerate(fields):
            t0 = time.perf_counter()
            decompose(field)
            decompose_times[k] = min(decompose_times[k], time.perf_counter() - t0)
    del fields
    slope = np.polyfit(np.log(sizes), np.log(decompose_times), 1)[0]
    assert 1.7 <= slope <= 2.3, f"decompose-time slope {slope:.2f}"

    # a one-order solve at fixed m scales linearly in n - m.  A sample times
    # enough back-to-back calls to last about 20 ms, so that millisecond
    # changes in machine speed average out inside it; the passes sweep all
    # sizes in turn, so a slower stretch reaches every size rather than only
    # the last ones, and each size keeps its fastest sample
    m = 1
    rng = np.random.default_rng(0)
    rhs_by_size = [rng.standard_normal((2 * (n + 1 - m), 2)) for n in sizes]
    calls = []
    for n, rhs in zip(sizes, rhs_by_size):
        t0 = time.perf_counter()
        solve_order(n, m, rhs)
        calls.append(math.ceil(0.02 / (time.perf_counter() - t0)))
    per_order = [math.inf] * len(sizes)
    for _ in range(9):
        for k, (n, rhs) in enumerate(zip(sizes, rhs_by_size)):
            t0 = time.perf_counter()
            for _ in range(calls[k]):
                solve_order(n, m, rhs)
            per_order[k] = min(per_order[k], (time.perf_counter() - t0) / calls[k])
    lin_slope = np.polyfit(np.log([n - m for n in sizes]), np.log(per_order), 1)[0]
    assert 0.8 <= lin_slope <= 1.2, f"per-order slope {lin_slope:.2f}"
    _report(
        2,
        "O(n^2) complexity",
        f"decompose slope {slope:.2f} in [1.7, 2.3]; per-order slope {lin_slope:.2f} in [0.8, 1.2]",
    )


def test_criterion_03_cholesky_identity():
    tol = 1e-13
    worst = _within(tol, verify.cholesky_deviations((4, 8, 16, 32, 64)))
    _report(3, "Cholesky identity", f"max relative deviation {worst:.2e} <= {tol:.0e}")


def test_criterion_04_condition_equalities():
    tol = 1e-10
    worst = max(_within(tol, verify.condition_deviations((8, 16, 32, 64))),
                _within(tol, verify.eigenvalue_deviations(12, (1, 2, 3))))
    _report(4, "condition equalities", f"max relative deviation {worst:.2e} <= {tol:.0e}")


def test_criterion_05_condition_bounds():
    # kappa_R <= kappa_bound and the singular-value brackets, at every (n, m)
    worst = _within(0.0, verify.condition_bound_excess((8, 16, 32, 64)))
    _report(5, "condition-number bounds", f"both branches hold, worst excess {worst:.2e}")


def test_criterion_06_entry_bounds_and_row_sums():
    worst = _within(0.0, verify.entry_bound_excess(10**4, 100))
    assert chol_d(1, 2) == pytest.approx(math.sqrt(32 / 7), rel=1e-15, abs=0)
    assert chol_e(1, 2) == pytest.approx(math.sqrt(1 / 2), rel=1e-15, abs=0)
    assert chol_f(1, 2) == pytest.approx(math.sqrt(25 / 42), rel=1e-15, abs=0)
    _report(6, "entry bounds", f"l <= 10^4, m <= 100, worst excess {worst:.2e}; "
                               "explicit values to 1e-15")


def test_criterion_07_structural_claims():
    _within(0.0, verify.structure_deviations(range(2, 257)))
    _report(7, "structural claims", "A, B and interleaved bandwidths verified for all n <= 256")


def test_criterion_08_oracle_equivalence():
    worst_quad = _within(1e-10, verify.quadrature_deviations((2, 3, 4, 6, 8, 12, 16), 50))
    worst_ls = _within(1e-11, verify.lstsq_deviations(12, 3))
    nodes = [(th, 0.8) for th in np.linspace(0.15, np.pi - 0.15, 5)]
    worst_id = _within(1e-13, verify.identity_deviations(20, nodes))
    _report(
        8,
        "oracle equivalence",
        f"quadrature {worst_quad:.2e} <= 1e-10; dense LS {worst_ls:.2e} <= 1e-11; "
        f"identities {worst_id:.2e} <= 1e-13",
    )


def test_criterion_09_normalization():
    # the constant modes of both potentials are exactly zero for any input
    for n, seed in ((8, 1), (16, 2), (33, 3)):
        s, t = random_potentials(n, seed)
        result = decompose(differentiate(s, t))
        assert result.spheroidal[0, 0] == 0.0
        assert result.toroidal[0, 0] == 0.0
    rng = np.random.default_rng(12)
    field = TangentField(ZSpectrum(10), ZSpectrum(10))
    field.theta.flat()[:] = rng.standard_normal(field.theta.size)
    field.phi.flat()[:] = rng.standard_normal(field.phi.size)
    result = decompose(field)
    assert result.spheroidal[0, 0] == 0.0
    assert result.toroidal[0, 0] == 0.0
    _report(9, "normalization", "constant modes identically zero on all tested inputs")


def test_criterion_10_order_zero_separability():
    n = 16
    rng = np.random.default_rng(6)
    s = ScalarSpectrum(n - 1)
    t = ScalarSpectrum(n - 1)
    t.order_slice(0)[1:] = rng.standard_normal(n - 1)
    result = decompose(differentiate(s, t))  # pure-toroidal order-zero data
    spher_norm = float(np.linalg.norm(result.spheroidal.order_slice(0)))
    assert spher_norm <= 1e-13
    s.order_slice(0)[1:] = rng.standard_normal(n - 1)
    t = ScalarSpectrum(n - 1)
    result = decompose(differentiate(s, t))  # pure-spheroidal order-zero data
    tor_norm = float(np.linalg.norm(result.toroidal.order_slice(0)))
    assert tor_norm <= 1e-13
    _report(
        10,
        "order-zero separability",
        f"cross-talk norms {spher_norm:.2e} / {tor_norm:.2e} <= 1e-13",
    )
