"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  The complexity criterion times decompositions up to degree
4096 and dominates the runtime of the suite.
"""

import math
import time

import numpy as np
import pytest

from spherehhd.conditioning import build_CD, build_R, kappa_bound, kappa_numeric
from spherehhd.operators import build_order_system
from spherehhd.pointwise import (
    GridSpec,
    analyze_z,
    eval_Y,
    eval_Z,
    eval_gradY,
    synthesize_from_potentials,
)
from spherehhd.recurrences import alpha, beta, chol_d, chol_e, chol_f, delta, gamma
from spherehhd.solver import decompose, differentiate, solve_order
from spherehhd.spectra import TangentField, ZSpectrum, new_scalar_spectrum, relative_l2_error
from spherehhd.verify import cholesky_deviations

from conftest import dense_block_system, random_potentials


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} ({name}): PASS - {detail}")


def test_criterion_01_roundtrip_accuracy():
    tol = 1e-12
    t0 = time.perf_counter()
    worst = 0.0
    for n in (16, 64, 256, 1024):
        for seed in range(1, 6):
            s, t = random_potentials(n, seed)
            result = decompose(differentiate(s, t))
            err = max(
                relative_l2_error(result.spheroidal, s),
                relative_l2_error(result.toroidal, t),
            )
            worst = max(worst, err)
            assert err <= tol, f"n={n} seed={seed}: {err:.3e}"
    elapsed = time.perf_counter() - t0
    _report(1, "roundtrip accuracy", f"max rel error {worst:.2e} <= {tol:.0e}, {elapsed:.1f}s")


def test_criterion_02_quadratic_complexity():
    sizes = (256, 512, 1024, 2048, 4096)
    decompose_times = []
    for n in sizes:
        s, t = random_potentials(n, seed=1)
        field = differentiate(s, t)
        t0 = time.perf_counter()
        decompose(field)
        decompose_times.append(time.perf_counter() - t0)
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
    worst = 0.0
    for n, m, dev in cholesky_deviations((4, 8, 16, 32, 64)):
        worst = max(worst, dev)
        assert dev <= tol, f"(n={n}, m={m}): {dev:.3e}"
    _report(3, "Cholesky identity", f"max relative deviation {worst:.2e} <= {tol:.0e}")


def test_criterion_04_condition_equalities():
    tol = 1e-10
    worst = 0.0
    for n in (8, 16, 32, 64):
        for m in range(1, n):
            rep = kappa_numeric(n, m)
            dev = abs(rep.kappa_M - rep.kappa_R) / rep.kappa_R
            worst = max(worst, dev)
            assert dev <= tol, f"(n={n}, m={m}): {dev:.3e}"
    for m in (1, 2, 3):
        n = 12
        dense = dense_block_system(n, m)
        ev_m = np.sort(np.linalg.eigvalsh(dense.T @ dense))
        c, d = build_CD(n, m)
        ev_cd = np.sort(np.linalg.eigvalsh(c.toarray() + d.toarray()))
        dev = float(np.max(np.abs(ev_m - np.sort(np.concatenate([ev_cd, ev_cd])))) / ev_m[-1])
        worst = max(worst, dev)
        assert dev <= tol, f"eigenvalue multisets at m={m}: {dev:.3e}"
    _report(4, "condition equalities", f"max relative deviation {worst:.2e} <= {tol:.0e}")


def test_criterion_05_condition_bounds():
    checked = 0
    for n in (8, 16, 32, 64):
        for m in range(1, n):
            rep = kappa_numeric(n, m)
            assert rep.kappa_R <= kappa_bound(n, m), f"(n={n}, m={m})"
            sv = np.linalg.svd(build_R(n - m, m).to_dense(), compute_uv=False)
            if m >= 2:
                assert sv[0] <= n + m + 1.5, f"sigma_max at (n={n}, m={m})"
                assert sv[-1] >= m - 1.5, f"sigma_min at (n={n}, m={m})"
            checked += 1
    _report(5, "condition-number bounds", f"both branches verified on {checked} (n, m) pairs")


def test_criterion_06_entry_bounds_and_row_sums():
    ls = np.arange(1, 10**4 + 1, dtype=np.float64)
    for m in range(1, 101):
        d = chol_d(ls, m)
        e = chol_e(ls, m)
        f = chol_f(ls, m)
        assert np.all(d <= (ls + 2 * m) / 2), f"d bound at m={m}"
        assert np.all(e <= 1.0), f"e bound at m={m}"
        assert np.all(f <= (ls + 1) / 2), f"f bound at m={m}"
        if m >= 2:
            assert np.all(d - e - f >= m - 1.5), f"row-sum bound at m={m}"
    assert chol_d(1, 2) == pytest.approx(math.sqrt(32 / 7), rel=1e-15)
    assert chol_e(1, 2) == pytest.approx(math.sqrt(1 / 2), rel=1e-15)
    assert chol_f(1, 2) == pytest.approx(math.sqrt(25 / 42), rel=1e-15)
    _report(6, "entry bounds", "verified for l <= 10^4, m <= 100; explicit values to 1e-15")


def test_criterion_07_structural_claims():
    for n in range(2, 257):
        for m in range(1, n):
            system = build_order_system(n, m)
            a, b = system.A, system.B
            assert a.shape == (n + 1 - m, n - m)
            assert not np.any(a.diagonal(0)), f"A diagonal at (n={n}, m={m})"
            assert a.lower_bw == 1 and a.upper_bw == 1
            assert b.lower_bw == 0 and b.upper_bw == 0
            assert np.all(b.diagonal(0) == m)
            lower, upper = system.shuffled.bandwidths_used()
            assert lower <= 2 and upper <= 2, f"bandwidths at (n={n}, m={m})"
    _report(7, "structural claims", "A, B and interleaved bandwidths verified for all n <= 256")


def test_criterion_08_oracle_equivalence():
    # quadrature route equals the spectral forward map
    worst_quad = 0.0
    for n in (2, 3, 4, 6, 8, 12, 16):
        s, t = random_potentials(n, seed=50 + n)
        grid = GridSpec.for_degree(n)
        vth, vph = synthesize_from_potentials(s, t, grid)
        via_quadrature = analyze_z(vth, vph, grid, n)
        spectral = differentiate(s, t)
        dev = max(
            float(np.max(np.abs(via_quadrature.theta.flat() - spectral.theta.flat()))),
            float(np.max(np.abs(via_quadrature.phi.flat() - spectral.phi.flat()))),
        )
        worst_quad = max(worst_quad, dev)
        assert dev <= 1e-10, f"quadrature oracle at n={n}: {dev:.3e}"

    # the least-squares sweep equals the dense oracle
    worst_ls = 0.0
    rng = np.random.default_rng(3)
    n = 12
    for m in range(1, n):
        dense = dense_block_system(n, m)
        rhs = rng.standard_normal((dense.shape[0], 2))
        x, _ = solve_order(n, m, rhs)
        x_ref, *_ = np.linalg.lstsq(dense, rhs, rcond=None)
        dev = float(np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref)))
        worst_ls = max(worst_ls, dev)
        assert dev <= 1e-11, f"dense-LS oracle at m={m}: {dev:.3e}"

    # the three pointwise recurrence identities
    worst_id = 0.0
    for th in np.linspace(0.15, np.pi - 0.15, 5):
        csc = 1.0 / math.sin(th)
        ph = 0.8
        for m in range(-20, 21):
            mu = abs(m)
            for l in range(max(abs(mu - 1), 1), 21):
                rhs_val = beta(l, mu) * eval_Y(l + 1, m, th, ph) * csc
                if l - 1 >= mu:
                    rhs_val += alpha(l, mu) * eval_Y(l - 1, m, th, ph) * csc
                sign = 1.0 if mu else -1.0
                worst_id = max(worst_id, abs(eval_Z(l, m, th, ph) - sign * rhs_val))
                if l < mu:
                    continue
                dth, dph = eval_gradY(l, m, th, ph)
                rhs_val = delta(l, mu) * eval_Y(l + 1, m, th, ph) * csc
                if l - 1 >= mu:
                    rhs_val += gamma(l, mu) * eval_Y(l - 1, m, th, ph) * csc
                worst_id = max(worst_id, abs(dth - rhs_val))
                worst_id = max(worst_id, abs(dph - (-m) * eval_Y(l, -m, th, ph) * csc))
    assert worst_id <= 1e-13
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
    s = new_scalar_spectrum(n - 1)
    t = new_scalar_spectrum(n - 1)
    t.order_slice(0)[1:] = rng.standard_normal(n - 1)
    result = decompose(differentiate(s, t))  # pure-toroidal order-zero data
    spher_norm = float(np.linalg.norm(result.spheroidal.order_slice(0)))
    assert spher_norm <= 1e-13
    s.order_slice(0)[1:] = rng.standard_normal(n - 1)
    t = new_scalar_spectrum(n - 1)
    result = decompose(differentiate(s, t))  # pure-spheroidal order-zero data
    tor_norm = float(np.linalg.norm(result.toroidal.order_slice(0)))
    assert tor_norm <= 1e-13
    _report(
        10,
        "order-zero separability",
        f"cross-talk norms {spher_norm:.2e} / {tor_norm:.2e} <= 1e-13",
    )
