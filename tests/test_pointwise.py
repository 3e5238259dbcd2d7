import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherehhd.pointwise import (
    GridSpec,
    analyze_z,
    eval_Y,
    eval_Z,
    eval_gradY,
    legendre_table,
    synthesize,
    synthesize_from_potentials,
)
from spherehhd.spectra import ScalarSpectrum, TangentField, ZSpectrum, random_potentials

INTERIOR = [0.3, 1.1, 1.9, 2.7]


def test_legendre_constant():
    for x in (-0.9, 0.0, 0.7):
        assert legendre_table(0, 0, x)[-1] == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_legendre_degree_one():
    assert legendre_table(0, 1, 1.0)[-1] == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert legendre_table(0, 1, 0.5)[-1] == pytest.approx(math.sqrt(1.5) * 0.5, rel=1e-14)


def test_legendre_sectorial_positive():
    # the Condon-Shortley phase is cancelled by the normalization prefactor
    for m in range(1, 6):
        assert legendre_table(m, m, 0.3)[-1] > 0.0


def test_legendre_orthonormality_by_quadrature():
    x, w = np.polynomial.legendre.leggauss(32)
    for m in (0, 1, 3):
        tab = legendre_table(m, 20, x)
        gram = (tab * w) @ tab.T
        assert_allclose(gram, np.eye(tab.shape[0]), atol=1e-13)


def test_legendre_domain_errors():
    with pytest.raises(ValueError, match=r"^legendre_table: need lmax >= m, got lmax=2, m=3$"):
        legendre_table(3, 2, 0.5)
    with pytest.raises(ValueError, match=r"^legendre_table: abscissae must lie in \[-1, 1\]$"):
        legendre_table(1, 2, 1.5)


@pytest.mark.parametrize("x", [np.nan, [0.5, np.nan], -np.inf])
def test_legendre_refuses_non_finite_abscissae(x):
    # a NaN passes a test of |x| > 1, and would fill the table past its seed with NaN
    with pytest.raises(ValueError, match=r"^legendre_table: abscissae must lie in \[-1, 1\]$"):
        legendre_table(0, 2, x)


def test_eval_refuses_a_nan_colatitude():
    # and an infinite colatitude or a NaN longitude, under the evaluator's own
    # name, before cos(inf) warns or a NaN longitude passes through to the value
    cases = ((np.array([0.5, np.nan]), 0.5, "theta: non-finite value in row 1"),
             (np.inf, 0.5, "theta: non-finite value in row 0"), (0.5, np.nan, "phi: non-finite value in row 0"))
    for theta, phi, message in cases:
        for evaluate in (eval_Y, eval_Z, eval_gradY):
            with pytest.raises(ValueError, match=f"^{evaluate.__name__}: {message}$"):
                evaluate(2, 1, theta, phi)


def test_gauss_grid_integrates_polynomials_exactly():
    grid = GridSpec(12, 8)
    for k in range(2 * 12):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(np.sum(grid.weights * grid.x**k) - exact) < 1e-13


def test_eval_Y_constant_mode():
    for th in INTERIOR:
        assert eval_Y(0, 0, th, 1.3) == pytest.approx(0.28209479177387814, rel=1e-15)


def test_eval_Z_low_order():
    for th in INTERIOR:
        assert eval_Z(0, 1, th, 0.0) == pytest.approx(0.3989422804014327, rel=1e-15)


def test_eval_Y_index_error():
    with pytest.raises(ValueError, match=r"^eval_Y: \(l=1, m=2\) outside basis Y$"):
        eval_Y(1, 2, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"^eval_Z: \(l=0, m=2\) outside basis Z$"):
        eval_Z(0, 2, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"^eval_Z: \(l=0, m=0\) outside basis Z$"):
        eval_Z(0, 0, 0.5, 0.5)


def test_z_orthonormal_on_sphere():
    n = 10
    grid = GridSpec.for_degree(n)
    modes = [(l, m) for m in range(-3, 4) for l in range(abs(abs(m) - 1), 5)]
    scale = 2 * np.pi / grid.n_phi
    for li, mi in modes:
        zi = eval_Z(li, mi, grid.theta[:, None], grid.phi[None, :])
        for lj, mj in modes:
            zj = eval_Z(lj, mj, grid.theta[:, None], grid.phi[None, :])
            val = float(np.sum(grid.weights[:, None] * zi * zj) * scale)
            expected = 1.0 if (li, mi) == (lj, mj) else 0.0
            assert abs(val - expected) < 1e-12


def test_gradient_zero_for_constant():
    th_comp, ph_comp = eval_gradY(0, 0, 1.0, 2.0)
    assert th_comp == 0.0 and ph_comp == 0.0


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    for _ in range(100):
        l = int(rng.integers(1, 9))
        m = int(rng.integers(-l, l + 1))
        th = float(rng.uniform(0.2, np.pi - 0.2))
        ph = float(rng.uniform(0.0, 2 * np.pi))
        gth, gph = eval_gradY(l, m, th, ph)
        fd_th = (eval_Y(l, m, th + h, ph) - eval_Y(l, m, th - h, ph)) / (2 * h)
        fd_ph = (eval_Y(l, m, th, ph + h) - eval_Y(l, m, th, ph - h)) / (2 * h) / math.sin(th)
        assert abs(gth - fd_th) < 1e-7
        assert abs(gph - fd_ph) < 1e-7


def test_gradient_specific_values():
    # central difference at a fixed interior point
    h = 1e-5
    gth, _ = eval_gradY(3, 2, 1.0, 0.3)
    fd = (eval_Y(3, 2, 1.0 + h, 0.3) - eval_Y(3, 2, 1.0 - h, 0.3)) / (2 * h)
    assert abs(gth - fd) < 1e-8
    # d/dphi cos(phi) vanishes at phi = 0
    _, gph = eval_gradY(1, 1, np.pi / 2, 0.0)
    assert abs(gph) < 1e-15


def test_gradient_pole_rejected():
    with pytest.raises(ValueError):
        eval_gradY(2, 1, 0.0, 0.3)


def test_synthesize_zero_field():
    grid = GridSpec.for_degree(4)
    vth, vph = synthesize(TangentField.zeros(4), grid)
    assert not np.any(vth) and not np.any(vph)


def test_synthesize_single_mode_matches_eval():
    n = 6
    field = TangentField.zeros(n)
    field.theta[3, 2] = 1.0
    grid = GridSpec.for_degree(n)
    vth, vph = synthesize(field, grid)
    expected = eval_Z(3, 2, grid.theta[:, None], grid.phi[None, :])
    assert_allclose(vth, expected, atol=1e-14)
    assert not np.any(vph)


def test_analyze_synthesize_roundtrip(rng):
    n = 10
    field = TangentField(ZSpectrum(n), ZSpectrum(n))
    field.theta.flat()[:] = rng.standard_normal(field.theta.size)
    field.phi.flat()[:] = rng.standard_normal(field.phi.size)
    grid = GridSpec.for_degree(n)
    vth, vph = synthesize(field, grid)
    back = analyze_z(vth, vph, grid, n)
    assert np.max(np.abs(back.theta.flat() - field.theta.flat())) < 1e-12
    assert np.max(np.abs(back.phi.flat() - field.phi.flat())) < 1e-12


def test_analyze_zero_samples():
    n = 5
    grid = GridSpec.for_degree(n)
    zero = np.zeros((grid.n_theta, grid.n_phi))
    out = analyze_z(zero, zero, grid, n)
    assert out.theta.norm() == 0.0 and out.phi.norm() == 0.0


def test_analyze_single_mode():
    n = 6
    grid = GridSpec.for_degree(n)
    samples = eval_Z(2, 1, grid.theta[:, None], grid.phi[None, :])
    out = analyze_z(samples, np.zeros_like(samples), grid, n)
    assert out.theta[2, 1] == pytest.approx(1.0, abs=1e-13)
    rest = out.theta.flat().copy()
    rest[np.abs(rest - 1.0) < 1e-10] = 0.0
    assert np.max(np.abs(rest)) < 1e-13


def test_under_resolved_grid_rejected():
    grid = GridSpec(4, 8)
    message = r"^GridSpec\.check_resolves: grid \(4, 8\) under-resolves degree n=6$"
    with pytest.raises(ValueError, match=message):
        analyze_z(np.zeros((4, 8)), np.zeros((4, 8)), grid, 6)
    with pytest.raises(ValueError, match=message):
        synthesize(TangentField.zeros(6), grid)


def test_synthesis_checks_its_input_under_its_own_name():
    # as differentiate and decompose do: the type, one degree, finite coefficients
    n = 4
    grid = GridSpec.for_degree(n)
    s, t = random_potentials(n, seed=5)
    field = TangentField.zeros(n)
    field.phi[2, -3] = np.nan
    with pytest.raises(ValueError, match=r"^synthesize: phi: non-finite coefficient nan at \(l=2, m=-3\)$"):
        synthesize(field, grid)
    with pytest.raises(ValueError, match="^synthesize: the field must be a TangentField$"):
        synthesize(field.theta, grid)
    with pytest.raises(ValueError, match="^synthesize_from_potentials: potentials must be basis-Y spectra"):
        synthesize_from_potentials(field, t, grid)
    with pytest.raises(ValueError, match="^synthesize_from_potentials: potentials must share a degree$"):
        synthesize_from_potentials(s, ScalarSpectrum(n - 2), grid)
    t[1, 0] = np.inf
    with pytest.raises(ValueError, match=r"^synthesize_from_potentials: t: non-finite coefficient inf at \(l=1, m=0\)$"):
        synthesize_from_potentials(s, t, grid)


@pytest.mark.parametrize("bad", [2.5, True, -3])
def test_a_degree_is_checked_under_the_callers_name(bad):
    # a degree that is not a nonnegative integer is an error naming the call
    # it was passed to, not a method or class that call reaches
    grid = GridSpec.for_degree(4)
    zero = np.zeros((grid.n_theta, grid.n_phi))
    with pytest.raises(ValueError, match=r"^GridSpec\.check_resolves: "):
        grid.check_resolves(bad)
    with pytest.raises(ValueError, match="^analyze_z: "):
        analyze_z(zero, zero, grid, bad)


def test_analyze_rejects_non_finite_samples():
    # named by array and by its first row (colatitude node) that holds one
    n = 4
    grid = GridSpec.for_degree(n)
    for name, row, value in (("vphi", 3, np.nan), ("vtheta", 0, -np.inf)):
        samples = {"vtheta": np.zeros((grid.n_theta, grid.n_phi)), "vphi": np.zeros((grid.n_theta, grid.n_phi))}
        samples[name][row, 2] = samples[name][-1, 0] = value
        with pytest.raises(ValueError, match=rf"^analyze_z: {name}: non-finite value in row {row}$"):
            analyze_z(samples["vtheta"], samples["vphi"], grid, n)


def test_synthesis_routes_agree():
    n = 12
    s, t = random_potentials(n, seed=31)
    grid = GridSpec.for_degree(n)
    from spherehhd.solver import differentiate

    via_field = synthesize(differentiate(s, t), grid)
    via_potentials = synthesize_from_potentials(s, t, grid)
    assert np.max(np.abs(via_field[0] - via_potentials[0])) < 1e-11
    assert np.max(np.abs(via_field[1] - via_potentials[1])) < 1e-11
