"""Property tests of the decomposition over random small truncation degrees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherehhd import TangentField, ZSpectrum, build_A, decompose, differentiate, relative_l2_error, z_to_cscy
from spherehhd.operators import _dense_system
from spherehhd.solver import solve_order
from spherehhd.spectra import random_potentials

degrees = st.integers(min_value=2, max_value=48)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
coefficients = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
exponents = st.integers(min_value=-500, max_value=500)


def random_field(n, seed):
    """Tangential field with i.i.d. standard-normal coefficients."""
    rng = np.random.default_rng(seed)
    size = ZSpectrum(n).size
    return TangentField(ZSpectrum(n, rng.standard_normal(size)), ZSpectrum(n, rng.standard_normal(size)))


@settings(max_examples=30, deadline=None)
@given(n=degrees, seed=seeds, a=coefficients, b=coefficients)
def test_decompose_is_linear(n, seed, a, b):
    f1, f2 = random_field(n, seed), random_field(n, seed + 1)
    combined = TangentField(
        ZSpectrum(n, a * f1.theta.flat() + b * f2.theta.flat()),
        ZSpectrum(n, a * f1.phi.flat() + b * f2.phi.flat()),
    )
    r, r1, r2 = decompose(combined), decompose(f1), decompose(f2)
    for part in ("spheroidal", "toroidal"):
        p1, p2 = getattr(r1, part).flat(), getattr(r2, part).flat()
        deviation = np.linalg.norm(getattr(r, part).flat() - (a * p1 + b * p2))
        scale = abs(a) * np.linalg.norm(p1) + abs(b) * np.linalg.norm(p2)
        assert deviation <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(n=degrees, seed=seeds)
def test_differentiate_then_decompose_roundtrips(n, seed):
    s, t = random_potentials(n, seed)
    result = decompose(differentiate(s, t))
    assert relative_l2_error(result.spheroidal, s) <= 1e-12
    assert relative_l2_error(result.toroidal, t) <= 1e-12


def scaled(spec, k):
    return type(spec)(spec.n, np.ldexp(spec.flat(), k))


def assert_scaled_exactly(big, small, k):
    assert np.array_equal(big.flat(), np.ldexp(small.flat(), k))


@settings(max_examples=30, deadline=None)
@given(n=degrees, seed=seeds, k=exponents)
def test_differentiate_and_decompose_are_exact_under_power_of_two_scaling(n, seed, k):
    s, t = random_potentials(n, seed)
    field = differentiate(s, t)
    big_field = differentiate(scaled(s, k), scaled(t, k))
    assert_scaled_exactly(big_field.theta, field.theta, k)
    assert_scaled_exactly(big_field.phi, field.phi, k)
    noisy = random_field(n, seed)  # nonzero residuals and out-of-range content
    result = decompose(noisy)
    big = decompose(TangentField(scaled(noisy.theta, k), scaled(noisy.phi, k)))
    assert_scaled_exactly(big.spheroidal, result.spheroidal, k)
    assert_scaled_exactly(big.toroidal, result.toroidal, k)
    assert big.total_residual() == math.ldexp(result.total_residual(), k)
    assert big.total_out_of_range() == math.ldexp(result.total_out_of_range(), k)


@settings(max_examples=30, deadline=None)
@given(n=degrees, seed=seeds)
def test_content_in_orders_n_and_n_plus_1_is_reported_out_of_range(n, seed):
    rng = np.random.default_rng(seed)
    field = TangentField.zeros(n)
    for comp in (field.theta, field.phi):
        for m in (n, -n, n + 1, -(n + 1)):
            sl = comp.order_slice(m)
            sl[:] = rng.standard_normal(len(sl))
    result = decompose(field)
    assert not result.spheroidal.flat().any() and not result.toroidal.flat().any()
    assert result.total_out_of_range() == pytest.approx(field.norm(), rel=1e-14)


def assert_least_squares_optimal(dense, x, rhs, reported):
    """The residual is orthogonal to range(M), and ``reported`` is its norm."""
    r = dense @ x - rhs
    assert np.linalg.norm(dense.T @ r) <= 1e-12 * np.linalg.norm(dense) * np.linalg.norm(rhs)
    assert reported == pytest.approx(np.linalg.norm(r), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=24), seed=seeds)
def test_residual_is_orthogonal_to_the_range(n, seed):
    rng = np.random.default_rng(seed)
    for m in range(1, n):
        dense = _dense_system(n, m)
        rhs = rng.standard_normal((dense.shape[0], 2))
        x, residual = solve_order(n, m, rhs)
        assert_least_squares_optimal(dense, x, rhs, residual)
    # order zero, in closed form: random order-zero slices, two columns (theta and phi)
    field = TangentField.zeros(n)
    for comp in (field.theta, field.phi):
        comp.order_slice(0)[:] = rng.standard_normal(n)
    result = decompose(field)
    a0 = build_A(n, 0)
    w = np.column_stack([z_to_cscy(comp.order_slice(0), 0, n) for comp in (field.theta, field.phi)])
    x = np.column_stack([result.spheroidal.order_slice(0)[1:], result.toroidal.order_slice(0)[1:]])
    ref, *_ = np.linalg.lstsq(a0, w, rcond=None)
    assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert_least_squares_optimal(a0, x, w, result.residual_by_order[0])
