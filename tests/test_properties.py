"""Property tests of the decomposition over random small truncation degrees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spherehhd import TangentField, ZSpectrum, decompose, differentiate, relative_l2_error

from conftest import random_potentials

degrees = st.integers(min_value=2, max_value=48)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
coefficients = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


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
