import math

import numpy as np
import pytest

from spherehhd.spectra import (
    HHDResult,
    ScalarSpectrum,
    TangentField,
    ZSpectrum,
    new_scalar_spectrum,
    new_z_spectrum,
    random_spectrum,
    read_spectrum,
    relative_l2_error,
    write_spectrum,
)


@pytest.mark.parametrize("n_pot,count", [(0, 1), (2, 9), (5, 36)])
def test_scalar_spectrum_size(n_pot, count):
    spec = new_scalar_spectrum(n_pot)
    assert spec.size == count == (n_pot + 1) ** 2
    assert not np.any(spec.flat())


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_z_spectrum_size(n):
    spec = new_z_spectrum(n)
    # orders |m| <= n+1, degrees ||m|-1|..n
    expected = sum(
        n - abs(abs(m) - 1) + 1
        for m in range(-(n + 1), n + 2)
        if abs(abs(m) - 1) <= n
    )
    assert spec.size == expected == n * n + 4 * n + 2


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        new_scalar_spectrum(-1)


def test_index_validation():
    spec = new_scalar_spectrum(3)
    spec[2, -2] = 1.5
    assert spec[2, -2] == 1.5
    with pytest.raises(ValueError):
        spec[1, 2]
    with pytest.raises(ValueError):
        spec[4, 0]
    z = new_z_spectrum(3)
    z[0, 1] = 2.0
    assert z[0, 1] == 2.0
    with pytest.raises(ValueError):
        z[0, 2]  # l < ||m|-1|


def test_random_spectrum_deterministic():
    a = random_spectrum(3, seed=42)
    b = random_spectrum(3, seed=42)
    assert np.array_equal(a.flat(), b.flat())
    c = random_spectrum(3, seed=43)
    assert not np.array_equal(a.flat(), c.flat())


def test_random_spectrum_moments():
    draws = random_spectrum(999, seed=7).flat()  # 10^6 draws
    assert abs(draws.mean()) < 0.01
    assert 0.99 <= draws.var() <= 1.01


def test_relative_l2_error_basic():
    x = random_spectrum(4, seed=1)
    assert relative_l2_error(x, x) == 0.0
    two_x = ScalarSpectrum(4, 2.0 * x.flat())
    assert relative_l2_error(two_x, x) == pytest.approx(1.0, rel=1e-14)


def test_relative_l2_error_matches_flat_vectors():
    a = random_spectrum(4, seed=11)
    b = random_spectrum(4, seed=12)
    expected = np.linalg.norm(a.flat() - b.flat()) / np.linalg.norm(b.flat())
    assert relative_l2_error(a, b) == pytest.approx(expected, rel=1e-15)


def test_relative_l2_error_zero_reference():
    a = random_spectrum(3, seed=5)
    zero = new_scalar_spectrum(3)
    assert relative_l2_error(a, zero) == pytest.approx(np.linalg.norm(a.flat()))


def test_relative_l2_error_flattening_order_invariant(rng):
    # the error is a norm ratio, so any fixed reordering of entries gives the same value
    a = random_spectrum(5, seed=2)
    b = random_spectrum(5, seed=3)
    perm = rng.permutation(a.size)
    direct = relative_l2_error(a, b)
    permuted = np.linalg.norm(a.flat()[perm] - b.flat()[perm]) / np.linalg.norm(b.flat()[perm])
    assert direct == pytest.approx(permuted, rel=1e-15)


def test_relative_l2_error_mismatch_raises():
    with pytest.raises(ValueError):
        relative_l2_error(random_spectrum(3, 1), random_spectrum(4, 1))


@pytest.mark.parametrize("cls,n", [(ScalarSpectrum, 3), (ZSpectrum, 3), (ZSpectrum, 0)])
def test_serialization_roundtrip_bit_exact(tmp_path, cls, n):
    spec = cls(n)
    rng = np.random.default_rng(99)
    spec.flat()[:] = rng.standard_normal(spec.size)
    path = tmp_path / "spec.csv"
    write_spectrum(spec, path)
    back = read_spectrum(path)
    assert type(back) is cls
    assert back.n == n
    assert np.array_equal(back.flat(), spec.flat())


def test_serialization_extreme_values_bit_exact(tmp_path):
    spec = new_scalar_spectrum(1)
    spec[0, 0] = 1e-308  # subnormal neighborhood
    spec[1, -1] = -1.7976931348623157e308  # largest finite magnitude
    spec[1, 0] = -0.0
    spec[1, 1] = 1.0 / 3.0
    path = tmp_path / "extreme.csv"
    write_spectrum(spec, path)
    back = read_spectrum(path)
    assert np.array_equal(back.flat(), spec.flat())
    assert np.signbit(back[1, 0])


def test_read_missing_rows_are_zero(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("# basis=Y n=2\n1,1,5.0000000000000000e-01\n")
    spec = read_spectrum(path)
    assert spec[1, 1] == 0.5
    assert spec.norm() == 0.5


@pytest.mark.parametrize(
    "content",
    [
        "basis=Y n=2\n",  # missing comment marker
        "# basis=Q n=2\n",  # unknown basis
        "# basis=Y n=x\n",  # bad degree
        "# basis=Y n=2\n1,1\n",  # short row
        "# basis=Y n=2\n1,2,1.0\n",  # |m| > l for the scalar basis
        "# basis=Z n=2\n0,2,1.0\n",  # l < ||m|-1| for the tangential basis
        "# basis=Y n=2\n1,1,nan\n",  # non-finite value
        "# basis=Y n=2\n1,1,inf\n",
    ],
)
def test_read_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError):
        read_spectrum(path)


def test_read_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("# basis=Y n=2\n1,1,1.0\n2,0,3.0\n1,1,2.0\n")
    with pytest.raises(ValueError, match=r"dup\.csv:4: duplicate row for \(l=1, m=1\)"):
        read_spectrum(path)


def test_read_rejects_unallocatable_header_degree(tmp_path):
    # (10**8 + 1)**2 coefficients are ~71 PiB: the table must be refused up
    # front, as a ValueError naming the file and the degree
    path = tmp_path / "huge.csv"
    path.write_text("# basis=Y n=100000000\n")
    with pytest.raises(ValueError, match=r"huge\.csv: degree n=100000000"):
        read_spectrum(path)


def test_tangent_field_requires_matching_degree():
    with pytest.raises(ValueError):
        TangentField(ZSpectrum(3), ZSpectrum(4))
    field = TangentField.zeros(5)
    assert field.n == 5
    assert field.norm() == 0.0


def test_order_slices_are_contiguous_views():
    spec = new_scalar_spectrum(4)
    sl = spec.order_slice(-2)
    sl[:] = 7.0
    assert spec[2, -2] == 7.0
    assert spec[3, -2] == 7.0
    assert sl.base is spec.flat() or sl.base is spec.flat().base


def test_hhd_result_totals():
    result = HHDResult(new_scalar_spectrum(2), new_scalar_spectrum(2))
    result.residual_by_order = {0: 3.0, 1: 4.0}
    result.out_of_range_by_order = {3: 1.0}
    assert result.total_residual() == pytest.approx(5.0)
    assert result.total_out_of_range() == pytest.approx(1.0)
    result.residual_by_order = {0: 3e300, 1: 4e300}  # squares would overflow
    assert result.total_residual() == pytest.approx(5e300)


@pytest.mark.parametrize("k", [600, -600])
def test_norms_are_exact_under_extreme_power_of_two_scaling(k, rng):
    # squares of 2**600 overflow and squares of 2**-600 underflow to zero
    a = ZSpectrum(6, rng.standard_normal(ZSpectrum(6).size))
    b = ZSpectrum(6, rng.standard_normal(ZSpectrum(6).size))
    big_a, big_b = (ZSpectrum(6, np.ldexp(x.flat(), k)) for x in (a, b))
    assert big_a.norm() == math.ldexp(a.norm(), k)
    assert TangentField(big_a, big_b).norm() == math.ldexp(TangentField(a, b).norm(), k)
    assert relative_l2_error(big_a, big_b) == relative_l2_error(a, b)
    assert relative_l2_error(big_a, ZSpectrum(6)) == math.ldexp(a.norm(), k)


def test_order_offsets_match_order_slices():
    for cls, n in ((ScalarSpectrum, 5), (ZSpectrum, 5), (ZSpectrum, 0)):
        spec = cls(n, np.arange(float(cls(n).size)))  # entries name their position
        orders = np.array(spec.orders())
        starts, counts = spec.order_offsets(orders)
        for m, start, count in zip(orders, starts, counts):
            assert np.array_equal(spec.order_slice(m), np.arange(start, start + count))
