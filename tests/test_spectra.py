import builtins
import io
import math
import os
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
        "# basis=Y n=1_0\n",  # int() reads 10, a row's parser rejects it
        "# basis=Y n=\u0661\u0662\n",  # Arabic-Indic digits: int() reads 12
        "# basis=Y n=2\n1,1\n",  # short row
        "# basis=Y n=2\n1,2,1.0\n",  # |m| > l for the scalar basis
        "# basis=Z n=2\n0,2,1.0\n",  # l < ||m|-1| for the tangential basis
        "# basis=Y n=2\n1,1,nan\n",  # non-finite value
        "# basis=Y n=2\n1,1,inf\n",
    ],
)
def test_read_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError):
        read_spectrum(path)


def _read_both_forms(path, plain, decorated):
    """What ``read_spectrum`` makes of ``path`` holding ``plain``, then ``decorated``.

    ``plain`` holds a header, rows and blank lines only, so one ``np.loadtxt``
    reads the open file; ``decorated`` is the same file, line for line, with
    a comment and an indented row, so its lines go through the filter.  Both
    must give a bit-identical spectrum or the same ``path:lineno: message``,
    which is returned (a message as the string).
    """
    outcomes = []
    for text in (plain, decorated):
        path.write_text(text)
        try:
            outcomes.append(read_spectrum(path))
        except ValueError as exc:
            outcomes.append(str(exc))
    first, second = outcomes
    if isinstance(first, str) or isinstance(second, str):
        assert first == second
    else:
        assert type(first) is type(second) and first.n == second.n
        assert np.array_equal(first.flat().view(np.int64), second.flat().view(np.int64))
    return first


def test_read_locates_a_bad_row_of_a_plain_file_in_the_open_file(tmp_path, monkeypatch):
    # the duplicate is found after parsing: its line comes from the handle
    # that was parsed, not from opening the path again
    path = tmp_path / "dup.csv"
    path.write_text("# basis=Y n=2\n1,1,1.0\n2,0,3.0\n1,1,2.0\n")
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda *args, **kw: opened.append(args[0]) or real_open(*args, **kw))
    with pytest.raises(ValueError) as info:
        read_spectrum(path)
    assert str(info.value) == f"{path}:4: duplicate row for (l=1, m=1)"
    assert opened == [path]


def test_read_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "dup.csv"
    message = _read_both_forms(
        path,
        "# basis=Y n=2\n1,1,1.0\n2,0,3.0\n1,1,2.0\n\n",
        "# basis=Y n=2\n1,1,1.0\n  2,0,3.0\n1,1,2.0\n# the end\n",
    )
    assert message == f"{path}:4: duplicate row for (l=1, m=1)"


# comment, blank and whitespace-only lines and an indented row come before
# the bad row, so the reported number must count every line of the file, not
# only data rows; _BLANK_LINES holds the same rows with blank lines only
_SKIPPED_LINES = "# basis=Y n=2\n0,0,1.0\n# a comment\n\n   \n  # indented comment\n  1,0,2.0\n"
_BLANK_LINES = "# basis=Y n=2\n0,0,1.0\n\n\n\n\n1,0,2.0\n"


@pytest.mark.parametrize(
    "bad_row",
    [
        "1,x,1.0",  # malformed index
        "1,1,1.0x",  # malformed value
        "1,1,1.0 # trailing text",  # a comment is a whole line, never a row's tail
        "1,1",  # short row
        "1,1,1.0,2.0",  # long row
        "1,1,nan",  # non-finite value
        "1,1,-inf",
        "1,2,1.0",  # |m| > l: outside the index set
        "3,0,1.0",  # l > n
    ],
)
def test_read_reports_file_line_of_bad_row(tmp_path, bad_row):
    path = tmp_path / "bad.csv"
    rest = bad_row + "\n2,2,3.0\n"
    message = _read_both_forms(path, _BLANK_LINES + rest, _SKIPPED_LINES + rest)
    assert message.startswith(f"{path}:8: ")


def test_read_skips_comment_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text(_SKIPPED_LINES + "\t\n2,-2,3.0\n   # the end\n")
    spec = read_spectrum(path)
    assert (spec[0, 0], spec[1, 0], spec[2, -2]) == (1.0, 2.0, 3.0)
    assert np.count_nonzero(spec.flat()) == 3


def test_read_rows_in_any_order(tmp_path):
    spec = _read_both_forms(
        tmp_path / "shuffled.csv",
        "# basis=Z n=1\n\n1,-2,4.0\n0,1,1.0\n1,0,2.0\n1,-1,3.0\n",
        "# basis=Z n=1\n# a comment\n1,-2,4.0\n0,1,1.0\n1,0,2.0\n 1 , -1 , 3.0 \n",
    )
    assert (spec[1, -2], spec[0, 1], spec[1, 0], spec[1, -1]) == (4.0, 1.0, 2.0, 3.0)
    assert np.count_nonzero(spec.flat()) == 4


@pytest.mark.parametrize("rows", ["", "# only a comment\n\n"])
def test_read_header_only_file_is_zero_without_warning(tmp_path, rows):
    path = tmp_path / "empty.csv"
    path.write_text("# basis=Z n=3\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = read_spectrum(path)
    assert type(spec) is ZSpectrum and spec.n == 3
    assert not np.any(spec.flat())


@pytest.mark.parametrize(
    "row",
    [
        "99999999999999999999,0,1.0",  # overflows int64
        "-99999999999999999999,0,1.0",
        "1,-9223372036854775808,1.0",  # int64 minimum: abs() of it stays negative
        "1.0,0,1.0",  # an index is an integer, not a float spelling of one
        "1,0.0,1.0",
        "1e0,0,1.0",
    ],
)
def test_read_rejects_non_integer_and_overflowing_indices(tmp_path, row):
    path = tmp_path / "index.csv"
    message = _read_both_forms(
        path, "# basis=Y n=2\n\n" + row + "\n", "# basis=Y n=2\n# a comment\n  " + row + "\n"
    )
    assert message.startswith(f"{path}:3: ")


@pytest.mark.parametrize("odd", ["\x0c", "\x1c"])
def test_read_skips_form_feed_and_separator_lines(tmp_path, odd):
    # loadtxt alone would take such a line for a short row: the line filter
    # must read the file, and skip the line as whitespace
    path = tmp_path / "odd.csv"
    path.write_text(f"# basis=Y n=1\n0,0,1.0\n{odd}\n1,-1,2.0\n")
    spec = read_spectrum(path)
    assert (spec[0, 0], spec[1, -1]) == (1.0, 2.0)
    assert np.count_nonzero(spec.flat()) == 2


def test_read_hands_writer_files_to_loadtxt_whole(tmp_path, monkeypatch):
    # a writer-made file reaches loadtxt as the open file; a comment line
    # sends the same rows through the line filter
    seen = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kw: seen.append(lines) or loadtxt(lines, **kw))
    path = tmp_path / "spec.csv"
    spec = random_spectrum(4, seed=3)
    write_spectrum(spec, path)
    plain = read_spectrum(path)
    path.write_text(path.read_text() + "# the end\n")
    decorated = read_spectrum(path)
    assert isinstance(seen[0], io.TextIOBase) and not isinstance(seen[1], io.TextIOBase)
    assert np.array_equal(plain.flat(), spec.flat()) and np.array_equal(decorated.flat(), spec.flat())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_pipe(tmp_path):
    # a pipe cannot be scanned and read again: it must still read, unscanned
    spec = random_spectrum(4, seed=5)
    write_spectrum(spec, tmp_path / "spec.csv")
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=((tmp_path / "spec.csv").read_text(),))
    writer.start()
    back = read_spectrum(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back.flat(), spec.flat())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("body,expected", [
    ("# a comment\n1,x,1.0\n", ":3: malformed row '1,x,1.0'"),
    ("1,1,1.0\n\n# a comment\n1,1,2.0\n", ":5: duplicate row for (l=1, m=1)"),
], ids=["malformed", "duplicate"])
def test_read_reports_file_line_of_bad_row_in_a_pipe(tmp_path, body, expected):
    # a pipe cannot be read again: opening it a second time would wait for a
    # writer that is gone, so the reader runs in a thread and a hang fails
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    outcome = []

    def read():
        try:
            read_spectrum(fifo)
        except ValueError as exc:
            outcome.append(str(exc))

    threads = [threading.Thread(target=fifo.write_text, args=("# basis=Y n=2\n" + body,), daemon=True),
               threading.Thread(target=read, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert outcome == [f"{fifo}{expected}"]


@pytest.mark.parametrize("content", [
    b"# basis=Y n=2\xff\n0,0,1.0\n",
    b"# basis=Y n=300\n" + b"0,0,1.0\n" * 20000 + b"1,\xff,1.0\n",
], ids=["header", "deep-in-body"])
def test_read_names_the_file_of_a_byte_that_is_not_utf8(tmp_path, content):
    path = tmp_path / "bytes.csv"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
        read_spectrum(path)


def test_read_rejects_digit_group_underscores(tmp_path):
    # Python's int() and float() accept "1_0"; the file format never used
    # them (the writer emits none) and the reader's parser rejects them
    path = tmp_path / "underscore.csv"
    path.write_text("# basis=Y n=20\n1_0,0,1.0\n")
    with pytest.raises(ValueError, match=r"underscore\.csv:2: "):
        read_spectrum(path)


def test_write_exact_text(tmp_path):
    y = ScalarSpectrum(1)
    y[0, 0], y[1, 0], y[1, 1], y[1, -1] = 0.5, -0.0, 1e-308, -1.7976931348623157e308
    z = ZSpectrum(1, np.array([1 / 3, 2.0**-1074, -2.5, 1e300, 0.0, 7.0, -1e-5]))
    expected = {
        "y.csv": (
            "# basis=Y n=1\n"
            "0,0,5.0000000000000000e-01\n"
            "1,0,-0.0000000000000000e+00\n"
            "1,1,9.9999999999999991e-309\n"
            "1,-1,-1.7976931348623157e+308\n"
        ),
        "z.csv": (
            "# basis=Z n=1\n"
            "1,0,3.3333333333333331e-01\n"
            "0,1,4.9406564584124654e-324\n"
            "1,1,-2.5000000000000000e+00\n"
            "0,-1,1.0000000000000001e+300\n"
            "1,-1,0.0000000000000000e+00\n"
            "1,2,7.0000000000000000e+00\n"
            "1,-2,-1.0000000000000001e-05\n"
        ),
    }
    for name, spec in (("y.csv", y), ("z.csv", z)):
        write_spectrum(spec, tmp_path / name)
        assert (tmp_path / name).read_bytes() == expected[name].encode()


@st.composite
def spectra(draw):
    cls = draw(st.sampled_from([ScalarSpectrum, ZSpectrum]))
    n = draw(st.integers(min_value=0, max_value=40))
    finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals, +-0.0 and +-max included
    return cls(n, draw(hnp.arrays(np.float64, cls(n).size, elements=finite)))


@settings(max_examples=40, deadline=None)
@given(spec=spectra())
def test_write_read_roundtrip_is_bit_exact(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.csv"
        write_spectrum(spec, path)
        back = read_spectrum(path)
    assert type(back) is type(spec) and back.n == spec.n
    assert np.array_equal(back.flat().view(np.int64), spec.flat().view(np.int64))


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


@pytest.mark.parametrize("theta,phi", [(ScalarSpectrum(4), ScalarSpectrum(4)),
                                       (ZSpectrum(4), ScalarSpectrum(4))])
def test_tangent_field_rejects_non_z_components(theta, phi):
    with pytest.raises(ValueError, match="basis-Z"):
        TangentField(theta, phi)


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


@settings(max_examples=40, deadline=None)
@given(cls=st.sampled_from([ScalarSpectrum, ZSpectrum]), n=st.integers(0, 40))
def test_order_offsets_match_order_slices(cls, n):
    spec = cls(n, np.arange(float(cls(n).size)))  # entries name their position
    # the order slices tile the storage in canonical order
    assert np.array_equal(np.concatenate([spec.order_slice(m) for m in spec.orders()]), spec.flat())
    # the label of every position names that position
    assert [spec.flat_index(l, m) for l, m in zip(*spec._labels())] == list(range(spec.size))
    # the elementwise membership rule agrees with flat_index, one past every
    # edge and at the int64 extremes, where abs(m) would wrap
    top = spec.max_order()
    orders = [*range(-top - 1, top + 2), 2**63 - 1, -(2**63 - 1), -(2**63)]
    l, m = np.meshgrid(np.arange(-1, n + 2), orders)
    held = spec._holds(l, m)
    for li, mi, inside in zip(l.ravel().tolist(), m.ravel().tolist(), held.ravel().tolist()):
        try:
            spec.flat_index(li, mi)
        except ValueError:
            assert not inside
        else:
            assert inside


@settings(max_examples=60, deadline=None)
@given(cls=st.sampled_from([ScalarSpectrum, ZSpectrum]), n=st.integers(0, 12), data=st.data(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_require_finite_names_the_non_finite_entry(cls, n, data, bad):
    spec = cls(n)
    l, m = data.draw(st.sampled_from([(l, m) for m in spec.orders()
                                      for l in range(spec.degree_start(m), n + 1)]))
    spec[l, m] = bad
    with pytest.raises(ValueError, match=rf"^field: non-finite coefficient .* at \(l={l}, m={m}\)$"):
        spec.require_finite("field")
