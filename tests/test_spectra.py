import builtins
import io
import math
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spherehhd.solver import differentiate
from spherehhd.spectra import (
    HHDResult,
    ScalarSpectrum,
    TangentField,
    ZSpectrum,
    random_potentials,
    random_spectrum,
    read_spectrum,
    relative_l2_error,
    write_spectrum,
)


@pytest.mark.parametrize("n_pot,count", [(0, 1), (2, 9), (5, 36)])
def test_scalar_spectrum_size(n_pot, count):
    spec = ScalarSpectrum(n_pot)
    assert spec.size == count == (n_pot + 1) ** 2
    assert not np.any(spec.flat())


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_z_spectrum_size(n):
    spec = ZSpectrum(n)
    # orders |m| <= n+1, degrees ||m|-1|..n
    expected = sum(
        n - abs(abs(m) - 1) + 1
        for m in range(-(n + 1), n + 2)
        if abs(abs(m) - 1) <= n
    )
    assert spec.size == expected == n * n + 4 * n + 2


def test_index_validation():
    spec = ScalarSpectrum(3)
    spec[2, -2] = 1.5
    assert spec[2, -2] == 1.5
    # each accessor's error names the class and the method the caller called
    with pytest.raises(ValueError, match=r"^ScalarSpectrum\.__getitem__: \(l=1, m=2\) outside the basis-Y index set for n=3$"):
        spec[1, 2]
    with pytest.raises(ValueError, match=r"^ScalarSpectrum\.__setitem__: \(l=1, m=2\) outside the basis-Y index set for n=3$"):
        spec[1, 2] = 1.0
    with pytest.raises(ValueError, match=r"^ScalarSpectrum\.flat_index: \(l=1, m=2\) outside the basis-Y index set for n=3$"):
        spec.flat_index(1, 2)
    with pytest.raises(ValueError, match=r"^ScalarSpectrum\.set_order_slice: order 1: expected 3 values, got shape \(\)$"):
        spec.set_order_slice(1, 5.0)
    with pytest.raises(ValueError, match=r"^ScalarSpectrum\.set_order_slice: order 1: expected 3 values, got shape \(1, 3\)$"):
        spec.set_order_slice(1, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        spec[4, 0]
    z = ZSpectrum(3)
    z[0, 1] = 2.0
    assert z[0, 1] == 2.0
    with pytest.raises(ValueError):
        z[0, 2]  # l < ||m|-1|
    with pytest.raises(ValueError, match=r"^ZSpectrum\.order_slice: order 9 outside basis Z with n=3$"):
        z.order_slice(9)
    with pytest.raises(ValueError, match=r"^ZSpectrum\.set_order_slice: order 9 outside basis Z with n=3$"):
        z.set_order_slice(9, [1.0])
    with pytest.raises(ValueError, match=r"^ZSpectrum\.set_order_slice: order 1: expected 4 values, got 1$"):
        z.set_order_slice(1, [1.0])
    z.set_order_slice(1, np.arange(4.0))
    assert z.order_slice(1).tolist() == [0.0, 1.0, 2.0, 3.0]
    # a key that is not an (l, m) pair, a tuple of two entries, is refused by name, as a list is
    for key in (1, (1, 1, 1), (1,), [1, 1]):
        got = re.escape(repr(key))
        with pytest.raises(ValueError, match=rf"^ScalarSpectrum\.__getitem__: key must be a pair \(l, m\), got {got}$"):
            spec[key]
        with pytest.raises(ValueError, match=rf"^ScalarSpectrum\.__setitem__: key must be a pair \(l, m\), got {got}$"):
            spec[key] = 1.0


# values that are not real numbers, each refused under the accessor's name before anything is written
@pytest.mark.parametrize("call,message", [
    (lambda s: s.__setitem__((1, 1), None), r"__setitem__: values must be real numbers, got dtype object"),
    (lambda s: s.__setitem__((1, 1), "x"), r"__setitem__: values must be real numbers, got dtype <U1"),
    (lambda s: s.__setitem__((1, 1), b"x"), r"__setitem__: values must be real numbers, got dtype \|S1"),
    (lambda s: s.__setitem__((1, 1), 1 + 2j), r"__setitem__: values must be real, got complex input"),
    (lambda s: s.__setitem__((1, 1), [1.0]), r"__setitem__: expected one value, got shape \(1,\)"),
    (lambda s: s.__setitem__((1, 1), np.ones((1, 1))), r"__setitem__: expected one value, got shape \(1, 1\)"),
    (lambda s: s.set_order_slice(-1, [5.0, "x", 2.0]), r"set_order_slice: values must be real numbers, got dtype <U\d+"),
    (lambda s: s.set_order_slice(1, [None, 1.0, 2.0]), r"set_order_slice: values must be real numbers, got dtype object"),
    (lambda s: s.set_order_slice(1, [[1.0], [2.0, 3.0]]), r"set_order_slice: values must be real numbers, got a ragged sequence"),
    (lambda s: s.set_order_slice(1, [1.0, 2.0, 3j]), r"set_order_slice: values must be real, got complex input"),
], ids=["none", "str", "bytes", "complex", "list", "array", "slice-str", "slice-none", "slice-ragged", "slice-complex"])
def test_values_that_are_not_real_numbers_leave_the_table_unchanged(call, message):
    spec = random_spectrum(3, 7)
    before = spec.flat().tobytes()
    with pytest.raises(ValueError, match=rf"^ScalarSpectrum\.{message}$"):
        call(spec)
    assert spec.flat().tobytes() == before
    # one real number of any real dtype is stored as float64
    for value in (2, np.float32(0.5), True, np.array(-3.0)):
        spec[1, 1] = value
        assert spec[1, 1] == float(value)


def test_random_spectrum_deterministic():
    a = random_spectrum(3, seed=42)
    b = random_spectrum(3, seed=42)
    assert np.array_equal(a.flat(), b.flat())
    c = random_spectrum(3, seed=43)
    assert not np.array_equal(a.flat(), c.flat())


@pytest.mark.parametrize("seed", [-1, None, True, 2.5, "1"])
def test_random_spectrum_rejects_a_seed_that_is_no_nonnegative_integer(seed):
    # None would draw fresh entropy, so the spectrum could not be reproduced
    with pytest.raises(ValueError, match="^random_spectrum: seed"):
        random_spectrum(3, seed)
    assert random_spectrum(3, np.int64(5)).flat().tolist() == random_spectrum(3, 5).flat().tolist()


@pytest.mark.parametrize("n,message", [(0, "n must be >= 1, got 0"), (1.5, "n must be an integer, got 1.5")])
def test_random_potentials_names_itself(n, message):
    with pytest.raises(ValueError, match=f"^random_potentials: {re.escape(message)}$"):
        random_potentials(n, 1)


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
    zero = ScalarSpectrum(3)
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
    with pytest.raises(ValueError, match="^relative_l2_error: spectra must share basis and degree$"):
        relative_l2_error(random_spectrum(3, 1), random_spectrum(4, 1))
    with pytest.raises(ValueError, match="^relative_l2_error: spectra must share basis and degree$"):
        relative_l2_error(ScalarSpectrum(3), ZSpectrum(3))
    # a non-spectrum is refused by name, not met by an AttributeError
    for a, b in [(np.zeros(3), np.zeros(3)), (TangentField.zeros(2), TangentField.zeros(2)),
                 (random_spectrum(3, 1), np.zeros(16))]:
        with pytest.raises(ValueError, match=r"^relative_l2_error: arguments must be spectra \(ScalarSpectrum or ZSpectrum\)$"):
            relative_l2_error(a, b)


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
    spec = ScalarSpectrum(1)
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

    ``plain`` holds a header, rows and blank lines only; ``decorated`` is the
    same file, line for line, with a comment and an indented row.  Neither is
    a writer's file, so both go through the line filter to ``np.loadtxt``,
    and both must give a bit-identical spectrum or the same
    ``path:lineno: message``, which is returned (a message as the string).
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
    # the duplicate is found after parsing: its line comes from the filter
    # that fed the parser, not from opening the path again
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


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_read_takes_other_line_ends(tmp_path, end):
    # universal newlines: such a file is read as its '\n' twin would be
    path = tmp_path / "ends.csv"
    spec = random_spectrum(3, seed=4)
    write_spectrum(spec, path)
    path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
    assert np.array_equal(read_spectrum(path).flat().view(np.int64), spec.flat().view(np.int64))


def _count_loadtxt(monkeypatch):
    """The list to which every later ``np.loadtxt`` call appends its source."""
    seen, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kw: seen.append(lines) or loadtxt(lines, **kw))
    return seen


def test_read_parses_writer_files_without_loadtxt(tmp_path, monkeypatch):
    # a writer-made file takes the exact path; the same rows out of order,
    # or after a comment line, are no writer's file and go to loadtxt
    seen = _count_loadtxt(monkeypatch)
    path = tmp_path / "spec.csv"
    spec = random_spectrum(4, seed=3)
    write_spectrum(spec, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    outcomes = [read_spectrum(path)]
    assert seen == []
    for text in (header + "".join(rows[::-1]), header + "# a note\n" + "".join(rows)):
        path.write_text(text)
        outcomes.append(read_spectrum(path))
    assert len(seen) == 2
    for back in outcomes:
        assert np.array_equal(back.flat().view(np.int64), spec.flat().view(np.int64))


def _outside_the_table():
    """A ``random_spectrum(255, 3)`` with some entries scaled by 1e-300 and the extremes of the doubles."""
    spec = random_spectrum(255, 3)
    spec.flat()[::97] *= 1e-300
    spec.flat()[1:7] = [5e-324, -5e-324, 2.2250738585072009e-308, 1e300, 1.7976931348623157e308, -0.0]
    return [spec]


@pytest.mark.parametrize("make", [
    lambda: [random_spectrum(255, 0)],
    lambda: vars(differentiate(*random_potentials(256, 0))).values(),
    _outside_the_table,
], ids=["random", "field", "outside-the-table"])
def test_read_takes_writer_files_on_the_exact_path(tmp_path, monkeypatch, make):
    # loadtxt is the fallback: a writer-made file that reaches it is a bug
    # that the values alone would not show
    seen = _count_loadtxt(monkeypatch)
    for spec in make():
        write_spectrum(spec, tmp_path / "spec.csv")
        back = read_spectrum(tmp_path / "spec.csv")
        assert np.array_equal(back.flat().view(np.int64), spec.flat().view(np.int64))
    assert seen == []


def test_read_names_the_line_of_a_writer_row_past_the_largest_double(tmp_path):
    # float() of the edited row is inf: the exact path declines the file,
    # and the line filter names the row's line
    path = tmp_path / "spec.csv"
    write_spectrum(random_spectrum(4, seed=6), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[7] = lines[7].split("e")[0] + "e+309\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        read_spectrum(path)
    assert str(info.value) == f"{path}:8: non-finite value"


def _sci(digits, exp):
    """``digits * 10**exp`` (a positive int of at most 17 digits) in the writer's ``%.16e`` form."""
    s = str(digits)
    return f"{s[0]}.{s[1:]:0<16}e{exp + len(s) - 1:+03d}"


def _exact(values, cls=ScalarSpectrum, n=0):
    """The exact path's reading of a canonical ``cls(n)`` body holding the value texts ``values``, or None."""
    from spherehhd.spectra import _read_exact

    spec = cls(n)
    body = "".join(f"{l},{m},{v}\n" for l, m, v in zip(*spec._labels(), values))
    back = _read_exact(io.BytesIO(body.encode("ascii")), spec)
    if back is None:
        assert not np.any(spec.flat())
        return None
    return back.flat().copy()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from([ScalarSpectrum, ZSpectrum]), n=st.integers(0, 2), data=st.data())
def test_read_exact_path_is_cpython_or_declines(cls, n, data):
    # arbitrary digits and exponents, in range and out of it: whatever the
    # exact path accepts is float() of the text, bit for bit
    row = st.tuples(st.sampled_from(["", "-"]), st.integers(0, 10**17 - 1), st.integers(-330, 310))
    rows = data.draw(st.lists(row, min_size=cls(n).size, max_size=cls(n).size))
    texts = [f"{sign}{d // 10**16}.{d % 10**16:016d}e{e:+03d}" for sign, d, e in rows]
    back = _exact(texts, cls, n)
    if back is not None:
        assert np.array_equal(_bits(back), _bits([float(t) for t in texts]))


def _near_powers_of_two():
    """Texts around powers of two, both sides, where the gap below is half the gap above."""
    for k in (-900, -60, -1, 0, 1, 52, 53, 200, 900):
        mantissa, exp = ("%.16e" % 2.0**k).split("e")
        digits = int(mantissa.replace(".", ""))
        yield from (_sci(digits + delta, int(exp) - 16) for delta in range(-12, 13))


@pytest.mark.parametrize("text", [
    "9.0071992547409930e+15",  # 2**53 + 1, the midpoint above 2**53: a tie, to even
    "9.0071992547409950e+15",  # 2**53 + 3: a tie, to 2**53 + 4
    "1.0000000000000001e+00",
    "9.9999999999999999e-01",
    "-0.0000000000000000e+00",
    "1.2345678901234567e+123", "-9.8765432109876543e-123", "1.0000000000000000e+280",
    "9.9999999999999999e+280", "1.0000000000000000e-280", "1.0000000000000000e-281",
    "1.7976931348623157e+308", "1.7976931348623158e+308",
    "2.2250738585072014e-308", "2.2250738585072009e-308", "4.9406564584124654e-324",
    *_near_powers_of_two(),
])
def test_read_exact_path_rounds_as_cpython(tmp_path, text):
    # one row on the exact path unless its value is not finite, else through
    # loadtxt: either way the value is float() of the text
    back = _exact([text])
    if back is not None:
        assert _bits(back) == _bits(float(text))
    path = tmp_path / "one.csv"
    path.write_text(f"# basis=Y n=0\n0,0,{text}\n")
    assert _bits(read_spectrum(path).flat()) == _bits(float(text))


def test_read_exact_path_takes_float_of_ties_and_plain_rounding():
    # a row the certificate cannot take is float() of its text, bit for bit
    assert _bits(_exact(["9.0071992547409930e+15"])) == _bits(float("9.0071992547409930e+15"))  # a tie, to even
    # below 1.0 the gap is half the gap above: 1 - 1e-17 is within half of it
    assert _exact(["1.0000000000000000e+00", "9.9999999999999999e-01"], ZSpectrum, 0).tolist() == [1.0, 1.0]
    assert _exact(["-0.0000000000000000e+00"]).view(np.int64) == _bits(-0.0)
    assert _bits(_exact(["1.0000000000000000e+281"])) == _bits(float("1.0000000000000000e+281"))  # past the table
    # 17 digits of a double lie far nearer it than a tie: the writer's rows
    # of every exponent in range are all certified
    rng = np.random.Generator(np.random.PCG64(5))
    values = rng.choice([-1, 1], 4096) * rng.uniform(1, 10, 4096) * 10.0 ** rng.integers(-279, 280, 4096)
    assert np.array_equal(_bits(_exact(["%.16e" % v for v in values], ScalarSpectrum, 63)), _bits(values))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_and_write_peaks_are_one_block_past_the_data(tmp_path):
    # a writer-made read holds the table and one block, a write one chunk:
    # neither grows with the file.  One block (chunk) is the peak of a file
    # that fills one read (chunk) and part of a second.
    from spherehhd.spectra import _READ_BLOCK, _WRITE_CHUNK_ROWS

    big, block = random_spectrum(255, 0), random_spectrum(math.isqrt(_READ_BLOCK // 16), 1)
    chunk = random_spectrum(math.isqrt(_WRITE_CHUNK_ROWS), 2)
    for name, spec in (("big", big), ("block", block), ("chunk", chunk)):
        write_spectrum(spec, tmp_path / f"{name}.csv")
        read_spectrum(tmp_path / f"{name}.csv")  # and the cached tables are built
    assert _READ_BLOCK < os.path.getsize(tmp_path / "block.csv") < os.path.getsize(tmp_path / "big.csv") / 2
    assert _WRITE_CHUNK_ROWS < chunk.size < big.size / 2
    data = big.size * 8
    read_peak = _traced_peak(lambda: read_spectrum(tmp_path / "big.csv"))
    assert read_peak <= 1.5 * data + _traced_peak(lambda: read_spectrum(tmp_path / "block.csv"))
    write_peak = _traced_peak(lambda: write_spectrum(big, tmp_path / "big.csv"))
    assert write_peak <= 1.2 * data + _traced_peak(lambda: write_spectrum(chunk, tmp_path / "chunk.csv"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_pipe(tmp_path):
    # a pipe cannot be read twice: it skips the exact path and must still read
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


def _significant_bits(x):
    numerator = abs(Fraction(x).numerator)
    return (numerator // (numerator & -numerator)).bit_length() if numerator else 0


def test_power_tables_meet_the_premise_of_their_proofs():
    # write_spectrum's and _read_exact's proofs take each power of ten as a
    # double-double to 2**-106 and split its high half into 26-bit halves
    from spherehhd.spectra import _format_tables, _parse_tables

    (ph, ph_hi, ph_lo, pl), _ = _format_tables()
    (qh, qh_hi, qh_lo, ql), powers = _parse_tables()
    assert len(ph) == 562 and len(qh) == 561
    for E, row in zip(range(-281, 281), zip(ph.tolist(), pl.tolist())):
        exact = Fraction(10) ** (16 - E)
        assert abs(sum(map(Fraction, row)) - exact) <= exact / 2**106, E
    for E, (*row, power) in zip(range(-280, 281), zip(qh.tolist(), ql.tolist(), powers.tolist())):
        assert 1 <= row[0] < 2, E
        assert abs(sum(map(Fraction, row)) - Fraction(10) ** (E - 16) / Fraction(power)) <= Fraction(1, 2**106), E
    for high, hi, lo in (ph, ph_hi, ph_lo), (qh, qh_hi, qh_lo):
        for h, x, y in zip(high.tolist(), hi.tolist(), lo.tolist()):
            assert Fraction(x) + Fraction(y) == Fraction(h)  # Dekker's split is exact
            assert _significant_bits(x) <= 26 and _significant_bits(y) <= 26


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


def _reference_bytes(spec):
    """The file ``write_spectrum`` must produce, formatted row by row by CPython."""
    l, m = spec._labels()
    rows = zip(l.tolist(), m.tolist(), spec.flat().tolist())
    return (f"# basis={spec.basis} n={spec.n}\n" + "".join("%d,%d,%.16e\n" % row for row in rows)).encode()


def test_write_matches_cpython_format(tmp_path):
    # the numpy formatter against CPython's %.16e on values chosen to reach
    # its edges: random bit patterns (subnormals and huge values included),
    # the extremes, powers of ten and their neighbours (where log10 guesses
    # wrong), and values with short exact decimals: halves and integers
    rng = np.random.Generator(np.random.PCG64(20))
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    powers = np.array([10.0**k for k in range(-300, 301)])
    values = np.concatenate([
        bits[np.isfinite(bits)],
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [(j + 0.5) * 2.0**e for j in range(0, 4000, 37) for e in range(-40, 60, 3)],
        np.arange(-3000.0, 3000.0, 7.0),
    ])
    spec = ScalarSpectrum(int(np.sqrt(values.size)))
    spec.flat()[: values.size] = values
    write_spectrum(spec, tmp_path / "all.csv")
    assert (tmp_path / "all.csv").read_bytes() == _reference_bytes(spec)


def test_ascii_digit_words_are_the_readers_inverse():
    # the writer's SWAR encoder against "%08d" and the reader's decoder, at the
    # edges of every lane split and on random values
    from spherehhd.spectra import _ascii8, _digits8

    edges = [0, 1, 9, 10, 99, 100, 9999, 10**4, 99_999_999] + [10**k - 1 for k in range(1, 9)] + [10**k for k in range(8)]
    x = np.concatenate([edges, np.random.Generator(np.random.PCG64(8)).integers(0, 10**8, 100_000)]).astype(np.uint64)
    words = _ascii8(x.copy())
    assert words.astype("<u8").tobytes() == "".join("%08d" % v for v in x.tolist()).encode()
    values, ok = _digits8(words)
    assert ok.all() and np.array_equal(values, x)


def test_write_matches_cpython_format_at_four_digit_labels(tmp_path):
    # orders reach +-1000 and degrees 999, so labels have 1 to 5 bytes; near
    # each chunk start, values with 3-digit exponents and values the numpy
    # path cannot prove, which CPython formats
    from spherehhd.spectra import _WRITE_CHUNK_ROWS

    rng = np.random.Generator(np.random.PCG64(21))
    spec = ZSpectrum(999, rng.standard_normal(ZSpectrum(999).size) * 10.0 ** rng.integers(-5, 6, ZSpectrum(999).size))
    special = [-1e-150, 2.5e200, 9.999999999999999e-101, 1e100, 1e-300, -5e-324, 1.7976931348623157e308, 3e290,
               -0.0, 0.0, (12345 + 0.5) * 2.0**-20, -((1 << 52) + 0.5)]
    near = np.arange(_WRITE_CHUNK_ROWS - 6, spec.size - 6, _WRITE_CHUNK_ROWS)[:, None] + np.arange(12)
    spec.flat()[near] = np.resize(special, near.shape)
    write_spectrum(spec, tmp_path / "z999.csv")
    assert (tmp_path / "z999.csv").read_bytes() == _reference_bytes(spec)


@pytest.mark.parametrize("make", [lambda: random_spectrum(255, 0), lambda: ZSpectrum(256)], ids=["random", "zero"])
def test_write_formats_normal_values_without_cpython(tmp_path, monkeypatch, make):
    # the slow path is a fallback: a slide of ordinary values onto it is a bug
    # that the bytes alone would not show
    import spherehhd.spectra as spectra

    fallback, rows = spectra._format_fallback, []
    monkeypatch.setattr(spectra, "_format_fallback", lambda values: rows.append(len(values)) or fallback(values))
    spec = make()
    write_spectrum(spec, tmp_path / "spec.csv")
    assert rows and sum(rows) == 0
    assert (tmp_path / "spec.csv").read_bytes() == _reference_bytes(spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_refuses_a_non_finite_spectrum_before_creating_the_file(tmp_path, bad):
    spec = ZSpectrum(3)
    spec[2, -1] = bad
    with pytest.raises(ValueError, match=r"^write_spectrum: .*spec\.csv: non-finite coefficient .* at \(l=2, m=-1\)$"):
        write_spectrum(spec, tmp_path / "spec.csv")
    assert not (tmp_path / "spec.csv").exists()


@pytest.mark.parametrize("bad", [np.zeros(3), TangentField.zeros(2), None], ids=["array", "field", "none"])
def test_write_refuses_a_non_spectrum_before_creating_the_file(tmp_path, bad):
    with pytest.raises(ValueError, match=r"^write_spectrum: the spectrum must be a ScalarSpectrum or ZSpectrum$"):
        write_spectrum(bad, tmp_path / "spec.csv")
    assert not (tmp_path / "spec.csv").exists()


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
    spec = ScalarSpectrum(4)
    sl = spec.order_slice(-2)
    sl[:] = 7.0
    assert spec[2, -2] == 7.0
    assert spec[3, -2] == 7.0
    assert sl.base is spec.flat() or sl.base is spec.flat().base


def test_hhd_result_totals():
    result = HHDResult(ScalarSpectrum(2), ScalarSpectrum(2))
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


@pytest.mark.parametrize("values", [np.full(4, 1e308), [2.0**1023] * 4])
def test_norms_past_the_largest_double_are_inf(values):
    # inf, as math.hypot and HHDResult.total_residual give, not an OverflowError
    a = ScalarSpectrum(1, values)
    assert a.norm() == math.inf
    assert TangentField(ZSpectrum(0, a.flat()[:2]), ZSpectrum(0, a.flat()[2:])).norm() == math.inf
    assert relative_l2_error(a, ScalarSpectrum(1)) == math.inf


def test_norm_just_below_the_largest_double_is_exact():
    assert ScalarSpectrum(1, [2.0**1022] * 4).norm() == 2.0**1023


def test_relative_l2_error_past_the_largest_double():
    # ||b|| passes the largest double, and so does a - b entrywise for
    # opposite signs (a RuntimeWarning, an error here): the ratio is still exact
    huge = ScalarSpectrum(1, np.full(4, 1e308))
    assert relative_l2_error(ScalarSpectrum(1), huge) == 1.0
    assert relative_l2_error(ScalarSpectrum(1, -huge.flat()), huge) == 2.0
    assert relative_l2_error(huge, ScalarSpectrum(1)) == math.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relative_l2_error_of_ordinary_pairs_is_the_unscaled_ratio(seed):
    # the power of two that guards against overflow is exact: bit for bit the plain ratio
    from spherehhd.spectra import _l2_norm

    a, b = random_spectrum(20, seed), random_spectrum(20, seed + 100)
    b.flat()[::3] *= 1e-5
    assert relative_l2_error(a, b) == _l2_norm(a.flat() - b.flat()) / _l2_norm(b.flat())
    assert relative_l2_error(a, ScalarSpectrum(20)) == _l2_norm(a.flat())
    # and so do tables near the largest double, which are scaled
    big_a, big_b = (ScalarSpectrum(20, np.ldexp(x.flat(), 1015)) for x in (a, b))
    assert relative_l2_error(big_a, big_b) == relative_l2_error(a, b)


def test_norm_makes_no_copy_of_the_table():
    # the squares are summed a chunk at a time, without a scaled copy of the table
    spec = random_spectrum(1023, 4)
    assert _traced_peak(spec.norm) < spec.size * 8 / 4


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


def test_require_finite_makes_no_mask_of_the_table():
    # a mask of the table would take one byte a value; the check goes a
    # chunk at a time and still names an entry far past the first chunk
    spec = random_spectrum(1023, 3)
    assert _traced_peak(lambda: spec.require_finite("field")) < spec.size // 4
    spec.flat()[700_001] = -np.inf
    l, m = (int(x[0]) for x in spec._labels(700_001, 700_002))
    with pytest.raises(ValueError, match=rf"^field: non-finite coefficient -inf at \(l={l}, m={m}\)$"):
        spec.require_finite("field")
