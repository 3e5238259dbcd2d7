"""Coefficient containers for spherical-harmonic and tangential-basis expansions.

Two triangular tables are used throughout:

* ``ScalarSpectrum`` -- expansion coefficients of a scalar field in the
  orthonormal spherical harmonics, degrees ``0..n_pot``, orders ``|m| <= l``.
* ``ZSpectrum`` -- expansion coefficients of one angular component of a
  tangential field in the complementary orthonormal basis, degrees
  ``||m|-1| <= l <= n`` with orders up to ``|m| = n + 1``.

The two index sets differ by one order, the basis's ``shift`` (0 for Y, 1
for Z): order ``m`` starts at degree ``||m| - shift|`` and orders reach
``|m| = n + shift``.  Storage is order-major and degree-contiguous (order 0,
then ``+1, -1, +2, -2, ...``), so every per-order operation touches
contiguous memory and every offset has a closed form.  Spectra are treated
as immutable values once filled; nothing in the library mutates a spectrum
it did not create.
"""

import bisect
import functools
import math
import numbers
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

__all__ = [
    "ScalarSpectrum",
    "ZSpectrum",
    "TangentField",
    "HHDResult",
    "new_scalar_spectrum",
    "new_z_spectrum",
    "random_spectrum",
    "random_potentials",
    "relative_l2_error",
    "read_spectrum",
    "write_spectrum",
]


def _l2_norm(*arrays):
    """2-norm over all entries of ``arrays``, free of overflow and underflow.

    The entries are scaled by the power of two that brings the largest
    magnitude into ``[0.5, 1)`` before squaring, which is exact, so the
    result scales by exactly ``2**k`` when every input does.
    """
    top = max((float(np.max(np.abs(a))) for a in arrays if a.size), default=0.0)
    if top == 0.0 or not math.isfinite(top):
        return top
    e = math.frexp(top)[1]
    return math.ldexp(math.hypot(*(float(np.linalg.norm(np.ldexp(a, -e))) for a in arrays)), e)


def _require_integers(name, **values):
    """Raise ``ValueError`` naming ``name`` and the first of ``values`` that is not an integer (or is a bool)."""
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}: {key} must be an integer, got {value!r}")


def _real_array(name, values):
    """``values`` as a float64 array, once they are not complex (an O(1) dtype check for arrays)."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name}: values must be real, got complex input")
    return np.asarray(values, dtype=np.float64)


class _CoeffTable:
    """Shared machinery for the two triangular coefficient tables.

    With ``shift`` 0 for Y and 1 for Z, order ``m`` starts at degree
    ``||m| - shift|`` and orders reach ``n + shift``, so order 0 holds
    ``n + 1 - shift`` entries and the pair ``+nu, -nu`` holds
    ``2 (n + shift + 1 - nu)``: :meth:`order_offsets` sums them in closed form.
    """

    basis, shift = None, 0  # "Y" or "Z", and its shift

    def __init__(self, n, data=None):
        _require_integers(type(self).__name__, n=n)
        if n < 0:
            raise ValueError(f"degree n={n}: truncation degree must be nonnegative")
        self.n = int(n)
        # the table ends where the pair of the first order past it would start
        pos = self._size = self.order_offsets(self.max_order() + 1)[0]
        if data is None:
            try:
                self._data = np.zeros(pos)
            except MemoryError:
                raise ValueError(f"degree n={n}: cannot allocate a table of {pos} coefficients") from None
        else:
            data = _real_array(type(self).__name__, data)
            if data.shape != (pos,):
                raise ValueError(f"expected flat data of length {pos}, got {data.shape}")
            self._data = data

    def degree_start(self, m):
        """Lowest degree of order ``m`` (an int or int array)."""
        return abs(abs(m) - self.shift)

    def max_order(self):
        return self.n + self.shift

    def order_offsets(self, orders):
        """Flat start and length of the slices of the signed ``orders`` (an int or int array).

        Closed form of the canonical layout: order 0, then the pair ``+nu, -nu``
        for ``nu = 1, 2, ...``, each slice one entry shorter than the one
        before.  Orders outside the table come out with a nonpositive length.
        """
        mu = abs(orders)
        counts = self.n - self.degree_start(orders) + 1
        pairs_before = (mu - 1) * (2 * self.max_order() + 2 - mu)
        return (mu != 0) * (self.n + 1 - self.shift + pairs_before + (orders < 0) * counts), counts

    @property
    def size(self):
        return self._size

    def _holds(self, l, m):
        """Whether ``(l, m)`` is in the index set (elementwise); order ``m`` is iff ``(n, m)`` is."""
        top = self.max_order()  # not abs(m) <= top: abs wraps the int64 minimum
        return (-top <= m) & (m <= top) & (self.degree_start(m) <= l) & (l <= self.n)

    def _labels(self):
        """The degrees and the orders of all flat positions, as two int arrays."""
        orders = np.array(self.orders())
        starts, counts = self.order_offsets(orders)
        m = np.repeat(orders, counts)
        return np.arange(self._size) - np.repeat(starts - self.degree_start(orders), counts), m

    def orders(self):
        """The signed orders with coefficients, in canonical order: 0, +1, -1, +2, -2, ..."""
        mu = np.arange(1, self.max_order() + 1)
        orders = np.append(0, np.column_stack([mu, -mu]).ravel())
        return orders[self._holds(self.n, orders)].tolist()

    def order_slice(self, m):
        """Contiguous view of the coefficients of signed order ``m`` (ascending degree)."""
        if not self._holds(self.n, m):
            raise ValueError(f"order {m} outside basis {self.basis} with n={self.n}")
        pos, count = self.order_offsets(m)
        return self._data[pos : pos + count]

    def set_order_slice(self, m, values):
        sl = self.order_slice(m)
        if len(values) != len(sl):
            raise ValueError(f"order {m}: expected {len(sl)} values, got {len(values)}")
        sl[:] = values

    def flat_index(self, l, m):
        """Position of coefficient ``(l, m)`` in :meth:`flat`."""
        if not self._holds(l, m):
            raise ValueError(
                f"(l={l}, m={m}) outside the basis-{self.basis} index set for n={self.n}"
            )
        return self.order_offsets(m)[0] + l - self.degree_start(m)

    def __getitem__(self, lm):
        return float(self._data[self.flat_index(*lm)])

    def __setitem__(self, lm, value):
        self._data[self.flat_index(*lm)] = value

    def require_finite(self, name):
        """Raise ``ValueError`` naming ``name`` and the ``(l, m)`` of the first non-finite value."""
        if np.isfinite(self._data).all():
            return
        pos = int(np.flatnonzero(~np.isfinite(self._data))[0])
        l, m = (int(x[pos]) for x in self._labels())
        raise ValueError(f"{name}: non-finite coefficient {self._data[pos]} at (l={l}, m={m})")

    def flat(self):
        """Flattened coefficient vector in canonical (order-major) order."""
        return self._data

    def norm(self):
        return _l2_norm(self._data)

    def copy(self):
        return type(self)(self.n, self._data.copy())

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, {self._size} coefficients)"


class ScalarSpectrum(_CoeffTable):
    """Spherical-harmonic coefficients of a scalar field, degrees ``0..n_pot``."""

    basis = "Y"

    @property
    def n_pot(self):
        return self.n


class ZSpectrum(_CoeffTable):
    """Tangential-basis coefficients of one angular field component.

    The index set is ``{(l, m): ||m|-1| <= l <= n, |m| <= n+1}``; the two
    extreme orders ``|m| in {n, n+1}`` are stored but can never be produced by
    differentiating a potential of degree ``<= n-1``.
    """

    basis, shift = "Z", 1


def new_scalar_spectrum(n_pot):
    """Zero-filled scalar spectrum with ``(n_pot + 1)**2`` coefficients."""
    return ScalarSpectrum(n_pot)


def new_z_spectrum(n):
    """Zero-filled tangential-component spectrum for truncation degree ``n``."""
    return ZSpectrum(n)


def random_spectrum(n_pot, seed):
    """Scalar spectrum with i.i.d. standard-normal coefficients.

    Uses the PCG64 generator, so results are reproducible across platforms
    for a fixed seed.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = ScalarSpectrum(n_pot)
    spec._data[:] = rng.standard_normal(spec.size)
    return spec


def random_potentials(n, seed):
    """``random_spectrum(n - 1, seed)`` and ``(n - 1, seed + 1_000_000)``, constant modes zeroed."""
    s, t = random_spectrum(n - 1, seed), random_spectrum(n - 1, seed + 1_000_000)
    s[0, 0] = t[0, 0] = 0.0
    return s, t


def relative_l2_error(a, b):
    """Relative l2 error ``||a - b|| / ||b||`` over the coefficient vectors.

    Falls back to the absolute norm ``||a||`` when ``b`` is identically zero.
    """
    if type(a) is not type(b) or a.n != b.n:
        raise ValueError("relative_l2_error: spectra must share basis and degree")
    denom = _l2_norm(b.flat())
    diff = _l2_norm(a.flat() - b.flat())
    if denom == 0.0:
        return diff
    return diff / denom


@dataclass
class TangentField:
    """Pair of tangential-basis spectra for the e_theta and e_phi components."""

    theta: ZSpectrum
    phi: ZSpectrum

    def __post_init__(self):
        if not (isinstance(self.theta, ZSpectrum) and isinstance(self.phi, ZSpectrum)):
            raise ValueError("TangentField: components must be basis-Z spectra (ZSpectrum)")
        if self.theta.n != self.phi.n:
            raise ValueError("theta and phi components must share one truncation degree")

    @property
    def n(self):
        return self.theta.n

    def norm(self):
        return _l2_norm(self.theta.flat(), self.phi.flat())

    @classmethod
    def zeros(cls, n):
        return cls(ZSpectrum(n), ZSpectrum(n))


@dataclass
class HHDResult:
    """Output of the decomposition: potentials plus per-order diagnostics.

    ``residual_by_order`` holds the 2-norm of the least-squares residual of
    each per-order solve; ``out_of_range_by_order`` holds the norm of input
    content the truncated model cannot represent (the degree ``n+1`` tails
    and the whole orders ``|m| >= n``).  Both are reported, never folded
    together.
    """

    spheroidal: ScalarSpectrum
    toroidal: ScalarSpectrum
    residual_by_order: dict = field(default_factory=dict)
    out_of_range_by_order: dict = field(default_factory=dict)

    def total_residual(self):
        return math.hypot(*self.residual_by_order.values())

    def total_out_of_range(self):
        return math.hypot(*self.out_of_range_by_order.values())


_CLASS_BY_BASIS = {"Y": ScalarSpectrum, "Z": ZSpectrum}


# rows per chunk of the writer: bounds its working memory
_WRITE_CHUNK_ROWS = 4096
_ROW_DTYPE = np.dtype([("l", np.int64), ("m", np.int64), ("value", np.float64)])
_SCAN_CHARS = 1 << 16  # characters per read of the reader's plain-body scan
_NOT_PLAIN = "# \t\v\f\r\x1c\x1d\x1e\x1f"  # '#' and ASCII whitespace but '\n'


def _split(a):
    """Dekker's split ``a = hi + lo``, exact, each half of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    return c - (c - a), a - (c - (c - a))


@functools.cache
def _format_tables():
    """The writer's tables: row ``E + 281`` (``E`` in -281..280) of ``(ph, *_split(ph), pl)``,
    ``ph + pl ~ 10**(16 - E)``, and of ``e±XX[X]``; the digit groups 0000..9999."""
    tens = [(10 ** max(16 - e, 0), 10 ** max(e - 16, 0)) for e in range(-281, 281)]  # 10**(16 - e) = n / d
    ph = np.array([n / d for n, d in tens])  # int / int rounds correctly
    pl = np.array([(n * b - a * d) / (d * b) for (n, d), (a, b) in zip(tens, map(float.as_integer_ratio, ph.tolist()))])
    exps = np.array([[b"e%+03d" % e] for e in range(-281, 281)]).view(np.uint8)
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return (ph, *_split(ph), pl), exps, groups.astype(np.uint8)


def _format_fallback(values):
    """CPython's ``%.16e`` of ``values``, one 24-byte row each, padded with zero bytes."""
    text = "%-24.16e" * len(values) % tuple(values.tolist())
    return np.frombuffer(text.replace(" ", "\0").encode("ascii"), np.uint8).reshape(-1, 24)


def write_spectrum(spectrum, path):
    """Write a spectrum in the text coefficient format.

    Line 1 is ``# basis=<Y|Z> n=<int>``; each following line is ``l,m,value``
    with the value in 17-significant-digit scientific notation, rows in
    order-major order.  Missing rows denote zero, but the writer emits the
    full table.  A non-finite value is refused before the file is created.

    The bytes equal CPython's ``"%d,%d,%.16e\n"``, built a chunk at a time as
    ``uint8`` rows padded with zero bytes, dropped on writing.  For ``|x|`` in
    ``[1e-280, 1e280)``, guess ``E = floor(log10 |x|)``, let ``ph + pl`` be
    ``10**(16 - E)`` to ``2**-106``; Dekker's product (1971) gives ``p + err =
    |x| ph`` exactly (no partial product underflows).  With ``frac = err + |x|
    pl``, ``p + frac`` is within ``1e-13`` of ``y = |x| 10**(16 - E)`` while
    ``y < 1e18`` (``|err| <= ulp(p) / 2``, ``|x pl| <= 2**-53 y``).  So if
    ``frac`` is over ``1e-9`` from a half-integer, ``D = p + floor(frac +
    0.5)`` is the integer nearest ``y``, not a tie.  ``D`` strictly inside
    ``(1e16, 1e17)`` proves the guess (one too high gives ``y < 1e16``, one too
    low ``y >= 1e17``) and ``p > 2**53`` an integer, so its digits are the
    correctly rounded ones CPython's dtoa prints (Gay 1990).  Other rows
    (near-ties, wrong guesses, ``|x|`` out of range) go to one ``%`` call per
    chunk; ``±0.0`` prints as zeros.
    """
    spectrum.require_finite(f"write_spectrum: {path}")
    (ph, ph_hi, ph_lo, pl), exps, groups = _format_tables()
    top = spectrum.max_order()
    ints = np.array([[b"%d," % i] for i in range(-top, top + 1)]).view(np.uint8)  # "l," and "m,"
    w, (l, m), values = 2 * ints.shape[1], spectrum._labels(), spectrum.flat()
    rows = np.zeros((min(_WRITE_CHUNK_ROWS, spectrum.size), w + 25), np.uint8)
    rows[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"# basis={spectrum.basis} n={spectrum.n}\n".encode("ascii"))
        for lo in range(0, spectrum.size, _WRITE_CHUNK_ROWS):
            x, hi = values[lo : lo + _WRITE_CHUNK_ROWS], lo + _WRITE_CHUNK_ROWS
            chunk, v = rows[: len(x)], rows[: len(x), w:-1]  # v: the value's 24 bytes
            chunk[:, :w] = np.take(ints, np.stack([l[lo:hi], m[lo:hi]], 1) + top, axis=0).reshape(-1, w)
            ax, zero = np.abs(x), x == 0
            ax[(ax < 1e-280) | (ax >= 1e280)] = 1.0  # gives D = 10**16, so redone; zeros get D = 0
            e = np.floor(np.log10(ax)).astype(np.int64) + 281
            p, (a_hi, a_lo) = ax * ph[e], _split(ax)
            frac = (((a_hi * ph_hi[e] - p) + a_hi * ph_lo[e] + a_lo * ph_hi[e]) + a_lo * ph_lo[e]) + ax * pl[e]
            r = np.floor(frac + 0.5)
            d = p.astype(np.int64) + r.astype(np.int64) - zero * 10**16
            ok = zero | (d > 10**16) & (d < 10**17) & (np.abs(frac - r) < 0.5 - 1e-9)
            v[:, 0], v[:, 1], v[:, 2] = np.signbit(x) * ord("-"), d // 10**16 + ord("0"), ord(".")
            v[:, 3:19] = np.take(groups, d[:, None] // 10 ** np.arange(12, -1, -4) % 10000, axis=0).reshape(-1, 16)
            v[:, 19:] = np.take(exps, e, axis=0)
            v[~ok] = _format_fallback(x[~ok])
            fh.write(chunk[chunk != 0])


class _DataRows:
    """The data rows of an open file past its header, left-stripped, for the parser.

    Data rows are the lines that are neither blank nor comments, so a ``#`` inside a row stays
    an error and the parser counts data rows only.  The line where each run of rows starts is
    kept, so :meth:`line` needs no second read, which a pipe could not give.  ``last`` is the
    last row read, the one the parser stopped at if it failed.
    """

    def __init__(self, fh):
        self.fh, self.last, self.runs = fh, "", [(0, 2)]  # (row, its line): the next rows are the next lines

    def __iter__(self):
        row = 0
        for lineno, line in enumerate(self.fh, start=2):
            line = line.lstrip()
            if line and line[0] != "#":
                row, self.last = row + 1, line
                yield line
            else:
                self.runs.append((row, lineno + 1))

    def line(self, row):
        """Line number of data row ``row`` (0-based)."""
        start, lineno = self.runs[bisect.bisect_right(self.runs, (row, math.inf)) - 1]
        return lineno + row - start


def _data_row_line(lines, body, row):
    """Line number of data row ``row``, and the text of the last row read (row ``row`` if the parser stopped there).

    The parser reads a plain file straight from its handle ``lines``; only
    error paths seek it back to ``body``, where the rows start, and walk it
    up to the row, so this costs nothing on success.
    """
    if not isinstance(lines, _DataRows):
        lines.seek(body)
        lines = _DataRows(lines)
        next(islice(lines, row, None))
    return lines.line(row), lines.last.strip()


def read_spectrum(path):
    """Read a spectrum written by :func:`write_spectrum`.

    Returns a :class:`ScalarSpectrum` or :class:`ZSpectrum` depending on the
    header, whose degree is a signed run of ASCII digits as in a row.  Rows
    may come in any order; blank and whitespace-only lines and lines that
    start with ``#`` (after leading whitespace) are skipped.  Raises
    ``ValueError`` on a malformed header, a degree whose table cannot be
    allocated, a malformed row, an index outside the basis triangle, a
    non-finite value, or a repeated ``l,m`` row.  A row error names
    ``path:lineno``: of the first malformed row if there is one, else of
    the first row that fails a check.

    One ``np.loadtxt`` parses the rows: from the open file if a chunked scan
    finds the body plain (ASCII, no ``#``, no whitespace but line ends), as
    writer-made files are, else through a comment and blank-line filter.
    Whole-array checks and one scatter into the table follow.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        parts = header.split()
        if (
            len(parts) != 3
            or parts[0] != "#"
            or not parts[1].startswith("basis=")
            or not parts[2].startswith("n=")
        ):
            raise ValueError(f"{path}: malformed header {header!r}")
        basis = parts[1][len("basis=") :]
        if basis not in _CLASS_BY_BASIS:
            raise ValueError(f"{path}: unknown basis {basis!r}")
        degree = parts[2][len("n=") :]
        # int() would also take '1_0' and non-ASCII digits, which rows reject
        if not re.fullmatch(r"[+-]?[0-9]+", degree):
            raise ValueError(f"{path}: malformed degree in header {header!r}")
        try:
            spec = _CLASS_BY_BASIS[basis](int(degree))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        # A plain body needs no filter: loadtxt skips its blank lines itself,
        # counting rows as the filter would.  A pipe cannot be scanned.
        lines, body = _DataRows(fh), None
        try:
            if fh.seekable():
                body, chunks = fh.tell(), iter(lambda: fh.read(_SCAN_CHARS), "")
                if all(c.isascii() and not any(x in c for x in _NOT_PLAIN) for c in chunks):
                    lines = fh
                fh.seek(body)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # numpy releases that parse '1.0' in an integer field through
                # a float warn instead of failing: keep that an error
                warnings.filterwarnings("error", "loadtxt.*integer via a float", DeprecationWarning)
                rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=_ROW_DTYPE)
        except ValueError as exc:
            message = str(exc)
            # the last match: a conversion error quotes the field text first
            named = re.findall(r"at row (\d+)", message)
            if not named:
                raise ValueError(f"{path}: {exc}") from None
            # loadtxt counts data rows from 0 in conversion errors and from 1
            # in column-count errors
            converting = message.startswith("could not convert")
            lineno, line = _data_row_line(lines, body, int(named[-1]) - (not converting))
            problem = f"malformed row {line!r}" if converting else "expected 'l,m,value'"
            raise ValueError(f"{path}:{lineno}: {problem}") from None

        l, m, values = rows["l"], rows["m"], rows["value"]
        outside = ~spec._holds(l, m)
        pos = spec.order_offsets(m)[0] + l - spec.degree_start(m)
        # a stable sort keeps the rows of one position in file order: every row
        # after the first of its position repeats an earlier one
        by_pos = np.argsort(pos, kind="stable")
        repeated = np.zeros(len(rows), dtype=bool)
        repeated[by_pos[1:]] = pos[by_pos[1:]] == pos[by_pos[:-1]]
        nonfinite = ~np.isfinite(values)
        bad = nonfinite | outside | repeated
        if bad.any():
            # the first offending row, judged as a row-by-row reader would
            row = int(np.argmax(bad))
            lm = f"(l={l[row]}, m={m[row]})"
            if nonfinite[row]:
                problem = "non-finite value"
            elif outside[row]:
                problem = f"{lm} outside the basis-{spec.basis} index set for n={spec.n}"
            else:
                problem = f"duplicate row for {lm}"
            raise ValueError(f"{path}:{_data_row_line(lines, body, row)[0]}: {problem}")
    spec.flat()[pos] = values
    return spec
