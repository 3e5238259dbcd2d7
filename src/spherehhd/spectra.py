"""Coefficient containers for spherical-harmonic and tangential-basis expansions.

Two triangular tables are used throughout:

* ``ScalarSpectrum`` -- expansion coefficients of a scalar field in the
  orthonormal spherical harmonics, degrees ``0..n``, orders ``|m| <= l``.
* ``ZSpectrum`` -- expansion coefficients of one angular component of a
  tangential field in the complementary orthonormal basis, degrees
  ``||m|-1| <= l <= n`` with orders up to ``|m| = n + 1``.

The two index sets differ by one order, the basis's ``shift`` (0 for Y, 1
for Z): order ``m`` starts at degree ``||m| - shift|`` and orders reach
``|m| = n + shift``.  Storage is order-major and degree-contiguous (order 0,
then ``+1, -1, +2, -2, ...``), so every per-order operation touches
contiguous memory and every offset has a closed form, :func:`_order_offsets`,
which this module alone spells out and the solver calls.  Spectra are treated
as immutable values once filled; nothing in the library mutates a spectrum it
did not create.
"""

import bisect
import functools
import math
import numbers
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScalarSpectrum",
    "ZSpectrum",
    "TangentField",
    "HHDResult",
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
    result scales by exactly ``2**k`` when every input does.  A norm past
    the largest double is ``inf``.  Squares are summed 64 Ki at a time by numpy, not BLAS.
    """
    top = max((float(max(a.max(), -a.min())) for a in arrays if a.size), default=0.0)
    if top == 0.0 or not math.isfinite(top):
        return top
    e = math.frexp(top)[1]
    chunks = (np.ldexp(a[lo : lo + (1 << 16)], -e) for a in arrays for lo in range(0, a.size, 1 << 16))
    try:
        return math.ldexp(math.sqrt(math.fsum(float(np.square(c, out=c).sum()) for c in chunks)), e)
    except OverflowError:
        return math.inf


def _require_integers(name, *, least=None, **values):
    """Raise ``ValueError`` naming ``name`` and the first of ``values`` that is not an integer (or is a bool).

    With ``least`` given, a value below it is refused too, in one wording: ``{name}: {key} must be >= {least}``.
    """
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}: {key} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{name}: {key} must be >= {least}, got {value}")


def _require_order(name, n, m):
    """Raise ``ValueError`` naming ``name`` unless ``n`` and ``m`` are integers with ``1 <= m <= n - 1``."""
    _require_integers(name, n=n, m=m)
    if not 1 <= m <= n - 1:
        raise ValueError(f"{name}: need 1 <= m <= n-1, got m={m}, n={n}")


def _require_finite(name, values):
    """Raise ``ValueError`` naming ``name`` and the first row of the array ``values`` with a non-finite entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argmax(bad.reshape(len(values), -1).any(axis=1)))
        raise ValueError(f"{name}: non-finite value in row {row}")


def _require_potentials(name, s, t):
    """Raise ``ValueError`` naming ``name`` unless ``s`` and ``t`` are basis-Y spectra of one degree, all finite."""
    if not (isinstance(s, ScalarSpectrum) and isinstance(t, ScalarSpectrum)):
        raise ValueError(f"{name}: potentials must be basis-Y spectra (ScalarSpectrum)")
    if s.n != t.n:
        raise ValueError(f"{name}: potentials must share a degree")
    s.require_finite(f"{name}: s")
    t.require_finite(f"{name}: t")


def _require_field(name, field):
    """Raise ``ValueError`` naming ``name`` unless ``field`` is a :class:`TangentField` whose coefficients are all finite."""
    if not isinstance(field, TangentField):
        raise ValueError(f"{name}: the field must be a TangentField")
    field.theta.require_finite(f"{name}: theta")
    field.phi.require_finite(f"{name}: phi")


def _real_array(name, values):
    """``values`` as a float64 array, once they are real numbers: not ragged, of a bool, integer or float dtype (O(1) for arrays)."""
    try:
        array = np.asarray(values)
    except ValueError:  # numpy refuses a ragged sequence
        raise ValueError(f"{name}: values must be real numbers, got a ragged sequence") from None
    if array.dtype.kind == "c":
        raise ValueError(f"{name}: values must be real, got complex input")
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{name}: values must be real numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


def _order_offsets(n, shift, orders):
    """Flat start and length of the slices of the signed ``orders`` (an int or int array) at degree ``n``.

    The layout is order 0, then the pair ``+nu, -nu`` for ``nu = 1, 2, ...``; order ``m`` starts at degree
    ``||m| - shift|`` (``shift`` 0 for Y, 1 for Z), so order 0 holds ``n + 1 - shift`` entries and the pair
    ``2 (n + shift + 1 - nu)``, summed here in closed form.  Orders outside the table get a nonpositive length.
    """
    mu = abs(orders)
    counts = n - abs(mu - shift) + 1
    pairs_before = (mu - 1) * (2 * (n + shift) + 2 - mu)
    return (mu != 0) * (n + 1 - shift + pairs_before + (orders < 0) * counts), counts


class _CoeffTable:
    """Shared machinery for the two triangular coefficient tables, laid out by :func:`_order_offsets`."""

    basis, shift = None, 0  # "Y" or "Z", and its shift

    def __init__(self, n, data=None):
        _require_integers(type(self).__name__, least=0, n=n)
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
        """Flat start and length of the slices of the signed ``orders`` (an int or int array); see :func:`_order_offsets`."""
        return _order_offsets(self.n, self.shift, orders)

    @property
    def size(self):
        return self._size

    def _holds(self, l, m):
        """Whether ``(l, m)`` is in the index set (elementwise); order ``m`` is iff ``(n, m)`` is."""
        top = self.max_order()  # not abs(m) <= top: abs wraps the int64 minimum
        return (-top <= m) & (m <= top) & (self.degree_start(m) <= l) & (l <= self.n)

    def _order_index(self, k):
        """Index of the order holding flat position ``k`` in the canonical 0, +1, -1, +2, -2, ..."""
        past = k - (self.n + 1 - self.shift)  # positions past order 0
        if past < 0:
            return 0
        # the pairs before pair a + 1 fill a (b - a) positions: take the last a with a (b - a) <= past
        b = 2 * self.max_order() + 1
        a = (b - math.isqrt(b * b - 4 * past - 1) - 1) // 2
        return 2 * a + 1 + (past - a * (b - a) >= self.max_order() - a)  # +(a + 1) holds max_order - a

    def _labels(self, lo=0, hi=None):
        """The degrees and the orders of flat positions ``lo`` up to ``hi`` (default: all), as two int arrays."""
        hi = self._size if hi is None else min(hi, self._size)
        i = np.arange(self._order_index(lo), self._order_index(hi - 1) + 1)
        orders = (i + 1) // 2 * np.where(i % 2, 1, -1)
        starts, counts = self.order_offsets(orders)
        cut = slice(lo - starts[0], hi - starts[0])
        m = np.repeat(orders, counts)[cut]
        return np.arange(lo, hi) - np.repeat(starts - self.degree_start(orders), counts)[cut], m

    def orders(self):
        """The signed orders with coefficients, in canonical order: 0, +1, -1, +2, -2, ..."""
        mu = np.arange(1, self.max_order() + 1)
        orders = np.append(0, np.column_stack([mu, -mu]).ravel())
        return orders[self._holds(self.n, orders)].tolist()

    def _order_view(self, method, m):
        """View of order ``m``'s coefficients; an order outside the table is refused under ``{class}.{method}``."""
        _require_integers(name := f"{type(self).__name__}.{method}", m=m)
        if not self._holds(self.n, m):
            raise ValueError(f"{name}: order {m} outside basis {self.basis} with n={self.n}")
        pos, count = self.order_offsets(m)
        return self._data[pos : pos + count]

    def _position(self, method, key):
        """Flat position of the pair ``key = (l, m)``; any other key, or a pair outside the index set, is refused under ``{class}.{method}``."""
        name = f"{type(self).__name__}.{method}"
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ValueError(f"{name}: key must be a pair (l, m), got {key!r}")
        l, m = key
        _require_integers(name, l=l, m=m)
        if not self._holds(l, m):
            raise ValueError(f"{name}: (l={l}, m={m}) outside the basis-{self.basis} index set for n={self.n}")
        return self.order_offsets(m)[0] + l - self.degree_start(m)

    def order_slice(self, m):
        """Contiguous view of the coefficients of signed order ``m`` (ascending degree)."""
        return self._order_view("order_slice", m)

    def set_order_slice(self, m, values):
        name = f"{type(self).__name__}.set_order_slice"
        sl, values = self._order_view("set_order_slice", m), _real_array(name, values)
        if values.shape != sl.shape:
            got = len(values) if values.ndim == 1 else f"shape {values.shape}"
            raise ValueError(f"{name}: order {m}: expected {len(sl)} values, got {got}")
        sl[:] = values

    def flat_index(self, l, m):
        """Position of coefficient ``(l, m)`` in :meth:`flat`."""
        return self._position("flat_index", (l, m))

    def __getitem__(self, lm):
        return float(self._data[self._position("__getitem__", lm)])

    def __setitem__(self, lm, value):
        name = f"{type(self).__name__}.__setitem__"
        pos, value = self._position("__setitem__", lm), _real_array(name, value)
        if value.shape:
            raise ValueError(f"{name}: expected one value, got shape {value.shape}")
        self._data[pos] = value

    def require_finite(self, name):
        """Raise ``ValueError`` naming ``name`` and the ``(l, m)`` of the first non-finite value.

        The values are checked a chunk at a time, so no mask of the whole table is made.
        """
        for lo in range(0, self._size, 1 << 16):
            finite = np.isfinite(self._data[lo : lo + (1 << 16)])
            if np.count_nonzero(finite) < finite.size:  # faster than all() on a small table
                pos = lo + int(np.argmin(finite))
                l, m = (int(x[0]) for x in self._labels(pos, pos + 1))
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
    """Spherical-harmonic coefficients of a scalar field, degrees ``0..n``."""

    basis = "Y"


class ZSpectrum(_CoeffTable):
    """Tangential-basis coefficients of one angular field component.

    The index set is ``{(l, m): ||m|-1| <= l <= n, |m| <= n+1}``; the two
    extreme orders ``|m| in {n, n+1}`` are stored but can never be produced by
    differentiating a potential of degree ``<= n-1``.
    """

    basis, shift = "Z", 1


def random_spectrum(n, seed):
    """Scalar spectrum with i.i.d. standard-normal coefficients.

    Uses the PCG64 generator, so results are reproducible across platforms
    for a fixed seed, a non-negative integer.
    """
    _require_integers("random_spectrum", least=0, n=n, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = ScalarSpectrum(n)
    spec._data[:] = rng.standard_normal(spec.size)
    return spec


def random_potentials(n, seed):
    """``random_spectrum(n - 1, seed)`` and ``(n - 1, seed + 1_000_000)``, constant modes zeroed."""
    _require_integers("random_potentials", least=1, n=n)
    s, t = random_spectrum(n - 1, seed), random_spectrum(n - 1, seed + 1_000_000)
    s[0, 0] = t[0, 0] = 0.0
    return s, t


def relative_l2_error(a, b):
    """Relative l2 error ``||a - b|| / ||b||`` over the coefficient vectors.

    Falls back to the absolute norm ``||a||`` when ``b`` is identically zero.
    """
    if not (isinstance(a, _CoeffTable) and isinstance(b, _CoeffTable)):
        raise ValueError("relative_l2_error: arguments must be spectra (ScalarSpectrum or ZSpectrum)")
    if type(a) is not type(b) or a.n != b.n:
        raise ValueError("relative_l2_error: spectra must share basis and degree")
    # if a - b or a norm could overflow, one power of two scales both tables: exact, so the ratio is unchanged
    k = max(0, math.frexp(max(max(s.flat().max(), -s.flat().min()) for s in (a, b)))[1] + a.size.bit_length() - 1021)
    x, y = (np.ldexp(s.flat(), -k) if k else s.flat() for s in (a, b))
    return _l2_norm(x - y) / denom if (denom := _l2_norm(y)) else _l2_norm(a.flat())


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


# rows per chunk of the writer: bounds its working memory (8192 wrote faster than 4096 or 16384)
_WRITE_CHUNK_ROWS = 8192
_ROW_DTYPE = np.dtype([("l", np.int64), ("m", np.int64), ("value", np.float64)])
_READ_BLOCK = 1 << 18  # bytes per read of the exact reader: bounds its working memory


def _split(a):
    """Dekker's split ``a = hi + lo``, exact, each half of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    return c - (c - a), a - (c - (c - a))


def _double_doubles(ratios):
    """``(hi, *_split(hi), lo)`` of each exact ``n / d`` in ``ratios``, both halves rounded: ``|hi + lo - n / d| <= 2**-106 n / d``."""
    hi = np.array([n / d for n, d in ratios])  # int / int rounds correctly
    lo = np.array([(n * b - a * d) / (d * b) for (n, d), (a, b) in zip(ratios, map(float.as_integer_ratio, hi.tolist()))])
    return hi, *_split(hi), lo


@functools.cache
def _format_tables():
    """The writer's tables: row ``E + 281`` (``E`` in -281..280) of ``(ph, *_split(ph), pl)``,
    ``ph + pl ~ 10**(16 - E)``, and of ``e±XX[X]`` and a line end, padded with zero bytes."""
    tens = [(10 ** max(16 - e, 0), 10 ** max(e - 16, 0)) for e in range(-281, 281)]  # 10**(16 - e) = n / d
    exps = np.array([b"e%+03d\n" % e for e in range(-281, 281)], "S8").view("<u8")
    return _double_doubles(tens), exps


@functools.cache
def _parse_tables():
    """The exact reader's table: row ``E + 280`` (``E`` in -280..280) of ``(qh, *_split(qh), ql)``,
    ``qh + ql ~ 10**(E - 16) / 2**k`` with ``qh`` in ``[1, 2)``, and of ``2**k``."""
    ratios, powers = [], []
    for e in range(-296, 265):  # E - 16
        n, d = 10 ** max(e, 0), 10 ** max(-e, 0)
        k = n.bit_length() - d.bit_length()  # n / d / 2**k in (1/2, 2)
        n, d = (n, d << k) if k >= 0 else (n << -k, d)
        k, n = (k - 1, 2 * n) if n < d else (k, n)
        ratios.append((n, d))
        powers.append(math.ldexp(1.0, k))
    return _double_doubles(ratios), np.array(powers)


def _label_tables(top, width):
    """The ASCII ``"%d,"`` of each integer ``-top..top``, a row each, zero-padded to ``width`` bytes: left-, then right-aligned."""
    left = [b"%d," % i for i in range(-top, top + 1)]
    right = [b.rjust(width, b"\0") for b in left]
    return tuple(np.array(rows, f"S{width}").view(np.uint8).reshape(-1, width) for rows in (left, right))


def _format_fallback(values):
    """CPython's ``%.16e`` of ``values`` and a line end, one 25-byte row each, a zero byte for ``+`` and after ``e±XX``."""
    text = "% -24.16e\n" * len(values) % tuple(values.tolist())
    return np.frombuffer(text.replace(" \n", "\n ").replace(" ", "\0").encode("ascii"), np.uint8).reshape(-1, 25)


def write_spectrum(spectrum, path):
    """Write a spectrum in the text coefficient format.

    Line 1 is ``# basis=<Y|Z> n=<int>``; each following line is ``l,m,value``
    with the value in 17-significant-digit scientific notation, rows in
    order-major order.  Missing rows denote zero, but the writer emits the
    full table.  A non-finite value is refused before the file is created.

    The bytes equal CPython's ``"%d,%d,%.16e\n"``.  A chunk of whole orders (the
    order of every ``_WRITE_CHUNK_ROWS``-th row starts one) is built as rows of
    8-byte words: ``l,`` right-aligned in one; ``m,`` left-aligned in ``k``, then
    the sign, ``d`` and ``.``; 16 digits in two; ``e±XX[X]\n`` in one.  Their zero
    padding, at most two runs a row (numpy drops those faster than scattered
    zeros), is dropped on writing.  For ``|x|`` in ``[1e-280, 1e280)``, guess ``E = floor(log10 |x|)``, let ``ph + pl`` be
    ``10**(16 - E)`` to ``2**-106``; Dekker's product (1971) gives ``p + err =
    |x| ph`` exactly (no partial product underflows).  With ``frac = err + |x|
    pl``, ``p + frac`` is within ``1e-13`` of ``y = |x| 10**(16 - E)`` while
    ``y < 1e18`` (``|err| <= ulp(p) / 2``, ``|x pl| <= 2**-53 y``).  So if
    ``frac`` is over ``1e-9`` from a half-integer, ``D = p + floor(frac +
    0.5)`` is the integer nearest ``y``, not a tie.  ``D`` strictly inside
    ``(1e16, 1e17)`` proves the guess (one too high gives ``y < 1e16``, one too
    low ``y >= 1e17``) and ``p > 2**53`` an integer, so its digits are the
    correctly rounded ones CPython's dtoa prints (Gay 1990), the 16 after the
    point by :func:`_ascii8`.  Other rows (near-ties, wrong guesses, ``|x|``
    out of range) go to one ``%`` call per chunk; ``±0.0`` prints as zeros.
    """
    if not isinstance(spectrum, _CoeffTable):
        raise ValueError("write_spectrum: the spectrum must be a ScalarSpectrum or ZSpectrum")
    spectrum.require_finite(f"write_spectrum: {path}")
    (ph, ph_hi, ph_lo, pl), exps = _format_tables()
    top, k = spectrum.max_order(), (len(str(spectrum.max_order())) + 12) // 8
    orders, degrees = _label_tables(top, 8 * k)
    orders, degrees = orders.view(f"V{8 * k}")[:, 0], np.ascontiguousarray(degrees[top:, -8:]).view("<u8")[:, 0]
    starts, counts = spectrum.order_offsets(m_of := np.array(spectrum.orders()))
    cuts = np.unique(np.searchsorted(starts, np.arange(0, spectrum.size, _WRITE_CHUNK_ROWS), "right") - 1).tolist() + [len(starts)]
    runs, ends = list(zip(starts.tolist(), counts.tolist(), spectrum.degree_start(m_of).tolist())), np.append(starts, spectrum.size)
    rows = np.zeros(max(np.diff(ends[cuts])), [("l", "<u8"), ("m", orders.dtype), ("hi", "<u8"), ("lo", "<u8"), ("exp", "<u8")])
    with open(path, "wb") as fh:
        fh.write(f"# basis={spectrum.basis} n={spectrum.n}\n".encode("ascii"))
        for i0, i1 in zip(cuts, cuts[1:]):
            lo = runs[i0][0]
            x, chunk = spectrum.flat()[lo : ends[i1]], rows[: ends[i1] - lo]
            ls, chunk["m"] = chunk["l"], np.repeat(orders[m_of[i0:i1] + top], counts[i0:i1])
            for a, c, l in runs[i0:i1]:  # each order's degree labels are one slice of the table
                ls[a - lo : a - lo + c] = degrees[l : l + c]
            ax, zero = np.abs(x), x == 0
            ax[(ax < 1e-280) | (ax >= 1e280)] = 1.0  # gives D = 10**16, so redone; zeros get D = 0
            e = np.floor(np.log10(ax)).astype(np.int64) + 281
            p, (a_hi, a_lo) = ax * ph[e], _split(ax)
            frac = (((a_hi * ph_hi[e] - p) + a_hi * ph_lo[e] + a_lo * ph_hi[e]) + a_lo * ph_lo[e]) + ax * pl[e]
            r = np.floor(frac + 0.5)
            d = (p.astype(np.int64) + r.astype(np.int64) - zero * 10**16).view(_U)
            ok = zero | (d > 10**16) & (d < 10**17) & (np.abs(frac - r) < 0.5 - 1e-9)
            q, lead, text = d // _U(10**8), d // _U(10**16), chunk.view(np.uint8).reshape(len(x), -1)
            np.multiply(np.signbit(x), np.uint8(ord("-")), out=text[:, 8 * k + 5])
            np.add(lead, ord("0") | ord(".") << 8, out=chunk.view("<u2").reshape(len(x), -1)[:, 4 * k + 3], casting="unsafe")
            chunk["hi"], chunk["lo"] = _ascii8(np.stack([q - lead * _U(10**8), d - q * _U(10**8)]))
            chunk["exp"] = exps[e]
            text[~ok, 8 * k + 5 : -2] = _format_fallback(x[~ok])
            fh.write(text[text != 0])


_U = np.uint64


def _digits8(w):
    """The values of ``uint64`` words of 8 ASCII digits, the first in the lowest byte, and which are all digits."""
    high, zeros = _U(0xF0F0F0F0F0F0F0F0), _U(0x3030303030303030)
    ok = ((w & high) == zeros) & (((w + _U(0x0606060606060606)) & high) == zeros)  # each byte 0x30..0x39
    w = w - zeros  # then pairs, quads and octets of digits by SWAR multiply-shift-mask steps
    w = (w * _U(10) + (w >> _U(8))) & _U(0x00FF00FF00FF00FF)
    w = (w * _U(100) + (w >> _U(16))) & _U(0x0000FFFF0000FFFF)
    return (w * _U(10000) + (w >> _U(32))) & _U(0xFFFFFFFF), ok


def _ascii8(x):
    """:func:`_digits8` inverted in place: ``// 10**4``, ``// 100``, ``// 10`` by exact multiply-shifts, remainders a lane up."""
    for mul, shift, mask, lane, base in (109951163, 40, 0x3FFF, 32, 10**4), (5243, 19, 0x7F0000007F, 16, 100), (103, 10, 0xF000F000F000F, 8, 10):
        q = x * _U(mul) >> _U(shift) & _U(mask)
        x <<= _U(lane)
        x -= q * _U((base << lane) - 1)
    x += _U(0x3030303030303030)
    return x


def _read_exact(raw, spec):
    """Fill ``spec`` from the binary file ``raw``, at its first row, if the rows are exactly the writer's.

    Returns ``spec``, or None with ``spec`` zero if any row is not or a value
    is not finite; it raises no ``ValueError``.  Row ``k`` must be the
    writer's ``l,m,`` label of flat position ``k``, then ``[-]d.<16
    digits>e±XX[X]`` and a line end, with ``d`` nonzero (or every digit
    zero); the file holds ``spec.size`` rows.  Blocks of whole rows are
    read; every byte is checked, through ``uint64`` words read at each row's
    offsets from its line end (the label against the writer's table) and
    the 16 digits after the point converted by SWAR steps (:func:`_digits8`).

    The value is ``V = D 10**(E - 16)``, ``D`` in ``[1e16, 1e17)``.  Scaled
    by ``2**-k`` from :func:`_parse_tables`, ``V' = D (qh + ql + eta)`` lies
    in ``[2**53, 2**58)``, with ``|eta| <= 2**-106``.  ``Dh = fl(D)`` and
    ``Dl = D - Dh`` (``|Dl| <= 8``) are exact; Dekker's product (1971) gives
    ``p + err = Dh qh`` exactly (``|err| <= 16``), and ``r = (err + Dh ql)
    + Dl qh``.  The four roundings in ``r`` (products under 16, sums under
    64), ``Dl ql`` and ``D eta`` leave ``|V' - p - r| < 17 * 2**-50 <
    2**-45``.  ``x = fl(p + r)`` and
    ``rho = (p + r) - x`` come exactly from Fast2Sum (``p > |r|``).  So if
    ``|rho| + 2**-45`` is under half the gap below ``x`` (the smaller gap:
    at a power of two it is half the gap above), ``x`` is the double
    nearest ``V'`` and no tie: the correctly rounded value that CPython and
    ``np.loadtxt`` give.  ``2**k x`` is exact, as ``V`` lies in ``[1e-280,
    1e281)``, where doubles are normal; ``D = 0`` gives ``±0.0``.  The
    writer's rows in that range always pass: 17 digits put a row within
    ``0.5e-16 |x|`` of its double ``x``, under half of either gap by a margin
    far above ``2**-45``.  Other rows (near-ties, ``|E| > 280``) are
    ``float()`` of their text, one pass a block; an infinite one declines.
    """
    top, out = spec.max_order(), spec.flat()
    labels = _label_tables(top, 8)[0]  # 8 bytes hold every label: top >= 10**6 needs 10**12 coefficients
    width, masks = np.count_nonzero(labels, 1), ((labels != 0) * np.uint8(255)).view("<u8")[:, 0]
    labels = labels.view("<u8")[:, 0]
    (qh, qh_hi, qh_lo, ql), powers = _parse_tables()
    buf = np.zeros(_READ_BLOCK + 64, np.uint8)  # rows from byte 32: word reads stay inside at either end
    words = np.ndarray(len(buf) - 7, "<u8", buf, 0, (1,))  # the 8 bytes from each offset
    k, held = 0, 0  # rows filled, and bytes of a partial row moved to the front
    while got := raw.readinto(memoryview(buf)[32 + held : -32]):
        end = 32 + held + got
        nl = np.flatnonzero(buf[32:end] == 10) + 32
        rows = len(nl)
        if not rows or k + rows > spec.size:
            break
        start = np.concatenate([[32], nl[:-1] + 1])
        b = nl - (buf[nl - 4] != ord("e"))  # past the exponent's second digit
        three = b != nl
        head, hi, lo, tail = words[b - 24], words[b - 20], words[b - 12], words[b - 4]
        (hi, ok), (lo, ok_lo) = _digits8(hi), _digits8(lo)
        # bytes 1-3 of h: '-' or ',', d, '.'; bytes 0-4 of t: 'e', the sign, two digits, a third or '\n'
        h, t = head.view(np.uint8).reshape(-1, 8), tail.view(np.uint8).reshape(-1, 8)
        neg, d0, ex = h[:, 1] == ord("-"), h[:, 2] - np.uint8(48), t[:, 2:5] - np.uint8(48)
        E = (10 * ex[:, 0].astype(np.int64) + ex[:, 1]) * np.where(three, 10, 1) + three * ex[:, 2]
        E = np.where(t[:, 1] == ord("-"), -E, E)
        l, m = spec._labels(k, k + rows)
        l, m = l + top, m + top
        a = (d0 * 1e8 + hi) * 1e8  # exact: d0 * 1e8 + hi < 1e9, and that times 5**8 < 2**53
        Dh = a + lo  # fl(D)
        zero = Dh == 0
        ok &= ok_lo & (h[:, 3] == ord(".")) & (neg | (h[:, 1] == ord(","))) & ((d0 >= 1) & (d0 <= 9) | zero)
        ok &= (t[:, 0] == ord("e")) & ((t[:, 1] == ord("+")) | (t[:, 1] == ord("-")))
        ok &= (ex[:, 0] <= 9) & (ex[:, 1] <= 9) & ((ex[:, 2] <= 9) | ~three)
        ok &= (b - 22 - neg - start == width[l] + width[m]) & ((words[start] & masks[l]) == labels[l])
        ok &= (words[start + width[l]] & masks[m]) == labels[m]
        if not ok.all():
            break
        far = np.abs(E) > 280  # past the table: float() takes the row
        E[far] = 0  # any row of the table will do
        e = E + 280
        q, Dl = qh[e], lo - (Dh - a)  # Fast2Sum: Dl = D - Dh
        p, (d_hi, d_lo) = Dh * q, _split(Dh)
        err = (((d_hi * qh_hi[e] - p) + d_hi * qh_lo[e] + d_lo * qh_hi[e]) + d_lo * qh_lo[e])
        r = (err + Dh * ql[e]) + Dl * q
        x = p + r
        rho = r - (x - p)
        doubt = np.flatnonzero(~(zero | (np.abs(rho) + 2.0**-45 < (x - np.nextafter(x, 0)) / 2)) | far)
        plain = [float(buf[i:j].tobytes()) for i, j in zip((b[doubt] - 22 - neg[doubt]).tolist(), nl[doubt].tolist())]
        if not all(map(math.isfinite, plain)):  # plain: float() of the rows the proof does not take
            break
        scale = powers[e]
        np.negative(scale, where=neg, out=scale)
        np.multiply(x, scale, out=out[k : k + rows])  # exact: by +-2**k, into the normal range
        out[k + doubt] = plain
        k, cut = k + rows, nl[-1] + 1
        held = end - cut
        buf[32 : 32 + held] = buf[cut:end]
    else:
        if k == spec.size and not held:
            return spec
    out[:k] = 0
    return None


class _DataRows:
    """The data rows of an open file past its header, left-stripped, for the parser.

    Data rows are the lines that are neither blank nor comments, so a ``#`` inside a row stays
    an error and the parser counts data rows only.  The line where each run of rows starts is
    kept, so :meth:`line` needs no second read, which a pipe could not give.  ``rows`` counts
    the rows read and ``last`` is the last of them, the one the parser stopped at if it failed.
    """

    def __init__(self, fh):
        self.fh, self.rows, self.last, self.runs = fh, 0, "", [(0, 2)]  # (row, its line): the next rows are the next lines

    def __iter__(self):
        for lineno, line in enumerate(self.fh, start=2):
            line = line.lstrip()
            if line and line[0] != "#":
                self.rows, self.last = self.rows + 1, line
                yield line
            else:
                self.runs.append((self.rows, lineno + 1))

    def line(self, row):
        """Line number of data row ``row`` (0-based)."""
        start, lineno = self.runs[bisect.bisect_right(self.runs, (row, math.inf)) - 1]
        return lineno + row - start


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

    A seekable file of the writer's exact rows, every position once in
    order, is parsed in numpy a block of rows at a time and holds one block
    besides the table (:func:`_read_exact`): a proof certifies the rounding
    of each row it covers, and ``float()`` takes the rest.  Any other file,
    and every pipe, goes whole, unchanged, through a comment and blank-line
    filter to one ``np.loadtxt``; whole-array checks and one scatter into
    the table follow.  Both paths give ``float()`` of each value's text,
    bit for bit.
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
        # The writer's rows take the exact path, once: a pipe cannot be read
        # twice, and a cookie past 2**64 holds decoder state (a header ending in '\r')
        if fh.seekable() and (body := fh.tell()) < 1 << 64:
            fh.buffer.seek(body)
            if _read_exact(fh.buffer, spec):
                return spec
            fh.seek(body)
        lines = _DataRows(fh)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # numpy releases that parse '1.0' in an integer field through
                # a float warn instead of failing: keep that an error
                warnings.filterwarnings("error", "loadtxt.*integer via a float", DeprecationWarning)
                rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=_ROW_DTYPE)
        except ValueError as exc:
            if isinstance(exc, UnicodeDecodeError) or not lines.rows:
                raise ValueError(f"{path}: {exc}") from None
            # loadtxt stops pulling rows at the one it fails on: the last one read
            problem = "expected 'l,m,value'" if lines.last.count(",") != 2 else f"malformed row {lines.last.strip()!r}"
            raise ValueError(f"{path}:{lines.line(lines.rows - 1)}: {problem}") from None

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
            raise ValueError(f"{path}:{lines.line(row)}: {problem}")
    spec.flat()[pos] = values
    return spec
