"""Slow pointwise evaluation and quadrature analysis, used as the ground truth.

Everything here is deliberately simple and O(n^3): direct Legendre
recurrences, explicit synthesis sums, and Gauss x trapezoid quadrature for
analysis.  The fast spectral pipeline is tested against this module, so the
implementations are kept independent of the per-order coupling
coefficients wherever an alternative route exists (the colatitude
derivative, for instance, uses the order-shift relation rather than the
degree-shift relation used by the operators).

Conventions: colatitude ``theta in [0, pi]``, longitude ``phi in [0, 2 pi)``,
azimuthal factor ``sqrt((2 - delta_{m,0}) / (2 pi)) * cos(m phi)`` for
``m >= 0`` and ``... * sin(-m phi)`` for ``m < 0``.  The normalized Legendre
functions carry the ``(-1)^{|m|}`` prefactor that cancels the
Condon-Shortley phase, so they are positive at ``l == m``, ``x -> 1^-``.
"""

from dataclasses import dataclass, field

import numpy as np

from .spectra import TangentField, _real_array, _require_field, _require_finite, _require_integers, _require_potentials

__all__ = [
    "GridSpec",
    "legendre_table",
    "eval_Y",
    "eval_Z",
    "eval_gradY",
    "synthesize",
    "synthesize_from_potentials",
    "analyze_z",
]


def legendre_table(m, lmax, x):
    """Normalized associated Legendre functions of order ``m``, degrees ``m..lmax``.

    Parameters
    ----------
    m: nonnegative order
    lmax: highest degree (``>= m``)
    x: scalar or 1-D array of abscissae in ``[-1, 1]``

    Returns
    -------
    table: array of shape ``(lmax - m + 1,) + shape(x)``; row ``k`` holds
        degree ``m + k``.

    The recurrence is seeded at ``l == m`` with the closed product form and
    run upward in degree, which is stable for the L2-normalized functions.
    """
    _require_integers("legendre_table", least=0, m=m)
    _require_integers("legendre_table", lmax=lmax)
    if lmax < m:
        raise ValueError(f"legendre_table: need lmax >= m, got lmax={lmax}, m={m}")
    x = _real_array("legendre_table", x)
    if not np.all(np.abs(x) <= 1.0):  # NaN too
        raise ValueError("legendre_table: abscissae must lie in [-1, 1]")
    out = np.zeros((lmax - m + 1,) + x.shape)
    # seed: accumulate sin(theta) factors inside the product to avoid under/overflow
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    seed = np.full_like(x, np.sqrt(0.5))
    for k in range(1, m + 1):
        seed = seed * (np.sqrt((2 * k + 1) / (2.0 * k)) * s)
    out[0] = seed
    if lmax == m:
        return out

    def b(l):
        # off-diagonal entry of the Jacobi matrix: x P_l = b(l) P_{l+1} + b(l-1) P_{l-1}
        return np.sqrt(((l + 1.0) ** 2 - m * m) / ((2 * l + 1.0) * (2 * l + 3.0)))

    out[1] = x * out[0] / b(m)
    for l in range(m + 1, lmax):
        out[l - m + 1] = (x * out[l - m] - b(l - 1) * out[l - m - 1]) / b(l)
    return out


def _azimuthal(m, phi):
    phi = np.asarray(phi, dtype=np.float64)
    fac = np.sqrt((2.0 - (m == 0)) / (2.0 * np.pi))
    return fac * (np.cos(m * phi) if m >= 0 else np.sin(-m * phi))


def _azimuthal_deriv(m, phi):
    phi = np.asarray(phi, dtype=np.float64)
    fac = np.sqrt((2.0 - (m == 0)) / (2.0 * np.pi))
    return fac * (-m * np.sin(m * phi) if m >= 0 else -m * np.cos(-m * phi))


def _dtheta_legendre(l, m, legendre):
    """d/dtheta of ``P~_l^m``, ``l >= 1``, by the order-shift relation; ``legendre(l, k) = P~_l^k``."""
    if m == 0:
        return -np.sqrt(l * (l + 1.0)) * legendre(l, 1)
    lo = 0.5 * np.sqrt((l + m) * (l - m + 1.0)) * legendre(l, m - 1)
    if l == m:
        return lo
    return lo - 0.5 * np.sqrt((l - m) * (l + m + 1.0)) * legendre(l, m + 1)


class _Basis:
    """The basis functions at nodes ``(theta, phi)`` up to degree ``lmax``, reading rows of one
    Legendre table per order, built on first use.  The recurrence runs forward from ``l == m``,
    so a row does not depend on the table's length: degree ``l``'s is the last of ``legendre_table(m, l, x)``."""

    def __init__(self, lmax, theta, phi):
        self.lmax, self.theta, self.phi, self.tables = lmax, theta, phi, {}

    def legendre(self, l, m):
        if m not in self.tables:
            self.tables[m] = legendre_table(m, self.lmax, np.cos(self.theta))
        return self.tables[m][l - m]

    def Y(self, l, m):
        return self.legendre(l, abs(m)) * _azimuthal(m, self.phi)

    def Z(self, l, m):
        return self.legendre(l, abs(abs(m) - 1)) * _azimuthal(m, self.phi)

    def gradY(self, l, m):
        if np.any(np.sin(self.theta) == 0.0):
            raise ValueError("eval_gradY: theta at a pole")
        if l == 0:
            z = np.zeros(np.broadcast(self.theta, np.asarray(self.phi)).shape)
            return z, z.copy()
        th_comp = _dtheta_legendre(l, abs(m), self.legendre) * _azimuthal(m, self.phi)
        return th_comp, self.legendre(l, abs(m)) * _azimuthal_deriv(m, self.phi) / np.sin(self.theta)


def _basis(name, l, m, shift, theta, phi):
    """``_Basis(l, theta, phi)``, once ``(l, m)`` is in basis Y (``shift`` 0) or Z (1): ``l >= ||m| - shift|``,
    and the coordinates are real and finite."""
    _require_integers(name, l=l, m=m)
    if abs(abs(m) - shift) > l:
        raise ValueError(f"{name}: (l={l}, m={m}) outside basis {'YZ'[shift]}")
    theta, phi = _real_array(f"{name}: theta", theta), _real_array(f"{name}: phi", phi)
    try:
        np.broadcast_shapes(theta.shape, phi.shape)
    except ValueError:
        raise ValueError(f"{name}: theta and phi must broadcast together, got shapes {theta.shape} and {phi.shape}") from None
    _require_finite(f"{name}: theta", np.atleast_1d(theta))
    _require_finite(f"{name}: phi", np.atleast_1d(phi))
    return _Basis(l, theta, phi)


def eval_Y(l, m, theta, phi):
    """Real spherical harmonic of degree ``l`` and signed order ``m``."""
    return _basis("eval_Y", l, m, 0, theta, phi).Y(l, m)


def eval_Z(l, m, theta, phi):
    """Tangential-component basis function of degree ``l`` and signed order ``m``."""
    return _basis("eval_Z", l, m, 1, theta, phi).Z(l, m)


def eval_gradY(l, m, theta, phi):
    """Surface-gradient components of a real spherical harmonic.

    Returns ``(theta_comp, phi_comp)`` where the gradient is
    ``theta_comp e_theta + phi_comp e_phi``; the phi component carries the
    ``csc(theta)`` factor.  ``theta`` must stay away from the poles.
    """
    return _basis("eval_gradY", l, m, 0, theta, phi).gradY(l, m)


@dataclass
class GridSpec:
    """Gauss-Legendre x uniform product grid on the sphere.

    ``theta`` nodes are ``arccos`` of the ``n_theta``-point Gauss-Legendre
    abscissae, so integrals against ``sin(theta) d theta`` become exact for
    polynomial integrands of degree ``<= 2 n_theta - 1``; ``phi`` nodes are
    uniform, and the rectangle rule is exact for trigonometric polynomials
    of order ``< n_phi``.
    """

    n_theta: int
    n_phi: int
    x: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _require_integers("GridSpec", least=1, n_theta=self.n_theta, n_phi=self.n_phi)
        self.x, self.weights = np.polynomial.legendre.leggauss(self.n_theta)
        self.theta = np.arccos(self.x)
        self.phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

    @classmethod
    def for_degree(cls, n):
        """Smallest comfortable grid resolving a degree-``n`` expansion.

        ``n_phi = 2 n + 4`` leaves headroom over the formal minimum
        ``2 n + 2``, which would alias the order ``n + 1`` cosine products.
        """
        _require_integers("GridSpec.for_degree", least=0, n=n)
        return cls(n + 1, 2 * n + 4)

    def check_resolves(self, n):
        """Raise ``ValueError`` unless the grid resolves a degree-``n`` expansion, ``n`` a nonnegative integer."""
        _require_integers("GridSpec.check_resolves", least=0, n=n)
        if self.n_theta < n + 1 or self.n_phi < 2 * n + 2:
            raise ValueError(f"GridSpec.check_resolves: grid ({self.n_theta}, {self.n_phi}) under-resolves degree n={n}")


def _require_grid(name, grid, n):
    """Raise ``ValueError`` naming ``name`` unless ``grid`` is a :class:`GridSpec`; then :meth:`GridSpec.check_resolves` ``n``."""
    if not isinstance(grid, GridSpec):
        raise ValueError(f"{name}: the grid must be a GridSpec")
    grid.check_resolves(n)


def synthesize(field_, grid):
    """Pointwise samples ``(V_theta, V_phi)``, shape ``(n_theta, n_phi)``, of a :class:`TangentField`
    on ``grid``, summed directly in the tangential basis.  Raises ``ValueError`` on any other field or
    a non-finite coefficient, naming its component and ``(l, m)``."""
    _require_field("synthesize", field_)
    n = field_.n
    _require_grid("synthesize", grid, n)
    vth, vph = np.zeros((2, grid.n_theta, grid.n_phi))
    tables = [legendre_table(k, n, grid.x) for k in range(n + 1)]
    for m in field_.theta.orders():
        tab = tables[abs(abs(m) - 1)]  # degrees ||m|-1| .. n
        az = _azimuthal(m, grid.phi)
        for comp, out in ((field_.theta, vth), (field_.phi, vph)):
            coeffs = comp.order_slice(m)
            if not np.any(coeffs):
                continue
            radial = coeffs @ tab  # (n_theta,)
            out += radial[:, None] * az[None, :]
    return vth, vph


def synthesize_from_potentials(s, t, grid):
    """Pointwise samples of ``grad(s) + e_r x grad(t)`` on ``grid``.

    This is the second synthesis route: it never touches the tangential
    basis, so agreement with ``synthesize(differentiate(s, t))`` exercises
    the whole spectral pipeline.  Raises ``ValueError``, as :func:`.solver.differentiate` does, on
    potentials that are not basis-Y spectra of one degree or hold a non-finite coefficient.
    """
    _require_potentials("synthesize_from_potentials", s, t)
    _require_grid("synthesize_from_potentials", grid, s.n + 1)
    vth, vph = np.zeros((2, grid.n_theta, grid.n_phi))
    sin_th = np.sin(grid.theta)
    tables = [legendre_table(k, s.n, grid.x) for k in range(s.n + 1)]
    for m in s.orders():
        mu = abs(m)
        az = _azimuthal(m, grid.phi)
        daz = _azimuthal_deriv(m, grid.phi)
        for l in range(max(mu, 1), s.n + 1):
            cs, ct = s[l, m], t[l, m]
            if cs == 0.0 and ct == 0.0:
                continue
            dth = _dtheta_legendre(l, mu, lambda l, k: tables[k][l - k])
            pl = tables[mu][l - mu]
            grad_th = dth[:, None] * az[None, :]
            grad_ph = (pl / sin_th)[:, None] * daz[None, :]
            # e_r x grad has components (-grad_ph, grad_th)
            vth += cs * grad_th - ct * grad_ph
            vph += cs * grad_ph + ct * grad_th
    return vth, vph


def analyze_z(vtheta, vphi, grid, n):
    """Project pointwise samples onto the tangential basis by quadrature.

    Inverse of :func:`synthesize` for band-limited fields: coefficients are
    the surface inner products evaluated with Gauss x rectangle quadrature,
    exact for expansions of degree ``<= n`` on a grid that resolves them.
    Raises ``ValueError`` on a degree that is not a nonnegative integer, and
    naming the array and its first row (colatitude node) that holds a
    non-finite sample.
    """
    _require_integers("analyze_z", least=0, n=n)
    _require_grid("analyze_z", grid, n)
    vtheta, vphi = _real_array("analyze_z", vtheta), _real_array("analyze_z", vphi)
    if vtheta.shape != (grid.n_theta, grid.n_phi) or vphi.shape != vtheta.shape:
        raise ValueError("analyze_z: sample arrays do not match the grid")
    _require_finite("analyze_z: vtheta", vtheta)
    _require_finite("analyze_z: vphi", vphi)
    out = TangentField.zeros(n)
    scale = 2.0 * np.pi / grid.n_phi
    wx = grid.weights
    tables = [legendre_table(k, n, grid.x) for k in range(n + 1)]
    for m in out.theta.orders():
        tab = tables[abs(abs(m) - 1)]  # degrees ||m|-1| .. n on grid.x
        az = _azimuthal(m, grid.phi)
        for samples, comp in ((vtheta, out.theta), (vphi, out.phi)):
            ring = samples @ az * scale  # (n_theta,)
            comp.set_order_slice(m, tab @ (wx * ring))
    return out
