"""Self-contained numerical verification suites.

Each suite checks one family of claims against an independent route
(pointwise evaluation, dense linear algebra, or closed-form bounds) and
returns a pass/fail flag with a short detail string.  The ``quick`` level
runs in a couple of seconds; ``full`` covers the larger grids.

Coefficient functions are always reached through the module, so swapping
one out (to check that the verification actually bites) makes the
corresponding suites fail.
"""

import numpy as np

from . import recurrences as rec
from . import conditioning as cond
from .operators import build_A, build_B, build_order_system, cscy_to_z, z_to_cscy
from .pointwise import GridSpec, analyze_z, eval_Y, eval_Z, eval_gradY, synthesize_from_potentials
from .solver import decompose, differentiate, solve_order
from .spectra import random_spectrum, relative_l2_error

__all__ = ["run_verification", "SUITES"]

_NODES = [(th, ph) for th in np.linspace(0.15, np.pi - 0.15, 5) for ph in (0.3, 2.1, 4.4)]


def _suite_pointwise(level, tol_scale=1.0):
    lmax = 8 if level == "quick" else 20
    tol = 1e-13 * tol_scale
    worst = 0.0
    for th, ph in _NODES:
        csc = 1.0 / np.sin(th)
        for m in range(-lmax, lmax + 1):
            mu = abs(m)
            for l in range(max(abs(mu - 1), 1), lmax + 1):
                # conversion identity (sign flips at m == 0, see operators)
                if l >= abs(mu - 1):
                    rhs = rec.beta(l, mu) * eval_Y(l + 1, m, th, ph) * csc
                    if l - 1 >= mu:
                        rhs += rec.alpha(l, mu) * eval_Y(l - 1, m, th, ph) * csc
                    sign = 1.0 if mu else -1.0
                    worst = max(worst, abs(eval_Z(l, m, th, ph) - sign * rhs))
                if l < mu:
                    continue
                # colatitude derivative identity
                dth, dph = eval_gradY(l, m, th, ph)
                rhs = rec.delta(l, mu) * eval_Y(l + 1, m, th, ph) * csc
                if l - 1 >= mu:
                    rhs += rec.gamma(l, mu) * eval_Y(l - 1, m, th, ph) * csc
                worst = max(worst, abs(dth - rhs))
                # longitude derivative identity
                worst = max(worst, abs(dph - (-m) * eval_Y(l, -m, th, ph) * csc))
    return worst <= tol, f"max identity deviation {worst:.2e} (tol {tol:.1e})"


def _suite_conversion(level, tol_scale=1.0):
    sizes = (8, 16) if level == "quick" else (8, 16, 32, 64)
    tol = 1e-12 * tol_scale
    worst = 0.0
    for n in sizes:
        s = random_spectrum(n - 1, 101 + n)
        t = random_spectrum(n - 1, 202 + n)
        s[0, 0] = 0.0
        t[0, 0] = 0.0
        field = differentiate(s, t)
        for comp in (field.theta, field.phi):
            for m in range(-(n - 1), n):
                z = comp.order_slice(m)
                scale = max(1.0, float(np.max(np.abs(z))))
                w = z_to_cscy(z, m, n)
                z2 = cscy_to_z(w, m, n)
                worst = max(worst, float(np.max(np.abs(z2 - z))) / scale)
                w2 = z_to_cscy(z2, m, n)
                worst = max(worst, float(np.max(np.abs(w2 - w))) / scale)
    return worst <= tol, f"max conversion roundtrip error {worst:.2e} (tol {tol:.1e})"


def _suite_structure(level, tol_scale=1.0):
    if level == "quick":
        sizes = (2, 3, 5, 8, 13, 21, 33)
    else:
        sizes = tuple(range(2, 65)) + (96, 128, 192, 256)
    for n in sizes:
        for m in range(1, n):
            system = build_order_system(n, m)
            a, b = system.A, system.B
            if np.any(a.toarray().diagonal() != 0.0):
                return False, f"A diagonal not zero at (n={n}, m={m})"
            bd = b.toarray()
            if np.any(bd[-1] != 0.0) or np.any(bd[: b.cols] != m * np.eye(b.cols)):
                return False, f"B structure violated at (n={n}, m={m})"
            lower, upper = system.shuffled.bandwidths_used()
            if lower > 2 or upper > 2:
                return False, f"interleaved bandwidths ({lower},{upper}) at (n={n}, m={m})"
            # entrywise scatter identity on a sample of entries
            md = np.block([[a.toarray(), bd], [bd, a.toarray()]])
            sd = system.shuffled.toarray()
            if not np.array_equal(sd[np.ix_(system.perm_rows, system.perm_cols)], md):
                return False, f"permutation identity violated at (n={n}, m={m})"
    return True, f"structure verified on {len(sizes)} truncation degrees"


def cholesky_deviations(sizes):
    """``(n, m, deviation)`` of the closed-form ``R'R`` from ``C + D``, relative to its largest entry."""
    for n in sizes:
        for m in range(1, n):
            c, d = cond.build_CD(n, m)
            cd = c.toarray() + d.toarray()
            r = cond.build_R(n - m, m).to_dense()
            yield n, m, float(np.max(np.abs(r.T @ r - cd)) / np.max(np.abs(cd)))


def _suite_cholesky(level, tol_scale=1.0):
    sizes = (4, 8, 16) if level == "quick" else (4, 8, 16, 32, 64)
    tol = 1e-13 * tol_scale
    worst = max(dev for _, _, dev in cholesky_deviations(sizes))
    return worst <= tol, f"max relative Cholesky deviation {worst:.2e} (tol {tol:.1e})"


def _suite_condition_equalities(level, tol_scale=1.0):
    sizes = (8, 16) if level == "quick" else (8, 16, 32, 64)
    tol = 1e-10 * tol_scale
    worst = 0.0
    for n in sizes:
        for m in range(1, n):
            rep = cond.kappa_numeric(n, m)
            worst = max(worst, abs(rep.kappa_M - rep.kappa_R) / rep.kappa_R)
    # eigenvalue multiset of the normal matrix vs its diagonal-block combination
    n = 12
    for m in (1, 2, 3):
        a = build_A(n, m).toarray()
        b = build_B(n, m).toarray()
        big = np.block([[a, b], [b, a]])
        ev_m = np.sort(np.linalg.eigvalsh(big.T @ big))
        c, d = cond.build_CD(n, m)
        ev_cd = np.sort(np.linalg.eigvalsh(c.toarray() + d.toarray()))
        dev = np.max(np.abs(ev_m - np.sort(np.concatenate([ev_cd, ev_cd]))))
        worst = max(worst, float(dev / max(1.0, ev_m[-1])))
    return worst <= tol, f"max condition-equality deviation {worst:.2e} (tol {tol:.1e})"


def _suite_bounds(level, tol_scale=1.0):
    lmax, mmax = (1000, 30) if level == "quick" else (10000, 100)
    ell = np.arange(1, lmax + 1, dtype=np.float64)
    for m in range(1, mmax + 1):
        d = rec.chol_d(ell, m)
        e = rec.chol_e(ell, m)
        f = rec.chol_f(ell, m)
        if np.any(d > (ell + 2 * m) / 2) or np.any(e > 1.0) or np.any(f > (ell + 1) / 2):
            return False, f"entry upper bounds violated at m={m}"
        if m >= 2 and np.any(d - e - f < m - 1.5):
            return False, f"row-sum lower bound violated at m={m}"
        if np.any(np.diff(d) <= 0.0):
            return False, f"diagonal not increasing at m={m}"
    sizes = (8, 16) if level == "quick" else (8, 16, 32, 64)
    for n in sizes:
        for m in range(1, n):
            rep = cond.kappa_numeric(n, m)
            if rep.kappa_R > rep.bound:
                return False, f"condition bound violated at (n={n}, m={m})"
            r = cond.build_R(n - m, m).to_dense()
            sv = np.linalg.svd(r, compute_uv=False)
            if sv[0] > rep.sigma_max_bound:
                return False, f"singular-value upper bracket violated at (n={n}, m={m})"
            if m >= 2 and sv[-1] < rep.sigma_min_bound:
                return False, f"singular-value lower bracket violated at (n={n}, m={m})"
    return True, f"bounds verified for l <= {lmax}, m <= {mmax} and {len(sizes)} degrees"


def _suite_solver_oracle(level, tol_scale=1.0):
    tol = 1e-11 * tol_scale
    worst = 0.0
    n = 12
    rng = np.random.default_rng(5)
    for m in range(1, n):
        a = build_A(n, m).toarray()
        b = build_B(n, m).toarray()
        big = np.block([[a, b], [b, a]])
        rhs = rng.standard_normal((big.shape[0], 2))
        x, _ = solve_order(n, m, rhs)
        x_ref, *_ = np.linalg.lstsq(big, rhs, rcond=None)
        worst = max(worst, float(np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref))))
    # consistent system: exact recovery
    n, m = 16, 3
    a = build_A(n, m).toarray()
    b = build_B(n, m).toarray()
    big = np.block([[a, b], [b, a]])
    x_true = rng.standard_normal((big.shape[1], 2))
    x, residual = solve_order(n, m, big @ x_true)
    worst = max(worst, float(np.max(np.abs(x - x_true)) / np.max(np.abs(x_true))))
    ok = worst <= tol and residual <= 1e-12 * np.linalg.norm(big @ x_true)
    return ok, f"max deviation from dense least-squares {worst:.2e} (tol {tol:.1e})"


def _suite_roundtrip(level, tol_scale=1.0):
    tol = 1e-12 * tol_scale
    sizes = (16, 64) if level == "quick" else (16, 64, 256)
    seeds = (1, 2) if level == "quick" else (1, 2, 3)
    worst = 0.0
    for n in sizes:
        for seed in seeds:
            s = random_spectrum(n - 1, seed)
            t = random_spectrum(n - 1, seed + 1000)
            s[0, 0] = 0.0
            t[0, 0] = 0.0
            result = decompose(differentiate(s, t))
            worst = max(
                worst,
                relative_l2_error(result.spheroidal, s),
                relative_l2_error(result.toroidal, t),
            )
    return worst <= tol, f"max roundtrip relative error {worst:.2e} (tol {tol:.1e})"


def _suite_quadrature(level, tol_scale=1.0):
    tol = 1e-10 * tol_scale
    sizes = (6, 10) if level == "quick" else (6, 10, 16)
    worst = 0.0
    for n in sizes:
        s = random_spectrum(n - 1, 11 + n)
        t = random_spectrum(n - 1, 22 + n)
        s[0, 0] = 0.0
        t[0, 0] = 0.0
        grid = GridSpec.for_degree(n)
        vth, vph = synthesize_from_potentials(s, t, grid)
        via_quadrature = analyze_z(vth, vph, grid, n)
        spectral = differentiate(s, t)
        worst = max(
            worst,
            float(np.max(np.abs(via_quadrature.theta.flat() - spectral.theta.flat()))),
            float(np.max(np.abs(via_quadrature.phi.flat() - spectral.phi.flat()))),
        )
    return worst <= tol, f"max quadrature-vs-spectral deviation {worst:.2e} (tol {tol:.1e})"


SUITES = [
    ("pointwise-identities", _suite_pointwise),
    ("conversion-roundtrip", _suite_conversion),
    ("block-structure", _suite_structure),
    ("cholesky-identity", _suite_cholesky),
    ("condition-equalities", _suite_condition_equalities),
    ("proved-bounds", _suite_bounds),
    ("solver-vs-dense", _suite_solver_oracle),
    ("quadrature-oracle", _suite_quadrature),
    ("roundtrip-error", _suite_roundtrip),
]


def run_verification(level="quick", tol_scale=1.0):
    """Run all suites; returns a list of (name, passed, detail)."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = []
    for name, fn in SUITES:
        try:
            ok, detail = fn(level, tol_scale)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
