"""The three benchmark workloads.

Each workload makes its inputs from the seed with numpy alone, so the
package receives only generated data.  A workload has three steps:

* ``make_inputs(seed)`` -- the inputs of the timed pool (indices below
  ``pool``), then one per set-up: seeded potential pairs, each made on
  demand outside the timed calls and dropped after use, or CLI seeds;
* ``warm_up(sh, inputs, workdir, k)`` -- the warm-up call(s) of set-up
  ``k`` at the workload's degree; returns the state the timed calls reuse,
  the seconds the warm-up calls took (input preparation excluded) and
  their gated outcome, whose seconds are those of the timed calls when the
  warm-up makes the same calls;
* ``iteration(sh, state, i)`` -- one timed unit of work on pool entry
  ``i % pool``; returns the timed calls' seconds and the correctness gate.

Every output is gated, the warm-up calls' too.  The gate passes when the
recovered potentials are finite, their relative L2 error against the
seeded potentials is at most ``ROUNDTRIP_TOL`` and the total least-squares
residual is finite.  It is computed with numpy on the
package's outputs (for the CLI, on the files it wrote), never with the
package's own error helpers.
"""

import contextlib
import io
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

ROUNDTRIP_TOL = 1e-12  # acceptance criterion 01


@dataclass
class Outcome:
    """Seconds of the timed calls of one iteration and the gate's verdict.

    ``ref`` is the reference kernel's time around the calls (see run.py).
    """

    seconds: dict
    ok: bool
    rel_err: float
    detail: str = ""
    ref: float = math.nan


def _potential_pair(n, seed, index):
    """Two i.i.d. normal potentials of degree n - 1 with zero (0, 0) entries."""
    rng = np.random.Generator(np.random.PCG64([seed, index]))
    s, t = rng.standard_normal((2, n * n))
    s[0] = t[0] = 0.0  # (l, m) = (0, 0) leads the order-major layout
    return s, t


class _Potentials:
    """Seeded potential pairs of degree n - 1; ``self[i]`` makes pair i anew."""

    def __init__(self, n, seed):
        self.n, self.seed = n, seed

    def __getitem__(self, index):
        return _potential_pair(self.n, self.seed, index)


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def gate(spheroidal, toroidal, s, t, total_residual):
    """Return (ok, rel_err, detail) for one recovered pair of potentials."""
    if not (np.all(np.isfinite(spheroidal)) and np.all(np.isfinite(toroidal))):
        return False, math.inf, "non-finite potentials"
    err = max(_rel_err(spheroidal, s), _rel_err(toroidal, t))
    if not math.isfinite(total_residual):
        return False, err, f"non-finite total residual {total_residual}"
    if not err <= ROUNDTRIP_TOL:
        return False, err, f"roundtrip error {err:.3e} > {ROUNDTRIP_TOL}"
    return True, err, ""


def _spectrum_bytes(sh, n):
    """Bytes of one potential (degree n - 1) and of one field component (degree n)."""
    return sh.ScalarSpectrum(n - 1).size * 8, sh.ZSpectrum(n).size * 8


def _gated(result, s, t, seconds):
    ok, err, detail = gate(result.spheroidal.flat(), result.toroidal.flat(), s, t,
                           result.total_residual())
    return Outcome(seconds, ok, err, detail)


class _SeededPotentials:
    """Inputs are seeded potential pairs of degree n - 1, made when used.

    Only the pairs a workload holds on to stay resident, so the process's
    peak memory is the package's, not the benchmark's.
    """

    modules = ("spherehhd",)  # what a user of the workload imports

    def make_inputs(self, seed):
        return _Potentials(self.n, seed)

    def spectra(self, sh, pair):
        return sh.ScalarSpectrum(self.n - 1, pair[0]), sh.ScalarSpectrum(self.n - 1, pair[1])


class DecomposeLarge(_SeededPotentials):
    """differentiate then decompose at n = 1024, no factorization cache."""

    name = "decompose-large"
    n = 1024
    pool = 3
    setups = 3

    def warm_up(self, sh, inputs, workdir, k):
        self.inputs = inputs
        s_flat, t_flat = inputs[self.pool + k]
        outcome = self._run(sh, s_flat, t_flat)
        return None, sum(outcome.seconds.values()), outcome

    def iteration(self, sh, state, i):
        return self._run(sh, *self.inputs[i % self.pool])

    def _run(self, sh, s_flat, t_flat):
        s, t = self.spectra(sh, (s_flat, t_flat))
        t0 = perf_counter()
        fld = sh.differentiate(s, t)
        t1 = perf_counter()
        result = sh.decompose(fld)
        t2 = perf_counter()
        return _gated(result, s_flat, t_flat, {"differentiate": t1 - t0, "decompose": t2 - t1})

    def working_set(self, sh):
        y, z = _spectrum_bytes(sh, self.n)
        return {"one_spectrum_bytes": y, "per_call_bytes": 4 * y + 2 * z}


class StreamSmall(_SeededPotentials):
    """Back-to-back decompose of a pool of pre-generated fields at n = 64."""

    name = "stream-small"
    n = 64
    pool = 32
    setups = 30  # a set-up takes ~0.05-0.1 s

    def _field(self, sh, pair):
        s, t = self.spectra(sh, pair)
        t0 = perf_counter()
        fld = sh.differentiate(s, t)
        return fld, perf_counter() - t0

    def warm_up(self, sh, inputs, workdir, k):
        self.inputs = inputs
        s_flat, t_flat = inputs[self.pool + k]
        fld, _ = self._field(sh, (s_flat, t_flat))
        t0 = perf_counter()
        # the README tells repeated same-degree callers to keep a FactorCache
        cache = sh.FactorCache(self.n) if hasattr(sh, "FactorCache") else None
        result = self._decompose(sh, fld, cache)
        dt = perf_counter() - t0
        return cache, dt, _gated(result, s_flat, t_flat, {})

    @staticmethod
    def _decompose(sh, fld, cache):
        return sh.decompose(fld) if cache is None else sh.decompose(fld, cache=cache)

    def prepare_pool(self, sh):
        """Differentiate the pool; returns each call's seconds."""
        if not hasattr(self, "pairs"):
            self.pairs = [self.inputs[i] for i in range(self.pool)]
        self.fields, seconds = [], []
        for pair in self.pairs:
            fld, dt = self._field(sh, pair)
            self.fields.append(fld)
            seconds.append(dt)
        return seconds

    def iteration(self, sh, cache, i):
        s_flat, t_flat = self.pairs[i % self.pool]
        fld = self.fields[i % self.pool]
        t0 = perf_counter()
        result = self._decompose(sh, fld, cache)
        t1 = perf_counter()
        return _gated(result, s_flat, t_flat, {"decompose": t1 - t0})

    def working_set(self, sh):
        y, z = _spectrum_bytes(sh, self.n)
        return {"one_spectrum_bytes": y, "per_call_bytes": 2 * y + 2 * z,
                "pool_bytes": self.pool * (2 * y + 2 * z)}


def _read_rows(path):
    """(l, m, value) columns of a coefficient file, parsed without the package."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return data[:, :2].astype(np.int64), data[:, 2]


class CliFiles:
    """``spherehhd differentiate`` then ``spherehhd decompose`` on files at n = 256."""

    name = "cli-files"
    modules = ("spherehhd", "spherehhd.cli")
    n = 256
    pool = 8
    setups = 5  # a set-up takes ~2 s

    def make_inputs(self, seed):
        rng = np.random.Generator(np.random.PCG64([seed, 0]))
        return [int(v) for v in rng.integers(0, 2**31, self.pool + self.setups)]

    def warm_up(self, sh, inputs, workdir, k):
        self.inputs = inputs
        self.workdir = workdir
        outcome = self._run_checked(sh, inputs[self.pool + k], "warm")
        return None, sum(outcome.seconds.values()), outcome

    def _prefix(self, tag):
        return str(self.workdir / tag)

    def _remove(self, tag):
        for path in self.workdir.glob(tag + "_*"):
            path.unlink()

    def _run(self, sh, seed, tag):
        prefix = self._prefix(tag)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc_diff = sh.cli.main(["differentiate", "--n", str(self.n), "--seed", str(seed),
                                   "--out-prefix", prefix])
            t1 = perf_counter()
            rc_dec = sh.cli.main(["decompose", "--input-theta", prefix + "_theta.csv",
                                  "--input-phi", prefix + "_phi.csv",
                                  "--out-prefix", prefix + "_out"])
            t2 = perf_counter()
        return {"differentiate": t1 - t0, "decompose": t2 - t1}, rc_diff, rc_dec

    def iteration(self, sh, state, i):
        return self._run_checked(sh, self.inputs[i % self.pool], f"it{i % self.pool}")

    def _run_checked(self, sh, seed, tag):
        seconds, rc_diff, rc_dec = self._run(sh, seed, tag)
        try:
            if rc_diff != 0 or rc_dec != 0:
                return Outcome(seconds, False, math.inf, f"exit codes {rc_diff}, {rc_dec}")
            return Outcome(seconds, *self._check(self._prefix(tag)))
        finally:
            self._remove(tag)

    def _check(self, prefix):
        idx_s, s = _read_rows(prefix + "_s.csv")
        idx_t, t = _read_rows(prefix + "_t.csv")
        idx_sp, sp = _read_rows(prefix + "_out_spheroidal.csv")
        idx_tp, tp = _read_rows(prefix + "_out_toroidal.csv")
        rows = self.n * self.n
        if not (len(s) == len(t) == len(sp) == len(tp) == rows):
            return False, math.inf, "coefficient files have the wrong number of rows"
        if not (np.array_equal(idx_s, idx_sp) and np.array_equal(idx_t, idx_tp)):
            return False, math.inf, "potential files list different (l, m) rows"
        residuals = np.loadtxt(prefix + "_out_residuals.csv", delimiter=",", skiprows=1, ndmin=2)
        total_residual = float(np.sqrt(np.sum(residuals[:, 1] ** 2)))
        return gate(sp, tp, s, t, total_residual)

    def working_set(self, sh):
        y, z = _spectrum_bytes(sh, self.n)
        return {"one_spectrum_bytes": y, "per_call_bytes": 4 * y + 2 * z}


WORKLOADS = {w.name: w for w in (DecomposeLarge, StreamSmall, CliFiles)}
