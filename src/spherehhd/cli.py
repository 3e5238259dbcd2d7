"""Command-line interface: decomposition runs, experiments, and verification.

Subcommands
-----------
decompose     read tangential-component coefficient files, write potentials
differentiate generate seeded random potentials and their tangential field
roundtrip     differentiate-then-decompose experiment with timings (CSV)
bench         differentiate and decompose timings over a list of degrees (CSV;
              ``--json PATH`` also writes medians, errors and peak RSS)
cond          condition numbers and bounds over (n, m) grids (CSV)
verify        run the numerical verification suites

All CSV goes to stdout with a fixed header.  ``decompose_seconds`` and
``differentiate_seconds`` are the ``perf_counter`` wall times of one
``decompose`` and one ``differentiate`` call, after one discarded warm-up
round trip, and a mean row closes each run.  Exit codes: 0 success,
1 validation failure, 2 numerical-suite failure.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import conditioning as cond
from .solver import decompose, differentiate
from .spectra import (
    TangentField,
    ZSpectrum,
    random_spectrum,
    read_spectrum,
    relative_l2_error,
    write_spectrum,
)
from .verify import run_verification

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Validated options of one CLI invocation."""

    command: str
    n: int = None
    seed: int = 0
    iters: int = 10
    input_theta: str = None
    input_phi: str = None
    out_prefix: str = None
    m_list: tuple = ()
    n_list: tuple = ()
    level: str = "quick"
    tol: float = 1.0
    json: str = None

    def __post_init__(self):
        if self.command not in ("decompose", "differentiate", "roundtrip", "cond", "bench", "verify"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.iters < 1:
            raise ValueError("--iters must be >= 1")
        if self.n is not None and self.n < 2:
            raise ValueError("--n must be >= 2")
        if self.level not in ("quick", "full"):
            raise ValueError("--level must be quick or full")
        if self.tol <= 0:
            raise ValueError("--tol must be positive")
        # checked before a command prints its CSV header or any row
        if self.command == "bench" and any(n < 2 for n in self.n_list):
            raise ValueError("--n-list entries must be >= 2")
        if self.command == "cond" and any(n > cond.DENSE_ORACLE_LIMIT for n in self.n_list):
            raise ValueError(f"dense columns are limited to n <= {cond.DENSE_ORACLE_LIMIT}")


def _parse_int_list(text):
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValueError("empty integer list")
    return values


def _random_potentials(n, seed):
    s = random_spectrum(n - 1, seed)
    t = random_spectrum(n - 1, seed + 1_000_000)
    s[0, 0] = 0.0
    t[0, 0] = 0.0
    return s, t


def cmd_decompose(cfg):
    if not (cfg.input_theta and cfg.input_phi and cfg.out_prefix):
        raise ValueError("decompose needs --input-theta, --input-phi and --out-prefix")
    theta = read_spectrum(cfg.input_theta)
    phi = read_spectrum(cfg.input_phi)
    if not isinstance(theta, ZSpectrum) or not isinstance(phi, ZSpectrum):
        raise ValueError("decompose expects basis-Z coefficient files")
    if theta.n != phi.n:
        raise ValueError(f"component degrees differ: {theta.n} vs {phi.n}")
    result = decompose(TangentField(theta, phi))
    write_spectrum(result.spheroidal, f"{cfg.out_prefix}_spheroidal.csv")
    write_spectrum(result.toroidal, f"{cfg.out_prefix}_toroidal.csv")
    with open(f"{cfg.out_prefix}_residuals.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("m,residual,out_of_range_norm\n")
        for m in sorted(set(result.residual_by_order) | set(result.out_of_range_by_order)):
            res = result.residual_by_order.get(m, 0.0)
            oor = result.out_of_range_by_order.get(m, 0.0)
            fh.write(f"{m},{res:.16e},{oor:.16e}\n")
    print(
        f"decomposed n={theta.n}: total residual {result.total_residual():.3e}, "
        f"out-of-range norm {result.total_out_of_range():.3e}"
    )
    return 0


def cmd_differentiate(cfg):
    if cfg.n is None or not cfg.out_prefix:
        raise ValueError("differentiate needs --n and --out-prefix")
    s, t = _random_potentials(cfg.n, cfg.seed)
    field = differentiate(s, t)
    write_spectrum(s, f"{cfg.out_prefix}_s.csv")
    write_spectrum(t, f"{cfg.out_prefix}_t.csv")
    write_spectrum(field.theta, f"{cfg.out_prefix}_theta.csv")
    write_spectrum(field.phi, f"{cfg.out_prefix}_phi.csv")
    print(f"differentiated random potentials n={cfg.n} seed={cfg.seed}")
    return 0


def _timed_roundtrip_rows(n, seed, iters):
    """(iter, rel_error, decompose_seconds, differentiate_seconds) per seeded round trip."""
    rows = []
    s, t = _random_potentials(n, seed)
    decompose(differentiate(s, t))  # warm-up, discarded
    for it in range(1, iters + 1):
        s, t = _random_potentials(n, seed + it)
        t0 = time.perf_counter()
        field = differentiate(s, t)
        t1 = time.perf_counter()
        result = decompose(field)
        t2 = time.perf_counter()
        err = max(
            relative_l2_error(result.spheroidal, s),
            relative_l2_error(result.toroidal, t),
        )
        rows.append((it, err, t2 - t1, t1 - t0))
    return rows


def _mean_seconds(rows):
    return ",".join(f"{sum(r[col] for r in rows) / len(rows):.6f}" for col in (2, 3))


def cmd_roundtrip(cfg):
    if cfg.n is None:
        raise ValueError("roundtrip needs --n")
    rows = _timed_roundtrip_rows(cfg.n, cfg.seed, cfg.iters)
    print("n,iter,rel_error,decompose_seconds,differentiate_seconds")
    for it, err, dec, diff in rows:
        print(f"{cfg.n},{it},{err:.16e},{dec:.6f},{diff:.6f}")
    mean_err = sum(r[1] for r in rows) / len(rows)
    print(f"{cfg.n},mean,{mean_err:.16e},{_mean_seconds(rows)}")
    return 0


# one round trip in a fresh interpreter, which prints its peak RSS in MiB
# (ru_maxrss is in KiB on Linux)
_PEAK_RSS_CHILD = (
    "import resource, sys; from spherehhd.cli import _timed_roundtrip_rows; "
    "_timed_roundtrip_rows(int(sys.argv[1]), int(sys.argv[2]), 1); "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)


def _peak_rss_mib(n, seed):
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, str(n), str(seed)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


def _machine():
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def cmd_bench(cfg):
    n_list = cfg.n_list or (256, 512, 1024)
    print("n,iter,decompose_seconds,differentiate_seconds")
    runs = []
    for n in n_list:
        rows = _timed_roundtrip_rows(n, cfg.seed, cfg.iters)
        for it, _, dec, diff in rows:
            print(f"{n},{it},{dec:.6f},{diff:.6f}")
        print(f"{n},mean,{_mean_seconds(rows)}")
        if cfg.json:
            runs.append({"n": n, "decompose_s": statistics.median(r[2] for r in rows),
                         "differentiate_s": statistics.median(r[3] for r in rows),
                         "roundtrip_rel_err": max(r[1] for r in rows),
                         "peak_rss_mib": _peak_rss_mib(n, cfg.seed)})
    if cfg.json:
        with open(cfg.json, "w", encoding="utf-8") as fh:
            report = {"machine": _machine(), "iters": cfg.iters, "seed": cfg.seed, "runs": runs}
            json.dump(report, fh, indent=1)
    return 0


def cmd_cond(cfg):
    n_list = cfg.n_list or (8, 16, 32, 64)
    m_list = cfg.m_list or (1, 2, 3, 5, 8)
    print("n,m,kappa_R_dense,kappa_M_dense,theorem_bound,qi_sigma_max,qi_sigma_min,conjecture")
    for n in n_list:
        for m in m_list:
            if not 1 <= m <= n - 1:
                continue
            rep = cond.kappa_numeric(n, m)
            qi_min = "" if rep.sigma_min_bound is None else f"{rep.sigma_min_bound:.16e}"
            conj = f"{cond.inverse_norm_conjecture(n):.16e}" if m == 1 and n > 1 else ""
            print(
                f"{n},{m},{rep.kappa_R:.16e},{rep.kappa_M:.16e},{rep.bound:.16e},"
                f"{rep.sigma_max_bound:.16e},{qi_min},{conj}"
            )
    return 0


def cmd_verify(cfg):
    t0 = time.monotonic()
    results = run_verification(cfg.level, tol_scale=cfg.tol)
    failed = 0
    for name, ok, detail in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} suites passed in {time.monotonic() - t0:.1f}s")
    return 0 if failed == 0 else 2


_COMMANDS = {
    "decompose": cmd_decompose,
    "differentiate": cmd_differentiate,
    "roundtrip": cmd_roundtrip,
    "bench": cmd_bench,
    "cond": cmd_cond,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="spherehhd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=None, help="truncation degree")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--iters", type=int, default=10, help="timed iterations after warm-up")
        p.add_argument("--input-theta", default=None, help="basis-Z coefficient file, theta component")
        p.add_argument("--input-phi", default=None, help="basis-Z coefficient file, phi component")
        p.add_argument("--out-prefix", default=None, help="prefix for output files")
        p.add_argument("--m-list", default=None, help="comma-separated orders")
        p.add_argument("--n-list", default=None, help="comma-separated truncation degrees")
        p.add_argument("--level", default="quick", choices=("quick", "full"), help="verification depth")
        p.add_argument("--tol", type=float, default=1.0, help="tolerance scale for verify")
        p.add_argument("--json", default=None, help="bench: also write the results to this file")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        options = vars(args)
        for key in ("m_list", "n_list"):
            options[key] = _parse_int_list(options[key]) if options[key] else ()
        cfg = RunConfig(**options)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"spherehhd {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
